//! What the three FFBP machine drivers add to `sar-core`'s merge walk
//! ([`merge_stages`] → [`StageRows`] → [`MergeRow::combine`]): where a
//! row and its contributing elements live in external memory, and
//! threads that do the arithmetic once, beside the timing.
//!
//! [`walk`] is the stage loop of every FFBP machine run. A helper thread
//! combines rows in walk order into a window of [`WINDOW`] slots, and
//! every [`Machine`] prices them in walk order
//! ([`Stage::laid_out_rows`]), with the plain walk's hits and op ledger:
//! the arithmetic reads no machine state. A slot is reused once every
//! machine has priced its row. The first machine leads on the caller's
//! thread (it walks the stages, hands each walk to the helper and
//! assembles the merged stage); any other is built and priced on a
//! thread of its own, as a `Chip` holds `Rc`s. A machine whose row is
//! not ready combines the walk's next unclaimed row itself, and parks
//! when there is none for a while; ahead of a slower machine it parks
//! at once, until half a window more is combined.

use std::cell::RefCell;
use std::ops::Deref;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::{self, Thread};

use desim::{OpCounts, RunRecord};
use memsim::GlobalAddr;
use sar_core::complex::c32;
use sar_core::ffbp::{self, merge_rows, merge_stages, Hit, MergeRow, StagePlans, StageRows};
use sar_core::image::ComplexImage;
use sim_harness::{FfbpWorkload, ImageRun, RunContext};

use crate::layout::ExternalLayout;

/// Rows the helper may hold computed ahead of the slowest machine.
const WINDOW: usize = 16;

/// Spins a waiting thread makes before it parks.
const SPINS: u32 = 1 << 10;

/// A sample's `[Hit; 2]` in 8 bytes: per child `beam << 16 | bin`, or
/// [`Packed::NONE`] outside its swath.
#[derive(Clone, Copy)]
struct Packed([u32; 2]);

impl Packed {
    const NONE: u32 = u32::MAX;

    fn new(hits: [Hit; 2]) -> Packed {
        Packed(hits.map(|hit| hit.map_or(Packed::NONE, |(bin, beam)| (beam << 16 | bin) as u32)))
    }

    fn unpack(self) -> [Hit; 2] {
        self.0
            .map(|p| (p != Packed::NONE).then_some(((p & 0xffff) as usize, (p >> 16) as usize)))
    }
}

/// One row's arithmetic, done: its samples, hits and op ledger.
#[derive(Default)]
struct Combined {
    samples: Vec<c32>,
    hits: Vec<Packed>,
    ops: OpCounts,
}

impl Combined {
    fn combine(&mut self, row: &MergeRow<'_>, num_bins: usize) {
        self.samples.resize(num_bins, c32::ZERO);
        self.hits.clear();
        let hits = &mut self.hits;
        self.ops = row.combine(&mut self.samples, |_, h| hits.push(Packed::new(h)));
    }
}

/// Where run row `k` is combined: slot `k % WINDOW`. Rows are numbered
/// across the whole run, so a slot's `ready` never repeats.
#[derive(Default)]
struct Slot {
    /// `k + 1` once run row `k` is combined here.
    ready: AtomicUsize,
    /// Written by the row's combiner, then read by every machine.
    row: RwLock<Combined>,
}

/// One walk of one stage: run rows `first..end`.
struct Job {
    stage: Arc<ffbp::Stage>,
    first: usize,
    end: usize,
    /// The helper's plans, made by the lead: every block a run sizes by
    /// its stages comes from the one thread that outlives the run's
    /// other threads.
    plans: Mutex<StagePlans>,
}

/// One machine's place in the run.
#[derive(Default)]
struct Pricer {
    /// Run rows it has priced.
    priced: AtomicUsize,
    /// `k + 1` while it is parked until run row `k` is combined, else 0.
    parked_on: AtomicUsize,
    thread: OnceLock<Thread>,
}

/// What the threads of one run share.
struct Shared<'w> {
    w: &'w FfbpWorkload,
    /// The walk in progress, if any.
    job: Mutex<Option<Arc<Job>>>,
    /// Run rows claimed so far, by any thread.
    claimed: AtomicUsize,
    /// The machines, the lead first.
    pricers: Vec<Pricer>,
    /// The [`Shared::floor`] at which a machine wakes a helper that
    /// found the window full; `usize::MAX` when none did.
    wake_at: AtomicUsize,
    quit: AtomicBool,
    helper: OnceLock<Thread>,
    slots: Vec<Slot>,
}

/// Lock a buffer that holds no invariant a panic could break.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Unpark `thread` if it has started.
fn wake(thread: &OnceLock<Thread>) {
    if let Some(thread) = thread.get() {
        thread.unpark();
    }
}

/// Runs its closure when dropped, unwinding included.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

impl Shared<'_> {
    /// Run rows every machine has priced; the helper claims no row
    /// `WINDOW` or more past it.
    fn floor(&self) -> usize {
        let priced = self.pricers.iter().map(|p| p.priced.load(SeqCst));
        priced.min().expect("a run prices a machine")
    }

    fn ready(&self, k: usize) -> bool {
        self.slots[k % WINDOW].ready.load(SeqCst) == k + 1
    }

    /// End the run and wake every thread to see it.
    fn stop(&self) {
        self.quit.store(true, SeqCst);
        wake(&self.helper);
        self.pricers.iter().for_each(|p| wake(&p.thread));
    }

    /// The helper's loop: combine the rows it claims, walk by walk,
    /// until the run is over.
    fn help(&self) {
        while let Some(job) = self.next_job() {
            let rows = StageRows::new(&job.stage, &self.w.geom, &self.w.config);
            let mut plans = lock(&job.plans);
            while let Some(k) = self.claim_ahead(&job) {
                self.combine(&job, &rows, &mut plans, k);
            }
        }
    }

    /// Claim the walk's next unclaimed row if it is inside the window.
    fn claim(&self, job: &Job) -> Option<usize> {
        let k = self.claimed.load(SeqCst);
        let open = k < job.end && k < self.floor() + WINDOW;
        let claimed = || self.claimed.compare_exchange(k, k + 1, SeqCst, SeqCst);
        (open && claimed().is_ok()).then_some(k)
    }

    /// Combine run row `k` of `job` into its slot, mark it ready and
    /// wake the machines parked until it is.
    fn combine(&self, job: &Job, rows: &StageRows<'_>, plans: &mut StagePlans, k: usize) {
        let slot = &self.slots[k % WINDOW];
        let row = plans.plan(rows.row(k - job.first));
        let mut combined = slot.row.write().unwrap_or_else(PoisonError::into_inner);
        combined.combine(&row, self.w.geom.num_bins);
        drop(combined);
        slot.ready.store(k + 1, SeqCst);
        for p in &self.pricers {
            if p.parked_on.load(SeqCst) == k + 1 {
                wake(&p.thread);
            }
        }
    }

    /// The walk with rows left to claim, parking while there is none;
    /// `None` once the run is over. Holds no walk while parked, and
    /// wakes the lead before it parks, so the lead can let go of its
    /// stage.
    fn next_job(&self) -> Option<Arc<Job>> {
        while !self.quit.load(SeqCst) {
            let job = lock(&self.job).clone();
            let job = job.filter(|job| self.claimed.load(SeqCst) < job.end);
            if job.is_some() {
                return job;
            }
            wake(&self.pricers[0].thread);
            thread::park();
        }
        None
    }

    /// Claim the walk's next row for the helper, parking while the
    /// window is full; `None` once every row is claimed or the run is
    /// over.
    fn claim_ahead(&self, job: &Job) -> Option<usize> {
        loop {
            if self.quit.load(SeqCst) {
                return None;
            }
            if let Some(k) = self.claim(job) {
                return Some(k);
            }
            let (k, floor) = (self.claimed.load(SeqCst), self.floor());
            if k >= job.end {
                return None;
            }
            if k >= floor + WINDOW {
                // Sleep until half the window is priced (or the walk's
                // last row is): one wake-up per `WINDOW / 2` rows, not
                // per row.
                let wake_at = (floor + WINDOW / 2).min(job.end);
                self.wake_at.store(wake_at, SeqCst);
                if self.floor() < wake_at {
                    thread::park();
                }
            }
        }
    }

    /// Wait, as machine `m`, until `done()`: spin from `spins` to
    /// [`SPINS`], then park until run row `on` is combined (with `None`,
    /// the lead at a stage's end, until another thread lets go of the
    /// stage). Panics if another thread has.
    fn wait(&self, m: usize, on: Option<usize>, mut spins: u32, mut done: impl FnMut() -> bool) {
        let parked_on = &self.pricers[m].parked_on;
        while !done() {
            assert!(
                !self.quit.load(SeqCst),
                "another thread of the walk panicked"
            );
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            parked_on.store(on.map_or(0, |k| k + 1), SeqCst);
            if !done() {
                thread::park();
            }
            parked_on.store(0, SeqCst);
        }
    }
}

/// A machine a [`walk`] prices, not yet built: given the run's context
/// and its side of the walk, it builds its model on the thread that
/// calls it, prices every stage ([`Stages::each`]) and returns what it
/// measured.
pub(crate) type Machine<'m, T = RunRecord> =
    Box<dyn FnOnce(&RunContext, &mut Stages<'_>) -> T + Send + 'm>;

/// One machine's side of a [`walk`].
pub(crate) struct Stages<'s> {
    shared: &'s Shared<'s>,
    /// The machine's place in the run; 0 leads.
    m: usize,
    /// The image, once the lead has walked every stage.
    image: Option<ComplexImage>,
}

impl<'s> Stages<'s> {
    /// The workload the walk forms.
    pub fn workload(&self) -> &'s FfbpWorkload {
        self.shared.w
    }

    /// Hand every merge iteration to `price` in order; it walks the
    /// stage ([`Stage::laid_out_rows`]).
    pub fn each(&mut self, mut price: impl FnMut(&Stage<'_>)) {
        let (shared, m) = (self.shared, self.m);
        let w = shared.w;
        if m == 0 {
            let (image, _) = merge_stages(&w.data, &w.geom, |stage, idx| {
                let next = RefCell::new(stage.merged(2));
                let (input, job) = (Arc::new(stage), None);
                let stage = Stage {
                    shared,
                    m,
                    input,
                    job,
                    next: Some(next),
                    idx,
                };
                price(&stage);
                stage.next.expect("the lead's").into_inner()
            });
            self.image = Some(image);
            return;
        }
        for idx in 0..w.geom.merge_iterations() {
            // The stage's first row is combined once the lead has handed
            // its walk out, which stays out until every machine priced it.
            let first = shared.pricers[m].priced.load(SeqCst);
            shared.wait(m, Some(first), SPINS, || shared.ready(first));
            let job = lock(&shared.job).clone().expect("the lead's walk");
            let input = Arc::clone(&job.stage);
            price(&Stage {
                shared,
                m,
                input,
                job: Some(job),
                next: None,
                idx,
            });
            wake(&shared.pricers[0].thread);
        }
    }
}

/// One merge iteration of a [`walk`], as one machine sees it.
pub(crate) struct Stage<'s> {
    shared: &'s Shared<'s>,
    m: usize,
    /// The host stage merged; dropped before `job`.
    input: Arc<ffbp::Stage>,
    /// A follower's: the lead's walk of the stage.
    job: Option<Arc<Job>>,
    /// The lead's: the merged stage, which its walks fill in.
    next: Option<RefCell<ffbp::Stage>>,
    /// The stage's number (the output is stage `idx + 1`).
    pub idx: u32,
}

impl Stage<'_> {
    /// Walk the stage: hand every output row to `price` in walk order,
    /// combined and at its place in the [`ExternalLayout`], which lays
    /// out each stage as the host does ([`ffbp::Stage`]: subapertures
    /// back to back, beam-major). The lead may walk a stage again
    /// (checkpoint redo); a run of several machines walks each stage
    /// once.
    pub fn laid_out_rows(&self, mut price: impl FnMut(&LaidOutRow<'_>)) {
        let (shared, m) = (self.shared, self.m);
        let w = shared.w;
        let rows = StageRows::new(&self.input, &w.geom, &w.config);
        // The helper keeps the stage's reusable plans; a machine plans
        // afresh the rows it computes — at paper scale a few per stage,
        // before the helper is awake.
        let mut plans = StagePlans::one_row(w.geom.num_bins);
        let first = shared.pricers[m].priced.load(SeqCst);
        let job = self.job.clone().unwrap_or_else(|| {
            let (stage, end) = (Arc::clone(&self.input), first + rows.len());
            let plans = Mutex::new(StagePlans::for_stage(&stage, w.geom.num_bins));
            let job = Arc::new(Job {
                stage,
                first,
                end,
                plans,
            });
            *lock(&shared.job) = Some(Arc::clone(&job));
            wake(&shared.helper);
            job
        });
        assert_eq!(
            first, job.first,
            "a run of several machines walks a stage once"
        );
        let mut next = self.next.as_ref().map(RefCell::borrow_mut);

        let layout = ExternalLayout::of(w);
        for i in 0..rows.len() {
            let k = first + i;
            while !shared.ready(k) {
                // Ahead of a slower machine, sleep until half a window on
                // is combined; else compute rows until `k` is ready.
                let later = (k + WINDOW / 2).min(job.end) - 1;
                if shared.pricers[m].priced.load(SeqCst) > shared.floor() && !shared.ready(later) {
                    shared.wait(m, Some(later), SPINS, || shared.ready(later));
                    continue;
                }
                shared.wait(m, Some(k), 0, || {
                    if let Some(j) = shared.claim(&job) {
                        shared.combine(&job, &rows, &mut plans, j);
                    }
                    shared.ready(k)
                });
            }
            let slot = &shared.slots[k % WINDOW];
            let done = slot.row.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(next) = next.as_mut() {
                next.data.row_mut(i).copy_from_slice(&done.samples);
            }
            price(&LaidOutRow {
                row: rows.row(i),
                ops: done.ops,
                hits: &done.hits,
                out_beam: i as u32,
                stage: self.idx,
                layout,
            });
            drop(done);
            shared.pricers[m].priced.store(k + 1, SeqCst);
            // Wake the helper once the floor reaches its row.
            let wake_at = shared.wake_at.load(SeqCst);
            if k + 1 >= wake_at
                && shared.floor() >= wake_at
                && shared.wake_at.swap(usize::MAX, SeqCst) != usize::MAX
            {
                wake(&shared.helper);
            }
        }
        if next.is_some() {
            // Once every machine has priced the stage, the other threads
            // let go of the walk (the helper when it finds no row to
            // claim) and of the stage (a follower's stage before its
            // walk): the lead's is then the last hold on the stage, which
            // leaves its buffer to the run for the stage after next.
            shared.wait(0, None, 0, || shared.floor() >= job.end);
            *lock(&shared.job) = None;
            shared.wait(0, None, 0, || Arc::strong_count(&job) == 1);
        }
    }
}

/// The stage loop of an FFBP machine run ([`merge_stages`]) with one
/// helper thread for the whole run, pricing `machines`: the first on
/// this thread under `ctx`, any other on a thread of its own, untraced
/// and fault-free. Returns the image and what each machine measured,
/// in order. A panic anywhere stops every thread and propagates.
pub(crate) fn walk<T: Send>(
    w: &FfbpWorkload,
    ctx: &RunContext,
    mut machines: Vec<Machine<'_, T>>,
) -> (ComplexImage, Vec<T>) {
    assert!(
        w.geom.num_bins.max(w.geom.num_pulses) <= usize::from(u16::MAX),
        "a hit's bin and beam are packed into 16 bits each"
    );
    assert!(
        machines.len() == 1 || !(ctx.tracer.is_enabled() || ctx.faults.is_enabled()),
        "machines share a walk untraced and fault-free"
    );
    let followers = machines.split_off(1);
    let shared = &Shared {
        w,
        job: Mutex::new(None),
        claimed: AtomicUsize::new(0),
        pricers: (0..=followers.len()).map(|_| Pricer::default()).collect(),
        wake_at: AtomicUsize::new(usize::MAX),
        quit: AtomicBool::new(false),
        helper: OnceLock::new(),
        slots: (0..WINDOW).map(|_| Slot::default()).collect(),
    };
    shared.pricers[0].thread.get_or_init(thread::current);
    let stop = || {
        if thread::panicking() {
            shared.stop();
        }
    };
    thread::scope(|scope| {
        let helper = scope.spawn(|| {
            let _stop = OnDrop(stop);
            shared.help();
        });
        shared.helper.get_or_init(|| helper.thread().clone());
        let followers: Vec<_> = (1..)
            .zip(followers)
            .map(|(m, machine)| {
                scope.spawn(move || {
                    let _stop = OnDrop(stop);
                    shared.pricers[m].thread.get_or_init(thread::current);
                    machine(
                        &RunContext::plain(),
                        &mut Stages {
                            shared,
                            m,
                            image: None,
                        },
                    )
                })
            })
            .collect();
        let _stop = OnDrop(stop);
        let mut stages = Stages {
            shared,
            m: 0,
            image: None,
        };
        let first = machines.pop().expect("a run prices a machine")(ctx, &mut stages);
        shared.stop();
        let rest = followers
            .into_iter()
            .map(|f| f.join().unwrap_or_else(|p| resume_unwind(p)));
        let image = stages.image.expect("the lead walks every stage");
        (image, std::iter::once(first).chain(rest).collect())
    })
}

/// A [`walk`] that prices `machine` alone, on this thread under `ctx`.
pub(crate) fn walk_one(w: &FfbpWorkload, ctx: &RunContext, machine: Machine<'_>) -> ImageRun {
    let (image, mut records) = walk(w, ctx, vec![machine]);
    let record = records.pop().expect("one machine, one record");
    ImageRun { record, image }
}

/// A row of the walk — its geometry, which it dereferences to, and its
/// arithmetic, done — at its place in the [`ExternalLayout`].
pub(crate) struct LaidOutRow<'a> {
    row: MergeRow<'a>,
    /// The row's op ledger, planning included: what the machine prices.
    pub ops: OpCounts,
    hits: &'a [Packed],
    /// The row's beam index across the whole output stage — its row in
    /// the merged stage's buffer, and its position in the walk (the
    /// SPMD work-unit number).
    pub out_beam: u32,
    /// The stage the children belong to (the output is `stage + 1`).
    stage: u32,
    /// Where both stages live in external memory.
    pub layout: ExternalLayout,
}

impl<'a> Deref for LaidOutRow<'a> {
    type Target = MergeRow<'a>;

    fn deref(&self) -> &MergeRow<'a> {
        &self.row
    }
}

impl LaidOutRow<'_> {
    /// Each sample's two contributing elements, bin by bin.
    pub fn hits(&self) -> impl Iterator<Item = [Hit; 2]> + '_ {
        self.hits.iter().map(|p| p.unpack())
    }

    /// External address of element `(bin, beam)` of child 0 (`a`) or
    /// 1 (`b`): its global beam is its row in the host stage's buffer.
    pub fn child_addr(&self, child: usize, (bin, beam): (usize, usize)) -> GlobalAddr {
        let sub = [self.row.a, self.row.b][child];
        let global_beam = sub.rows.start + beam;
        self.layout.addr(self.stage, global_beam as u32, bin as u32)
    }

    /// External addresses of a sample's in-swath contributions, child
    /// `a`'s first.
    pub fn child_addrs(&self, hits: [Hit; 2]) -> impl Iterator<Item = GlobalAddr> + '_ {
        hits.into_iter()
            .enumerate()
            .filter_map(|(child, hit)| Some(self.child_addr(child, hit?)))
    }

    /// External address of this row's sample `bin`.
    pub fn out_addr(&self, bin: usize) -> GlobalAddr {
        self.layout.addr(self.stage + 1, self.out_beam, bin as u32)
    }
}

/// Op counts of one output sample under the workload's interpolation
/// and phase-correction settings. The kernel's counts are
/// data-independent, so the first sample of the first stage-0 pair is
/// exact for every sample of the run — the models' declaration cannot
/// drift from the kernel, because it *is* the kernel.
pub(crate) fn probe_sample(w: &FfbpWorkload) -> OpCounts {
    let pair = ffbp::Stage::of_pulses(&w.data, &w.geom, 0..2);
    let mut ops = None;
    merge_rows(&pair, &w.geom, &w.config, |row, out| {
        ops.get_or_insert_with(|| row.combine(&mut out[..1], |_, _| {}));
    });
    ops.expect("a pair has output rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PIXEL_BYTES;
    use desim::trace::Tracer;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// 128 rows per stage, several windows: a helper ahead of a slow
    /// driver fills its window and parks in every stage.
    fn wide() -> FfbpWorkload {
        FfbpWorkload::of(sar_core::geometry::SarGeometry {
            num_pulses: 128,
            ..sar_core::geometry::SarGeometry::test_size()
        })
    }

    /// A patient driver: at each stage's first row, hold until the helper
    /// has claimed a whole window past it, so the rows priced next are the
    /// helper's. (At that row the helper cannot be parked on an earlier
    /// window, so the hold cannot deadlock.)
    fn hold_for_the_helper(stage: &Stage<'_>, row: &LaidOutRow<'_>) {
        if row.out_beam != 0 {
            return;
        }
        let (shared, t0) = (stage.shared, Instant::now());
        while shared.claimed.load(SeqCst) < shared.floor() + WINDOW {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "the helper never filled its window"
            );
            thread::yield_now();
        }
    }

    /// `(stage, out_beam, hits, ops)` of one row.
    type Priced = (u32, u32, Vec<[Hit; 2]>, OpCounts);

    /// How a test machine paces itself at each row.
    #[derive(Clone, Copy)]
    enum Pace {
        /// Holds for the helper at each stage's first row.
        Patient,
        /// Returns at once, so it computes rows itself too.
        Instant,
        /// Sleeps at every row, so the others wait on it.
        Slow,
    }

    /// A machine that checks each row's addresses and the window, paces
    /// itself, and returns the `(stage, out_beam, hits, ops)` it priced.
    fn recorder(pace: Pace) -> Machine<'static, Vec<Priced>> {
        Box::new(move |_, stages| {
            let layout = ExternalLayout::of(stages.workload());
            let mut seen = Vec::new();
            stages.each(|stage| {
                let child_beams = stage.input.grid.n_beams as u32;
                stage.laid_out_rows(|row| {
                    match pace {
                        Pace::Patient => hold_for_the_helper(stage, row),
                        Pace::Slow => thread::sleep(Duration::from_micros(50)),
                        Pace::Instant => {}
                    }
                    // Rows arrive pair by pair, beam by beam: consecutive
                    // rows of the output stage's buffer, the pair's
                    // children back to back in the input stage's, `a`
                    // first.
                    let (idx, at) = (stage.idx, row.out_beam);
                    assert_eq!(row.out_addr(0), layout.addr(idx + 1, at, 0));
                    assert_eq!(row.out_addr(7), layout.addr(idx + 1, at, 7));
                    let a0 = at / (2 * child_beams) * 2 * child_beams;
                    assert_eq!(row.child_addr(0, (3, 0)), layout.addr(idx, a0, 3));
                    let b0 = a0 + child_beams;
                    assert_eq!(row.child_addr(1, (3, 0)), layout.addr(idx, b0, 3));
                    assert_eq!(
                        row.out_beam as usize,
                        row.pair * 2 * child_beams as usize + row.beam
                    );
                    // Never more than a window claimed past the floor.
                    let shared = stage.shared;
                    let ahead = shared.claimed.load(SeqCst) - shared.floor();
                    assert!(ahead <= WINDOW, "{ahead} rows claimed");
                    seen.push((idx, row.out_beam, row.hits().collect(), row.ops));
                });
            });
            seen
        })
    }

    #[test]
    fn either_pace_prices_the_plain_walks_rows_in_order_at_their_addresses() {
        let w = wide();
        // The plain walk: rows in order, combined where they are made.
        let mut plain: Vec<Priced> = Vec::new();
        let (image, _) = merge_stages(&w.data, &w.geom, |stage, idx| {
            let out_beams = 2 * stage.grid.n_beams;
            merge_rows(&stage, &w.geom, &w.config, |row, out| {
                let mut hits = Vec::new();
                let ops = row.combine(out, |_, h| hits.push(h));
                let out_beam = (row.pair * out_beams + row.beam) as u32;
                plain.push((idx, out_beam, hits, ops));
            })
        });
        let reference = sar_core::ffbp::ffbp(&w.data, &w.geom, &w.config).image;
        assert_eq!(image.as_slice(), reference.as_slice());
        let stages = w.geom.merge_iterations() as usize;
        assert_eq!(plain.len(), w.geom.num_pulses * stages);

        // A patient machine, which prices a window of the helper's rows
        // in every stage, and one that returns at once, so it computes
        // rows itself too; then three machines on one walk, each of
        // them in turn the slow one the others wait for.
        let mut walks = vec![vec![Pace::Patient], vec![Pace::Instant]];
        for slow in 0..3 {
            let mut paces = [Pace::Instant; 3];
            paces[slow] = Pace::Slow;
            walks.push(paces.to_vec());
        }
        for (n, paces) in walks.into_iter().enumerate() {
            let machines = paces.into_iter().map(recorder).collect();
            let (image, seen) = walk(&w, &RunContext::plain(), machines);
            for (m, seen) in seen.iter().enumerate() {
                assert!(
                    *seen == plain,
                    "walk {n}, machine {m}: the priced rows differ"
                );
            }
            assert_eq!(image.as_slice(), reference.as_slice(), "walk {n}");
        }
    }

    #[test]
    fn every_priced_address_is_its_host_rows_offset_in_the_layout() {
        // For every row a small walk prices: each contribution's address
        // is `stage_base + 8 (g * bins + bin)`, `g` the child's row in
        // the host stage's buffer — which holds the child's sample — and
        // the output's is the merged stage's row `out_beam`.
        let machine: Machine<'static, usize> = Box::new(|_, stages| {
            let layout = ExternalLayout::of(stages.workload());
            let bins = u64::from(layout.num_bins);
            let at = |stage: u32, g: usize, bin: usize| {
                let offset = (g as u64 * bins + bin as u64) * PIXEL_BYTES;
                GlobalAddr::external(layout.stage_base(stage) + offset as u32)
            };
            let mut checked = 0;
            stages.each(|stage| {
                let host = &stage.input.data;
                stage.laid_out_rows(|row| {
                    for hits in row.hits() {
                        for (child, hit) in hits.into_iter().enumerate() {
                            let Some((bin, beam)) = hit else { continue };
                            let sub = [row.a, row.b][child];
                            let g = sub.rows.start + beam;
                            assert_eq!(row.child_addr(child, (bin, beam)), at(stage.idx, g, bin));
                            let sample = sub.data.at_or_zero(beam as isize, bin as isize);
                            assert_eq!(sample, host.at(g, bin));
                            checked += 1;
                        }
                    }
                    let last = layout.num_bins as usize - 1;
                    for bin in [0, last] {
                        let out = at(stage.idx + 1, row.out_beam as usize, bin);
                        assert_eq!(row.out_addr(bin), out);
                    }
                });
            });
            checked
        });
        let (_, checked) = walk(&FfbpWorkload::small(), &RunContext::plain(), vec![machine]);
        assert!(checked[0] > 0, "no contribution was priced");
    }

    #[test]
    fn a_panic_while_pricing_propagates_and_stops_the_helper() {
        // One machine at either pace, then each of three in turn: the
        // lead's panic propagates, a follower's stops the lead too.
        let walks = [(1, 0, Pace::Patient), (1, 0, Pace::Instant)];
        let shared = (0..3).map(|m| (3, m, Pace::Instant));
        for (machines, culprit, pace) in walks.into_iter().chain(shared) {
            // On a thread of its own, so a hang fails the test.
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let w = wide();
                let machines = (0..machines)
                    .map(|m| -> Machine<'static, ()> {
                        Box::new(move |_, stages| {
                            stages.each(|stage| {
                                stage.laid_out_rows(|row| {
                                    if let Pace::Patient = pace {
                                        hold_for_the_helper(stage, row);
                                    }
                                    if m == culprit && stage.idx == 2 && row.out_beam == 70 {
                                        panic!("priced row 70 of stage 2");
                                    }
                                });
                            });
                        })
                    })
                    .collect();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    walk(&w, &RunContext::plain(), machines)
                }));
                let message = run.err().and_then(|p| p.downcast_ref::<&str>().copied());
                tx.send(message).expect("the test waits");
            });
            let message = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("the walk returns instead of hanging");
            let expected = match culprit {
                0 => "priced row 70 of stage 2",
                _ => "another thread of the walk panicked",
            };
            assert_eq!(message, Some(expected), "machine {culprit} of {machines}");
        }
    }

    #[test]
    #[should_panic(expected = "machines share a walk untraced and fault-free")]
    fn a_traced_walk_prices_one_machine() {
        let ctx = RunContext::traced(Tracer::enabled());
        walk(
            &wide(),
            &ctx,
            vec![recorder(Pace::Instant), recorder(Pace::Instant)],
        );
    }
}
