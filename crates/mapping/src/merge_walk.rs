//! What the three FFBP machine drivers add to `sar-core`'s merge walk
//! ([`merge_stages`] → [`StageRows`] → [`MergeRow::combine`]): where a
//! row and its contributing elements live in external memory, and a
//! second thread that does the arithmetic ahead of the timing.
//!
//! [`walk`] is the stage loop of every FFBP machine run. The run has one
//! helper thread; in each stage the helper claims rows in walk order,
//! combines them into a window of [`WINDOW`] slots, and the driver — the
//! thread that owns the machine model — takes the rows strictly in walk
//! order and prices them ([`Stage::laid_out_rows`]): [`crate::ffbp_ref`]
//! touches its cache hierarchy, [`crate::ffbp_seq`] issues blocking
//! reads, [`crate::ffbp_spmd`] prefetches and splits hits from misses.
//! The arithmetic reads no machine state, so who computed a row changes
//! nothing a machine sees: every machine call is made in the plain
//! walk's order, with the same hits and the same op ledger. The driver
//! never sleeps on the helper: while the row it must price next is
//! unclaimed or in the helper's hands, it computes the walk's next
//! unclaimed row itself (the row it needs, if nobody has taken that),
//! and it spins only when the window leaves it nothing to compute.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ScopedJoinHandle};

use desim::OpCounts;
use memsim::GlobalAddr;
use sar_core::complex::c32;
use sar_core::ffbp::{
    merge_rows, merge_stages, merged_shells, stage0_of, Hit, MergeRow, StageRows, Subaperture,
    ThreadPlans,
};
use sar_core::image::ComplexImage;
use sim_harness::FfbpWorkload;

use crate::layout::ExternalLayout;

/// Rows the helper may hold computed ahead of the row being priced.
const WINDOW: usize = 16;

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
    row: Mutex<Combined>,
}

/// One walk of one stage, as the helper sees it: run rows `first..end`.
struct Job {
    stage: Arc<Vec<Subaperture>>,
    first: usize,
    end: usize,
}

/// What the driver and the helper of one run share.
struct Shared<'w> {
    w: &'w FfbpWorkload,
    /// The walk in progress, if any.
    job: Mutex<Option<Arc<Job>>>,
    /// Run rows claimed so far, by either thread.
    claimed: AtomicUsize,
    /// Run rows priced so far; the helper claims no row `WINDOW` or
    /// more past it.
    priced: AtomicUsize,
    /// The `priced` count at which the driver wakes a helper that found
    /// the window full; `usize::MAX` when none did.
    wake_at: AtomicUsize,
    quit: AtomicBool,
    slots: Vec<Slot>,
}

/// Lock a buffer that holds no invariant a panic could break.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `done()`, yielding the CPU after a while: how the driver
/// waits for the helper, each time for at most a row's arithmetic.
fn spin_until(mut done: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !done() {
        if spins < 1 << 10 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
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
    /// The helper's loop: combine the rows it claims, walk by walk,
    /// until the run is over.
    fn help(&self) {
        while let Some(job) = self.next_job() {
            let rows = StageRows::new(&job.stage, &self.w.geom, &self.w.config);
            let mut plans = ThreadPlans::for_stage(&job.stage, self.w.geom.num_bins);
            while let Some(k) = self.claim_ahead(&job) {
                self.combine(&job, &rows, &mut plans, k);
            }
        }
    }

    /// Claim the walk's next unclaimed row if it is inside the window.
    fn claim(&self, job: &Job) -> Option<usize> {
        let k = self.claimed.load(SeqCst);
        let open = k < job.end && k < self.priced.load(SeqCst) + WINDOW;
        let claimed = || self.claimed.compare_exchange(k, k + 1, SeqCst, SeqCst);
        (open && claimed().is_ok()).then_some(k)
    }

    /// Combine run row `k` of `job` into its slot and mark it ready.
    fn combine(&self, job: &Job, rows: &StageRows<'_>, plans: &mut ThreadPlans, k: usize) {
        let slot = &self.slots[k % WINDOW];
        let row = plans.plan(rows.row(k - job.first));
        lock(&slot.row).combine(&row, self.w.geom.num_bins);
        slot.ready.store(k + 1, SeqCst);
    }

    /// The walk with rows left to claim, parking while there is none;
    /// `None` once the run is over. Holds no walk while parked, so the
    /// driver can let go of its stage.
    fn next_job(&self) -> Option<Arc<Job>> {
        while !self.quit.load(SeqCst) {
            let job = lock(&self.job).clone();
            let job = job.filter(|job| self.claimed.load(SeqCst) < job.end);
            if job.is_some() {
                return job;
            }
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
            let (k, priced) = (self.claimed.load(SeqCst), self.priced.load(SeqCst));
            if k >= job.end {
                return None;
            }
            if k >= priced + WINDOW {
                // Sleep until half the window is priced (or the walk's
                // last row is): one wake-up per `WINDOW / 2` rows, not
                // per row.
                let wake_at = (priced + WINDOW / 2).min(job.end);
                self.wake_at.store(wake_at, SeqCst);
                if self.priced.load(SeqCst) < wake_at {
                    thread::park();
                }
            }
        }
    }
}

/// One merge iteration of a [`walk`], as its driver sees it.
pub(crate) struct Stage<'s> {
    shared: &'s Shared<'s>,
    helper: &'s ScopedJoinHandle<'s, ()>,
    input: Arc<Vec<Subaperture>>,
    /// The stage's number (the output is stage `idx + 1`).
    pub idx: u32,
}

impl Stage<'_> {
    /// Walk the stage: hand every output row to `price` in walk order,
    /// combined and at its place in the [`ExternalLayout`] (a stage's
    /// buffer holds its subapertures back to back, beam-major). Returns
    /// the merged stage. A stage may be walked again (checkpoint redo).
    pub fn laid_out_rows(&self, mut price: impl FnMut(&LaidOutRow<'_>)) -> Vec<Subaperture> {
        let shared = self.shared;
        let w = shared.w;
        let num_bins = w.geom.num_bins;
        let stage = &self.input[..];
        let mut next = merged_shells(stage, num_bins);
        let rows = StageRows::new(stage, &w.geom, &w.config);
        // The helper keeps the stage's reusable plans; the driver plans
        // afresh the rows it computes — at paper scale a few per stage,
        // before the helper is awake.
        let mut plans = ThreadPlans::one_row(num_bins);
        let first = shared.priced.load(SeqCst);
        let job = Arc::new(Job {
            stage: Arc::clone(&self.input),
            first,
            end: first + rows.len(),
        });
        *lock(&shared.job) = Some(Arc::clone(&job));
        self.helper.thread().unpark();

        let layout = ExternalLayout::of(w);
        let child_beams = stage[0].grid.n_beams;
        for i in 0..rows.len() {
            let k = first + i;
            let slot = &shared.slots[k % WINDOW];
            // Until row `k` is ready, compute the next unclaimed row —
            // `k` itself if nobody has taken it — rather than wait.
            spin_until(|| {
                if slot.ready.load(SeqCst) == k + 1 {
                    return true;
                }
                // Mid-walk the helper only finishes by panicking.
                assert!(!self.helper.is_finished(), "the merge helper panicked");
                if let Some(j) = shared.claim(&job) {
                    shared.combine(&job, &rows, &mut plans, j);
                }
                false
            });
            let done = lock(&slot.row);
            let (pair, beam) = (i / (2 * child_beams), i % (2 * child_beams));
            next[pair].data.row_mut(beam).copy_from_slice(&done.samples);
            let base_a = (2 * pair * child_beams) as u32;
            price(&LaidOutRow {
                row: rows.row(i),
                ops: done.ops,
                hits: &done.hits,
                out_beam: i as u32,
                child_base: [base_a, base_a + child_beams as u32],
                stage: self.idx,
                layout,
            });
            drop(done);
            shared.priced.store(k + 1, SeqCst);
            if k + 1 >= shared.wake_at.load(SeqCst) {
                shared.wake_at.store(usize::MAX, SeqCst);
                self.helper.thread().unpark();
            }
        }
        // The helper lets go of the walk once it finds no row to claim:
        // then this stage's input is freed with its last owner here.
        *lock(&shared.job) = None;
        spin_until(|| Arc::strong_count(&job) == 1);
        next
    }
}

/// The stage loop of an FFBP machine run ([`merge_stages`]) with one
/// helper thread for the whole run; `merge` gets each stage and returns
/// its successor, made by walking it ([`Stage::laid_out_rows`]). Returns
/// the image. A panic in `merge` stops the helper and propagates.
pub(crate) fn walk(
    w: &FfbpWorkload,
    mut merge: impl FnMut(&Stage<'_>) -> Vec<Subaperture>,
) -> ComplexImage {
    assert!(
        w.geom.num_bins.max(w.geom.num_pulses) <= usize::from(u16::MAX),
        "a hit's bin and beam are packed into 16 bits each"
    );
    let shared = Shared {
        w,
        job: Mutex::new(None),
        claimed: AtomicUsize::new(0),
        priced: AtomicUsize::new(0),
        wake_at: AtomicUsize::new(usize::MAX),
        quit: AtomicBool::new(false),
        slots: (0..WINDOW).map(|_| Slot::default()).collect(),
    };
    thread::scope(|scope| {
        let helper = scope.spawn(|| shared.help());
        let _stop = OnDrop(|| {
            shared.quit.store(true, SeqCst);
            helper.thread().unpark();
        });
        let (image, _) = merge_stages(&w.data, &w.geom, |stage, idx| {
            merge(&Stage {
                shared: &shared,
                helper: &helper,
                input: Arc::new(stage),
                idx,
            })
        });
        image
    })
}

/// A row of the walk — its geometry, which it dereferences to, and its
/// arithmetic, done — at its place in the [`ExternalLayout`].
pub(crate) struct LaidOutRow<'a> {
    row: MergeRow<'a>,
    /// The row's op ledger, planning included: what the machine prices.
    pub ops: OpCounts,
    hits: &'a [Packed],
    /// The row's beam index across the whole output stage — also its
    /// position in the stage's row order (the SPMD work-unit number).
    pub out_beam: u32,
    /// Beam index of each child's beam 0 across the input stage.
    child_base: [u32; 2],
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
    /// 1 (`b`).
    pub fn child_addr(&self, child: usize, (bin, beam): (usize, usize)) -> GlobalAddr {
        self.layout
            .addr(self.stage, self.child_base[child] + beam as u32, bin as u32)
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
    let pair = stage0_of(&w.data, &w.geom, 0..2);
    let mut ops = None;
    merge_rows(&pair, &w.geom, &w.config, |row, out| {
        ops.get_or_insert_with(|| row.combine(&mut out[..1], |_, _| {}));
    });
    ops.expect("a pair has output rows")
}

#[cfg(test)]
mod tests {
    use super::*;
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
        while shared.claimed.load(SeqCst) < shared.priced.load(SeqCst) + WINDOW {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "the helper never filled its window"
            );
            thread::yield_now();
        }
    }

    /// `(stage, out_beam, hits, ops)` of one row.
    type Priced = (u32, u32, Vec<[Hit; 2]>, OpCounts);

    #[test]
    fn either_pace_prices_the_plain_walks_rows_in_order_at_their_addresses() {
        let w = wide();
        let layout = ExternalLayout::of(&w);
        // The plain walk: rows in order, combined where they are made.
        let mut plain: Vec<Priced> = Vec::new();
        let (image, _) = merge_stages(&w.data, &w.geom, |stage, idx| {
            let out_beams = 2 * stage[0].grid.n_beams;
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

        // A patient driver, which prices a window of the helper's rows
        // in every stage, and one that returns at once, so it computes
        // rows itself too.
        for patient in [true, false] {
            let mut seen: Vec<Priced> = Vec::new();
            let image = walk(&w, |stage| {
                let child_beams = stage.input[0].grid.n_beams as u32;
                stage.laid_out_rows(|row| {
                    if patient {
                        hold_for_the_helper(stage, row);
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
                    // Never more than a window claimed past this row.
                    let shared = stage.shared;
                    let ahead = shared.claimed.load(SeqCst) - shared.priced.load(SeqCst);
                    assert!(ahead <= WINDOW, "{ahead} rows claimed");
                    seen.push((idx, row.out_beam, row.hits().collect(), row.ops));
                })
            });
            assert!(seen == plain, "patient {patient}: the priced rows differ");
            assert_eq!(image.as_slice(), reference.as_slice(), "patient {patient}");
        }
    }

    #[test]
    fn a_panic_while_pricing_propagates_and_stops_the_helper() {
        for patient in [true, false] {
            // On a thread of its own, so a hang fails the test.
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let w = wide();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    walk(&w, |stage| {
                        stage.laid_out_rows(|row| {
                            if patient {
                                hold_for_the_helper(stage, row);
                            }
                            if stage.idx == 2 && row.out_beam == 70 {
                                panic!("priced row 70 of stage 2");
                            }
                        })
                    })
                }));
                let message = run.err().and_then(|p| p.downcast_ref::<&str>().copied());
                tx.send(message).expect("the test waits");
            });
            let message = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("the walk returns instead of hanging");
            assert_eq!(
                message,
                Some("priced row 70 of stage 2"),
                "patient {patient}"
            );
        }
    }
}
