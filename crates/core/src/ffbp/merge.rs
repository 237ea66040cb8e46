//! Subaperture element combining — eq. (5) of the paper, with the
//! child observation coordinates from eqs. (1)–(4) — and the walk of one
//! merge iteration: pair by pair, beam by beam ([`StageRows`]), bin by
//! bin ([`MergeRow::combine`], over a row plan the pairs of a stage
//! share — [`StagePlans`]). Every FFBP in the workspace — the plain
//! [`crate::ffbp::ffbp`], the host-parallel and autofocused ones, and
//! the machine drivers of `sar-epiphany` — is a caller of this one loop
//! nest; [`crate::ffbp::pipeline::merge_stages`] is the stage loop
//! around it.

use std::cell::Cell;
use std::thread::LocalKey;

use desim::OpCounts;

use crate::complex::c32;
use crate::ffbp::grid::{PolarGrid, Subaperture};
use crate::ffbp::interp::{fractional_indices, sample, sample_and_element, sample_ops, InterpKind};
use crate::ffbp::pipeline::FfbpConfig;
use crate::geometry::{merge_geometry, SarGeometry};

/// The `(bin, beam)` element of a child subaperture that contributes
/// to an output sample; `None` when the lookup falls outside the
/// child's swath.
pub type Hit = Option<(usize, usize)>;

/// One bin of a row plan: where the two children observe the output
/// sample — fractional `(range, beam)` indices into each, eqs. (1)–(4) —
/// and the phase factors `exp(j 4 pi (r_child - r) / lambda)` referencing
/// each child's range history to the merged centre. No pixel enters it.
#[derive(Clone, Copy, Default)]
struct BinPlan {
    at: [(f32, f32); 2],
    phase: [c32; 2],
}

/// The row plans of one merge iteration. Every pair of a stage on a
/// dyadic track shares `l`, so the first pair to reach an output beam
/// plans it ([`StagePlans::plan`]) and later pairs reuse the plan; a row
/// whose key differs is planned over its slot, so a hit is only ever a
/// saving. **Budget:** the plans are never larger than a quarter of the
/// stage they plan — `num_pulses / 16` rows, 2 MB at paper scale. A
/// stage with more output beams than rows keeps its first beams' plans
/// and plans the others, pair by pair, into the last row: the same
/// plan → apply path with nothing kept.
#[derive(Default)]
pub(crate) struct StagePlans {
    /// `keys.len()` rows of `num_bins` bins, and what each row is a
    /// function of within the iteration: `l` to the bit, the output
    /// beam, the children's grid.
    bins: Vec<BinPlan>,
    keys: Vec<Option<(u32, usize, PolarGrid)>>,
    /// Rows planned so far (the others were reused).
    pub(crate) planned: usize,
}

thread_local! {
    // This thread's plan table, handed from one `ThreadPlans` to the
    // next across stages and runs. A block allocated and freed per stage
    // or per run lands among the stage buffers the allocator is
    // recycling and cost `table1_paper` 2 to 13 MB of peak RSS,
    // differently from every working directory; one that stays put
    // costs its size (EXPERIMENTS.md T7).
    static STORAGE: Cell<StagePlans> = Cell::default();
    // This thread's one-row table (`ThreadPlans::one_row`), kept for
    // the same reason.
    static ONE_ROW: Cell<StagePlans> = Cell::default();
}

impl StagePlans {
    /// Resized to `rows` rows, none planned. With one row every
    /// [`StagePlans::plan`] replans: scratch for rows that share nothing.
    pub(crate) fn with_rows(mut self, rows: usize, num_bins: usize) -> StagePlans {
        self.bins.resize(rows * num_bins, BinPlan::default());
        self.keys.clear();
        self.keys.resize(rows, None);
        self.planned = 0;
        self
    }

    /// `row` with its plan: the one in its beam's row if that was made
    /// for the same key, a fresh one otherwise.
    pub(crate) fn plan<'p>(&'p mut self, mut row: MergeRow<'p>) -> MergeRow<'p> {
        let num_bins = row.geom.num_bins;
        let slot = row.beam.min(self.keys.len() - 1);
        let key = Some((row.l.to_bits(), row.beam, row.a.grid));
        let bins = &mut self.bins[slot * num_bins..][..num_bins];
        if self.keys[slot] != key {
            for (i, bin) in bins.iter_mut().enumerate() {
                *bin = row.plan_bin(i).0;
            }
            self.keys[slot] = key;
            self.planned += 1;
        }
        row.plan = bins;
        row
    }
}

/// A [`StagePlans`] of this thread's, handed back to the thread when
/// dropped: how every walk that plans rows gets its table.
pub struct ThreadPlans {
    plans: StagePlans,
    home: Option<&'static LocalKey<Cell<StagePlans>>>,
}

impl ThreadPlans {
    /// The table for the rows of `stage`, within the budget.
    pub fn for_stage(stage: &[Subaperture], num_bins: usize) -> ThreadPlans {
        let stage_beams: usize = stage.iter().map(|sub| sub.grid.n_beams).sum();
        let quarter = stage_beams * std::mem::size_of::<c32>() / 4;
        let rows = (quarter / std::mem::size_of::<BinPlan>()).max(1);
        // One row is scratch: it keeps nothing, and kept it would pin the
        // heap under it (+27 % peak RSS on `static_pricing`'s probes).
        let home = (rows > 1).then_some(&STORAGE);
        ThreadPlans::from(home, rows, num_bins)
    }

    /// A one-row table, kept by the thread: every row planned afresh,
    /// for a walk that plans too few of a stage's rows to reuse a plan.
    pub fn one_row(num_bins: usize) -> ThreadPlans {
        ThreadPlans::from(Some(&ONE_ROW), 1, num_bins)
    }

    fn from(
        home: Option<&'static LocalKey<Cell<StagePlans>>>,
        rows: usize,
        num_bins: usize,
    ) -> ThreadPlans {
        let plans = match home {
            Some(home) => home.take(),
            None => StagePlans::default(),
        };
        ThreadPlans {
            plans: plans.with_rows(rows, num_bins),
            home,
        }
    }

    /// `row` with its plan ([`StagePlans::plan`]).
    pub fn plan<'p>(&'p mut self, row: MergeRow<'p>) -> MergeRow<'p> {
        self.plans.plan(row)
    }
}

impl Drop for ThreadPlans {
    fn drop(&mut self) {
        if let Some(home) = self.home {
            home.set(std::mem::take(&mut self.plans));
        }
    }
}

/// One output row of a merge — output beam `beam` of pair `pair` — as
/// the walk ([`StageRows`]) states it: everything the per-bin loop
/// needs, and nothing about where a machine keeps the data.
pub struct MergeRow<'a> {
    /// The trailing child.
    pub a: &'a Subaperture,
    /// The leading child.
    pub b: &'a Subaperture,
    /// Along-track distance between the children's centres.
    pub l: f32,
    /// Centre angle of the output beam.
    pub theta: f32,
    /// The pair's position in its stage.
    pub pair: usize,
    /// The row's beam index in the pair's output.
    pub beam: usize,
    geom: &'a SarGeometry,
    cfg: FfbpConfig,
    /// Empty until [`StagePlans::plan`] fills it in.
    plan: &'a [BinPlan],
}

impl<'a> MergeRow<'a> {
    /// Output beam `beam` of merging `a` and `b` (pair `pair` of its
    /// stage), not yet planned.
    fn new(
        a: &'a Subaperture,
        b: &'a Subaperture,
        pair: usize,
        beam: usize,
        geom: &'a SarGeometry,
        cfg: FfbpConfig,
    ) -> MergeRow<'a> {
        MergeRow {
            a,
            b,
            l: b.center_y - a.center_y,
            // The beam's centre on the merged (refined) grid.
            theta: a.grid.refined().beam_theta(beam),
            pair,
            beam,
            geom,
            cfg,
            plan: &[],
        }
    }
}

impl MergeRow<'_> {
    /// Plan bin `i` — the children's observation coordinates of the
    /// output sample at that range as indices into their grids, and the
    /// per-child phase alignment the paper's simplified implementation
    /// folds into the combining — and its arithmetic, alike for all bins.
    /// Inlined, the row loop computes the beam's `cos` once (−0.27 s on
    /// `table1_paper`).
    #[inline]
    fn plan_bin(&self, i: usize) -> (BinPlan, OpCounts) {
        let geom = self.geom;
        let mut counts = OpCounts::default();
        let r = geom.bin_range(i);
        let look = merge_geometry(r, self.theta, self.l, &mut counts);
        let mut phase = [c32::ZERO; 2];
        if self.cfg.phase_correct {
            let k = 4.0 * std::f32::consts::PI / geom.wavelength;
            phase = [c32::cis(k * (look.r1 - r)), c32::cis(k * (look.r2 - r))];
            counts.trigs += 2;
        }
        let at_a = fractional_indices(self.a, geom, look.r1, look.theta1);
        let at = [at_a, fractional_indices(self.b, geom, look.r2, look.theta2)];
        (BinPlan { at, phase }, counts)
    }

    /// Compute the row (or a prefix of it) into `out` from its plan —
    /// `a(r1, theta1) + b(r2, theta2)` per sample (eq. 5), each term
    /// times its phase factor — reporting each sample's two
    /// contributing elements to `sample(bin, hits)` (a caller with no
    /// use for them passes `|_, _| {}` and pays nothing). Returns the
    /// row's arithmetic, planning included even when the plan was
    /// reused — the ledger a machine model prices; what the
    /// machine does with the result row is the machine's to count.
    #[inline]
    pub fn combine(&self, out: &mut [c32], sample: impl FnMut(usize, [Hit; 2])) -> OpCounts {
        assert!(out.len() <= self.plan.len(), "the row was not planned");
        // Each arm hands `apply` its kind as a constant: one loop per
        // kernel, with no choice left inside it.
        let kind = self.cfg.interp;
        match kind {
            InterpKind::Nearest => self.apply(out, sample, InterpKind::Nearest),
            InterpKind::Linear => self.apply(out, sample, InterpKind::Linear),
            InterpKind::Cubic => self.apply(out, sample, InterpKind::Cubic),
        }
        // The ledger is data-independent: one sample's, charged per row.
        let mut ops = self.plan_bin(0).1;
        ops.add(&sample_ops(kind).scaled(2));
        ops.fmas += 8 * u64::from(self.cfg.phase_correct);
        ops.flops += 2;
        ops.scaled(out.len() as u64)
    }

    /// [`MergeRow::combine`]'s loop with kernel `kind`.
    #[inline(always)]
    fn apply(&self, out: &mut [c32], mut sample: impl FnMut(usize, [Hit; 2]), kind: InterpKind) {
        let num_bins = self.geom.num_bins;
        for (i, (v, bin)) in out.iter_mut().zip(self.plan).enumerate() {
            let (va, hit_a) = sample_and_element(self.a, num_bins, bin.at[0], kind);
            let (vb, hit_b) = sample_and_element(self.b, num_bins, bin.at[1], kind);
            *v = if self.cfg.phase_correct {
                va * bin.phase[0] + vb * bin.phase[1]
            } else {
                va + vb
            };
            sample(i, [hit_a, hit_b]);
        }
    }

    /// The plain algorithm's row: [`MergeRow::combine`] with the hits
    /// ignored, plus the two word stores per sample that put the result
    /// in memory (a machine driver prices its own write-back instead).
    pub fn merge_into(&self, out: &mut [c32], counts: &mut OpCounts) {
        debug_assert_eq!(out.len(), self.geom.num_bins);
        counts.add(&self.combine(out, |_, _| {}));
        counts.stores += 2 * out.len() as u64;
    }
}

/// What merging `a` and `b` requires of them. `a` must be the trailing
/// child (smaller `center_y`).
fn check_pair(a: &Subaperture, b: &Subaperture) {
    assert!(
        a.center_y < b.center_y,
        "children must be ordered along track"
    );
    assert_eq!(a.grid, b.grid, "children must share a grid");
    assert!(
        (a.length - b.length).abs() < 1e-3,
        "children must have equal length"
    );
}

/// The zeroed successors of `stage`, one per adjacent pair.
pub fn merged_shells(stage: &[Subaperture], num_bins: usize) -> Vec<Subaperture> {
    let pairs = stage.chunks(2);
    pairs
        .map(|p| Subaperture::merged_shell(&p[0], &p[1], num_bins))
        .collect()
}

/// The walk of one merge iteration at merge base 2: the output rows of
/// `stage` — pair by pair, beam by beam — by their position in that
/// order, which is also the row's index across the merged stage
/// ([`merged_shells`]). The rows are independent of one another, so a
/// caller may visit them in any order or on several threads, each
/// planning through its own [`ThreadPlans`].
pub struct StageRows<'a> {
    stage: &'a [Subaperture],
    geom: &'a SarGeometry,
    cfg: FfbpConfig,
    /// Output beams per pair.
    out_beams: usize,
}

impl<'a> StageRows<'a> {
    /// The rows of `stage`, whose subapertures must share a grid.
    pub fn new(stage: &'a [Subaperture], geom: &'a SarGeometry, cfg: &FfbpConfig) -> Self {
        for pair in stage.chunks(2) {
            check_pair(&pair[0], &pair[1]);
        }
        let grid = stage[0].grid;
        assert!(
            stage.iter().all(|sub| sub.grid == grid),
            "a stage's subapertures must share a grid"
        );
        StageRows {
            stage,
            geom,
            cfg: *cfg,
            out_beams: 2 * grid.n_beams,
        }
    }

    /// Output rows of the stage.
    pub fn len(&self) -> usize {
        self.stage.len() / 2 * self.out_beams
    }

    /// Whether the stage has no pair to merge.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `k` of the walk, not yet planned.
    pub fn row(&self, k: usize) -> MergeRow<'a> {
        let (pair, beam) = (k / self.out_beams, k % self.out_beams);
        let (a, b) = (&self.stage[2 * pair], &self.stage[2 * pair + 1]);
        MergeRow::new(a, b, pair, beam, self.geom, self.cfg)
    }
}

/// Every row of [`StageRows`] in walk order with the slice of `next`
/// ([`merged_shells`]) it fills.
pub(crate) fn stage_rows<'a>(
    stage: &'a [Subaperture],
    next: &'a mut [Subaperture],
    geom: &'a SarGeometry,
    cfg: &FfbpConfig,
) -> impl Iterator<Item = (MergeRow<'a>, &'a mut [c32])> {
    let rows = StageRows::new(stage, geom, cfg);
    let outs = next
        .iter_mut()
        .flat_map(|sub| sub.data.as_mut_slice().chunks_mut(geom.num_bins));
    outs.enumerate().map(move |(k, out)| (rows.row(k), out))
}

/// One merge iteration, in walk order: hand every output row of
/// `stage` to `row`, planned ([`ThreadPlans`], within its budget), with
/// the slice it must [`MergeRow::combine`] into. Returns the merged stage.
pub fn merge_rows(
    stage: &[Subaperture],
    geom: &SarGeometry,
    cfg: &FfbpConfig,
    mut row: impl FnMut(&MergeRow<'_>, &mut [c32]),
) -> Vec<Subaperture> {
    let mut next = merged_shells(stage, geom.num_bins);
    let mut plans = ThreadPlans::for_stage(stage, geom.num_bins);
    for (merge_row, out) in stage_rows(stage, &mut next, geom, cfg) {
        row(&plans.plan(merge_row), out);
    }
    next
}

/// Merge two adjacent subapertures into one with doubled angular
/// resolution. `a` must be the trailing child (smaller `center_y`).
pub fn merge_pair(
    a: &Subaperture,
    b: &Subaperture,
    geom: &SarGeometry,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) -> Subaperture {
    let cfg = FfbpConfig {
        interp: kind,
        phase_correct,
        merge_base: 2,
    };
    let mut out = Subaperture::merged_shell(a, b, geom.num_bins);
    check_pair(a, b);
    let mut plans = StagePlans::default().with_rows(1, geom.num_bins);
    let rows = out.data.as_mut_slice().chunks_mut(geom.num_bins);
    for (beam, row_out) in rows.enumerate() {
        let row = MergeRow::new(a, b, 0, beam, geom, cfg);
        plans.plan(row).merge_into(row_out, counts);
    }
    out
}

/// Merge `m >= 2` adjacent subapertures at once (merge base `m`),
/// generalising eqs. (1)–(4) to children at offsets
/// `(c - (m-1)/2) * l_child` from the merged centre.
pub fn merge_group(
    children: &[Subaperture],
    geom: &SarGeometry,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) -> Subaperture {
    let m = children.len();
    assert!(m >= 2, "merge base must be at least 2");
    for w in children.windows(2) {
        assert!(w[0].center_y < w[1].center_y, "children must be ordered");
        assert_eq!(w[0].grid, w[1].grid, "children must share a grid");
    }
    let center = children.iter().map(|c| c.center_y).sum::<f32>() / m as f32;
    let total_len: f32 = children.iter().map(|c| c.length).sum();
    let out_grid = children[0].grid.refined_by(m);
    let mut out = Subaperture::zeros(center, total_len, out_grid, geom.num_bins);
    let k = 4.0 * std::f32::consts::PI / geom.wavelength;

    for j in 0..out_grid.n_beams {
        let theta = out_grid.beam_theta(j);
        let (sin_t, cos_t) = theta.sin_cos();
        counts.trigs += 1;
        for i in 0..geom.num_bins {
            let r = geom.bin_range(i);
            let (x, y) = (r * sin_t, r * cos_t);
            let mut acc = c32::ZERO;
            for child in children {
                let d = child.center_y - center;
                let dy = y - d;
                let rc = (x * x + dy * dy).sqrt();
                let thc = (dy / rc).clamp(-1.0, 1.0).acos();
                counts.sqrts += 1;
                counts.trigs += 1;
                counts.divs += 1;
                counts.fmas += 4;
                let v = sample(child, geom, rc, thc, kind, counts);
                if phase_correct {
                    acc += v * c32::cis(k * (rc - r));
                    counts.trigs += 1;
                    counts.fmas += 4;
                } else {
                    acc += v;
                    counts.flops += 2;
                }
            }
            *out.data.at_mut(j, i) = acc;
            counts.stores += 2;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp::grid::PolarGrid;
    use crate::ffbp::pipeline::stage0;
    use crate::scene::{simulate_compressed_data, Scene};

    fn two_pulse_children() -> (Vec<Subaperture>, SarGeometry) {
        let geom = SarGeometry::test_size();
        let scene = Scene::single_target(geom);
        let data = simulate_compressed_data(&scene, 0.0, 0);
        (stage0(&data, &geom), geom)
    }

    /// One merge iteration through [`merge_rows`]: the merged stage and
    /// how many rows it planned.
    fn merged(stage: &[Subaperture], geom: &SarGeometry) -> (Vec<Subaperture>, usize) {
        let cfg = FfbpConfig::default();
        let next = merge_rows(stage, geom, &cfg, |row, out| {
            row.merge_into(out, &mut OpCounts::default());
        });
        let plans = STORAGE.take();
        let planned = plans.planned;
        STORAGE.set(plans);
        (next, planned)
    }

    /// The same iteration pair by pair, each row planned from scratch.
    fn merged_pairwise(stage: &[Subaperture], geom: &SarGeometry) -> Vec<Subaperture> {
        let mut c = OpCounts::default();
        let pairs = stage.chunks(2);
        pairs
            .map(|p| merge_pair(&p[0], &p[1], geom, InterpKind::Nearest, true, &mut c))
            .collect()
    }

    fn assert_same(a: &[Subaperture], b: &[Subaperture]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.data.as_slice(), y.data.as_slice());
        }
    }

    #[test]
    fn a_dyadic_stage_within_budget_plans_each_beam_once() {
        // 64 pulses: the budget is 64 / 16 = 4 rows. Stage 0 (32 pairs,
        // 2 output beams) and stage 1 (16 pairs, 4) fit.
        let (stage0, geom) = two_pulse_children();
        let (stage1, planned) = merged(&stage0, &geom);
        assert_eq!(planned, 2);
        assert_same(&stage1, &merged_pairwise(&stage0, &geom));
        let (stage2, planned) = merged(&stage1, &geom);
        assert_eq!(planned, 4);
        assert_same(&stage2, &merged_pairwise(&stage1, &geom));
    }

    #[test]
    fn a_stage_over_budget_plans_what_it_cannot_keep_pair_by_pair() {
        // Stage 2 has 8 output beams for 4 rows: beams 0..3 are kept,
        // beams 3..8 share the last row and are planned by each of the
        // 8 pairs — through the same `StagePlans::plan`, there is no
        // other way to a planned row.
        let (stage0, geom) = two_pulse_children();
        let stage2 = merged(&merged(&stage0, &geom).0, &geom).0;
        assert_eq!((stage2.len(), stage2[0].grid.n_beams), (16, 4));
        let (stage3, planned) = merged(&stage2, &geom);
        assert_eq!(planned, 3 + 5 * 8);
        assert_same(&stage3, &merged_pairwise(&stage2, &geom));
    }

    #[test]
    fn a_pair_whose_l_differs_in_the_last_bit_replans() {
        // Pair 1 of 32, moved to the origin with `l` one ulp above the
        // others' 1.0: it cannot reuse pair 0's two plans, nor pair 2
        // its two — 6 rows planned where the dyadic stage plans 2.
        let (mut stage, geom) = two_pulse_children();
        stage[2].center_y = 0.0;
        stage[3].center_y = f32::from_bits(1.0f32.to_bits() + 1);
        let (next, planned) = merged(&stage, &geom);
        assert_eq!(planned, 6);
        assert_same(&next, &merged_pairwise(&stage, &geom));
        // The non-dyadic track that happens on its own: at spacing 0.3
        // the 32 pairs of stage 0 have five distinct `l`.
        let geom = SarGeometry {
            pulse_spacing: 0.3,
            ..geom
        };
        let data = simulate_compressed_data(&Scene::single_target(geom), 0.0, 0);
        let track = stage0(&data, &geom);
        let ls = track
            .chunks(2)
            .map(|p| (p[1].center_y - p[0].center_y).to_bits());
        assert_eq!(ls.collect::<std::collections::BTreeSet<u32>>().len(), 5);
        let (stage1, planned) = merged(&track, &geom);
        assert!(planned > 2 && planned < 64, "{planned} rows planned");
        assert_same(&stage1, &merged_pairwise(&track, &geom));
    }

    #[test]
    fn merge_doubles_beams_and_centers() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let merged = merge_pair(&subs[0], &subs[1], &geom, InterpKind::Nearest, true, &mut c);
        assert_eq!(merged.grid.n_beams, 2);
        assert!((merged.center_y - (subs[0].center_y + subs[1].center_y) / 2.0).abs() < 1e-4);
        assert!((merged.length - 2.0 * subs[0].length).abs() < 1e-4);
        assert!(c.sqrts > 0 && c.stores > 0);
    }

    #[test]
    fn merged_energy_shows_coherent_gain() {
        // Merging two pulses that both contain the target response
        // should grow the peak beyond either child's (coherent sum).
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let merged = merge_pair(
            &subs[30],
            &subs[31],
            &geom,
            InterpKind::Nearest,
            true,
            &mut c,
        );
        let (pm, _, _) = merged.data.peak();
        let (p0, _, _) = subs[30].data.peak();
        assert!(pm > 1.5 * p0, "merged peak {pm} vs child {p0}");
    }

    #[test]
    fn phase_correction_matters() {
        // Without phase alignment the two-pulse sum is incoherent and
        // the peak is lower.
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let with = merge_pair(
            &subs[30],
            &subs[31],
            &geom,
            InterpKind::Nearest,
            true,
            &mut c,
        );
        let without = merge_pair(
            &subs[30],
            &subs[31],
            &geom,
            InterpKind::Nearest,
            false,
            &mut c,
        );
        // At a 1 m wavelength with metre-scale bins, dropping the
        // correction cannot beat the aligned sum.
        assert!(with.data.peak().0 >= 0.9 * without.data.peak().0);
    }

    #[test]
    fn merge_group_base2_close_to_merge_pair() {
        let (subs, geom) = two_pulse_children();
        let mut c1 = OpCounts::default();
        let mut c2 = OpCounts::default();
        let a = merge_pair(
            &subs[10],
            &subs[11],
            &geom,
            InterpKind::Linear,
            true,
            &mut c1,
        );
        let b = merge_group(
            &[subs[10].clone(), subs[11].clone()],
            &geom,
            InterpKind::Linear,
            true,
            &mut c2,
        );
        assert_eq!(a.grid.n_beams, b.grid.n_beams);
        // Same geometry expressed two ways: images should agree closely.
        let mut max_err = 0.0f32;
        let mut max_mag = 0.0f32;
        for (x, y) in a.data.as_slice().iter().zip(b.data.as_slice()) {
            max_err = max_err.max((*x - *y).abs());
            max_mag = max_mag.max(x.abs());
        }
        assert!(
            max_err < 0.05 * max_mag.max(1e-6),
            "pair vs group mismatch: {max_err} vs peak {max_mag}"
        );
    }

    #[test]
    fn group_of_four_quadruples_beams() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let four: Vec<_> = subs[0..4].to_vec();
        let merged = merge_group(&four, &geom, InterpKind::Nearest, true, &mut c);
        assert_eq!(merged.grid.n_beams, 4);
        assert!((merged.length - 4.0 * subs[0].length).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "ordered along track")]
    fn wrong_order_rejected() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let _ = merge_pair(&subs[1], &subs[0], &geom, InterpKind::Nearest, true, &mut c);
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn mismatched_grids_rejected() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let mut b = subs[1].clone();
        b.grid = PolarGrid {
            n_beams: 2,
            ..b.grid
        };
        b.data = crate::image::ComplexImage::zeros(2, geom.num_bins);
        let _ = merge_pair(&subs[0], &b, &geom, InterpKind::Nearest, true, &mut c);
    }
}
