//! Subaperture element combining — eq. (5) of the paper, with the
//! child observation coordinates from eqs. (1)–(4) — and the walk of one
//! merge iteration: pair by pair, beam by beam ([`StageRows`]), bin by
//! bin ([`MergeRow::combine`], over a row plan the pairs of a stage
//! share — [`StagePlans`]). Every FFBP in the workspace — the plain
//! [`crate::ffbp::ffbp`], the host-parallel and autofocused ones, and
//! the machine drivers of `sar-epiphany` — is a caller of this one loop
//! nest; [`crate::ffbp::pipeline::merge_stages`] is the stage loop
//! around it.

use desim::OpCounts;

use crate::complex::c32;
use crate::ffbp::grid::{merged_center, PolarGrid, Stage, Subaperture};
use crate::ffbp::interp::{fractional_indices, sample, sample_and_element, sample_ops, InterpKind};
use crate::ffbp::pipeline::FfbpConfig;
use crate::geometry::{merge_geometry, SarGeometry};
use crate::image::ComplexImage;

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
/// plan → apply path with nothing kept. Each walk of a stage plans
/// into a table of its own.
pub struct StagePlans {
    /// `keys.len()` rows of `num_bins` bins, and what each row is a
    /// function of within the iteration: `l` to the bit, the output
    /// beam, the children's grid.
    bins: Vec<BinPlan>,
    keys: Vec<Option<(u32, usize, PolarGrid)>>,
    /// Rows planned so far (the others were reused).
    pub(crate) planned: usize,
}

impl StagePlans {
    /// The table for the rows of `stage`: a row per output beam, within
    /// the budget.
    pub fn for_stage(stage: &Stage, num_bins: usize) -> StagePlans {
        let quarter = stage.data.rows() * std::mem::size_of::<c32>() / 4;
        let budget = (quarter / std::mem::size_of::<BinPlan>()).max(1);
        StagePlans::with_rows(budget.min(2 * stage.grid.n_beams), num_bins)
    }

    /// A one-row table, every row planned afresh: scratch for a walk
    /// that plans too few of a stage's rows to reuse a plan.
    pub fn one_row(num_bins: usize) -> StagePlans {
        StagePlans::with_rows(1, num_bins)
    }

    fn with_rows(rows: usize, num_bins: usize) -> StagePlans {
        StagePlans {
            bins: vec![BinPlan::default(); rows * num_bins],
            keys: vec![None; rows],
            planned: 0,
        }
    }

    /// `row` with its plan: the one in its beam's row if that was made
    /// for the same key, a fresh one otherwise.
    pub fn plan<'p>(&'p mut self, mut row: MergeRow<'p>) -> MergeRow<'p> {
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

/// One output row of a merge — output beam `beam` of pair `pair` — as
/// the walk ([`StageRows`]) states it: everything the per-bin loop
/// needs, and nothing about where a machine keeps the data.
pub struct MergeRow<'a> {
    /// The trailing child.
    pub a: &'a Subaperture<'a>,
    /// The leading child.
    pub b: &'a Subaperture<'a>,
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
        a: &'a Subaperture<'a>,
        b: &'a Subaperture<'a>,
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

/// The walk of one merge iteration at merge base 2: the output rows of
/// `stage` — pair by pair, beam by beam — by their position in that
/// order, which is also the row's index in the merged stage's buffer
/// ([`Stage::merged`]). The rows are independent of one another, so a
/// caller may visit them in any order or on several threads, each
/// planning through its own [`StagePlans`].
pub struct StageRows<'a> {
    subs: Vec<Subaperture<'a>>,
    geom: &'a SarGeometry,
    cfg: FfbpConfig,
    /// Output beams per pair.
    out_beams: usize,
}

impl<'a> StageRows<'a> {
    /// The rows of `stage`.
    pub fn new(stage: &'a Stage, geom: &'a SarGeometry, cfg: &FfbpConfig) -> Self {
        let subs: Vec<_> = stage.subs().collect();
        for pair in subs.chunks(2) {
            check_pair(&pair[0], &pair[1]);
        }
        StageRows {
            subs,
            geom,
            cfg: *cfg,
            out_beams: 2 * stage.grid.n_beams,
        }
    }

    /// Output rows of the stage.
    pub fn len(&self) -> usize {
        self.subs.len() / 2 * self.out_beams
    }

    /// Whether the stage has no pair to merge.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `k` of the walk, not yet planned.
    pub fn row(&self, k: usize) -> MergeRow<'_> {
        let (pair, beam) = (k / self.out_beams, k % self.out_beams);
        let (a, b) = (&self.subs[2 * pair], &self.subs[2 * pair + 1]);
        MergeRow::new(a, b, pair, beam, self.geom, self.cfg)
    }
}

/// One merge iteration, in walk order: hand every output row of
/// `stage` to `row`, planned ([`StagePlans`], within its budget), with
/// the row of the merged stage's buffer it must [`MergeRow::combine`]
/// into. Returns the merged stage ([`Stage::merged`]).
pub fn merge_rows(
    stage: &Stage,
    geom: &SarGeometry,
    cfg: &FfbpConfig,
    mut row: impl FnMut(&MergeRow<'_>, &mut [c32]),
) -> Stage {
    let mut next = stage.merged(2);
    let rows = StageRows::new(stage, geom, cfg);
    let mut plans = StagePlans::for_stage(stage, geom.num_bins);
    let outs = next.data.as_mut_slice().chunks_mut(geom.num_bins);
    for (k, out) in outs.enumerate() {
        row(&plans.plan(rows.row(k)), out);
    }
    next
}

/// Merge two adjacent single-subaperture stages into one with doubled
/// angular resolution. `a` must be the trailing child (smaller centre).
pub fn merge_pair(
    a: &Stage,
    b: &Stage,
    geom: &SarGeometry,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) -> Stage {
    assert_eq!((a.len(), b.len()), (1, 1), "a pair of single subapertures");
    let cfg = FfbpConfig {
        interp: kind,
        phase_correct,
        merge_base: 2,
    };
    let (a, b) = (a.sub(0), b.sub(0));
    check_pair(&a, &b);
    let shape = ComplexImage::zeros(2 * a.grid.n_beams, geom.num_bins);
    let centers = [a.center_y, b.center_y];
    let mut out = Stage::merging(a.grid, a.length, &centers, 2, shape, Default::default());
    let mut plans = StagePlans::one_row(geom.num_bins);
    let rows = out.data.as_mut_slice().chunks_mut(geom.num_bins);
    for (beam, row_out) in rows.enumerate() {
        let row = MergeRow::new(&a, &b, 0, beam, geom, cfg);
        plans.plan(row).merge_into(row_out, counts);
    }
    out
}

/// Merge `m >= 2` adjacent subapertures at once (merge base `m`) into
/// `out`, the merged subaperture's beams back to back, generalising
/// eqs. (1)–(4) to children at offsets `(c - (m-1)/2) * l_child` from
/// the merged centre.
pub fn merge_group(
    children: &[Subaperture<'_>],
    out: &mut [c32],
    geom: &SarGeometry,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) {
    let m = children.len();
    assert!(m >= 2, "merge base must be at least 2");
    for w in children.windows(2) {
        assert!(w[0].center_y < w[1].center_y, "children must be ordered");
        assert_eq!(w[0].grid, w[1].grid, "children must share a grid");
    }
    let center = merged_center(children.iter().map(|c| c.center_y));
    let out_grid = children[0].grid.refined_by(m);
    assert_eq!(out.len(), out_grid.n_beams * geom.num_bins);
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
            out[j * geom.num_bins + i] = acc;
            counts.stores += 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp::grid::tests::alone;
    use crate::scene::{simulate_compressed_data, Scene};

    /// Stage 0 of the test scene.
    fn two_pulse_children() -> (Stage, SarGeometry) {
        let geom = SarGeometry::test_size();
        let scene = Scene::single_target(geom);
        let data = simulate_compressed_data(&scene, 0.0, 0);
        (Stage::of_pulses(&data, &geom, 0..geom.num_pulses), geom)
    }

    /// One merge iteration as [`merge_rows`] walks it: the merged stage
    /// and how many rows its table planned.
    fn merged(stage: &Stage, geom: &SarGeometry) -> (Stage, usize) {
        let mut next = stage.merged(2);
        let rows = StageRows::new(stage, geom, &FfbpConfig::default());
        let mut plans = StagePlans::for_stage(stage, geom.num_bins);
        let outs = next.data.as_mut_slice().chunks_mut(geom.num_bins);
        for (k, out) in outs.enumerate() {
            plans
                .plan(rows.row(k))
                .merge_into(out, &mut OpCounts::default());
        }
        let image = merge_rows(stage, geom, &FfbpConfig::default(), |row, out| {
            row.merge_into(out, &mut OpCounts::default());
        });
        assert_eq!(next.data, image.data);
        (next, plans.planned)
    }

    /// The same iteration pair by pair, each row planned from scratch.
    fn merged_pairwise(stage: &Stage, geom: &SarGeometry) -> Vec<Stage> {
        let mut c = OpCounts::default();
        let subs: Vec<_> = stage.subs().map(|sub| alone(&sub)).collect();
        subs.chunks(2)
            .map(|p| merge_pair(&p[0], &p[1], geom, InterpKind::Nearest, true, &mut c))
            .collect()
    }

    fn assert_same(a: &Stage, b: &[Stage]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.subs().zip(b) {
            assert_eq!(x.data.as_slice(), y.data.as_slice());
            assert_eq!(x.center_y.to_bits(), y.centers[0].to_bits());
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
        assert_eq!((stage2.len(), stage2.grid.n_beams), (16, 4));
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
        stage.centers[2] = 0.0;
        stage.centers[3] = f32::from_bits(1.0f32.to_bits() + 1);
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
        let track = Stage::of_pulses(&data, &geom, 0..geom.num_pulses);
        let ls = track.centers.chunks(2).map(|p| (p[1] - p[0]).to_bits());
        assert_eq!(ls.collect::<std::collections::BTreeSet<u32>>().len(), 5);
        let (stage1, planned) = merged(&track, &geom);
        assert!(planned > 2 && planned < 64, "{planned} rows planned");
        assert_same(&stage1, &merged_pairwise(&track, &geom));
    }

    /// Stage 0's subapertures `k` and `k + 1`, each a stage of its own.
    fn pulses(k: usize) -> (Stage, Stage, SarGeometry) {
        let (stage, geom) = two_pulse_children();
        (alone(&stage.sub(k)), alone(&stage.sub(k + 1)), geom)
    }

    #[test]
    fn merge_doubles_beams_and_centers() {
        let (a, b, geom) = pulses(0);
        let mut c = OpCounts::default();
        let merged = merge_pair(&a, &b, &geom, InterpKind::Nearest, true, &mut c);
        assert_eq!(merged.grid.n_beams, 2);
        let mid = (a.centers[0] + b.centers[0]) / 2.0;
        assert!((merged.centers[0] - mid).abs() < 1e-4);
        assert!((merged.length - 2.0 * a.length).abs() < 1e-4);
        assert!(c.sqrts > 0 && c.stores > 0);
    }

    #[test]
    fn merged_energy_shows_coherent_gain() {
        // Merging two pulses that both contain the target response
        // should grow the peak beyond either child's (coherent sum).
        let (a, b, geom) = pulses(30);
        let mut c = OpCounts::default();
        let merged = merge_pair(&a, &b, &geom, InterpKind::Nearest, true, &mut c);
        let (pm, _, _) = merged.data.peak();
        let (p0, _, _) = a.data.peak();
        assert!(pm > 1.5 * p0, "merged peak {pm} vs child {p0}");
    }

    #[test]
    fn phase_correction_matters() {
        // Without phase alignment the two-pulse sum is incoherent and
        // the peak is lower.
        let (a, b, geom) = pulses(30);
        let mut c = OpCounts::default();
        let with = merge_pair(&a, &b, &geom, InterpKind::Nearest, true, &mut c);
        let without = merge_pair(&a, &b, &geom, InterpKind::Nearest, false, &mut c);
        // At a 1 m wavelength with metre-scale bins, dropping the
        // correction cannot beat the aligned sum.
        assert!(with.data.peak().0 >= 0.9 * without.data.peak().0);
    }

    #[test]
    fn merge_group_base2_close_to_merge_pair() {
        let (a, b, geom) = pulses(10);
        let mut c1 = OpCounts::default();
        let mut c2 = OpCounts::default();
        let pair = merge_pair(&a, &b, &geom, InterpKind::Linear, true, &mut c1);
        let mut group = vec![c32::ZERO; pair.data.len()];
        let children = [a.sub(0), b.sub(0)];
        merge_group(
            &children,
            &mut group,
            &geom,
            InterpKind::Linear,
            true,
            &mut c2,
        );
        // Same geometry expressed two ways: images should agree closely.
        let mut max_err = 0.0f32;
        let mut max_mag = 0.0f32;
        for (x, y) in pair.data.as_slice().iter().zip(&group) {
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
        let (stage, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let four: Vec<_> = stage.subs().take(4).collect();
        let mut out = vec![c32::ZERO; 4 * geom.num_bins];
        merge_group(&four, &mut out, &geom, InterpKind::Nearest, true, &mut c);
        assert!(out.iter().any(|v| *v != c32::ZERO));
        let out = ComplexImage::from_vec(4, geom.num_bins, out);
        let centers = &stage.centers[..4];
        let merged = Stage::merging(
            stage.grid,
            stage.length,
            centers,
            4,
            out,
            Default::default(),
        );
        assert_eq!(merged.grid.n_beams, 4);
        assert!((merged.length - 4.0 * stage.length).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "ordered along track")]
    fn wrong_order_rejected() {
        let (a, b, geom) = pulses(0);
        let mut c = OpCounts::default();
        let _ = merge_pair(&b, &a, &geom, InterpKind::Nearest, true, &mut c);
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn mismatched_grids_rejected() {
        // Pulse 0 beside pulses 2 and 3 merged: one beam against two.
        let (a, _, geom) = pulses(0);
        let (c2, c3, _) = pulses(2);
        let mut c = OpCounts::default();
        let b = merge_pair(&c2, &c3, &geom, InterpKind::Nearest, true, &mut c);
        let _ = merge_pair(&a, &b, &geom, InterpKind::Nearest, true, &mut c);
    }
}
