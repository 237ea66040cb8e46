//! The staged focus-criterion computation (Figure 8 dataflow).
//!
//! Stage shapes follow the paper's mapping exactly so the MPMD version
//! can put one stage instance per core:
//!
//! * **range stage** — three instances per block, one per 4-column
//!   window (windows 0-3, 1-4, 2-5: "including another column of
//!   pixels instead of the first"); each instance cubic-interpolates
//!   all six rows of its window along the tilted path,
//! * **beam stage** — three instances per block, one per 4-row window;
//!   each consumes four range-interpolated rows,
//! * **correlation + summation** — one instance shared by both blocks,
//!   accumulating eq. (6).
//!
//! Three iterations sweep disjoint thirds of the oversampled path, so
//! after iteration 2 the criterion covers the whole 6x6 block.
//! The constants below, [`Stage::ALL`] and [`block_shift`] are the one
//! statement of that shape; placements, models and drivers read them.

use std::fmt;

use desim::OpCounts;

use crate::autofocus::block::Block6;
use crate::complex::c32;
use crate::ffbp::interp::neville4;

/// Image blocks the criterion correlates: `f-` (0) and `f+` (1).
pub const BLOCKS: usize = 2;
/// 4-wide windows per interpolation stage and block.
pub const WINDOWS: usize = 3;
/// Iterations per hypothesis, each over a third of the path.
pub const ITERATIONS: usize = 3;
/// Stage instances: range and beam interpolators, and the correlator.
pub const STAGES: usize = 2 * BLOCKS * WINDOWS + 1;

/// The shift block `blk` is resampled at under hypothesis `shift`:
/// `f-` at `-shift/2`, `f+` at `+shift/2`, which pulls a feature
/// displaced by `+shift` in `f+` back into alignment (resampling at
/// `+d` moves apparent features by `-d`).
pub fn block_shift(blk: usize, shift: f32) -> f32 {
    [-0.5, 0.5][blk] * shift
}

/// Criterion workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct AutofocusConfig {
    /// Interpolation points evaluated along the tilted path per window
    /// (split evenly across the [`ITERATIONS`]; must be divisible by
    /// their count).
    pub oversample: usize,
    /// Slope of the tilted path: fractional range shift per row.
    pub tilt: f32,
    /// Fraction of the hypothesis shift applied in the *beam*
    /// direction by the beam stage (the tilted path has a cross-range
    /// component). The integrated FFBP estimator sets this to zero to
    /// measure a pure range shift.
    pub beam_coupling: f32,
}

impl Default for AutofocusConfig {
    fn default() -> Self {
        AutofocusConfig {
            oversample: 48,
            tilt: 0.3,
            beam_coupling: 0.5,
        }
    }
}

impl AutofocusConfig {
    /// Samples handled per iteration.
    pub fn samples_per_iteration(&self) -> usize {
        assert!(
            self.oversample.is_multiple_of(ITERATIONS) && self.oversample > 0,
            "oversample must be a positive multiple of {ITERATIONS}"
        );
        self.oversample / ITERATIONS
    }
}

/// Output of one range-stage instance: for each of the six rows, the
/// interpolated values at this iteration's path positions.
pub type RangeStageOut = [Vec<c32>; 6];

/// Output of one beam-stage instance: for each range window, the
/// interpolated values at this iteration's path positions.
pub type BeamStageOut = [Vec<c32>; WINDOWS];

/// Path position `s` (of `oversample`) expressed as a fractional
/// offset within a 4-point window (relative to node index 1).
#[inline]
fn path_position(s: usize, oversample: usize) -> f32 {
    (s as f32 + 0.5) / oversample as f32
}

/// Range-interpolation stage for window `window` of `block`:
/// cubic interpolation of each row's columns `window..window+4` at the
/// iteration's path positions, shifted by `shift` and tilted per row.
pub fn range_stage(
    block: &Block6,
    window: usize,
    shift: f32,
    iteration: usize,
    cfg: &AutofocusConfig,
    counts: &mut OpCounts,
) -> RangeStageOut {
    assert!(window < WINDOWS, "range windows are 0..{WINDOWS}");
    assert!(iteration < ITERATIONS, "iterations are 0..{ITERATIONS}");
    let per_it = cfg.samples_per_iteration();
    let s0 = iteration * per_it;
    let mut out: RangeStageOut = Default::default();
    for (row_idx, out_row) in out.iter_mut().enumerate() {
        let row = block.row(row_idx);
        let p = [
            row[window],
            row[window + 1],
            row[window + 2],
            row[window + 3],
        ];
        counts.loads += 4;
        // The tilted path: each row's sampling position slides by
        // `shift * tilt` per row off-centre.
        let row_shift = shift * (1.0 + cfg.tilt * (row_idx as f32 - 2.5));
        counts.fmas += 2;
        let mut vals = Vec::with_capacity(per_it);
        for s in s0..s0 + per_it {
            let t = path_position(s, cfg.oversample) + row_shift;
            counts.flops += 1;
            let v = neville4(p, t, counts);
            counts.stores += 1;
            vals.push(v);
        }
        *out_row = vals;
    }
    out
}

/// Beam-interpolation stage for row-window `window`: for each
/// range window `w`, cubic interpolation across the four range-stage
/// rows `window..window+4` at the same path positions.
pub fn beam_stage(
    range_out: &[RangeStageOut; WINDOWS],
    window: usize,
    shift: f32,
    iteration: usize,
    cfg: &AutofocusConfig,
    counts: &mut OpCounts,
) -> BeamStageOut {
    assert!(window < WINDOWS, "beam windows are 0..{WINDOWS}");
    assert!(iteration < ITERATIONS, "iterations are 0..{ITERATIONS}");
    let per_it = cfg.samples_per_iteration();
    let beam_shift = cfg.beam_coupling * shift;
    counts.flops += 1;
    let mut out: BeamStageOut = Default::default();
    for (w, out_w) in out.iter_mut().enumerate() {
        let mut vals = Vec::with_capacity(per_it);
        #[allow(clippy::needless_range_loop)] // four parallel rows are indexed together
        for s in 0..per_it {
            let p = [
                range_out[w][window][s],
                range_out[w][window + 1][s],
                range_out[w][window + 2][s],
                range_out[w][window + 3][s],
            ];
            counts.loads += 4;
            let t = 0.5 + beam_shift;
            let v = neville4(p, t, counts);
            counts.stores += 1;
            vals.push(v);
        }
        *out_w = vals;
    }
    out
}

/// Correlation + summation over one iteration's beam-stage outputs of
/// the two contributing images (eq. 6): `sum |f-|^2 * |f+|^2`.
pub fn correlate_partial(
    minus: &[BeamStageOut; WINDOWS],
    plus: &[BeamStageOut; WINDOWS],
    counts: &mut OpCounts,
) -> f32 {
    let mut acc = 0.0f32;
    for (m, p) in minus.iter().flatten().zip(plus.iter().flatten()) {
        debug_assert_eq!(m.len(), p.len());
        for (zm, zp) in m.iter().zip(p) {
            acc += zm.norm_sqr() * zp.norm_sqr();
            counts.fmas += 3;
            counts.loads += 4;
        }
    }
    counts.stores += 1;
    acc
}

/// One of the [`STAGES`] stage instances of the Figure 8 dataflow —
/// what fires in [`criterion_firings`], and what the MPMD mappings place
/// one per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Range interpolator of block `blk` (0 = `f-`, 1 = `f+`), column
    /// window `win`.
    Range { blk: usize, win: usize },
    /// Beam interpolator of block `blk`, row window `win`.
    Beam { blk: usize, win: usize },
    /// The correlation + summation stage both blocks share.
    Corr,
}

impl Stage {
    /// Every stage in role order: the range interpolators block by
    /// block, then the beam interpolators block by block, then the
    /// correlator. A stage's index here is its [`role`](Stage::role).
    pub const ALL: [Stage; STAGES] = {
        let mut all = [Stage::Corr; STAGES];
        let mut i = 0;
        while i < BLOCKS * WINDOWS {
            let (blk, win) = (i / WINDOWS, i % WINDOWS);
            all[i] = Stage::Range { blk, win };
            all[BLOCKS * WINDOWS + i] = Stage::Beam { blk, win };
            i += 1;
        }
        all
    };

    /// The stage's index in [`Stage::ALL`].
    pub const fn role(self) -> usize {
        match self {
            Stage::Range { blk, win } => blk * WINDOWS + win,
            Stage::Beam { blk, win } => (BLOCKS + blk) * WINDOWS + win,
            Stage::Corr => STAGES - 1,
        }
    }

    /// Messages the stage joins per firing: one per producer (none for
    /// a range interpolator, whose block is staged once).
    pub fn fan_in(self) -> usize {
        match self {
            Stage::Range { .. } => 0,
            Stage::Beam { .. } => WINDOWS,
            Stage::Corr => BLOCKS * WINDOWS,
        }
    }

    /// The stages this one streams to, in output-port order: a range
    /// interpolator feeds the beam interpolators of its block, a beam
    /// interpolator feeds the correlator.
    pub fn consumers(self) -> impl Iterator<Item = Stage> {
        let fanout = match self {
            Stage::Range { .. } => WINDOWS,
            Stage::Beam { .. } => 1,
            Stage::Corr => 0,
        };
        (0..fanout).map(move |win| match self {
            Stage::Range { blk, .. } => Stage::Beam { blk, win },
            _ => Stage::Corr,
        })
    }
}

/// The stage's actor name, and its end of a channel label.
impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Range { blk, win } => write!(f, "range{blk}{win}"),
            Stage::Beam { blk, win } => write!(f, "beam{blk}{win}"),
            Stage::Corr => f.write_str("corr"),
        }
    }
}

/// Run every iteration of the full staged computation for one pair of
/// blocks under shift hypothesis `shift`, reporting every stage firing
/// to `fired` with the op ledger of that firing alone, as it happens:
/// per iteration, block `f-` then `f+` — its range windows, then its
/// beam windows — then the correlator, [`ITERATIONS`] × [`STAGES`]
/// firings in all. Each block is resampled at its [`block_shift`].
/// Returns the criterion, eq. (6).
pub fn criterion_firings(
    f_minus: &Block6,
    f_plus: &Block6,
    shift: f32,
    cfg: &AutofocusConfig,
    mut fired: impl FnMut(Stage, &OpCounts),
) -> f32 {
    let mut total = 0.0f32;
    for it in 0..ITERATIONS {
        let mut half = |blk: usize, block: &Block6| -> [BeamStageOut; WINDOWS] {
            let s = block_shift(blk, shift);
            let mut range_win = |win| {
                let mut ops = OpCounts::default();
                let out = range_stage(block, win, s, it, cfg, &mut ops);
                fired(Stage::Range { blk, win }, &ops);
                out
            };
            // Array literals: `array::from_fn`/`map` cost 5 % of a sweep
            // here (`sar-core.af_sweep_us`).
            let range = [range_win(0), range_win(1), range_win(2)];
            let mut beam_win = |win| {
                let mut ops = OpCounts::default();
                let out = beam_stage(&range, win, s, it, cfg, &mut ops);
                fired(Stage::Beam { blk, win }, &ops);
                out
            };
            [beam_win(0), beam_win(1), beam_win(2)]
        };
        let minus = half(0, f_minus);
        let plus = half(1, f_plus);
        let mut ops = OpCounts::default();
        total += correlate_partial(&minus, &plus, &mut ops);
        fired(Stage::Corr, &ops);
    }
    total
}

/// The criterion of one shift hypothesis ([`criterion_firings`]) with
/// every firing's ledger added to `counts`.
pub fn focus_criterion(
    f_minus: &Block6,
    f_plus: &Block6,
    shift: f32,
    cfg: &AutofocusConfig,
    counts: &mut OpCounts,
) -> f32 {
    criterion_firings(f_minus, f_plus, shift, cfg, |_, ops| counts.add(ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutofocusConfig {
        AutofocusConfig::default()
    }

    #[test]
    fn stages_produce_expected_shapes() {
        let b = Block6::gaussian_blob(0.0, 0.0);
        let mut c = OpCounts::default();
        let r0 = range_stage(&b, 0, 0.0, 0, &cfg(), &mut c);
        assert_eq!(r0[0].len(), cfg().samples_per_iteration());
        let r = [
            r0,
            range_stage(&b, 1, 0.0, 0, &cfg(), &mut c),
            range_stage(&b, 2, 0.0, 0, &cfg(), &mut c),
        ];
        let bo = beam_stage(&r, 0, 0.0, 0, &cfg(), &mut c);
        assert_eq!(bo[2].len(), cfg().samples_per_iteration());
        assert!(c.fmas > 0 && c.loads > 0);
    }

    #[test]
    fn a_hypothesis_fires_39_stages_in_the_documented_order() {
        let f_minus = Block6::gaussian_blob(0.0, 0.2);
        let f_plus = Block6::gaussian_blob(0.0, -0.2);
        let mut fired = Vec::new();
        let mut sum = OpCounts::default();
        let v = criterion_firings(&f_minus, &f_plus, 0.3, &cfg(), |stage, ops| {
            fired.push((stage, *ops));
            sum.add(ops);
        });

        // 3 iterations x (2 blocks x (3 range + 3 beam) + 1 correlator).
        let block = |blk| {
            let range = (0..3).map(move |win| Stage::Range { blk, win });
            range.chain((0..3).map(move |win| Stage::Beam { blk, win }))
        };
        let iteration = (0..2).flat_map(block).chain([Stage::Corr]);
        let expected: Vec<Stage> = (0..3).flat_map(|_| iteration.clone()).collect();
        assert_eq!(expected.len(), 39);
        let stages: Vec<Stage> = fired.iter().map(|&(stage, _)| stage).collect();
        assert_eq!(stages, expected);
        // Each iteration fires a permutation of the stage table.
        for iteration in stages.chunks(STAGES) {
            let mut roles: Vec<usize> = iteration.iter().map(|s| s.role()).collect();
            roles.sort_unstable();
            assert_eq!(roles, (0..STAGES).collect::<Vec<_>>());
        }

        // The firing ledgers are `focus_criterion`'s counts, and its
        // value the walk's.
        let mut c = OpCounts::default();
        let direct = focus_criterion(&f_minus, &f_plus, 0.3, &cfg(), &mut c);
        assert_eq!(sum, c);
        assert_eq!(v.to_bits(), direct.to_bits());

        // Every firing of a stage kind does the same work, so one
        // ledger per kind prices the pipeline (`PipelineProbe`).
        let kind = |stage: Stage| std::mem::discriminant(&stage);
        for (stage, ops) in &fired {
            let first = fired.iter().find(|(s, _)| kind(*s) == kind(*stage));
            assert_eq!(Some(ops), first.map(|(_, ops)| ops), "{stage}");
        }
    }

    #[test]
    fn the_table_lists_every_stage_once_in_role_order() {
        assert_eq!(Stage::ALL.len(), 13);
        for (role, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.role(), role, "{stage}");
        }
        // Range interpolators block by block, then beam, then the
        // correlator.
        let role_of = |stage: Stage| Stage::ALL.iter().position(|&s| s == stage);
        for blk in 0..2 {
            for win in 0..3 {
                assert_eq!(role_of(Stage::Range { blk, win }), Some(3 * blk + win));
                assert_eq!(role_of(Stage::Beam { blk, win }), Some(6 + 3 * blk + win));
            }
        }
        assert_eq!(role_of(Stage::Corr), Some(12));
    }

    #[test]
    fn fan_in_counts_the_producers_that_name_the_stage() {
        for stage in Stage::ALL {
            let producers = Stage::ALL
                .iter()
                .flat_map(|from| from.consumers())
                .filter(|&to| to == stage)
                .count();
            assert_eq!(stage.fan_in(), producers, "{stage}");
        }
    }

    #[test]
    fn blocks_split_the_shift_symmetrically() {
        assert_eq!(block_shift(0, 0.6), -0.3);
        assert_eq!(block_shift(1, 0.6), 0.3);
        assert_eq!(block_shift(1, 0.6) - block_shift(0, 0.6), 0.6);
    }

    #[test]
    fn criterion_is_positive_for_bright_blocks() {
        let a = Block6::gaussian_blob(0.0, 0.0);
        let mut c = OpCounts::default();
        let v = focus_criterion(&a, &a, 0.0, &cfg(), &mut c);
        assert!(v > 0.0);
    }

    #[test]
    fn aligned_blocks_maximise_criterion() {
        // f- is the field shifted by +0.4 column; the criterion over
        // shift hypotheses must peak near the true shift.
        let truth = 0.4f32;
        let f_plus = Block6::gaussian_blob(0.0, -truth / 2.0);
        let f_minus = Block6::gaussian_blob(0.0, truth / 2.0);
        let mut best = (f32::MIN, 0.0f32);
        for i in 0..41 {
            let hyp = -1.0 + i as f32 * 0.05;
            let mut c = OpCounts::default();
            let v = focus_criterion(&f_minus, &f_plus, hyp, &cfg(), &mut c);
            if v > best.0 {
                best = (v, hyp);
            }
        }
        assert!(
            (best.1 - truth).abs() <= 0.15,
            "criterion peaked at {} instead of {truth}",
            best.1
        );
    }

    #[test]
    fn criterion_degrades_away_from_truth() {
        let f_plus = Block6::gaussian_blob(0.0, 0.0);
        let f_minus = Block6::gaussian_blob(0.0, 0.0);
        let mut c = OpCounts::default();
        let at_zero = focus_criterion(&f_minus, &f_plus, 0.0, &cfg(), &mut c);
        let far = focus_criterion(&f_minus, &f_plus, 1.5, &cfg(), &mut c);
        assert!(at_zero > far, "{at_zero} vs {far}");
    }

    #[test]
    fn iterations_partition_the_path() {
        // Three iterations over disjoint thirds must sum to the same
        // total as directly correlating a full-path single pass with
        // 3x the per-iteration samples.
        let b = Block6::gaussian_blob(0.0, 0.0);
        let mut c = OpCounts::default();
        let mut per_iter_sum = 0.0;
        for it in 0..3 {
            let r = [
                range_stage(&b, 0, 0.1, it, &cfg(), &mut c),
                range_stage(&b, 1, 0.1, it, &cfg(), &mut c),
                range_stage(&b, 2, 0.1, it, &cfg(), &mut c),
            ];
            let bo = [
                beam_stage(&r, 0, 0.1, it, &cfg(), &mut c),
                beam_stage(&r, 1, 0.1, it, &cfg(), &mut c),
                beam_stage(&r, 2, 0.1, it, &cfg(), &mut c),
            ];
            per_iter_sum += correlate_partial(&bo, &bo, &mut c);
        }
        let direct = focus_criterion(&b, &b, 0.2, &cfg(), &mut c);
        // Not the same shift, just both finite and positive: the
        // partition property is shape-level (covered positions).
        assert!(per_iter_sum.is_finite() && direct.is_finite());
        assert!(per_iter_sum > 0.0);
    }

    #[test]
    fn op_counts_match_workload_scale() {
        let b = Block6::gaussian_blob(0.0, 0.0);
        let mut c = OpCounts::default();
        focus_criterion(&b, &b, 0.0, &cfg(), &mut c);
        // Nevilles: 2 blocks x 3 iterations x (3 range windows x 6 rows
        // + 3 beam windows x 3) x 16 samples
        let nevilles = 2 * 3 * ((3 * 6) + (3 * 3)) * 16;
        assert!(c.fmas / 18 >= nevilles as u64 / 2);
        assert!(c.flop_work() > 100_000);
    }

    #[test]
    #[should_panic(expected = "multiple of 3")]
    fn oversample_must_divide_by_three() {
        let bad = AutofocusConfig {
            oversample: 16,
            ..AutofocusConfig::default()
        };
        let _ = bad.samples_per_iteration();
    }
}
