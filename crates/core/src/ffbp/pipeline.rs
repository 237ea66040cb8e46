//! The full FFBP driver: stage-0 construction from pulse-compressed
//! data, then iterative merging to the full aperture
//! ([`merge_stages`], the one stage loop).

use desim::OpCounts;

use crate::ffbp::grid::Stage;
use crate::ffbp::interp::InterpKind;
use crate::ffbp::merge::{merge_group, merge_rows};
use crate::geometry::SarGeometry;
use crate::image::ComplexImage;

/// FFBP configuration.
#[derive(Debug, Clone, Copy)]
pub struct FfbpConfig {
    /// Interpolation kernel (the paper uses nearest-neighbour).
    pub interp: InterpKind,
    /// Children combined per merge (the paper uses 2).
    pub merge_base: usize,
    /// Apply per-child phase alignment in the combining step.
    pub phase_correct: bool,
}

impl Default for FfbpConfig {
    fn default() -> Self {
        FfbpConfig {
            interp: InterpKind::Nearest,
            merge_base: 2,
            phase_correct: true,
        }
    }
}

/// Result of an FFBP run.
pub struct FfbpRun {
    /// Final full-aperture image (rows = beams, cols = range bins).
    pub image: ComplexImage,
    /// Total arithmetic performed across all merges.
    pub counts: OpCounts,
    /// Merge iterations executed (10 for 1024 pulses at base 2).
    pub iterations: u32,
}

/// The stage-0 subapertures one by one, each a stage of its own (one
/// pulse, one beam, that pulse's compressed range line): the children
/// of [`crate::ffbp::merge_pair`], for a caller that merges pair by pair.
pub fn stage0(data: &ComplexImage, geom: &SarGeometry) -> Vec<Stage> {
    let pulses = 0..geom.num_pulses;
    pulses
        .map(|k| Stage::of_pulses(data, geom, k..k + 1))
        .collect()
}

/// The stage loop of every FFBP: stage 0 from the pulse-compressed
/// data, then `merge(stage, stage_idx)` — which owns the stage it is
/// handed and returns its successor, formed in [`Stage::merged`] — per
/// iteration until one subaperture, the image, is left. Each stage is
/// formed in the buffer of the stage two before it, so a run holds two
/// image-sized buffers and the last one written is the image. Returns
/// the image and the number of iterations.
pub fn merge_stages(
    data: &ComplexImage,
    geom: &SarGeometry,
    mut merge: impl FnMut(Stage, u32) -> Stage,
) -> (ComplexImage, u32) {
    let mut stage = Stage::of_pulses(data, geom, 0..geom.num_pulses);
    let mut stage_idx = 0;
    while stage.len() > 1 {
        stage = merge(stage, stage_idx);
        stage_idx += 1;
    }
    (stage.into_data(), stage_idx)
}

/// Run FFBP over pulse-compressed `data`.
pub fn ffbp(data: &ComplexImage, geom: &SarGeometry, cfg: &FfbpConfig) -> FfbpRun {
    assert!(cfg.merge_base >= 2, "merge base must be at least 2");
    assert!(
        geom.num_pulses.is_multiple_of(cfg.merge_base),
        "pulse count must divide by the merge base"
    );
    let mut counts = OpCounts::default();
    let (image, iterations) = merge_stages(data, geom, |stage, _| {
        if cfg.merge_base == 2 {
            return merge_rows(&stage, geom, cfg, |row, out| {
                row.merge_into(out, &mut counts);
            });
        }
        let mut next = stage.merged(cfg.merge_base);
        let groups = stage.subs().collect::<Vec<_>>();
        let outs = next
            .data
            .as_mut_slice()
            .chunks_mut(next.grid.n_beams * geom.num_bins);
        for (group, out) in groups.chunks(cfg.merge_base).zip(outs) {
            merge_group(group, out, geom, cfg.interp, cfg.phase_correct, &mut counts);
        }
        next
    });
    FfbpRun {
        image,
        counts,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbp::gbp;
    use crate::quality::peak_position_error;
    use crate::scene::{simulate_compressed_data, Scene};

    fn run_small(cfg: FfbpConfig) -> (FfbpRun, SarGeometry, Scene) {
        let geom = SarGeometry::test_size();
        let scene = Scene::single_target(geom);
        let data = simulate_compressed_data(&scene, 0.0, 0);
        (ffbp(&data, &geom, &cfg), geom, scene)
    }

    #[test]
    fn runs_log2_iterations_and_full_resolution() {
        let (run, geom, _) = run_small(FfbpConfig::default());
        assert_eq!(run.iterations, geom.merge_iterations());
        assert_eq!(run.image.rows(), geom.num_pulses);
        assert_eq!(run.image.cols(), geom.num_bins);
    }

    #[test]
    fn single_target_focuses_near_gbp_position() {
        let (run, geom, scene) = run_small(FfbpConfig::default());
        let data = simulate_compressed_data(&scene, 0.0, 0);
        let reference = gbp(&data, &geom, geom.num_pulses);
        let (dr_bins, db_beams) = peak_position_error(&run.image, &reference.image);
        assert!(dr_bins <= 2, "range peak offset {dr_bins} bins");
        assert!(db_beams <= 3, "beam peak offset {db_beams} beams");
    }

    #[test]
    fn focusing_gain_is_substantial() {
        let (run, geom, _) = run_small(FfbpConfig::default());
        let (peak, _, _) = run.image.peak();
        // NN interpolation loses some gain vs the ideal K; half is
        // already decisive focusing for K = 64.
        assert!(
            peak > 0.25 * geom.num_pulses as f32,
            "peak {peak} too low for K={}",
            geom.num_pulses
        );
    }

    #[test]
    fn cubic_beats_nearest_on_image_quality() {
        // The paper: FFBP with simplified (NN) interpolation is noisy
        // relative to GBP, and "could be considerably improved by using
        // more complex interpolation kernels such as cubic". Measure
        // fidelity to the GBP reference.
        let (nn, geom, scene) = run_small(FfbpConfig::default());
        let (cubic, _, _) = run_small(FfbpConfig {
            interp: InterpKind::Cubic,
            ..FfbpConfig::default()
        });
        let data = simulate_compressed_data(&scene, 0.0, 0);
        let reference = gbp(&data, &geom, geom.num_pulses);
        let err_nn = crate::quality::normalized_rmse(&nn.image, &reference.image);
        let err_cu = crate::quality::normalized_rmse(&cubic.image, &reference.image);
        assert!(
            err_cu < err_nn,
            "cubic RMSE {err_cu:.4} should beat nearest {err_nn:.4}"
        );
    }

    #[test]
    fn merge_base_4_produces_same_shape() {
        let (run4, geom, _) = run_small(FfbpConfig {
            merge_base: 4,
            ..FfbpConfig::default()
        });
        assert_eq!(run4.iterations, geom.merge_iterations() / 2);
        assert_eq!(run4.image.rows(), geom.num_pulses);
        let (peak, _, _) = run4.image.peak();
        assert!(peak > 0.2 * geom.num_pulses as f32);
    }

    #[test]
    fn counts_grow_with_iterations() {
        let (run, geom, _) = run_small(FfbpConfig::default());
        // Each iteration touches every output sample once: counts must
        // be at least iterations * pulses * bins fmas-ish.
        let samples = geom.num_pulses as u64 * geom.num_bins as u64 * run.iterations as u64;
        assert!(run.counts.flop_work() > samples);
        assert!(run.counts.sqrts >= 2 * samples);
    }

    #[test]
    fn stage0_copies_rows() {
        let geom = SarGeometry::test_size();
        let scene = Scene::single_target(geom);
        let data = simulate_compressed_data(&scene, 0.0, 0);
        let subs = stage0(&data, &geom);
        assert_eq!(subs.len(), geom.num_pulses);
        assert_eq!(subs[5].data.row(0), data.row(5));
        assert!(subs[1].centers[0] > subs[0].centers[0]);
        // A pulse range is the same subapertures, in one buffer.
        let some = Stage::of_pulses(&data, &geom, 4..7);
        assert_eq!(some.len(), 3);
        for (sub, whole) in some.subs().zip(&subs[4..7]) {
            assert_eq!(sub.data.as_slice(), whole.data.as_slice());
            assert_eq!(sub.center_y.to_bits(), whole.centers[0].to_bits());
        }
    }

    #[test]
    fn a_run_ping_pongs_two_buffers_and_returns_the_last_one_written() {
        // The address of each iteration's input buffer: stage 0's, then
        // the first merge's fresh one, then those two in turn. A buffer
        // allocated per stage would be a third address.
        let geom = SarGeometry::test_size();
        let data = simulate_compressed_data(&Scene::single_target(geom), 0.0, 0);
        let cfg = FfbpConfig::default();
        let mut inputs = Vec::new();
        let (image, iterations) = merge_stages(&data, &geom, |stage, _| {
            inputs.push(stage.data.as_slice().as_ptr());
            merge_rows(&stage, &geom, &cfg, |row, out| {
                row.merge_into(out, &mut OpCounts::default());
            })
        });
        assert_eq!(iterations, 6);
        assert_ne!(inputs[0], inputs[1]);
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(*input, inputs[k % 2], "stage {k} read a third buffer");
        }
        assert_eq!(image.as_slice().as_ptr(), inputs[iterations as usize % 2]);
        assert_eq!(image.as_slice(), ffbp(&data, &geom, &cfg).image.as_slice());
    }
}
