//! Autofocus integrated into the FFBP merge loop — the paper's
//! Figure 4: "the autofocus calculations use the image data itself and
//! are done before each subaperture merge".
//!
//! Before merging a subaperture pair, both children are *projected*
//! onto a small window of the parent grid (the same eqs. (1)-(4)
//! interpolation the merge itself uses, applied per child — this is
//! why the criterion calculation shares its interpolation structure
//! with the merge). Geometry is thereby compensated, so any residual
//! displacement between the two projected subimages is flight-path
//! error; the criterion sweep estimates it as a linear shift, and the
//! losing child is motion-compensated before the actual merge.

use desim::OpCounts;

use crate::autofocus::block::Block6;
use crate::autofocus::criterion::AutofocusConfig;
use crate::autofocus::search::{refine_peak, sweep_criterion};
use crate::complex::c32;
use crate::ffbp::grid::{PolarGrid, Subaperture};
use crate::ffbp::interp::{sample, InterpKind};
use crate::ffbp::merge::merge_rows;
use crate::ffbp::pipeline::{merge_stages, FfbpConfig};
use crate::geometry::{merge_geometry, SarGeometry};
use crate::image::ComplexImage;
use crate::track::compensate_range_shift;

/// Configuration of the autofocused pipeline.
#[derive(Debug, Clone, Copy)]
pub struct IntegratedConfig {
    /// The underlying FFBP settings (merge base must be 2).
    pub ffbp: FfbpConfig,
    /// Criterion workload parameters.
    pub criterion: AutofocusConfig,
    /// Candidate compensations tested per merge.
    pub hypotheses: usize,
    /// Largest tested shift, in range bins.
    pub max_shift: f32,
    /// Autofocus runs once the parent grid has at least this many
    /// beams (a 6x6 block needs six beam rows; earlier merges span
    /// apertures short enough that a slowly varying track error is
    /// constant across them).
    pub min_parent_beams: usize,
    /// Estimates below this many bins are treated as estimator noise
    /// and not applied (spurious sub-bin corrections cascade into real
    /// relative errors at later merges).
    pub deadband_bins: f32,
    /// Only the final `last_merges` iterations run autofocus. Track
    /// errors vary slowly, so short subapertures see an essentially
    /// constant offset that the *relative* estimator cannot observe;
    /// estimating there only injects noise. Correcting the last few
    /// (longest-baseline) merges captures the bulk of the defocus —
    /// the usual coarse-to-fine autofocus practice.
    pub last_merges: u32,
    /// Minimum sweep contrast (peak criterion over edge criterion) for
    /// a correction to be trusted; flat sweeps carry no alignment
    /// information.
    pub min_contrast: f32,
}

impl Default for IntegratedConfig {
    fn default() -> Self {
        IntegratedConfig {
            ffbp: FfbpConfig::default(),
            // The estimator wants a *pure* range shift: no tilted-path
            // sweep and no beam-direction coupling (those belong to
            // the stand-alone criterion study).
            criterion: AutofocusConfig {
                tilt: 0.0,
                beam_coupling: 0.0,
                ..AutofocusConfig::default()
            },
            hypotheses: 17,
            max_shift: 2.0,
            min_parent_beams: 8,
            deadband_bins: 0.35,
            last_merges: 2,
            min_contrast: 1.05,
        }
    }
}

/// One correction the pipeline applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correction {
    /// Merge iteration (1-based, as in the paper's "ten iterations").
    pub iteration: u32,
    /// Index of the merged pair within the iteration.
    pub pair: usize,
    /// Range-shift applied to the leading child, metres.
    pub dx_meters: f32,
}

/// Result of an autofocused FFBP run.
pub struct IntegratedRun {
    /// The formed image.
    pub image: ComplexImage,
    /// Arithmetic performed (merges + criterion sweeps).
    pub counts: OpCounts,
    /// Merge iterations executed.
    pub iterations: u32,
    /// Every correction applied.
    pub corrections: Vec<Correction>,
}

/// Project `child` onto a 6x6 window of the parent grid starting at
/// parent beam `j0` / bin `i0`. `leading` selects which child of the
/// merge this is (trailing children use the `(r1, theta1)` branch of
/// eqs. (1)-(4), leading ones `(r2, theta2)`).
#[allow(clippy::too_many_arguments)]
fn project_block(
    child: &Subaperture,
    geom: &SarGeometry,
    out_grid: &PolarGrid,
    l: f32,
    leading: bool,
    j0: usize,
    i0: usize,
    counts: &mut OpCounts,
) -> Block6 {
    let k = 4.0 * std::f32::consts::PI / geom.wavelength;
    let mut b = [[c32::ZERO; 6]; 6];
    for (dj, row) in b.iter_mut().enumerate() {
        let theta = out_grid.beam_theta(j0 + dj);
        for (di, v) in row.iter_mut().enumerate() {
            let r = geom.bin_range(i0 + di);
            let look = merge_geometry(r, theta, l, counts);
            let (rc, thc) = if leading {
                (look.r2, look.theta2)
            } else {
                (look.r1, look.theta1)
            };
            let s = sample(child, geom, rc, thc, InterpKind::Cubic, counts);
            *v = s * c32::cis(k * (rc - r));
            counts.trigs += 1;
            counts.fmas += 4;
        }
    }
    Block6(b)
}

/// Estimate the residual path error between two children of a merge,
/// in *parent range bins* (positive = the leading child's responses
/// sit at larger ranges than the trailing child's).
pub fn estimate_pair_shift(
    a: &Subaperture,
    b: &Subaperture,
    geom: &SarGeometry,
    out_grid: &PolarGrid,
    cfg: &IntegratedConfig,
    counts: &mut OpCounts,
) -> f32 {
    let l = b.center_y - a.center_y;
    // Anchor the window on the brightest region of the trailing child,
    // mapped into *parent* coordinates. The child sees its peak at
    // (r_a, theta_a) from its own centre at -l/2; the same ground
    // point sits at (r_p, theta_p) from the merged centre — using the
    // child indices directly would park the window off the target by
    // the parallax (l/2) cos(theta), where the two children's
    // projections legitimately disagree.
    let (_, pa_beam, pa_bin) = a.data.peak();
    let r_a = geom.bin_range(pa_bin);
    let th_a = a.grid.beam_theta(pa_beam);
    let (x_g, y_g) = (r_a * th_a.sin(), -0.5 * l + r_a * th_a.cos());
    let r_p = (x_g * x_g + y_g * y_g).sqrt();
    let th_p = (y_g / r_p).clamp(-1.0, 1.0).acos();
    counts.trigs += 3;
    counts.sqrts += 1;
    counts.fmas += 6;
    let j0 = (out_grid.beam_index(th_p).round().max(0.0) as usize)
        .saturating_sub(2)
        .min(out_grid.n_beams.saturating_sub(6));
    let i0 = (((r_p - geom.r0) / geom.dr).round().max(0.0) as usize)
        .saturating_sub(2)
        .min(geom.num_bins.saturating_sub(6));
    let f_minus = project_block(a, geom, out_grid, l, false, j0, i0, counts);
    let f_plus = project_block(b, geom, out_grid, l, true, j0, i0, counts);
    let sweep = sweep_criterion(
        &f_minus,
        &f_plus,
        cfg.max_shift,
        cfg.hypotheses,
        &cfg.criterion,
        counts,
    );
    let peak_v = sweep.iter().map(|&(_, v)| v).fold(f32::MIN, f32::max);
    let edge_v = sweep[0]
        .1
        .max(sweep[sweep.len() - 1].1)
        .max(f32::MIN_POSITIVE);
    if peak_v < cfg.min_contrast * edge_v {
        return 0.0; // flat sweep: no alignment information
    }
    // Antisymmetrise: the 6x6 window is not centred on the response
    // (integer anchor), which biases the correlation product toward
    // the window's heavy side. Sweeping the blocks in both orders
    // flips the sign of the true shift but not of the window bias, so
    // the half-difference cancels the bias.
    let reversed = sweep_criterion(
        &f_plus,
        &f_minus,
        cfg.max_shift,
        cfg.hypotheses,
        &cfg.criterion,
        counts,
    );
    let refined = 0.5 * (refine_peak(&sweep) - refine_peak(&reversed));
    if refined.abs() < cfg.deadband_bins {
        0.0
    } else {
        refined
    }
}

/// Run FFBP with per-merge autofocus: before a stage's rows are merged,
/// each of its pairs has its leading child motion-compensated by the
/// shift the criterion sweep estimates.
pub fn ffbp_with_autofocus(
    data: &ComplexImage,
    geom: &SarGeometry,
    cfg: &IntegratedConfig,
) -> IntegratedRun {
    assert_eq!(
        cfg.ffbp.merge_base, 2,
        "autofocus assumes a merge base of two"
    );
    let mut counts = OpCounts::default();
    let mut corrections = Vec::new();
    let total_merges = geom.merge_iterations();

    let (image, iterations) = merge_stages(data, geom, |mut stage, done| {
        let out_grid = stage.grid.refined();
        let run_autofocus = out_grid.n_beams >= cfg.min_parent_beams.max(6)
            && done + cfg.last_merges >= total_merges;
        if run_autofocus {
            for pair_idx in 0..stage.len() / 2 {
                let (a, b) = (stage.sub(2 * pair_idx), stage.sub(2 * pair_idx + 1));
                let delta_bins = estimate_pair_shift(&a, &b, geom, &out_grid, cfg, &mut counts);
                // The leading child's responses sit `delta` bins late:
                // it flew `delta * dr` farther out, i.e. `-delta * dr`
                // closer; compensate accordingly.
                let dx = -delta_bins * geom.dr;
                if dx != 0.0 {
                    let b = stage.beams_mut(2 * pair_idx + 1);
                    compensate_range_shift(b, dx, geom, &mut counts);
                    corrections.push(Correction {
                        iteration: done + 1,
                        pair: pair_idx,
                        dx_meters: dx,
                    });
                }
            }
        }
        merge_rows(&stage, geom, &cfg.ffbp, |row, out| {
            row.merge_into(out, &mut counts);
        })
    });
    IntegratedRun {
        image,
        counts,
        iterations,
        corrections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp::{ffbp, merge_pair, stage0};
    use crate::scene::{simulate_compressed_data, simulate_with_track, Scene};
    use crate::track::FlightTrack;

    fn geom() -> SarGeometry {
        SarGeometry::test_size()
    }

    #[test]
    fn clean_data_gets_no_large_corrections() {
        let scene = Scene::single_target(geom());
        let data = simulate_compressed_data(&scene, 0.0, 0);
        let run = ffbp_with_autofocus(&data, &geom(), &IntegratedConfig::default());
        // A straight track needs no compensation: whatever the sweep
        // picks must be sub-bin.
        for c in &run.corrections {
            assert!(
                c.dx_meters.abs() <= 1.0,
                "spurious correction {c:?} on clean data"
            );
        }
        // And focus quality must not degrade materially vs plain FFBP.
        let plain = ffbp(&data, &geom(), &FfbpConfig::default());
        let (p_auto, _, _) = run.image.peak();
        let (p_plain, _, _) = plain.image.peak();
        assert!(
            p_auto > 0.8 * p_plain,
            "autofocus hurt clean data: {p_auto} vs {p_plain}"
        );
    }

    #[test]
    fn step_track_error_is_detected_and_corrected() {
        // The second half of the aperture flies 1.5 m closer: the final
        // merge sees a hard path discontinuity.
        let g = geom();
        let scene = Scene::single_target(g);
        let track = FlightTrack::step(g.num_pulses, 1.5);
        let perturbed = simulate_with_track(&scene, &track, 0.0, 0);
        let clean = simulate_compressed_data(&scene, 0.0, 0);

        let plain = ffbp(&perturbed, &g, &FfbpConfig::default());
        let auto = ffbp_with_autofocus(&perturbed, &g, &IntegratedConfig::default());
        let ideal = ffbp(&clean, &g, &FfbpConfig::default());

        let (p_plain, _, _) = plain.image.peak();
        let (p_auto, _, _) = auto.image.peak();
        let (p_ideal, _, _) = ideal.image.peak();

        assert!(
            p_auto > p_plain,
            "autofocus must improve the defocused image: {p_auto} vs {p_plain}"
        );
        assert!(
            p_auto > 0.6 * p_ideal,
            "autofocus should recover most of the ideal peak: {p_auto} vs {p_ideal}"
        );
        // The final-merge correction must be roughly the injected step.
        let last = auto
            .corrections
            .iter()
            .rfind(|c| c.iteration == auto.iterations)
            .expect("final merge must be corrected");
        assert!(
            (last.dx_meters - 1.5).abs() <= 0.75,
            "final correction {last:?} should approximate the +1.5 m step"
        );
    }

    #[test]
    fn estimator_sees_no_shift_between_identical_children() {
        let g = geom();
        let scene = Scene::single_target(g);
        let data = simulate_compressed_data(&scene, 0.0, 0);
        let subs = stage0(&data, &g);
        // Build two mid-aperture 8-beam subapertures by plain merging.
        let mut counts = OpCounts::default();
        let mut stage = subs;
        while stage[0].grid.n_beams < 8 {
            stage = stage
                .chunks_exact(2)
                .map(|p| merge_pair(&p[0], &p[1], &g, InterpKind::Nearest, true, &mut counts))
                .collect();
        }
        let mid = stage.len() / 2;
        let (a, b) = (stage[mid - 1].sub(0), stage[mid].sub(0));
        let out_grid = a.grid.refined();
        let cfg = IntegratedConfig::default();
        let shift = estimate_pair_shift(&a, &b, &g, &out_grid, &cfg, &mut counts);
        assert!(
            shift.abs() <= 0.5,
            "clean children should need < half-bin correction, got {shift}"
        );
    }

    #[test]
    fn corrections_record_iteration_and_pair() {
        let g = geom();
        let scene = Scene::single_target(g);
        let track = FlightTrack::sinusoidal(g.num_pulses, 1.0, 40.0);
        let data = simulate_with_track(&scene, &track, 0.0, 0);
        let run = ffbp_with_autofocus(&data, &g, &IntegratedConfig::default());
        assert!(!run.corrections.is_empty());
        for c in &run.corrections {
            assert!(c.iteration >= 1 && c.iteration <= run.iterations);
            assert!(c.dx_meters.abs() <= 2.0 * g.dr + 1e-5);
        }
    }
}
