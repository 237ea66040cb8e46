//! The full RDA driver: range compression, corner turn + azimuth FFT,
//! RCMC, azimuth compression.

use desim::OpCounts;

use crate::complex::c32;
use crate::geometry::SarGeometry;
use crate::image::ComplexImage;
use crate::rda::stages::{
    azimuth_compress, azimuth_reference, doppler_spectrum, range_compress_row, MigrationTable,
};
use crate::signal::{lfm_chirp, ChirpParams, MatchedFilter};

/// RDA configuration.
#[derive(Debug, Clone, Copy)]
pub struct RdaConfig {
    /// Transmitted chirp (the raw matrix carries `num_bins +
    /// chirp.samples` samples per pulse).
    pub chirp: ChirpParams,
    /// Apply range-cell migration correction (off = the ablation
    /// pipeline, for measuring what RCMC buys).
    pub rcmc: bool,
}

impl Default for RdaConfig {
    fn default() -> Self {
        RdaConfig {
            chirp: ChirpParams::default(),
            rcmc: true,
        }
    }
}

/// Result of an RDA run.
pub struct RdaRun {
    /// Focused image (rows = azimuth positions, cols = range bins) --
    /// the same shape FFBP produces, with broadside at the middle row.
    pub image: ComplexImage,
    /// Total arithmetic performed, by the canonical stage ledgers.
    pub counts: OpCounts,
}

/// Run RDA over `raw` uncompressed echoes (rows = pulses, cols =
/// `num_bins + chirp.samples` fast-time samples).
///
/// The azimuth FFT length is the pulse count, so `geom.num_pulses`
/// must be a power of two (both stock geometries are).
pub fn rda(raw: &ComplexImage, geom: &SarGeometry, cfg: &RdaConfig) -> RdaRun {
    let n = geom.num_pulses;
    assert!(
        n.is_power_of_two(),
        "RDA needs a power-of-two pulse count, got {n}"
    );
    assert_eq!(raw.rows(), n, "raw rows must equal pulse count");
    assert_eq!(
        raw.cols(),
        geom.num_bins + cfg.chirp.samples,
        "raw cols must be num_bins + chirp samples"
    );
    let waveform = lfm_chirp(cfg.chirp);
    let mf = MatchedFilter::new(&waveform, raw.cols());
    let mut counts = OpCounts::default();

    // 1. Range compression, per pulse.
    let mut rc = ComplexImage::zeros(n, geom.num_bins);
    for k in 0..n {
        let row = range_compress_row(&mf, raw.row(k), geom.num_bins, &mut counts);
        rc.row_mut(k).copy_from_slice(&row);
    }

    // 2. Corner turn + azimuth FFT: the range–Doppler matrix,
    // bin-major (rows = range bins, cols = Doppler bins).
    let mut rd = ComplexImage::zeros(geom.num_bins, n);
    let mut col = vec![c32::ZERO; n];
    for i in 0..geom.num_bins {
        for (k, c) in col.iter_mut().enumerate() {
            *c = rc.at(k, i);
        }
        let spectrum = doppler_spectrum(&col, &mut counts);
        rd.row_mut(i).copy_from_slice(&spectrum);
    }

    // 3 + 4. RCMC and azimuth compression, per range bin. The inverse
    // FFT returns circular lags; broadside (lag 0) is rotated to the
    // middle row so the image frame matches FFBP's.
    let migration = MigrationTable::new(geom, cfg.rcmc);
    let mut image = ComplexImage::zeros(n, geom.num_bins);
    for i in 0..geom.num_bins {
        let corrected = migration.correct(&rd, i, &mut counts);
        let href = azimuth_reference(geom, i, &mut counts);
        let line = azimuth_compress(&corrected, &href, &mut counts);
        for k in 0..n {
            *image.at_mut(k, i) = line[(k + n / 2) % n];
        }
    }
    RdaRun { image, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{simulate_raw_echoes, Scene};

    fn small_chirp() -> ChirpParams {
        ChirpParams {
            samples: 64,
            fractional_bandwidth: 0.9,
        }
    }

    fn run(scene: &Scene, rcmc: bool) -> RdaRun {
        let cfg = RdaConfig {
            chirp: small_chirp(),
            rcmc,
        };
        let raw = simulate_raw_echoes(scene, cfg.chirp);
        rda(&raw, &scene.geometry, &cfg)
    }

    #[test]
    fn output_has_the_image_frame_shape() {
        let scene = Scene::single_target(SarGeometry::test_size());
        let run = run(&scene, true);
        assert_eq!(run.image.rows(), scene.geometry.num_pulses);
        assert_eq!(run.image.cols(), scene.geometry.num_bins);
        assert!(run.counts.flop_work() > 0);
    }

    #[test]
    fn single_target_focuses_at_broadside_mid_swath() {
        let scene = Scene::single_target(SarGeometry::test_size());
        let g = scene.geometry;
        let run = run(&scene, true);
        let (peak, row, col) = run.image.peak();
        let expected_col = ((scene.targets[0].x - g.r0) / g.dr).round() as i64;
        assert!(
            (row as i64 - g.num_pulses as i64 / 2).abs() <= 2,
            "azimuth peak at row {row}, expected ~{}",
            g.num_pulses / 2
        );
        assert!(
            (col as i64 - expected_col).abs() <= 2,
            "range peak at col {col}, expected ~{expected_col}"
        );
        // Coherent azimuth gain: the peak must stand far above the mean.
        let mean: f32 = run.image.as_slice().iter().map(|z| z.abs()).sum::<f32>()
            / run.image.as_slice().len() as f32;
        assert!(peak > 8.0 * mean, "peak {peak} vs mean {mean}");
    }

    #[test]
    fn rcmc_recovers_migrated_energy_at_close_range() {
        // At r0 = 100 m the migration is ~3 bins deep over the
        // aperture; correcting it must raise the focused peak.
        let g = SarGeometry {
            r0: 100.0,
            ..SarGeometry::test_size()
        };
        let scene = Scene::single_target(g);
        let with = run(&scene, true).image.peak().0;
        let without = run(&scene, false).image.peak().0;
        assert!(
            with > 1.05 * without,
            "RCMC peak {with} should beat uncorrected {without}"
        );
    }

    #[test]
    fn ledger_is_data_independent() {
        let g = SarGeometry::test_size();
        let a = run(&Scene::single_target(g), true);
        let b = run(&Scene::six_targets(g), true);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_pulse_count_rejected() {
        let g = SarGeometry {
            num_pulses: 48,
            ..SarGeometry::test_size()
        };
        let raw = ComplexImage::zeros(48, g.num_bins + 64);
        rda(
            &raw,
            &g,
            &RdaConfig {
                chirp: small_chirp(),
                rcmc: true,
            },
        );
    }
}
