//! The full RDA driver: range compression, corner turn + azimuth FFT,
//! RCMC, azimuth compression — stated once as [`Stages`]' work units,
//! which [`rda`] sums and the chip drivers time.

use std::convert::Infallible;

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

/// The RDA arithmetic one work unit at a time — the units [`rda`] and
/// both chip drivers (`sar_epiphany::{rda_seq, rda_spmd}`) walk: a unit
/// updates the functional matrices and returns its op ledger, for a
/// total ([`rda`]) or for a machine model to price. [`Stages::walk`]
/// states their order.
pub struct Stages<'a> {
    raw: &'a ComplexImage,
    geom: &'a SarGeometry,
    mf: MatchedFilter,
    /// The geometry's range-cell migration, which `azimuth_bin`
    /// corrects.
    migration: &'a MigrationTable,
    /// Range-compressed matrix, pulse-major.
    rc: ComplexImage,
    /// Range–Doppler matrix, bin-major (rows = range bins, cols =
    /// Doppler bins).
    rd: ComplexImage,
    /// The focused image.
    image: ComplexImage,
}

impl<'a> Stages<'a> {
    /// Set up the stages over `raw` uncompressed echoes (rows = pulses,
    /// cols = `num_bins + chirp.samples` fast-time samples), correcting
    /// with `migration`, the table of `geom` under `cfg.rcmc`.
    ///
    /// The azimuth FFT length is the pulse count, so `geom.num_pulses`
    /// must be a power of two (both stock geometries are).
    pub fn new(
        raw: &'a ComplexImage,
        geom: &'a SarGeometry,
        cfg: &RdaConfig,
        migration: &'a MigrationTable,
    ) -> Stages<'a> {
        let (n, bins) = (geom.num_pulses, geom.num_bins);
        assert!(
            n.is_power_of_two(),
            "RDA needs a power-of-two pulse count, got {n}"
        );
        assert_eq!(raw.rows(), n, "raw rows must equal pulse count");
        assert_eq!(
            raw.cols(),
            bins + cfg.chirp.samples,
            "raw cols must be num_bins + chirp samples"
        );
        Stages {
            raw,
            geom,
            mf: MatchedFilter::new(&lfm_chirp(cfg.chirp), raw.cols()),
            migration,
            rc: ComplexImage::zeros(n, bins),
            rd: ComplexImage::zeros(bins, n),
            image: ComplexImage::zeros(n, bins),
        }
    }

    /// Run every unit in formation order — each pulse's range
    /// compression, then each bin's corner turn and Doppler transform,
    /// then each bin's RCMC and azimuth compression — handing `each` the
    /// unit's ledger as it is made. Returns the focused image, or the
    /// first error `each` returns, at which the walk stops.
    pub fn walk<E>(
        mut self,
        mut each: impl FnMut(OpCounts) -> Result<(), E>,
    ) -> Result<ComplexImage, E> {
        for k in 0..self.geom.num_pulses {
            each(self.range_row(k))?;
        }
        for i in 0..self.geom.num_bins {
            each(self.doppler_bin(i))?;
        }
        for i in 0..self.geom.num_bins {
            each(self.azimuth_bin(i))?;
        }
        Ok(self.image)
    }

    /// Range-compress pulse `k`.
    fn range_row(&mut self, k: usize) -> OpCounts {
        let mut ops = OpCounts::default();
        let row = range_compress_row(&self.mf, self.raw.row(k), self.geom.num_bins, &mut ops);
        self.rc.row_mut(k).copy_from_slice(&row);
        ops
    }

    /// Corner turn + azimuth FFT of range bin `i`'s pulse history.
    fn doppler_bin(&mut self, i: usize) -> OpCounts {
        let mut ops = OpCounts::default();
        let col: Vec<c32> = (0..self.geom.num_pulses)
            .map(|k| self.rc.at(k, i))
            .collect();
        let spectrum = doppler_spectrum(&col, &mut ops);
        self.rd.row_mut(i).copy_from_slice(&spectrum);
        ops
    }

    /// RCMC + azimuth compression of range bin `i`. The inverse FFT
    /// returns circular lags; broadside (lag 0) is rotated to the
    /// middle row so the image frame matches FFBP's.
    fn azimuth_bin(&mut self, i: usize) -> OpCounts {
        let n = self.geom.num_pulses;
        let mut ops = OpCounts::default();
        let corrected = self.migration.correct(&self.rd, i, &mut ops);
        let href = azimuth_reference(self.geom, i, &mut ops);
        let line = azimuth_compress(&corrected, &href, &mut ops);
        for k in 0..n {
            *self.image.at_mut(k, i) = line[(k + n / 2) % n];
        }
        ops
    }
}

/// Run RDA over `raw` uncompressed echoes: every pulse range-compressed,
/// then every bin's pulse history transformed, then every bin
/// migration-corrected and azimuth-compressed (shape requirements:
/// [`Stages::new`]).
pub fn rda(raw: &ComplexImage, geom: &SarGeometry, cfg: &RdaConfig) -> RdaRun {
    let migration = MigrationTable::new(geom, cfg.rcmc);
    let mut counts = OpCounts::default();
    let Ok(image) = Stages::new(raw, geom, cfg, &migration).walk(|ops| {
        counts.add(&ops);
        Ok::<(), Infallible>(())
    });
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
