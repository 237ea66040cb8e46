//! The full RDA driver: range compression, corner turn + azimuth FFT,
//! RCMC, azimuth compression — stage by stage, each stage's units
//! spread over the host's threads.

use std::num::NonZero;
use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::thread;

use desim::OpCounts;

use crate::complex::c32;
use crate::geometry::SarGeometry;
use crate::image::ComplexImage;
use crate::rda::stages::{
    azimuth_compress_inplace, azimuth_reference_into, doppler_spectrum_inplace,
    range_compress_into, MigrationTable,
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
/// `num_bins + chirp.samples` fast-time samples): every pulse
/// range-compressed, then every bin's pulse history transformed, then
/// every bin migration-corrected and azimuth-compressed.
///
/// The azimuth FFT length is the pulse count, so `geom.num_pulses`
/// must be a power of two (both stock geometries are).
pub fn rda(raw: &ComplexImage, geom: &SarGeometry, cfg: &RdaConfig) -> RdaRun {
    rda_with(raw, geom, cfg, &MigrationTable::new(geom, cfg.rcmc))
}

/// [`rda`] correcting with `migration`, the table of `geom` under
/// `cfg.rcmc`, for a caller that reads the same table (a machine
/// driver's RCMC gathers).
pub fn rda_with(
    raw: &ComplexImage,
    geom: &SarGeometry,
    cfg: &RdaConfig,
    migration: &MigrationTable,
) -> RdaRun {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    let workers = *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, NonZero::get));
    form(raw, geom, cfg, migration, workers)
}

/// [`rda_with`] on `workers` threads. A unit — one pulse's range
/// compression, one bin's corner turn and Doppler transform, one bin's
/// RCMC and azimuth compression — reads only the previous stage's
/// matrix, so each stage's units split freely; every unit runs the
/// same kernels whatever its thread, so the image and the ledger do not
/// depend on `workers`.
///
/// Two image-sized matrices are allocated and both stay live to the
/// end: each stage writes every element of one while it reads the
/// other. The range-compressed matrix is reused for the focused lines,
/// the range–Doppler one for the image. Both turns are blocked: a tile
/// of [`TILE`] rows of the matrix written gathers [`TILE`] contiguous
/// samples from each row of the one read.
fn form(
    raw: &ComplexImage,
    geom: &SarGeometry,
    cfg: &RdaConfig,
    migration: &MigrationTable,
    workers: usize,
) -> RdaRun {
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
    let mf = MatchedFilter::new(&lfm_chirp(cfg.chirp), raw.cols());
    // Range-compressed matrix, pulse-major, each row compressed through
    // its worker's FFT-length scratch.
    let mut rc = ComplexImage::zeros(n, bins);
    let mut counts = each_tile(
        &mut rc,
        workers,
        mf.fft_len(),
        |first, tile, scratch, ops| {
            for (r, row) in tile.chunks_mut(bins).enumerate() {
                range_compress_into(&mf, raw.row(first + r), row, scratch, ops);
            }
        },
    );
    // Range–Doppler matrix, bin-major (rows = range bins, cols =
    // Doppler bins): the corner turn, then each pulse history's FFT in
    // its row.
    let mut rd = ComplexImage::zeros(bins, n);
    counts.add(&each_tile(&mut rd, workers, 0, |first, tile, _, ops| {
        for k in 0..n {
            let samples = &rc.row(k)[first..];
            for (history, z) in tile.chunks_mut(n).zip(samples) {
                history[k] = *z;
            }
        }
        for history in tile.chunks_mut(n) {
            doppler_spectrum_inplace(history, ops);
        }
    }));
    // Focused azimuth lines, bin-major, in circular-lag order.
    let mut lines = rc.reshaped(bins, n);
    counts.add(&each_tile(
        &mut lines,
        workers,
        n,
        |first, tile, href, ops| {
            for (r, line) in tile.chunks_mut(n).enumerate() {
                migration.correct_into(&rd, first + r, line, ops);
                azimuth_reference_into(geom, first + r, href, ops);
                azimuth_compress_inplace(line, href, ops);
            }
        },
    ));
    // Turned into the image frame, broadside (lag 0) rotated to the
    // middle row so the frame matches FFBP's (`n` is a power of two:
    // `& (n - 1)` is `% n`).
    let mut image = rd.reshaped(n, bins);
    each_tile(&mut image, workers, 0, |first, tile, _, _| {
        for i in 0..bins {
            let line = lines.row(i);
            for (r, row) in tile.chunks_mut(bins).enumerate() {
                row[i] = line[(first + r + n / 2) & (n - 1)];
            }
        }
    });
    RdaRun { image, counts }
}

/// Rows per tile of [`each_tile`], the edge of the turns' blocks: 16
/// complex samples are two 64-byte cache lines of a row read.
const TILE: usize = 16;

/// Fill `out` with `unit(first, tile, scratch, ledger)`, `tile` up to
/// [`TILE`] whole rows from row `first` on. The rows split into
/// contiguous chunks over `workers` scoped threads (the calling thread
/// takes the first); each chunk is tiled from its own first row, its
/// units share one `scratch`-long buffer, and the chunks' ledgers are
/// summed. A panic in any unit is a panic of the call.
fn each_tile(
    out: &mut ComplexImage,
    workers: usize,
    scratch: usize,
    unit: impl Fn(usize, &mut [c32], &mut [c32], &mut OpCounts) + Sync,
) -> OpCounts {
    let (width, per) = (out.cols(), out.rows().div_ceil(workers));
    let unit = &unit;
    let mut chunks = out.as_mut_slice().chunks_mut(per * width).enumerate();
    let job = move |(c, chunk): (usize, &mut [c32])| {
        let mut ops = OpCounts::default();
        let mut buffer = vec![c32::ZERO; scratch];
        for (t, tile) in chunk.chunks_mut(TILE * width).enumerate() {
            unit(c * per + t * TILE, tile, &mut buffer, &mut ops);
        }
        ops
    };
    let first = chunks.next().expect("an image has rows");
    thread::scope(|scope| {
        let rest: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || job(chunk)))
            .collect();
        let mut counts = job(first);
        for worker in rest {
            counts.add(&worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        counts
    })
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
    fn any_worker_count_forms_the_same_bits_and_ledger() {
        // Fewer range bins than a tile's edge: every turn is one ragged
        // tile per worker.
        let narrow = SarGeometry {
            num_bins: TILE - 6,
            ..SarGeometry::test_size()
        };
        for (geometry, rcmc) in [
            (SarGeometry::test_size(), true),
            (SarGeometry::test_size(), false),
            (narrow, true),
        ] {
            let scene = Scene::six_targets(geometry);
            let cfg = RdaConfig {
                chirp: small_chirp(),
                rcmc,
            };
            let raw = simulate_raw_echoes(&scene, cfg.chirp);
            let migration = MigrationTable::new(&scene.geometry, rcmc);
            let reference = rda(&raw, &scene.geometry, &cfg);
            // 129 bins and 64 pulses: 5 and 12 workers give chunks of
            // 26 and 11 bins, 13 and 6 pulses, none a multiple of a tile.
            for workers in [1, 2, 3, 5, 7, 12] {
                let run = form(&raw, &scene.geometry, &cfg, &migration, workers);
                let bits = |image: &ComplexImage| -> Vec<(u32, u32)> {
                    let pixels = image.as_slice().iter();
                    pixels.map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                };
                let case = format!("{} bins, RCMC {rcmc}, {workers} workers", geometry.num_bins);
                assert!(
                    bits(&run.image) == bits(&reference.image),
                    "{case}: the image moved"
                );
                assert_eq!(run.counts, reference.counts, "{case}");
            }
        }
    }

    #[test]
    fn a_panic_on_any_worker_is_a_panic_of_the_call() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // 20 rows: on 7 workers, chunks of 3 with a ragged last one; on
        // 1, a tile of 16 and a ragged one of 4.
        for workers in [1, 2, 3, 7] {
            for bad in [0, 4, 10, 19] {
                let mut out = ComplexImage::zeros(20, 4);
                let call = catch_unwind(AssertUnwindSafe(|| {
                    each_tile(&mut out, workers, 0, |first, tile, _, _| {
                        for r in first..first + tile.len() / 4 {
                            assert!(r != bad, "unit {r}");
                        }
                    });
                }));
                let panic = call.expect_err("the call panics");
                let message = panic.downcast_ref::<String>().map(String::as_str);
                assert_eq!(message, Some(format!("unit {bad}").as_str()), "{workers}");
            }
        }
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
