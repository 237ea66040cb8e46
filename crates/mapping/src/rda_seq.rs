//! RDA on a single Epiphany core.
//!
//! The naive port, in the spirit of the sequential FFBP row: every
//! input sample is fetched from off-chip SDRAM with *blocking* reads
//! over the eLink, results are posted back with non-stalling writes.
//! Three phases over the [`RdaLayout`] regions:
//!
//! 1. `range`   — raw rows (region A) in, compressed rows out to B,
//! 2. `doppler` — *strided* column gathers from B (the corner turn a
//!    single core pays as pointwise traffic), Doppler rows out to C,
//! 3. `azimuth` — Doppler rows from C plus the RCMC-shifted gathers,
//!    focused bin-major rows out to B.

use std::panic::resume_unwind;
use std::thread;

use desim::OpCounts;
use epiphany::{Chip, EpiphanyParams};
use sar_core::complex::c32;
use sar_core::image::ComplexImage;
use sar_core::rda::{
    azimuth_compress, azimuth_reference, doppler_spectrum, range_compress_row, rda_with,
    MigrationTable,
};
use sar_core::signal::{lfm_chirp, MatchedFilter};
use sim_harness::{Bound, ImageRun, ProgramModel, RdaWorkload, RunContext, WorkDecl};

use crate::clock_label;
use crate::layout::RdaLayout;

/// Op ledgers of one range row, one Doppler bin and one azimuth bin,
/// probed by running each stage's kernels once on blank rows (the RCMC
/// gather is priced by its ledger alone). Every unit's ledger is data-
/// and index-independent (`every_unit_of_a_plain_walk_has_its_stages_probed_ledger`
/// pins that), so one probe per stage is exact for every unit: both
/// drivers price a run with these three ([`priced`]) and both `model`s
/// declare them.
pub(crate) fn probe(w: &RdaWorkload, migration: &MigrationTable) -> [OpCounts; 3] {
    let (geom, n) = (&w.geom, w.geom.num_pulses);
    let mf = MatchedFilter::new(&lfm_chirp(w.config.chirp), w.raw.cols());
    let mut ops = [OpCounts::default(); 3];
    range_compress_row(&mf, w.raw.row(0), geom.num_bins, &mut ops[0]);
    let blank = vec![c32::ZERO; n];
    doppler_spectrum(&blank, &mut ops[1]);
    migration.correct_ops(&mut ops[2]);
    let href = azimuth_reference(geom, 0, &mut ops[2]);
    azimuth_compress(&blank, &href, &mut ops[2]);
    ops
}

/// An RDA machine run: `price` times it on this thread — the one that
/// owns the chip — with the stages' [`probe`] ledgers `[range, doppler,
/// azimuth]`, while one scoped helper forms the image with `rda_with`
/// over `migration` (the run's one table, which the driver also reads
/// for its RCMC gathers). Returns the image. A panic in `price`
/// propagates once the helper is done; a panic forming the image, on
/// any of `rda`'s threads, surfaces as a panic of the run.
pub(crate) fn priced(
    w: &RdaWorkload,
    migration: &MigrationTable,
    price: impl FnOnce([OpCounts; 3]),
) -> ComplexImage {
    let ledgers = probe(w, migration);
    thread::scope(|scope| {
        let helper = scope.spawn(|| rda_with(&w.raw, &w.geom, &w.config, migration).image);
        price(ledgers);
        helper.join().unwrap_or_else(|panic| resume_unwind(panic))
    })
}

/// The RCMC gathers of range bin `i`: the `(bin, doppler)` cells its
/// migration correction fetches from deeper in-swath rows, in issue
/// order. Empty with RCMC off.
pub(crate) fn rcmc_gathers(
    migration: &MigrationTable,
    i: usize,
) -> impl Iterator<Item = (u32, u32)> + '_ {
    migration
        .sources(i)
        .enumerate()
        .filter_map(move |(m, src)| {
            src.filter(|&bin| bin != i)
                .map(|bin| (bin as u32, m as u32))
        })
}

/// Execute the RDA workload on one core of the Epiphany model (one
/// record phase per pipeline stage); the chip emits its spans into
/// `ctx.tracer`.
pub fn run(w: &RdaWorkload, params: EpiphanyParams, ctx: &RunContext) -> ImageRun {
    let (n, bins) = (w.geom.num_pulses as u32, w.geom.num_bins as u32);
    let layout = RdaLayout::of(w);
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    let core = 0usize;
    let migration = MigrationTable::new(&w.geom, w.config.rcmc);
    // Blocking fetches issue back to back with nothing between them —
    // buffered per row so the chip absorbs each span in closed form.
    let mut row_reads = Vec::with_capacity(2 * w.geom.num_pulses.max(w.raw.cols()));

    let image = priced(w, &migration, |[range_row, doppler_bin, azimuth_bin]| {
        // Phase 1: range compression, A -> B (pulse-major).
        chip.phase_begin("range");
        for k in 0..n {
            row_reads.clear();
            row_reads.extend((0..layout.echo_len).map(|s| layout.raw_addr(k, s)));
            chip.read_external_run(core, &row_reads, 8);
            chip.compute(core, &range_row);
            chip.write_external(core, layout.rc_addr(k, 0), layout.rc_row_bytes());
        }
        chip.phase_end();

        // Phase 2: corner turn + azimuth FFT, B (strided) -> C (bin-major).
        chip.phase_begin("doppler");
        for i in 0..bins {
            row_reads.clear();
            row_reads.extend((0..n).map(|k| layout.rc_addr(k, i)));
            chip.read_external_run(core, &row_reads, 8);
            chip.compute(core, &doppler_bin);
            chip.write_external(core, layout.ct_addr(i, 0), layout.col_bytes());
        }
        chip.phase_end();

        // Phase 3: RCMC + azimuth compression, C -> B (bin-major).
        chip.phase_begin("azimuth");
        for i in 0..bins {
            row_reads.clear();
            row_reads.extend((0..n).map(|m| layout.ct_addr(i, m)));
            // The migration gathers land on deeper bins' rows.
            row_reads.extend(
                rcmc_gathers(&migration, i as usize).map(|(bin, m)| layout.ct_addr(bin, m)),
            );
            chip.read_external_run(core, &row_reads, 8);
            chip.compute(core, &azimuth_bin);
            chip.write_external(core, layout.rd_addr(i, 0), layout.col_bytes());
        }
        chip.phase_end();
    });

    let clock = clock_label(chip.params().clock);
    ImageRun {
        record: chip.report(&format!("RDA / Epiphany, 1 core @ {clock} (sequential)"), 1),
        image,
    }
}

/// The static description of [`run`] on a `mesh`-sized platform: three
/// phases over the [`RdaLayout`] regions, every input sample a blocking
/// 8 B external read, every result row a posted external write — no
/// DMA, flags or barriers.
pub fn model(w: &RdaWorkload, mesh: (u16, u16)) -> ProgramModel {
    let mut m = ProgramModel::new(mesh.0, mesh.1);
    m.cores = vec![0];
    let layout = RdaLayout::of(w);
    let migration = MigrationTable::new(&w.geom, w.config.rcmc);
    let [per_range_row, per_doppler_bin, per_azimuth_bin] = probe(w, &migration);
    let (pulses, bins) = (u64::from(layout.pulses), u64::from(layout.bins));
    let echo = u64::from(layout.echo_len);
    let gathers = migration.gathers_per_bin().iter().sum::<usize>() as u64;

    // One phase: `units` units of `per_unit` arithmetic, the 8 B reads
    // they issue and one posted `row_bytes` result row each.
    let mut phase = |name, per_unit: OpCounts, units: u64, reads: u64, row_bytes: u64| {
        let mut wd = WorkDecl::new(0);
        wd.exact_ops(per_unit.scaled(units));
        wd.compute_calls = Bound::exact(units as f64);
        wd.ext_read_msgs = Bound::exact(reads as f64);
        wd.ext_read_bytes = Bound::exact((8 * reads) as f64);
        wd.ext_write_msgs = Bound::exact(units as f64);
        wd.ext_write_bytes = Bound::exact((units * row_bytes) as f64);
        m.phase(name, 1).work.push(wd);
    };
    let (row, col) = (layout.rc_row_bytes(), layout.col_bytes());
    phase("range", per_range_row, pulses, pulses * echo, row);
    // The corner turn a single core pays as strided pointwise reads.
    phase("doppler", per_doppler_bin, bins, bins * pulses, col);
    phase(
        "azimuth",
        per_azimuth_bin,
        bins,
        bins * pulses + gathers,
        col,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_core::rda::rda;

    #[test]
    fn image_matches_the_plain_algorithm() {
        let w = RdaWorkload::small();
        let machine = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let plain = rda(&w.raw, &w.geom, &w.config);
        assert_eq!(machine.image.as_slice(), plain.image.as_slice());
    }

    #[test]
    fn every_input_sample_is_a_blocking_read() {
        let w = RdaWorkload::small();
        let r = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let reads = r.record.counters.get("ext_read");
        let raw_samples = (w.raw.rows() * w.raw.cols()) as u64;
        let matrix = (w.geom.num_pulses * w.geom.num_bins) as u64;
        // Raw matrix + strided corner turn + Doppler rows, plus the
        // (bounded) RCMC gathers.
        assert!(reads >= raw_samples + 2 * matrix);
        assert!(reads <= raw_samples + 3 * matrix);
        assert_eq!(r.record.phases.len(), 3);
        assert_eq!(r.record.phases[1].name, "doppler");
    }

    /// Every unit of a plain sequential walk — `rda()`'s kernels called
    /// pulse by pulse, then bin by bin, on this thread — charges its
    /// stage's `probe` ledger, the units sum to `rda().counts`, and the
    /// walk forms `rda()`'s image. That is what lets a machine price one
    /// probed ledger per stage. Small scale with RCMC on and off, and
    /// paper scale.
    #[test]
    fn every_unit_of_a_plain_walk_has_its_stages_probed_ledger() {
        use sar_core::image::ComplexImage;
        use sar_core::rda::{rda, RdaConfig};
        use sar_core::signal::{lfm_chirp, MatchedFilter};
        let cases = [
            (RdaWorkload::small(), true),
            (RdaWorkload::small(), false),
            (RdaWorkload::paper(), true),
        ];
        for (w, rcmc) in cases {
            let w = RdaWorkload {
                config: RdaConfig { rcmc, ..w.config },
                ..w
            };
            let (geom, n, bins) = (&w.geom, w.geom.num_pulses, w.geom.num_bins);
            let migration = MigrationTable::new(geom, rcmc);
            let probed = probe(&w, &migration);
            let case = format!("{} pulses, RCMC {rcmc}", n);
            let mut total = OpCounts::default();
            let mut priced = |stage: usize, unit: usize, ops: OpCounts| {
                assert_eq!(ops, probed[stage], "{case}: stage {stage}, unit {unit}");
                total.add(&ops);
            };
            let mf = MatchedFilter::new(&lfm_chirp(w.config.chirp), w.raw.cols());
            let mut rc = ComplexImage::zeros(n, bins);
            for k in 0..n {
                let mut ops = OpCounts::default();
                let row = range_compress_row(&mf, w.raw.row(k), bins, &mut ops);
                rc.row_mut(k).copy_from_slice(&row);
                priced(0, k, ops);
            }
            let mut rd = ComplexImage::zeros(bins, n);
            for i in 0..bins {
                let mut ops = OpCounts::default();
                let column: Vec<c32> = (0..n).map(|k| rc.at(k, i)).collect();
                let spectrum = doppler_spectrum(&column, &mut ops);
                rd.row_mut(i).copy_from_slice(&spectrum);
                priced(1, i, ops);
            }
            let mut image = ComplexImage::zeros(n, bins);
            for i in 0..bins {
                let mut ops = OpCounts::default();
                let corrected = migration.correct(&rd, i, &mut ops);
                let href = azimuth_reference(geom, i, &mut ops);
                let line = azimuth_compress(&corrected, &href, &mut ops);
                for k in 0..n {
                    *image.at_mut(k, i) = line[(k + n / 2) % n];
                }
                priced(2, i, ops);
            }
            let plain = rda(&w.raw, geom, &w.config);
            assert_eq!(total, plain.counts, "{case}: the units sum to rda()'s");
            assert!(
                image.as_slice() == plain.image.as_slice(),
                "{case}: the walk forms rda()'s image"
            );
        }
    }

    /// Run `go` on a thread of its own, so a hang fails the test; its
    /// panic message, if it panicked.
    fn message_of(go: impl FnOnce() + Send + 'static) -> Option<String> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let run = catch_unwind(AssertUnwindSafe(go));
            let message = run.err().map(|p| {
                p.downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            tx.send(message).expect("the test waits");
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run returns instead of hanging")
    }

    #[test]
    fn a_panic_while_pricing_propagates_once_the_image_is_formed() {
        let message = message_of(|| {
            let w = RdaWorkload::small();
            let migration = MigrationTable::new(&w.geom, w.config.rcmc);
            priced(&w, &migration, |[range, ..]| {
                assert!(range.flop_work() == 0, "priced a range row");
            });
        });
        assert_eq!(message.as_deref(), Some("priced a range row"));
    }

    #[test]
    fn a_panic_forming_the_image_surfaces_as_a_panic_of_the_run() {
        use sar_core::geometry::SarGeometry;
        let w = RdaWorkload::small();
        // A table of twice the pulses: every azimuth unit gathers past
        // the range–Doppler matrix's Doppler bins, on every one of
        // `rda`'s threads.
        let pulses = SarGeometry {
            num_pulses: 2 * w.geom.num_pulses,
            ..w.geom
        };
        // A table of twice the swath at r0 = 100 m: only the far bins
        // migrate past the real swath, so only the last thread's units
        // gather off the range–Doppler matrix.
        let swath = SarGeometry {
            num_bins: 2 * w.geom.num_bins,
            r0: 100.0,
            ..w.geom
        };
        for wrong in [pulses, swath] {
            let message = message_of(move || {
                let w = RdaWorkload::small();
                let migration = MigrationTable::new(&wrong, w.config.rcmc);
                priced(&w, &migration, |_| {});
            });
            // The kernel's own message (an index check, which release
            // builds make by slice bounds), not the scope's generic one.
            let message = message.expect("the run panics");
            let own = ["assertion", "index out of bounds"];
            assert!(own.iter().any(|s| message.starts_with(s)), "{message}");
        }
    }

    #[test]
    fn rda_seq_model_declares_every_input_sample_as_a_blocking_read() {
        let w = RdaWorkload::small();
        let m = model(&w, (4, 4));
        assert_eq!(m.cores, vec![0]);
        assert!(m.buffers.is_empty() && m.flags.is_empty() && m.barriers.is_empty());
        assert_eq!(m.workload.len(), 3);
        let names: Vec<&str> = m.workload.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["range", "doppler", "azimuth"]);
        // The range phase reads the whole raw matrix, once.
        let range = &m.workload[0].work[0];
        let raw_samples = (w.raw.rows() * w.raw.cols()) as f64;
        assert_eq!(range.ext_read_msgs, Bound::exact(raw_samples));
        assert_eq!(range.ext_read_bytes, Bound::exact(8.0 * raw_samples));
        // The azimuth phase reads at least the full bin-major matrix
        // (plus the exact RCMC gathers).
        let matrix = (w.geom.num_pulses * w.geom.num_bins) as f64;
        let az = &m.workload[2].work[0];
        assert!(az.ext_read_msgs.lo >= matrix);
        assert_eq!(az.ext_read_msgs.lo, az.ext_read_msgs.hi);
        // The surplus is exactly the RCMC gathers, and exactly what the
        // driver issues in its azimuth phase.
        let migration = MigrationTable::new(&w.geom, w.config.rcmc);
        let gathers: usize = (0..w.geom.num_bins)
            .map(|i| rcmc_gathers(&migration, i).count())
            .sum();
        assert!(gathers > 0, "the small scene migrates");
        assert_eq!(az.ext_read_msgs.lo, matrix + gathers as f64);
        let run = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let issued = run.record.phases[2].metrics["ext_read"];
        assert_eq!(issued, az.ext_read_msgs.lo);
    }
}
