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

use desim::OpCounts;
use epiphany::{Chip, EpiphanyParams};
use sar_core::complex::c32;
use sar_core::rda::{
    azimuth_compress, azimuth_reference, doppler_spectrum, range_compress_row, MigrationTable,
};
use sar_core::signal::{lfm_chirp, MatchedFilter};
use sim_harness::{Bound, ImageRun, ProgramModel, RdaWorkload, RunContext, WorkDecl};

use crate::layout::RdaLayout;
use crate::rda_walk::{walk, Stage};

/// Op ledgers of one range row, one Doppler bin and one azimuth bin,
/// probed by running each stage's kernels once on blank rows (a whole
/// `sar_core::rda::Stages` would hold three image-sized matrices just
/// to price a model; the RCMC gather is priced by its ledger alone).
/// All three are data-independent (the `sar_core::rda` tests pin that),
/// so one probe per stage is exact for every unit of the run.
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

    let image = walk(w, &migration, |units| {
        // Phase 1: range compression, A -> B (pulse-major).
        chip.phase_begin("range");
        for k in 0..n {
            row_reads.clear();
            row_reads.extend((0..layout.echo_len).map(|s| layout.raw_addr(k, s)));
            chip.read_external_run(core, &row_reads, 8);
            chip.compute(core, &units.unit(Stage::Range, k as usize));
            chip.write_external(core, layout.rc_addr(k, 0), layout.rc_row_bytes());
        }
        chip.phase_end();

        // Phase 2: corner turn + azimuth FFT, B (strided) -> C (bin-major).
        chip.phase_begin("doppler");
        for i in 0..bins {
            row_reads.clear();
            row_reads.extend((0..n).map(|k| layout.rc_addr(k, i)));
            chip.read_external_run(core, &row_reads, 8);
            chip.compute(core, &units.unit(Stage::Doppler, i as usize));
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
            chip.compute(core, &units.unit(Stage::Azimuth, i as usize));
            chip.write_external(core, layout.rd_addr(i, 0), layout.col_bytes());
        }
        chip.phase_end();
    });

    ImageRun {
        record: chip.report("RDA / Epiphany, 1 core @ 1 GHz (sequential)", 1),
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
