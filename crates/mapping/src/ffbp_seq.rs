//! FFBP on a single Epiphany core (Table I row 2).
//!
//! The naive port: image data lives in off-chip SDRAM, and every
//! contributing element is fetched with a *blocking* read over the
//! eLink (the Epiphany has no caches to hide the latency — the paper's
//! explanation for this configuration being ~3x slower than the i7
//! despite executing fewer instructions). Result rows are posted back
//! with non-stalling writes.

use epiphany::{Chip, EpiphanyParams};
use sim_harness::{Bound, FfbpWorkload, ImageRun, ProgramModel, RunContext, WorkDecl};

use crate::clock_label;
use crate::layout::ExternalLayout;
use crate::merge_walk::{probe_sample, walk_one, Machine};

/// Execute the FFBP workload on one core of the Epiphany model (one
/// record phase per merge iteration); the chip emits its spans into
/// `ctx.tracer`.
pub fn run(w: &FfbpWorkload, params: EpiphanyParams, ctx: &RunContext) -> ImageRun {
    walk_one(w, ctx, machine(params))
}

/// [`run`]'s machine, which a walk may price beside others.
pub(crate) fn machine(params: EpiphanyParams) -> Machine<'static> {
    Box::new(move |ctx, stages| {
        let mut chip = Chip::from_params(params);
        chip.set_tracer(ctx.tracer.clone());
        let core = 0usize;
        // Each output row issues its blocking element fetches back to
        // back with nothing between them — buffered per row so the chip
        // can absorb the span in closed form (`read_external_run`).
        let mut row_reads = Vec::with_capacity(2 * stages.workload().geom.num_bins);

        stages.each(|stage| {
            chip.phase_begin("merge");
            stage.laid_out_rows(|row| {
                row_reads.clear();
                // Both contributing elements are blocking external reads
                // (no cache, no prefetch in the naive port).
                row_reads.extend(row.hits().flat_map(|hits| row.child_addrs(hits)));
                chip.read_external_run(core, &row_reads, 8);
                // Arithmetic for the row, then a posted row write-back.
                chip.compute(core, &row.ops);
                chip.write_external(core, row.out_addr(0), row.layout.beam_bytes());
            });
            chip.phase_end();
        });
        let clock = clock_label(chip.params().clock);
        chip.report(
            &format!("FFBP / Epiphany, 1 core @ {clock} (sequential)"),
            1,
        )
    })
}

/// The static description of [`run`] on a `mesh`-sized platform: core 0
/// streams every contributing element from external memory — no
/// prefetch buffers, no channels.
pub fn model(w: &FfbpWorkload, mesh: (u16, u16)) -> ProgramModel {
    let mut m = ProgramModel::new(mesh.0, mesh.1);
    m.cores = vec![0];
    let pixels = w.pixels() as f64;
    let rows = w.geom.num_pulses as f64;
    let ph = m.phase("merge", u64::from(w.geom.merge_iterations()));
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(probe_sample(w).scaled(w.pixels()));
    wd.compute_calls = Bound::exact(rows);
    // Each output sample fetches its in-swath contributors (of two
    // candidates) with blocking 8 B reads; edge samples can fall out
    // of one or both child swaths.
    wd.ext_read_msgs = Bound::range(0.0, 2.0 * pixels);
    wd.ext_read_bytes = Bound::range(0.0, 16.0 * pixels);
    wd.ext_write_msgs = Bound::exact(rows);
    wd.ext_write_bytes = Bound::exact(rows * ExternalLayout::of(w).beam_bytes() as f64);
    ph.work.push(wd);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp_ref;
    use refcpu::RefCpuParams;
    use sar_core::ffbp::ffbp;

    #[test]
    fn image_matches_the_plain_algorithm() {
        let w = FfbpWorkload::small();
        let machine = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let plain = ffbp(&w.data, &w.geom, &w.config);
        assert_eq!(machine.image.as_slice(), plain.image.as_slice());
    }

    #[test]
    fn slower_than_the_reference_cpu() {
        // The paper's headline shape for this row: 0.36x the i7 —
        // blocking uncached SDRAM reads dominate.
        let w = FfbpWorkload::small();
        let seq = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let reference = ffbp_ref::run(&w, RefCpuParams::default());
        let speedup = reference.record.elapsed.seconds() / seq.record.elapsed.seconds();
        assert!(
            speedup < 0.9,
            "sequential Epiphany should lose to the i7 model, got speedup {speedup:.2}"
        );
    }

    #[test]
    fn external_reads_dominate_the_counters() {
        let w = FfbpWorkload::small();
        let r = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let reads = r.record.counters.get("ext_read");
        // Two reads per output sample, minus out-of-swath skips.
        let samples = w.pixels() * u64::from(w.geom.merge_iterations());
        assert!(reads > samples, "reads {reads} vs samples {samples}");
        assert!(reads <= 2 * samples);
    }
}
