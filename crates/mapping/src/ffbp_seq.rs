//! FFBP on a single Epiphany core (Table I row 2).
//!
//! The naive port: image data lives in off-chip SDRAM, and every
//! contributing element is fetched with a *blocking* read over the
//! eLink (the Epiphany has no caches to hide the latency — the paper's
//! explanation for this configuration being ~3x slower than the i7
//! despite executing fewer instructions). Result rows are posted back
//! with non-stalling writes.

use desim::OpCounts;
use epiphany::{Chip, EpiphanyParams};
use sar_core::ffbp::grid::Subaperture;
use sar_core::ffbp::interp::nearest_indices;
use sar_core::ffbp::merge::combine_sample_with_lookup;
use sar_core::ffbp::pipeline::stage0;
use sim_harness::{FfbpWorkload, ImageRun, RunContext};

use crate::layout::ExternalLayout;

/// Execute the FFBP workload on one core of the Epiphany model (one
/// record phase per merge iteration); the chip emits its spans into
/// `ctx.tracer`.
pub fn run(w: &FfbpWorkload, params: EpiphanyParams, ctx: &RunContext) -> ImageRun {
    let geom = &w.geom;
    let layout = ExternalLayout::new(geom.num_pulses as u32, geom.num_bins as u32);
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    let core = 0usize;
    let mut counts = OpCounts::default();
    let mut charged = OpCounts::default();

    let mut stage: Vec<Subaperture> = stage0(&w.data, geom);
    let mut stage_idx = 0u32;
    // Each output row issues its blocking element fetches back to
    // back with nothing between them — buffered per row so the chip
    // can absorb the span in closed form (`read_external_run`).
    let mut row_reads = Vec::with_capacity(2 * geom.num_bins);

    while stage.len() > 1 {
        chip.phase_begin("merge");
        let child_beams = stage[0].grid.n_beams as u32;
        let out_grid = stage[0].grid.refined();
        let mut next = Vec::with_capacity(stage.len() / 2);
        for (pair_idx, pair) in stage.chunks(2).enumerate() {
            let (a, b) = (&pair[0], &pair[1]);
            let l = b.center_y - a.center_y;
            let mut out = Subaperture::zeros(
                (a.center_y + b.center_y) / 2.0,
                a.length + b.length,
                out_grid,
                geom.num_bins,
            );
            let beam_base_a = 2 * pair_idx as u32 * child_beams;
            let beam_base_b = beam_base_a + child_beams;
            let out_beam_base = pair_idx as u32 * out_grid.n_beams as u32;
            for j in 0..out_grid.n_beams {
                let theta = out_grid.beam_theta(j);
                row_reads.clear();
                for i in 0..geom.num_bins {
                    let r = geom.bin_range(i);
                    let (v, look) = combine_sample_with_lookup(
                        a,
                        b,
                        geom,
                        r,
                        theta,
                        l,
                        w.config.interp,
                        w.config.phase_correct,
                        &mut counts,
                    );
                    // Both contributing elements are blocking external
                    // reads (no cache, no prefetch in the naive port).
                    if let Some((bin, beam)) = nearest_indices(a, geom, look.r1, look.theta1) {
                        row_reads.push(layout.addr(
                            stage_idx,
                            beam_base_a + beam as u32,
                            bin as u32,
                        ));
                    }
                    if let Some((bin, beam)) = nearest_indices(b, geom, look.r2, look.theta2) {
                        row_reads.push(layout.addr(
                            stage_idx,
                            beam_base_b + beam as u32,
                            bin as u32,
                        ));
                    }
                    *out.data.at_mut(j, i) = v;
                }
                chip.read_external_run(core, &row_reads, 8);
                // Arithmetic for the row, then a posted row write-back.
                let delta = counts.since(&charged);
                charged = counts;
                chip.compute(core, &delta);
                let row_addr = layout.addr(stage_idx + 1, out_beam_base + j as u32, 0);
                chip.write_external(core, row_addr, layout.beam_bytes());
            }
            next.push(out);
        }
        chip.phase_end();
        stage = next;
        stage_idx += 1;
    }

    let full = stage.into_iter().next().expect("non-empty stage");
    ImageRun {
        record: chip.report("FFBP / Epiphany, 1 core @ 1 GHz (sequential)", 1),
        image: full.data,
    }
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
