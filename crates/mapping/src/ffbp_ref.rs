//! FFBP on the reference CPU model (Table I row 1).
//!
//! The same functional merges as `sar_core::ffbp::ffbp`, but every
//! output row's operation counts are priced by the [`refcpu::RefCpu`]
//! pipeline model and every data access touches its cache hierarchy at
//! the address the real layout would use. Sequential output-row writes
//! and largely monotone child reads let the hardware prefetcher do its
//! work — the mechanism the paper credits for the i7's 2.8x advantage
//! over a single Epiphany core on this kernel.

use desim::OpCounts;
use refcpu::{RefCpu, RefCpuParams};
use sar_core::ffbp::grid::Subaperture;
use sar_core::ffbp::interp::nearest_indices;
use sar_core::ffbp::merge::combine_sample_with_lookup;
use sar_core::ffbp::pipeline::stage0;
use sim_harness::{FfbpWorkload, ImageRun};

use crate::layout::ExternalLayout;

/// Execute the FFBP workload on the reference CPU model (one record
/// phase per merge iteration).
pub fn run(w: &FfbpWorkload, params: RefCpuParams) -> ImageRun {
    let geom = &w.geom;
    let layout = ExternalLayout::new(geom.num_pulses as u32, geom.num_bins as u32);
    let mut cpu = RefCpu::new(params);
    let mut counts = OpCounts::default();
    let mut charged = OpCounts::default();

    let mut stage: Vec<Subaperture> = stage0(&w.data, geom);
    let mut stage_idx = 0u32;

    while stage.len() > 1 {
        cpu.phase_begin("merge");
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
                    // Demand traffic at the addresses the layout implies.
                    if let Some((bin, beam)) = nearest_indices(a, geom, look.r1, look.theta1) {
                        let addr = layout.addr(stage_idx, beam_base_a + beam as u32, bin as u32);
                        cpu.mem_read(addr.0 as u64, 8);
                    }
                    if let Some((bin, beam)) = nearest_indices(b, geom, look.r2, look.theta2) {
                        let addr = layout.addr(stage_idx, beam_base_b + beam as u32, bin as u32);
                        cpu.mem_read(addr.0 as u64, 8);
                    }
                    let out_addr = layout.addr(stage_idx + 1, out_beam_base + j as u32, i as u32);
                    cpu.mem_write(out_addr.0 as u64, 8);
                    *out.data.at_mut(j, i) = v;
                }
                // Price this row's arithmetic.
                let delta = counts.since(&charged);
                charged = counts;
                cpu.compute(&delta);
            }
            next.push(out);
        }
        cpu.phase_end();
        stage = next;
        stage_idx += 1;
    }

    let full = stage.into_iter().next().expect("non-empty stage");
    ImageRun {
        record: cpu.report("FFBP / Intel i7 model, 1 core @ 2.67 GHz"),
        image: full.data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_core::ffbp::ffbp;

    #[test]
    fn produces_the_same_image_as_the_plain_algorithm() {
        let w = FfbpWorkload::small();
        let machine = run(&w, RefCpuParams::default());
        let plain = ffbp(&w.data, &w.geom, &w.config);
        assert_eq!(machine.image.as_slice(), plain.image.as_slice());
    }

    #[test]
    fn time_scales_with_workload() {
        let w = FfbpWorkload::small();
        let r = run(&w, RefCpuParams::default());
        // 64 x 129 x 6 merges ~ 50 K samples; must take > 1 us and less
        // than a second on a 2.67 GHz model.
        assert!(r.record.millis() > 0.001);
        assert!(r.record.millis() < 1000.0);
    }

    #[test]
    fn mostly_compute_bound_thanks_to_prefetch() {
        let w = FfbpWorkload::small();
        let r = run(&w, RefCpuParams::default());
        assert!(
            r.record.metric("mem_stall_fraction").unwrap() < 0.5,
            "prefetched streaming should not stall > 50%: {}",
            r.record.metric("mem_stall_fraction").unwrap()
        );
    }

    #[test]
    fn disabling_prefetch_slows_the_run() {
        let w = FfbpWorkload::small();
        let with = run(&w, RefCpuParams::default());
        let without = run(&w, RefCpuParams::without_prefetch());
        assert!(
            without.record.millis() > with.record.millis(),
            "no-prefetch {} ms should exceed prefetch {} ms",
            without.record.millis(),
            with.record.millis()
        );
    }
}
