//! FFBP on the reference CPU model (Table I row 1).
//!
//! The same functional merges as `sar_core::ffbp::ffbp`, but every
//! output row's operation counts are priced by the [`refcpu::RefCpu`]
//! pipeline model and every data access touches its cache hierarchy at
//! the address the real layout would use. Sequential output-row writes
//! and largely monotone child reads let the hardware prefetcher do its
//! work — the mechanism the paper credits for the i7's 2.8x advantage
//! over a single Epiphany core on this kernel.

use refcpu::{RefCpu, RefCpuParams};
use sim_harness::{Bound, FfbpWorkload, ImageRun, ProgramModel, RunContext, WorkDecl};

use crate::clock_label;
use crate::merge_walk::{probe_sample, walk_one, Machine};

/// Execute the FFBP workload on the reference CPU model (one record
/// phase per merge iteration).
pub fn run(w: &FfbpWorkload, params: RefCpuParams) -> ImageRun {
    walk_one(w, &RunContext::plain(), machine(params))
}

/// [`run`]'s machine, which a walk may price beside others.
pub(crate) fn machine(params: RefCpuParams) -> Machine<'static> {
    Box::new(move |_, stages| {
        let mut cpu = RefCpu::new(params);
        stages.each(|stage| {
            cpu.phase_begin("merge");
            stage.laid_out_rows(|row| {
                for (i, hits) in row.hits().enumerate() {
                    // Demand traffic at the addresses the layout implies.
                    for addr in row.child_addrs(hits) {
                        cpu.mem_read(u64::from(addr.0), 8);
                    }
                    cpu.mem_write(u64::from(row.out_addr(i).0), 8);
                }
                // Price this row's arithmetic.
                cpu.compute(&row.ops);
            });
            cpu.phase_end();
        });
        let clock = clock_label(cpu.params().clock);
        cpu.report(&format!("FFBP / Intel i7 model, 1 core @ {clock}"))
    })
}

/// The static description of [`run`]: no mesh, no banks — the model
/// exists purely for its workload declarations, so the cost model can
/// bracket the i7 rows of Table I too.
pub fn model(w: &FfbpWorkload) -> ProgramModel {
    let mut m = ProgramModel::new(1, 1);
    m.cores = vec![0];
    let pixels = w.pixels() as f64;
    let ph = m.phase("merge", u64::from(w.geom.merge_iterations()));
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(probe_sample(w).scaled(w.pixels()));
    wd.compute_calls = Bound::exact(w.geom.num_pulses as f64);
    // Per sample: one 8 B result write always, plus zero to two
    // in-swath demand reads — each touching one cache line.
    wd.mem_accesses = Bound::range(pixels, 3.0 * pixels);
    ph.work.push(wd);
    m
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
