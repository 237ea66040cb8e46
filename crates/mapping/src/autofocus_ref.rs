//! Autofocus criterion on the reference CPU model (Table I row 4).
//!
//! The working set (two 6x6 blocks plus small intermediates) fits in
//! the L1 cache, so this configuration is purely compute-bound — the
//! paper notes its throughput is comparable to a single Epiphany core
//! because the i7's clock advantage is offset by executing almost twice
//! the instructions (no FMA) on a latency-bound dependence chain.

use desim::OpCounts;
use refcpu::{RefCpu, RefCpuParams};
use sar_core::autofocus::{focus_criterion, BLOCKS};
use sim_harness::{AutofocusWorkload, Bound, ProgramModel, SweepRun, WorkDecl};

use crate::clock_label;
use crate::pipeline::BLOCK_BYTES;

/// Sustained IPC for the Neville dependence chains of this kernel:
/// each interpolation level waits on the previous one, so the
/// out-of-order window cannot fill its issue slots (the FFBP geometry
/// kernel, by contrast, has two independent chains and sustains the
/// [`RefCpuParams::default`] IPC).
pub const AUTOFOCUS_SUSTAINED_IPC: f64 = 0.8;

/// `base` specialised to this kernel.
pub fn specialised(base: RefCpuParams) -> RefCpuParams {
    RefCpuParams {
        sustained_ipc: AUTOFOCUS_SUSTAINED_IPC,
        ..base
    }
}

/// Reference-model parameters specialised to this kernel.
pub fn params() -> RefCpuParams {
    specialised(RefCpuParams::default())
}

/// One hypothesis of the staged criterion at `shift`, with its op
/// ledger — what both sequential drivers charge per hypothesis. The
/// ledger is data-independent, so their models declare the same call.
pub(crate) fn hypothesis(w: &AutofocusWorkload, shift: f32) -> (f32, OpCounts) {
    let mut ops = OpCounts::default();
    let v = focus_criterion(&w.f_minus, &w.f_plus, shift, &w.config, &mut ops);
    (v, ops)
}

/// Execute the autofocus workload on the reference CPU model (one
/// record phase per hypothesis).
pub fn run(w: &AutofocusWorkload, params: RefCpuParams) -> SweepRun {
    let mut cpu = RefCpu::new(params);

    // The two blocks stream in once (cold reads), then live in L1.
    cpu.mem_read(0x1000, u64::from(BLOCK_BYTES));
    cpu.mem_read(0x2000, u64::from(BLOCK_BYTES));

    let mut sweep = Vec::with_capacity(w.hypotheses);
    for h in 0..w.hypotheses {
        cpu.phase_begin("hypothesis");
        let shift = w.shift(h);
        let (v, ops) = hypothesis(w, shift);
        cpu.compute(&ops);
        // Criterion result written out.
        cpu.mem_write(0x3000 + 8 * h as u64, 8);
        cpu.phase_end();
        sweep.push((shift, v));
    }

    let clock = clock_label(cpu.params().clock);
    SweepRun::new(
        cpu.report(&format!("Autofocus / Intel i7 model, 1 core @ {clock}")),
        sweep,
    )
}

/// The static description of [`run`].
pub fn model(w: &AutofocusWorkload) -> ProgramModel {
    let mut m = ProgramModel::new(1, 1);
    m.cores = vec![0];
    m.sustained_ipc = Some(AUTOFOCUS_SUSTAINED_IPC);
    let setup = m.phase("setup", 1);
    let mut wd = WorkDecl::new(0);
    // Two block reads, five 64 B lines each.
    wd.mem_accesses = Bound::exact(f64::from(BLOCKS as u32 * BLOCK_BYTES.div_ceil(64)));
    setup.work.push(wd);
    let ph = m.phase("hypothesis", w.hypotheses as u64);
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(hypothesis(w, 0.0).1);
    wd.compute_calls = Bound::exact(1.0);
    wd.mem_accesses = Bound::exact(1.0); // the 8 B criterion write-back
    ph.work.push(wd);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_the_injected_path_error() {
        let w = AutofocusWorkload::paper();
        let r = run(&w, params());
        assert!(
            (r.best.0 - w.true_shift).abs() <= 0.15,
            "found {} expected {}",
            r.best.0,
            w.true_shift
        );
    }

    #[test]
    fn compute_bound_not_memory_bound() {
        let w = AutofocusWorkload::paper();
        let r = run(&w, params());
        let stalls = r.record.metric("mem_stall_fraction").unwrap();
        assert!(
            stalls < 0.05,
            "autofocus must be compute bound, stalls {stalls}"
        );
    }

    #[test]
    fn throughput_in_table_one_ballpark() {
        // Table I: 21,600 criterion pixels/second on the i7. The model
        // should land within ~2x of that — it is an architecture model,
        // not a fit.
        let w = AutofocusWorkload::paper();
        let r = run(&w, params());
        let px_per_s = w.pixels() as f64 / r.record.elapsed.seconds();
        assert!(
            (8_000.0..80_000.0).contains(&px_per_s),
            "throughput {px_per_s:.0} px/s implausibly far from Table I"
        );
    }

    #[test]
    fn sweep_length_matches_hypotheses() {
        let w = AutofocusWorkload::small();
        let r = run(&w, params());
        assert_eq!(r.sweep.len(), w.hypotheses);
    }
}
