//! Autofocus criterion on a single Epiphany core (Table I row 5).
//!
//! The whole working set fits the core's local store, so — unlike FFBP
//! — memory latency never shows: the kernel runs at FPU speed, and the
//! FMA-friendly Neville chains execute in roughly half the instructions
//! the reference CPU needs. The paper measures 0.8x the i7 throughput
//! at 1/2.67 the clock.

use epiphany::dma::DmaDirection;
use epiphany::{Chip, EpiphanyParams};
use memsim::GlobalAddr;
use sar_core::autofocus::BLOCKS;
use sim_harness::{AutofocusWorkload, Bound, ProgramModel, RunContext, SweepRun, WorkDecl};

use crate::autofocus_ref::hypothesis;
use crate::clock_label;
use crate::layout::BANK_CHILD_A;
use crate::pipeline::{criterion_addr, BLOCK_BYTES};

/// Dual-issue pairing efficiency for this kernel: the hand-scheduled
/// interpolation loop pairs FPU ops with its loads/stores well.
pub const AUTOFOCUS_PAIRING: f64 = 0.9;

/// `base` specialised to this kernel (every autofocus mapping on the
/// chip runs the same interpolation loops).
pub fn specialised(base: EpiphanyParams) -> EpiphanyParams {
    EpiphanyParams {
        pairing_efficiency: AUTOFOCUS_PAIRING,
        ..base
    }
}

/// Bytes of the block pair the one core stages.
const PAIR_BYTES: u32 = BLOCKS as u32 * BLOCK_BYTES;

/// Epiphany parameters specialised to this kernel.
pub fn params() -> EpiphanyParams {
    specialised(EpiphanyParams::default())
}

/// Execute the autofocus workload on one core of the Epiphany model
/// (one record phase per hypothesis); the chip emits its spans into
/// `ctx.tracer`.
pub fn run(w: &AutofocusWorkload, params: EpiphanyParams, ctx: &RunContext) -> SweepRun {
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    let core = 0usize;

    // DMA the two blocks from SDRAM into a local bank once.
    let d1 = chip.dma_start(
        core,
        DmaDirection::ExternalToLocal,
        GlobalAddr::external(0),
        BANK_CHILD_A,
        u64::from(PAIR_BYTES),
    );
    chip.dma_wait(core, d1);

    let mut sweep = Vec::with_capacity(w.hypotheses);
    for h in 0..w.hypotheses {
        chip.phase_begin("hypothesis");
        let shift = w.shift(h);
        let (v, ops) = hypothesis(w, shift);
        chip.compute(core, &ops);
        chip.write_external(core, criterion_addr(h), 8);
        chip.phase_end();
        sweep.push((shift, v));
    }

    let clock = clock_label(chip.params().clock);
    SweepRun::new(
        chip.report(
            &format!("Autofocus / Epiphany, 1 core @ {clock} (sequential)"),
            1,
        ),
        sweep,
    )
}

/// The static description of [`run`] on a `mesh`-sized platform: one
/// DMA'd block pair in an upper bank, everything else register/stack
/// traffic.
pub fn model(w: &AutofocusWorkload, mesh: (u16, u16)) -> ProgramModel {
    let mut m = ProgramModel::new(mesh.0, mesh.1);
    m.cores = vec![0];
    m.buffer("block_pair", 0, BANK_CHILD_A, 0, PAIR_BYTES);
    m.pairing_efficiency = Some(AUTOFOCUS_PAIRING);

    let setup = m.phase("setup", 1);
    let mut wd = WorkDecl::new(0);
    wd.dma_msgs = Bound::exact(1.0);
    wd.dma_bytes = Bound::exact(f64::from(PAIR_BYTES));
    setup.work.push(wd);

    let ph = m.phase("hypothesis", w.hypotheses as u64);
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(hypothesis(w, 0.0).1);
    wd.compute_calls = Bound::exact(1.0);
    wd.ext_write_msgs = Bound::exact(1.0);
    wd.ext_write_bytes = Bound::exact(8.0);
    ph.work.push(wd);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofocus_ref;

    #[test]
    fn same_criterion_values_as_the_reference_machine() {
        let w = AutofocusWorkload::small();
        let a = run(&w, params(), &RunContext::plain());
        let b = autofocus_ref::run(&w, autofocus_ref::params());
        assert_eq!(a.sweep, b.sweep, "machines must compute identical numerics");
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn throughput_is_near_the_reference_cpu() {
        // Table I: Epiphany sequential reaches 0.8x the i7 throughput.
        // Accept a generous band around that shape.
        let w = AutofocusWorkload::paper();
        let seq = run(&w, params(), &RunContext::plain());
        let reference = autofocus_ref::run(&w, autofocus_ref::params());
        let ratio = reference.record.elapsed.seconds() / seq.record.elapsed.seconds();
        assert!(
            (0.4..1.2).contains(&ratio),
            "Epiphany-seq/i7 throughput ratio {ratio:.2} far from the paper's 0.8"
        );
    }

    #[test]
    fn no_external_reads_after_the_initial_dma() {
        let w = AutofocusWorkload::paper();
        let r = run(&w, params(), &RunContext::plain());
        assert_eq!(
            r.record.counters.get("ext_read"),
            0,
            "the kernel fits on chip; only the initial DMA touches SDRAM"
        );
        assert_eq!(r.record.counters.get("dma_bytes"), 576);
    }
}
