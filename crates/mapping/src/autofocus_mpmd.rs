//! Autofocus criterion as a 13-core MPMD streaming pipeline
//! (Table I row 6, mapping of Figure 9).
//!
//! Per contributing image block: three *range interpolator* cores (one
//! per 4-column window) and three *beam interpolator* cores (one per
//! 4-row window); a single *correlation + summation* core serves both
//! blocks — 2 x (3 + 3) + 1 = 13 cores, with three spare for the rest
//! of the chain. Intermediate results stream between neighbouring
//! cores as posted cMesh writes with flag synchronisation; nothing but
//! the initial block load and the final criterion touches off-chip
//! memory. The custom placement keeps every producer-consumer pair
//! within a couple of hops — the paper credits this (plus the 64x
//! on-chip/off-chip bandwidth ratio) for the pipeline not bottlenecking
//! at the correlator.

use desim::Cycle;
use epiphany::{Chip, EpiphanyParams};
use sar_core::autofocus::{criterion_firings, Stage, STAGES, WINDOWS};
use sim_harness::{AutofocusWorkload, Placement, ProgramModel, RunContext, SweepRun};

use crate::clock_label;
use crate::pipeline::{
    criterion_addr, msg_bytes, range_cores, stage_block, stage_blocks, PipelineProbe,
};

/// Execute the autofocus workload on the 13-core pipeline, emitting
/// the chip's spans into `ctx.tracer` and running under `ctx.faults`.
/// The record carries one phase per hypothesis, with per-stage
/// occupancy and correlator wait/queue-depth metrics.
///
/// Two recovery policies compose here: every inter-stage flag message
/// goes through [`Chip::send_reliable`] (producer-side watchdog, so a
/// dropped flag costs a timeout and a re-send instead of a hang), and
/// a core that halts permanently is handled by *drain-and-restart* —
/// the current hypothesis's in-flight results are discarded, the dead
/// core's stage is remapped onto one of the three spare cores
/// ([`Placement::remap`], re-staging the block data if it was a range
/// core), and the hypothesis is re-run on the repaired pipeline. The
/// sweep is bit-identical to the fault-free run because a restarted
/// hypothesis recomputes exactly the same values.
pub fn run(
    w: &AutofocusWorkload,
    params: EpiphanyParams,
    mut place: Placement,
    ctx: &RunContext,
) -> SweepRun {
    let faults = &ctx.faults;
    assert_eq!(
        place.cores().len(),
        STAGES,
        "the mapping must use {STAGES} distinct cores"
    );
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    chip.set_faults(faults.clone());
    // Placements are written in E16G3 (4-column) ids; renumber onto
    // the chip's actual mesh, preserving coordinates and hop counts.
    place = place.rebased(chip.mesh_dims().0, chip.mesh_dims().1);

    // The cores the mapping leaves idle: the spare pool for remapping
    // around permanent halts.
    let used = place.cores();
    let mut spares: Vec<usize> = (0..chip.cores()).filter(|c| !used.contains(c)).collect();

    // Initial load: each range core DMAs its block from SDRAM.
    stage_blocks(&mut chip, &place);

    // Stage occupancy: share of the phase's span each stage's cores
    // spent busy. All snapshots are pure reads of the chip's cursors —
    // the instrumentation never advances time.
    let stage_busy = |chip: &Chip, stage_cores: &[usize]| -> u64 {
        stage_cores.iter().map(|&c| chip.busy(c).0).sum()
    };

    let mut sweep = Vec::with_capacity(w.hypotheses);
    for h in 0..w.hypotheses {
        // One attempt per pass; a permanent halt discards the attempt
        // (drain-and-restart) and re-runs it on the repaired pipeline.
        'attempt: loop {
            // The placement can change between attempts, so the stage
            // groupings are derived fresh each time.
            let cores = place.cores();
            let range: Vec<usize> = range_cores(&place).map(|(core, _)| core).collect();
            let beam: Vec<usize> = (Stage::ALL.into_iter())
                .filter(|stage| matches!(stage, Stage::Beam { .. }))
                .map(|stage| place.core(stage))
                .collect();

            let attempt_e0 = if faults.is_enabled() {
                chip.energy().total_j()
            } else {
                0.0
            };
            chip.phase_begin("hypothesis");
            let t0 = chip.elapsed();
            let range_busy0 = stage_busy(&chip, &range);
            let beam_busy0 = stage_busy(&chip, &beam);
            let corr_busy0 = chip.busy(place.corr).0;
            let mut corr_wait_cycles = 0u64;
            let mut corr_queue_peak = 0u64;
            let shift = w.shift(h);
            // Range → beam deliveries of the block in flight, `[beam
            // window][range window]`, and this iteration's arrivals at
            // the correlator.
            let mut deliveries = [[Cycle::ZERO; WINDOWS]; WINDOWS];
            let mut corr_arrivals: Vec<Cycle> = Vec::with_capacity(Stage::Corr.fan_in());
            let criterion =
                criterion_firings(&w.f_minus, &w.f_plus, shift, &w.config, |stage, ops| {
                    let core = place.core(stage);
                    let msg = u64::from(msg_bytes(&w.config, stage));
                    match stage {
                        // Each range core streams its output to every
                        // beam core of its block.
                        Stage::Range { win, .. } => {
                            chip.compute(core, ops);
                            for (bi, to) in stage.consumers().enumerate() {
                                deliveries[bi][win] = chip.send_reliable(core, place.core(to), msg);
                            }
                        }
                        // Each beam core waits for its inputs.
                        Stage::Beam { win, .. } => {
                            let ready = deliveries[win].into_iter().max().unwrap_or(Cycle::ZERO);
                            chip.wait_flag(core, ready);
                            chip.compute(core, ops);
                            corr_arrivals.push(chip.send_reliable(core, place.corr, msg));
                        }
                        // Correlation + summation once both halves have
                        // streamed in.
                        Stage::Corr => {
                            let ready = corr_arrivals.iter().copied().max().unwrap_or(Cycle::ZERO);
                            // Queue depth seen by the correlator:
                            // messages already delivered when it reaches
                            // the wait (backlog), and how long it idles
                            // for the last one.
                            let consume_at = chip.now(core);
                            let backlog =
                                corr_arrivals.iter().filter(|&&a| a <= consume_at).count() as u64;
                            corr_queue_peak = corr_queue_peak.max(backlog);
                            corr_wait_cycles += ready.saturating_sub(consume_at).0;
                            chip.wait_flag(core, ready);
                            chip.compute(core, ops);
                            corr_arrivals.clear();
                        }
                    }
                });
            chip.write_external(place.corr, criterion_addr(h), 8);
            let span = (chip.elapsed() - t0).0.max(1);
            let occupancy =
                |busy0: u64, busy1: u64, n: u64| (busy1 - busy0) as f64 / (n * span) as f64;
            chip.phase_metric(
                "range_occupancy",
                occupancy(range_busy0, stage_busy(&chip, &range), range.len() as u64),
            );
            chip.phase_metric(
                "beam_occupancy",
                occupancy(beam_busy0, stage_busy(&chip, &beam), beam.len() as u64),
            );
            chip.phase_metric(
                "corr_occupancy",
                occupancy(corr_busy0, chip.busy(place.corr).0, 1),
            );
            chip.phase_metric("corr_wait_cycles", corr_wait_cycles as f64);
            chip.phase_metric("corr_queue_peak", corr_queue_peak as f64);

            // Health check at the hypothesis boundary: any core that
            // halted during this attempt invalidates its in-flight
            // results.
            let halted = faults.newly_halted(chip.elapsed());
            let dead: Vec<usize> = halted
                .iter()
                .map(|&c| c as usize)
                .filter(|c| cores.contains(c))
                .collect();
            // A spare that dies before it is ever drafted just leaves the
            // pool.
            spares.retain(|s| !halted.contains(&(*s as u32)));
            if dead.is_empty() {
                chip.phase_end();
                sweep.push((shift, criterion));
                break 'attempt;
            }
            chip.phase_metric("halted_cores", dead.len() as f64);
            chip.phase_end();
            for d in dead {
                let spare = spares.pop().expect("no spare core left to remap onto");
                place = place.remap(d, spare);
                faults.add_degraded_cores(1);
                // A replacement range core needs its image block re-staged
                // from SDRAM; beam and correlator stages carry no state
                // across hypotheses.
                for (_, blk) in range_cores(&place).filter(|&(core, _)| core == spare) {
                    stage_block(&mut chip, spare, blk);
                }
            }
            faults.add_recovery_cycles(chip.elapsed().saturating_sub(t0).raw());
            faults.add_recovery_energy((chip.energy().total_j() - attempt_e0).max(0.0));
        }
    }

    let clock = clock_label(chip.params().clock);
    SweepRun::new(
        chip.report(
            &format!("Autofocus / Epiphany, {STAGES} cores @ {clock} (MPMD pipeline)"),
            STAGES,
        ),
        sweep,
    )
}

/// The static description of [`run`] with `place` on a `mesh`-sized
/// platform ([`PipelineProbe::mpmd`]).
pub fn model(w: &AutofocusWorkload, place: &Placement, mesh: (u16, u16)) -> ProgramModel {
    PipelineProbe::mpmd(w).model(place, mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofocus_net;
    use crate::autofocus_seq::{self, params};
    use faultsim::FaultState;

    /// A fault-free, untraced run.
    fn run(w: &AutofocusWorkload, params: EpiphanyParams, place: Placement) -> SweepRun {
        super::run(w, params, place, &RunContext::plain())
    }

    #[test]
    fn pipeline_computes_the_same_criterion_as_sequential() {
        let w = AutofocusWorkload::small();
        let mpmd = run(&w, params(), Placement::neighbor());
        let seq = autofocus_seq::run(&w, params(), &RunContext::plain());
        assert_eq!(mpmd.sweep.len(), seq.sweep.len());
        // Both sides are the same walk (`criterion_firings`), so the
        // values agree to the bit.
        for ((s1, v1), (s2, v2)) in mpmd.sweep.iter().zip(&seq.sweep) {
            assert_eq!(s1, s2);
            assert_eq!(
                v1.to_bits(),
                v2.to_bits(),
                "criterion mismatch at shift {s1}: {v1} vs {v2}"
            );
        }
    }

    #[test]
    fn thirteen_cores_pipeline_much_faster_than_one() {
        let w = AutofocusWorkload::paper();
        let mpmd = run(&w, params(), Placement::neighbor());
        let seq = autofocus_seq::run(&w, params(), &RunContext::plain());
        let speedup = seq.record.elapsed.seconds() / mpmd.record.elapsed.seconds();
        assert!(
            speedup > 4.0,
            "pipeline should give a large speedup, got {speedup:.2}x"
        );
        assert!(
            speedup < 13.0,
            "speedup {speedup:.2}x cannot exceed core count"
        );
    }

    #[test]
    fn neighbor_mapping_beats_scattered_mapping_on_noc_traffic() {
        // Throughput is compute-bound (posted writes hide mesh latency
        // behind the pipeline), so the custom placement shows up in the
        // fabric, not the makespan: scattered producers push every
        // message across more hops — more byte-hop energy, and at most
        // noise-level time difference.
        let w = AutofocusWorkload::paper();
        let near = run(&w, params(), Placement::neighbor());
        let far = run(&w, params(), Placement::scattered());
        assert!(
            far.record.energy.mesh_j > 1.2 * near.record.energy.mesh_j,
            "scattered placement should burn more mesh energy: {:.3e} vs {:.3e} J",
            far.record.energy.mesh_j,
            near.record.energy.mesh_j
        );
        assert!(
            far.record.elapsed.seconds() >= 0.99 * near.record.elapsed.seconds(),
            "scattered placement should not be faster: {} vs {} ms",
            far.record.millis(),
            near.record.millis()
        );
    }

    #[test]
    fn placements_use_thirteen_distinct_cores() {
        assert_eq!(Placement::neighbor().cores().len(), 13);
        assert_eq!(Placement::scattered().cores().len(), 13);
    }

    #[test]
    fn streaming_avoids_offchip_traffic() {
        let w = AutofocusWorkload::paper();
        let r = run(&w, params(), Placement::neighbor());
        // Off-chip: initial DMA + one criterion write per hypothesis.
        assert_eq!(r.record.counters.get("ext_read"), 0);
        assert_eq!(r.record.counters.get("ext_write"), w.hypotheses as u64);
        // On-chip streaming is heavy.
        assert!(r.record.counters.get("remote_write") > 100);
    }

    #[test]
    fn a_halted_pipeline_core_is_remapped_onto_a_spare() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = AutofocusWorkload::small();
        let clean = run(&w, params(), Placement::neighbor());
        // Core 4 is a block-0 range core in the neighbor placement, so
        // the remap must also re-stage its image block.
        let plan = FaultPlan::from_events(
            3,
            vec![FaultEvent::CoreHalt {
                core: 4,
                at: Cycle(2_000),
            }],
        );
        let faults = FaultState::from_plan(&plan);
        let r = super::run(
            &w,
            params(),
            Placement::neighbor(),
            &RunContext::plain().with_faults(faults.clone()),
        );
        assert_eq!(
            r.sweep, clean.sweep,
            "drain-and-restart must reproduce the fault-free sweep exactly"
        );
        assert_eq!(r.best, clean.best);
        let t = faults.totals();
        assert_eq!(t.degraded_cores, 1);
        assert_eq!(t.faults_injected, 1);
        assert!(t.recovery_cycles > 0, "the discarded attempt is paid for");
        assert_eq!(r.record.faults, t);
        assert!(r.record.elapsed.cycles.raw() > clean.record.elapsed.cycles.raw());
    }

    #[test]
    fn dropped_flags_are_retried_without_changing_the_sweep() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = AutofocusWorkload::small();
        let clean = run(&w, params(), Placement::neighbor());
        let plan = FaultPlan::from_events(
            9,
            vec![
                FaultEvent::FlagDrop { at: Cycle(1_000) },
                FaultEvent::FlagDrop { at: Cycle(5_000) },
            ],
        );
        let faults = FaultState::from_plan(&plan);
        let r = super::run(
            &w,
            params(),
            Placement::neighbor(),
            &RunContext::plain().with_faults(faults.clone()),
        );
        assert_eq!(r.sweep, clean.sweep);
        let t = faults.totals();
        assert_eq!(t.faults_injected, 2);
        assert!(
            t.retries >= 2,
            "each dropped flag costs at least one re-send"
        );
        assert!(t.recovery_cycles > 0);
        assert_eq!(t.degraded_cores, 0);
    }

    #[test]
    fn fault_recovery_is_deterministic() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = AutofocusWorkload::small();
        let plan = FaultPlan::from_events(
            21,
            vec![
                FaultEvent::FlagDrop { at: Cycle(5_000) },
                FaultEvent::CoreHalt {
                    core: 9,
                    at: Cycle(40_000),
                },
            ],
        );
        let go = || {
            super::run(
                &w,
                params(),
                Placement::neighbor(),
                &RunContext::plain().with_faults(FaultState::from_plan(&plan)),
            )
        };
        let (a, b) = (go(), go());
        assert_eq!(a.record.elapsed.cycles, b.record.elapsed.cycles);
        assert_eq!(a.record.faults, b.record.faults);
        assert_eq!(a.sweep, b.sweep);
    }

    #[test]
    fn remap_replaces_every_occurrence_and_keeps_thirteen_cores() {
        let p = Placement::neighbor().remap(4, 12);
        assert!(!p.cores().contains(&4));
        assert!(p.cores().contains(&12));
        assert_eq!(p.cores().len(), 13);
        assert_eq!(
            p.range[0][1], 12,
            "core 4 was the block-0 window-1 range core"
        );
    }

    #[test]
    fn recovers_the_injected_path_error() {
        let w = AutofocusWorkload::paper();
        let r = run(&w, params(), Placement::neighbor());
        assert!(
            (r.best.0 - w.true_shift).abs() <= 0.15,
            "found {} expected {}",
            r.best.0,
            w.true_shift
        );
    }

    #[test]
    fn mpmd_model_declares_recovery_on_every_channel_and_flag() {
        let w = AutofocusWorkload::small();
        let plain = autofocus_net::model(&w, &Placement::neighbor(), (4, 4));
        assert!(
            plain.channels.iter().all(|c| c.recovery.is_none()),
            "the shared pipeline model stays recovery-free (the streams net has none)"
        );
        let m = model(&w, &Placement::neighbor(), (4, 4));
        assert!(m.channels.iter().all(|c| c.recovery.is_some()));
        assert!(m.flags.iter().all(|f| f.recovery.is_some()));
    }
}
