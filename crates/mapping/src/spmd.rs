//! What the SPMD drivers ([`crate::ffbp_spmd`], [`crate::rda_spmd`])
//! and their program models share: the mesh and active-core set for a
//! pinned core count, the round-robin deal of work units over those
//! cores, and the checkpoint/restart recovery policy with the
//! drain-flag + barrier protocol that closes every phase — executed by
//! [`checkpointed`], declared by [`model`] and [`phase`].

use desim::Cycle;
use epiphany::{Chip, EpiphanyParams};
use faultsim::FaultState;
use sim_harness::{BarrierDecl, Bound, FlagDecl, PhaseDecl, ProgramModel, RunContext, WorkDecl};

/// The mesh an SPMD run of `cores` cores occupies on a platform whose
/// mesh is `mesh`, and the cores that take part. `None` means every
/// core of the platform's mesh; a smaller count occupies a compact
/// [`Chip::subgrid_on`] subgrid so its hop counts match a dedicated
/// chip; a larger one (ablations) gets the minimal covering mesh.
pub(crate) fn sizing(mesh: (u16, u16), cores: Option<usize>) -> ((u16, u16), Vec<usize>) {
    let platform_cores = mesh.0 as usize * mesh.1 as usize;
    let n = cores.unwrap_or(platform_cores);
    let (cols, rows) = if n <= platform_cores {
        mesh
    } else {
        Chip::mesh_for_cores(n)
    };
    ((cols, rows), Chip::subgrid_on(cols, rows, n))
}

/// The chip an SPMD run of `cores` cores executes on ([`sizing`]),
/// armed with the context's tracer and fault schedule, and the cores
/// that take part.
pub(crate) fn chip_for(
    params: EpiphanyParams,
    cores: Option<usize>,
    ctx: &RunContext,
) -> (Chip, Vec<usize>) {
    let ((cols, rows), active) = sizing((params.mesh_cols, params.mesh_rows), cores);
    let mut chip = Chip::new(params, cols, rows);
    chip.set_tracer(ctx.tracer.clone());
    chip.set_faults(ctx.faults.clone());
    (chip, active)
}

/// The round-robin deal: the position, among `n` active cores, of the
/// core that takes work unit `unit`.
pub(crate) fn owner(unit: usize, n: usize) -> usize {
    unit % n
}

/// How many of `units` work units the deal hands the core at position
/// `pos` of `n`.
pub(crate) fn owned(units: usize, n: usize, pos: usize) -> usize {
    units / n + usize::from(pos < units % n)
}

/// The model skeleton of an SPMD mapping sized by [`sizing`]: every
/// active core drains its posted writes behind its own flag once per
/// phase round and joins the barrier `barrier` — what [`checkpointed`]
/// executes. A lost drain is recovered by redoing the phase from its
/// intact input region.
pub(crate) fn model(mesh: (u16, u16), cores: Option<usize>, barrier: &str) -> ProgramModel {
    let ((cols, rows), active) = sizing(mesh, cores);
    let mut m = ProgramModel::new(cols, rows);
    for &c in &active {
        m.flags.push(FlagDecl {
            label: format!("drain[{c}]"),
            setter: c,
            waiter: c,
            sets: 1,
            waits: 1,
            recovery: Some("checkpoint_restart".to_string()),
        });
    }
    m.barriers.push(BarrierDecl {
        label: barrier.to_string(),
        participants: active.clone(),
        arrivals: active.clone(),
    });
    m.cores = active;
    m
}

/// Declare one [`checkpointed`] phase of `rounds` rounds on `m`:
/// `work(pos, decl)` fills in what the core at deal position `pos`
/// does per round; the closing drain wait and barrier are added here.
pub(crate) fn phase(
    m: &mut ProgramModel,
    name: &str,
    rounds: u64,
    mut work: impl FnMut(usize, &mut WorkDecl),
) {
    let mut ph = PhaseDecl {
        name: name.to_string(),
        rounds,
        barriers: 1,
        ..PhaseDecl::default()
    };
    for (pos, &core) in m.cores.iter().enumerate() {
        let mut wd = WorkDecl::new(core);
        wd.flag_waits = Bound::exact(1.0);
        work(pos, &mut wd);
        ph.work.push(wd);
    }
    m.workload.push(ph);
}

/// Run `body` as one checkpointed phase named `phase` and return what
/// its surviving attempt produced.
///
/// Every SPMD phase reads one SDRAM region and writes another, so the
/// recovery policy is checkpoint/restart at phase granularity: `body`
/// deals its work units over the `active` cores it is handed and notes
/// each core's last posted write in the cycle slice (indexed by chip
/// core id); the phase then drains those writes and barriers. Cores
/// that halted during the attempt may have dropped their slices, so at
/// the end-of-phase health check they leave `active` (the
/// `halted_cores` phase metric says how many) and the whole phase is
/// redone on the survivors — the input region is intact and the output
/// region is simply rewritten, so results are bit-identical to the
/// fault-free run. The discarded attempt is accounted as recovery
/// cycles/energy in `faults`.
pub(crate) fn checkpointed<T>(
    chip: &mut Chip,
    faults: &FaultState,
    active: &mut Vec<usize>,
    phase: &str,
    mut body: impl FnMut(&mut Chip, &[usize], &mut [Cycle]) -> T,
) -> T {
    loop {
        let attempt_t0 = chip.elapsed();
        let attempt_e0 = if faults.is_enabled() {
            chip.energy().total_j()
        } else {
            0.0
        };
        chip.phase_begin(phase);
        // Subgrid ids are sparse, so size for the whole chip.
        let mut last_write = vec![Cycle::ZERO; chip.cores()];
        let out = body(chip, active, &mut last_write);
        for &core in active.iter() {
            chip.wait_flag(core, last_write[core]);
        }
        chip.barrier(active);

        let dead: Vec<usize> = faults
            .newly_halted(chip.elapsed())
            .into_iter()
            .map(|c| c as usize)
            .filter(|c| active.contains(c))
            .collect();
        if dead.is_empty() {
            chip.phase_end();
            return out;
        }
        chip.phase_metric("halted_cores", dead.len() as f64);
        chip.phase_end();
        active.retain(|c| !dead.contains(c));
        assert!(
            !active.is_empty(),
            "every core halted; the SPMD mapping cannot recover"
        );
        faults.add_degraded_cores(dead.len() as u64);
        faults.add_recovery_cycles(chip.elapsed().saturating_sub(attempt_t0).raw());
        faults.add_recovery_energy((chip.energy().total_j() - attempt_e0).max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ffbp_spmd, rda_spmd};
    use faultsim::{FaultEvent, FaultPlan};
    use sim_harness::{FfbpWorkload, RdaWorkload};

    #[test]
    fn the_deal_hands_out_every_unit_exactly_once() {
        // n divides units, n does not, n exceeds units, one core — and
        // 15: the 16-core active set after `checkpointed` dropped one.
        for (units, n) in [(64, 16), (129, 16), (5, 16), (7, 1), (129, 15)] {
            let mut dealt = vec![0; n];
            for unit in 0..units {
                dealt[owner(unit, n)] += 1;
            }
            let counted: Vec<usize> = (0..n).map(|pos| owned(units, n, pos)).collect();
            assert_eq!(dealt, counted, "{units} units over {n} cores");
            assert_eq!(counted.iter().sum::<usize>(), units);
        }
    }

    #[test]
    fn sizing_is_what_the_chip_is_built_with() {
        let ctx = RunContext::plain();
        for (params, cores) in [
            (EpiphanyParams::default(), None),
            (EpiphanyParams::default(), Some(4)),
            (EpiphanyParams::default(), Some(32)),
            (EpiphanyParams::e64(), Some(16)),
        ] {
            let (mesh, active) = sizing((params.mesh_cols, params.mesh_rows), cores);
            let (chip, chip_active) = chip_for(params, cores, &ctx);
            assert_eq!(chip.mesh_dims(), mesh);
            assert_eq!(chip_active, active);
            let m = model((params.mesh_cols, params.mesh_rows), cores, "end");
            assert_eq!((m.mesh, &m.cores), (mesh, &active));
            assert_eq!(m.flags.len(), active.len());
            assert_eq!(m.barriers[0].arrivals, active);
        }
    }

    #[test]
    fn a_halted_core_is_dropped_and_its_phase_redone() {
        let mut chip = Chip::from_params(EpiphanyParams::default());
        let plan = FaultPlan::from_events(
            1,
            vec![FaultEvent::CoreHalt {
                core: 2,
                at: Cycle(10),
            }],
        );
        let faults = FaultState::from_plan(&plan);
        chip.set_faults(faults.clone());
        let mut active = vec![0, 1, 2, 3];
        let mut attempts = Vec::new();
        let out = checkpointed(
            &mut chip,
            &faults,
            &mut active,
            "work",
            |chip, active, _| {
                for &core in active {
                    chip.compute(
                        core,
                        &desim::OpCounts {
                            ialu: 100,
                            ..Default::default()
                        },
                    );
                }
                attempts.push(active.to_vec());
                attempts.len()
            },
        );
        assert_eq!(out, 2, "the surviving attempt's value is returned");
        assert_eq!(attempts, [vec![0, 1, 2, 3], vec![0, 1, 3]]);
        assert_eq!(active, [0, 1, 3]);
        let totals = faults.totals();
        assert_eq!(totals.degraded_cores, 1);
        assert!(totals.recovery_cycles > 0);
        let record = chip.report("checkpointed", 4);
        let halted: Vec<_> = record
            .phases
            .iter()
            .map(|p| p.metrics.get("halted_cores").copied())
            .collect();
        assert_eq!(halted, [Some(1.0), None], "one discarded, one clean phase");
    }

    #[test]
    fn both_spmd_drivers_recover_through_the_shared_policy() {
        let plan = FaultPlan::from_events(
            11,
            vec![FaultEvent::CoreHalt {
                core: 5,
                at: Cycle(1_000),
            }],
        );
        let ctx = || RunContext::plain().with_faults(FaultState::from_plan(&plan));
        let params = EpiphanyParams::default();
        let records = [
            ffbp_spmd::run(&FfbpWorkload::small(), params, Default::default(), &ctx()).record,
            rda_spmd::run(&RdaWorkload::small(), params, Default::default(), &ctx()).record,
        ];
        for record in records {
            assert_eq!(record.faults.degraded_cores, 1, "{}", record.label);
            assert!(record.faults.recovery_cycles > 0, "{}", record.label);
            let halted: f64 = record
                .phases
                .iter()
                .filter_map(|p| p.metrics.get("halted_cores"))
                .sum();
            assert_eq!(halted, 1.0, "{}", record.label);
        }
    }
}
