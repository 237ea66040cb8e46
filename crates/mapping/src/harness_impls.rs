//! The mapping registry: one [`Row`] per registered mapping — its
//! identity, the platform family it runs on, how to run its driver and
//! how to build its program model — and the single
//! [`sim_harness::Mapping`] implementation over rows that the unified
//! runner resolves `--mapping` names against.
//!
//! A row's `run` applies the kernel's parameter specialisation (the
//! autofocus IPC and pairing figures) on top of whatever parameters the
//! platform supplies — so a record produced through the harness prices
//! exactly like one from the direct driver call with `params()`.

use sim_harness::PlatformKind::{Epiphany, Host, RefCpu};
use sim_harness::{
    HarnessError, ImageRun, Mapping, MappingRun, Placement, Platform, PlatformKind, ProgramModel,
    RunContext, Workload,
};

use crate::{
    autofocus_mpmd, autofocus_net, autofocus_ref, autofocus_seq, ffbp_ref, ffbp_seq, ffbp_spmd,
    rda_seq, rda_spmd,
};

/// One registered mapping.
#[derive(Clone, Copy)]
struct Row {
    /// Identity stamped into records and resolved by `--mapping`.
    name: &'static str,
    /// The kernel the driver runs.
    kernel: &'static str,
    /// The one platform family the driver runs on.
    family: PlatformKind,
    /// Stage-to-core placement, for the two pipeline mappings (the
    /// registry default is the paper's neighbour mapping); `None` for
    /// mappings that have none to override.
    place: Option<Placement>,
    /// Run the driver. `None` when the workload is another kernel's or
    /// the platform has no parameters for this family.
    run: fn(&Row, &Workload, &dyn Platform, &RunContext) -> Option<MappingRun>,
    /// The mapping's declared program model on a `(cols, rows)` mesh.
    model: fn(&Row, &Workload, (u16, u16)) -> Option<ProgramModel>,
}

/// Table I rows 1-3, the host-thread FFBP, Table I rows 4-6, the
/// `streams` process network, and the two RDA ports. The SPMD rows run
/// their drivers' default options: every core the mesh provides.
static ROWS: [Row; 10] = [
    Row {
        name: "ffbp_ref",
        kernel: "ffbp",
        family: RefCpu,
        place: None,
        run: |_, w, p, _| Some(ffbp_ref::run(w.ffbp()?, p.refcpu_params()?).into()),
        model: |_, w, _| w.ffbp().map(ffbp_ref::model),
    },
    Row {
        name: "ffbp_seq",
        kernel: "ffbp",
        family: Epiphany,
        place: None,
        run: |_, w, p, ctx| Some(ffbp_seq::run(w.ffbp()?, p.epiphany_params()?, ctx).into()),
        model: |_, w, mesh| w.ffbp().map(|w| ffbp_seq::model(w, mesh)),
    },
    Row {
        name: "ffbp_spmd",
        kernel: "ffbp",
        family: Epiphany,
        place: None,
        run: |_, w, p, ctx| {
            Some(ffbp_spmd::run(w.ffbp()?, p.epiphany_params()?, Default::default(), ctx).into())
        },
        model: |_, w, mesh| Some(ffbp_spmd::model(w.ffbp()?, &Default::default(), mesh)),
    },
    Row {
        name: "ffbp_host",
        kernel: "ffbp",
        family: Host,
        place: None,
        run: ffbp_host,
        model: |_, _, _| None,
    },
    Row {
        name: "autofocus_ref",
        kernel: "autofocus",
        family: RefCpu,
        place: None,
        run: |_, w, p, _| {
            let params = autofocus_ref::specialised(p.refcpu_params()?);
            Some(autofocus_ref::run(w.autofocus()?, params).into())
        },
        model: |_, w, _| w.autofocus().map(autofocus_ref::model),
    },
    Row {
        name: "autofocus_seq",
        kernel: "autofocus",
        family: Epiphany,
        place: None,
        run: |_, w, p, ctx| {
            let params = autofocus_seq::specialised(p.epiphany_params()?);
            Some(autofocus_seq::run(w.autofocus()?, params, ctx).into())
        },
        model: |_, w, mesh| w.autofocus().map(|w| autofocus_seq::model(w, mesh)),
    },
    Row {
        name: "autofocus_mpmd",
        kernel: "autofocus",
        family: Epiphany,
        place: Some(Placement::neighbor()),
        run: |row, w, p, ctx| {
            let params = autofocus_seq::specialised(p.epiphany_params()?);
            Some(autofocus_mpmd::run(w.autofocus()?, params, row.place?, ctx).into())
        },
        model: |row, w, mesh| Some(autofocus_mpmd::model(w.autofocus()?, &row.place?, mesh)),
    },
    Row {
        name: "autofocus_net",
        kernel: "autofocus",
        family: Epiphany,
        place: Some(Placement::neighbor()),
        run: |row, w, p, ctx| {
            let params = autofocus_seq::specialised(p.epiphany_params()?);
            Some(autofocus_net::run(w.autofocus()?, params, row.place?, ctx).into())
        },
        model: |row, w, mesh| Some(autofocus_net::model(w.autofocus()?, &row.place?, mesh)),
    },
    Row {
        name: "rda_seq",
        kernel: "rda",
        family: Epiphany,
        place: None,
        run: |_, w, p, ctx| Some(rda_seq::run(w.rda()?, p.epiphany_params()?, ctx).into()),
        model: |_, w, mesh| w.rda().map(|w| rda_seq::model(w, mesh)),
    },
    Row {
        name: "rda_spmd",
        kernel: "rda",
        family: Epiphany,
        place: None,
        run: |_, w, p, ctx| {
            Some(rda_spmd::run(w.rda()?, p.epiphany_params()?, Default::default(), ctx).into())
        },
        model: |_, w, mesh| Some(rda_spmd::model(w.rda()?, &Default::default(), mesh)),
    },
];

/// FFBP on the host's own threads, wall-clock timed.
fn ffbp_host(_: &Row, w: &Workload, p: &dyn Platform, _: &RunContext) -> Option<MappingRun> {
    let (w, threads) = (w.ffbp()?, p.host_threads()?);
    let label = format!("FFBP / host, {threads} threads (std::thread)");
    let (mut record, r) = sim_harness::BenchHarness::host_record(&label, || {
        sar_core::parallel::ffbp_parallel(&w.data, &w.geom, &w.config, threads)
    });
    record.set_metric("threads", threads as f64);
    record.set_metric("merge_iterations", f64::from(r.iterations));
    let image = r.image;
    Some(ImageRun { record, image }.into())
}

impl Mapping for Row {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kernel(&self) -> &'static str {
        self.kernel
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == self.family
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        (self.run)(self, workload, platform, ctx).ok_or_else(|| {
            let mapping = self.name.to_string();
            if workload.kernel() == self.kernel {
                let platform = platform.label().to_string();
                HarnessError::UnsupportedPlatform { mapping, platform }
            } else {
                let workload = workload.kernel().to_string();
                HarnessError::KernelMismatch { mapping, workload }
            }
        })
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        // The chip's real geometry for the Epiphany family, the
        // canonical 4x4 otherwise (other platforms never reach an
        // Epiphany model's analyzer checks — `supports` gates them).
        let mesh = platform
            .epiphany_params()
            .map_or((4, 4), |p| (p.mesh_cols, p.mesh_rows));
        (self.model)(self, workload, mesh)
    }
}

/// Every mapping, for exhaustive cross-machine sweeps.
pub fn all_mappings() -> Vec<Box<dyn Mapping>> {
    ROWS.iter()
        .map(|row| Box::new(*row) as Box<dyn Mapping>)
        .collect()
}

/// Look a mapping up by its record name (the `--mapping` flag of the
/// unified runner).
pub fn mapping_named(name: &str) -> Option<Box<dyn Mapping>> {
    let row = ROWS.iter().find(|row| row.name == name)?;
    Some(Box::new(*row))
}

/// [`mapping_named`] with a stage-to-core placement override — only
/// the two pipeline mappings are placeable; other names return their
/// registry default.
pub fn mapping_named_placed(name: &str, place: Placement) -> Option<Box<dyn Mapping>> {
    let mut row = *ROWS.iter().find(|row| row.name == name)?;
    if row.place.is_some() {
        row.place = Some(place);
    }
    Some(Box::new(row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_harness::{all_platforms, platform_named, run, AutofocusWorkload};

    #[test]
    fn names_round_trip_through_the_registry() {
        for m in all_mappings() {
            let named = mapping_named(m.name()).expect("name must resolve");
            assert_eq!(named.kernel(), m.kernel());
        }
        assert!(mapping_named("ffbp_gpu").is_none());
    }

    #[test]
    fn only_the_pipeline_mappings_take_a_placement() {
        let epiphany = platform_named("epiphany").unwrap();
        for row in &ROWS {
            let w = Workload::named(row.kernel, true).unwrap();
            let default = row.program_model(&w, epiphany.as_ref());
            let placed = mapping_named_placed(row.name, Placement::scattered())
                .expect("registered")
                .program_model(&w, epiphany.as_ref());
            let placeable = matches!(row.name, "autofocus_mpmd" | "autofocus_net");
            assert_eq!(row.place.is_some(), placeable, "{}", row.name);
            assert_eq!(
                default.map(|m| m.cores) != placed.map(|m| m.cores),
                placeable,
                "{}: an override must move the model's cores iff the row is placeable",
                row.name
            );
        }
    }

    #[test]
    fn supported_pairs_run_and_stamp_identity() {
        for m in all_mappings() {
            let w = Workload::named(m.kernel(), true).expect("kernel resolves");
            for p in all_platforms() {
                let result = run(m.as_ref(), &w, p.as_ref());
                if m.supports(p.kind()) {
                    let out = result.expect("supported pair must run");
                    assert_eq!(out.record.mapping, m.name());
                    assert_eq!(out.record.platform, p.label());
                    assert_eq!(out.record.kernel, m.kernel());
                    assert!(out.record.elapsed.seconds() > 0.0);
                } else {
                    assert!(
                        result.is_err(),
                        "{} on {} must be rejected",
                        m.name(),
                        p.label()
                    );
                }
            }
        }
    }

    /// `run_ctx` validates the pair before it calls `execute`; a row
    /// entered directly must reject a foreign workload or platform on
    /// its own, with the same errors.
    #[test]
    fn every_row_rejects_foreign_workloads_and_platforms_when_executed_directly() {
        let ctx = RunContext::plain();
        for row in &ROWS {
            let own = Workload::named(row.kernel, true).unwrap();
            let foreign_kernel = if row.kernel == "rda" { "ffbp" } else { "rda" };
            let foreign = Workload::named(foreign_kernel, true).unwrap();
            for p in all_platforms() {
                // A foreign workload is a kernel mismatch on any platform.
                assert!((row.run)(row, &foreign, p.as_ref(), &ctx).is_none());
                let err = row.execute(&foreign, p.as_ref(), &ctx).err().unwrap();
                assert_eq!(
                    err.to_string(),
                    format!(
                        "mapping '{}' cannot run a '{foreign_kernel}' workload",
                        row.name
                    )
                );
                if p.kind() == row.family {
                    continue;
                }
                assert!((row.run)(row, &own, p.as_ref(), &ctx).is_none());
                let err = row.execute(&own, p.as_ref(), &ctx).err().unwrap();
                assert_eq!(
                    err.to_string(),
                    format!(
                        "mapping '{}' does not support platform '{}'",
                        row.name,
                        p.label()
                    )
                );
            }
        }
    }

    #[test]
    fn specialised_params_flow_through_the_harness() {
        // Running through the harness must price identically to the
        // direct driver call with its kernel-specialised params().
        let w = AutofocusWorkload::small();
        let direct = autofocus_seq::run(&w, autofocus_seq::params(), &RunContext::plain());
        let platform = platform_named("epiphany").unwrap();
        let seq = mapping_named("autofocus_seq").unwrap();
        let via = run(seq.as_ref(), &Workload::Autofocus(w), platform.as_ref()).unwrap();
        assert_eq!(via.record.elapsed.cycles, direct.record.elapsed.cycles);
    }

    #[test]
    fn faults_flow_through_the_harness_context() {
        use faultsim::{FaultEvent, FaultPlan, FaultState};
        use sim_harness::run_ctx;
        let w = AutofocusWorkload::small();
        let platform = platform_named("epiphany").unwrap();
        let plan = FaultPlan::from_events(
            17,
            vec![FaultEvent::FlagDrop {
                at: desim::Cycle(1_000),
            }],
        );
        let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
        let mpmd = mapping_named("autofocus_mpmd").unwrap();
        let via = run_ctx(
            mpmd.as_ref(),
            &Workload::Autofocus(w),
            platform.as_ref(),
            &ctx,
        )
        .unwrap();
        assert_eq!(via.record.faults.faults_injected, 1);
        assert!(via.record.faults.retries >= 1);
        assert_eq!(via.record.counters.get("fault_seed"), 17);
    }
}
