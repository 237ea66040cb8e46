//! The mapping registry: one [`Row`] per registered mapping — its
//! identity, the platform family it runs on, how to run its driver and
//! how to build its program model — and the single
//! [`sim_harness::Mapping`] implementation over rows that the unified
//! runner resolves `--mapping` names against. [`configured`] is the one
//! route that overrides a registered pair: a sweep `set` block, the
//! `--placement` of `autotune`, and — through [`selected`], the one
//! resolver of a `--mapping/--platform/--placement` selection — that of
//! `run` and `sarlint`.
//!
//! A row's `run` applies the kernel's parameter specialisation (the
//! autofocus IPC and pairing figures) on top of whatever parameters the
//! platform supplies — so a record produced through the harness prices
//! exactly like one from the direct driver call with `params()`.

use desim::{Frequency, Json};
use sim_harness::PlatformKind::{Epiphany, Host, RefCpu};
use sim_harness::{
    all_platforms, platform_named, Diagnostic, EpiphanyPlatform, FaultPlan, HarnessError, ImageRun,
    Mapping, MappingRun, Placement, Platform, PlatformKind, ProgramModel, RefCpuPlatform,
    RunContext, Workload,
};
use Driver::{Ffbp, Run};

use crate::ffbp_spmd::SpmdOptions;
use crate::merge_walk::{walk_one, Machine};
use crate::rda_spmd::RdaSpmdOptions;
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
    /// The fields of `opts` the driver reads, by `set` key.
    keys: &'static [&'static str],
    /// Driver options: [`DEFAULTS`] unless [`configured`] overrode them.
    opts: Options,
    /// How the driver runs ([`Row::run`]).
    driver: Driver,
    /// The mapping's declared program model on a `(cols, rows)` mesh.
    model: fn(&Row, &Workload, (u16, u16)) -> Option<ProgramModel>,
}

/// How a row runs its driver; each returns `None` when the platform
/// has no parameters for the row's family (and `Run` also when the
/// workload is another kernel's).
#[derive(Clone, Copy)]
enum Driver {
    /// An FFBP machine, walked alone ([`walk_one`]); `table1` walks the
    /// three of Table I together.
    Ffbp(fn(&Row, &dyn Platform) -> Option<Machine<'static>>),
    /// Any other driver.
    Run(fn(&Row, &Workload, &dyn Platform, &RunContext) -> Option<MappingRun>),
}

/// What a `set` block may change about a driver.
#[derive(Clone, Copy)]
struct Options {
    /// Core count and DMA prefetch of the SPMD drivers (`cores`,
    /// `prefetch`; the RDA driver reads only the count).
    spmd: SpmdOptions,
    /// Stage-to-core placement of the two pipeline mappings.
    place: Placement,
}

/// The registry's options: every core the mesh provides, prefetch on
/// (`SpmdOptions::default()`), and the paper's neighbour placement.
const DEFAULTS: Options = Options {
    spmd: SpmdOptions {
        cores: None,
        prefetch: true,
    },
    place: Placement::neighbor(),
};

/// Table I rows 1-3, the host-thread FFBP, Table I rows 4-6, the
/// `streams` process network, and the two RDA ports.
static ROWS: [Row; 10] = [
    Row {
        name: "ffbp_ref",
        kernel: "ffbp",
        family: RefCpu,
        keys: &[],
        opts: DEFAULTS,
        driver: Ffbp(|_, p| Some(ffbp_ref::machine(p.refcpu_params()?))),
        model: |_, w, _| w.ffbp().map(ffbp_ref::model),
    },
    Row {
        name: "ffbp_seq",
        kernel: "ffbp",
        family: Epiphany,
        keys: &[],
        opts: DEFAULTS,
        driver: Ffbp(|_, p| Some(ffbp_seq::machine(p.epiphany_params()?))),
        model: |_, w, mesh| w.ffbp().map(|w| ffbp_seq::model(w, mesh)),
    },
    Row {
        name: "ffbp_spmd",
        kernel: "ffbp",
        family: Epiphany,
        keys: &["cores", "prefetch"],
        opts: DEFAULTS,
        driver: Ffbp(|row, p| Some(ffbp_spmd::machine(p.epiphany_params()?, row.opts.spmd))),
        model: |row, w, mesh| Some(ffbp_spmd::model(w.ffbp()?, &row.opts.spmd, mesh)),
    },
    Row {
        name: "ffbp_host",
        kernel: "ffbp",
        family: Host,
        keys: &[],
        opts: DEFAULTS,
        driver: Run(ffbp_host),
        model: |_, _, _| None,
    },
    Row {
        name: "autofocus_ref",
        kernel: "autofocus",
        family: RefCpu,
        keys: &[],
        opts: DEFAULTS,
        driver: Run(|_, w, p, _| {
            let params = autofocus_ref::specialised(p.refcpu_params()?);
            Some(autofocus_ref::run(w.autofocus()?, params).into())
        }),
        model: |_, w, _| w.autofocus().map(autofocus_ref::model),
    },
    Row {
        name: "autofocus_seq",
        kernel: "autofocus",
        family: Epiphany,
        keys: &[],
        opts: DEFAULTS,
        driver: Run(|_, w, p, ctx| {
            let params = autofocus_seq::specialised(p.epiphany_params()?);
            Some(autofocus_seq::run(w.autofocus()?, params, ctx).into())
        }),
        model: |_, w, mesh| w.autofocus().map(|w| autofocus_seq::model(w, mesh)),
    },
    Row {
        name: "autofocus_mpmd",
        kernel: "autofocus",
        family: Epiphany,
        keys: &["placement"],
        opts: DEFAULTS,
        driver: Run(|row, w, p, ctx| {
            let params = autofocus_seq::specialised(p.epiphany_params()?);
            Some(autofocus_mpmd::run(w.autofocus()?, params, row.opts.place, ctx).into())
        }),
        model: |row, w, mesh| Some(autofocus_mpmd::model(w.autofocus()?, &row.opts.place, mesh)),
    },
    Row {
        name: "autofocus_net",
        kernel: "autofocus",
        family: Epiphany,
        keys: &["placement"],
        opts: DEFAULTS,
        driver: Run(|row, w, p, ctx| {
            let params = autofocus_seq::specialised(p.epiphany_params()?);
            Some(autofocus_net::run(w.autofocus()?, params, row.opts.place, ctx).into())
        }),
        model: |row, w, mesh| Some(autofocus_net::model(w.autofocus()?, &row.opts.place, mesh)),
    },
    Row {
        name: "rda_seq",
        kernel: "rda",
        family: Epiphany,
        keys: &[],
        opts: DEFAULTS,
        driver: Run(|_, w, p, ctx| Some(rda_seq::run(w.rda()?, p.epiphany_params()?, ctx).into())),
        model: |_, w, mesh| w.rda().map(|w| rda_seq::model(w, mesh)),
    },
    Row {
        name: "rda_spmd",
        kernel: "rda",
        family: Epiphany,
        keys: &["cores"],
        opts: DEFAULTS,
        driver: Run(|row, w, p, ctx| {
            Some(rda_spmd::run(w.rda()?, p.epiphany_params()?, row.opts.rda(), ctx).into())
        }),
        model: |row, w, mesh| Some(rda_spmd::model(w.rda()?, &row.opts.rda(), mesh)),
    },
];

impl Row {
    /// Run the driver; `None` when the workload is another kernel's or
    /// the platform has no parameters for this family.
    fn run(&self, w: &Workload, p: &dyn Platform, ctx: &RunContext) -> Option<MappingRun> {
        match self.driver {
            Ffbp(machine) => Some(walk_one(w.ffbp()?, ctx, machine(self, p)?).into()),
            Run(run) => run(self, w, p, ctx),
        }
    }
}

impl Options {
    /// The RDA driver's options: the SPMD core count.
    fn rda(&self) -> RdaSpmdOptions {
        RdaSpmdOptions {
            cores: self.spmd.cores,
        }
    }
}

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
        self.run(workload, platform, ctx).ok_or_else(|| {
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

/// The machine of registered FFBP mapping `name` on `platform`: what
/// the mapping's `run` walks alone.
pub(crate) fn ffbp_machine(name: &str, platform: &dyn Platform) -> Option<Machine<'static>> {
    let row = ROWS.iter().find(|row| row.name == name)?;
    match row.driver {
        Ffbp(machine) => machine(row, platform),
        Run(_) => None,
    }
}

/// A registered pair as a `set` block configures it.
pub struct Configured {
    /// The mapping, its driver options overridden.
    pub mapping: Box<dyn Mapping>,
    /// The platform, its parameters overridden; label and datasheet
    /// power stay the registry's.
    pub platform: Box<dyn Platform>,
    /// The block's inline fault spec (the `faultsim` format), which
    /// replaces whatever plan the caller would otherwise arm.
    pub faults: Option<String>,
}

/// Every key a `set` block may carry.
const SET_KEYS: &str =
    "cores, prefetch, placement, elink_bytes_per_cycle, clock_mhz, cache_prefetch, faults";

/// The one override route: the registered `mapping` on the registered
/// `platform` with `set` applied. `set` is an object of these keys, each
/// at most once:
///
/// * `cores` (1–4096, the 64 × 64 mesh the architecture addresses) and
///   `prefetch` (bool): the SPMD driver options — `ffbp_spmd` takes
///   both, `rda_spmd` the count;
/// * `placement`: `"neighbor"`, `"scattered"`, `"@path/to/file.json"` or
///   an inline placement object, for the two pipeline mappings; it must
///   fit the platform's mesh;
/// * `elink_bytes_per_cycle` (≥ 1) and `clock_mhz` (1–100 000):
///   Epiphany-family platforms;
/// * `cache_prefetch` (bool): the reference CPU's hardware prefetcher;
/// * `faults`: an inline fault spec, any pair ([`Configured::faults`]).
///
/// An empty object is the registry pair. Whether the mapping supports
/// the platform is not checked here — `run_ctx` refuses such a pair.
/// Errors are messages for the caller to code (`SWP002` in a sweep,
/// `CLI007` for a `--placement` that does not fit).
pub fn configured(mapping: &str, platform: &str, set: &Json) -> Result<Configured, String> {
    let mut row = *ROWS
        .iter()
        .find(|row| row.name == mapping)
        .ok_or_else(|| format!("unknown mapping '{mapping}'"))?;
    let base = platform_named(platform).ok_or_else(|| format!("unknown platform '{platform}'"))?;
    let members = set.as_object().ok_or("'set' must be an object")?;
    let (mut epiphany, mut refcpu) = (base.epiphany_params(), base.refcpu_params());
    let mut faults = None;
    for (i, (key, value)) in members.iter().enumerate() {
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("'{key}' is set twice"));
        }
        let refused = || format!("{mapping} x {platform} takes no '{key}'");
        let bad = |what: &str| format!("'{key}' must be {what}, got {value}");
        match key.as_str() {
            "cores" if row.keys.contains(&"cores") => {
                let n = value.as_u64().filter(|n| (1..=4096).contains(n));
                let n = n.ok_or_else(|| bad("an integer from 1 to 4096"))?;
                row.opts.spmd.cores = Some(usize::try_from(n).expect("at most 4096"));
            }
            "prefetch" if row.keys.contains(&"prefetch") => {
                row.opts.spmd.prefetch = value.as_bool().ok_or_else(|| bad("true or false"))?;
            }
            "placement" if row.keys.contains(&"placement") => {
                let place = match value {
                    Json::Str(operand) => Placement::resolve(operand).map_err(|d| d.message)?,
                    _ => Placement::from_json(value).map_err(|e| format!("bad placement: {e}"))?,
                };
                if let Some(p) = epiphany.filter(|p| !place.fits(p.mesh_cols, p.mesh_rows)) {
                    let (cols, rows) = (p.mesh_cols, p.mesh_rows);
                    return Err(format!(
                        "placement does not fit the {cols}x{rows} {} mesh",
                        base.label()
                    ));
                }
                row.opts.place = place;
            }
            "elink_bytes_per_cycle" => {
                let p = epiphany.as_mut().ok_or_else(refused)?;
                let bytes = value.as_u64().filter(|&b| b >= 1);
                p.emesh.elink_bytes_per_cycle = bytes.ok_or_else(|| bad("a positive integer"))?;
            }
            "clock_mhz" => {
                let p = epiphany.as_mut().ok_or_else(refused)?;
                let mhz = value.as_f64().filter(|f| (1.0..=100_000.0).contains(f));
                p.clock = Frequency::mhz(mhz.ok_or_else(|| bad("from 1 to 100000"))?);
            }
            "cache_prefetch" => {
                let p = refcpu.as_mut().ok_or_else(refused)?;
                p.hierarchy.prefetch = value.as_bool().ok_or_else(|| bad("true or false"))?;
            }
            "faults" => {
                let text = value.to_string_pretty();
                FaultPlan::parse(&text, 0).map_err(|e| format!("bad fault spec: {e}"))?;
                faults = Some(text);
            }
            "cores" | "prefetch" | "placement" => return Err(refused()),
            _ => return Err(format!("unknown key '{key}'; expected one of {SET_KEYS}")),
        }
    }
    let platform: Box<dyn Platform> = match (epiphany, refcpu) {
        (Some(params), _) => Box::new(EpiphanyPlatform {
            params,
            label: base.label(),
        }),
        (_, Some(params)) => Box::new(RefCpuPlatform { params }),
        _ => base,
    };
    Ok(Configured {
        mapping: Box::new(row),
        platform,
        faults,
    })
}

/// The registered pairs a `--mapping`, `--platform` and `--placement`
/// select: `mapping`, or every registered mapping in registry order,
/// each on `platform`, or on every platform it supports in
/// `all_platforms` order. `placement` re-places the mappings that take
/// one. Errors are coded: `CLI001` for an unknown name, `CLI003` or
/// `CLI007` from [`Placement::resolve`], and `CLI007` for a placement
/// that does not fit a platform's mesh. Like [`configured`], it does
/// not check that the mapping supports a named `platform`.
pub fn selected(
    mapping: Option<&str>,
    platform: Option<&str>,
    placement: Option<&str>,
) -> Result<Vec<Configured>, Diagnostic> {
    let place = placement.map(Placement::resolve).transpose()?;
    let unknown = |flag: &str, name: &str| {
        let message = format!("unknown {flag} name");
        Diagnostic::hard("CLI001", format!("--{flag} {name}"), message)
    };
    let rows: Vec<&Row> = match mapping {
        Some(name) => vec![ROWS
            .iter()
            .find(|row| row.name == name)
            .ok_or_else(|| unknown("mapping", name))?],
        None => ROWS.iter().collect(),
    };
    let platforms = match platform {
        Some(name) => vec![platform_named(name).ok_or_else(|| unknown("platform", name))?],
        None => all_platforms(),
    };
    let mut pairs = Vec::new();
    for row in rows {
        let set = match place {
            Some(place) if row.keys.contains(&"placement") => {
                Json::obj().with("placement", place.to_json())
            }
            _ => Json::obj(),
        };
        for p in platforms
            .iter()
            .filter(|p| platform.is_some() || row.supports(p.kind()))
        {
            pairs.push(configured(row.name, p.label(), &set).map_err(|e| {
                let subject = format!("--placement {}", placement.unwrap_or_default());
                Diagnostic::hard("CLI007", subject, e)
            })?);
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_harness::{all_platforms, platform_named, run, AutofocusWorkload};

    #[test]
    fn labels_state_the_clock_the_chip_ran_at() {
        let label = |set: Json| {
            let pair = configured("ffbp_spmd", "epiphany", &set).expect("a valid set block");
            let w = Workload::named("ffbp", true).unwrap();
            let record = run(pair.mapping.as_ref(), &w, pair.platform.as_ref())
                .unwrap()
                .record;
            (record.label, record.elapsed.clock.hz())
        };
        assert_eq!(
            label(Json::obj()),
            ("FFBP / Epiphany, 16 cores @ 1 GHz (SPMD)".to_string(), 1e9)
        );
        assert_eq!(
            label(Json::obj().with("clock_mhz", 400u32)),
            (
                "FFBP / Epiphany, 16 cores @ 400 MHz (SPMD)".to_string(),
                4e8
            )
        );
        let clock = |hz: f64| crate::clock_label(Frequency::hz_new(hz));
        assert_eq!(
            [clock(2.67e9), clock(1.5e9), clock(6e8)],
            ["2.67 GHz", "1.5 GHz", "600 MHz"]
        );
    }

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
        let scattered = Json::obj().with("placement", "scattered");
        for row in &ROWS {
            let w = Workload::named(row.kernel, true).unwrap();
            let default = row.program_model(&w, epiphany.as_ref());
            let placeable = matches!(row.name, "autofocus_mpmd" | "autofocus_net");
            assert_eq!(row.keys.contains(&"placement"), placeable);
            match configured(row.name, "epiphany", &scattered) {
                Ok(placed) => {
                    assert!(placeable, "{} took a placement", row.name);
                    let placed = placed.mapping.program_model(&w, epiphany.as_ref());
                    assert_ne!(default.map(|m| m.cores), placed.map(|m| m.cores));
                }
                Err(e) => {
                    assert!(!placeable, "{}: {e}", row.name);
                    assert!(e.contains("takes no 'placement'"), "{e}");
                }
            }
        }
    }

    #[test]
    fn an_empty_set_is_the_registry_pair_and_overrides_reach_the_driver() {
        let w = Workload::named("ffbp", true).unwrap();
        let plain = run(
            mapping_named("ffbp_spmd").unwrap().as_ref(),
            &w,
            platform_named("epiphany").unwrap().as_ref(),
        )
        .unwrap();
        let via = |set: Json| {
            let pair = configured("ffbp_spmd", "epiphany", &set).unwrap();
            run(pair.mapping.as_ref(), &w, pair.platform.as_ref())
                .unwrap()
                .record
        };
        let same = via(Json::obj());
        assert_eq!(same.to_json(), plain.record.to_json());
        let four = via(Json::obj().with("cores", 4u64));
        assert_eq!(four.cores_used, 4);
        let slow = via(Json::obj().with("clock_mhz", 400.0));
        assert_eq!(slow.elapsed.cycles, plain.record.elapsed.cycles);
        assert!(slow.elapsed.seconds() > plain.record.elapsed.seconds());
        assert_eq!(slow.platform, "epiphany");
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
                assert!(row.run(&foreign, p.as_ref(), &ctx).is_none());
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
                assert!(row.run(&own, p.as_ref(), &ctx).is_none());
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
