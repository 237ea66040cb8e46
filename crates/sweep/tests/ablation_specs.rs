//! The gate for the checked-in grid specs (`specs/*.json`): each one,
//! forced to small scale, runs, and every cell's record is the bytes of
//! the call it stands for.
//!
//! * A pair with a `set` block stands for a call a report binary used
//!   to make before its ablation became a spec (`scaling`,
//!   `prefetch_ablation`, `bandwidth_sweep`, `clock_sweep`,
//!   `fault_sweep`). [`binary_call`] holds each call as that binary
//!   wrote it, wrapped in a test-local [`Mapping`] and run through
//!   `run_ctx` under the fault plan the cell arms — the binary's own
//!   fault spec text, for `fault_sweep`.
//! * A pair without one is the registered pair, exactly as before.

use desim::{Frequency, Json};
use epiphany::EpiphanyParams;
use refcpu::RefCpuParams;
use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_epiphany::rda_spmd::{self, RdaSpmdOptions};
use sar_epiphany::{autofocus_mpmd, autofocus_seq, ffbp_ref, mapping_named};
use sim_harness::{
    platform_named, run_ctx, FaultPlan, FaultState, HarnessError, Mapping, MappingRun, Placement,
    Platform, PlatformKind, RunContext, Workload,
};
use sweep::{run_grid, CellCache, GridSpec, PairSpec};

/// One driver call on a cell's workload and context.
type Call = Box<dyn Fn(&Workload, &RunContext) -> MappingRun + Sync>;

/// A driver call standing in for a registered mapping of the same name.
struct Reference {
    name: &'static str,
    kernel: &'static str,
    call: Call,
}

impl Mapping for Reference {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kernel(&self) -> &'static str {
        self.kernel
    }
    fn supports(&self, _: PlatformKind) -> bool {
        true
    }
    fn execute(
        &self,
        workload: &Workload,
        _: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        Ok((self.call)(workload, ctx))
    }
}

/// `fault_sweep`'s spec: `n` of each perturbation kind drawn from the
/// first `window` cycles of the run (copied from the binary).
fn spec(n: u64, window: u64) -> String {
    format!(
        r#"{{"version": 1, "faults": [
            {{"kind": "flag_drop", "count": {n}, "window": [0, {window}]}},
            {{"kind": "sdram_bit_error", "count": {n}, "window": [0, {window}]}},
            {{"kind": "elink_degrade", "count": {n}, "window": [0, {window}], "extra": 128}},
            {{"kind": "mesh_stall", "count": {n}, "window": [0, {window}], "extra": 256}}
        ]}}"#
    )
}

/// The call a deleted binary made for `mapping` with the one-key `set`.
fn binary_call(mapping: &str, set: &Json) -> Call {
    let [(key, value)] = set.as_object().expect("an object") else {
        panic!("no binary varied two options at once: {set}");
    };
    let n = value.as_u64();
    let cores = || usize::try_from(n.expect("an integer")).expect("fits");
    match (mapping, key.as_str()) {
        // scaling
        ("ffbp_spmd", "cores") => {
            let cores = cores();
            Box::new(move |w, ctx| {
                ffbp_spmd::run(
                    w.ffbp().unwrap(),
                    EpiphanyParams::default(),
                    SpmdOptions {
                        cores: Some(cores),
                        ..SpmdOptions::default()
                    },
                    ctx,
                )
                .into()
            })
        }
        // The same sweep over the RDA driver, which no binary made.
        ("rda_spmd", "cores") => {
            let cores = cores();
            Box::new(move |w, ctx| {
                rda_spmd::run(
                    w.rda().unwrap(),
                    EpiphanyParams::default(),
                    RdaSpmdOptions { cores: Some(cores) },
                    ctx,
                )
                .into()
            })
        }
        // prefetch_ablation
        ("ffbp_spmd", "prefetch") => {
            assert_eq!(value.as_bool(), Some(false), "the binary turned it off");
            Box::new(|w, ctx| {
                ffbp_spmd::run(
                    w.ffbp().unwrap(),
                    EpiphanyParams::default(),
                    SpmdOptions {
                        prefetch: false,
                        ..SpmdOptions::default()
                    },
                    ctx,
                )
                .into()
            })
        }
        ("ffbp_ref", "cache_prefetch") => {
            assert_eq!(value.as_bool(), Some(false), "the binary turned it off");
            Box::new(|w, _| {
                ffbp_ref::run(w.ffbp().unwrap(), RefCpuParams::without_prefetch()).into()
            })
        }
        // bandwidth_sweep
        ("ffbp_spmd", "elink_bytes_per_cycle") => {
            let bpc = n.expect("an integer");
            Box::new(move |w, ctx| {
                let mut p = EpiphanyParams::default();
                p.emesh.elink_bytes_per_cycle = bpc;
                ffbp_spmd::run(w.ffbp().unwrap(), p, SpmdOptions::default(), ctx).into()
            })
        }
        ("autofocus_mpmd", "elink_bytes_per_cycle") => {
            let bpc = n.expect("an integer");
            Box::new(move |w, ctx| {
                let mut ap = autofocus_seq::params();
                ap.emesh.elink_bytes_per_cycle = bpc;
                autofocus_mpmd::run(w.autofocus().unwrap(), ap, Placement::neighbor(), ctx).into()
            })
        }
        // clock_sweep
        ("ffbp_spmd", "clock_mhz") => {
            let mhz = value.as_f64().expect("a number");
            Box::new(move |w, ctx| {
                let p = EpiphanyParams {
                    clock: Frequency::mhz(mhz),
                    ..EpiphanyParams::default()
                };
                ffbp_spmd::run(w.ffbp().unwrap(), p, SpmdOptions::default(), ctx).into()
            })
        }
        ("autofocus_seq", "clock_mhz") => {
            let mhz = value.as_f64().expect("a number");
            Box::new(move |w, ctx| {
                let ap = EpiphanyParams {
                    clock: Frequency::mhz(mhz),
                    ..autofocus_seq::params()
                };
                autofocus_seq::run(w.autofocus().unwrap(), ap, ctx).into()
            })
        }
        // fault_sweep: the plan arrives through the context.
        ("ffbp_spmd", "faults") => Box::new(|w, ctx| {
            ffbp_spmd::run(
                w.ffbp().unwrap(),
                epiphany::EpiphanyParams::default(),
                SpmdOptions::default(),
                ctx,
            )
            .into()
        }),
        ("autofocus_mpmd", "faults") => Box::new(|w, ctx| {
            autofocus_mpmd::run(
                w.autofocus().unwrap(),
                autofocus_seq::params(),
                Placement::neighbor(),
                ctx,
            )
            .into()
        }),
        (mapping, key) => panic!("no report binary ran {mapping} with '{key}'; add its call"),
    }
}

/// The fault spec text the call was run under: `fault_sweep`'s own for
/// a `faults` block (level and window read off its first group), the
/// grid's otherwise.
fn fault_text(pair: &PairSpec, grid: Option<&str>) -> Option<String> {
    let Some(block) = pair.set.as_ref().and_then(|s| s.get("faults")) else {
        return grid.map(str::to_string);
    };
    let group = &block.get("faults").and_then(Json::as_array).unwrap()[0];
    let n = group.get("count").and_then(Json::as_u64).unwrap();
    let window = group.get("window").and_then(Json::as_array).unwrap()[1]
        .as_u64()
        .unwrap();
    Some(spec(n, window))
}

#[test]
fn every_checked_in_spec_reproduces_the_calls_it_stands_for() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("specs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let (mut grids, mut with_set, mut without) = (0, 0, 0);
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let name = path.display();
        // faults_demo.json is a fault plan (`run --faults`), not a grid.
        if Json::parse(&text).expect("JSON").get("pairs").is_none() {
            continue;
        }
        let mut spec = GridSpec::parse(&text).unwrap_or_else(|d| panic!("{name}: {d}"));
        spec.small = true;
        let out = run_grid(&spec, 1, &CellCache::empty()).unwrap_or_else(|d| panic!("{name}: {d}"));
        let docs = out.document.get("cells").and_then(Json::as_array).unwrap();
        for (cell, doc) in spec.cells().iter().zip(docs) {
            let pair = &cell.pair;
            let registered = mapping_named(&pair.mapping).expect("registered");
            let w = Workload::named(registered.kernel(), true).unwrap();
            let platform = platform_named(&pair.platform).expect("registered");
            let plan = match fault_text(pair, spec.faults.as_deref()) {
                Some(text) => FaultPlan::parse(&text, cell.seed).expect("the plan parses"),
                None => FaultPlan::empty(cell.seed),
            };
            let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
            let direct = match &pair.set {
                Some(set) => {
                    with_set += 1;
                    let call = Reference {
                        name: registered.name(),
                        kernel: registered.kernel(),
                        call: binary_call(&pair.mapping, set),
                    };
                    run_ctx(&call, &w, platform.as_ref(), &ctx)
                }
                None => {
                    without += 1;
                    run_ctx(registered.as_ref(), &w, platform.as_ref(), &ctx)
                }
            };
            let direct = direct.expect("the call runs").record;
            assert!(
                doc.get("record").map(Json::to_string_pretty)
                    == Some(direct.to_json().to_string_pretty()),
                "{name}: {} x {} seed {} {:?} differs from its call",
                pair.mapping,
                pair.platform,
                cell.seed,
                pair.set.as_ref().map(Json::to_string)
            );
        }
        grids += 1;
    }
    // sweep_smoke, scaling_demo, rda_corner_turn and the six ablation
    // specs; every pair of core_scaling, clock, elink_bandwidth and
    // fault_intensity, and two of memory_ablation's five, carry a `set`.
    assert_eq!(grids, 9);
    assert_eq!((with_set, without), (46, 30));
}
