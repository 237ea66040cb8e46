//! The cost model's acceptance criterion (DESIGN.md §3 S19): for every
//! registered Mapping × Platform pair, the static bounds must bracket
//! the simulated run — `cycles.lo <= elapsed <= cycles.hi` and
//! `total_j.lo <= energy <= total_j.hi`. Wall-clock pairs (the host
//! mapping) are exempt: they report unbounded. The driver options the
//! registry never sets (the ones `models.jsonl` and
//! `option_records.jsonl` pin) are bracketed the same way.

use desim::record::RunRecord;
use epiphany::EpiphanyParams;
use sar_epiphany::all_mappings;
use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_epiphany::rda_spmd::{self, RdaSpmdOptions};
use sarlint::cost::{cost_pair, epiphany_cost, CostReport};
use sim_harness::{all_platforms, run, FfbpWorkload, RdaWorkload, RunContext, Workload};

fn assert_bracketed(case: &str, cost: &CostReport, record: &RunRecord) {
    let elapsed = record.elapsed.cycles.raw() as f64;
    let energy = record.energy_j();
    // Shown under `-- --nocapture` (EXPERIMENTS.md A12 quotes these).
    println!(
        "{case}: {elapsed} cycles in [{}, {}], {energy:.4e} J in [{:.4e}, {:.4e}]",
        cost.cycles.lo, cost.cycles.hi, cost.total_j.lo, cost.total_j.hi
    );
    assert!(
        cost.cycles.contains(elapsed),
        "{case}: elapsed {elapsed} outside cycle bound [{}, {}]",
        cost.cycles.lo,
        cost.cycles.hi
    );
    assert!(
        cost.total_j.contains(energy),
        "{case}: energy {energy} J outside bound [{}, {}] J",
        cost.total_j.lo,
        cost.total_j.hi
    );
    assert!(
        cost.cycles.lo > 0.0,
        "{case}: a simulated run must have a non-trivial lower bound"
    );
}

#[test]
fn static_bounds_bracket_every_simulated_pair() {
    let mut bounded_pairs = 0;
    let mut unbounded_pairs = 0;
    for m in all_mappings() {
        let w = Workload::named(m.kernel(), true).expect("registered kernel");
        for p in all_platforms() {
            if !m.supports(p.kind()) {
                continue;
            }
            let pair = format!("{} x {}", m.name(), p.label());
            let (cost, _lints) = cost_pair(m.as_ref(), &w, p.as_ref());
            if !cost.bounded {
                unbounded_pairs += 1;
                assert_eq!(
                    p.label(),
                    "host",
                    "{pair}: only wall-clock pairs may be unbounded"
                );
                continue;
            }
            bounded_pairs += 1;
            let run = run(m.as_ref(), &w, p.as_ref()).expect("pair simulates");
            assert_bracketed(&pair, &cost, &run.record);
        }
    }
    assert_eq!(
        (bounded_pairs, unbounded_pairs),
        (16, 1),
        "16 simulated pairs bracketed, the host pair unbounded"
    );
}

#[test]
fn static_bounds_bracket_the_driver_option_paths() {
    let ctx = RunContext::plain();
    let (e16, e64) = (EpiphanyParams::default(), EpiphanyParams::e64());
    let mesh = |p: &EpiphanyParams| (p.mesh_cols, p.mesh_rows);

    let ffbp = FfbpWorkload::small();
    let pinned = |cores| SpmdOptions {
        cores: Some(cores),
        ..SpmdOptions::default()
    };
    let no_prefetch = SpmdOptions {
        prefetch: false,
        ..SpmdOptions::default()
    };
    for (case, opts, params) in [
        ("ffbp_spmd cores=4", pinned(4), e16),
        ("ffbp_spmd cores=32 (covering mesh)", pinned(32), e16),
        ("ffbp_spmd prefetch=off", no_prefetch, e16),
        ("ffbp_spmd cores=16 on e64", pinned(16), e64),
    ] {
        let cost = epiphany_cost(&ffbp_spmd::model(&ffbp, &opts, mesh(&params)), &params);
        let run = ffbp_spmd::run(&ffbp, params, opts, &ctx);
        assert_bracketed(case, &cost, &run.record);
    }

    let rda = RdaWorkload::small();
    let opts = RdaSpmdOptions { cores: Some(4) };
    let cost = epiphany_cost(&rda_spmd::model(&rda, &opts, mesh(&e16)), &e16);
    let run = rda_spmd::run(&rda, e16, opts, &ctx);
    assert_bracketed("rda_spmd cores=4", &cost, &run.record);
}
