//! Byte-identity pins for the sweep fast paths (DESIGN.md §3 S17).
//!
//! Two closed-form shortcuts ride under every sweep: the seed
//! fast-forward in `run_grid` (one simulated representative per pair,
//! remaining seeds derived by re-stamping `fault_seed`) and the
//! chip-level burst executor (`Chip::read_external_run` absorbing
//! off-chip read spans without per-event stepping). Both claim *byte*
//! identity with the per-event path, so both are pinned here across
//! every registered Mapping × Platform pair at small scale.
//!
//! The one wall-clock pair (`ffbp_host` × `host`) measures real time,
//! so its `elapsed` span is neutralised before comparison; everything
//! else in its record must still match byte for byte.

use desim::trace::Tracer;
use desim::{Cycle, Frequency, Json, RunRecord, TimeSpan};
use sar_epiphany::{all_mappings, mapping_named};
use sim_harness::{
    all_platforms, platform_named, run_ctx, FaultPlan, FaultState, RunContext, Workload,
};
use sweep::{run_grid, CellCache, GridSpec, PairSpec};

/// Every supported Mapping × Platform combination, by registry name.
fn registered_pairs() -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    for m in all_mappings() {
        for p in all_platforms() {
            if m.supports(p.kind()) {
                pairs.push((m.name().to_string(), p.label().to_string()));
            }
        }
    }
    assert!(pairs.len() >= 13, "registry shrank: {} pairs", pairs.len());
    pairs
}

fn wall_clock(platform: &str) -> bool {
    platform == "host"
}

/// Serialise a record, pinning the wall-clock span of host runs to a
/// constant so the comparison covers every deterministic field.
fn canonical(record: &RunRecord, platform: &str) -> String {
    let mut record = record.clone();
    if wall_clock(platform) {
        record.elapsed = TimeSpan::new(Cycle(1), Frequency::ghz(1.0));
        // The harness-synthesised power timeline closes its epochs at
        // the wall-clock makespan, so it is neutralised the same way.
        if let Some(power) = &mut record.power {
            for e in &mut power.timeline.epochs {
                e.start = Cycle::ZERO;
                e.end = Cycle(1);
            }
        }
    }
    record.to_json().to_string_pretty()
}

fn simulate_direct(mapping: &str, platform: &str, seed: u64) -> RunRecord {
    let m = mapping_named(mapping).expect("registered mapping");
    let p = platform_named(platform).expect("registered platform");
    let w = Workload::named(m.kernel(), true).expect("registered kernel");
    let ctx = RunContext::plain().with_faults(FaultState::from_plan(&FaultPlan::empty(seed)));
    run_ctx(m.as_ref(), &w, p.as_ref(), &ctx)
        .expect("supported pair runs")
        .record
}

#[test]
fn derived_seed_records_match_direct_simulation() {
    for (mapping, platform) in registered_pairs() {
        let spec = GridSpec {
            name: "equiv".to_string(),
            small: true,
            pairs: vec![PairSpec {
                mapping: mapping.clone(),
                platform: platform.clone(),
                set: None,
                placement_file: None,
            }],
            seeds: vec![1, 2],
            faults: None,
        };
        let out = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
        assert_eq!(
            out.cells_run, 1,
            "{mapping} x {platform}: one representative"
        );
        assert_eq!(
            out.cells_derived, 1,
            "{mapping} x {platform}: one derived seed"
        );
        let cells = out
            .document
            .get("cells")
            .and_then(Json::as_array)
            .expect("cells array");
        for (cell, seed) in cells.iter().zip([1u64, 2]) {
            let in_grid = cell.get("record").expect("cell record");
            let direct = simulate_direct(&mapping, &platform, seed);
            if wall_clock(&platform) {
                let parsed = RunRecord::from_json(in_grid).expect("record parses");
                assert_eq!(
                    canonical(&parsed, &platform),
                    canonical(&direct, &platform),
                    "{mapping} x {platform} seed {seed}: derived vs direct (wall clock pinned)"
                );
            } else {
                assert_eq!(
                    in_grid.to_string_pretty(),
                    direct.to_json().to_string_pretty(),
                    "{mapping} x {platform} seed {seed}: derived record differs from direct simulation"
                );
            }
        }
    }
}

#[test]
fn traced_and_untraced_records_are_byte_identical() {
    // Tracing disables the burst executor (spans must be emitted per
    // event), so this pins that the absorbed fast path is invisible in
    // the closed record of every registered pair.
    for (mapping, platform) in registered_pairs() {
        let m = mapping_named(&mapping).expect("registered mapping");
        let p = platform_named(&platform).expect("registered platform");
        let w = Workload::named(m.kernel(), true).expect("registered kernel");
        let plain = RunContext::plain().with_faults(FaultState::from_plan(&FaultPlan::empty(7)));
        let traced = RunContext::traced(Tracer::enabled())
            .with_faults(FaultState::from_plan(&FaultPlan::empty(7)));
        let a = run_ctx(m.as_ref(), &w, p.as_ref(), &plain)
            .expect("untraced run")
            .record;
        let b = run_ctx(m.as_ref(), &w, p.as_ref(), &traced)
            .expect("traced run")
            .record;
        assert_eq!(
            canonical(&a, &platform),
            canonical(&b, &platform),
            "{mapping} x {platform}: tracing changed the record"
        );
    }
}
