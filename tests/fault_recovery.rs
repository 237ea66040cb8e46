//! End-to-end fault-injection contract (DESIGN.md §3 S15): with a
//! fixed seed and spec the recovered run is bit-identical to the
//! fault-free one where it matters (the formed image / the sweep), the
//! record carries nonzero fault accounting, and re-running the same
//! seed reproduces the record exactly.

use sar_epiphany::mapping_named;
use sim_harness::{platform_named, run_ctx, FaultPlan, FaultState, RunContext, Workload};

const SPEC: &str = r#"{
    "version": 1,
    "faults": [
        {"kind": "sdram_bit_error", "at": 1000},
        {"kind": "elink_degrade", "at": 5000, "extra": 128},
        {"kind": "mesh_stall", "mesh": "cmesh", "at": 9000, "extra": 256},
        {"kind": "core_halt", "core": 11, "at": 30000},
        {"kind": "sdram_bit_error", "count": 3, "window": [0, 200000]}
    ]
}"#;

fn faulted_run(seed: u64) -> sim_harness::MappingRun {
    let plan = FaultPlan::parse(SPEC, seed).expect("spec parses");
    let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
    let platform = platform_named("epiphany").expect("platform resolves");
    let workload = Workload::named("ffbp", true).expect("workload resolves");
    let mapping = mapping_named("ffbp_spmd").expect("mapping resolves");
    run_ctx(mapping.as_ref(), &workload, platform.as_ref(), &ctx).expect("faulted run converges")
}

#[test]
fn recovered_image_is_bit_identical_to_fault_free() {
    let platform = platform_named("epiphany").unwrap();
    let workload = Workload::named("ffbp", true).unwrap();
    let mapping = mapping_named("ffbp_spmd").unwrap();
    let clean = run_ctx(
        mapping.as_ref(),
        &workload,
        platform.as_ref(),
        &RunContext::plain(),
    )
    .unwrap();
    let faulted = faulted_run(42);

    let clean_img = clean.image.expect("ffbp forms an image");
    let faulted_img = faulted.image.expect("ffbp forms an image");
    assert_eq!(
        clean_img.as_slice(),
        faulted_img.as_slice(),
        "recovery must not change a single bit of the formed image"
    );

    // The fault-free record carries no fault accounting at all.
    assert!(!clean.record.faults.any());
    assert_eq!(clean.record.counters.get("fault_seed"), 0);

    // The faulted one accounts for what it survived.
    let f = &faulted.record.faults;
    assert!(f.faults_injected > 0, "the spec must actually fire");
    assert!(f.recovery_cycles > 0, "the redone iteration is paid for");
    assert_eq!(f.degraded_cores, 1, "core 11 halts and is written off");
    assert_eq!(faulted.record.counters.get("fault_seed"), 42);
}

#[test]
fn same_seed_reproduces_the_record_exactly() {
    let a = faulted_run(42);
    let b = faulted_run(42);
    assert_eq!(
        a.record.to_json().to_string_pretty(),
        b.record.to_json().to_string_pretty(),
        "same seed + same spec must reproduce the whole record, byte for byte"
    );
}

/// What a redone phase is charged: `rda_spmd` on `epiphany` at small
/// scale under four plans, each one core halt landing in one of its four
/// checkpointed phases (the fault-free phases start at cycles 0,
/// 143 742, 182 810 and 220 699). `golden/rda_fault_records.jsonl` holds
/// one `RunRecord` JSON line per plan, in phase order, as the commit
/// before the RDA driver loops moved onto a helper thread serialised
/// them. Run with `-- --nocapture` to print fresh lines.
#[test]
fn rda_phase_redo_records_match_the_checked_in_bytes() {
    let platform = platform_named("epiphany").expect("platform resolves");
    let workload = Workload::named("rda", true).expect("workload resolves");
    let mapping = mapping_named("rda_spmd").expect("mapping resolves");
    let expected = include_str!("golden/rda_fault_records.jsonl");
    let halts = [
        ("range", 50_000),
        ("corner_turn", 160_000),
        ("doppler", 200_000),
        ("azimuth", 280_000),
    ];
    assert_eq!(expected.lines().count(), halts.len());
    for ((phase, at), line) in halts.into_iter().zip(expected.lines()) {
        let spec = format!(
            r#"{{"version": 1, "faults": [{{"kind": "core_halt", "core": 6, "at": {at}}}]}}"#
        );
        let plan = FaultPlan::parse(&spec, 5).expect("spec parses");
        let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
        let run = run_ctx(mapping.as_ref(), &workload, platform.as_ref(), &ctx)
            .expect("faulted run converges");
        // The halt is detected, and the phase redone, where it landed.
        let halted: Vec<&str> = run
            .record
            .phases
            .iter()
            .filter(|p| p.metrics.contains_key("halted_cores"))
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(halted, [phase]);
        let fresh = run.record.to_json().to_string();
        println!("{fresh}");
        assert!(fresh == line, "the record halted in {phase} differs");
    }
}

#[test]
fn different_seeds_draw_different_schedules() {
    // The pinned events are identical; the random group's arming
    // cycles must differ between seeds (equal schedules would mean
    // the seed is ignored), and the record is stamped with the seed
    // that produced it.
    let plan1 = FaultPlan::parse(SPEC, 1).unwrap();
    let plan2 = FaultPlan::parse(SPEC, 2).unwrap();
    assert_ne!(
        plan1.events, plan2.events,
        "different seeds must expand the random group differently"
    );
    let a = faulted_run(1);
    let b = faulted_run(2);
    assert_eq!(a.record.counters.get("fault_seed"), 1);
    assert_eq!(b.record.counters.get("fault_seed"), 2);
}
