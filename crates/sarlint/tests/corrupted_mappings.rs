//! Negative-path fixtures: four ways of corrupting a real mapping's
//! program model, each rejected with its own diagnostic code — the
//! analyzer distinguishes *what* broke, not just *that* something did.
//!
//! Each fixture starts from the genuine `autofocus_mpmd` /
//! `ffbp_spmd` model (which passes all checks — see
//! `all_registered_pairs_are_clean`) and applies one minimal
//! corruption, so every test pins one check against one invariant.

use memsim::SramParams;
use sar_epiphany::{all_mappings, configured, mapping_named};
use sarlint::{analyze_model, analyze_pair};
use sim_harness::{all_platforms, ProgramModel, Workload};

/// The genuine pipeline model the corruptions start from.
fn pipeline_model() -> ProgramModel {
    let m = mapping_named("autofocus_mpmd").expect("registered");
    let w = Workload::named("autofocus", true).expect("registered");
    let p = sim_harness::platform_named("epiphany").expect("registered");
    m.program_model(&w, p.as_ref())
        .expect("pipeline has a model")
}

fn sram() -> SramParams {
    SramParams::default()
}

#[test]
fn all_registered_pairs_are_clean() {
    // Covers the e64 rows too: every Epiphany-kind mapping must place
    // and fit on the 8x8 mesh exactly as it does on the 4x4 (rebased
    // placements keep their hop counts, so SL005 stays quiet).
    let mut analyzed = 0;
    let mut on_e64 = 0;
    for m in all_mappings() {
        let w = Workload::named(m.kernel(), true).expect("registered kernel");
        for p in all_platforms() {
            if !m.supports(p.kind()) {
                continue;
            }
            let r = analyze_pair(m.as_ref(), &w, p.as_ref());
            assert!(
                r.is_clean(),
                "{} x {} must pass: {:?}",
                m.name(),
                p.label(),
                r.diagnostics
            );
            analyzed += 1;
            if p.label() == "e64" {
                on_e64 += 1;
            }
        }
    }
    let expected: usize = all_mappings()
        .iter()
        .map(|m| {
            all_platforms()
                .iter()
                .filter(|p| m.supports(p.kind()))
                .count()
        })
        .sum();
    assert_eq!(analyzed, expected, "every supported pair analyzed once");
    assert_eq!(on_e64, 7, "all seven Epiphany mappings analyze on the e64");
}

#[test]
fn corrupted_bank_overflow_is_sl001() {
    let mut model = pipeline_model();
    // Grow the first range-stage block past the end of its 8 KB bank.
    model.buffers[0].bytes = sram().bank_bytes + 1;
    let r = analyze_model(&model, &sram());
    assert!(!r.is_clean());
    assert!(r.has_code("SL001"), "{:?}", r.diagnostics);
    assert!(!r.has_code("SL003") && !r.has_code("SL006"));
}

#[test]
fn corrupted_cyclic_pipeline_is_sl003() {
    let mut model = pipeline_model();
    // Feed the correlator's output back into the first range stage:
    // the pipeline DAG becomes a loop.
    let (first_from, last_to) = (model.channels[0].from, model.channels.last().unwrap().to);
    model.channel("corr->range00.feedback", last_to, first_from);
    let r = analyze_model(&model, &sram());
    assert!(!r.is_clean());
    assert!(r.has_code("SL003"), "{:?}", r.diagnostics);
    assert!(!r.has_code("SL001") && !r.has_code("SL006"));
}

#[test]
fn corrupted_scattered_placement_is_sl005() {
    // The scattered placement is the genuine "corruption": same
    // stages, same channels, stages flung across the mesh.
    let scattered = desim::Json::obj().with("placement", "scattered");
    let pair = configured("autofocus_mpmd", "epiphany", &scattered).expect("registered");
    let w = Workload::named("autofocus", true).expect("registered");
    let r = analyze_pair(pair.mapping.as_ref(), &w, pair.platform.as_ref());
    assert!(!r.is_clean());
    assert!(r.has_code("SL005"), "{:?}", r.diagnostics);
    // Hard findings name the offending hop in mesh coordinates.
    let hard = r.hard().next().expect("at least one hard finding");
    assert_eq!(hard.code, "SL005");
    assert!(hard.message.contains("hops"), "{}", hard.message);
    assert!(!r.has_code("SL001") && !r.has_code("SL003"));
}

#[test]
fn corrupted_unmatched_flag_wait_is_sl006() {
    let mut model = pipeline_model();
    // The consumer now waits twice per round on a flag set once.
    model.flags[0].waits += 1;
    let r = analyze_model(&model, &sram());
    assert!(!r.is_clean());
    assert!(r.has_code("SL006"), "{:?}", r.diagnostics);
    assert!(!r.has_code("SL001") && !r.has_code("SL003"));
}

#[test]
fn the_four_corruptions_have_distinct_codes() {
    // The acceptance criterion in one place: four corrupted mappings,
    // four different stable codes.
    let codes = ["SL001", "SL003", "SL005", "SL006"];
    let mut dedup = codes.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), 4);
}
