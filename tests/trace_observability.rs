//! Cross-crate checks for the tracing layer: a traced harness run must
//! produce a deterministic, schema-valid Chrome `trace_event` document
//! with one track per core plus mesh-link tracks, and the heatmap in
//! the record must account for every byte-hop the run priced.

use sar_repro::desim::trace::Tracer;
use sar_repro::desim::Json;
use sar_repro::sar_epiphany::mapping_named;
use sar_repro::sim_harness::{platform_named, run_traced, Workload};

/// Run `ffbp_spmd` on the Epiphany at small scale with a recording
/// tracer; return the record and the serialised Chrome trace.
fn traced_spmd_run() -> (sar_repro::desim::RunRecord, String) {
    let mapping = mapping_named("ffbp_spmd").unwrap();
    let platform = platform_named("epiphany").unwrap();
    let workload = Workload::named("ffbp", true).unwrap();
    let tracer = Tracer::enabled();
    let out = run_traced(mapping.as_ref(), &workload, platform.as_ref(), &tracer).unwrap();
    let json = tracer
        .to_chrome_json(out.record.elapsed.clock)
        .to_string_pretty();
    (out.record, json)
}

fn events(doc: &Json) -> Vec<Json> {
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .to_vec()
}

#[test]
fn identical_runs_export_byte_identical_traces() {
    let (_, a) = traced_spmd_run();
    let (_, b) = traced_spmd_run();
    assert_eq!(a, b, "trace export must be deterministic");
}

#[test]
fn every_event_carries_the_chrome_schema_fields() {
    let (_, json) = traced_spmd_run();
    let doc = Json::parse(&json).expect("trace must parse");
    let evs = events(&doc);
    assert!(!evs.is_empty());
    for e in &evs {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph field");
        assert!(e.get("pid").and_then(Json::as_u64).is_some(), "pid field");
        assert!(e.get("tid").and_then(Json::as_u64).is_some(), "tid field");
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts field");
        match ph {
            "X" => assert!(e.get("dur").and_then(Json::as_f64).is_some()),
            "C" => assert!(e
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .is_some()),
            "i" | "M" => {}
            other => panic!("unexpected phase '{other}'"),
        }
    }
}

#[test]
fn spmd_trace_has_all_core_tracks_and_mesh_link_tracks() {
    let (_, json) = traced_spmd_run();
    let doc = Json::parse(&json).expect("trace must parse");
    let evs = events(&doc);
    // pid 2 = cores, pids 4/5/6 = the three mesh planes (see
    // desim::trace::Track).
    let mut core_tids = std::collections::BTreeSet::new();
    let mut link_tracks = std::collections::BTreeSet::new();
    for e in &evs {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let pid = e.get("pid").and_then(Json::as_u64).unwrap();
        let tid = e.get("tid").and_then(Json::as_u64).unwrap();
        match pid {
            2 => {
                core_tids.insert(tid);
            }
            4..=6 => {
                link_tracks.insert((pid, tid));
            }
            _ => {}
        }
    }
    assert!(core_tids.len() >= 16, "core tracks: {}", core_tids.len());
    assert!(!link_tracks.is_empty(), "expected mesh-link tracks");
}

#[test]
fn trace_exports_per_component_power_counter_tracks() {
    let (_, json) = traced_spmd_run();
    let doc = Json::parse(&json).expect("trace must parse");
    let mut counter_names = std::collections::BTreeSet::new();
    for e in events(&doc) {
        if e.get("ph").and_then(Json::as_str) == Some("C") {
            let name = e.get("name").and_then(Json::as_str).expect("counter name");
            counter_names.insert(name.to_string());
        }
    }
    // The cumulative-energy counter plus one average-power track per
    // energy component, sampled at every phase boundary.
    for name in [
        "energy_j",
        "power_compute_w",
        "power_sram_w",
        "power_mesh_w",
        "power_elink_w",
        "power_sdram_w",
        "power_static_w",
    ] {
        assert!(
            counter_names.contains(name),
            "missing counter track '{name}' (have {counter_names:?})"
        );
    }
}

#[test]
fn heatmap_accounts_for_every_byte_hop() {
    let (record, _) = traced_spmd_run();
    let heatmap = record.mesh_heatmap.as_ref().expect("epiphany heatmap");
    assert_eq!(
        heatmap.total_byte_hops(),
        record.counters.get("mesh_byte_hops"),
        "heatmap must sum to the run's total byte-hops"
    );
    // The per-phase mesh blocks partition the same total.
    let phase_total: u64 = record.phases.iter().map(|p| p.mesh.total_byte_hops()).sum();
    assert_eq!(phase_total, heatmap.total_byte_hops());
}
