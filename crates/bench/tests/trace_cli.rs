//! The unified runner's `--trace P` surface: one Chrome `trace_event`
//! document per executed pair, with a span track for every core the
//! mapping drove.

use std::collections::BTreeSet;
use std::process::Command;

use desim::Json;

#[test]
fn trace_flag_writes_a_chrome_document_with_every_core_track() {
    let path = std::env::temp_dir().join(format!("trace-cli-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_run"))
        .args(["--mapping", "ffbp_spmd", "--platform", "epiphany"])
        .args(["--small", "--no-write", "--trace"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("trace is one JSON document");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    // Complete ("X") events of the core family (pid 2), by track.
    let cores: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(2))
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    assert!(cores.len() >= 16, "only {} core tracks", cores.len());
}
