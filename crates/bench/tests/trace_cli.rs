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

/// The names of the files in `dir`, sorted.
fn names_in(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("directory listed")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn later_traces_are_numbered_beside_the_first() {
    let root = std::env::temp_dir().join(format!("trace-cli-numbered-{}", std::process::id()));
    // A dotted directory, with and without an extension on the file.
    for (file, ext) in [("trace.json", ".json"), ("trace", "")] {
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("out.d");
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let out = Command::new(env!("CARGO_BIN_EXE_run"))
            .args([
                "--platform",
                "refcpu",
                "--small",
                "--no-write",
                "--json",
                "--trace",
            ])
            .arg(dir.join(file))
            .current_dir(&root)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("a document");
        let runs = doc
            .get("records")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        assert!(runs > 1, "{runs} refcpu pair(s)");
        let mut expected: Vec<String> = (1..runs).map(|n| format!("trace-{n}{ext}")).collect();
        expected.push(file.to_string());
        expected.sort();
        assert_eq!(names_in(&dir), expected);
        assert_eq!(names_in(&root), ["out.d"]);
    }
    std::fs::remove_dir_all(&root).ok();
}
