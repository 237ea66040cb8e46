//! The `sarlint` binary's observable contract: exit status 0 for a
//! clean analysis, 1 for hard findings, 2 for a bad command line;
//! `--json` emits one parseable document whose schema the CI gate
//! reads, `--cost` appends a bounds summary per pair.

use desim::Json;
use std::process::Command;

fn sarlint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sarlint"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn all_registered_pairs_pass_the_gate() {
    let out = sarlint(&["--all", "--small"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("17 pair(s) analyzed, 0 hard finding(s)"),
        "{stdout}"
    );
}

#[test]
fn json_output_is_parseable_and_covers_every_pair() {
    let out = sarlint(&["--all", "--small", "--json", "--cost"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(&stdout).expect("stdout is one JSON document");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("sarlint"));
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("small"));
    assert_eq!(doc.get("pairs_analyzed").and_then(Json::as_u64), Some(17));
    assert_eq!(doc.get("hard_findings").and_then(Json::as_u64), Some(0));
    let pairs = doc
        .get("pairs")
        .and_then(Json::as_array)
        .expect("pairs array");
    assert_eq!(pairs.len(), 17);
    let mut bounded_pairs = 0;
    for pair in pairs {
        assert_eq!(pair.get("clean").and_then(Json::as_bool), Some(true));
        assert!(pair.get("mapping").and_then(Json::as_str).is_some());
        assert!(pair.get("platform").and_then(Json::as_str).is_some());
        assert!(pair.get("diagnostics").and_then(Json::as_array).is_some());
        // --cost attaches a cost object to every analyzable pair; the
        // host pair carries bounded=false with null bound edges.
        let cost = pair.get("cost").expect("costed pair");
        let bounded = cost.get("bounded").and_then(Json::as_bool).expect("flag");
        let cycles = cost.get("cycles").expect("cycles bound");
        if bounded {
            bounded_pairs += 1;
            let lo = cycles.get("lo").and_then(Json::as_f64).expect("finite lo");
            let hi = cycles.get("hi").and_then(Json::as_f64).expect("finite hi");
            assert!(0.0 < lo && lo <= hi, "{pair:?}");
            let joules = cost.get("energy_j").and_then(|e| e.get("total"));
            let edge = |k| joules.and_then(|j| j.get(k)).and_then(Json::as_f64);
            assert!(
                edge("lo").expect("lo") <= edge("hi").expect("hi"),
                "{pair:?}"
            );
        } else {
            assert!(matches!(cycles.get("hi"), Some(Json::Null)), "{pair:?}");
        }
    }
    assert_eq!(bounded_pairs, 16, "every pair but the host one is bounded");
}

#[test]
fn cost_summary_prints_per_pair_in_prose_mode() {
    let out = sarlint(&["--all", "--small", "--cost"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("cost:").count(),
        17,
        "one cost line per pair:\n{stdout}"
    );
    assert!(stdout.contains("cost: cycles ["), "{stdout}");
    assert!(
        stdout.contains("cost: unbounded"),
        "the host pair reports unbounded:\n{stdout}"
    );
}

#[test]
fn scattered_placement_fails_with_exit_1_and_sl005() {
    let out = sarlint(&[
        "--mapping",
        "autofocus_mpmd",
        "--placement",
        "scattered",
        "--small",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SL005"), "{stdout}");
}

#[test]
fn bad_names_exit_2_with_cli_codes() {
    let out = sarlint(&["--mapping", "nosuch"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI001"));

    let out = sarlint(&["--placement", "diagonal"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI003"));

    let out = sarlint(&["--mapping"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI002"));
}

#[test]
fn an_undeclared_flag_is_cli008_before_any_analysis() {
    for args in [
        &["--bogus"][..],
        &["--all", "--small", "--smal"],
        &["--out", "x.json"],
    ] {
        let out = sarlint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let bad = args
            .iter()
            .rev()
            .find(|a| a.starts_with("--"))
            .expect("a flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("CLI008] {bad}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} analyzed before stopping");
    }
}

#[test]
fn help_lists_the_flags_and_exits_0() {
    let out = sarlint(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--all",
        "--mapping M",
        "--platform P",
        "--placement S",
        "--small",
        "--dynamic",
        "--cost",
        "--json",
        "--help",
    ] {
        assert!(help.contains(flag), "--help lacks {flag}:\n{help}");
    }
    // It writes no document, so it takes none of the document flags.
    assert!(!help.contains("--out"), "{help}");
}
