//! The benchmark's contract with its readers: what `BENCHMARK.json`
//! declares is what `sarbench` prints, under names and counts the
//! driver accepts, and the quick mode is quick.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use desim::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn sarbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sarbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("sarbench starts");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("manifest");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(object: Option<&Json>) -> Vec<String> {
    object
        .and_then(Json::as_object)
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn the_manifest_stays_inside_the_drivers_limits() {
    let m = manifest();
    let (workloads, end_to_end, per_layer) = (
        names(&m, "workloads"),
        names(&m, "end_to_end"),
        names(&m, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        assert!(name.len() <= 64, "{name} is too long");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} uses a character outside letters, digits, '_', '.', '-'"
        );
    }
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "a name is used twice"
    );
    for metric in m
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("a list")
    {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

/// One run as the driver makes it: the last line is the result object,
/// with every declared metric of that mode and nothing else.
#[test]
fn a_single_run_prints_exactly_the_declared_metrics() {
    let m = manifest();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (code, out) = sarbench(&[
            "--workload",
            "sweep_faulted",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        assert_eq!(code, Some(0), "{out}");
        let result = Json::parse(out.lines().last().expect("a last line")).expect("a result");
        assert_eq!(
            keys(Some(&result)),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_u64)
                .expect("a count")
                >= 1
        );
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            sorted(keys(result.get("metrics"))),
            sorted(names(&m, list)),
            "trace {trace}"
        );
    }
}

/// The one command in quick mode: every workload, every metric once,
/// attribution that adds up, under twenty seconds; and `compare` tells
/// an identical report from one whose simulated counts moved.
#[test]
fn the_quick_run_covers_every_workload_and_compares_clean() {
    let m = manifest();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("out dir");
    let report_path = out_dir.join("contract_report.json");
    let report_arg = report_path.to_str().expect("utf-8 path");

    let started = Instant::now();
    let (code, out) = sarbench(&["--quick", "--seed", "7", "--out", report_arg]);
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(code, Some(0), "{out}");
    assert!(elapsed < 20.0, "--quick took {elapsed:.1} s");

    let text = std::fs::read_to_string(&report_path).expect("a report");
    let report = Json::parse(&text).expect("the report is JSON");
    let workloads = report.get("workloads");
    assert_eq!(keys(workloads), names(&m, "workloads"));
    let mut expected = names(&m, "end_to_end");
    expected.push("failed_share".to_string());
    expected.extend(names(&m, "per_layer"));
    for name in names(&m, "workloads") {
        let w = workloads.and_then(|w| w.get(&name)).expect("the workload");
        let metrics = w.get("metrics");
        // The Table I gap belongs to the workload that runs Table I.
        let expected: Vec<String> = expected
            .iter()
            .filter(|n| *n != "paper_gap_pct" || name == "table1_paper")
            .cloned()
            .collect();
        assert_eq!(sorted(keys(metrics)), sorted(expected), "{name}");
        let value = |metric: &str| {
            metrics
                .and_then(|m| m.get(metric)?.get("value")?.as_f64())
                .expect("a value")
        };
        let shares: f64 = keys(metrics)
            .iter()
            .filter(|k| k.starts_with("attr."))
            .map(|k| value(k))
            .sum();
        assert!(
            (shares - 1.0).abs() <= 1e-9,
            "{name}: attr.* sums to {shares}"
        );
        let residual = value("attr.residual");
        assert!(
            residual.abs() <= 0.05,
            "{name}: the spans leave {residual} of the pass unexplained"
        );
        assert_eq!(value("failed_share"), 0.0, "{name}");
    }

    let (code, out) = sarbench(&["compare", report_arg, report_arg]);
    assert_eq!(code, Some(0), "{out}");
    let moved_path = out_dir.join("contract_report_moved.json");
    let needle = "\"sim.cycles.ffbp_spmd.epiphany\": {\n          \"value\": ";
    assert!(text.contains(needle), "report layout changed");
    std::fs::write(&moved_path, text.replacen(needle, &format!("{needle}1"), 1)).expect("a copy");
    let (code, out) = sarbench(&["compare", report_arg, moved_path.to_str().expect("utf-8")]);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("BREACH"));
}
