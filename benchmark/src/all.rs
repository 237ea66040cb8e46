//! The one command: every workload, untraced then traced, each in a
//! child process of its own (never two at once), gathered into one
//! report that `sarbench compare` reads.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use desim::Json;

use crate::compare::members;
use crate::manifest::Manifest;
use crate::Options;

/// Run `sarbench --workload ...` as a child, pass its output through,
/// and return the result object of its last line.
fn child(name: &str, o: &Options, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let line = line.map_err(|e| format!("{name}: unreadable output: {e}"))?;
        if !last.is_empty() {
            println!("{last}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("{name}: cannot wait: {e}"))?;
    // Exit code 1 means a verification failure, reported in the result.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!(
            "{name} (trace {}) ended with {status}",
            u8::from(trace)
        ));
    }
    Json::parse(&last).map_err(|e| format!("{name}: last line is not a result: {e}"))
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).unwrap_or(0)
}

pub fn run_all(o: &Options) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let seconds = o.seconds.unwrap_or(manifest.run_seconds);
    let mut workloads = Json::obj();
    let mut all_correct = true;
    for name in &manifest.workloads {
        let timed = child(name, o, seconds, false)?;
        let traced = child(name, o, seconds, true)?;
        let attempted = count(&timed, "attempted") + count(&traced, "attempted");
        let failed = count(&timed, "failed") + count(&traced, "failed");
        all_correct &= failed == 0;

        let mut metrics = timed.get("metrics").cloned().unwrap_or_else(Json::obj);
        metrics.set(
            "failed_share",
            Json::obj()
                .with("value", failed as f64 / attempted.max(1) as f64)
                .with("unit", "ratio"),
        );
        for (metric, value) in members(traced.get("metrics")) {
            // The Table I gap is computed from the six paper pairs in
            // every traced run; it is an end-to-end metric of the
            // workload that runs them and of no other.
            if metric != "paper_gap_pct" || name == "table1_paper" {
                metrics.set(metric, value.clone());
            }
        }
        workloads.set(
            name,
            Json::obj()
                .with("correct", failed == 0)
                .with("attempted", attempted)
                .with("failed", failed)
                .with("metrics", metrics),
        );
    }
    let report = Json::obj()
        .with("schema", "sarbench-report-v1")
        .with("seed", o.seed)
        .with("seconds", seconds)
        .with("quick", o.quick)
        .with(
            "threads",
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        )
        .with("workloads", workloads);

    println!("\n{:<16} {:<44} {:>18} unit", "workload", "metric", "value");
    for (name, w) in members(report.get("workloads")) {
        for (metric, v) in members(w.get("metrics")) {
            println!(
                "{name:<16} {metric:<44} {:>18.6} {}",
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or_default()
            );
        }
    }
    let path = match &o.out {
        Some(path) => path.clone(),
        None => crate::out_dir()?.join("report.json"),
    };
    std::fs::write(&path, report.to_string_pretty())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!(
        "\nwrote {}; every operation correct: {all_correct}",
        path.display()
    );
    Ok(all_correct)
}
