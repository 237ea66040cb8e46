//! `sarlint` — check registered Mapping × Platform pairs without
//! simulating them.
//!
//! ```text
//! sarlint --all [--small] [--dynamic] [--cost] [--json]
//! sarlint --mapping NAME [--platform NAME] [--placement NAME]
//!         [--small] [--dynamic] [--cost] [--json]
//! ```
//!
//! With `--all` (or no `--mapping`), every registered mapping is
//! analyzed on every platform it supports. `--dynamic` additionally
//! replays one traced run per pair and cross-checks observed remote
//! landings and activity counters against the declarations. `--cost`
//! prices each pair with the contention-aware static cost model
//! (lower/upper bounds on cycles and energy) and runs the cost lints
//! (`SL013`–`SL015`). `--json` replaces the prose report with one
//! machine-readable document on stdout.
//!
//! Exit status: `0` clean, `1` hard findings, `2` command-line error —
//! among them `CLI008` for an argument not in `--help`'s list, refused
//! before any analysis.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use desim::Json;
use sar_epiphany::selected;
use sarlint::{analyze_pair_with, cost, dynamic, pair_model};
use sim_harness::{BenchHarness, Diagnostic, Flag, Workload, RUN_RECORD_VERSION};

/// Every flag the analyzer reads; it writes no document.
const FLAGS: &[Flag] = &[
    Flag::switch("all", "analyze every registered mapping (the default)"),
    Flag::operand("mapping", "M", "analyze mapping M only"),
    Flag::operand("platform", "P", "on platform P only"),
    Flag::operand(
        "placement",
        "S",
        "re-place the mappings: neighbor, scattered or @placement.json",
    ),
    Flag::SMALL,
    Flag::switch("dynamic", "cross-check one traced run per pair"),
    Flag::switch("cost", "price each pair with the static cost model"),
    Flag::JSON,
];

fn main() -> ExitCode {
    let h = BenchHarness::declared_exactly("sarlint", FLAGS);
    match check(&h) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(d) => {
            eprintln!("{d}");
            ExitCode::from(2)
        }
    }
}

/// Resolve the requested pairs and analyze each; returns the number of
/// hard findings, or the CLI diagnostic that stopped the run.
fn check(h: &BenchHarness) -> Result<usize, Diagnostic> {
    let pairs = selected(
        h.operand("mapping"),
        h.operand("platform"),
        h.operand("placement"),
    )?;
    let mut hard = 0usize;
    let mut json_pairs: Vec<Json> = Vec::new();
    for pair in &pairs {
        let (m, p) = (pair.mapping.as_ref(), pair.platform.as_ref());
        let w = Workload::named(m.kernel(), h.small()).expect("a registered kernel has a workload");
        let model = pair_model(m, &w, p);
        let mut report = analyze_pair_with(m, p, model.as_ref());
        if h.flag("dynamic") && m.supports(p.kind()) {
            report.merge(dynamic::cross_check_with(m, &w, p, model.as_ref()));
        }
        let costed = (h.flag("cost") && m.supports(p.kind())).then(|| {
            let (c, lints) = cost::cost_pair_with(m, p, model.as_ref());
            report.merge(lints);
            c
        });
        report.normalize();
        hard += report.hard_count();
        h.say(format!(
            "== {} x {} ({} workload): {}",
            m.name(),
            p.label(),
            if h.small() { "small" } else { "paper" },
            if report.is_clean() { "ok" } else { "FAIL" }
        ));
        if !h.json() {
            print!("{report}");
        }
        if let Some(c) = &costed {
            h.say(format!("   {}", c.summary()));
        }
        if h.json() {
            let diags = report
                .diagnostics
                .iter()
                .map(|d| {
                    Json::obj()
                        .with("code", d.code)
                        .with("severity", d.severity.to_string().as_str())
                        .with("subject", d.subject.as_str())
                        .with("message", d.message.as_str())
                })
                .collect();
            let mut entry = Json::obj()
                .with("mapping", m.name())
                .with("platform", p.label())
                .with("clean", report.is_clean())
                .with("hard", report.hard_count())
                .with("diagnostics", Json::Arr(diags));
            if let Some(c) = costed {
                entry = entry.with("cost", c.to_json());
            }
            json_pairs.push(entry);
        }
    }
    if h.json() {
        let doc = Json::obj()
            .with("bench", "sarlint")
            .with("version", RUN_RECORD_VERSION)
            .with("workload", if h.small() { "small" } else { "paper" })
            .with("pairs", Json::Arr(json_pairs))
            .with("pairs_analyzed", pairs.len())
            .with("hard_findings", hard);
        println!("{}", doc.to_string_pretty());
    } else {
        println!("{} pair(s) analyzed, {hard} hard finding(s)", pairs.len());
    }
    Ok(hard)
}
