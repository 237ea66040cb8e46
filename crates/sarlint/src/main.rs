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
use sar_epiphany::{all_mappings, configured, mapping_named};
use sarlint::{analyze_pair, cost, dynamic};
use sim_harness::{
    all_platforms, platform_named, BenchHarness, Diagnostic, Flag, Mapping, Placement, Platform,
    Workload, RUN_RECORD_VERSION,
};

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
    let placement = h.operand("placement")?;
    // Literal names or @path/to/placement.json (CLI003 / CLI007).
    let place = placement.map(Placement::resolve).transpose()?;

    let mappings: Vec<Box<dyn Mapping>> = match h.operand("mapping")? {
        Some(name) => vec![mapping_named(name).ok_or_else(|| {
            Diagnostic::hard(
                "CLI001",
                format!("--mapping {name}"),
                "unknown mapping name",
            )
        })?],
        None => all_mappings(),
    };

    let platform_override: Option<Box<dyn Platform>> = match h.operand("platform")? {
        None => None,
        Some(name) => Some(platform_named(name).ok_or_else(|| {
            Diagnostic::hard(
                "CLI001",
                format!("--platform {name}"),
                "unknown platform name",
            )
        })?),
    };

    let mut pairs = 0usize;
    let mut hard = 0usize;
    let mut json_pairs: Vec<Json> = Vec::new();
    for m in &mappings {
        let platforms: Vec<&str> = match &platform_override {
            Some(p) => vec![p.label()],
            None => all_platforms()
                .iter()
                .filter(|p| m.supports(p.kind()))
                .map(|p| p.label())
                .collect(),
        };
        if platforms.is_empty() {
            return Err(Diagnostic::hard(
                "CLI001",
                m.name().to_string(),
                "mapping supports no registered platform",
            ));
        }
        for p in platforms {
            // The placement re-places the mappings that take one and
            // keeps the rest at their defaults.
            let set = match place {
                Some(pl) if m.set_keys().contains(&"placement") => {
                    Json::obj().with("placement", pl.to_json())
                }
                _ => Json::obj(),
            };
            let pair = configured(m.name(), p, &set).map_err(|e| {
                let spec = placement.unwrap_or_default();
                Diagnostic::hard("CLI007", format!("--placement {spec}"), e)
            })?;
            let (m, p) = (pair.mapping.as_ref(), pair.platform.as_ref());
            let w = Workload::named(m.kernel(), h.small()).ok_or_else(|| {
                Diagnostic::hard(
                    "CLI001",
                    m.kernel().to_string(),
                    "mapping names a kernel with no registered workload",
                )
            })?;
            let mut report = analyze_pair(m, &w, p);
            if h.flag("dynamic") && m.supports(p.kind()) {
                report.merge(dynamic::cross_check(m, &w, p));
            }
            let costed = (h.flag("cost") && m.supports(p.kind())).then(|| {
                let (c, lints) = cost::cost_pair(m, &w, p);
                report.merge(lints);
                c
            });
            report.normalize();
            pairs += 1;
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
                let mut pair = Json::obj()
                    .with("mapping", m.name())
                    .with("platform", p.label())
                    .with("clean", report.is_clean())
                    .with("hard", report.hard_count())
                    .with("diagnostics", Json::Arr(diags));
                if let Some(c) = costed {
                    pair = pair.with("cost", c.to_json());
                }
                json_pairs.push(pair);
            }
        }
    }
    if h.json() {
        let doc = Json::obj()
            .with("bench", "sarlint")
            .with("version", RUN_RECORD_VERSION)
            .with("workload", if h.small() { "small" } else { "paper" })
            .with("pairs", Json::Arr(json_pairs))
            .with("pairs_analyzed", pairs)
            .with("hard_findings", hard);
        println!("{}", doc.to_string_pretty());
    } else {
        println!("{pairs} pair(s) analyzed, {hard} hard finding(s)");
    }
    Ok(hard)
}
