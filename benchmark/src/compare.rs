//! `sarbench compare a.json b.json`: the second report against the
//! first, per workload and metric, by the benchmark's own bounds.

use std::path::Path;

use desim::Json;

use crate::manifest::{Manifest, MetricDef};

/// `setup_s` differences below this many seconds are never a breach.
const SETUP_FLOOR_S: f64 = 0.020;
/// `paper_gap_pct` may grow by this many points.
const PAPER_GAP_POINTS: f64 = 0.5;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path:?} is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sarbench-report-v1") => Ok(doc),
        other => Err(format!(
            "{path:?} is not a sarbench report (schema {other:?})"
        )),
    }
}

pub fn members(json: Option<&Json>) -> &[(String, Json)] {
    json.and_then(Json::as_object).unwrap_or_default()
}

fn value(workload: &Json, metric: &str) -> Option<f64> {
    workload.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// Compare report `b` against baseline `a`. `Ok(false)` on any breach.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let (a, b) = (load(a)?, load(b)?);
    let mut breaches = 0;
    println!(
        "{:<16} {:<44} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for (name, wa) in members(a.get("workloads")) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<16} missing from the second report: BREACH");
            breaches += 1;
            continue;
        };
        // The spread of the passes themselves, as a share: a wall-time
        // difference inside it cannot be told from noise.
        let spread = [wa, wb]
            .iter()
            .filter_map(|w| value(w, "bench.pass_iqr_pct"))
            .fold(0.0, f64::max)
            / 100.0;
        for (metric, _) in members(wa.get("metrics")) {
            let (Some(va), Some(vb)) = (value(wa, metric), value(wb, metric)) else {
                println!("{name:<16} {metric:<44} missing from the second report: BREACH");
                breaches += 1;
                continue;
            };
            let end_to_end = manifest.end_to_end.iter().find(|d| d.name == *metric);
            let verdict = if let Some(def) = end_to_end {
                let bound = def.bound.unwrap_or(0.0);
                let floor = if metric == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                };
                if worse_by(def, va, vb) > bound && (vb - va).abs() > floor {
                    "BREACH"
                } else if metric == "wall_s" && spread > bound {
                    "unresolved"
                } else {
                    "ok"
                }
            } else if metric == "failed_share" {
                if vb > va {
                    "BREACH"
                } else {
                    "ok"
                }
            } else if metric == "paper_gap_pct" {
                if vb - va > PAPER_GAP_POINTS {
                    "BREACH"
                } else {
                    "ok"
                }
            } else if metric.starts_with("sim.") {
                // Exact counts: a host-speed change leaves every one
                // identical; a model change must name the ones it moves.
                if va.to_bits() == vb.to_bits() {
                    "ok"
                } else {
                    "BREACH"
                }
            } else {
                ""
            };
            breaches += usize::from(verdict == "BREACH");
            println!(
                "{name:<16} {metric:<44} {va:>14.6} {vb:>14.6} {:>+8.2}%  {verdict}",
                (vb - va) / va.abs() * 100.0
            );
        }
    }
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}
