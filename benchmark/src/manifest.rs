//! `BENCHMARK.json` is the one statement of which workloads and
//! metrics exist, their units, directions and regression bounds; the
//! program reads it instead of repeating it.

use std::path::PathBuf;

use desim::Json;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The checkout root: the working directory when it holds the manifest
/// (how the driver and the README run the benchmark), else the parent
/// of the directory this package was built in.
pub fn repo_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("BENCHMARK.json").is_file() && cwd.join("benchmark").is_dir() {
        cwd
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }
}

fn metric_defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no '{key}' list"))?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a '{key}' entry lacks '{k}'"))
            };
            Ok(MetricDef {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Manifest {
    pub fn load() -> Result<Manifest, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path:?} is not JSON: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: no 'workloads' list")?
            .iter()
            .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect();
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no 'run_seconds'")?,
            workloads,
            end_to_end: metric_defs(&doc, "end_to_end")?,
            per_layer: metric_defs(&doc, "per_layer")?,
        })
    }

    /// Attach units to `values`, which must be exactly the metrics of
    /// `defs`, each once: the contract a later reader relies on.
    pub fn label(defs: &[MetricDef], values: &[(String, f64)]) -> Result<Json, String> {
        let mut out = Json::obj();
        for def in defs {
            let mut found = values.iter().filter(|(n, _)| *n == def.name);
            match (found.next(), found.next()) {
                (Some((_, v)), None) if v.is_finite() => out.set(
                    &def.name,
                    Json::obj()
                        .with("value", *v)
                        .with("unit", def.unit.as_str()),
                ),
                (Some((_, v)), None) => return Err(format!("metric {} is {v}", def.name)),
                (None, _) => return Err(format!("metric {} was not measured", def.name)),
                (Some(_), Some(_)) => {
                    return Err(format!("metric {} was measured twice", def.name))
                }
            }
        }
        match values
            .iter()
            .find(|(n, _)| defs.iter().all(|d| d.name != *n))
        {
            Some((extra, _)) => Err(format!("metric {extra} is not in BENCHMARK.json")),
            None => Ok(out),
        }
    }
}
