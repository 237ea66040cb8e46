//! `sarbench` — the repo's benchmark (see `benchmark/README.md`).
//!
//! ```text
//! sarbench [--seed N] [--seconds S] [--quick] [--out report.json]
//!     every workload, untraced then traced, each in its own child
//!     process; prints every metric and writes the report
//! sarbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run of one workload; the last line of output is its result
//! sarbench compare a.json b.json
//!     two reports against the benchmark's bounds; exit 1 on a breach
//! ```

mod all;
mod compare;
mod ledger;
mod manifest;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use desim::Json;

use ledger::Suite;
use manifest::Manifest;
use probes::seconds;
use spans::Spans;

/// Where runs leave their files: `benchmark/out`, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = manifest::repo_root().join("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    Ok(dir)
}

/// The options of one invocation.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    /// `None` means the manifest's `run_seconds`.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One run of one workload. Prints what it measured and, as the last
/// line, the result object; returns whether every operation was correct.
fn run_one(name: &str, o: &Options) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let name = workloads::NAMES
        .iter()
        .copied()
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let budget = o.seconds.unwrap_or(manifest.run_seconds);
    // Seeds are written into documents as JSON numbers; stay well
    // inside the exactly representable range.
    let seed = o.seed & 0xffff_ffff;

    // Set-up, repeated for a second and a half (five times at least):
    // like `wall_s` below, the metric is the fastest one.
    let mut suite = Suite::default();
    let mut setups = Vec::new();
    let setting_up = Instant::now();
    while setups.len() < if o.quick { 1 } else { 5 }
        || (!o.quick && setups.len() < 40 && setting_up.elapsed().as_secs_f64() < 1.5)
    {
        let (secs, built) = seconds(|| suite.setup(name, seed, o.quick));
        built?;
        setups.push(secs);
    }
    let bench = suite.bench(name);
    let ops = bench.ops();

    // Untraced passes until the time is up; at least two, so that a
    // workload whose pass outlasts the budget still shows a spread.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples = Vec::new();
    let mut timed_print: Option<workloads::Fingerprint> = None;
    let mut off = Spans::new(false);
    let timing = Instant::now();
    loop {
        let (secs, out) = seconds(|| bench.pass(&mut off));
        samples.push(secs);
        attempted += ops;
        match out {
            Ok(out) => {
                let print = out.fingerprint();
                if timed_print.as_ref().is_some_and(|p| !p.agrees(&print)) {
                    eprintln!("{name}: pass {} differs from the one before", samples.len());
                    failed += ops;
                }
                timed_print = Some(print);
            }
            Err(why) => {
                eprintln!("{name}: pass {} failed: {why}", samples.len());
                failed += ops;
            }
        }
        let enough = if o.quick { 1 } else { 2 };
        if samples.len() >= enough && (o.quick || timing.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }
    let rss = peak_rss_mb()?;

    // One more pass with the recorder on: it is what gets verified, and
    // in a traced run it is the traced pass.
    let mut spans = Spans::new(true);
    spans.set_workload(name);
    attempted += ops;
    let observed = bench.pass(&mut spans)?;
    let mut failures = bench.verify(&observed);
    if timed_print.is_some_and(|p| !p.agrees(&observed.fingerprint())) {
        failures.push(format!(
            "{name}: the verified pass differs from the timed ones"
        ));
    }
    for why in &failures {
        eprintln!("FAILED {why}");
    }
    failed += (failures.len() as u64).min(ops);

    let fastest = stats::fastest(&samples);
    let (q1, q3) = stats::quartiles(&samples);
    println!(
        "{name}: {} passes, wall_s fastest {fastest:.6} median {:.6} q1 {q1:.6} q3 {q3:.6}{}",
        samples.len(),
        stats::median(&samples),
        stats::p90(&samples).map_or_else(String::new, |p| format!(" p90 {p:.6}")),
    );
    println!(
        "{name}: {attempted} operations, {failed} failed; threads {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );

    let metrics = if o.trace {
        let mut outs = BTreeMap::new();
        outs.insert(name, observed);
        let values = ledger::measure(
            &mut suite, &mut outs, &mut spans, name, &samples, seed, o.quick,
        )?;
        let path = out_dir()?.join(format!("trace.{name}.json"));
        std::fs::write(&path, spans.to_json().to_string_pretty())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let residual = values
            .iter()
            .find(|(n, _)| n == "attr.residual")
            .map_or(0.0, |(_, v)| *v);
        if residual.abs() > 0.05 {
            println!(
                "{name}: unresolved: attribution leaves {residual:.3} of the pass unexplained"
            );
        }
        let traced = spans.seconds(name, "pass");
        let untraced = stats::median(&samples);
        if (traced / untraced - 1.0).abs() > 0.05 {
            println!("{name}: unresolved: the traced pass took {traced:.6} s, the untraced median is {untraced:.6} s");
        }
        Manifest::label(&manifest.per_layer, &values)?
    } else {
        let values = [
            ("wall_s".to_string(), fastest),
            ("setup_s".to_string(), stats::fastest(&setups)),
            ("peak_rss_mb".to_string(), rss),
        ];
        Manifest::label(&manifest.end_to_end, &values)?
    };
    for (metric, v) in metrics.as_object().unwrap_or_default() {
        let field = |k: &str| v.get(k).cloned().unwrap_or(Json::Null);
        println!(
            "{name}: {metric} = {} {}",
            field("value"),
            field("unit").as_str().unwrap_or_default()
        );
    }
    println!(
        "{}",
        Json::obj()
            .with("correct", failed == 0)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics)
    );
    Ok(failed == 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "compare") {
        match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: sarbench compare a.json b.json".to_string()),
        }
    } else {
        parse_options(&args).and_then(|o| match &o.workload {
            Some(name) => run_one(name, &o),
            None => all::run_all(&o),
        })
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("sarbench: {why}");
            std::process::exit(2);
        }
    }
}
