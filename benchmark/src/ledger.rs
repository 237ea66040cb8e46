//! The per-layer ledger of a traced run: one traced pass of every
//! workload, the microprobes, the exact simulated counts, and the
//! attribution of the selected workload's pass to the layers.
//!
//! Every traced run emits every per-layer metric, whichever workload
//! was selected; only `attr.*` and `bench.*` describe the selected one.

use std::collections::BTreeMap;

use desim::RunRecord;
use sar_epiphany::mapping_named;
use sim_harness::{platform_named, PlatformKind, Workload};
use sweep::{run_grid, CellCache, GridSpec, SweepOutcome};

use crate::probes::{self, seconds, Counts, Metrics, Plain};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{
    fault_total, Bench, Out, RdaPaper, StaticPricing, SweepCold, SweepFaulted, SweepResume,
    Table1Paper, NAMES, RDA_PAIRS, TABLE1_PAIRS,
};

/// The workloads whose inputs are built, by name.
#[derive(Default)]
pub struct Suite {
    table1: Option<Table1Paper>,
    rda: Option<RdaPaper>,
    cold: Option<SweepCold>,
    resume: Option<SweepResume>,
    faulted: Option<SweepFaulted>,
    pricing: Option<StaticPricing>,
}

impl Suite {
    /// Build `name`'s inputs (see [`crate::workloads`] for what each
    /// set-up includes), replacing an earlier build.
    pub fn setup(&mut self, name: &str, seed: u64, quick: bool) -> Result<(), String> {
        match name {
            "table1_paper" => rebuild(&mut self.table1, || Table1Paper::setup(quick)),
            "rda_paper" => rebuild(&mut self.rda, || RdaPaper::setup(quick)),
            "sweep_cold" => rebuild(&mut self.cold, || SweepCold::setup(seed, quick)),
            "sweep_resume" => rebuild(&mut self.resume, || SweepResume::setup(seed, quick)),
            "sweep_faulted" => rebuild(&mut self.faulted, || SweepFaulted::setup(seed, quick)),
            "static_pricing" => rebuild(&mut self.pricing, || StaticPricing::setup(seed, quick)),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    pub fn bench(&self, name: &str) -> &dyn Bench {
        let bench: Option<&dyn Bench> = match name {
            "table1_paper" => self.table1.as_ref().map(|b| b as &dyn Bench),
            "rda_paper" => self.rda.as_ref().map(|b| b as &dyn Bench),
            "sweep_cold" => self.cold.as_ref().map(|b| b as &dyn Bench),
            "sweep_resume" => self.resume.as_ref().map(|b| b as &dyn Bench),
            "sweep_faulted" => self.faulted.as_ref().map(|b| b as &dyn Bench),
            "static_pricing" => self.pricing.as_ref().map(|b| b as &dyn Bench),
            _ => None,
        };
        bench.expect("the workload was set up")
    }
}

/// Drop the earlier build, then make the new one: peak memory holds
/// one set of inputs however often a workload is set up.
fn rebuild<T>(
    slot: &mut Option<T>,
    build: impl FnOnce() -> Result<T, String>,
) -> Result<(), String> {
    *slot = None;
    *slot = Some(build()?);
    Ok(())
}

fn grid_of(out: &Out) -> (&SweepOutcome, &str) {
    match out {
        Out::Grid { outcome, text } => (outcome, text),
        _ => unreachable!("a sweep pass yields a grid"),
    }
}

/// Mean absolute relative error, in percent, of the eight figures
/// `table1` prints beside a paper column. The references are the
/// paper's Table I and section VI-A as quoted in PAPER.md.
fn paper_gap_pct(records: &[&RunRecord]) -> f64 {
    let t = |i: usize| records[i].elapsed.seconds();
    let power_ratio = sim_harness::INTEL_POWER_W / sim_harness::EPIPHANY_POWER_W;
    let figures = [
        (t(0) / t(1), 0.36),
        (t(0) / t(2), 4.25),
        (t(3) / t(4), 0.8),
        (t(3) / t(5), 8.93),
        (t(1) / t(2), 11.7),
        (t(4) / t(5), 10.9),
        (t(0) / t(2) * power_ratio, 38.0),
        (t(3) / t(5) * power_ratio, 78.0),
    ];
    let sum: f64 = figures
        .iter()
        .map(|(ours, paper)| ((ours - paper) / paper).abs())
        .sum();
    sum / figures.len() as f64 * 100.0
}

/// Host seconds of `outcome`'s simulated cells, split by where a cell's
/// time goes: the plain kernel every machine runs (`sar-core`), and
/// what the reference CPU or the chip model adds on top of it.
struct CellSplit {
    sar_core: f64,
    refcpu: f64,
    chip: f64,
}

fn split_cells(outcome: &SweepOutcome, plain: &Plain) -> CellSplit {
    let mut split = CellSplit {
        sar_core: total_ms(&outcome.profile.setup) / 1e3,
        refcpu: 0.0,
        chip: 0.0,
    };
    for (label, elapsed) in &outcome.profile.cells {
        // Labels read "<mapping> x <platform> seed <n>".
        let mut words = label.split(' ');
        let mapping = mapping_named(words.next().unwrap_or_default()).expect("registered");
        let platform = platform_named(words.nth(1).unwrap_or_default()).expect("registered");
        let total = elapsed.as_secs_f64();
        let kernel = plain.of_kernel(mapping.kernel()).min(total);
        split.sar_core += kernel;
        match platform.kind() {
            PlatformKind::RefCpu => split.refcpu += total - kernel,
            _ => split.chip += total - kernel,
        }
    }
    split
}

/// Shares of the selected workload's traced pass, in the order of
/// [`ATTR`]; the last one is what the spans leave unexplained.
const ATTR: [&str; 8] = [
    "attr.sar-core",
    "attr.refcpu-memsim",
    "attr.epiphany-emesh",
    "attr.sweep",
    "attr.desim-json",
    "attr.sarlint-mapping",
    "attr.autotune",
    "attr.residual",
];

fn attribute(name: &str, out: &Out, spans: &Spans, paper: &Plain, small: &Plain) -> [f64; 8] {
    let span = |n: &str| spans.seconds(name, n);
    let mut s = [0.0; 8];
    match name {
        "table1_paper" | "rda_paper" => {
            let pairs: &[(&str, &str)] = if name == "rda_paper" {
                &RDA_PAIRS
            } else {
                &TABLE1_PAIRS
            };
            for (m, p) in pairs {
                let kernel = mapping_named(m).expect("registered").kernel();
                let total = span(&format!("run_ms.{m}.{p}"));
                let plain = paper.of_kernel(kernel).min(total);
                s[0] += plain;
                s[if *p == "refcpu" { 1 } else { 2 }] += total - plain;
            }
        }
        "static_pricing" => {
            s[5] = span("sarlint.cost_pair") + span("sarlint.analyze_pair");
            s[6] = span("autotune.greedy") + span("autotune.anneal");
        }
        _ => {
            let (outcome, _) = grid_of(out);
            let split = split_cells(outcome, small);
            s[0] = split.sar_core;
            s[1] = split.refcpu;
            s[2] = split.chip;
            s[3] = outcome.profile.serialize.as_secs_f64() + span("sweep.to_string");
            s[4] = span("sweep.cache_load");
        }
    }
    let pass = span("pass");
    for share in &mut s {
        *share /= pass;
    }
    s[7] = 1.0 - s.iter().sum::<f64>();
    s
}

fn named<const N: usize>(items: [(&str, f64); N]) -> Metrics {
    items.map(|(name, value)| (name.to_string(), value)).into()
}

fn total_ms(parts: &[(String, std::time::Duration)]) -> f64 {
    parts.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>() * 1e3
}

/// Spans and exact counts of the nine paper-scale pairs, the Table I
/// gap, and the host time the two machine models add per simulated
/// event on top of the plain kernel.
fn paper_pairs(outs: &BTreeMap<&'static str, Out>, spans: &Spans, plain: &Plain) -> Metrics {
    let mut records = outs["table1_paper"].records();
    records.extend(outs["rda_paper"].records());
    let pairs = TABLE1_PAIRS.iter().chain(&RDA_PAIRS);
    let run_ms = |mapping: &str, platform: &str| {
        let workload = if mapping.starts_with("rda") {
            "rda_paper"
        } else {
            "table1_paper"
        };
        spans.seconds(workload, &format!("run_ms.{mapping}.{platform}")) * 1e3
    };
    let record_of = |mapping: &str, platform: &str| {
        let i = pairs
            .clone()
            .position(|&(m, p)| (m, p) == (mapping, platform))
            .expect("one of the nine pairs");
        records[i]
    };
    let mut m = Metrics::new();
    for (mapping, platform) in pairs.clone() {
        m.push((
            format!("run_ms.{mapping}.{platform}"),
            run_ms(mapping, platform),
        ));
        m.push((
            format!("sim.cycles.{mapping}.{platform}"),
            record_of(mapping, platform).elapsed.cycles.raw() as f64,
        ));
    }
    for (mapping, platform) in [
        ("ffbp_spmd", "epiphany"),
        ("autofocus_mpmd", "epiphany"),
        ("rda_spmd", "e64"),
    ] {
        m.push((
            format!("sim.energy_uj.{mapping}.{platform}"),
            record_of(mapping, platform).energy_j() * 1e6,
        ));
    }
    let transfers = record_of("ffbp_spmd", "epiphany")
        .counters
        .get("mesh_transfers") as f64;
    let loads = record_of("ffbp_ref", "refcpu").counters.get("loads") as f64;
    let over_plain_ns = |mapping, platform| (run_ms(mapping, platform) - plain.ffbp * 1e3) * 1e6;
    let t = |i: usize| records[i].elapsed.seconds();
    m.extend(named([
        ("sim.mesh_transfers.ffbp_spmd.epiphany", transfers),
        (
            "sim.ext_reads.ffbp_spmd.epiphany",
            record_of("ffbp_spmd", "epiphany").counters.get("ext_read") as f64,
        ),
        ("sim.loads.ffbp_ref.refcpu", loads),
        ("sim.speedup.ffbp_par", t(0) / t(2)),
        ("sim.speedup.af_par", t(3) / t(5)),
        ("paper_gap_pct", paper_gap_pct(&records[..6])),
        ("sar-core.ffbp_plain_ms", plain.ffbp * 1e3),
        ("sar-core.rda_plain_ms", plain.rda * 1e3),
        ("sar-core.af_sweep_us", plain.autofocus * 1e6),
        (
            "refcpu.host_ns_per_load",
            over_plain_ns("ffbp_ref", "refcpu") / loads,
        ),
        (
            "epiphany.host_ns_per_transfer",
            over_plain_ns("ffbp_spmd", "epiphany") / transfers,
        ),
    ]));
    m
}

/// The sweep engine, from its own profile and the spans around it; one
/// `threads=2` pass; and faulted cells against the same pairs fault-free.
fn sweeps(
    suite: &Suite,
    outs: &BTreeMap<&'static str, Out>,
    spans: &Spans,
    counts: Counts,
) -> Result<Metrics, String> {
    let ms = |workload: &str, span: &str| spans.seconds(workload, span) * 1e3;
    let (cold, cold_text) = grid_of(&outs["sweep_cold"]);
    let cold_grid_ms = ms("sweep_cold", "sweep.run_grid");
    let cold_spec = &suite.cold.as_ref().expect("set up").spec;
    let (wide_s, wide) = seconds(|| run_grid(cold_spec, 2, &CellCache::empty()));
    wide.map_err(|d| d.to_string())?;

    // Faulted and fault-free in alternation, so that a slow spell of
    // the host falls on both.
    let faulted_spec = &suite.faulted.as_ref().expect("set up").spec;
    let (faulted, _) = grid_of(&outs["sweep_faulted"]);
    let fault_free = GridSpec {
        faults: None,
        ..faulted_spec.clone()
    };
    let (mut armed_ms, mut free_ms) = (Vec::new(), Vec::new());
    for _ in 0..counts.reps(10) {
        for (spec, per_cell) in [(faulted_spec, &mut armed_ms), (&fault_free, &mut free_ms)] {
            let out = run_grid(spec, 1, &CellCache::empty()).map_err(|d| d.to_string())?;
            per_cell.push(total_ms(&out.profile.cells) / out.cells_run as f64);
        }
    }
    let faults = |field| fault_total(&faulted.document, field) as f64;
    Ok(named([
        (
            "sweep.cells_per_s",
            cold.cells_total as f64 / (cold_grid_ms / 1e3),
        ),
        ("sweep.setup_ms", total_ms(&cold.profile.setup)),
        ("sweep.simulate_ms", total_ms(&cold.profile.cells)),
        (
            "sweep.serialize_ms",
            cold.profile.serialize.as_secs_f64() * 1e3,
        ),
        ("sweep.to_string_ms", ms("sweep_cold", "sweep.to_string")),
        (
            "sweep.cache_load_ms",
            ms("sweep_resume", "sweep.cache_load"),
        ),
        ("sweep.resume_grid_ms", ms("sweep_resume", "sweep.run_grid")),
        ("sweep.t2_speedup", cold_grid_ms / 1e3 / wide_s),
        ("sim.doc_bytes", cold_text.len() as f64),
        (
            "faultsim.armed_slowdown",
            stats::median(&armed_ms) / stats::median(&free_ms),
        ),
        ("sim.faults_injected", faults("faults_injected")),
        ("sim.fault_retries", faults("retries")),
        ("sim.recovery_cycles", faults("recovery_cycles")),
    ]))
}

/// Static pricing and the placement search, from the spans of the
/// `static_pricing` pass.
fn pricing(outs: &BTreeMap<&'static str, Out>, spans: &Spans) -> Metrics {
    let Out::Pricing { tunings, .. } = &outs["static_pricing"] else {
        unreachable!("a pricing pass yields prices")
    };
    let ms = |span: &str| spans.seconds("static_pricing", span) * 1e3;
    let (greedy_ms, anneal_ms) = (ms("autotune.greedy"), ms("autotune.anneal"));
    let evals: usize = tunings
        .iter()
        .flat_map(|t| &t.searches)
        .map(|s| s.evals)
        .sum();
    let best = tunings
        .iter()
        .map(|t| t.best_score)
        .fold(f64::INFINITY, f64::min);
    named([
        ("sarlint.cost_all_ms", ms("sarlint.cost_pair")),
        ("sarlint.analyze_all_ms", ms("sarlint.analyze_pair")),
        (
            "autotune.evals_per_s",
            evals as f64 / ((greedy_ms + anneal_ms) / 1e3),
        ),
        ("autotune.greedy_ms", greedy_ms),
        ("autotune.anneal_ms", anneal_ms),
        ("sim.autotune_best_score", best),
    ])
}

/// Everything the traced run of `selected` reports. `outs` holds the
/// selected workload's traced pass; the other five are made here.
pub fn measure(
    suite: &mut Suite,
    outs: &mut BTreeMap<&'static str, Out>,
    spans: &mut Spans,
    selected: &str,
    untraced: &[f64],
    seed: u64,
    quick: bool,
) -> Result<Metrics, String> {
    let counts = Counts { quick };
    for name in NAMES {
        if !outs.contains_key(name) {
            suite.setup(name, seed, quick)?;
            spans.set_workload(name);
            outs.insert(name, suite.bench(name).pass(spans)?);
        }
    }
    let table1 = suite.table1.as_ref().expect("set up");
    let rda = &suite.rda.as_ref().expect("set up").workload;

    // The plain kernels, at the scale of the paper workloads and at the
    // small scale the sweeps run.
    let paper = Plain::measure(table1, rda, counts.reps(3), counts);
    let small = if quick {
        paper
    } else {
        Plain::measure(
            &Table1Paper::small(),
            &Workload::named("rda", true).expect("registered"),
            counts.reps(20),
            counts,
        )
    };

    let mut m = paper_pairs(outs, spans, &paper);
    m.extend(sweeps(suite, outs, spans, counts)?);
    m.extend(pricing(outs, spans));
    let (cold, cold_text) = grid_of(&outs["sweep_cold"]);
    m.extend(probes::sar_core(table1, rda, seed, counts));
    m.extend(probes::desim(&cold.document, cold_text, seed, counts)?);
    m.extend(probes::emesh_memsim(seed, counts));
    m.extend(probes::epiphany(seed, counts));
    m.extend(probes::harness(table1, seed, counts));
    m.extend(probes::pricing(
        suite.pricing.as_ref().expect("set up"),
        counts,
    ));

    // The selected workload: where its pass went, and how far the
    // numbers above can be trusted.
    let shares = attribute(selected, &outs[selected], spans, &paper, &small);
    m.extend(ATTR.iter().map(|n| n.to_string()).zip(shares));
    let traced = spans.seconds(selected, "pass");
    let median = stats::median(untraced);
    m.extend(named([
        (
            "bench.trace_overhead_pct",
            (traced - median) / median * 100.0,
        ),
        ("bench.pass_iqr_pct", stats::iqr_pct(untraced)),
    ]));
    Ok(m)
}
