//! The six workloads: how each builds its inputs, what one pass calls,
//! and the invariants its outputs must satisfy.
//!
//! A pass calls only public functions of the layers. With an enabled
//! recorder the same pass leaves one span per call, which is all the
//! traced run adds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use autotune::{Strategy, TuneConfig, Tuning};
use desim::{Json, RunRecord};
use sar_core::{c32, ComplexImage};
use sar_epiphany::{mapping_named, table1, Table1};
use sarlint::cost::CostReport;
use sim_harness::{
    all_platforms, platform_named, run, Mapping, MappingRun, Platform, Report, Workload,
};
use sweep::{run_grid, CellCache, GridSpec, SweepOutcome};

use crate::spans::Spans;

/// Workload names, in the order they run and print.
pub const NAMES: [&str; 6] = [
    "table1_paper",
    "rda_paper",
    "sweep_cold",
    "sweep_resume",
    "sweep_faulted",
    "static_pricing",
];

/// The six Table I pairs in `table1()` order, then the three RDA pairs.
pub const TABLE1_PAIRS: [(&str, &str); 6] = [
    ("ffbp_ref", "refcpu"),
    ("ffbp_seq", "epiphany"),
    ("ffbp_spmd", "epiphany"),
    ("autofocus_ref", "refcpu"),
    ("autofocus_seq", "epiphany"),
    ("autofocus_mpmd", "epiphany"),
];
pub const RDA_PAIRS: [(&str, &str); 3] = [
    ("rda_seq", "epiphany"),
    ("rda_spmd", "epiphany"),
    ("rda_spmd", "e64"),
];
/// The pairs of `sweep_faulted`: the mappings with a recovery story, on
/// both chips.
const FAULTED_PAIRS: [(&str, &str); 6] = [
    ("ffbp_spmd", "epiphany"),
    ("ffbp_spmd", "e64"),
    ("autofocus_mpmd", "epiphany"),
    ("autofocus_mpmd", "e64"),
    ("rda_spmd", "epiphany"),
    ("rda_spmd", "e64"),
];
/// The event list of `specs/faults_demo.json`, inline so the benchmark
/// reads nothing outside its own directory.
pub const FAULTS_DEMO: &str = r#"{"version": 1, "faults": [
    {"kind": "flag_drop", "at": 2000},
    {"kind": "flag_delay", "at": 40000, "extra": 512},
    {"kind": "mesh_stall", "mesh": "cmesh", "at": 10000, "extra": 256},
    {"kind": "elink_degrade", "at": 8000, "extra": 128},
    {"kind": "sdram_bit_error", "at": 12000},
    {"kind": "core_halt", "core": 5, "at": 60000},
    {"kind": "flag_drop", "count": 2, "window": [0, 200000]}
]}"#;
pub const TUNED_PAIR: &str = "autofocus_mpmd:epiphany";

/// What one pass produced.
pub enum Out {
    /// `table1()` — records only (the timed form of `table1_paper`).
    Table(Box<Table1>),
    /// One [`MappingRun`] per pair, with images and criterion sweeps.
    Runs(Vec<MappingRun>),
    /// A sweep and the document text it serialised.
    Grid { outcome: SweepOutcome, text: String },
    /// One price and one analysis per pair, then the two tunings.
    Pricing {
        priced: Vec<(CostReport, Report, Report)>,
        tunings: Vec<Tuning>,
    },
}

/// FNV-1a over the exact bit patterns of an image.
fn image_digest(image: &ComplexImage) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for px in image.as_slice() {
        for word in [px.re.to_bits(), px.im.to_bits()] {
            hash = (hash ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn record_text(record: &RunRecord) -> String {
    record.to_json().to_string_pretty()
}

fn report_text(report: &Report) -> String {
    report
        .diagnostics
        .iter()
        .map(|d| format!("{d}\n"))
        .collect()
}

/// What must repeat exactly from pass to pass: the bytes every form of
/// a pass yields, and the functional outputs only some forms keep.
pub struct Fingerprint {
    bytes: String,
    functional: Option<String>,
}

impl Fingerprint {
    /// Equal bytes, and equal functional outputs where both kept them.
    pub fn agrees(&self, other: &Fingerprint) -> bool {
        self.bytes == other.bytes
            && match (&self.functional, &other.functional) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

impl Out {
    pub fn fingerprint(&self) -> Fingerprint {
        let records = |records: Vec<&RunRecord>| records.into_iter().map(record_text).collect();
        match self {
            Out::Table(_) => Fingerprint {
                bytes: records(self.records()),
                functional: None,
            },
            Out::Runs(runs) => Fingerprint {
                bytes: records(self.records()),
                functional: Some(
                    runs.iter()
                        .map(|r| {
                            format!(
                                "image {:?} sweep {:?} best {:?}\n",
                                r.image.as_ref().map(image_digest),
                                r.sweep,
                                r.best
                            )
                        })
                        .collect(),
                ),
            },
            Out::Grid { text, .. } => Fingerprint {
                bytes: text.clone(),
                functional: None,
            },
            Out::Pricing { priced, tunings } => {
                let mut bytes = String::new();
                for (cost, lints, analysis) in priced {
                    bytes += &cost.to_json().to_string_pretty();
                    bytes += &report_text(lints);
                    bytes += &report_text(analysis);
                }
                for t in tunings {
                    bytes += &t.to_json().to_string_pretty();
                }
                Fingerprint {
                    bytes,
                    functional: None,
                }
            }
        }
    }

    /// The machine records of the pass, where it has any.
    pub fn records(&self) -> Vec<&RunRecord> {
        match self {
            Out::Table(t) => t.records.iter().collect(),
            Out::Runs(runs) => runs.iter().map(|r| &r.record).collect(),
            _ => Vec::new(),
        }
    }
}

/// One workload with its inputs built.
pub trait Bench {
    /// Operations one pass attempts (runs, cells, pricings + tunings).
    fn ops(&self) -> u64;
    /// One pass. `Err` means an operation returned an error.
    fn pass(&self, spans: &mut Spans) -> Result<Out, String>;
    /// Check `observed` (a pass made with an enabled recorder, so in
    /// its most detailed form) against the workload's invariants.
    /// Returns one line per failed operation.
    fn verify(&self, observed: &Out) -> Vec<String>;
}

fn pair(mapping: &str, platform: &str) -> (Box<dyn Mapping>, Box<dyn Platform>) {
    (
        mapping_named(mapping).expect("registered mapping"),
        platform_named(platform).expect("registered platform"),
    )
}

/// Run `pairs` on `workload`, one `run_ms.<mapping>.<platform>` span each.
fn run_pairs(
    pairs: &[(&str, &str)],
    workload: &Workload,
    spans: &mut Spans,
) -> Result<Vec<MappingRun>, String> {
    pairs
        .iter()
        .map(|&(m, p)| {
            let (mapping, platform) = pair(m, p);
            spans
                .call(&format!("run_ms.{m}.{p}"), || {
                    run(mapping.as_ref(), workload, platform.as_ref())
                })
                .map_err(|e| format!("{m} x {p}: {e}"))
        })
        .collect()
}

fn bits_equal(a: &ComplexImage, b: &ComplexImage) -> bool {
    let same =
        |x: &c32, y: &c32| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits();
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| same(x, y))
}

/// The record-level invariants every run must satisfy: the phases'
/// energy adds up to the run's, and the record survives JSON.
fn check_record(record: &RunRecord) -> Result<(), String> {
    let phases: f64 = record.phases.iter().map(|p| p.energy_j).sum();
    let total = record.energy_j();
    if (phases - total).abs() > 1e-9 * total.abs().max(1.0) {
        return Err(format!("phase energy {phases} J != run energy {total} J"));
    }
    let json = record.to_json();
    let back = RunRecord::from_json(&json).map(|r| r.to_json().to_string_pretty());
    if back.as_deref() != Some(json.to_string_pretty().as_str()) {
        return Err("record does not round-trip through JSON".to_string());
    }
    Ok(())
}

// ---- table1_paper ----------------------------------------------------------

/// The paper's artefact: the six Table I runs.
pub struct Table1Paper {
    pub ffbp: sar_epiphany::FfbpWorkload,
    pub autofocus: sar_epiphany::AutofocusWorkload,
}

impl Table1Paper {
    pub fn small() -> Table1Paper {
        Table1Paper {
            ffbp: sar_epiphany::FfbpWorkload::small(),
            autofocus: sar_epiphany::AutofocusWorkload::small(),
        }
    }

    /// Build the inputs, after one small-scale pass that builds the
    /// layers' lazy tables. `quick` keeps the small inputs.
    pub fn setup(quick: bool) -> Result<Table1Paper, String> {
        let small = Table1Paper::small();
        small.pass(&mut Spans::new(false))?;
        Ok(if quick {
            small
        } else {
            Table1Paper {
                ffbp: sar_epiphany::FfbpWorkload::paper(),
                autofocus: sar_epiphany::AutofocusWorkload::paper(),
            }
        })
    }
}

impl Bench for Table1Paper {
    fn ops(&self) -> u64 {
        6
    }

    /// Timed: `table1()` itself, which keeps only the records. Traced:
    /// the same six `run` calls made from here, one span each, which
    /// also keeps the images and criterion sweeps `verify` needs.
    fn pass(&self, spans: &mut Spans) -> Result<Out, String> {
        if !spans.enabled() {
            return Ok(Out::Table(Box::new(table1(&self.ffbp, &self.autofocus))));
        }
        spans.scope("pass", |spans| {
            let ffbp = Workload::Ffbp(self.ffbp.clone());
            let autofocus = Workload::Autofocus(self.autofocus.clone());
            let mut runs = run_pairs(&TABLE1_PAIRS[..3], &ffbp, spans)?;
            runs.extend(run_pairs(&TABLE1_PAIRS[3..], &autofocus, spans)?);
            Ok(Out::Runs(runs))
        })
    }

    fn verify(&self, observed: &Out) -> Vec<String> {
        let Out::Runs(runs) = observed else {
            unreachable!("a pass with the recorder on yields runs")
        };
        let reference = sar_core::ffbp::ffbp(&self.ffbp.data, &self.ffbp.geom, &self.ffbp.config);
        let w = &self.autofocus;
        let step = 2.0 * w.max_shift / (w.hypotheses - 1) as f32;
        let mut failures = Vec::new();
        for (i, (run, (m, p))) in runs.iter().zip(TABLE1_PAIRS).enumerate() {
            let functional = if i < 3 {
                match &run.image {
                    Some(image) if bits_equal(image, &reference.image) => Ok(()),
                    _ => Err("image differs from sar_core::ffbp::ffbp".to_string()),
                }
            } else if run.sweep.is_none() || run.sweep != runs[3].sweep {
                Err("criterion sweep differs between machines".to_string())
            } else {
                match run.best {
                    Some((shift, _)) if (shift - w.true_shift).abs() <= step => Ok(()),
                    best => Err(format!("best shift {best:?} misses {}", w.true_shift)),
                }
            };
            if let Err(why) = functional.and_then(|()| check_record(&run.record)) {
                failures.push(format!("{m} x {p}: {why}"));
            }
        }
        failures
    }
}

// ---- rda_paper -------------------------------------------------------------

/// The Range-Doppler pairs: `sar-core`'s RDA stages carry about 70 %
/// of a pass, the chip model the rest; no reference CPU.
pub struct RdaPaper {
    pub workload: Workload,
}

impl RdaPaper {
    fn new(small: bool) -> RdaPaper {
        RdaPaper {
            workload: Workload::named("rda", small).expect("registered kernel"),
        }
    }

    /// As [`Table1Paper::setup`].
    pub fn setup(quick: bool) -> Result<RdaPaper, String> {
        let small = RdaPaper::new(true);
        small.pass(&mut Spans::new(false))?;
        Ok(if quick { small } else { RdaPaper::new(false) })
    }
}

impl Bench for RdaPaper {
    fn ops(&self) -> u64 {
        3
    }

    fn pass(&self, spans: &mut Spans) -> Result<Out, String> {
        spans.scope("pass", |spans| {
            Ok(Out::Runs(run_pairs(&RDA_PAIRS, &self.workload, spans)?))
        })
    }

    fn verify(&self, observed: &Out) -> Vec<String> {
        let Out::Runs(runs) = observed else {
            unreachable!("an RDA pass yields runs")
        };
        let w = self.workload.rda().expect("an RDA workload");
        let reference = sar_core::rda::rda(&w.raw, &w.geom, &w.config);
        let mut failures = Vec::new();
        for (run, (m, p)) in runs.iter().zip(RDA_PAIRS) {
            let functional = match &run.image {
                Some(image) if bits_equal(image, &reference.image) => Ok(()),
                _ => Err("image differs from sar_core::rda::rda".to_string()),
            };
            if let Err(why) = functional.and_then(|()| check_record(&run.record)) {
                failures.push(format!("{m} x {p}: {why}"));
            }
        }
        failures
    }
}

// ---- the three sweeps ------------------------------------------------------

/// Every registered Mapping x Platform pair, mapping-major.
fn registered_pairs() -> Vec<(&'static str, &'static str)> {
    let mut pairs = Vec::new();
    for mapping in sar_epiphany::all_mappings() {
        for platform in all_platforms() {
            if mapping.supports(platform.kind()) {
                pairs.push((mapping.name(), platform.label()));
            }
        }
    }
    pairs
}

/// Every registered pair except `ffbp_host x host`: that record carries
/// real wall-clock, so its document would differ from run to run.
fn grid16_pairs() -> Vec<(&'static str, &'static str)> {
    let mut pairs = registered_pairs();
    pairs.retain(|&(mapping, _)| mapping != "ffbp_host");
    pairs
}

/// Write a grid spec as JSON text and parse it back through the public
/// parser, as a user's spec file would be.
fn grid_spec(
    name: &str,
    pairs: &[(&str, &str)],
    seeds: std::ops::Range<u64>,
    faults: Option<&str>,
) -> Result<GridSpec, String> {
    let pairs: Vec<String> = pairs
        .iter()
        .map(|(m, p)| format!(r#"{{"mapping": "{m}", "platform": "{p}"}}"#))
        .collect();
    let seeds: Vec<String> = seeds.map(|s| s.to_string()).collect();
    let faults = faults.map_or_else(String::new, |f| format!(r#", "faults": {f}"#));
    let text = format!(
        r#"{{"version": 1, "name": "{name}", "small": true, "pairs": [{}], "seeds": [{}]{faults}}}"#,
        pairs.join(", "),
        seeds.join(", ")
    );
    GridSpec::parse(&text).map_err(|d| d.to_string())
}

/// `run_grid` + `to_string_pretty`, one span each.
fn sweep_pass(spec: &GridSpec, cache: &CellCache, spans: &mut Spans) -> Result<Out, String> {
    let outcome = spans
        .call("sweep.run_grid", || run_grid(spec, 1, cache))
        .map_err(|d| d.to_string())?;
    let text = spans.call("sweep.to_string", || outcome.document.to_string_pretty());
    Ok(Out::Grid { outcome, text })
}

fn grid_counts(
    outcome: &SweepOutcome,
    run: usize,
    derived: usize,
    cached: usize,
) -> Result<(), String> {
    let found = (
        outcome.cells_run,
        outcome.cells_derived,
        outcome.cells_cached,
    );
    if found == (run, derived, cached) {
        Ok(())
    } else {
        Err(format!(
            "run/derived/cached = {found:?}, expected {:?}",
            (run, derived, cached)
        ))
    }
}

/// A cold single-threaded sweep of the whole registry at small scale.
pub struct SweepCold {
    pub spec: GridSpec,
}

impl SweepCold {
    fn new(seed: u64, quick: bool) -> Result<SweepCold, String> {
        let mut pairs = grid16_pairs();
        let seeds = if quick {
            // A quarter of the document: parsing it is quadratic.
            pairs.truncate(8);
            seed..seed + 1
        } else {
            seed..seed + 2
        };
        Ok(SweepCold {
            spec: grid_spec("bench16", &pairs, seeds, None)?,
        })
    }

    /// Parse the spec and run one warm-up pass.
    pub fn setup(seed: u64, quick: bool) -> Result<SweepCold, String> {
        let cold = SweepCold::new(seed, quick)?;
        cold.pass(&mut Spans::new(false))?;
        Ok(cold)
    }
}

impl Bench for SweepCold {
    fn ops(&self) -> u64 {
        self.spec.cells().len() as u64
    }

    fn pass(&self, spans: &mut Spans) -> Result<Out, String> {
        spans.scope("pass", |spans| {
            sweep_pass(&self.spec, &CellCache::empty(), spans)
        })
    }

    fn verify(&self, observed: &Out) -> Vec<String> {
        let Out::Grid { outcome, text } = observed else {
            unreachable!("a sweep pass yields a grid")
        };
        let pairs = self.spec.pairs.len();
        let mut failures = Vec::new();
        if let Err(why) = grid_counts(outcome, pairs, self.spec.cells().len() - pairs, 0) {
            failures.push(format!("sweep_cold: {why}"));
        }
        match run_grid(&self.spec, 2, &CellCache::empty()) {
            Ok(wide) if wide.document.to_string_pretty() == *text => {}
            Ok(_) => failures.push("sweep_cold: threads=2 changes the document".to_string()),
            Err(d) => failures.push(format!("sweep_cold: threads=2 run failed: {d}")),
        }
        failures
    }
}

/// The one-seed half of the same grid, every cell already in the
/// document it re-reads. One seed, because parsing is quadratic in the
/// document: the 32-cell document takes 2.5 to 4 s to read, which
/// leaves three passes to a ten-second run, too few for their fastest
/// to be steady (it spread 30 % over ten runs on a disturbed host).
pub struct SweepResume {
    pub spec: GridSpec,
    pub cold_text: String,
    path: PathBuf,
}

impl SweepResume {
    /// Parse the spec, run the cold sweep and write its document where
    /// the passes will re-read it.
    pub fn setup(seed: u64, quick: bool) -> Result<SweepResume, String> {
        static DOCUMENTS: AtomicUsize = AtomicUsize::new(0);
        let mut cold = SweepCold::new(seed, quick)?;
        cold.spec.seeds.truncate(1);
        let Out::Grid { text, .. } = cold.pass(&mut Spans::new(false))? else {
            unreachable!("a sweep pass yields a grid")
        };
        let path = crate::out_dir()?.join(format!(
            "sweep_resume.{}.{}.json",
            std::process::id(),
            DOCUMENTS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        Ok(SweepResume {
            spec: cold.spec,
            cold_text: text,
            path,
        })
    }
}

impl Drop for SweepResume {
    fn drop(&mut self) {
        // Best effort: a leftover document only costs disk space.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Bench for SweepResume {
    fn ops(&self) -> u64 {
        self.spec.cells().len() as u64
    }

    fn pass(&self, spans: &mut Spans) -> Result<Out, String> {
        spans.scope("pass", |spans| {
            let cache = spans.call("sweep.cache_load", || CellCache::load(&self.path));
            sweep_pass(&self.spec, &cache, spans)
        })
    }

    fn verify(&self, observed: &Out) -> Vec<String> {
        let Out::Grid { outcome, text } = observed else {
            unreachable!("a sweep pass yields a grid")
        };
        let mut failures = Vec::new();
        if let Err(why) = grid_counts(outcome, 0, 0, self.spec.cells().len()) {
            failures.push(format!("sweep_resume: {why}"));
        }
        if *text != self.cold_text {
            failures.push("sweep_resume: resumed document differs from the cold one".to_string());
        }
        failures
    }
}

/// The chip pairs under an armed fault schedule, one per seed.
pub struct SweepFaulted {
    pub spec: GridSpec,
}

impl SweepFaulted {
    /// Parse the spec and run one warm-up pass.
    pub fn setup(seed: u64, quick: bool) -> Result<SweepFaulted, String> {
        let seeds = if quick {
            seed..seed + 1
        } else {
            seed..seed + 8
        };
        let faulted = SweepFaulted {
            spec: grid_spec("bench_faulted", &FAULTED_PAIRS, seeds, Some(FAULTS_DEMO))?,
        };
        faulted.pass(&mut Spans::new(false))?;
        Ok(faulted)
    }
}

/// Sum a field of every cell record's `faults` block.
pub fn fault_total(document: &Json, field: &str) -> u64 {
    document
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|cell| cell.get("record")?.get("faults")?.get(field)?.as_u64())
        .sum()
}

impl Bench for SweepFaulted {
    fn ops(&self) -> u64 {
        self.spec.cells().len() as u64
    }

    fn pass(&self, spans: &mut Spans) -> Result<Out, String> {
        spans.scope("pass", |spans| {
            sweep_pass(&self.spec, &CellCache::empty(), spans)
        })
    }

    fn verify(&self, observed: &Out) -> Vec<String> {
        let Out::Grid { outcome, .. } = observed else {
            unreachable!("a sweep pass yields a grid")
        };
        let mut failures = Vec::new();
        if let Err(why) = grid_counts(outcome, self.spec.cells().len(), 0, 0) {
            failures.push(format!("sweep_faulted: {why}"));
        }
        if fault_total(&outcome.document, "faults_injected") == 0 {
            failures.push("sweep_faulted: no fault was injected".to_string());
        }
        failures
    }
}

// ---- static_pricing --------------------------------------------------------

/// No simulation: program models, static cost bounds, placement search.
pub struct StaticPricing {
    pub pairs: Vec<(Box<dyn Mapping>, Box<dyn Platform>)>,
    pub workloads: Vec<Workload>,
    pub tune: TuneConfig,
}

impl StaticPricing {
    /// Build the three kernels' inputs, after one small-scale pass.
    pub fn setup(seed: u64, quick: bool) -> Result<StaticPricing, String> {
        let small = StaticPricing::new(seed, true);
        small.pass(&mut Spans::new(false))?;
        Ok(if quick {
            small
        } else {
            StaticPricing::new(seed, false)
        })
    }

    fn new(seed: u64, small: bool) -> StaticPricing {
        let pairs = registered_pairs()
            .into_iter()
            .map(|(m, p)| pair(m, p))
            .collect();
        let mut tune = TuneConfig::new(TUNED_PAIR);
        tune.seed = seed;
        tune.small = small;
        StaticPricing {
            pairs,
            workloads: ["ffbp", "rda", "autofocus"]
                .iter()
                .map(|k| Workload::named(k, small).expect("registered kernel"))
                .collect(),
            tune,
        }
    }

    pub fn workload_of(&self, mapping: &dyn Mapping) -> &Workload {
        self.workloads
            .iter()
            .find(|w| w.kernel() == mapping.kernel())
            .expect("a workload per kernel")
    }
}

impl Bench for StaticPricing {
    fn ops(&self) -> u64 {
        self.pairs.len() as u64 + 2
    }

    fn pass(&self, spans: &mut Spans) -> Result<Out, String> {
        spans.scope("pass", |spans| {
            let mut priced = Vec::with_capacity(self.pairs.len());
            for (mapping, platform) in &self.pairs {
                let (m, p, w) = (
                    mapping.as_ref(),
                    platform.as_ref(),
                    self.workload_of(mapping.as_ref()),
                );
                let (cost, lints) =
                    spans.call("sarlint.cost_pair", || sarlint::cost::cost_pair(m, w, p));
                let analysis =
                    spans.call("sarlint.analyze_pair", || sarlint::analyze_pair(m, w, p));
                priced.push((cost, lints, analysis));
            }
            let mut tunings = Vec::with_capacity(2);
            for (span, strategy) in [
                ("autotune.greedy", Strategy::Greedy),
                ("autotune.anneal", Strategy::Anneal),
            ] {
                let cfg = TuneConfig {
                    strategy,
                    ..self.tune.clone()
                };
                tunings.push(spans.call(span, || autotune::tune(&cfg))?);
            }
            Ok(Out::Pricing { priced, tunings })
        })
    }

    fn verify(&self, observed: &Out) -> Vec<String> {
        let Out::Pricing { priced, tunings } = observed else {
            unreachable!("a pricing pass yields prices")
        };
        let mut failures = Vec::new();
        let mut bounded = 0;
        for ((cost, lints, analysis), (m, p)) in priced.iter().zip(&self.pairs) {
            let subject = format!("{} x {}", m.name(), p.label());
            bounded += usize::from(cost.bounded);
            if cost.bounded
                && !(cost.cycles.lo <= cost.cycles.hi && cost.total_j.lo <= cost.total_j.hi)
            {
                failures.push(format!("{subject}: cost bounds are inverted"));
            } else if lints.hard_count() + analysis.hard_count() > 0 {
                failures.push(format!("{subject}: hard findings\n{lints}{analysis}"));
            }
        }
        // Only the wall-clock pair has no analytical model.
        if bounded + 1 != self.pairs.len() {
            failures.push(format!(
                "static_pricing: {bounded} of {} pairs are bounded",
                self.pairs.len()
            ));
        }
        for t in tunings {
            if t.best_score > t.initial_score {
                failures.push(format!(
                    "static_pricing: tuned score {} is worse than the initial {}",
                    t.best_score, t.initial_score
                ));
            }
        }
        failures
    }
}
