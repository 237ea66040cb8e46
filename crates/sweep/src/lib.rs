//! `sweep` — the parallel configuration-sweep engine (DESIGN.md §3
//! S16): fan a Mapping × Platform × seed grid across worker threads
//! and serialise one versioned results document.
//!
//! Three properties define the engine:
//!
//! * **Determinism.** Every simulated cell is a deterministic
//!   function of its key, and cells are serialised in the grid's
//!   canonical order (pairs × seeds) — so the output document is
//!   byte-identical for *any* worker-thread count, and a re-run of an
//!   unchanged grid reproduces the file exactly.
//! * **Warm sharing.** Workload construction (pulse compression of
//!   the simulated scene) dwarfs many of the simulations themselves,
//!   so each kernel's workload is built once and shared read-only by
//!   every worker.
//! * **Incrementality.** Each cell is keyed by
//!   `(mapping, platform, kernel, scale, seed, record version)` and its
//!   pair's `set` block; a [`CellCache`] loaded from a previous
//!   document satisfies matching cells without simulating, so growing
//!   a grid re-runs only the new cells ([`SweepOutcome::cells_run`]
//!   counts the difference). The cache is resolved first and
//!   everything else follows from what is left: a kernel none of whose
//!   cells is queued gets no workload, one queued cell (or none) gets
//!   no worker thread, and a cached record is serialised from the
//!   cache, not from a copy.
//!
//! The `sweep` binary wraps [`run_grid`] behind
//! `--grid/--threads/--resume`; the grid spec format is documented on
//! [`GridSpec::parse`].

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use desim::{Json, RunRecord, RUN_RECORD_VERSION};
use faultsim::{FaultPlan, FaultState};
use sar_epiphany::{configured, Configured};
use sim_harness::{platform_named, run_ctx, Diagnostic, Placement, RunContext, Workload};

/// Grid-spec schema version accepted by [`GridSpec::parse`].
pub const GRID_SPEC_VERSION: u64 = 1;

/// One Mapping × Platform combination of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSpec {
    /// Registered mapping name (`sar_epiphany::mapping_named`).
    pub mapping: String,
    /// Registered platform label (`sim_harness::platform_named`).
    pub platform: String,
    /// The pair's `set` block with its members sorted by key — the
    /// overrides `sar_epiphany::configured` applies; `None` when the
    /// spec gives none (or an empty one).
    pub set: Option<Json>,
    /// The placement a `"placement": "@path"` in `set` names, as
    /// [`GridSpec::parse`] read it, with the [`text_digest`] of the
    /// file's text: the pair's cells key on that digest and simulate
    /// that placement, whatever the file holds later.
    pub placement_file: Option<(u64, Placement)>,
}

impl PairSpec {
    /// The mapping and platform the pair's cells run on.
    fn configured(&self) -> Result<Configured, String> {
        let mut set = self.set.clone().unwrap_or_else(Json::obj);
        if let Some((_, place)) = &self.placement_file {
            set.set("placement", place.to_json());
        }
        configured(&self.mapping, &self.platform, &set)
    }
}

/// A parsed and validated sweep grid.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Grid identity; the default output path is
    /// `results/sweep_<name>.json`.
    pub name: String,
    /// Whether cells run the reduced test-scale workloads.
    pub small: bool,
    /// The Mapping × Platform combinations, in serialisation order.
    pub pairs: Vec<PairSpec>,
    /// Fault seeds; every pair runs once per seed.
    pub seeds: Vec<u64>,
    /// Optional fault-spec JSON (the `faultsim` format), expanded per
    /// seed. Absent means every cell runs an empty (fault-free) plan
    /// that still stamps its seed into the record.
    pub faults: Option<String>,
}

/// One grid cell: a pair at one seed.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The pair.
    pub pair: PairSpec,
    /// Fault seed.
    pub seed: u64,
}

impl Cell {
    /// `mapping x platform seed N`, then the `set` block if any.
    fn label(&self) -> String {
        let pair = &self.pair;
        let label = format!("{} x {} seed {}", pair.mapping, pair.platform, self.seed);
        match &pair.set {
            Some(set) => format!("{label} {set}"),
            None => label,
        }
    }
}

/// The cache key of one cell. Includes [`RUN_RECORD_VERSION`], so a
/// schema bump invalidates every cached cell at once, and — when the
/// grid carries a fault spec — a digest of the spec text, so editing
/// (or removing) the `faults` block invalidates every cached cell of
/// the grid instead of silently serving records simulated under a
/// different fault schedule. A pair's `set` block, when it has one,
/// is appended as written in the document (compact, keys sorted); only
/// a `placement: "@path"` in it appends more — the digest of the file's
/// text as [`GridSpec::parse`] read it ([`PairSpec::placement_file`]) —
/// so a grid parsed after the file is edited re-simulates the pair's
/// cells. Keys without either keep the legacy six-field format, so
/// existing documents stay valid caches and serialise byte-identically.
pub fn cell_key(
    pair: &PairSpec,
    kernel: &str,
    small: bool,
    seed: u64,
    faults: Option<&str>,
) -> String {
    let (mapping, platform) = (&pair.mapping, &pair.platform);
    let scale = if small { "small" } else { "paper" };
    let mut key = match faults {
        None => format!("{mapping}|{platform}|{kernel}|{scale}|{seed}|v{RUN_RECORD_VERSION}"),
        Some(spec) => format!(
            "{mapping}|{platform}|{kernel}|{scale}|{seed}|f{:016x}|v{RUN_RECORD_VERSION}",
            text_digest(spec)
        ),
    };
    if let Some(set) = &pair.set {
        key.push_str(&format!("|{set}"));
    }
    if let Some((digest, _)) = pair.placement_file {
        key.push_str(&format!("|p{digest:016x}"));
    }
    key
}

/// FNV-1a 64-bit digest of a fault spec's or placement file's text. Not
/// cryptographic — it only needs to make distinct texts (and edits)
/// land on distinct keys with overwhelming probability.
fn text_digest(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn bad_spec(subject: impl Into<String>, message: impl Into<String>) -> Diagnostic {
    Diagnostic::hard("SWP001", subject, message)
}

impl GridSpec {
    /// Parse and validate a grid spec. The format:
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "name": "scaling",
    ///   "small": true,
    ///   "pairs": [
    ///     {"mapping": "ffbp_spmd", "platform": "e64"},
    ///     {"mapping": "ffbp_spmd", "platform": "e64", "set": {"cores": 16}}
    ///   ],
    ///   "seeds": [1, 2],
    ///   "faults": { ... optional faultsim spec ... }
    /// }
    /// ```
    ///
    /// Every pair must name a registered mapping and platform the
    /// mapping supports, and its optional `set` block must be one
    /// `sar_epiphany::configured` accepts for the pair (`SWP002`
    /// otherwise), so a sweep fails before any simulation starts rather
    /// than mid-grid. A `set` with `faults` replaces the grid's `faults`
    /// for that pair. A `set` whose `placement` is `"@path"` has its
    /// file read here, once ([`PairSpec::placement_file`]).
    pub fn parse(text: &str) -> Result<GridSpec, Diagnostic> {
        let doc = Json::parse(text).map_err(|e| bad_spec("grid", format!("not JSON: {e}")))?;
        match doc.get("version").and_then(Json::as_u64) {
            Some(GRID_SPEC_VERSION) => {}
            v => {
                return Err(bad_spec(
                    "version",
                    format!("grid spec version must be {GRID_SPEC_VERSION}, got {v:?}"),
                ))
            }
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_spec("name", "grid spec needs a string 'name'"))?
            .to_string();
        let small = doc.get("small").and_then(Json::as_bool).unwrap_or(true);
        let pairs_json = doc
            .get("pairs")
            .and_then(Json::as_array)
            .filter(|a| !a.is_empty())
            .ok_or_else(|| bad_spec("pairs", "grid spec needs a non-empty 'pairs' array"))?;
        let mut pairs = Vec::with_capacity(pairs_json.len());
        for (i, p) in pairs_json.iter().enumerate() {
            let field = |key: &str| {
                p.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad_spec(format!("pairs[{i}]"), format!("missing '{key}'")))
            };
            let set = match p.get("set").map(Json::as_object) {
                None => None,
                Some(None) => {
                    return Err(bad_spec(format!("pairs[{i}]"), "'set' must be an object"))
                }
                Some(Some([])) => None,
                Some(Some(members)) => {
                    let mut members = members.to_vec();
                    members.sort_by(|a, b| a.0.cmp(&b.0));
                    Some(Json::Obj(members))
                }
            };
            let (mapping, platform) = (field("mapping")?, field("platform")?);
            let file = set
                .as_ref()
                .and_then(|s| s.get("placement")?.as_str()?.strip_prefix('@'));
            let placement_file = match file.map(Placement::load).transpose() {
                Ok(loaded) => loaded.map(|(place, text)| (text_digest(&text), place)),
                Err(d) => return Err(Diagnostic::hard("SWP002", format!("pairs[{i}]"), d.message)),
            };
            let pair = PairSpec {
                mapping,
                platform,
                set,
                placement_file,
            };
            validate_pair(&pair, i)?;
            pairs.push(pair);
        }
        let seeds = match doc.get("seeds").and_then(Json::as_array) {
            None => vec![0],
            Some(list) => {
                let seeds: Option<Vec<u64>> = list.iter().map(Json::as_u64).collect();
                seeds
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| bad_spec("seeds", "'seeds' must be a non-empty u64 array"))?
            }
        };
        let faults = doc.get("faults").map(Json::to_string_pretty);
        if let Some(text) = &faults {
            // Fail early on an unparseable fault spec (seed value is
            // irrelevant to validity).
            FaultPlan::parse(text, 0)
                .map_err(|e| bad_spec("faults", format!("bad fault spec: {e}")))?;
        }
        Ok(GridSpec {
            name,
            small,
            pairs,
            seeds,
            faults,
        })
    }

    /// Every cell of the grid in canonical (pair-major, then seed)
    /// order — the order cells are serialised in, independent of which
    /// worker simulates them.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.pairs.len() * self.seeds.len());
        for pair in &self.pairs {
            for &seed in &self.seeds {
                cells.push(Cell {
                    pair: pair.clone(),
                    seed,
                });
            }
        }
        cells
    }

    /// The spec echoed into the results document, so a document alone
    /// identifies the grid that produced it.
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("version", GRID_SPEC_VERSION)
            .with("small", self.small)
            .with(
                "pairs",
                Json::Arr(
                    self.pairs
                        .iter()
                        .map(|p| {
                            with_set(
                                Json::obj()
                                    .with("mapping", p.mapping.as_str())
                                    .with("platform", p.platform.as_str()),
                                p,
                            )
                        })
                        .collect(),
                ),
            )
            .with(
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::from(s)).collect()),
            )
            .with("faulted", self.faults.is_some())
    }
}

/// `row` with the pair's `set` block appended, when it has one.
fn with_set(row: Json, pair: &PairSpec) -> Json {
    match &pair.set {
        Some(set) => row.with("set", set.clone()),
        None => row,
    }
}

/// Resolve and cross-check one pair against the registries.
fn validate_pair(pair: &PairSpec, index: usize) -> Result<(), Diagnostic> {
    let subject = format!("pairs[{index}]");
    let Configured {
        mapping, platform, ..
    } = pair
        .configured()
        .map_err(|e| Diagnostic::hard("SWP002", subject.clone(), e))?;
    if !mapping.supports(platform.kind()) {
        return Err(Diagnostic::hard(
            "SWP002",
            subject,
            format!(
                "mapping '{}' does not support platform '{}'",
                pair.mapping, pair.platform
            ),
        ));
    }
    Ok(())
}

/// Completed cells from a previous sweep document, keyed by
/// [`cell_key`]. Loading tolerates anything — a missing file, foreign
/// JSON or a version-bumped document simply yields an empty cache and
/// the sweep re-simulates.
#[derive(Debug, Default)]
pub struct CellCache {
    map: HashMap<String, RunRecord>,
}

impl CellCache {
    /// A cache with no cells.
    pub fn empty() -> CellCache {
        CellCache::default()
    }

    /// Cached cells.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Harvest the `cells` of a previous sweep document. Only
    /// documents written by this record-schema version contribute
    /// (cell keys embed the version too — this is the cheap outer
    /// guard).
    pub fn from_document(doc: &Json) -> CellCache {
        let mut cache = CellCache::empty();
        if doc.get("version").and_then(Json::as_u64) != Some(u64::from(RUN_RECORD_VERSION)) {
            return cache;
        }
        let Some(cells) = doc.get("cells").and_then(Json::as_array) else {
            return cache;
        };
        for cell in cells {
            let key = cell.get("key").and_then(Json::as_str);
            let record = cell.get("record").and_then(RunRecord::from_json);
            if let (Some(key), Some(record)) = (key, record) {
                cache.map.insert(key.to_string(), record);
            }
        }
        cache
    }

    /// [`CellCache::from_document`] on a file path; unreadable or
    /// unparseable files yield an empty cache.
    pub fn load(path: &Path) -> CellCache {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .map_or_else(CellCache::empty, |doc| CellCache::from_document(&doc))
    }
}

/// Wall-time attribution for one sweep, collected unconditionally
/// (an `Instant` pair per phase costs nothing next to a simulation)
/// and printed by the `sweep` binary under `--profile`. None of this
/// reaches the results document — profiling a run never changes its
/// bytes.
#[derive(Debug, Default)]
pub struct SweepProfile {
    /// Workload construction per kernel with a cell to simulate, in
    /// first-use order (empty when every cell was cached).
    pub setup: Vec<(String, Duration)>,
    /// Simulation wall time per *simulated* cell (cached and derived
    /// cells cost nothing), in canonical cell order.
    pub cells: Vec<(String, Duration)>,
    /// Wall time of the simulation phase, every worker included: what
    /// the caller waited for while `cells` were being simulated.
    pub simulate: Duration,
    /// Assembling and pricing the results document.
    pub serialize: Duration,
}

/// What [`run_grid`] produced: the serialisable document plus the
/// run/cached/derived split (deliberately *not* part of the document,
/// so a resumed run emits byte-identical output).
#[derive(Debug)]
pub struct SweepOutcome {
    /// The versioned results document.
    pub document: Json,
    /// Total cells in the grid.
    pub cells_total: usize,
    /// Cells simulated this run.
    pub cells_run: usize,
    /// Cells satisfied from the cache.
    pub cells_cached: usize,
    /// Cells fast-forwarded from a same-pair representative (fault-free
    /// grids only — see [`run_grid`]).
    pub cells_derived: usize,
    /// Where the wall time went.
    pub profile: SweepProfile,
}

/// Run every cell of `spec` not already in `cache`, fanning the work
/// across up to `threads` scoped worker threads (the caller itself
/// when one worker is enough), and assemble the results document. The
/// document depends only on the grid (not on `threads` or the cache
/// hit pattern).
///
/// **Seed fast-forward.** On a fault-free grid the simulation is a
/// deterministic function of (mapping, platform, kernel, scale) alone:
/// the seed reaches the record only as the stamped `fault_seed`
/// identity counter. So only one representative cell per pair is
/// simulated; the remaining seeds are derived in closed form by
/// cloning the representative's record and re-stamping `fault_seed`
/// ([`SweepOutcome::cells_derived`] counts them). The equivalence
/// suite (`tests/equivalence.rs`) pins derived == simulated byte for
/// byte across every registered pair. The fast-forward is decided per
/// pair: a pair under a fault spec — the grid's, or its own `set`
/// block's — simulates every seed, since every seed expands a
/// different fault schedule.
pub fn run_grid(
    spec: &GridSpec,
    threads: usize,
    cache: &CellCache,
) -> Result<SweepOutcome, Diagnostic> {
    let cells = spec.cells();
    // Each pair resolved once; its cells share the resolution.
    let resolved = (spec.pairs.iter().enumerate())
        .map(|(i, pair)| {
            pair.configured()
                .map_err(|e| Diagnostic::hard("SWP002", format!("pairs[{i}]"), e))
        })
        .collect::<Result<Vec<Configured>, _>>()?;
    let kernels: Vec<&'static str> = resolved.iter().map(|c| c.mapping.kernel()).collect();
    let faults: Vec<Option<String>> = (resolved.iter())
        .map(|c| c.faults.clone().or_else(|| spec.faults.clone()))
        .collect();
    let seeds_n = spec.seeds.len();
    let kernel_of = |cell_index: usize| kernels[cell_index / seeds_n];
    let key_of = |cell_index: usize| {
        let Cell { pair, seed } = &cells[cell_index];
        cell_key(
            pair,
            kernel_of(cell_index),
            spec.small,
            *seed,
            spec.faults.as_deref(),
        )
    };

    // Satisfy what the cache can, borrowing its records; queue the
    // rest. Fault-free pairs additionally dedup seeds: a pair's first
    // unresolved cell becomes the simulated representative, the rest
    // are derived afterwards.
    let mut slots: Vec<Option<Cow<'_, RunRecord>>> = Vec::with_capacity(cells.len());
    let mut work: Vec<usize> = Vec::new();
    let mut derive: Vec<usize> = Vec::new();
    for i in 0..cells.len() {
        slots.push(cache.map.get(&key_of(i)).map(Cow::Borrowed));
        if slots[i].is_none() {
            let pair_start = (i / seeds_n) * seeds_n;
            let has_representative = faults[i / seeds_n].is_none()
                && (slots[pair_start..i].iter().any(Option::is_some)
                    || work.last().is_some_and(|&w| w >= pair_start));
            if has_representative {
                derive.push(i);
            } else {
                work.push(i);
            }
        }
    }
    let cells_run = work.len();
    let cells_derived = derive.len();
    let cells_cached = cells.len() - cells_run - cells_derived;

    // Each kernel's workload is built once, and only if one of its
    // cells is actually simulated: a fully cached grid builds none.
    let mut profile = SweepProfile::default();
    let mut workloads: HashMap<&'static str, Workload> = HashMap::new();
    for &cell_index in &work {
        let kernel = kernel_of(cell_index);
        if !workloads.contains_key(kernel) {
            let t0 = Instant::now();
            let workload = Workload::named(kernel, spec.small).expect("registered kernel");
            profile.setup.push((kernel.to_string(), t0.elapsed()));
            workloads.insert(kernel, workload);
        }
    }

    // Workers claim queued cells off a shared cursor. With at most one
    // worker's worth of work the caller is that worker: no thread is
    // spawned to simulate one cell, or none.
    let done = Mutex::new(Vec::with_capacity(work.len()));
    let cursor = AtomicUsize::new(0);
    let worker = || {
        while let Some(&cell_index) = work.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let t0 = Instant::now();
            let result = simulate(
                &cells[cell_index],
                &resolved[cell_index / seeds_n],
                &workloads[kernel_of(cell_index)],
                faults[cell_index / seeds_n].as_deref(),
            );
            done.lock()
                .expect("pushing into reserved capacity cannot panic")
                .push((cell_index, t0.elapsed(), result));
        }
    };
    let t_simulate = Instant::now();
    let workers = threads.min(work.len());
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }
    profile.simulate = t_simulate.elapsed();
    // Canonical cell order, whichever worker finished first: the
    // profile lists cells in it and the first failing cell is reported.
    let mut done = done
        .into_inner()
        .expect("pushing into reserved capacity cannot panic");
    done.sort_by_key(|&(cell_index, ..)| cell_index);
    for (cell_index, elapsed, result) in done {
        profile.cells.push((cells[cell_index].label(), elapsed));
        slots[cell_index] = Some(Cow::Owned(result?));
    }

    // Fast-forward the deduped seeds: clone any resolved same-pair
    // record and re-stamp the identity counter.
    for &i in &derive {
        let pair_start = (i / seeds_n) * seeds_n;
        let mut record = slots[pair_start..pair_start + seeds_n]
            .iter()
            .find_map(|slot| slot.as_deref().cloned())
            .expect("a representative cell was simulated or cached");
        record.counters.set("fault_seed", cells[i].seed);
        slots[i] = Some(Cow::Owned(record));
    }
    let records: Vec<&RunRecord> = slots
        .iter()
        .map(|slot| slot.as_deref().expect("every cell resolved"))
        .collect();

    let t_serialize = Instant::now();
    let cell_docs: Vec<Json> = cells
        .iter()
        .zip(&records)
        .enumerate()
        .map(|(i, (cell, record))| {
            Json::obj()
                .with("key", key_of(i))
                .with("mapping", cell.pair.mapping.as_str())
                .with("platform", cell.pair.platform.as_str())
                .with("kernel", kernel_of(i))
                .with("seed", cell.seed)
                .with("record", record.to_json())
        })
        .collect();

    let document = Json::obj()
        .with("bench", format!("sweep_{}", spec.name))
        .with("version", RUN_RECORD_VERSION)
        .with("grid", spec.to_json())
        .with("cells", Json::Arr(cell_docs))
        .with("scaling", scaling_summary(spec, &kernels, &records))
        .with("power", power_summary(spec, &records));
    profile.serialize = t_serialize.elapsed();
    Ok(SweepOutcome {
        document,
        cells_total: cells.len(),
        cells_run,
        cells_cached,
        cells_derived,
        profile,
    })
}

/// Simulate one cell of the pair `configured` resolves: arm the fault
/// plan for the cell's seed (an empty plan when the pair has none, so
/// the seed is still stamped) and run the pair through the unified
/// harness entry point.
fn simulate(
    cell: &Cell,
    configured: &Configured,
    workload: &Workload,
    faults: Option<&str>,
) -> Result<RunRecord, Diagnostic> {
    let Configured {
        mapping, platform, ..
    } = configured;
    let plan = match faults {
        Some(text) => FaultPlan::parse(text, cell.seed)
            .map_err(|e| Diagnostic::hard("SWP001", "faults", format!("bad fault spec: {e}")))?,
        None => FaultPlan::empty(cell.seed),
    };
    let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
    let out = run_ctx(mapping.as_ref(), workload, platform.as_ref(), &ctx)
        .map_err(|e| Diagnostic::hard("SWP003", cell.label(), e.to_string()))?;
    Ok(out.record)
}

/// Each pair's first-seed record, by pair index: `records` is in
/// canonical (pair-major) cell order.
fn first_records<'a>(spec: &GridSpec, records: &[&'a RunRecord]) -> Vec<&'a RunRecord> {
    records
        .iter()
        .step_by(spec.seeds.len().max(1))
        .copied()
        .collect()
}

/// The strong-scaling summary (Table-I style): one row per pair,
/// timed and priced from its first-seed record, with speedup and
/// energy ratios against whichever baselines the grid itself
/// contains — the same kernel's single-core `*_seq` mapping on the
/// 16-core chip (`vs_seq`), and the same mapping on the 16-core chip
/// (`vs_e16`, the cross-chip strong-scaling ratio). A baseline is the
/// first pair with that mapping and platform and the same `set` block.
fn scaling_summary(spec: &GridSpec, kernels: &[&'static str], records: &[&RunRecord]) -> Json {
    // Seeds replay the same simulation — they only re-seed the fault
    // plan — so a pair is its first-seed record.
    let firsts = first_records(spec, records);
    let baseline = |mapping: &str, platform: &str, set: &Option<Json>| {
        let found = spec
            .pairs
            .iter()
            .position(|p| p.mapping == mapping && p.platform == platform && p.set == *set);
        found.map(|i| firsts[i])
    };
    let mut rows = Vec::with_capacity(spec.pairs.len());
    for (pair_index, pair) in spec.pairs.iter().enumerate() {
        let kernel = kernels[pair_index];
        let record = firsts[pair_index];
        let platform = platform_named(&pair.platform).expect("validated at parse");
        let platform_cores = platform
            .epiphany_params()
            .map(|p| p.cores())
            .or_else(|| platform.host_threads())
            .unwrap_or(1);
        let row = Json::obj()
            .with("mapping", pair.mapping.as_str())
            .with("platform", pair.platform.as_str());
        let mut row = with_set(row, pair)
            .with("kernel", kernel)
            .with("platform_cores", platform_cores)
            .with("time_ms", record.millis())
            .with("energy_j", record.energy_j())
            .with("power_w", record.power_w);
        let seq = baseline(&format!("{kernel}_seq"), "epiphany", &pair.set);
        if let Some(seq) = seq.filter(|s| s.millis() > 0.0) {
            row.set("speedup_vs_seq", seq.millis() / record.millis());
            if record.energy_j() > 0.0 {
                row.set("energy_vs_seq", seq.energy_j() / record.energy_j());
            }
        }
        if pair.platform != "epiphany" {
            if let Some(e16) = baseline(&pair.mapping, "epiphany", &pair.set) {
                row.set("speedup_vs_e16", e16.millis() / record.millis());
            }
        }
        rows.push(row);
    }
    Json::obj().with("rows", Json::Arr(rows))
}

/// Powertrace aggregates over the grid: per-pair energy, peak power
/// and run-level dominant component from each first-seed record's
/// power block, plus grid-wide peak-power percentiles over *every*
/// priced cell (seeds included — fault recovery changes a cell's
/// power profile even though its first-seed timing is shared).
fn power_summary(spec: &GridSpec, records: &[&RunRecord]) -> Json {
    let mut peaks: Vec<f64> = Vec::new();
    let mut total_energy = 0.0;
    for record in records {
        if let Some(power) = &record.power {
            peaks.push(power.peak_power_w(record.elapsed.clock));
        }
        total_energy += record.energy_j();
    }
    let priced = records.len();
    // total_cmp gives a total order (NaN-safe), keeping the document
    // byte-deterministic whatever the records contain.
    peaks.sort_by(f64::total_cmp);
    let quantile = |sorted: &[f64], q: f64| -> f64 {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() - 1) as f64 * q).round() as usize]
        }
    };

    let mut rows = Vec::with_capacity(spec.pairs.len());
    for (pair, record) in spec.pairs.iter().zip(first_records(spec, records)) {
        let row = Json::obj()
            .with("mapping", pair.mapping.as_str())
            .with("platform", pair.platform.as_str());
        let mut row = with_set(row, pair).with("energy_j", record.energy_j());
        if let Some(power) = &record.power {
            let run_energy = power.timeline.total_energy();
            let attribution = desim::PhaseAttribution::attribute(&run_energy, 0.0, 0.0, 0.0);
            row.set("epochs", power.timeline.epochs.len() as u64);
            row.set("peak_power_w", power.peak_power_w(record.elapsed.clock));
            row.set("dominant", attribution.dominant);
            row.set("dominant_share", attribution.dominant_share);
        }
        rows.push(row);
    }
    Json::obj()
        .with("cells_priced", priced as u64)
        .with(
            "energy_per_cell_j",
            if priced > 0 {
                total_energy / priced as f64
            } else {
                0.0
            },
        )
        .with(
            "peak_power_w",
            Json::obj()
                .with("p50", quantile(&peaks, 0.5))
                .with("p95", quantile(&peaks, 0.95))
                .with("max", peaks.last().copied().unwrap_or(0.0)),
        )
        .with("rows", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> GridSpec {
        GridSpec::parse(
            r#"{
                "version": 1,
                "name": "t",
                "small": true,
                "pairs": [
                    {"mapping": "autofocus_seq", "platform": "epiphany"},
                    {"mapping": "autofocus_mpmd", "platform": "e64"}
                ],
                "seeds": [7, 8]
            }"#,
        )
        .expect("demo spec parses")
    }

    #[test]
    fn spec_parses_and_enumerates_cells_in_canonical_order() {
        let spec = demo_spec();
        assert_eq!(spec.name, "t");
        assert!(spec.small);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells
                .iter()
                .map(|c| (c.pair.mapping.as_str(), c.seed))
                .collect::<Vec<_>>(),
            vec![
                ("autofocus_seq", 7),
                ("autofocus_seq", 8),
                ("autofocus_mpmd", 7),
                ("autofocus_mpmd", 8)
            ]
        );
    }

    #[test]
    fn bad_specs_fail_with_stable_codes() {
        let version = GridSpec::parse(r#"{"version": 9, "name": "x", "pairs": []}"#).unwrap_err();
        assert_eq!(version.code, "SWP001");
        let unknown = GridSpec::parse(
            r#"{"version": 1, "name": "x",
                "pairs": [{"mapping": "ffbp_gpu", "platform": "epiphany"}]}"#,
        )
        .unwrap_err();
        assert_eq!(unknown.code, "SWP002");
        let unsupported = GridSpec::parse(
            r#"{"version": 1, "name": "x",
                "pairs": [{"mapping": "ffbp_spmd", "platform": "refcpu"}]}"#,
        )
        .unwrap_err();
        assert_eq!(unsupported.code, "SWP002");
        assert!(unsupported.message.contains("does not support"));

        // Hostile `set` blocks: each a coded diagnostic, never a panic.
        let spmd = r#""mapping": "ffbp_spmd", "platform": "epiphany""#;
        let mpmd = r#""mapping": "autofocus_mpmd", "platform": "epiphany""#;
        for (pair, code, says) in [
            (format!(r#"{spmd}, "set": {{"threads": 4}}"#), "SWP002", "unknown key 'threads'"),
            (
                r#""mapping": "autofocus_seq", "platform": "epiphany", "set": {"cores": 4}"#.into(),
                "SWP002",
                "takes no 'cores'",
            ),
            (
                r#""mapping": "ffbp_ref", "platform": "refcpu", "set": {"clock_mhz": 400}"#.into(),
                "SWP002",
                "takes no 'clock_mhz'",
            ),
            (
                r#""mapping": "ffbp_seq", "platform": "epiphany", "set": {"placement": "neighbor"}"#
                    .into(),
                "SWP002",
                "takes no 'placement'",
            ),
            (format!(r#"{spmd}, "set": {{"cores": 0}}"#), "SWP002", "'cores' must be"),
            (format!(r#"{spmd}, "set": {{"cores": 1e9}}"#), "SWP002", "'cores' must be"),
            (format!(r#"{spmd}, "set": {{"clock_mhz": 0}}"#), "SWP002", "'clock_mhz' must be"),
            (format!(r#"{spmd}, "set": {{"clock_mhz": -400}}"#), "SWP002", "'clock_mhz' must be"),
            (format!(r#"{spmd}, "set": {{"clock_mhz": 1e999}}"#), "SWP001", "not JSON"),
            (
                format!(r#"{spmd}, "set": {{"elink_bytes_per_cycle": 0}}"#),
                "SWP002",
                "'elink_bytes_per_cycle' must be",
            ),
            (format!(r#"{spmd}, "set": {{"prefetch": "off"}}"#), "SWP002", "'prefetch' must be"),
            (format!(r#"{spmd}, "set": {{"prefetch": 0}}"#), "SWP002", "'prefetch' must be"),
            (
                format!(r#"{spmd}, "set": {{"faults": {{"version": 1, "faults": [{{"at": 5}}]}}}}"#),
                "SWP002",
                "bad fault spec",
            ),
            (
                // Well-formed, but 2^53 events would never finish expanding.
                format!(
                    r#"{spmd}, "set": {{"faults": {{"version": 1, "faults": [{{"kind": "flag_drop",
                        "count": 9007199254740992, "window": [0, 9]}}]}}}}"#
                ),
                "SWP002",
                "\"count\" must be",
            ),
            (format!(r#"{spmd}, "set": {{"faults": "none"}}"#), "SWP002", "bad fault spec"),
            (
                format!(r#"{mpmd}, "set": {{"placement": "@/nonexistent.json"}}"#),
                "SWP002",
                "cannot read placement file",
            ),
            (
                format!(r#"{mpmd}, "set": {{"placement": {{"version": 1}}}}"#),
                "SWP002",
                "bad placement",
            ),
            (
                format!(
                    r#"{mpmd}, "set": {{"placement": {{"version": 1, "range": [[0, 1, 2], [3, 4, 5]],
                        "beam": [[6, 7, 8], [9, 10, 11]], "corr": 1000000}}}}"#
                ),
                "SWP002",
                "off the canonical coordinate space",
            ),
            (format!(r#"{spmd}, "set": {{"cores": 2, "cores": 4}}"#), "SWP002", "set twice"),
            (format!(r#"{spmd}, "set": [4]"#), "SWP001", "must be an object"),
        ] {
            let text = format!(r#"{{"version": 1, "name": "x", "pairs": [{{{pair}}}]}}"#);
            let d = GridSpec::parse(&text).expect_err(&pair);
            assert_eq!(d.code, code, "{pair}: {d}");
            assert!(d.message.contains(says), "{pair}: {d}");
        }
    }

    /// `ffbp_spmd` on the E64 with no `set` block.
    fn spmd_on_e64() -> PairSpec {
        PairSpec {
            mapping: "ffbp_spmd".to_string(),
            platform: "e64".to_string(),
            set: None,
            placement_file: None,
        }
    }

    #[test]
    fn cell_keys_embed_the_record_version() {
        let key = cell_key(&spmd_on_e64(), "ffbp", true, 3, None);
        assert_eq!(
            key,
            format!("ffbp_spmd|e64|ffbp|small|3|v{RUN_RECORD_VERSION}")
        );
        assert_ne!(key, cell_key(&spmd_on_e64(), "ffbp", false, 3, None));
    }

    /// A one-seed-pair grid of `pairs`, each `(mapping, platform, set)`.
    fn set_grid(pairs: &[(&str, &str, &str)]) -> GridSpec {
        let pairs: Vec<String> = pairs
            .iter()
            .map(|(m, p, set)| format!(r#"{{"mapping": "{m}", "platform": "{p}", "set": {set}}}"#))
            .collect();
        GridSpec::parse(&format!(
            r#"{{"version": 1, "name": "t", "pairs": [{}], "seeds": [7, 8]}}"#,
            pairs.join(", ")
        ))
        .expect("set grid parses")
    }

    #[test]
    fn cell_keys_embed_the_set_block() {
        let key = |set: &str| {
            let spec = set_grid(&[("ffbp_spmd", "e64", set)]);
            let pair = &spec.pairs[0];
            cell_key(pair, "ffbp", true, 3, None)
        };
        let legacy = cell_key(&spmd_on_e64(), "ffbp", true, 3, None);
        // No block, or an empty one, is the legacy six-field key.
        assert_eq!(key("{}"), legacy);
        assert_eq!(legacy.split('|').count(), 6);
        // A block moves the key, its values move it again...
        let four = key(r#"{"cores": 4, "prefetch": false}"#);
        assert_eq!(
            four,
            format!(r#"{legacy}|{{"cores": 4,"prefetch": false}}"#)
        );
        assert_ne!(four, key(r#"{"cores": 8, "prefetch": false}"#));
        // ...but the order its keys are written in does not.
        assert_eq!(four, key(r#"{"prefetch": false, "cores": 4}"#));
    }

    #[test]
    fn set_grids_resume_byte_for_byte_and_an_edit_reruns_only_its_pair() {
        let grid = |cores: &str| {
            set_grid(&[
                ("ffbp_spmd", "epiphany", r#"{"cores": 4}"#),
                (
                    "autofocus_mpmd",
                    "epiphany",
                    r#"{"elink_bytes_per_cycle": 2}"#,
                ),
                ("ffbp_spmd", "epiphany", cores),
            ])
        };
        let spec = grid(r#"{"prefetch": false}"#);
        let cold = run_grid(&spec, 2, &CellCache::empty()).expect("grid runs");
        assert_eq!((cold.cells_run, cold.cells_derived), (3, 3));
        let cache = CellCache::from_document(&cold.document);
        let resumed = run_grid(&spec, 1, &cache).expect("grid resumes");
        assert_eq!((resumed.cells_run, resumed.cells_derived), (0, 0));
        assert_eq!(
            cold.document.to_string_pretty(),
            resumed.document.to_string_pretty()
        );

        let edited = grid(r#"{"cores": 2}"#);
        let rerun = run_grid(&edited, 1, &cache).expect("edited grid runs");
        assert_eq!(
            (rerun.cells_run, rerun.cells_derived, rerun.cells_cached),
            (1, 1, 4),
            "only the edited pair re-simulates"
        );
        let labels: Vec<&str> = rerun
            .profile
            .cells
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(labels, [r#"ffbp_spmd x epiphany seed 7 {"cores": 2}"#]);
    }

    #[test]
    fn variants_of_one_pair_get_their_own_summary_rows() {
        let spec = set_grid(&[
            ("ffbp_spmd", "epiphany", r#"{"cores": 4}"#),
            ("ffbp_spmd", "epiphany", r#"{"cores": 16}"#),
            ("ffbp_seq", "epiphany", "{}"),
        ]);
        let out = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
        let rows = |block: &str| -> Vec<Json> {
            let summary = out.document.get(block).and_then(|b| b.get("rows"));
            summary.and_then(Json::as_array).unwrap().to_vec()
        };
        for block in ["scaling", "power"] {
            let rows = rows(block);
            let sets: Vec<Option<String>> = rows
                .iter()
                .map(|r| r.get("set").map(Json::to_string))
                .collect();
            assert_eq!(
                sets,
                [
                    Some(r#"{"cores": 4}"#.into()),
                    Some(r#"{"cores": 16}"#.into()),
                    None
                ],
                "{block}"
            );
            let energy = |r: &Json| r.get("energy_j").and_then(Json::as_f64).unwrap();
            assert!(
                energy(&rows[0]) != energy(&rows[1]),
                "{block}: rows share a record"
            );
        }
        let time = |r: &Json| r.get("time_ms").and_then(Json::as_f64).unwrap();
        let scaling = rows("scaling");
        assert!(
            time(&scaling[0]) > time(&scaling[1]),
            "4 cores run longer than 16"
        );
        // A baseline must carry the same `set`: no `ffbp_seq` has one.
        assert!(scaling[0].get("speedup_vs_seq").is_none());
        assert_eq!(
            scaling[2].get("speedup_vs_seq").and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn a_set_faults_block_replaces_the_grids_and_stops_the_fast_forward() {
        let faults = r#"{"faults": {"version": 1, "faults": [{"kind": "flag_drop", "at": 2000}]}}"#;
        let spec = set_grid(&[
            ("autofocus_mpmd", "epiphany", faults),
            ("autofocus_mpmd", "epiphany", "{}"),
        ]);
        let out = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
        // The faulted pair simulates both seeds, the clean one derives.
        assert_eq!((out.cells_run, out.cells_derived), (3, 1));
        let cells = out.document.get("cells").and_then(Json::as_array).unwrap();
        let injected = |c: &Json| {
            let record = c.get("record").and_then(RunRecord::from_json).unwrap();
            record.faults.faults_injected
        };
        assert_eq!(injected(&cells[0]), 1);
        assert_eq!(injected(&cells[2]), 0);
    }

    #[test]
    fn cell_keys_embed_the_fault_spec() {
        let free = cell_key(&spmd_on_e64(), "ffbp", true, 3, None);
        let spec_a = r#"{"version": 1, "faults": []}"#;
        let spec_b = r#"{"version": 1, "faults": [{"kind": "flag_drop", "at": 2000}]}"#;
        let with_a = cell_key(&spmd_on_e64(), "ffbp", true, 3, Some(spec_a));
        let with_b = cell_key(&spmd_on_e64(), "ffbp", true, 3, Some(spec_b));
        // Adding, editing or removing the faults block all move the key.
        assert_ne!(free, with_a);
        assert_ne!(with_a, with_b);
        // Same spec text reproduces the same key (the cache contract).
        assert_eq!(
            with_a,
            cell_key(&spmd_on_e64(), "ffbp", true, 3, Some(spec_a))
        );
        // Fault-free keys keep the legacy digest-free format, so
        // existing fault-free sweep documents remain byte-identical.
        assert_eq!(free.split('|').count(), 6);
        assert_eq!(with_a.split('|').count(), 7);
    }

    #[test]
    fn a_grid_runs_and_summarises() {
        let spec = demo_spec();
        let out = run_grid(&spec, 2, &CellCache::empty()).expect("grid runs");
        assert_eq!(out.cells_total, 4);
        // Fault-free grid: one representative simulation per pair, the
        // second seed of each pair is derived in closed form.
        assert_eq!(out.cells_run, 2);
        assert_eq!(out.cells_derived, 2);
        assert_eq!(out.cells_cached, 0);
        let cells = out.document.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 4);
        // Each record is stamped with its cell's fault seed.
        let seed_of = |c: &Json| {
            c.get("record")
                .and_then(RunRecord::from_json)
                .map(|r| r.counters.get("fault_seed"))
        };
        assert_eq!(seed_of(&cells[0]), Some(7));
        assert_eq!(seed_of(&cells[1]), Some(8));
        let rows = out
            .document
            .get("scaling")
            .and_then(|s| s.get("rows"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(rows.len(), 2);
        // The grid contains autofocus_seq x epiphany, so the mpmd row
        // gets a vs_seq speedup; the seq row's own ratio is 1.
        assert_eq!(
            rows[0].get("speedup_vs_seq").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(
            rows[1]
                .get("speedup_vs_seq")
                .and_then(Json::as_f64)
                .unwrap()
                > 1.0
        );
        assert_eq!(
            rows[1].get("platform_cores").and_then(Json::as_u64),
            Some(64)
        );
    }

    #[test]
    fn the_power_summary_aggregates_every_priced_cell() {
        let spec = demo_spec();
        let out = run_grid(&spec, 2, &CellCache::empty()).expect("grid runs");
        let power = out.document.get("power").expect("power summary present");
        assert_eq!(
            power.get("cells_priced").and_then(Json::as_u64),
            Some(4),
            "all four cells priced"
        );
        assert!(
            power
                .get("energy_per_cell_j")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        let peaks = power.get("peak_power_w").expect("percentile block");
        let pct = |key: &str| peaks.get(key).and_then(Json::as_f64).unwrap();
        assert!(pct("p50") > 0.0);
        assert!(pct("p50") <= pct("p95") && pct("p95") <= pct("max"));
        let rows = power.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2, "one row per pair");
        for row in rows {
            assert!(row.get("epochs").and_then(Json::as_u64).unwrap() > 0);
            assert!(row.get("peak_power_w").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(row.get("dominant").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn the_cache_makes_identical_reruns_free() {
        let spec = demo_spec();
        let first = run_grid(&spec, 2, &CellCache::empty()).expect("grid runs");
        let cache = CellCache::from_document(&first.document);
        assert_eq!(cache.len(), 4);
        let second = run_grid(&spec, 2, &cache).expect("grid resumes");
        assert_eq!(second.cells_run, 0, "an identical grid simulates nothing");
        assert_eq!(second.cells_derived, 0, "cached cells need no derivation");
        assert_eq!(second.cells_cached, 4);
        assert_eq!(
            first.document.to_string_pretty(),
            second.document.to_string_pretty(),
            "a resumed run must reproduce the document byte for byte"
        );
    }

    #[test]
    fn a_fully_cached_grid_builds_no_workload_and_simulates_nothing() {
        let spec = demo_spec();
        let cold = run_grid(&spec, 2, &CellCache::empty()).expect("grid runs");
        assert_eq!(cold.profile.setup.len(), 1, "one kernel, one workload");
        assert_eq!(cold.profile.cells.len(), 2);
        let cache = CellCache::from_document(&cold.document);
        for threads in [1, 4] {
            let resumed = run_grid(&spec, threads, &cache).expect("grid resumes");
            assert!(resumed.profile.setup.is_empty(), "a workload was built");
            assert!(resumed.profile.cells.is_empty(), "a cell was simulated");
            assert_eq!((resumed.cells_run, resumed.cells_derived), (0, 0));
            assert_eq!(resumed.cells_cached, 4);
            assert_eq!(
                cold.document.to_string_pretty(),
                resumed.document.to_string_pretty()
            );
        }
    }

    #[test]
    fn a_partially_cached_grid_builds_only_the_kernels_it_still_simulates() {
        let grid = |pairs: &str| {
            GridSpec::parse(&format!(
                r#"{{"version": 1, "name": "t", "pairs": [{pairs}], "seeds": [7, 8]}}"#
            ))
            .expect("spec parses")
        };
        let autofocus = r#"{"mapping": "autofocus_seq", "platform": "epiphany"}"#;
        let rda = r#"{"mapping": "rda_spmd", "platform": "epiphany"}"#;
        let first = run_grid(&grid(autofocus), 1, &CellCache::empty()).expect("grid runs");
        let cache = CellCache::from_document(&first.document);

        let grown = grid(&format!("{autofocus}, {rda}"));
        let resumed = run_grid(&grown, 1, &cache).expect("grown grid resumes");
        let built: Vec<&str> = resumed
            .profile
            .setup
            .iter()
            .map(|(kernel, _)| kernel.as_str())
            .collect();
        assert_eq!(built, ["rda"], "the cached kernel needs no workload");
        assert_eq!(
            (
                resumed.cells_run,
                resumed.cells_derived,
                resumed.cells_cached
            ),
            (1, 1, 2)
        );
        let cold = run_grid(&grown, 1, &CellCache::empty()).expect("grown grid runs");
        assert_eq!(
            cold.document.to_string_pretty(),
            resumed.document.to_string_pretty()
        );
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        // One thread means the caller simulates inline; four means
        // scoped workers racing for cells. Same bytes, and the profile
        // lists the simulated cells in canonical order either way.
        let spec = demo_spec();
        let serial = run_grid(&spec, 1, &CellCache::empty()).expect("serial");
        let wide = run_grid(&spec, 4, &CellCache::empty()).expect("parallel");
        assert_eq!(
            serial.document.to_string_pretty(),
            wide.document.to_string_pretty()
        );
        let labels = |out: &SweepOutcome| -> Vec<String> {
            out.profile.cells.iter().map(|(l, _)| l.clone()).collect()
        };
        assert_eq!(
            labels(&serial),
            [
                "autofocus_seq x epiphany seed 7",
                "autofocus_mpmd x e64 seed 7"
            ]
        );
        assert_eq!(labels(&serial), labels(&wide));
    }

    #[test]
    fn seed_derivation_matches_direct_simulation() {
        // The fast-forward gate: a derived cell must be byte-identical
        // to actually simulating that seed (the full cross-registry
        // sweep lives in tests/equivalence.rs).
        let spec = demo_spec();
        let out = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
        let cells = out.document.get("cells").and_then(Json::as_array).unwrap();
        let workload = Workload::named("autofocus", true).unwrap();
        for (i, cell) in spec.cells().iter().enumerate() {
            let configured = cell.pair.configured().expect("a registered pair");
            let direct = simulate(cell, &configured, &workload, None).expect("direct simulation");
            assert_eq!(
                cells[i].get("record").map(Json::to_string_pretty),
                Some(direct.to_json().to_string_pretty()),
                "cell {i} ({}) derived != simulated",
                cell.label()
            );
        }
    }

    #[test]
    fn a_fault_spec_edit_invalidates_the_cache() {
        let faulted = |faults: &str| {
            GridSpec::parse(&format!(
                r#"{{
                    "version": 1,
                    "name": "t",
                    "small": true,
                    "pairs": [{{"mapping": "autofocus_seq", "platform": "epiphany"}}],
                    "seeds": [7, 8],
                    "faults": {faults}
                }}"#
            ))
            .expect("faulted spec parses")
        };
        let spec = faulted(r#"{"version": 1, "faults": []}"#);
        let first = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
        assert_eq!(first.cells_run, 2);
        let cache = CellCache::from_document(&first.document);

        // A no-op rerun of the unchanged grid stays free...
        let rerun = run_grid(&spec, 1, &cache).expect("grid resumes");
        assert_eq!(rerun.cells_run, 0, "unchanged faulted grid must be cached");
        assert_eq!(rerun.cells_cached, 2);
        assert_eq!(
            first.document.to_string_pretty(),
            rerun.document.to_string_pretty()
        );

        // ...but editing the faults block re-simulates every cell
        // instead of serving records from the old schedule...
        let edited = faulted(r#"{"version": 1, "faults": [{"kind": "flag_drop", "at": 2000}]}"#);
        let second = run_grid(&edited, 1, &cache).expect("edited grid runs");
        assert_eq!(
            second.cells_run, 2,
            "a fault-spec edit must invalidate every cached cell"
        );
        assert_eq!(second.cells_cached, 0);

        // ...and so does removing the block entirely.
        let removed = GridSpec {
            faults: None,
            ..spec.clone()
        };
        let third = run_grid(&removed, 1, &cache).expect("fault-free grid runs");
        assert_eq!(
            third.cells_cached, 0,
            "dropping the faults block must miss the faulted cache"
        );
    }

    #[test]
    fn faulted_grids_simulate_every_seed() {
        // Each seed expands its own fault schedule, so the seed
        // fast-forward must stay off.
        let spec = GridSpec::parse(
            r#"{
                "version": 1,
                "name": "t",
                "small": true,
                "pairs": [{"mapping": "autofocus_seq", "platform": "epiphany"}],
                "seeds": [7, 8],
                "faults": {"version": 1, "faults": []}
            }"#,
        )
        .expect("faulted spec parses");
        let out = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
        assert_eq!(out.cells_run, 2);
        assert_eq!(out.cells_derived, 0);
    }

    #[test]
    fn version_bumped_documents_do_not_seed_the_cache() {
        let spec = demo_spec();
        let out = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
        let doc = out
            .document
            .with("version", u64::from(RUN_RECORD_VERSION) + 1);
        assert!(CellCache::from_document(&doc).is_empty());
    }
}
