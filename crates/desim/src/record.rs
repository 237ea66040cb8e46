//! The unified run record: one serialisable result shape for every
//! kernel × machine pair.
//!
//! Every machine model (`epiphany`, `refcpu`, the host-thread baseline)
//! reports a [`RunRecord`]; the harness stamps the kernel/mapping/
//! platform identity and the bench binaries serialise it with
//! [`crate::json`]. Per-phase observability — one [`PhaseRecord`] per
//! FFBP merge iteration or per autofocus pipeline stage — replaces the
//! aggregate-only reports the drivers used to emit.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;
use crate::power::PowerRecord;
use crate::stats::{Counters, PhaseSpan};
use crate::time::{Cycle, Frequency, TimeSpan};

/// Bump when the serialised shape changes incompatibly.
pub const RUN_RECORD_VERSION: u32 = 4;

/// Fault-injection and recovery accounting for one run (v3). All-zero
/// when the run executed with faults disabled — the serialised block is
/// present either way so tooling can rely on the shape.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRecord {
    /// Scheduled fault events that actually fired during the run.
    pub faults_injected: u64,
    /// Message re-sends performed by recovery protocols (e.g. the
    /// reliable flag-write retry loop).
    pub retries: u64,
    /// Extra cycles spent detecting faults and re-executing work
    /// (timeouts, redone iterations, drain-and-restart).
    pub recovery_cycles: u64,
    /// Cores permanently written off and excluded from later phases.
    pub degraded_cores: u64,
    /// Modelled energy attributable to recovery work, joules.
    pub recovery_energy_j: f64,
}

impl FaultRecord {
    /// Whether any fault activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultRecord::default()
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("faults_injected", self.faults_injected)
            .with("retries", self.retries)
            .with("recovery_cycles", self.recovery_cycles)
            .with("degraded_cores", self.degraded_cores)
            .with("recovery_energy_j", self.recovery_energy_j)
    }

    fn from_json(json: &Json) -> Option<FaultRecord> {
        let u = |key: &str| json.get(key).and_then(Json::as_u64);
        Some(FaultRecord {
            faults_injected: u("faults_injected")?,
            retries: u("retries")?,
            recovery_cycles: u("recovery_cycles")?,
            degraded_cores: u("degraded_cores")?,
            recovery_energy_j: json.get("recovery_energy_j")?.as_f64()?,
        })
    }
}

/// Modelled energy in joules, by component. All-zero means the
/// platform has no activity-based energy model (datasheet power × time
/// is used instead; see [`RunRecord::energy_j`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyRecord {
    /// Core datapath (FPU + IALU + register file).
    pub compute_j: f64,
    /// Local-store accesses.
    pub sram_j: f64,
    /// On-chip mesh traffic.
    pub mesh_j: f64,
    /// Off-chip link drivers.
    pub elink_j: f64,
    /// External SDRAM device traffic.
    pub sdram_j: f64,
    /// Leakage + ungated clock tree over the makespan.
    pub static_j: f64,
}

impl EnergyRecord {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.sram_j + self.mesh_j + self.elink_j + self.sdram_j + self.static_j
    }

    /// Average power over `seconds`.
    pub fn avg_power_w(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            self.total_j() / seconds
        }
    }

    /// Whether any component carries modelled energy.
    pub fn is_modelled(&self) -> bool {
        self.total_j() > 0.0
    }

    /// `(component name, joules)` in the canonical order — the shape
    /// attribution and rendering iterate over.
    pub fn components(&self) -> [(&'static str, f64); 6] {
        [
            ("compute", self.compute_j),
            ("sram", self.sram_j),
            ("mesh", self.mesh_j),
            ("elink", self.elink_j),
            ("sdram", self.sdram_j),
            ("static", self.static_j),
        ]
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(&self, other: &EnergyRecord) -> EnergyRecord {
        EnergyRecord {
            compute_j: self.compute_j + other.compute_j,
            sram_j: self.sram_j + other.sram_j,
            mesh_j: self.mesh_j + other.mesh_j,
            elink_j: self.elink_j + other.elink_j,
            sdram_j: self.sdram_j + other.sdram_j,
            static_j: self.static_j + other.static_j,
        }
    }

    /// Component-wise delta against an `earlier` snapshot of the same
    /// cumulative quantity, floored at zero per component (cumulative
    /// energy is monotone; the floor only absorbs float dust).
    #[must_use]
    pub fn delta_since(&self, earlier: &EnergyRecord) -> EnergyRecord {
        let d = |now: f64, was: f64| (now - was).max(0.0);
        EnergyRecord {
            compute_j: d(self.compute_j, earlier.compute_j),
            sram_j: d(self.sram_j, earlier.sram_j),
            mesh_j: d(self.mesh_j, earlier.mesh_j),
            elink_j: d(self.elink_j, earlier.elink_j),
            sdram_j: d(self.sdram_j, earlier.sdram_j),
            static_j: d(self.static_j, earlier.static_j),
        }
    }

    /// Serialise to a JSON object.
    pub fn to_json(self) -> Json {
        Json::obj()
            .with("compute_j", self.compute_j)
            .with("sram_j", self.sram_j)
            .with("mesh_j", self.mesh_j)
            .with("elink_j", self.elink_j)
            .with("sdram_j", self.sdram_j)
            .with("static_j", self.static_j)
    }

    /// Parse back from [`EnergyRecord::to_json`] output.
    pub fn from_json(json: &Json) -> Option<EnergyRecord> {
        let f = |key: &str| json.get(key).and_then(Json::as_f64);
        Some(EnergyRecord {
            compute_j: f("compute_j")?,
            sram_j: f("sram_j")?,
            mesh_j: f("mesh_j")?,
            elink_j: f("elink_j")?,
            sdram_j: f("sdram_j")?,
            static_j: f("static_j")?,
        })
    }
}

/// Busy fraction `busy / span`. Over-unity indicates an accounting bug
/// (a component cannot be busy longer than the run), so it trips a
/// debug assertion instead of being silently clamped.
pub fn utilization(busy: Cycle, span: Cycle) -> f64 {
    if span == Cycle::ZERO {
        return 0.0;
    }
    let u = busy.raw() as f64 / span.raw() as f64;
    debug_assert!(
        u <= 1.0,
        "over-unity utilisation: {busy} busy within a {span} span — accounting bug"
    );
    u
}

/// Mesh pressure within one phase (or run): byte-hops and link
/// occupancy deltas between `phase_begin` and `phase_end`. All-zero
/// when the platform has no modelled mesh (refcpu, host).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeshUtilization {
    /// Byte-hops on the on-chip write mesh within the phase.
    pub cmesh_byte_hops: u64,
    /// Byte-hops on the read-request mesh within the phase.
    pub rmesh_byte_hops: u64,
    /// Byte-hops on the off-chip mesh within the phase.
    pub xmesh_byte_hops: u64,
    /// Mesh transfers started within the phase (all meshes).
    pub transfers: u64,
    /// Busy cycles summed over every directed link (all meshes).
    pub link_busy_cycles: u64,
    /// Busy fraction of the most loaded single link within the phase.
    /// Not asserted ≤ 1: posted-write tails reserved in one phase can
    /// drain in the next (same accounting as per-phase eLink).
    pub busiest_link_utilization: f64,
}

impl MeshUtilization {
    /// Byte-hops across all three meshes.
    pub fn total_byte_hops(&self) -> u64 {
        self.cmesh_byte_hops + self.rmesh_byte_hops + self.xmesh_byte_hops
    }

    /// Whether any mesh activity was observed.
    pub fn is_modelled(&self) -> bool {
        *self != MeshUtilization::default()
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("cmesh_byte_hops", self.cmesh_byte_hops)
            .with("rmesh_byte_hops", self.rmesh_byte_hops)
            .with("xmesh_byte_hops", self.xmesh_byte_hops)
            .with("transfers", self.transfers)
            .with("link_busy_cycles", self.link_busy_cycles)
            .with("busiest_link_utilization", self.busiest_link_utilization)
    }

    fn from_json(json: &Json) -> Option<MeshUtilization> {
        let u = |key: &str| json.get(key).and_then(Json::as_u64);
        Some(MeshUtilization {
            cmesh_byte_hops: u("cmesh_byte_hops")?,
            rmesh_byte_hops: u("rmesh_byte_hops")?,
            xmesh_byte_hops: u("xmesh_byte_hops")?,
            transfers: u("transfers")?,
            link_busy_cycles: u("link_busy_cycles")?,
            busiest_link_utilization: json.get("busiest_link_utilization")?.as_f64()?,
        })
    }
}

/// Load on one directed mesh link over a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLoad {
    /// Physical mesh the link belongs to (`"cmesh"`, `"rmesh"`,
    /// `"xmesh"`).
    pub mesh: String,
    /// Router the link exits (row-major node index).
    pub node: u32,
    /// Output direction letter (`"W"`, `"E"`, `"N"`, `"S"`).
    pub dir: String,
    /// Bytes that crossed this link (each hop counts once).
    pub byte_hops: u64,
    /// Cycles the link was reserved.
    pub busy_cycles: u64,
    /// `busy_cycles` over the run makespan, clamped to 1 (posted
    /// tails can outlive the last core cursor).
    pub busy_fraction: f64,
}

impl LinkLoad {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("mesh", self.mesh.as_str())
            .with("node", self.node)
            .with("dir", self.dir.as_str())
            .with("byte_hops", self.byte_hops)
            .with("busy_cycles", self.busy_cycles)
            .with("busy_fraction", self.busy_fraction)
    }

    fn from_json(json: &Json) -> Option<LinkLoad> {
        let u = |key: &str| json.get(key).and_then(Json::as_u64);
        Some(LinkLoad {
            mesh: json.get("mesh")?.as_str()?.to_string(),
            node: u("node")? as u32,
            dir: json.get("dir")?.as_str()?.to_string(),
            byte_hops: u("byte_hops")?,
            busy_cycles: u("busy_cycles")?,
            busy_fraction: json.get("busy_fraction")?.as_f64()?,
        })
    }
}

/// Per-directed-link load summary for one run: which links carried the
/// bytes and which saturated. Only links that saw traffic are listed,
/// so the heatmap total equals the run's total byte-hops by
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeshHeatmap {
    /// Mesh width in nodes.
    pub cols: usize,
    /// Mesh height in nodes.
    pub rows: usize,
    /// Loaded links, in (mesh, node, dir) order.
    pub links: Vec<LinkLoad>,
}

impl MeshHeatmap {
    /// Byte-hops summed over every listed link (equals the run's
    /// total mesh byte-hops).
    pub fn total_byte_hops(&self) -> u64 {
        self.links.iter().map(|l| l.byte_hops).sum()
    }

    /// Render the `top` most occupied links as an aligned text table.
    pub fn render(&self, top: usize) -> String {
        let mut ranked: Vec<&LinkLoad> = self.links.iter().collect();
        ranked.sort_by(|a, b| {
            (b.busy_cycles, b.byte_hops, a.node).cmp(&(a.busy_cycles, a.byte_hops, b.node))
        });
        let mut out = format!(
            "mesh heatmap ({}x{}, {} loaded links, {} byte-hops)\n",
            self.cols,
            self.rows,
            self.links.len(),
            self.total_byte_hops()
        );
        out.push_str("  mesh   link        byte-hops   busy-cycles   busy\n");
        for l in ranked.iter().take(top) {
            let (x, y) = if self.cols > 0 {
                (l.node as usize % self.cols, l.node as usize / self.cols)
            } else {
                (0, 0)
            };
            out.push_str(&format!(
                "  {:<6} ({x},{y})->{:<4} {:>11} {:>13} {:>5.1}%\n",
                l.mesh,
                l.dir,
                l.byte_hops,
                l.busy_cycles,
                l.busy_fraction * 100.0
            ));
        }
        out
    }

    /// Serialise to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("cols", self.cols)
            .with("rows", self.rows)
            .with(
                "links",
                Json::Arr(self.links.iter().map(LinkLoad::to_json).collect()),
            )
    }

    /// Parse back from [`MeshHeatmap::to_json`] output.
    pub fn from_json(json: &Json) -> Option<MeshHeatmap> {
        let u = |key: &str| json.get(key).and_then(Json::as_u64);
        let mut links = Vec::new();
        for l in json.get("links").and_then(Json::as_array).unwrap_or(&[]) {
            links.push(LinkLoad::from_json(l)?);
        }
        Some(MeshHeatmap {
            cols: u("cols")? as usize,
            rows: u("rows")? as usize,
            links,
        })
    }
}

/// One observed phase of a run: a merge iteration, a pipeline stage, a
/// sweep chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase family, e.g. `"merge"` or `"beam_stage"`.
    pub name: String,
    /// Occurrence number within the family (merge iteration index,
    /// stage slot, …).
    pub index: u32,
    /// Start offset from the beginning of the run, milliseconds.
    pub start_ms: f64,
    /// Phase duration, milliseconds.
    pub time_ms: f64,
    /// Modelled energy spent within the phase (0 when not modelled).
    pub energy_j: f64,
    /// Off-chip eLink busy fraction within the phase (0 when n/a).
    pub elink_utilization: f64,
    /// Mesh pressure within the phase (all-zero when no mesh is
    /// modelled).
    pub mesh: MeshUtilization,
    /// Free-form per-phase gauges: occupancy, queue depths, hit rates.
    pub metrics: BTreeMap<String, f64>,
}

impl PhaseRecord {
    /// The record of a closed `span` on a machine clocked at `clock`:
    /// the mapping's gauges, overwritten in order by what the machine
    /// `measured` between the span's two snapshots. Energy, eLink and
    /// mesh figures are left at their not-modelled zeros.
    pub fn of_span<'a, S>(
        span: &PhaseSpan<S>,
        clock: Frequency,
        measured: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> PhaseRecord {
        let mut metrics = span.metrics.clone();
        for (name, value) in measured {
            metrics.insert(name.to_string(), value);
        }
        PhaseRecord {
            name: span.name.clone(),
            index: span.index,
            start_ms: TimeSpan::new(span.start, clock).millis(),
            time_ms: TimeSpan::new(span.cycles(), clock).millis(),
            energy_j: 0.0,
            elink_utilization: 0.0,
            mesh: MeshUtilization::default(),
            metrics,
        }
    }

    /// Serialise to a JSON object.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (k, v) in &self.metrics {
            metrics.set(k, *v);
        }
        Json::obj()
            .with("name", self.name.as_str())
            .with("index", self.index)
            .with("start_ms", self.start_ms)
            .with("time_ms", self.time_ms)
            .with("energy_j", self.energy_j)
            .with("elink_utilization", self.elink_utilization)
            .with("mesh", self.mesh.to_json())
            .with("metrics", metrics)
    }

    /// Parse back from [`PhaseRecord::to_json`] output.
    pub fn from_json(json: &Json) -> Option<PhaseRecord> {
        let f = |key: &str| json.get(key).and_then(Json::as_f64);
        let mut metrics = BTreeMap::new();
        if let Some(members) = json.get("metrics").and_then(Json::as_object) {
            for (k, v) in members {
                metrics.insert(k.clone(), v.as_f64()?);
            }
        }
        Some(PhaseRecord {
            name: json.get("name")?.as_str()?.to_string(),
            index: json.get("index")?.as_u64()? as u32,
            start_ms: f("start_ms")?,
            time_ms: f("time_ms")?,
            energy_j: f("energy_j")?,
            elink_utilization: f("elink_utilization")?,
            mesh: json
                .get("mesh")
                .and_then(MeshUtilization::from_json)
                .unwrap_or_default(),
            metrics,
        })
    }
}

/// Summary of one simulated (or measured) run — the single result
/// shape shared by every platform and mapping.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Serialisation format version ([`RUN_RECORD_VERSION`]).
    pub version: u32,
    /// Human-readable configuration label.
    pub label: String,
    /// Kernel identity (`"ffbp"`, `"autofocus"`); stamped by the harness.
    pub kernel: String,
    /// Mapping identity (`"ffbp_spmd"`, …); stamped by the harness.
    pub mapping: String,
    /// Platform identity (`"epiphany"`, `"refcpu"`, `"host"`).
    pub platform: String,
    /// Cores the mapping actually used.
    pub cores_used: usize,
    /// Makespan.
    pub elapsed: TimeSpan,
    /// Datasheet power of the platform, watts (energy fallback when no
    /// activity-based model exists).
    pub power_w: f64,
    /// Modelled energy breakdown (all-zero when not modelled).
    pub energy: EnergyRecord,
    /// Aggregated operation counters across all cores.
    pub counters: Counters,
    /// Free-form run-level gauges (`mem_stall_fraction`, `local_hits`, …).
    pub metrics: BTreeMap<String, f64>,
    /// Busy cycles of the most congested on-chip link.
    pub busiest_link_cycles: Cycle,
    /// Busy cycles of the off-chip eLink.
    pub elink_busy_cycles: Cycle,
    /// SDRAM open-row hit rate.
    pub sdram_row_hit_rate: f64,
    /// Fault-injection and recovery accounting (all-zero when the run
    /// executed fault-free).
    pub faults: FaultRecord,
    /// Per-directed-link load summary (absent when no mesh is
    /// modelled).
    pub mesh_heatmap: Option<MeshHeatmap>,
    /// Per-phase breakdown in execution order.
    pub phases: Vec<PhaseRecord>,
    /// Time-resolved power telemetry (v4). Producers with an activity
    /// model fill it directly; the harness synthesises a datasheet
    /// block for the rest, so every harness-run record carries one.
    pub power: Option<PowerRecord>,
}

impl RunRecord {
    /// A blank record for `label` spanning `elapsed`; the producer
    /// fills in whatever it models.
    pub fn new(label: impl Into<String>, elapsed: TimeSpan) -> RunRecord {
        RunRecord {
            version: RUN_RECORD_VERSION,
            label: label.into(),
            kernel: String::new(),
            mapping: String::new(),
            platform: String::new(),
            cores_used: 1,
            elapsed,
            power_w: 0.0,
            energy: EnergyRecord::default(),
            counters: Counters::new(),
            metrics: BTreeMap::new(),
            busiest_link_cycles: Cycle::ZERO,
            elink_busy_cycles: Cycle::ZERO,
            sdram_row_hit_rate: 0.0,
            faults: FaultRecord::default(),
            mesh_heatmap: None,
            phases: Vec::new(),
            power: None,
        }
    }

    /// Execution time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.elapsed.millis()
    }

    /// Execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed.seconds()
    }

    /// Energy in joules: the activity model when present, otherwise
    /// datasheet power × time (the paper's method for the i7 rows).
    pub fn energy_j(&self) -> f64 {
        if self.energy.is_modelled() {
            self.energy.total_j()
        } else {
            self.power_w * self.seconds()
        }
    }

    /// Average power over the run, watts.
    pub fn avg_power_w(&self) -> f64 {
        let s = self.seconds();
        if s <= 0.0 {
            0.0
        } else {
            self.energy_j() / s
        }
    }

    /// eLink utilisation over the makespan (debug-asserts on
    /// over-unity; see [`utilization`]).
    pub fn elink_utilization(&self) -> f64 {
        utilization(self.elink_busy_cycles, self.elapsed.cycles)
    }

    /// Wall-time speedup of this run over `baseline`.
    pub fn speedup_over(&self, baseline: &RunRecord) -> f64 {
        baseline.seconds() / self.seconds()
    }

    /// A run-level gauge, if recorded.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// Record a run-level gauge.
    pub fn set_metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// Serialise to a JSON object.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in self.counters.iter() {
            counters.set(k, v);
        }
        let mut metrics = Json::obj();
        for (k, v) in &self.metrics {
            metrics.set(k, *v);
        }
        let mut doc = Json::obj()
            .with("version", self.version)
            .with("label", self.label.as_str())
            .with("kernel", self.kernel.as_str())
            .with("mapping", self.mapping.as_str())
            .with("platform", self.platform.as_str())
            .with("cores_used", self.cores_used)
            .with("cycles", self.elapsed.cycles.raw())
            .with("clock_hz", self.elapsed.clock.hz())
            .with("time_ms", self.millis())
            .with("power_w", self.power_w)
            .with("energy_j", self.energy_j())
            .with("energy", self.energy.to_json())
            .with("counters", counters)
            .with("metrics", metrics)
            .with("busiest_link_cycles", self.busiest_link_cycles.raw())
            .with("elink_busy_cycles", self.elink_busy_cycles.raw())
            .with("sdram_row_hit_rate", self.sdram_row_hit_rate)
            .with("faults", self.faults.to_json());
        if let Some(heatmap) = &self.mesh_heatmap {
            doc.set("mesh_heatmap", heatmap.to_json());
        }
        if let Some(power) = &self.power {
            doc.set("power", power.to_json());
        }
        doc.with(
            "phases",
            Json::Arr(self.phases.iter().map(PhaseRecord::to_json).collect()),
        )
    }

    /// Parse back from [`RunRecord::to_json`] output.
    pub fn from_json(json: &Json) -> Option<RunRecord> {
        let s = |key: &str| Some(json.get(key)?.as_str()?.to_string());
        let f = |key: &str| json.get(key).and_then(Json::as_f64);
        let u = |key: &str| json.get(key).and_then(Json::as_u64);
        let mut counters = Counters::new();
        if let Some(members) = json.get("counters").and_then(Json::as_object) {
            for (k, v) in members {
                counters.add(k.clone(), v.as_u64()?);
            }
        }
        let mut metrics = BTreeMap::new();
        if let Some(members) = json.get("metrics").and_then(Json::as_object) {
            for (k, v) in members {
                metrics.insert(k.clone(), v.as_f64()?);
            }
        }
        let mut phases = Vec::new();
        for p in json.get("phases").and_then(Json::as_array).unwrap_or(&[]) {
            phases.push(PhaseRecord::from_json(p)?);
        }
        Some(RunRecord {
            version: u("version")? as u32,
            label: s("label")?,
            kernel: s("kernel")?,
            mapping: s("mapping")?,
            platform: s("platform")?,
            cores_used: u("cores_used")? as usize,
            elapsed: TimeSpan::new(Cycle(u("cycles")?), Frequency::hz_new(f("clock_hz")?)),
            power_w: f("power_w")?,
            energy: EnergyRecord::from_json(json.get("energy")?)?,
            counters,
            metrics,
            busiest_link_cycles: Cycle(u("busiest_link_cycles")?),
            elink_busy_cycles: Cycle(u("elink_busy_cycles")?),
            sdram_row_hit_rate: f("sdram_row_hit_rate")?,
            // Pre-v3 documents lack the block; default to fault-free.
            faults: json
                .get("faults")
                .and_then(FaultRecord::from_json)
                .unwrap_or_default(),
            mesh_heatmap: json.get("mesh_heatmap").and_then(MeshHeatmap::from_json),
            phases,
            // Pre-v4 documents lack the block; parse without it.
            power: json.get("power").and_then(PowerRecord::from_json),
        })
    }
}

impl fmt::Display for RunRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.label)?;
        if !self.mapping.is_empty() || !self.platform.is_empty() {
            writeln!(
                f,
                "  mapping        : {} on {}",
                self.mapping, self.platform
            )?;
        }
        writeln!(f, "  cores used     : {}", self.cores_used)?;
        writeln!(f, "  execution time : {:.3} ms", self.millis())?;
        writeln!(f, "  energy         : {:.4} J", self.energy_j())?;
        writeln!(f, "  avg power      : {:.3} W", self.avg_power_w())?;
        writeln!(
            f,
            "  eLink util     : {:.1}%",
            self.elink_utilization() * 100.0
        )?;
        writeln!(
            f,
            "  SDRAM row hits : {:.1}%",
            self.sdram_row_hit_rate * 100.0
        )?;
        if let Some(power) = &self.power {
            writeln!(
                f,
                "  power timeline : {} epoch(s), peak {:.3} W",
                power.timeline.len(),
                power.peak_power_w(self.elapsed.clock)
            )?;
        }
        if self.faults.any() {
            writeln!(
                f,
                "  faults         : {} injected, {} retries, {} recovery cycles, {} degraded cores, {:.5} J",
                self.faults.faults_injected,
                self.faults.retries,
                self.faults.recovery_cycles,
                self.faults.degraded_cores,
                self.faults.recovery_energy_j
            )?;
        }
        for p in &self.phases {
            writeln!(
                f,
                "  phase {:>12}[{}]: {:.4} ms, {:.5} J, eLink {:.1}%",
                p.name,
                p.index,
                p.time_ms,
                p.energy_j,
                p.elink_utilization * 100.0
            )?;
        }
        write!(f, "{}", self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycles: u64) -> RunRecord {
        let mut r = RunRecord::new("t", TimeSpan::new(Cycle(cycles), Frequency::ghz(1.0)));
        r.elink_busy_cycles = Cycle(cycles / 2);
        r.sdram_row_hit_rate = 0.5;
        r
    }

    #[test]
    fn speedup_is_ratio_of_times() {
        let fast = record(1_000_000);
        let slow = record(4_250_000);
        assert!((fast.speedup_over(&slow) - 4.25).abs() < 1e-9);
    }

    #[test]
    fn elink_utilization_is_fraction_of_makespan() {
        let r = record(1000);
        assert!((r.elink_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over-unity utilisation")]
    fn over_unity_utilisation_is_an_accounting_bug() {
        let mut r = record(1000);
        r.elink_busy_cycles = Cycle(1001);
        let _ = r.elink_utilization();
    }

    #[test]
    fn energy_falls_back_to_datasheet_power() {
        // 1e6 cycles @ 1 GHz = 1 ms at 17.5 W -> 17.5 mJ.
        let mut r = record(1_000_000);
        r.power_w = 17.5;
        assert!((r.energy_j() - 17.5e-3).abs() < 1e-12);
        assert!((r.avg_power_w() - 17.5).abs() < 1e-9);
        // A modelled breakdown takes precedence.
        r.energy.compute_j = 2e-3;
        assert!((r.energy_j() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut r = record(12345);
        r.kernel = "ffbp".into();
        r.mapping = "ffbp_spmd".into();
        r.platform = "epiphany".into();
        r.cores_used = 16;
        r.power_w = 2.0;
        r.energy = EnergyRecord {
            compute_j: 1e-3,
            sram_j: 2e-4,
            mesh_j: 3e-5,
            elink_j: 4e-6,
            sdram_j: 5e-7,
            static_j: 6e-8,
        };
        r.counters.add("flop", 123);
        r.counters.add("dma_bytes", 456);
        r.set_metric("local_hits", 99.0);
        r.busiest_link_cycles = Cycle(777);
        r.faults = FaultRecord {
            faults_injected: 3,
            retries: 2,
            recovery_cycles: 4096,
            degraded_cores: 1,
            recovery_energy_j: 1.5e-5,
        };
        r.mesh_heatmap = Some(MeshHeatmap {
            cols: 4,
            rows: 4,
            links: vec![LinkLoad {
                mesh: "cmesh".into(),
                node: 5,
                dir: "E".into(),
                byte_hops: 4096,
                busy_cycles: 512,
                busy_fraction: 0.25,
            }],
        });
        r.power = Some(crate::power::PowerRecord {
            timeline: {
                let mut t = crate::power::PowerTimeline::new();
                t.push(crate::power::PowerEpoch {
                    start: Cycle(0),
                    end: Cycle(12345),
                    energy: r.energy,
                });
                t
            },
            phases: vec![crate::power::PhasePower {
                name: "merge".into(),
                index: 2,
                energy: r.energy,
                attribution: crate::power::PhaseAttribution::attribute(&r.energy, 0.25, 0.8, 0.2),
            }],
        });
        r.phases.push(PhaseRecord {
            name: "merge".into(),
            index: 2,
            start_ms: 0.5,
            time_ms: 0.25,
            energy_j: 1e-4,
            elink_utilization: 0.75,
            mesh: MeshUtilization {
                cmesh_byte_hops: 4096,
                rmesh_byte_hops: 128,
                xmesh_byte_hops: 64,
                transfers: 9,
                link_busy_cycles: 512,
                busiest_link_utilization: 0.25,
            },
            metrics: BTreeMap::from([("occupancy".to_string(), 0.9)]),
        });

        let text = r.to_json().to_string_pretty();
        let back = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.version, RUN_RECORD_VERSION);
        assert_eq!(back.label, r.label);
        assert_eq!(back.mapping, "ffbp_spmd");
        assert_eq!(back.cores_used, 16);
        assert_eq!(back.elapsed.cycles, r.elapsed.cycles);
        assert_eq!(back.elapsed.clock.hz(), r.elapsed.clock.hz());
        assert_eq!(back.energy, r.energy);
        assert_eq!(back.counters.get("flop"), 123);
        assert_eq!(back.metric("local_hits"), Some(99.0));
        assert_eq!(back.busiest_link_cycles, Cycle(777));
        assert_eq!(back.faults, r.faults);
        assert!(back.faults.any());
        assert_eq!(back.mesh_heatmap, r.mesh_heatmap);
        assert_eq!(back.power, r.power);
        assert_eq!(back.phases, r.phases);
        assert_eq!(back.phases[0].mesh.total_byte_hops(), 4096 + 128 + 64);
        assert!((back.energy_j() - r.energy_j()).abs() < 1e-15);
    }

    #[test]
    fn heatmap_totals_and_render() {
        let map = MeshHeatmap {
            cols: 4,
            rows: 4,
            links: vec![
                LinkLoad {
                    mesh: "cmesh".into(),
                    node: 5,
                    dir: "E".into(),
                    byte_hops: 100,
                    busy_cycles: 10,
                    busy_fraction: 0.1,
                },
                LinkLoad {
                    mesh: "rmesh".into(),
                    node: 6,
                    dir: "W".into(),
                    byte_hops: 300,
                    busy_cycles: 40,
                    busy_fraction: 0.4,
                },
            ],
        };
        assert_eq!(map.total_byte_hops(), 400);
        let text = map.render(10);
        assert!(text.contains("400 byte-hops"));
        assert!(text.contains("(2,1)->W"));
        // Top-1 keeps only the most occupied link.
        assert!(!map.render(1).contains("cmesh"));
    }

    #[test]
    fn record_without_faults_block_parses_fault_free() {
        // Pre-v3 documents lack the "faults" key: parse as fault-free.
        let mut r = record(100);
        r.kernel = "ffbp".into();
        r.mapping = "ffbp_seq".into();
        r.platform = "epiphany".into();
        let mut doc = r.to_json();
        doc.set("faults", Json::Null);
        let back = RunRecord::from_json(&doc).unwrap();
        assert_eq!(back.faults, FaultRecord::default());
        assert!(!back.faults.any());
    }

    #[test]
    fn record_without_power_block_parses_without_one() {
        // Pre-v4 documents lack the "power" key.
        let r = record(100);
        let mut doc = r.to_json();
        doc.set("power", Json::Null);
        let back = RunRecord::from_json(&doc).unwrap();
        assert!(back.power.is_none());
    }

    #[test]
    fn energy_component_arithmetic() {
        let a = EnergyRecord {
            compute_j: 2.0,
            sram_j: 1.0,
            ..EnergyRecord::default()
        };
        let b = EnergyRecord {
            compute_j: 0.5,
            static_j: 3.0,
            ..EnergyRecord::default()
        };
        let sum = a.plus(&b);
        assert_eq!(sum.compute_j, 2.5);
        assert_eq!(sum.static_j, 3.0);
        let delta = sum.delta_since(&b);
        assert_eq!(delta.compute_j, 2.0);
        // The floor absorbs float dust instead of going negative.
        assert_eq!(b.delta_since(&sum).compute_j, 0.0);
        assert_eq!(a.components()[0], ("compute", 2.0));
        assert_eq!(a.components()[5], ("static", 0.0));
    }

    #[test]
    fn phase_without_mesh_block_parses_with_default() {
        // Version-1 documents lack the "mesh" key.
        let old = Json::parse(
            r#"{"name":"merge","index":0,"start_ms":0.0,"time_ms":1.0,
                "energy_j":0.0,"elink_utilization":0.0,"metrics":{}}"#,
        )
        .unwrap();
        let p = PhaseRecord::from_json(&old).unwrap();
        assert_eq!(p.mesh, MeshUtilization::default());
        assert!(!p.mesh.is_modelled());
    }

    #[test]
    fn display_includes_label_and_phases() {
        let mut r = record(10);
        r.phases.push(PhaseRecord {
            name: "merge".into(),
            index: 0,
            start_ms: 0.0,
            time_ms: 1.0,
            energy_j: 0.0,
            elink_utilization: 0.0,
            mesh: MeshUtilization::default(),
            metrics: BTreeMap::new(),
        });
        let s = format!("{r}");
        assert!(s.contains("== t =="));
        assert!(s.contains("execution time"));
        assert!(s.contains("phase"));
    }
}
