//! Check 6 — the contention-aware static cost model (`SL013`–`SL015`,
//! DESIGN.md §3 S19): turn a mapping's per-phase workload declarations
//! ([`sim_harness::PhaseDecl`]) into *guaranteed* lower/upper bounds on
//! makespan and per-component energy, priced with the exact datasheet
//! constants the simulator uses ([`EpiphanyParams`], [`RefCpuParams`])
//! and the same XY-routed mesh geometry ([`emesh`]).
//!
//! The bound arguments:
//!
//! * **lower** — per phase, the makespan is at least the largest of
//!   (a) any single core's serial work (compute issue slots under
//!   pairing, blocking-read round trips, write/DMA issue, minimum poll
//!   and barrier costs), (b) any single directed mesh link's total
//!   serialization under XY routing, and (c) the eLink's total
//!   occupancy. Each is a per-resource busy total, so the max is sound
//!   even when rounds overlap across cores.
//! * **upper** — every cycle of the phase is attributable to a counted
//!   term on some work-conserving resource: the sum over cores of
//!   worst-case serial work (row-miss round trips, full poll caps,
//!   write backpressure allowances) plus every declared transfer's
//!   flight latency and per-link serialization bounds the makespan.
//!
//! Energy bounds mirror [`epiphany::EnergyModel`] term by term:
//! lowered FPU/IALU-LS issue slots (plus 1–64 spin polls per flag
//! wait), local-store accesses, wire-byte×hop products on the three
//! meshes (8-byte headers included, as the fabric charges them), and
//! payload bytes through the eLink/SDRAM. Static power integrates the
//! makespan bound. The reference CPU prices compute at sustained IPC
//! with latency-priced special functions, brackets memory stalls
//! between all-L1 and all-DRAM at the declared cache-line touch
//! counts, and carries the paper's flat 17.5 W datasheet power.

use desim::{Json, MeshKind, OpCounts};
use emesh::routing::{fabric_link_index, link_count, RouteIter};
use emesh::{Mesh2D, NodeId};
use epiphany::{CostBlock, EpiphanyParams};
use refcpu::RefCpuParams;
use sim_harness::{
    Bound, Diagnostic, Mapping, PhaseDecl, Platform, PlatformKind, ProgramModel, Report, Workload,
};

/// A per-round link occupancy above this multiple of the busiest
/// core's compute midpoint is flagged `SL013` (the mesh, not the
/// cores, paces the phase).
pub const LINK_OVERSUBSCRIPTION_RATIO: f64 = 1.0;

/// A per-round eLink/SDRAM occupancy above this multiple of the
/// busiest core's compute midpoint is flagged `SL014` (the off-chip
/// wall: the phase cannot go faster than the eLink drains).
pub const OFFCHIP_WALL_RATIO: f64 = 1.0;

/// Max/mean per-core serial-work midpoint ratio above which a phase is
/// flagged `SL015` (load imbalance leaves cores idle).
pub const IMBALANCE_RATIO: f64 = 2.0;

/// Cost bounds for one declared phase (totals across all its rounds
/// for `cycles`; the structural components are per round).
#[derive(Debug, Clone)]
pub struct PhaseCost {
    /// Phase name from the declaration.
    pub name: String,
    /// Rounds the phase executes.
    pub rounds: u64,
    /// Makespan bound for the whole phase (all rounds), cycles.
    pub cycles: Bound,
    /// Busiest single core's serial work per round, cycles.
    pub compute: Bound,
    /// Busiest directed mesh link's serialization per round, cycles.
    pub link: Bound,
    /// eLink occupancy per round, cycles (memory-stall bound on the
    /// reference CPU).
    pub offchip: Bound,
    /// Per-core serial-work midpoints per round `(core, cycles)`, for
    /// the imbalance lint.
    pub per_core_mid: Vec<(usize, f64)>,
}

/// Static lower/upper bounds on a whole run, in the same component
/// decomposition as [`desim::record::EnergyRecord`].
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Whether bounds exist at all. `false` for wall-clock platforms
    /// and model-less mappings: `cycles`/`total_j` are then `[0, inf)`.
    pub bounded: bool,
    /// Makespan, cycles.
    pub cycles: Bound,
    /// Makespan, seconds.
    pub seconds: Bound,
    /// FPU + IALU/LS issue energy, joules.
    pub compute_j: Bound,
    /// Local-store access energy, joules.
    pub sram_j: Bound,
    /// Mesh wire-byte×hop energy, joules.
    pub mesh_j: Bound,
    /// eLink payload energy, joules.
    pub elink_j: Bound,
    /// SDRAM payload energy, joules.
    pub sdram_j: Bound,
    /// Leakage + datasheet-priced energy over the makespan, joules.
    pub static_j: Bound,
    /// Sum of the components, joules.
    pub total_j: Bound,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseCost>,
}

impl CostReport {
    /// The vacuous report: nothing claimed, so the only sound bounds
    /// are `[0, inf)` for time and energy.
    pub fn unbounded() -> CostReport {
        let open = Bound::range(0.0, f64::INFINITY);
        CostReport {
            bounded: false,
            cycles: open,
            seconds: open,
            compute_j: Bound::zero(),
            sram_j: Bound::zero(),
            mesh_j: Bound::zero(),
            elink_j: Bound::zero(),
            sdram_j: Bound::zero(),
            static_j: Bound::zero(),
            total_j: open,
            phases: Vec::new(),
        }
    }

    /// Serialise for `--json` output. Infinite edges render as `null`
    /// (JSON has no `inf`).
    pub fn to_json(&self) -> Json {
        fn bound(b: Bound) -> Json {
            let edge = |v: f64| {
                if v.is_finite() {
                    Json::from(v)
                } else {
                    Json::Null
                }
            };
            Json::obj().with("lo", edge(b.lo)).with("hi", edge(b.hi))
        }
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj()
                    .with("name", p.name.as_str())
                    .with("rounds", p.rounds)
                    .with("cycles", bound(p.cycles))
                    .with("compute_per_round", bound(p.compute))
                    .with("link_per_round", bound(p.link))
                    .with("offchip_per_round", bound(p.offchip))
            })
            .collect();
        Json::obj()
            .with("bounded", self.bounded)
            .with("cycles", bound(self.cycles))
            .with("seconds", bound(self.seconds))
            .with(
                "energy_j",
                Json::obj()
                    .with("compute", bound(self.compute_j))
                    .with("sram", bound(self.sram_j))
                    .with("mesh", bound(self.mesh_j))
                    .with("elink", bound(self.elink_j))
                    .with("sdram", bound(self.sdram_j))
                    .with("static", bound(self.static_j))
                    .with("total", bound(self.total_j)),
            )
            .with("phases", Json::Arr(phases))
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if !self.bounded {
            return "cost: unbounded (no workload declarations for this platform)".to_string();
        }
        format!(
            "cost: cycles [{:.3e}, {:.3e}], energy [{:.3e}, {:.3e}] J over {} phase(s)",
            self.cycles.lo,
            self.cycles.hi,
            self.total_j.lo,
            self.total_j.hi,
            self.phases.len()
        )
    }
}

/// Per-round accumulators held densely: per core, or per link of the
/// whole fabric at [`fabric_link_index`] (by mesh, then node, then
/// direction). An entry is `None` until something is added to it, so an
/// untouched one leaves no term, and walking the touched entries in
/// index order visits them in key order: every float fold below sees the
/// same operands in the same order from process to process.
type Tally = Vec<Option<Bound>>;

/// Accumulate `cycles` of serialization on every link of the XY route
/// `from -> to` of mesh `kind`. A load that may be nothing at all
/// leaves no entry (the upper bound sums over entries).
fn load_route(
    loads: &mut Tally,
    mesh: &Mesh2D,
    kind: MeshKind,
    from: usize,
    to: usize,
    cycles: Bound,
) {
    if cycles.hi <= 0.0 {
        return;
    }
    for hop in RouteIter::new(mesh, NodeId(from as u16), NodeId(to as u16)) {
        *loads[fabric_link_index(mesh, kind, hop.link())].get_or_insert_default() += cycles;
    }
}

/// What a traffic class puts on the wire: its payload plus an 8-byte
/// header per message, as the fabric charges them.
fn wire(bytes: Bound, msgs: Bound) -> Bound {
    bytes + msgs.scaled(8.0)
}

/// How long `amount` takes at `rate` per unit time: wire bytes at a
/// link's bytes per cycle are cycles, cycles at the clock's hertz are
/// seconds.
fn at(amount: Bound, rate: f64) -> Bound {
    Bound::range(amount.lo / rate, amount.hi / rate)
}

/// Whole-run energy accumulators an Epiphany phase merges into: the
/// exact counter mirrors the energy model prices per component.
#[derive(Default)]
struct EnergyAcc {
    fpu: Bound,
    ialu: Bound,
    local: Bound,
    byte_hops: Bound,
    offchip_bytes: Bound,
}

/// Evaluate one Epiphany phase; returns its cost row and merges its
/// energy terms into the accumulators. Symmetric terms are interval
/// arithmetic; a term whose two edges are different expressions
/// (allowances only the upper bound pays) is an explicit
/// `Bound::range(lo, hi)`.
fn epiphany_phase(
    ph: &PhaseDecl,
    p: &EpiphanyParams,
    mesh: &Mesh2D,
    pairing: f64,
    energy: &mut EnergyAcc,
) -> PhaseCost {
    let elink = mesh.elink_node();
    let elink_coord = mesh.coord(elink);
    let link_bpc = p.emesh.link_bytes_per_cycle.max(1) as f64;
    let elink_bpc = p.emesh.elink_bytes_per_cycle.max(1) as f64;
    let hop_lat = p.emesh.hop_latency as f64;
    let row_hit = p.sdram.row_hit_cycles as f64;
    let row_miss = p.sdram.row_miss_cycles as f64;
    let wic = p.write_issue_cycles_per_dword.max(1) as f64;
    let rounds = ph.rounds as f64;

    // Per-round, per-core serial work, and per-link loads.
    let mut serial: Tally = vec![None; mesh.len()];
    let mut links: Tally = vec![None; MeshKind::ALL.len() * link_count(mesh)];
    // Busiest core's pure compute (op-count) work — the reference the
    // SL013/SL014 lints compare resource occupancies against.
    let mut comp_max = Bound::zero();
    let mut elink_occ = Bound::zero();
    let mut flight_hi = 0.0f64;

    for w in &ph.work {
        let s = serial[w.core].get_or_insert_default();
        let coord = mesh.coord(NodeId(w.core as u16));
        let hops = f64::from(coord.manhattan(elink_coord));
        let hl = hops.max(1.0) * hop_lat;

        // FPU slots, IALU/load-store slots and local accesses of the
        // op ledgers, lowered by the simulator's own function.
        let (lo, hi) = (
            CostBlock::lower(&w.ops_lo, p),
            CostBlock::lower(&w.ops_hi, p),
        );
        let fpu = Bound::range(lo.fpu_instrs as f64, hi.fpu_instrs as f64);
        let ls = Bound::range(lo.ialu_ls_instrs as f64, hi.ialu_ls_instrs as f64);
        let local = Bound::range(lo.local_accesses as f64, hi.local_accesses as f64);
        // Compute: lower is the dominant slot over the whole round
        // (per-call maxima only grow it); upper assumes no pairing
        // between the slots plus one ceil cycle per compute() call.
        let comp = Bound::range(
            fpu.lo.max(ls.lo) / pairing,
            (fpu.hi + ls.hi) / pairing + w.compute_calls.hi,
        );
        *s += comp;
        comp_max = Bound::range(comp_max.lo.max(comp.lo), comp_max.hi.max(comp.hi));

        // Blocking off-chip reads: issue + rMesh request + eLink
        // request slot + SDRAM + reply hop latency per message, plus
        // the reply wire serialising once through the eLink and once
        // onto the cMesh.
        let r_wire = wire(w.ext_read_bytes, w.ext_read_msgs);
        let read_fixed = p.read_issue_cycles as f64 + hl + 1.0 + 1.0 + hl;
        *s += Bound::range(
            w.ext_read_msgs.lo * (read_fixed + row_hit),
            w.ext_read_msgs.hi * (read_fixed + row_miss),
        ) + r_wire.scaled(1.0 / elink_bpc + 1.0 / link_bpc);

        // Posted off-chip writes: issue cycles always; the upper bound
        // additionally drains each write's xMesh flight and eLink hold
        // (the write-buffer backpressure allowance, ignoring the
        // buffer credit — sound, just looser).
        let w_wire = wire(w.ext_write_bytes, w.ext_write_msgs);
        *s += Bound::range(
            wic * (w.ext_write_msgs.lo.max(w.ext_write_bytes.lo / 8.0)),
            wic * (w.ext_write_msgs.hi + w.ext_write_bytes.hi / 8.0)
                + w.ext_write_msgs.hi * hl
                + w_wire.hi * (1.0 / link_bpc + 1.0 / elink_bpc),
        );

        // DMA: the core pays descriptor setup; the upper bound also
        // charges the engine's full transfer (request, SDRAM row miss,
        // reply wire through eLink + cMesh + landing bank port) since
        // a dma_wait may stall until exactly that completes.
        let d_wire = wire(w.dma_bytes, w.dma_msgs);
        *s += Bound::range(
            w.dma_msgs.lo * p.dma_setup_cycles as f64,
            w.dma_msgs.hi * (p.dma_setup_cycles as f64 + 2.0 * hl + 2.0 + row_miss)
                + d_wire.hi * (2.0 / link_bpc + 1.0 / elink_bpc),
        );

        // Flag waits: 1..=flag_poll_max_polls polls, flag_poll_cycles
        // each. The stall beyond the polls is another core's counted
        // work or a counted flight.
        *s += Bound::range(
            w.flag_waits.lo * p.flag_poll_cycles as f64,
            w.flag_waits.hi * (p.flag_poll_max_polls * p.flag_poll_cycles) as f64,
        );

        // Barriers: base cost on every participant.
        *s += Bound::exact((ph.barriers * p.barrier_base_cycles) as f64);

        // Link loads: read/DMA requests ride the rMesh (1 cycle per
        // transaction per link), replies ride the cMesh from the eLink
        // node, off-chip writes ride the xMesh toward it.
        let req = w.ext_read_msgs + w.dma_msgs;
        let (core, elink) = (w.core, elink.raw());
        let (reply, write) = (at(r_wire + d_wire, link_bpc), at(w_wire, link_bpc));
        load_route(&mut links, mesh, MeshKind::RMesh, core, elink, req);
        load_route(&mut links, mesh, MeshKind::CMesh, elink, core, reply);
        load_route(&mut links, mesh, MeshKind::XMesh, core, elink, write);

        // eLink occupancy: one request slot per read/DMA plus every
        // wire (reply payloads and write payloads) at eLink width.
        elink_occ += req + at(r_wire + d_wire + w_wire, elink_bpc);

        // Energy terms (exact counter mirrors; scaled by rounds).
        let polls = Bound::range(
            w.flag_waits.lo,
            w.flag_waits.hi * p.flag_poll_max_polls as f64,
        );
        energy.fpu += fpu.scaled(rounds);
        energy.ialu += (ls + polls).scaled(rounds);
        energy.local += local.scaled(rounds);
        energy.byte_hops += (req.scaled(8.0) + r_wire + d_wire + w_wire)
            .scaled(hops)
            .scaled(rounds);
        energy.offchip_bytes += (w.ext_read_bytes + w.ext_write_bytes + w.dma_bytes).scaled(rounds);
    }

    // On-chip traffic: sender issue cycles, cMesh link loads along the
    // XY route, and a flight-latency allowance in the upper bound.
    for t in &ph.traffic {
        let src = mesh.coord(NodeId(t.from as u16));
        let dst = mesh.coord(NodeId(t.to as u16));
        let hops = f64::from(src.manhattan(dst));
        let t_wire = wire(t.bytes, t.messages);
        *serial[t.from].get_or_insert_default() += Bound::range(
            wic * t.messages.lo.max(t.bytes.lo / 8.0),
            wic * (t.messages.hi + t.bytes.hi / 8.0),
        );
        let load = at(t_wire, link_bpc);
        load_route(&mut links, mesh, MeshKind::CMesh, t.from, t.to, load);
        // Hop latency of each message plus one landing-bank port hold.
        flight_hi += t.messages.hi * (hops.max(1.0) * hop_lat + 1.0) + t_wire.hi / link_bpc;
        energy.byte_hops += t_wire.scaled(hops).scaled(rounds);
    }

    let core_lo_max = serial.iter().flatten().map(|a| a.lo).fold(0.0, f64::max);
    let core_hi_sum: f64 = serial.iter().flatten().map(|a| a.hi).sum();
    let link = Bound::range(
        links.iter().flatten().map(|l| l.lo).fold(0.0, f64::max),
        links.iter().flatten().map(|l| l.hi).fold(0.0, f64::max),
    );
    let link_hi_sum: f64 = links.iter().flatten().map(|l| l.hi).sum();

    let round_lo = core_lo_max.max(link.lo).max(elink_occ.lo);
    let round_hi = core_hi_sum + link_hi_sum + elink_occ.hi + flight_hi;

    PhaseCost {
        name: ph.name.clone(),
        rounds: ph.rounds,
        cycles: Bound::range(round_lo * rounds, round_hi * rounds),
        compute: comp_max,
        link,
        offchip: elink_occ,
        per_core_mid: serial
            .iter()
            .enumerate()
            .filter_map(|(core, a)| a.map(|a| (core, a.mid())))
            .collect(),
    }
}

/// Bounds for a declared workload on the Epiphany chip model.
pub fn epiphany_cost(model: &ProgramModel, p: &EpiphanyParams) -> CostReport {
    let mesh = Mesh2D::new(model.mesh.0.max(1), model.mesh.1.max(1));
    let pairing = model
        .pairing_efficiency
        .unwrap_or(p.pairing_efficiency)
        .max(1e-6);

    let mut energy = EnergyAcc::default();
    let phases = model
        .workload
        .iter()
        .map(|ph| epiphany_phase(ph, p, &mesh, pairing, &mut energy))
        .collect();
    epiphany_report(phases, &energy, p)
}

/// The whole-run report of an Epiphany model's priced `phases` and the
/// `energy` they merged.
fn epiphany_report(phases: Vec<PhaseCost>, energy: &EnergyAcc, p: &EpiphanyParams) -> CostReport {
    let cycles = phases.iter().fold(Bound::zero(), |acc, pc| acc + pc.cycles);
    let pj = 1e-12;
    let seconds = at(cycles, p.clock.hz().max(1.0));
    let compute_j =
        (energy.fpu.scaled(p.pj_per_flop) + energy.ialu.scaled(p.pj_per_ialu)).scaled(pj);
    let sram_j = energy.local.scaled(p.pj_per_local_access * pj);
    let mesh_j = energy.byte_hops.scaled(p.pj_per_mesh_byte_hop * pj);
    let elink_j = energy.offchip_bytes.scaled(p.pj_per_elink_byte * pj);
    let sdram_j = energy.offchip_bytes.scaled(p.pj_per_sdram_byte * pj);
    let static_w = p.static_w_per_core * p.cores() as f64 + p.static_w_chip;
    let static_j = seconds.scaled(static_w);
    let total_j = compute_j + sram_j + mesh_j + elink_j + sdram_j + static_j;

    CostReport {
        bounded: true,
        cycles,
        seconds,
        compute_j,
        sram_j,
        mesh_j,
        elink_j,
        sdram_j,
        static_j,
        total_j,
        phases,
    }
}

/// Bounds for a declared workload on the reference-CPU model: compute
/// at sustained IPC plus latency-priced special functions; memory
/// stalls bracketed between all-L1 (zero beyond-L1 stall) and every
/// declared cache-line touch missing to DRAM, divided by the MLP the
/// out-of-order window extracts. Energy is the paper's flat datasheet
/// power over the makespan, carried on the `static` channel.
pub fn refcpu_cost(model: &ProgramModel, p: &RefCpuParams) -> CostReport {
    let ipc = model.sustained_ipc.unwrap_or(p.sustained_ipc).max(1e-6);
    let special = |ops: &OpCounts| {
        (ops.sqrts * p.sqrt_cycles + ops.divs * p.div_cycles + ops.trigs * p.trig_cycles) as f64
    };
    let comp = |ops: &OpCounts| ops.instrs_no_fma() as f64 / ipc + special(ops);
    let stall_per_line = p.hierarchy.dram_cycles as f64 / p.mlp.max(1e-6);

    let mut cycles = Bound::zero();
    let mut phases = Vec::new();
    for ph in &model.workload {
        let mut round = Bound::zero();
        let mut pure = Bound::zero();
        let mut stall_hi = 0.0f64;
        let mut per_core_mid = Vec::new();
        for w in &ph.work {
            let work = Bound::range(comp(&w.ops_lo), comp(&w.ops_hi));
            let stall = w.mem_accesses.hi * stall_per_line;
            let stalled = Bound::range(work.lo, work.hi + stall);
            stall_hi += stall;
            round += stalled;
            pure += work;
            per_core_mid.push((w.core, stalled.mid()));
        }
        let phase_cycles = round.scaled(ph.rounds as f64);
        cycles += phase_cycles;
        phases.push(PhaseCost {
            name: ph.name.clone(),
            rounds: ph.rounds,
            cycles: phase_cycles,
            compute: pure,
            link: Bound::zero(),
            offchip: Bound::range(0.0, stall_hi),
            per_core_mid,
        });
    }
    // The run's elapsed cycle count is the ceiling of the float cursor.
    cycles.hi += 1.0;

    let seconds = at(cycles, p.clock.hz().max(1.0));
    let static_j = seconds.scaled(p.power_w);
    CostReport {
        bounded: true,
        cycles,
        seconds,
        compute_j: Bound::zero(),
        sram_j: Bound::zero(),
        mesh_j: Bound::zero(),
        elink_j: Bound::zero(),
        sdram_j: Bound::zero(),
        static_j,
        total_j: static_j,
        phases,
    }
}

/// Run the cost lints over a bounded report: `SL013` link
/// oversubscription, `SL014` off-chip wall, `SL015` load imbalance.
/// All are warnings — a slow mapping is a smell, not an invariant
/// violation.
pub fn lint(cost: &CostReport, report: &mut Report) {
    for ph in &cost.phases {
        let compute = ph.compute.mid().max(1e-9);
        let link = ph.link.mid();
        if link > LINK_OVERSUBSCRIPTION_RATIO * compute && link > 0.0 {
            report.push(Diagnostic::warning(
                "SL013",
                ph.name.clone(),
                format!(
                    "busiest mesh link serialises ~{link:.0} cycles/round against \
                     ~{compute:.0} cycles/round of core work: the phase is \
                     network-bound, not compute-bound"
                ),
            ));
        }
        let offchip = ph.offchip.mid();
        if offchip > OFFCHIP_WALL_RATIO * compute && offchip > 0.0 {
            report.push(Diagnostic::warning(
                "SL014",
                ph.name.clone(),
                format!(
                    "off-chip path occupied ~{offchip:.0} cycles/round against \
                     ~{compute:.0} cycles/round of core work: the eLink/SDRAM \
                     wall paces this phase"
                ),
            ));
        }
        let busy: Vec<f64> = ph
            .per_core_mid
            .iter()
            .map(|&(_, c)| c)
            .filter(|&c| c > 0.0)
            .collect();
        if busy.len() >= 2 {
            let max = busy.iter().copied().fold(0.0, f64::max);
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            if mean > 0.0 && max / mean > IMBALANCE_RATIO {
                report.push(Diagnostic::warning(
                    "SL015",
                    ph.name.clone(),
                    format!(
                        "per-core work is imbalanced: busiest core ~{max:.0} \
                         cycles/round vs mean ~{mean:.0} (ratio {:.1} > {IMBALANCE_RATIO}); \
                         idle cores still burn static power",
                        max / mean
                    ),
                ));
            }
        }
    }
}

/// Price an already-built [`ProgramModel`] on `platform` — the
/// placement-search entry point: the autotuner builds one model per
/// candidate placement and re-prices it here without resolving a
/// mapping each time. Models without workload declarations (and
/// wall-clock platforms) get the vacuous unbounded report.
pub fn cost_model(model: &ProgramModel, platform: &dyn Platform) -> CostReport {
    if !model.has_workload() {
        return CostReport::unbounded();
    }
    match platform.kind() {
        PlatformKind::Epiphany => {
            epiphany_cost(model, &platform.epiphany_params().unwrap_or_default())
        }
        PlatformKind::RefCpu => refcpu_cost(model, &platform.refcpu_params().unwrap_or_default()),
        PlatformKind::Host => CostReport::unbounded(),
    }
}

/// Cost one registered Mapping × Platform pair: resolve the model,
/// evaluate the platform's analytical bounds, and run the cost lints.
/// Pairs without workload declarations (host threads, model-less
/// mappings) get the vacuous unbounded report plus an `SL000` note.
pub fn cost_pair(
    mapping: &dyn Mapping,
    workload: &Workload,
    platform: &dyn Platform,
) -> (CostReport, Report) {
    let model = mapping.program_model(workload, platform);
    cost_pair_with(mapping, platform, model.as_ref())
}

/// [`cost_pair`] with the pair's already-resolved program model
/// ([`crate::pair_model`]).
pub fn cost_pair_with(
    mapping: &dyn Mapping,
    platform: &dyn Platform,
    model: Option<&ProgramModel>,
) -> (CostReport, Report) {
    let mut report = Report::new();
    let subject = format!("{} x {}", mapping.name(), platform.label());
    let Some(model) = model.filter(|m| m.has_workload()) else {
        report.push(Diagnostic::note(
            "SL000",
            subject,
            "no per-phase workload declarations; cost bounds are vacuous".to_string(),
        ));
        return (CostReport::unbounded(), report);
    };
    let cost = cost_model(model, platform);
    if cost.bounded {
        lint(&cost, &mut report);
    } else {
        report.push(Diagnostic::note(
            "SL000",
            subject,
            "wall-clock platform; no analytical cost model".to_string(),
        ));
    }
    (cost, report)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use autotune::PlacementSpace;
    use desim::rng::SmallRng;
    use emesh::route_xy;
    use sar_epiphany::all_mappings;
    use sar_epiphany::pipeline::PipelineProbe;
    use sim_harness::{all_platforms, platform_named, Placement, WorkDecl};

    use super::*;

    // The cost model's oracle: the phase pricing as it stood when its
    // per-core and per-link totals were ordered maps, kept verbatim. The
    // dense tallies must price every model to the same bytes.

    /// Per-link load map: `(mesh id, node, direction index) -> cycles`.
    /// Ordered so the float folds below visit links in a fixed order —
    /// byte-identical cost reports across processes require it.
    type LinkLoads = BTreeMap<(u8, usize, usize), Bound>;

    /// Accumulate `cycles` of serialization on every link of the XY route
    /// `from -> to` of mesh `mesh_id`. A load that may be nothing at all
    /// leaves no entry (the upper bound sums over entries).
    fn map_load_route(
        loads: &mut LinkLoads,
        mesh: &Mesh2D,
        mesh_id: u8,
        from: usize,
        to: usize,
        cycles: Bound,
    ) {
        if cycles.hi <= 0.0 {
            return;
        }
        let src = mesh.coord(emesh::NodeId(from as u16));
        let dst = mesh.coord(emesh::NodeId(to as u16));
        for hop in route_xy(mesh, src, dst) {
            let node = mesh.node(hop.from).raw();
            *loads.entry((mesh_id, node, hop.dir.index())).or_default() += cycles;
        }
    }

    /// Evaluate one Epiphany phase; returns its cost row and merges its
    /// energy terms into the accumulators. Symmetric terms are interval
    /// arithmetic; a term whose two edges are different expressions
    /// (allowances only the upper bound pays) is an explicit
    /// `Bound::range(lo, hi)`.
    fn map_epiphany_phase(
        ph: &PhaseDecl,
        p: &EpiphanyParams,
        mesh: &Mesh2D,
        pairing: f64,
        energy: &mut EnergyAcc,
    ) -> PhaseCost {
        let elink = mesh.elink_node();
        let elink_coord = mesh.coord(elink);
        let link_bpc = p.emesh.link_bytes_per_cycle.max(1) as f64;
        let elink_bpc = p.emesh.elink_bytes_per_cycle.max(1) as f64;
        let hop_lat = p.emesh.hop_latency as f64;
        let row_hit = p.sdram.row_hit_cycles as f64;
        let row_miss = p.sdram.row_miss_cycles as f64;
        let wic = p.write_issue_cycles_per_dword.max(1) as f64;
        let rounds = ph.rounds as f64;

        // Per-round, per-core serial work (ordered: the hi-sum below is a
        // float fold whose result must not depend on hash order).
        let mut serial: BTreeMap<usize, Bound> = BTreeMap::new();
        // Busiest core's pure compute (op-count) work — the reference the
        // SL013/SL014 lints compare resource occupancies against.
        let mut comp_max = Bound::zero();
        let mut links = LinkLoads::new();
        let mut elink_occ = Bound::zero();
        let mut flight_hi = 0.0f64;

        for w in &ph.work {
            let s = serial.entry(w.core).or_default();
            let coord = mesh.coord(emesh::NodeId(w.core as u16));
            let hops = f64::from(coord.manhattan(elink_coord));
            let hl = hops.max(1.0) * hop_lat;

            // FPU slots, IALU/load-store slots and local accesses of the
            // op ledgers, lowered by the simulator's own function.
            let (lo, hi) = (
                CostBlock::lower(&w.ops_lo, p),
                CostBlock::lower(&w.ops_hi, p),
            );
            let fpu = Bound::range(lo.fpu_instrs as f64, hi.fpu_instrs as f64);
            let ls = Bound::range(lo.ialu_ls_instrs as f64, hi.ialu_ls_instrs as f64);
            let local = Bound::range(lo.local_accesses as f64, hi.local_accesses as f64);
            // Compute: lower is the dominant slot over the whole round
            // (per-call maxima only grow it); upper assumes no pairing
            // between the slots plus one ceil cycle per compute() call.
            let comp = Bound::range(
                fpu.lo.max(ls.lo) / pairing,
                (fpu.hi + ls.hi) / pairing + w.compute_calls.hi,
            );
            *s += comp;
            comp_max = Bound::range(comp_max.lo.max(comp.lo), comp_max.hi.max(comp.hi));

            // Blocking off-chip reads: issue + rMesh request + eLink
            // request slot + SDRAM + reply hop latency per message, plus
            // the reply wire serialising once through the eLink and once
            // onto the cMesh.
            let r_wire = wire(w.ext_read_bytes, w.ext_read_msgs);
            let read_fixed = p.read_issue_cycles as f64 + hl + 1.0 + 1.0 + hl;
            *s += Bound::range(
                w.ext_read_msgs.lo * (read_fixed + row_hit),
                w.ext_read_msgs.hi * (read_fixed + row_miss),
            ) + r_wire.scaled(1.0 / elink_bpc + 1.0 / link_bpc);

            // Posted off-chip writes: issue cycles always; the upper bound
            // additionally drains each write's xMesh flight and eLink hold
            // (the write-buffer backpressure allowance, ignoring the
            // buffer credit — sound, just looser).
            let w_wire = wire(w.ext_write_bytes, w.ext_write_msgs);
            *s += Bound::range(
                wic * (w.ext_write_msgs.lo.max(w.ext_write_bytes.lo / 8.0)),
                wic * (w.ext_write_msgs.hi + w.ext_write_bytes.hi / 8.0)
                    + w.ext_write_msgs.hi * hl
                    + w_wire.hi * (1.0 / link_bpc + 1.0 / elink_bpc),
            );

            // DMA: the core pays descriptor setup; the upper bound also
            // charges the engine's full transfer (request, SDRAM row miss,
            // reply wire through eLink + cMesh + landing bank port) since
            // a dma_wait may stall until exactly that completes.
            let d_wire = wire(w.dma_bytes, w.dma_msgs);
            *s += Bound::range(
                w.dma_msgs.lo * p.dma_setup_cycles as f64,
                w.dma_msgs.hi * (p.dma_setup_cycles as f64 + 2.0 * hl + 2.0 + row_miss)
                    + d_wire.hi * (2.0 / link_bpc + 1.0 / elink_bpc),
            );

            // Flag waits: 1..=flag_poll_max_polls polls, flag_poll_cycles
            // each. The stall beyond the polls is another core's counted
            // work or a counted flight.
            *s += Bound::range(
                w.flag_waits.lo * p.flag_poll_cycles as f64,
                w.flag_waits.hi * (p.flag_poll_max_polls * p.flag_poll_cycles) as f64,
            );

            // Barriers: base cost on every participant.
            *s += Bound::exact((ph.barriers * p.barrier_base_cycles) as f64);

            // Link loads: read/DMA requests ride the rMesh (1 cycle per
            // transaction per link), replies ride the cMesh from the eLink
            // node, off-chip writes ride the xMesh toward it.
            let req = w.ext_read_msgs + w.dma_msgs;
            let (core, elink) = (w.core, elink.raw());
            map_load_route(&mut links, mesh, 1, core, elink, req);
            map_load_route(
                &mut links,
                mesh,
                0,
                elink,
                core,
                at(r_wire + d_wire, link_bpc),
            );
            map_load_route(&mut links, mesh, 2, core, elink, at(w_wire, link_bpc));

            // eLink occupancy: one request slot per read/DMA plus every
            // wire (reply payloads and write payloads) at eLink width.
            elink_occ += req + at(r_wire + d_wire + w_wire, elink_bpc);

            // Energy terms (exact counter mirrors; scaled by rounds).
            let polls = Bound::range(
                w.flag_waits.lo,
                w.flag_waits.hi * p.flag_poll_max_polls as f64,
            );
            energy.fpu += fpu.scaled(rounds);
            energy.ialu += (ls + polls).scaled(rounds);
            energy.local += local.scaled(rounds);
            energy.byte_hops += (req.scaled(8.0) + r_wire + d_wire + w_wire)
                .scaled(hops)
                .scaled(rounds);
            energy.offchip_bytes +=
                (w.ext_read_bytes + w.ext_write_bytes + w.dma_bytes).scaled(rounds);
        }

        // On-chip traffic: sender issue cycles, cMesh link loads along the
        // XY route, and a flight-latency allowance in the upper bound.
        for t in &ph.traffic {
            let src = mesh.coord(emesh::NodeId(t.from as u16));
            let dst = mesh.coord(emesh::NodeId(t.to as u16));
            let hops = f64::from(src.manhattan(dst));
            let t_wire = wire(t.bytes, t.messages);
            *serial.entry(t.from).or_default() += Bound::range(
                wic * t.messages.lo.max(t.bytes.lo / 8.0),
                wic * (t.messages.hi + t.bytes.hi / 8.0),
            );
            map_load_route(&mut links, mesh, 0, t.from, t.to, at(t_wire, link_bpc));
            // Hop latency of each message plus one landing-bank port hold.
            flight_hi += t.messages.hi * (hops.max(1.0) * hop_lat + 1.0) + t_wire.hi / link_bpc;
            energy.byte_hops += t_wire.scaled(hops).scaled(rounds);
        }

        let core_lo_max = serial.values().map(|a| a.lo).fold(0.0, f64::max);
        let core_hi_sum: f64 = serial.values().map(|a| a.hi).sum();
        let link = Bound::range(
            links.values().map(|l| l.lo).fold(0.0, f64::max),
            links.values().map(|l| l.hi).fold(0.0, f64::max),
        );
        let link_hi_sum: f64 = links.values().map(|l| l.hi).sum();

        let round_lo = core_lo_max.max(link.lo).max(elink_occ.lo);
        let round_hi = core_hi_sum + link_hi_sum + elink_occ.hi + flight_hi;

        PhaseCost {
            name: ph.name.clone(),
            rounds: ph.rounds,
            cycles: Bound::range(round_lo * rounds, round_hi * rounds),
            compute: comp_max,
            link,
            offchip: elink_occ,
            per_core_mid: serial.iter().map(|(&core, a)| (core, a.mid())).collect(),
        }
    }

    /// [`epiphany_cost`] with every phase priced by the map oracle.
    fn map_epiphany_cost(model: &ProgramModel, p: &EpiphanyParams) -> CostReport {
        let mesh = Mesh2D::new(model.mesh.0.max(1), model.mesh.1.max(1));
        let pairing = model
            .pairing_efficiency
            .unwrap_or(p.pairing_efficiency)
            .max(1e-6);
        let mut energy = EnergyAcc::default();
        let phases = model
            .workload
            .iter()
            .map(|ph| map_epiphany_phase(ph, p, &mesh, pairing, &mut energy))
            .collect();
        epiphany_report(phases, &energy, p)
    }

    /// `model` on `platform` prices to the oracle's bytes: the JSON
    /// document and every field `to_json` leaves out.
    fn assert_prices_as_the_oracle(model: &ProgramModel, platform: &dyn Platform, case: &str) {
        let params = platform.epiphany_params().expect("an Epiphany platform");
        let (dense, oracle) = (
            cost_model(model, platform),
            map_epiphany_cost(model, &params),
        );
        let json = |c: &CostReport| c.to_json().to_string_pretty();
        assert!(json(&dense) == json(&oracle), "{case}");
        assert!(format!("{dense:?}") == format!("{oracle:?}"), "{case}");
    }

    #[test]
    fn every_registered_pair_prices_as_the_map_oracle() {
        let mut priced = 0;
        for small in [true, false] {
            for m in all_mappings() {
                let w = Workload::named(m.kernel(), small).expect("kernel resolves");
                for p in all_platforms() {
                    if p.kind() != PlatformKind::Epiphany || !m.supports(p.kind()) {
                        continue;
                    }
                    let Some(model) = m.program_model(&w, p.as_ref()) else {
                        continue;
                    };
                    let case = format!("{} x {}, small {small}", m.name(), p.label());
                    assert_prices_as_the_oracle(&model, p.as_ref(), &case);
                    priced += 1;
                }
            }
        }
        assert!(priced >= 20, "{priced} pairs priced");
    }

    #[test]
    fn placement_search_candidates_price_as_the_map_oracle() {
        let mut illegal = 0;
        for small in [true, false] {
            let w = Workload::named("autofocus", small).expect("kernel resolves");
            let w = w.autofocus().expect("an autofocus workload");
            for (name, probe) in [
                ("autofocus_mpmd", PipelineProbe::mpmd(w)),
                ("autofocus_net", PipelineProbe::net(w)),
            ] {
                for platform in ["epiphany", "e64"] {
                    let p = platform_named(platform).expect("platform resolves");
                    let params = p.epiphany_params().expect("an Epiphany platform");
                    let mesh = (params.mesh_cols, params.mesh_rows);
                    let space = PlacementSpace::for_mesh(mesh);
                    let mut rng = SmallRng::seed_from_u64(0xc057);
                    let mut place = Placement::neighbor();
                    let mut model = probe.model(&place, mesh);
                    for step in 0..128 {
                        place = PlacementSpace::apply(&place, space.random_move(&place, &mut rng));
                        probe.rewire(&mut model, &place);
                        illegal += usize::from(!crate::placement::admits(&model));
                        let case = format!("{name} x {platform}, small {small}, step {step}");
                        assert_prices_as_the_oracle(&model, p.as_ref(), &case);
                    }
                }
            }
        }
        assert!(
            illegal > 100,
            "{illegal} of 1024 candidates break the hop budget"
        );
    }

    #[test]
    fn drawn_models_price_as_the_map_oracle() {
        // Fractional loads on shared cores and links: every float fold
        // of a phase is order-sensitive, so a fold that visits its
        // entries in another order than the map did prints other bytes.
        let mut rng = SmallRng::seed_from_u64(0xd7a3);
        let draw = |rng: &mut SmallRng| {
            let lo = 1000.0 * rng.next_f64();
            Bound::range(lo, lo * (1.0 + rng.next_f64()))
        };
        let e16 = platform_named("epiphany").expect("platform resolves");
        for (cols, rows) in [(4, 4), (8, 8), (3, 5)] {
            let nodes = usize::from(cols) * usize::from(rows);
            for case in 0..40 {
                let mut m = ProgramModel::new(cols, rows);
                for _ in 0..3 {
                    let ph = m.phase("p", 1 + rng.gen_u64(0..4));
                    for _ in 0..rng.gen_index(1..12) {
                        let mut w = exact_work(rng.gen_index(0..nodes), rng.gen_u64(0..10_000));
                        (w.ext_read_msgs, w.ext_read_bytes) = (draw(&mut rng), draw(&mut rng));
                        (w.ext_write_msgs, w.ext_write_bytes) = (draw(&mut rng), draw(&mut rng));
                        (w.dma_msgs, w.dma_bytes) = (draw(&mut rng), draw(&mut rng));
                        w.flag_waits = draw(&mut rng);
                        ph.work.push(w);
                    }
                    for _ in 0..rng.gen_index(0..20) {
                        ph.traffic.push(sim_harness::TrafficDecl {
                            from: rng.gen_index(0..nodes),
                            to: rng.gen_index(0..nodes),
                            messages: draw(&mut rng),
                            bytes: draw(&mut rng),
                        });
                    }
                }
                let case = format!("{cols}x{rows} mesh, case {case}");
                assert_prices_as_the_oracle(&m, e16.as_ref(), &case);
            }
        }
    }

    fn exact_work(core: usize, flops: u64) -> WorkDecl {
        let mut w = WorkDecl::new(core);
        w.exact_ops(OpCounts {
            flops,
            ..OpCounts::default()
        });
        w.compute_calls = Bound::exact(1.0);
        w
    }

    #[test]
    fn compute_only_phase_brackets_the_pairing_window() {
        let mut m = ProgramModel::new(4, 4);
        let ph = m.phase("p", 2);
        ph.work.push(exact_work(0, 800));
        let p = EpiphanyParams::default();
        let cost = epiphany_cost(&m, &p);
        assert!(cost.bounded);
        // 800 FPU slots at 0.8 pairing = 1000 cycles/round, 2 rounds.
        assert!(cost.cycles.contains(2000.0), "{:?}", cost.cycles);
        assert!(cost.cycles.lo <= 2000.0 && cost.cycles.hi >= 2000.0);
        // Energy: exactly 1600 flops * 50 pJ plus statics.
        let flop_j = 1600.0 * 50.0e-12;
        assert!(cost.compute_j.contains(flop_j), "{:?}", cost.compute_j);
    }

    #[test]
    fn oversubscribed_link_is_sl013() {
        let mut m = ProgramModel::new(4, 4);
        let ph = m.phase("p", 1);
        ph.work.push(exact_work(0, 10));
        ph.work.push(exact_work(1, 10));
        // A torrent of traffic through one link against trivial compute.
        ph.traffic.push(sim_harness::TrafficDecl {
            from: 0,
            to: 1,
            messages: Bound::exact(1000.0),
            bytes: Bound::exact(8000.0),
        });
        let cost = epiphany_cost(&m, &EpiphanyParams::default());
        let mut r = Report::new();
        lint(&cost, &mut r);
        assert!(r.has_code("SL013"), "{:?}", r.diagnostics);
        assert!(r.is_clean(), "cost lints stay warnings");
    }

    #[test]
    fn offchip_wall_is_sl014() {
        let mut m = ProgramModel::new(4, 4);
        let ph = m.phase("p", 1);
        let mut w = exact_work(0, 10);
        w.ext_write_msgs = Bound::exact(1000.0);
        w.ext_write_bytes = Bound::exact(64000.0);
        ph.work.push(w);
        let cost = epiphany_cost(&m, &EpiphanyParams::default());
        let mut r = Report::new();
        lint(&cost, &mut r);
        assert!(r.has_code("SL014"), "{:?}", r.diagnostics);
    }

    #[test]
    fn load_imbalance_is_sl015() {
        let mut m = ProgramModel::new(4, 4);
        let ph = m.phase("p", 1);
        ph.work.push(exact_work(0, 100_000));
        ph.work.push(exact_work(1, 10));
        ph.work.push(exact_work(2, 10));
        let cost = epiphany_cost(&m, &EpiphanyParams::default());
        let mut r = Report::new();
        lint(&cost, &mut r);
        assert!(r.has_code("SL015"), "{:?}", r.diagnostics);
    }

    #[test]
    fn balanced_compute_phase_has_no_findings() {
        let mut m = ProgramModel::new(4, 4);
        let ph = m.phase("p", 1);
        ph.work.push(exact_work(0, 1000));
        ph.work.push(exact_work(1, 1000));
        let cost = epiphany_cost(&m, &EpiphanyParams::default());
        let mut r = Report::new();
        lint(&cost, &mut r);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn refcpu_stall_bracket_is_zero_to_all_dram() {
        let mut m = ProgramModel::new(1, 1);
        let ph = m.phase("p", 1);
        let mut w = exact_work(0, 1000);
        w.mem_accesses = Bound::range(10.0, 30.0);
        ph.work.push(w);
        let p = RefCpuParams::default();
        let cost = refcpu_cost(&m, &p);
        let base = 1000.0 / p.sustained_ipc;
        assert!(cost.cycles.lo <= base + 1.0);
        let all_dram = base + 30.0 * p.hierarchy.dram_cycles as f64 / p.mlp;
        assert!(cost.cycles.hi >= all_dram, "{:?}", cost.cycles);
        // Energy is the flat datasheet power over the time bracket.
        assert!(cost.total_j.lo > 0.0);
        assert!((cost.total_j.hi - cost.seconds.hi * p.power_w).abs() < 1e-12);
    }

    #[test]
    fn unbounded_report_contains_everything() {
        let c = CostReport::unbounded();
        assert!(!c.bounded);
        assert!(c.cycles.contains(0.0) && c.cycles.contains(1e18));
        assert!(c.total_j.contains(123.0));
        // JSON renders infinities as null, keeping the document valid.
        let j = c.to_json();
        let hi = j.get("cycles").and_then(|b| b.get("hi")).unwrap();
        assert!(matches!(hi, Json::Null));
    }
}
