//! The assembled chip model: cores + fabric + local stores + SDRAM.
//!
//! Each core owns a monotone time cursor. Mapping code advances a
//! core's cursor with [`Chip::compute`], and every off-core interaction
//! goes through the shared fabric/memory models where it contends with
//! the other cores' traffic.

use desim::power::{PhaseAttribution, PhasePower, PowerEpoch, PowerRecord, PowerTimeline};
use desim::record::{MeshHeatmap, MeshUtilization, PhaseRecord, RunRecord};
use desim::stats::{Counters, PhaseTimeline};
use desim::trace::{Tracer, Track};
use desim::{Cycle, TimeSpan};
use emesh::network::TransferResult;
use emesh::{EMesh, Mesh2D, MeshNetwork, NodeId};
use faultsim::{FaultState, FlagFault};
use memsim::{GlobalAddr, LocalStore, Sdram};

use crate::activity::{slot, CoreCounters};
use crate::cost::{CostBlock, OpCounts};
use crate::dma::{DmaDirection, DmaEngine};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::params::EpiphanyParams;

/// A core index on the chip (row-major, same order as mesh nodes).
pub type CoreId = usize;

/// Everything the chip accumulates, captured whole at a phase
/// boundary. [`Chip::report`] derives every per-phase figure — and the
/// power timeline, whose epochs are these boundaries — from the
/// difference of a phase's two snapshots.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    /// Modelled energy so far, by component.
    energy: EnergyBreakdown,
    /// Operation counters summed over all cores.
    counters: CoreCounters,
    /// Busy cycles summed over all cores (the stall-vs-compute split
    /// of the attribution block).
    core_busy: Cycle,
    /// eLink busy cycles reserved so far.
    elink_busy: Cycle,
    /// SDRAM bus busy cycles so far.
    sdram_busy: Cycle,
    /// Byte-hops so far, per mesh in [`desim::MeshKind::ALL`] order.
    byte_hops: [u64; 3],
    /// Transfers started so far, all meshes.
    transfers: u64,
    /// Per-link busy cycles of the whole fabric
    /// ([`EMesh::link_busy_vec`]).
    link_busy: Vec<Cycle>,
}

/// The E16G3 (or a scaled N×M sibling) machine model.
pub struct Chip {
    params: EpiphanyParams,
    mesh: Mesh2D,
    fabric: EMesh,
    sdram: Sdram,
    stores: Vec<LocalStore>,
    dma: Vec<DmaEngine>,
    /// Per-core time cursors.
    t: Vec<Cycle>,
    /// Per-core active (non-idle) cycles, for clock-gated energy.
    busy: Vec<Cycle>,
    /// Per-core operation counters (slot-indexed; materialised into
    /// string-keyed [`Counters`] only by [`Chip::report`] and
    /// [`Chip::counters`]).
    counters: Vec<CoreCounters>,
    /// The phases observed so far, each with the chip's [`Snapshot`]
    /// at both ends (see [`Chip::phase_begin`]).
    phases: PhaseTimeline<Snapshot>,
    /// Event tracer (disabled by default; see [`Chip::set_tracer`]).
    tracer: Tracer,
    /// Fault schedule (disabled by default; see [`Chip::set_faults`]).
    faults: FaultState,
}

impl Chip {
    /// Build a `cols x rows` chip. The explicit geometry wins over
    /// whatever `params.mesh_cols/mesh_rows` said — the stored params
    /// are synced so [`Chip::params`] always reflects the real mesh.
    pub fn new(mut params: EpiphanyParams, cols: u16, rows: u16) -> Chip {
        params.mesh_cols = cols;
        params.mesh_rows = rows;
        let mesh = Mesh2D::new(cols, rows);
        let n = mesh.len();
        Chip {
            fabric: EMesh::new(mesh, params.emesh),
            sdram: Sdram::new(params.sdram),
            stores: (0..n).map(|_| LocalStore::new(params.sram)).collect(),
            dma: vec![DmaEngine::new(); n],
            t: vec![Cycle::ZERO; n],
            busy: vec![Cycle::ZERO; n],
            counters: (0..n).map(|_| CoreCounters::new()).collect(),
            phases: PhaseTimeline::new(),
            tracer: Tracer::disabled(),
            faults: FaultState::disabled(),
            mesh,
            params,
        }
    }

    /// Attach a tracer to the whole machine: cores, DMA engines, all
    /// three meshes, the eLink, local stores and the SDRAM emit onto
    /// the shared timeline. Disabled tracers cost one branch per
    /// emission point.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fabric.set_tracer(tracer.clone());
        self.sdram.set_tracer(tracer.clone());
        for (core, store) in self.stores.iter_mut().enumerate() {
            store.set_tracer(tracer.clone(), Track::Core(core as u32));
        }
        self.tracer = tracer;
    }

    /// The tracer attached to this chip (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attach fault state to the whole machine: the fabric (mesh
    /// stalls, eLink degradation), the SDRAM (transient bit errors)
    /// and the chip itself (flag drops/delays, core halts) share one
    /// schedule, so every armed event injects exactly once across all
    /// injection points.
    pub fn set_faults(&mut self, faults: FaultState) {
        self.fabric.set_faults(faults.clone());
        self.sdram.set_faults(faults.clone());
        self.faults = faults;
    }

    /// The fault state attached to this chip (disabled by default).
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Sentinel returned by [`Chip::write_remote`] when an armed fault
    /// dropped the flag write: the data landed in the destination
    /// store, but the consumer will never see the flag go up.
    /// [`Chip::send_reliable`] turns this into a watchdog-driven
    /// retry; passing it to [`Chip::wait_flag`] is a bug.
    pub const DROPPED: Cycle = Cycle(u64::MAX);

    /// The 16-core E16G3.
    pub fn e16g3(params: EpiphanyParams) -> Chip {
        Chip::new(params, 4, 4)
    }

    /// A chip with the geometry the parameters declare
    /// (`mesh_cols x mesh_rows`) — the way mapping drivers should
    /// build their machine, so a platform's mesh choice flows through
    /// without the driver hard-coding 4x4.
    pub fn from_params(params: EpiphanyParams) -> Chip {
        Chip::new(params, params.mesh_cols, params.mesh_rows)
    }

    /// Mesh geometry `(cols, rows)`.
    pub fn mesh_dims(&self) -> (u16, u16) {
        (self.mesh.cols(), self.mesh.rows())
    }

    /// Row-major core ids of a compact `n`-core subgrid embedded at
    /// the top-left corner of a `(cols, rows)` mesh: the
    /// [`Chip::mesh_for_cores`] shape for `n`, laid out inside the real
    /// mesh so neighbour relations (and therefore hop counts) match a
    /// dedicated `n`-core chip. Running the 16-core FFBP slice
    /// assignment on these ids on an E64 reproduces the E16G3
    /// communication pattern exactly.
    ///
    /// Panics if the subgrid does not fit the mesh.
    pub fn subgrid_on(cols: u16, rows: u16, n: usize) -> Vec<usize> {
        let (sc, sr) = Chip::mesh_for_cores(n);
        assert!(
            sc <= cols && sr <= rows,
            "{n}-core subgrid ({sc}x{sr}) does not fit a {cols}x{rows} mesh"
        );
        let mut ids = Vec::with_capacity(n);
        'fill: for y in 0..sr {
            for x in 0..sc {
                if ids.len() == n {
                    break 'fill;
                }
                ids.push(y as usize * cols as usize + x as usize);
            }
        }
        ids
    }

    /// The smallest sensible `(cols, rows)` mesh covering `n` cores:
    /// minimal core count among meshes with bounded aspect ratio
    /// (`cols <= 2 * rows`, `cols >= rows`), tie-broken toward square.
    /// The aspect bound keeps worst-case mesh distances short — a 17×1
    /// strip would "cover" 17 cores with zero waste but terrible hop
    /// counts.
    pub fn mesh_for_cores(n: usize) -> (u16, u16) {
        assert!(n >= 1, "a chip needs at least one core");
        assert!(n <= u16::MAX as usize * u16::MAX as usize, "mesh too large");
        let mut best: Option<(u16, u16)> = None;
        let mut cols = (n as f64).sqrt().ceil() as u16;
        loop {
            let rows = (n as u16).div_ceil(cols);
            if cols > 2 * rows {
                break;
            }
            let better = match best {
                None => true,
                Some((bc, br)) => (cols as u32 * rows as u32) < (bc as u32 * br as u32),
            };
            if better {
                best = Some((cols, rows));
            }
            cols += 1;
        }
        best.expect("ceil(sqrt(n)) always yields a candidate")
    }

    /// Parameters in use.
    pub fn params(&self) -> &EpiphanyParams {
        &self.params
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.mesh.len()
    }

    /// Mesh node of `core`.
    pub fn node(&self, core: CoreId) -> NodeId {
        NodeId(core as u16)
    }

    /// Current time cursor of `core`.
    pub fn now(&self, core: CoreId) -> Cycle {
        self.t[core]
    }

    /// Access to the fabric (read-only, for congestion statistics).
    pub fn fabric(&self) -> &EMesh {
        &self.fabric
    }

    /// Access to the SDRAM model (read-only statistics).
    pub fn sdram(&self) -> &Sdram {
        &self.sdram
    }

    /// Local store of `core` (read-only statistics).
    pub fn store(&self, core: CoreId) -> &LocalStore {
        &self.stores[core]
    }

    /// Per-core operation counters, materialised by value from the
    /// core's activity slots.
    pub fn counters(&self, core: CoreId) -> Counters {
        self.counters[core].to_counters()
    }

    /// Slot-indexed view of `core`'s counters (the hot-path storage
    /// behind [`Chip::counters`]).
    pub fn activity(&self, core: CoreId) -> &CoreCounters {
        &self.counters[core]
    }

    fn spend(&mut self, core: CoreId, cycles: Cycle) {
        self.t[core] += cycles;
        self.busy[core] += cycles;
    }

    /// Let `core` idle (cursor advances, no busy cycles — the clock
    /// gate closes). Used for stalls whose time is spent waiting.
    fn stall_until(&mut self, core: CoreId, until: Cycle) {
        if until > self.t[core] {
            self.t[core] = until;
        }
    }

    // ---- compute --------------------------------------------------------

    /// Execute a compute region described by raw op counts.
    pub fn compute(&mut self, core: CoreId, ops: &OpCounts) {
        let block = CostBlock::lower(ops, &self.params);
        self.compute_block(core, &block);
    }

    /// Execute an already-lowered compute block.
    pub fn compute_block(&mut self, core: CoreId, block: &CostBlock) {
        let cycles = Cycle(block.cycles(&self.params));
        let start = self.t[core];
        self.spend(core, cycles);
        self.tracer
            .span(Track::Core(core as u32), "compute", start, self.t[core]);
        let c = &mut self.counters[core];
        c.add(slot::FPU_INSTR, block.fpu_instrs);
        c.add(slot::IALU_LS_INSTR, block.ialu_ls_instrs);
        c.add(slot::LOCAL_ACCESS, block.local_accesses);
    }

    // ---- on-chip communication -------------------------------------------

    /// Posted write of `bytes` into `dst`'s local store. The sender
    /// pays only issue cycles; delivery is returned for synchronisation
    /// (flag-based streaming uses it as the data-ready time).
    pub fn write_remote(&mut self, core: CoreId, dst: CoreId, bytes: u64) -> Cycle {
        let issue = Cycle(bytes.div_ceil(8).max(1) * self.params.write_issue_cycles_per_dword);
        self.spend(core, issue);
        let res: TransferResult =
            self.fabric
                .write_onchip(self.t[core], self.node(core), self.node(dst), bytes);
        // Inbound mesh write lands in a destination bank; model the port
        // time so concurrent core accesses to that bank see conflicts.
        let _ = self.stores[dst].access_bank(res.arrival, 0, bytes);
        if self.tracer.is_enabled() {
            // Landing marker for the sarlint dynamic cross-check: the
            // observed access must fit a statically declared buffer.
            self.tracer.instant(
                Track::Dma(dst as u32),
                format!("land:bank0+{bytes}"),
                res.arrival,
            );
        }
        let c = &mut self.counters[core];
        c.bump(slot::REMOTE_WRITE);
        c.add(slot::REMOTE_WRITE_BYTES, bytes);
        if self.faults.is_enabled() {
            match self.faults.flag_fault(res.arrival) {
                Some(FlagFault::Drop) => {
                    self.tracer
                        .instant(Track::Core(dst as u32), "fault:flag_drop", res.arrival);
                    return Chip::DROPPED;
                }
                Some(FlagFault::Delay(extra)) => {
                    // Saturating: `res.arrival + extra` must not wrap
                    // past the DROPPED sentinel into a small instant. A
                    // delay that saturates to the sentinel is
                    // indistinguishable from a lost flag, so report it
                    // as one and let send_reliable recover.
                    let arrival = res.arrival.saturating_add(Cycle(extra));
                    if arrival == Chip::DROPPED {
                        self.tracer.instant(
                            Track::Core(dst as u32),
                            "fault:flag_drop",
                            res.arrival,
                        );
                        return Chip::DROPPED;
                    }
                    self.tracer
                        .instant(Track::Core(dst as u32), "fault:flag_delay", arrival);
                    return arrival;
                }
                None => {}
            }
        }
        res.arrival
    }

    /// Reliable flag-signalled send: [`Chip::write_remote`] wrapped in
    /// a producer-side model of the consumer's watchdog. If the flag
    /// write is lost (a fault dropped it), the consumer's watchdog
    /// expires after `flag_retry_timeout_cycles`, NACKs the producer,
    /// and the message is re-sent; the timeout doubles per attempt,
    /// capped at 8x the base. With faults disabled this is exactly one
    /// [`Chip::write_remote`] — bit-identical to calling it directly.
    ///
    /// # Panics
    /// If `flag_retry_max` re-sends are all lost.
    pub fn send_reliable(&mut self, core: CoreId, dst: CoreId, bytes: u64) -> Cycle {
        let ready = self.write_remote(core, dst, bytes);
        if ready != Chip::DROPPED {
            return ready;
        }
        // Recovery path: snapshot time and energy so the retry storm
        // lands in the fault record, not silently in the baseline.
        let t0 = self.t[core];
        let e0 = self.energy().total_j();
        let base = self.params.flag_retry_timeout_cycles.max(1);
        let mut timeout = base;
        for _ in 0..self.params.flag_retry_max {
            // Watchdog expiry at the consumer, NACK back over the
            // rMesh: the producer idles until the NACK lands. The
            // backoff add saturates: it must never wrap even if a
            // sentinel-adjacent cursor ever reached here.
            let expiry = self.t[core].saturating_add(Cycle(timeout));
            self.stall_until(core, expiry);
            self.faults.add_retries(1);
            self.tracer
                .instant(Track::Core(core as u32), "fault:flag_retry", self.t[core]);
            let ready = self.write_remote(core, dst, bytes);
            if ready != Chip::DROPPED {
                self.faults
                    .add_recovery_cycles(self.t[core].saturating_sub(t0).raw());
                self.faults
                    .add_recovery_energy((self.energy().total_j() - e0).max(0.0));
                return ready;
            }
            timeout = (timeout * 2).min(8 * base);
        }
        panic!(
            "send_reliable: flag write from core {core} to {dst} lost {} times",
            self.params.flag_retry_max
        );
    }

    /// Blocking read of `bytes` from `src_core`'s local store: request
    /// travels the rMesh, data returns over the cMesh; the reader
    /// stalls until the data is back.
    pub fn read_remote(&mut self, core: CoreId, src_core: CoreId, bytes: u64) -> Cycle {
        self.spend(core, Cycle(self.params.read_issue_cycles));
        let issued = self.t[core];
        let res =
            self.fabric
                .read_onchip(self.t[core], self.node(core), self.node(src_core), bytes);
        self.stall_until(core, res.arrival);
        self.tracer
            .span(Track::Core(core as u32), "rd_remote", issued, self.t[core]);
        let c = &mut self.counters[core];
        c.bump(slot::REMOTE_READ);
        c.add(slot::REMOTE_READ_BYTES, bytes);
        res.arrival
    }

    // ---- off-chip communication --------------------------------------------

    /// Blocking read of `bytes` at external address `addr`.
    pub fn read_external(&mut self, core: CoreId, addr: GlobalAddr, bytes: u64) -> Cycle {
        assert!(
            addr.is_external(),
            "read_external wants an external address"
        );
        self.spend(core, Cycle(self.params.read_issue_cycles));
        let issued = self.t[core];
        let mem = self.sdram.latency_of(self.t[core], addr.0);
        let res = self
            .fabric
            .read_offchip(self.t[core], self.node(core), bytes, mem);
        self.stall_until(core, res.arrival);
        self.tracer
            .span(Track::Core(core as u32), "rd_ext", issued, self.t[core]);
        let c = &mut self.counters[core];
        c.bump(slot::EXT_READ);
        c.add(slot::EXT_READ_BYTES, bytes);
        res.arrival
    }

    /// Blocking reads of `bytes` at each address in `addrs`, issued
    /// back-to-back by `core` — semantically `addrs.len()` calls to
    /// [`Chip::read_external`], byte-identical in every observable
    /// (cursors, counters, SDRAM state, fabric statistics).
    ///
    /// When no tracer is attached, no fault events are pending and the
    /// rMesh and cMesh routes are idle at the first issue
    /// ([`EMesh::can_absorb_offchip_read_legs`]), every mesh leg of the
    /// span is uncontended and absorbs in closed form. The eLink may
    /// still be busy with other cores' traffic, whose cursors run
    /// ahead: a read whose request reaches it before its frontier takes
    /// its two reservations one by one ([`EMesh::elink_read`]),
    /// backfilling idle gaps as the per-read path does. From the first
    /// read that arrives at or after the frontier every later one does
    /// too, and the rest absorbs whole ([`EMesh::absorb_offchip_reads`]):
    /// `O(1)` per-link work per span instead of a dozen FIFO walks per
    /// read. Otherwise the reads run per event, re-checking before each.
    pub fn read_external_run(&mut self, core: CoreId, addrs: &[GlobalAddr], bytes: u64) {
        let issue = Cycle(self.params.read_issue_cycles);
        let node = self.node(core);
        // Span-invariant gates: a tracer cannot attach mid-call and
        // fault schedules only ever drain.
        let quiet =
            !self.tracer.is_enabled() && (!self.faults.is_enabled() || self.faults.pending() == 0);
        let mut i = 0;
        while i < addrs.len() {
            if quiet
                && self
                    .fabric
                    .can_absorb_offchip_read_legs(node, self.t[core] + issue)
            {
                let path = self.fabric.offchip_read_path(node, bytes);
                let n = addrs.len() - i;
                let mut t = Vec::with_capacity(n);
                let mut mem = Vec::with_capacity(n);
                // Reply release times of the reads behind the frontier.
                let mut released = Vec::new();
                for &addr in &addrs[i..] {
                    assert!(
                        addr.is_external(),
                        "read_external wants an external address"
                    );
                    self.spend(core, issue);
                    let at = self.t[core];
                    let m = self.sdram.latency_of(at, addr.0);
                    if released.len() == t.len() && at + path.request < self.fabric.elink.free_at()
                    {
                        let [_, back] = self.fabric.elink_read(at + path.request, bytes, m);
                        released.push(back.end);
                        self.stall_until(core, back.end + path.reply);
                    } else {
                        mem.push(m);
                        self.stall_until(core, at + path.latency(m));
                    }
                    t.push(at);
                }
                let (behind, caught_up) = t.split_at(released.len());
                let fabric = &mut self.fabric;
                fabric.absorb_offchip_read_legs(node, bytes, behind, |i| released[i]);
                fabric.absorb_offchip_reads(node, bytes, caught_up, &mem);
                let c = &mut self.counters[core];
                c.add(slot::EXT_READ, n as u64);
                c.add(slot::EXT_READ_BYTES, bytes * n as u64);
                return;
            }
            self.read_external(core, addrs[i], bytes);
            i += 1;
        }
    }

    /// Posted write of `bytes` to external address `addr`. Issue is
    /// single-cycle-per-dword ("write without stalling"); a finite
    /// write buffer applies backpressure when the eLink backlog exceeds
    /// `write_buffer_cycles`.
    pub fn write_external(&mut self, core: CoreId, addr: GlobalAddr, bytes: u64) -> Cycle {
        assert!(
            addr.is_external(),
            "write_external wants an external address"
        );
        let issue = Cycle(bytes.div_ceil(8).max(1) * self.params.write_issue_cycles_per_dword);
        self.spend(core, issue);
        let res = self
            .fabric
            .write_offchip(self.t[core], self.node(core), bytes);
        // Open-row bookkeeping only; the write is posted.
        self.sdram.latency_of(res.arrival, addr.0);
        // Backpressure: if the write would complete far beyond the
        // buffer horizon, the core stalls until the backlog drains.
        let horizon = self.t[core] + Cycle(self.params.write_buffer_cycles);
        if res.arrival > horizon {
            let stall_from = self.t[core];
            self.stall_until(core, res.arrival - Cycle(self.params.write_buffer_cycles));
            self.tracer.span(
                Track::Core(core as u32),
                "wr_backpressure",
                stall_from,
                self.t[core],
            );
        }
        let c = &mut self.counters[core];
        c.bump(slot::EXT_WRITE);
        c.add(slot::EXT_WRITE_BYTES, bytes);
        res.arrival
    }

    // ---- DMA ---------------------------------------------------------------

    /// Start a DMA transfer on `core`'s engine. The core pays only the
    /// descriptor setup; the transfer itself overlaps with compute.
    /// Returns the completion time (pass it to [`Chip::dma_wait`]).
    pub fn dma_start(
        &mut self,
        core: CoreId,
        dir: DmaDirection,
        addr: GlobalAddr,
        bank: usize,
        bytes: u64,
    ) -> Cycle {
        let name = match dir {
            DmaDirection::ExternalToLocal => "dma_in",
            DmaDirection::LocalToExternal => "dma_out",
        };
        self.dma_rows(core, dir, bank, bytes, std::iter::once(addr), name)
    }

    /// One descriptor on `core`'s engine: a row of `row_bytes` between
    /// local `bank` and each external address of `rows`, back to back.
    fn dma_rows(
        &mut self,
        core: CoreId,
        dir: DmaDirection,
        bank: usize,
        row_bytes: u64,
        rows: impl Iterator<Item = GlobalAddr>,
        name: &'static str,
    ) -> Cycle {
        self.spend(core, Cycle(self.params.dma_setup_cycles));
        let started = self.dma[core].earliest_start(self.t[core]);
        let (mut t, mut bytes) = (started, 0);
        for addr in rows {
            bytes += row_bytes;
            t = match dir {
                DmaDirection::ExternalToLocal => {
                    let mem = self.sdram.latency_of(t, addr.0);
                    let res = self.fabric.read_offchip(t, self.node(core), row_bytes, mem);
                    // Landing in the chosen local bank.
                    let landed = self.stores[core].access_bank(res.arrival, bank, row_bytes);
                    if self.tracer.is_enabled() {
                        // Landing marker for the sarlint dynamic cross-check.
                        self.tracer.instant(
                            Track::Dma(core as u32),
                            format!("land:bank{bank}+{row_bytes}"),
                            landed.end,
                        );
                    }
                    landed.end
                }
                DmaDirection::LocalToExternal => {
                    let drained = self.stores[core].access_bank(t, bank, row_bytes);
                    let res = self
                        .fabric
                        .write_offchip(drained.end, self.node(core), row_bytes);
                    self.sdram.latency_of(res.arrival, addr.0);
                    res.arrival
                }
            };
        }
        self.dma[core].commit(t, bytes);
        self.tracer.span(Track::Dma(core as u32), name, started, t);
        self.counters[core].add(slot::DMA_BYTES, bytes);
        t
    }

    /// Block `core` until its DMA engine reaches `completion`.
    pub fn dma_wait(&mut self, core: CoreId, completion: Cycle) {
        self.counters[core].bump(slot::DMA_WAIT);
        let from = self.t[core];
        self.stall_until(core, completion);
        self.tracer
            .span(Track::Core(core as u32), "dma_wait", from, self.t[core]);
    }

    /// Start a strided (2D) DMA descriptor: `rows` rows of `row_bytes`
    /// each, `stride_bytes` apart in external memory, landing packed
    /// in local `bank`. One descriptor occupies the engine for the
    /// whole transfer (as on the real 2D DMA); each row pays its own
    /// SDRAM access. Returns the completion time.
    #[allow(clippy::too_many_arguments)]
    pub fn dma_start_2d(
        &mut self,
        core: CoreId,
        dir: DmaDirection,
        addr: GlobalAddr,
        bank: usize,
        rows: u32,
        row_bytes: u64,
        stride_bytes: u32,
    ) -> Cycle {
        assert!(rows > 0 && row_bytes > 0, "degenerate 2D descriptor");
        let row_addrs = (0..rows).map(|row| GlobalAddr(addr.0 + row * stride_bytes));
        let done = self.dma_rows(core, dir, bank, row_bytes, row_addrs, "dma_2d");
        self.counters[core].bump(slot::DMA_2D);
        done
    }

    /// Host-side program/data load into `core`'s local store: the
    /// image enters through the eLink and rides the cMesh to the core
    /// (which sits in reset — it is stalled, not busy). Returns the
    /// completion time.
    pub fn host_load(&mut self, core: CoreId, src: GlobalAddr, bytes: u64) -> Cycle {
        let begun = self.t[core];
        let r = self.fabric.elink_request(self.t[core], bytes + 8);
        self.sdram.latency_of(r.end, src.0);
        let res =
            self.fabric
                .cmesh
                .transfer(r.end, self.fabric.elink_node(), self.node(core), bytes + 8);
        let landed = self.stores[core].access_bank(res.arrival, 0, bytes);
        self.stall_until(core, landed.end);
        self.tracer
            .span(Track::Host, "host_load", begun, landed.end);
        let c = &mut self.counters[core];
        c.bump(slot::HOST_LOAD);
        c.add(slot::HOST_LOAD_BYTES, bytes);
        landed.end
    }

    // ---- synchronisation -----------------------------------------------------

    /// Flag-based consumer wait: `core` spins on the flag word until
    /// `ready` (a delivery time returned by [`Chip::write_remote`]).
    /// The poll loop retires one check every `flag_poll_cycles` for as
    /// long as the flag stays down (capped at `flag_poll_max_polls`,
    /// minimum one check), so a long wait costs proportionally more
    /// energy than a hit — but the core's cursor still lands exactly
    /// where a single-check model would put it, `max(now + one poll,
    /// ready)`, because the charged polls fit inside the wait.
    ///
    /// # Panics
    /// If `ready` is the [`Chip::DROPPED`] sentinel. This is a hard
    /// assert (not debug-only): letting the sentinel through would
    /// stall the core cursor to `u64::MAX`, after which every later
    /// `+ Cycle(...)` on that cursor wraps around in release builds
    /// and silently corrupts the timeline.
    pub fn wait_flag(&mut self, core: CoreId, ready: Cycle) {
        assert!(
            ready != Chip::DROPPED,
            "wait_flag on a dropped flag write; use Chip::send_reliable \
             for fault-tolerant signalling"
        );
        let from = self.t[core];
        let waited = ready.saturating_sub(from).0;
        let polls = (waited / self.params.flag_poll_cycles.max(1))
            .clamp(1, self.params.flag_poll_max_polls.max(1));
        self.spend(core, Cycle(polls * self.params.flag_poll_cycles));
        self.stall_until(core, ready);
        self.tracer
            .span(Track::Core(core as u32), "wait_flag", from, self.t[core]);
        let c = &mut self.counters[core];
        c.bump(slot::FLAG_WAIT);
        c.add(slot::FLAG_POLLS, polls);
        // Each poll iteration is a local load + compare on the IALU/LS
        // pipe; charge it so spin time shows up in the energy account.
        c.add(slot::IALU_LS_INSTR, polls);
    }

    /// Barrier across `cores`: every participant advances to the
    /// latest cursor plus the barrier cost.
    pub fn barrier(&mut self, cores: &[CoreId]) {
        let latest = cores
            .iter()
            .map(|&c| self.t[c])
            .max()
            .unwrap_or(Cycle::ZERO);
        let release = latest + Cycle(self.params.barrier_base_cycles);
        for &c in cores {
            let from = self.t[c];
            self.stall_until(c, release);
            self.tracer
                .span(Track::Core(c as u32), "barrier", from, self.t[c]);
            self.counters[c].bump(slot::BARRIER);
        }
    }

    // ---- phase-scoped statistics -----------------------------------------------

    /// Everything the chip has accumulated up to now.
    fn snapshot(&self) -> Snapshot {
        let f = &self.fabric;
        Snapshot {
            energy: self.energy(),
            counters: CoreCounters::sum(&self.counters),
            core_busy: self.busy.iter().copied().fold(Cycle::ZERO, |a, b| a + b),
            elink_busy: f.elink.busy_cycles(),
            sdram_busy: self.sdram.busy_cycles(),
            byte_hops: f.meshes().map(MeshNetwork::byte_hops),
            transfers: f.total_transfers(),
            link_busy: f.link_busy_vec(),
        }
    }

    /// Open a named observation phase (a merge iteration, a pipeline
    /// stage) at the current makespan cursor. Phases are strictly
    /// sequential — close the previous one with [`Chip::phase_end`]
    /// first.
    pub fn phase_begin(&mut self, name: &str) {
        self.phases.begin(name, self.elapsed(), self.snapshot());
    }

    /// Attach a gauge (occupancy, queue depth, …) to the open phase.
    pub fn phase_metric(&mut self, key: &str, value: f64) {
        self.phases.metric(key, value);
    }

    /// Close the open phase at the current makespan cursor.
    pub fn phase_end(&mut self) {
        let span = self.phases.end(self.elapsed(), self.snapshot());

        // Run-track span + cumulative-energy sample for the timeline.
        if self.tracer.is_enabled() {
            self.tracer.span(
                Track::Run,
                format!("{}[{}]", span.name, span.index),
                span.start,
                span.end,
            );
            let energy = span.closed.energy;
            self.tracer
                .counter(Track::Run, "energy_j", span.end, energy.total_j());
            // Per-component average power over the phase, rendered
            // as counter tracks by the Chrome trace export.
            let seconds = TimeSpan::new(span.cycles(), self.params.clock).seconds();
            for (name, joules) in energy.delta_since(&span.opened.energy).components() {
                let watts = if seconds > 0.0 { joules / seconds } else { 0.0 };
                self.tracer
                    .counter(Track::Run, format!("power_{name}_w"), span.end, watts);
            }
        }
    }

    // ---- results ---------------------------------------------------------------

    /// Latest cursor across all cores — the makespan.
    pub fn elapsed(&self) -> Cycle {
        self.t.iter().copied().max().unwrap_or(Cycle::ZERO)
    }

    /// Makespan as a wall-time span.
    pub fn elapsed_span(&self) -> TimeSpan {
        TimeSpan::new(self.elapsed(), self.params.clock)
    }

    /// Busy cycles of `core`.
    pub fn busy(&self, core: CoreId) -> Cycle {
        self.busy[core]
    }

    /// Modelled energy for the run so far.
    pub fn energy(&self) -> EnergyBreakdown {
        EnergyModel::new(&self.params).evaluate(self)
    }

    /// Produce a run record labelled `label`, counting `cores_used`
    /// toward utilisation figures. Kernel/mapping/platform identity is
    /// stamped later by the harness; closed phases become
    /// [`PhaseRecord`]s.
    pub fn report(&self, label: &str, cores_used: usize) -> RunRecord {
        assert!(
            !self.phases.is_open(),
            "cannot report with a phase still open"
        );
        let mut record = RunRecord::new(label, self.elapsed_span());
        record.platform = "epiphany".to_string();
        record.cores_used = cores_used;
        record.energy = self.energy();
        record.counters = CoreCounters::sum(&self.counters).to_counters();
        let f = &self.fabric;
        record.busiest_link_cycles = f.cmesh.max_link_busy().max(f.xmesh.max_link_busy());
        record.elink_busy_cycles = f.elink.busy_cycles();
        record.sdram_row_hit_rate = self.sdram.row_hit_rate();
        record.faults = self.faults.totals();

        // Aggregate link statistics — present even with tracing off.
        let c = &mut record.counters;
        for m in f.meshes() {
            let name = m.kind().label();
            c.add(format!("{name}_byte_hops"), m.byte_hops());
            let h = m.latency();
            if h.count() > 0 {
                c.add(format!("{name}_lat_p50"), h.quantile(0.5).unwrap_or(0));
                c.add(format!("{name}_lat_p95"), h.quantile(0.95).unwrap_or(0));
                c.add(format!("{name}_lat_max"), h.max().unwrap_or(0));
            }
        }
        c.add("mesh_byte_hops", f.total_byte_hops());
        c.add("mesh_transfers", f.total_transfers());
        c.add("mesh_link_busy_cycles", f.total_link_busy().raw());
        record.mesh_heatmap = Some(MeshHeatmap {
            cols: self.mesh.cols() as usize,
            rows: self.mesh.rows() as usize,
            links: f.link_stats(self.elapsed()),
        });
        // Run-level eLink utilisation is bounded by construction (the
        // chip is quiescent at report time), so the asserting path in
        // `RunRecord::elink_utilization` applies. Exercise it here so
        // accounting bugs surface at the producer.
        let _ = record.elink_utilization();
        // Every per-phase figure is a difference of the phase's two
        // snapshots; the power timeline's epochs are those boundaries,
        // closed by a final epoch up to the makespan, so its sum
        // telescopes to the run energy exactly (modulo the
        // non-negativity clamp in delta_since, which only fires on a
        // non-monotone model).
        let mut phase_powers = Vec::with_capacity(self.phases.spans().len());
        let mut timeline = PowerTimeline::new();
        let mut prev = (Cycle::ZERO, EnergyBreakdown::default());
        for span in self.phases.spans() {
            let (was, now) = (&span.opened, &span.closed);
            for (at, e) in [(span.start, was.energy), (span.end, now.energy)] {
                timeline.push(PowerEpoch {
                    start: prev.0,
                    end: at,
                    energy: e.delta_since(&prev.1),
                });
                prev = (at, e);
            }
            let denergy = now.energy.delta_since(&was.energy);
            let link_deltas = || {
                let pairs = now.link_busy.iter().zip(&was.link_busy);
                pairs.map(|(now, was)| now.saturating_sub(*was).raw())
            };
            // Utilisations are computed without `utilization()`'s
            // over-unity assert: a posted external write reserves
            // eLink and link time that can extend past the phase-end
            // cursor, so the busy delta attributed to a short phase
            // may legitimately exceed its span (the tail drains during
            // a later phase).
            let span_cycles = span.cycles().raw() as f64;
            let over_span = |busy: u64| {
                if span_cycles > 0.0 {
                    busy as f64 / span_cycles
                } else {
                    0.0
                }
            };
            let [cmesh_byte_hops, rmesh_byte_hops, xmesh_byte_hops] =
                std::array::from_fn(|i| now.byte_hops[i] - was.byte_hops[i]);
            let mesh = MeshUtilization {
                cmesh_byte_hops,
                rmesh_byte_hops,
                xmesh_byte_hops,
                transfers: now.transfers - was.transfers,
                link_busy_cycles: link_deltas().sum(),
                busiest_link_utilization: over_span(link_deltas().max().unwrap_or(0)),
            };
            // Stall-vs-compute split: busy cycles over the phase's
            // core-cycle budget. Only cores actually used count —
            // idle cores are clock-gated and cost static power only.
            let core_busy = now.core_busy.saturating_sub(was.core_busy);
            let compute_fraction = if span_cycles > 0.0 && cores_used > 0 {
                (core_busy.raw() as f64 / (cores_used as f64 * span_cycles)).min(1.0)
            } else {
                0.0
            };
            let stall_fraction = if span_cycles > 0.0 {
                1.0 - compute_fraction
            } else {
                0.0
            };
            phase_powers.push(PhasePower {
                name: span.name.clone(),
                index: span.index,
                energy: denergy,
                attribution: PhaseAttribution::attribute(
                    &denergy,
                    mesh.busiest_link_utilization,
                    compute_fraction,
                    stall_fraction,
                ),
            });
            let sdram_busy = now.sdram_busy.saturating_sub(was.sdram_busy);
            let measured = std::iter::once(("sdram_busy_cycles", sdram_busy.raw()))
                .chain(now.counters.since(&was.counters))
                .map(|(name, n)| (name, n as f64));
            let mut phase = PhaseRecord::of_span(span, self.params.clock, measured);
            phase.energy_j = denergy.total_j();
            phase.elink_utilization =
                over_span(now.elink_busy.saturating_sub(was.elink_busy).raw());
            phase.mesh = mesh;
            record.phases.push(phase);
        }
        timeline.push(PowerEpoch {
            start: prev.0,
            end: self.elapsed(),
            energy: record.energy.delta_since(&prev.1),
        });
        record.power = Some(PowerRecord {
            timeline,
            phases: phase_powers,
        });
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> Chip {
        Chip::e16g3(EpiphanyParams::default())
    }

    fn ext(off: u32) -> GlobalAddr {
        GlobalAddr::external(off)
    }

    #[test]
    fn compute_advances_only_that_core() {
        let mut c = chip();
        c.compute(
            0,
            &OpCounts {
                flops: 800,
                ..OpCounts::default()
            },
        );
        assert_eq!(c.now(0), Cycle(1000)); // 800 / 0.8 pairing
        assert_eq!(c.now(1), Cycle::ZERO);
        assert_eq!(c.busy(0), Cycle(1000));
    }

    #[test]
    fn remote_read_stalls_remote_write_does_not() {
        let mut c = chip();
        let t0 = c.now(0);
        c.write_remote(0, 15, 64);
        let after_write = c.now(0);
        // Issue cost only: 8 dwords = 8 cycles.
        assert_eq!(after_write - t0, Cycle(8));

        let mut c2 = chip();
        c2.read_remote(0, 15, 64);
        // Round trip across 6+6 hops dwarfs the posted-write issue cost.
        assert!(c2.now(0) > after_write);
    }

    #[test]
    fn external_read_is_much_slower_than_local_compute() {
        let mut c = chip();
        c.read_external(0, ext(0), 8);
        let ext_cost = c.now(0);
        let mut c2 = chip();
        c2.compute(
            0,
            &OpCounts {
                flops: 8,
                ..OpCounts::default()
            },
        );
        assert!(
            ext_cost.raw() > 10 * c2.now(0).raw(),
            "off-chip read {ext_cost} should dwarf 8 flops {:?}",
            c2.now(0)
        );
    }

    #[test]
    fn external_writes_post_until_buffer_fills() {
        let mut c = chip();
        // First small write: issue cost only.
        c.write_external(0, ext(0), 8);
        assert_eq!(c.now(0), Cycle(1));
        // Hammer the eLink; eventually backpressure stalls the core
        // beyond pure issue cost.
        for i in 0..200u32 {
            c.write_external(0, ext(8 * (i + 1)), 8);
        }
        // Pure issue would be 201 cycles; the eLink admits one 16-byte
        // wire transaction every 2 cycles, so backpressure pushes the
        // core toward the link rate.
        assert!(
            c.now(0).raw() > 320,
            "no backpressure observed: {:?}",
            c.now(0)
        );
    }

    #[test]
    fn sixteen_cores_share_the_elink() {
        let mut c = chip();
        // One core streams 64 KB off chip.
        let solo = {
            let mut c1 = chip();
            for i in 0..64u32 {
                c1.write_external(0, ext(i * 1024), 1024);
            }
            c1.now(0)
        };
        // Sixteen cores each stream 64 KB off chip.
        for i in 0..64u32 {
            for core in 0..16 {
                c.write_external(core, ext(i * 1024 + core as u32), 1024);
            }
        }
        let shared = (0..16).map(|k| c.now(k)).max().unwrap();
        // A lone core is already issue-limited near the eLink rate, so
        // sixteen cores cannot scale: expect heavy serialisation (the
        // aggregate demand is 16x the link capacity).
        assert!(
            shared.raw() > 4 * solo.raw(),
            "eLink sharing should serialise cores: solo={solo}, shared={shared}"
        );
    }

    #[test]
    fn dma_overlaps_with_compute() {
        let mut c = chip();
        let done = c.dma_start(0, DmaDirection::ExternalToLocal, ext(0), 2, 8192);
        let after_setup = c.now(0);
        assert!(after_setup < done, "setup should return before completion");
        // Core computes while DMA flies.
        c.compute(
            0,
            &OpCounts {
                flops: 100,
                ..OpCounts::default()
            },
        );
        c.dma_wait(0, done);
        assert!(c.now(0) >= done);
        // The compute time was hidden inside the DMA time.
        assert!(c.now(0) == done || c.now(0) < done + Cycle(200));
    }

    #[test]
    fn back_to_back_dma_serialises_on_engine() {
        let mut c = chip();
        let d1 = c.dma_start(0, DmaDirection::ExternalToLocal, ext(0), 2, 4096);
        let d2 = c.dma_start(0, DmaDirection::ExternalToLocal, ext(8192), 3, 4096);
        assert!(d2 > d1);
    }

    #[test]
    fn barrier_aligns_cursors() {
        let mut c = chip();
        c.compute(
            0,
            &OpCounts {
                flops: 1000,
                ..OpCounts::default()
            },
        );
        c.compute(
            1,
            &OpCounts {
                flops: 10,
                ..OpCounts::default()
            },
        );
        let before = c.now(0);
        c.barrier(&[0, 1]);
        assert_eq!(c.now(0), c.now(1));
        assert!(c.now(1) >= before);
    }

    #[test]
    fn wait_flag_blocks_until_delivery() {
        let mut c = chip();
        c.compute(
            0,
            &OpCounts {
                flops: 500,
                ..OpCounts::default()
            },
        );
        let ready = c.write_remote(0, 1, 128);
        c.wait_flag(1, ready);
        assert!(c.now(1) >= ready);
    }

    #[test]
    fn wait_flag_charges_polls_proportional_to_the_wait() {
        let p = EpiphanyParams::default();
        // Short wait: the flag is already up — exactly one poll.
        let mut c = chip();
        c.wait_flag(0, Cycle::ZERO);
        assert_eq!(c.counters(0).get("flag_polls"), 1);
        assert_eq!(c.busy(0), Cycle(p.flag_poll_cycles));

        // Medium wait: the consumer spins, one poll per poll period.
        let mut c = chip();
        c.wait_flag(0, Cycle(20 * p.flag_poll_cycles));
        assert_eq!(c.counters(0).get("flag_polls"), 20);
        assert_eq!(c.busy(0), Cycle(20 * p.flag_poll_cycles));
        // The polls fit inside the wait: the cursor still lands on
        // the delivery time.
        assert_eq!(c.now(0), Cycle(20 * p.flag_poll_cycles));

        // Long wait: the poll charge saturates at the cap.
        let mut c = chip();
        c.wait_flag(0, Cycle(1_000_000));
        assert_eq!(c.counters(0).get("flag_polls"), p.flag_poll_max_polls);
        assert_eq!(c.now(0), Cycle(1_000_000), "makespan must not change");
        assert!(c.busy(0) < Cycle(1_000_000));
    }

    #[test]
    fn wait_flag_spin_shows_up_in_compute_energy() {
        let mut idle = chip();
        idle.wait_flag(0, Cycle::ZERO);
        let mut spinning = chip();
        spinning.wait_flag(0, Cycle(100));
        assert!(
            spinning.energy().compute_j > idle.energy().compute_j,
            "a longer spin must cost more energy"
        );
    }

    #[test]
    fn idle_cycles_are_not_busy() {
        let mut c = chip();
        c.read_external(0, ext(0), 8);
        // Stall time is cursor-only: busy << now.
        assert!(c.busy(0) < c.now(0));
    }

    #[test]
    fn report_aggregates_counters() {
        let mut c = chip();
        c.compute(
            0,
            &OpCounts {
                flops: 10,
                loads: 4,
                ..OpCounts::default()
            },
        );
        c.compute(
            1,
            &OpCounts {
                flops: 5,
                ..OpCounts::default()
            },
        );
        c.write_remote(0, 1, 32);
        let r = c.report("test", 2);
        assert_eq!(r.counters.get("fpu_instr"), 15);
        assert_eq!(r.counters.get("remote_write"), 1);
        assert!(r.elapsed.seconds() > 0.0);
        assert!(r.energy.total_j() > 0.0);
        assert_eq!(r.platform, "epiphany");
    }

    #[test]
    fn mesh_sizing_covers_every_core_count() {
        for n in 1..=64usize {
            let (cols, rows) = Chip::mesh_for_cores(n);
            assert!(
                cols as usize * rows as usize >= n,
                "{n} cores need coverage"
            );
            assert!(cols <= 2 * rows, "aspect bound violated for {n}");
            // Minimality: shrinking either dimension must lose coverage.
            assert!(
                ((cols as usize - 1) * rows as usize) < n
                    || (cols as usize * (rows as usize - 1)) < n,
                "{n} cores: {cols}x{rows} is not minimal"
            );
        }
        // The old ad-hoc sizing forced square meshes: 17 cores got 25.
        assert_eq!(Chip::mesh_for_cores(17), (6, 3));
        assert_eq!(Chip::mesh_for_cores(32), (8, 4));
        assert_eq!(Chip::mesh_for_cores(64), (8, 8));
    }

    #[test]
    fn from_params_builds_the_declared_mesh() {
        let c = Chip::from_params(EpiphanyParams::e64());
        assert_eq!(c.mesh_dims(), (8, 8));
        assert_eq!(c.cores(), 64);
        assert_eq!((c.params().mesh_cols, c.params().mesh_rows), (8, 8));
        // An explicit geometry overrides (and re-syncs) the params.
        let c = Chip::new(EpiphanyParams::e64(), 4, 4);
        assert_eq!(c.mesh_dims(), (4, 4));
        assert_eq!((c.params().mesh_cols, c.params().mesh_rows), (4, 4));
    }

    #[test]
    fn subgrid_embeds_the_small_mesh_in_the_big_one() {
        // 16 cores on an 8x8 chip: the 4x4 corner, row-major in the
        // 8-wide id space.
        let ids = Chip::subgrid_on(8, 8, 16);
        assert_eq!(
            ids,
            vec![0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27]
        );
        // Neighbour relations match a dedicated 4x4 chip: horizontal
        // neighbours stay adjacent, vertical neighbours are one row
        // (8 ids) apart but still distance 1 on the mesh.
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                let d64 = {
                    let (ax, ay) = (a % 8, a / 8);
                    let (bx, by) = (b % 8, b / 8);
                    ax.abs_diff(bx) + ay.abs_diff(by)
                };
                let d16 = {
                    let (ax, ay) = (i % 4, i / 4);
                    let (bx, by) = (j % 4, j / 4);
                    ax.abs_diff(bx) + ay.abs_diff(by)
                };
                assert_eq!(d64, d16, "hop distance differs for slot pair ({i},{j})");
            }
        }
        // Non-rectangular counts take a prefix of the covering shape.
        assert_eq!(Chip::subgrid_on(8, 8, 5), vec![0, 1, 2, 8, 9]);
        // The whole chip is its own subgrid.
        assert_eq!(Chip::subgrid_on(8, 8, 64).len(), 64);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn subgrid_rejects_oversized_requests() {
        let _ = Chip::subgrid_on(4, 4, 17);
    }

    #[test]
    fn phases_record_time_energy_and_counter_deltas() {
        let mut c = chip();
        c.phase_begin("merge");
        c.compute(
            0,
            &OpCounts {
                flops: 100,
                ..OpCounts::default()
            },
        );
        c.phase_metric("occupancy", 0.5);
        c.phase_end();
        c.phase_begin("merge");
        c.compute(
            0,
            &OpCounts {
                flops: 300,
                ..OpCounts::default()
            },
        );
        c.write_external(0, ext(0), 64);
        c.phase_end();

        let r = c.report("phased", 1);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "merge");
        assert_eq!((r.phases[0].index, r.phases[1].index), (0, 1));
        assert_eq!(r.phases[0].metrics.get("occupancy"), Some(&0.5));
        // Counter deltas are per-phase, not cumulative.
        assert_eq!(r.phases[0].metrics.get("fpu_instr"), Some(&100.0));
        assert_eq!(r.phases[1].metrics.get("fpu_instr"), Some(&300.0));
        assert!(r.phases[1].start_ms >= r.phases[0].start_ms + r.phases[0].time_ms - 1e-12);
        assert!(r.phases[0].energy_j > 0.0);
        assert!(
            r.phases[1].elink_utilization > 0.0,
            "external write drives the eLink"
        );
        // Phase energy must sum to no more than the run total.
        let phase_sum: f64 = r.phases.iter().map(|p| p.energy_j).sum();
        assert!(phase_sum <= r.energy.total_j() + 1e-12);
    }

    #[test]
    fn heatmap_sums_to_total_byte_hops() {
        let mut c = chip();
        c.phase_begin("merge");
        c.write_remote(0, 15, 512);
        c.read_remote(3, 12, 256);
        c.write_external(5, ext(0), 1024);
        c.read_external(9, ext(4096), 128);
        c.phase_end();
        let r = c.report("mesh", 16);

        let map = r.mesh_heatmap.as_ref().expect("heatmap present");
        assert_eq!((map.cols, map.rows), (4, 4));
        assert_eq!(
            map.total_byte_hops(),
            r.counters.get("mesh_byte_hops"),
            "heatmap must sum to the run's total byte-hops"
        );
        assert_eq!(
            r.counters.get("mesh_byte_hops"),
            r.counters.get("cmesh_byte_hops")
                + r.counters.get("rmesh_byte_hops")
                + r.counters.get("xmesh_byte_hops")
        );
        assert!(r.counters.get("cmesh_lat_p50") > 0);
        // Quantiles are bucket midpoints clamped to the observed range:
        // monotone in q and never above the exact max.
        assert!(r.counters.get("cmesh_lat_p95") >= r.counters.get("cmesh_lat_p50"));
        assert!(r.counters.get("cmesh_lat_max") >= r.counters.get("cmesh_lat_p95"));
        assert!(r.counters.get("cmesh_lat_max") > 0);

        // The single phase saw all of the run's mesh traffic.
        let pm = &r.phases[0].mesh;
        assert!(pm.is_modelled());
        assert_eq!(pm.total_byte_hops(), r.counters.get("mesh_byte_hops"));
        assert_eq!(pm.transfers, r.counters.get("mesh_transfers"));
        assert!(pm.busiest_link_utilization > 0.0);
    }

    #[test]
    fn phase_mesh_deltas_are_per_phase() {
        let mut c = chip();
        c.phase_begin("a");
        c.write_remote(0, 3, 256);
        c.phase_end();
        c.phase_begin("b");
        c.write_remote(4, 7, 512);
        c.write_remote(8, 11, 512);
        c.phase_end();
        let r = c.report("two", 16);
        let (a, b) = (&r.phases[0].mesh, &r.phases[1].mesh);
        assert!(b.cmesh_byte_hops > a.cmesh_byte_hops);
        assert_eq!(
            a.cmesh_byte_hops + b.cmesh_byte_hops,
            r.counters.get("cmesh_byte_hops")
        );
        assert_eq!(a.transfers + b.transfers, r.counters.get("mesh_transfers"));
    }

    #[test]
    fn a_phase_is_the_difference_of_the_reports_at_its_boundaries() {
        let mut c = chip();
        // Earlier traffic of every kind, so no difference is a total.
        let mixed = |c: &mut Chip, scale: u64| {
            let ops = OpCounts {
                flops: 100 * scale,
                loads: 40 * scale,
                ..OpCounts::default()
            };
            c.compute(0, &ops);
            c.compute(5, &ops);
            let done = c.dma_start(1, DmaDirection::ExternalToLocal, ext(8192), 2, 512 * scale);
            c.dma_wait(1, done);
            let addrs: Vec<_> = (0..8 * scale as u32).map(|i| ext(64 * i)).collect();
            c.read_external_run(2, &addrs, 8);
            for i in 0..4 * scale as u32 {
                c.write_external(3, ext((1 << 16) + 8 * i), 8);
            }
            let ready = c.write_remote(0, 15, 64 * scale);
            c.wait_flag(15, ready);
            c.read_remote(6, 9, 32);
        };
        c.phase_begin("earlier");
        mixed(&mut c, 1);
        c.phase_end();
        let (before, sdram_before) = (c.report("before", 16), c.sdram().busy_cycles());
        c.phase_begin("observed");
        mixed(&mut c, 3);
        c.phase_end();
        let (after, sdram_after) = (c.report("after", 16), c.sdram().busy_cycles());

        let phase = after.phases.last().expect("the observed phase");
        assert_eq!(phase.name, "observed");
        let grew = |name: &str| after.counters.get(name) - before.counters.get(name);
        for name in slot::NAMES {
            let delta = phase.metrics.get(name).copied().unwrap_or(0.0);
            assert_eq!(delta, grew(name) as f64, "{name}");
        }
        assert!(grew("dma_bytes") > 0 && grew("remote_read") > 0 && grew("flag_polls") > 0);
        assert_eq!(phase.mesh.cmesh_byte_hops, grew("cmesh_byte_hops"));
        assert_eq!(phase.mesh.rmesh_byte_hops, grew("rmesh_byte_hops"));
        assert_eq!(phase.mesh.xmesh_byte_hops, grew("xmesh_byte_hops"));
        assert_eq!(phase.mesh.transfers, grew("mesh_transfers"));
        assert_eq!(phase.mesh.link_busy_cycles, grew("mesh_link_busy_cycles"));
        assert_eq!(
            phase.metrics["sdram_busy_cycles"],
            (sdram_after - sdram_before).raw() as f64
        );
        // The phase spans exactly the cycles between the two reports,
        // so its eLink utilisation is the busy difference over them.
        let cycles = (after.elapsed.cycles - before.elapsed.cycles).raw() as f64;
        let elink = (after.elink_busy_cycles - before.elink_busy_cycles).raw() as f64;
        assert!(elink > 0.0);
        assert_eq!(phase.elink_utilization, elink / cycles);
    }

    #[test]
    fn tracer_threads_through_the_whole_machine() {
        use desim::trace::{EventKind, MeshKind};
        let mut c = chip();
        let t = Tracer::enabled();
        c.set_tracer(t.clone());
        c.phase_begin("merge");
        c.compute(
            2,
            &OpCounts {
                flops: 100,
                ..OpCounts::default()
            },
        );
        c.write_remote(0, 15, 256);
        c.read_external(1, ext(0), 64);
        let done = c.dma_start(3, DmaDirection::ExternalToLocal, ext(8192), 2, 4096);
        c.dma_wait(3, done);
        c.phase_end();

        let events = t.snapshot();
        let has = |track: Track| events.iter().any(|e| e.track == track);
        assert!(has(Track::Core(2)), "compute span");
        assert!(has(Track::Core(1)), "external-read stall span");
        assert!(has(Track::Dma(3)), "dma engine span");
        assert!(has(Track::Run), "phase span");
        assert!(has(Track::ELink), "eLink occupancy");
        assert!(
            events.iter().any(|e| matches!(
                e.track,
                Track::MeshLink {
                    mesh: MeshKind::CMesh,
                    ..
                }
            )),
            "cMesh link spans"
        );
        assert!(
            events
                .iter()
                .any(|e| e.track == Track::Run && matches!(e.kind, EventKind::Counter { .. })),
            "energy counter sample"
        );
    }

    #[test]
    fn disabled_tracer_changes_no_results() {
        let run = |traced: bool| {
            let mut c = chip();
            if traced {
                c.set_tracer(Tracer::enabled());
            }
            c.phase_begin("m");
            c.compute(
                0,
                &OpCounts {
                    flops: 500,
                    ..OpCounts::default()
                },
            );
            c.write_external(0, ext(0), 512);
            c.phase_end();
            let r = c.report("x", 1);
            (r.elapsed.cycles, r.counters.get("mesh_byte_hops"))
        };
        assert_eq!(run(false), run(true), "tracing must not perturb timing");
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn nested_phases_are_rejected() {
        let mut c = chip();
        c.phase_begin("a");
        c.phase_begin("b");
    }

    #[test]
    fn dma_2d_costs_per_row_latency() {
        // Same bytes, contiguous vs strided: the strided descriptor
        // pays an SDRAM access per row and finishes later.
        let mut c1 = chip();
        let flat = c1.dma_start(0, DmaDirection::ExternalToLocal, ext(0), 2, 8192);
        let mut c2 = chip();
        let strided = c2.dma_start_2d(
            0,
            DmaDirection::ExternalToLocal,
            ext(0),
            2,
            8,
            1024,
            100_000, // far apart: every row misses the open row
        );
        assert!(strided > flat, "strided {strided} vs contiguous {flat}");
        assert_eq!(c2.counters(0).get("dma_2d"), 1);
        assert_eq!(c2.counters(0).get("dma_bytes"), 8192);
    }

    #[test]
    fn host_load_streams_through_the_elink() {
        let mut c = chip();
        let done = c.host_load(5, ext(0), 16 * 1024);
        // 16 KB at 8 B/cycle is at least 2k cycles.
        assert!(done.raw() >= 2000);
        assert_eq!(c.counters(5).get("host_load_bytes"), 16 * 1024);
        // The core waited (stalled), it did not burn busy cycles.
        assert_eq!(c.busy(5), Cycle::ZERO);
        assert!(c.now(5) >= done);
    }

    #[test]
    fn flag_delay_fault_perturbs_exactly_one_send() {
        use faultsim::{FaultEvent, FaultPlan, FaultState};
        let mut c = chip();
        let baseline = {
            let mut b = chip();
            (b.write_remote(0, 1, 64), b.write_remote(0, 1, 64))
        };
        c.set_faults(FaultState::from_plan(&FaultPlan::from_events(
            0,
            vec![FaultEvent::FlagDelay {
                at: Cycle(0),
                extra: 500,
            }],
        )));
        let first = c.write_remote(0, 1, 64);
        let second = c.write_remote(0, 1, 64);
        assert_eq!(first, baseline.0 + Cycle(500), "armed delay applies once");
        assert_eq!(second, baseline.1, "subsequent sends untouched");
        assert_eq!(c.faults().totals().faults_injected, 1);
    }

    #[test]
    fn send_reliable_recovers_a_dropped_flag() {
        use faultsim::{FaultEvent, FaultPlan, FaultState};
        let p = EpiphanyParams::default();
        let mut c = chip();
        c.set_faults(FaultState::from_plan(&FaultPlan::from_events(
            0,
            vec![FaultEvent::FlagDrop { at: Cycle(0) }],
        )));
        let ready = c.send_reliable(0, 1, 64);
        assert_ne!(ready, Chip::DROPPED);
        // The producer sat out at least one watchdog timeout.
        assert!(c.now(0).raw() >= p.flag_retry_timeout_cycles);
        let totals = c.faults().totals();
        assert_eq!(totals.faults_injected, 1);
        assert_eq!(totals.retries, 1);
        assert!(totals.recovery_cycles >= p.flag_retry_timeout_cycles);
        assert!(totals.recovery_energy_j > 0.0);
        // The consumer can wait on the recovered delivery as usual.
        c.wait_flag(1, ready);
        assert!(c.now(1) >= ready);
        // And the report carries the fault block.
        let r = c.report("recovered", 2);
        assert_eq!(r.faults.retries, 1);
    }

    #[test]
    #[should_panic(expected = "wait_flag on a dropped flag write")]
    fn wait_flag_rejects_the_dropped_sentinel() {
        // Regression: this used to be a debug_assert, so release
        // builds stalled the core cursor to u64::MAX and every later
        // cursor addition wrapped around.
        let mut c = chip();
        c.wait_flag(0, Chip::DROPPED);
    }

    #[test]
    fn saturating_flag_delay_degrades_to_a_drop() {
        // Regression: a huge armed delay used to wrap `arrival +
        // extra` past u64::MAX into a *small* instant, making the
        // flag appear delivered in the past. It now saturates, and a
        // delay that reaches the sentinel is reported as a drop that
        // send_reliable recovers from.
        use faultsim::{FaultEvent, FaultPlan, FaultState};
        let mut c = chip();
        c.set_faults(FaultState::from_plan(&FaultPlan::from_events(
            0,
            vec![FaultEvent::FlagDelay {
                at: Cycle(0),
                extra: u64::MAX,
            }],
        )));
        let ready = c.send_reliable(0, 1, 64);
        assert_ne!(ready, Chip::DROPPED);
        assert!(
            ready.raw() < u64::MAX / 2,
            "recovered delivery must be a real instant, got {ready:?}"
        );
        assert_eq!(c.faults().totals().retries, 1, "recovered via watchdog");
        c.wait_flag(1, ready);
    }

    #[test]
    #[should_panic(expected = "send_reliable")]
    fn send_reliable_gives_up_after_max_retries() {
        use faultsim::{FaultEvent, FaultPlan, FaultState};
        let p = EpiphanyParams {
            flag_retry_max: 2,
            ..Default::default()
        };
        let mut c = Chip::e16g3(p);
        // More drops armed than the retry budget tolerates.
        let drops = (0..8)
            .map(|_| FaultEvent::FlagDrop { at: Cycle(0) })
            .collect();
        c.set_faults(FaultState::from_plan(&FaultPlan::from_events(0, drops)));
        let _ = c.send_reliable(0, 1, 64);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_disabled() {
        use faultsim::{FaultPlan, FaultState};
        let run = |faults: Option<FaultState>| {
            let mut c = chip();
            if let Some(f) = faults {
                c.set_faults(f);
            }
            c.phase_begin("m");
            c.compute(
                0,
                &OpCounts {
                    flops: 500,
                    ..OpCounts::default()
                },
            );
            let ready = c.send_reliable(0, 1, 256);
            c.wait_flag(1, ready);
            c.read_external(2, ext(0), 512);
            c.write_external(3, ext(4096), 512);
            let done = c.dma_start(4, DmaDirection::ExternalToLocal, ext(8192), 2, 4096);
            c.dma_wait(4, done);
            c.barrier(&[0, 1, 2, 3, 4]);
            c.phase_end();
            let r = c.report("x", 5);
            (
                r.elapsed.cycles,
                r.counters.get("mesh_byte_hops"),
                r.energy.total_j().to_bits(),
                r.faults,
            )
        };
        let plain = run(None);
        let armed_but_empty = run(Some(FaultState::from_plan(&FaultPlan::empty(7))));
        assert_eq!(plain, armed_but_empty, "empty plan must not perturb runs");
        assert_eq!(plain.3, desim::FaultRecord::default());
    }

    /// Every observable the report layer reads must agree between two
    /// chips: cursors, busy cycles, counters, SDRAM behaviour, fabric
    /// statistics and energy (bit-exact — it is priced off the rest).
    fn assert_chips_agree(a: &Chip, b: &Chip, what: &str) {
        assert_eq!(a.now(0), b.now(0), "{what}: cursor");
        assert_eq!(a.busy(0), b.busy(0), "{what}: busy");
        let (ca, cb) = (a.counters(0), b.counters(0));
        assert!(ca.iter().eq(cb.iter()), "{what}: counters");
        assert_eq!(a.sdram().accesses(), b.sdram().accesses(), "{what}: sdram");
        assert_eq!(
            a.sdram().row_hit_rate().to_bits(),
            b.sdram().row_hit_rate().to_bits(),
            "{what}: row hits"
        );
        let (fa, fb) = (a.fabric(), b.fabric());
        assert_eq!(fa.elink.free_at(), fb.elink.free_at(), "{what}: elink");
        assert_eq!(fa.elink.busy_cycles(), fb.elink.busy_cycles(), "{what}");
        assert_eq!(fa.elink.served(), fb.elink.served(), "{what}");
        assert_eq!(fa.total_link_busy(), fb.total_link_busy(), "{what}");
        for (ma, mb) in [
            (&fa.rmesh, &fb.rmesh),
            (&fa.cmesh, &fb.cmesh),
            (&fa.xmesh, &fb.xmesh),
        ] {
            assert_eq!(ma.transfers(), mb.transfers(), "{what}: transfers");
            assert_eq!(ma.byte_hops(), mb.byte_hops(), "{what}: byte hops");
            assert_eq!(ma.link_busy_vec(), mb.link_busy_vec(), "{what}: links");
            let (ha, hb) = (ma.latency(), mb.latency());
            assert_eq!(
                (ha.count(), ha.min(), ha.max(), ha.quantile(0.5)),
                (hb.count(), hb.min(), hb.max(), hb.quantile(0.5)),
                "{what}: latency histogram"
            );
        }
        assert_eq!(
            a.energy().total_j().to_bits(),
            b.energy().total_j().to_bits(),
            "{what}: energy"
        );
    }

    #[test]
    fn read_external_run_matches_per_read_loop() {
        // Addresses mixing open-row hits and misses across banks, so
        // per-read SDRAM latencies genuinely vary within the span.
        let addrs: Vec<GlobalAddr> = (0..300u32).map(|i| ext(i * 8 + (i % 5) * 4096)).collect();
        let makes: [fn() -> Chip; 2] = [chip, || Chip::new(EpiphanyParams::e64(), 4, 4)];
        for make in makes {
            let (mut a, mut b) = (make(), make());
            // A posted write first: the eLink is still draining when
            // the span starts, so its first reads take the eLink one by
            // one and the rest absorb once they reach it after the
            // write-back — the shape of FFBP's write-back-then-read
            // rows.
            a.write_external(0, ext(1 << 20), 512);
            b.write_external(0, ext(1 << 20), 512);
            for &addr in &addrs {
                a.read_external(0, addr, 8);
            }
            b.read_external_run(0, &addrs, 8);
            assert_chips_agree(&a, &b, "after hybrid span");
            // Follow-on traffic lands identically: frontiers, idle-gap
            // rings and SDRAM open rows all survived the absorption.
            let ra = a.read_external(0, ext(64), 64);
            let rb = b.read_external(0, ext(64), 64);
            assert_eq!(ra, rb, "follow-on read");
        }
    }

    /// Off-chip traffic from the chip's last two cores: 90 DMA rows of
    /// 2 KB each per core. It carries the eLink frontier about 100 k
    /// cycles out and leaves idle gaps between and inside the rows.
    fn crowd_elink(c: &mut Chip) {
        let last = c.cores() - 1;
        for (w, core) in [last, last - 1].into_iter().enumerate() {
            for row in 0..90u32 {
                let addr = ext((1 << 22) + (row + 90 * w as u32) * 4096);
                c.dma_start(core, DmaDirection::ExternalToLocal, addr, 3, 2048);
            }
        }
    }

    #[test]
    fn read_external_run_behind_a_busy_elink_matches_per_read_loop() {
        // Core 0 starts at cycle 0 with the eLink frontier far ahead:
        // its first reads backfill the gaps the other cores left (some
        // fit where they arrive, some wait out a busy row), the rest
        // run once the span has caught up with the frontier.
        let addrs: Vec<GlobalAddr> = (0..300u32).map(|i| ext(i * 8 + (i % 5) * 4096)).collect();
        let makes: [fn() -> Chip; 2] = [chip, || Chip::from_params(EpiphanyParams::e64())];
        for make in makes {
            let (mut a, mut b) = (make(), make());
            crowd_elink(&mut a);
            crowd_elink(&mut b);
            let frontier = a.fabric().elink.free_at();
            assert!(
                (Cycle(90_000)..Cycle(120_000)).contains(&frontier),
                "frontier {frontier:?}"
            );
            for &addr in &addrs {
                a.read_external(0, addr, 8);
            }
            b.read_external_run(0, &addrs, 8);
            assert!(a.now(0) > frontier, "the span catches up");
            assert_chips_agree(&a, &b, "span behind a busy eLink");
            // A core still at cycle 0 reads next: it backfills the
            // eLink's remembered gaps identically on both chips.
            let ra = a.read_external(1, ext(64), 64);
            let rb = b.read_external(1, ext(64), 64);
            assert_eq!(ra, rb, "follow-on read");
        }
    }

    /// XY hop count between two cores' routers, or a core and the
    /// eLink node.
    fn hops(c: &Chip, from: NodeId, to: NodeId) -> u64 {
        let m = c.fabric().mesh();
        let (a, b) = (m.coord(from), m.coord(to));
        u64::from(a.x.abs_diff(b.x) + a.y.abs_diff(b.y))
    }

    #[test]
    fn calibration_offchip_read_latency_against_hops_and_readers() {
        // Varghese et al. time blocking off-chip reads on an idle chip
        // and with several cores reading at once. Every expected value
        // below is the params' arithmetic: a local delivery costs one
        // hop, the rMesh carries one transaction per cycle, and the
        // eLink and cMesh carry their bytes per cycle.
        for p in [EpiphanyParams::default(), EpiphanyParams::e64()] {
            let e = p.emesh;
            let leg = |hops: u64| hops.max(1) * e.hop_latency;
            let elink = |bytes: u64| bytes.div_ceil(e.elink_bytes_per_cycle);
            let cmesh = |bytes: u64| bytes.div_ceil(e.link_bytes_per_cycle);
            // Issue, request to the eLink, its request slot and the
            // SDRAM row miss: when the reply is ready to leave.
            let ready = |hops: u64| {
                p.read_issue_cycles + leg(hops) + 1 + elink(8) + p.sdram.row_miss_cycles
            };
            // Idle chip: latency against hop count, one core at a time.
            for core in 0..p.cores() {
                let mut c = Chip::from_params(p);
                let h = hops(&c, c.node(core), c.fabric().elink_node());
                let arrival = c.read_external(core, ext(0), 8);
                let expect = ready(h) + elink(16) + leg(h) + cmesh(16);
                assert_eq!(arrival, Cycle(expect), "core {core}, {h} hops");
            }
            // N cores each issue one 256-byte read at cycle 0, nearest
            // to the eLink first, each on its own SDRAM row. Their
            // replies queue on the eLink: the k-th read served leaves
            // it k reply holds after the first.
            let bytes = 256u64;
            for n in [2usize, 4, 16] {
                let mut c = Chip::from_params(p);
                let port = c.fabric().elink_node();
                let mut cores: Vec<CoreId> = (0..p.cores()).collect();
                cores.sort_by_key(|&k| (hops(&c, c.node(k), port), k));
                let first = ready(hops(&c, c.node(cores[0]), port)) + elink(bytes + 8);
                for (k, &core) in cores[..n].iter().enumerate() {
                    let h = hops(&c, c.node(core), port);
                    let row = ext(k as u32 * p.sdram.row_bytes);
                    let arrival = c.read_external(core, row, bytes);
                    let expect = first + k as u64 * elink(bytes + 8) + leg(h) + cmesh(bytes + 8);
                    assert_eq!(arrival, Cycle(expect), "N = {n}, read {k} (core {core})");
                }
            }
        }
    }

    #[test]
    fn calibration_dma_setup_and_rate_against_size() {
        // One external-to-local descriptor per size, 8 B to 8 KB, on
        // an idle chip. The core pays the descriptor setup alone; the
        // transfer takes the off-chip read of the whole block, which
        // crosses the eLink, then the cMesh, then lands in the bank,
        // one after the other. Large blocks therefore move at one byte
        // per `1/elink + 1/link + 1/port` cycles.
        let p = EpiphanyParams::default();
        let e = p.emesh;
        let elink = |bytes: u64| bytes.div_ceil(e.elink_bytes_per_cycle);
        let cmesh = |bytes: u64| bytes.div_ceil(e.link_bytes_per_cycle);
        let bank = |bytes: u64| bytes.div_ceil(p.sram.port_bytes_per_cycle);
        let core = 0;
        let mut took = Vec::new();
        for bytes in (3..=13).map(|k| 1u64 << k) {
            let mut c = chip();
            let h = hops(&c, c.node(core), c.fabric().elink_node());
            let done = c.dma_start(core, DmaDirection::ExternalToLocal, ext(0), 1, bytes);
            assert_eq!(c.now(core), Cycle(p.dma_setup_cycles), "{bytes} B: setup");
            let expect = p.dma_setup_cycles
                + h.max(1) * e.hop_latency
                + 1
                + elink(8)
                + p.sdram.row_miss_cycles
                + elink(bytes + 8)
                + h.max(1) * e.hop_latency
                + cmesh(bytes + 8)
                + bank(bytes);
            assert_eq!(done, Cycle(expect), "{bytes} B");
            took.push(done.raw() - p.dma_setup_cycles);
        }
        // Bytes per cycle rise with size towards the serial rate.
        let rate = |k: usize| (8u64 << k) as f64 / took[k] as f64;
        assert!((1..took.len()).all(|k| rate(k) > rate(k - 1)));
        let per_byte = 1.0 / e.elink_bytes_per_cycle as f64
            + 1.0 / e.link_bytes_per_cycle as f64
            + 1.0 / p.sram.port_bytes_per_cycle as f64;
        let marginal = 4096.0 / (took[10] - took[9]) as f64;
        assert_eq!(marginal, 1.0 / per_byte, "8 KB over 4 KB");
    }

    #[test]
    fn calibration_onchip_write_latency_against_hops() {
        // A posted 8-byte write from core 0 to every core: the sender
        // pays one issue cycle per double word, and the payload with
        // its 8-byte header lands one hop latency per hop (one for a
        // local delivery) plus its cMesh serialisation later.
        for p in [EpiphanyParams::default(), EpiphanyParams::e64()] {
            let e = p.emesh;
            for dst in 0..p.cores() {
                let mut c = Chip::from_params(p);
                let h = hops(&c, c.node(0), c.node(dst));
                let landed = c.write_remote(0, dst, 8);
                let issue = p.write_issue_cycles_per_dword;
                assert_eq!(c.now(0), Cycle(issue), "posted: the sender only issues");
                let expect =
                    issue + h.max(1) * e.hop_latency + 16u64.div_ceil(e.link_bytes_per_cycle);
                assert_eq!(landed, Cycle(expect), "core 0 to {dst}, {h} hops");
            }
        }
    }

    #[test]
    fn read_external_run_from_quiescent_start_absorbs_whole_span() {
        let addrs: Vec<GlobalAddr> = (0..64u32).map(|i| ext(i * 8)).collect();
        let (mut a, mut b) = (chip(), chip());
        for &addr in &addrs {
            a.read_external(5, addr, 8);
        }
        b.read_external_run(5, &addrs, 8);
        assert_eq!(a.now(5), b.now(5));
        assert_eq!(a.counters(5).get("ext_read"), 64);
        assert_eq!(b.counters(5).get("ext_read"), 64);
        assert_eq!(
            a.fabric().elink.busy_cycles(),
            b.fabric().elink.busy_cycles()
        );
    }

    #[test]
    fn read_external_run_with_tracer_falls_back_and_keeps_spans() {
        let addrs: Vec<GlobalAddr> = (0..10u32).map(|i| ext(i * 8)).collect();
        let tracer = Tracer::enabled();
        let mut traced = chip();
        traced.set_tracer(tracer.clone());
        traced.read_external_run(0, &addrs, 8);
        let mut plain = chip();
        plain.read_external_run(0, &addrs, 8);
        // Fallback lands the cursor exactly where the closed form does
        // and keeps one rd_ext span per read on the core track.
        assert_eq!(traced.now(0), plain.now(0));
        let spans = tracer
            .snapshot()
            .iter()
            .filter(|e| e.track == Track::Core(0) && e.name == "rd_ext")
            .count();
        assert_eq!(spans, 10);
    }

    #[test]
    fn read_external_run_with_pending_faults_falls_back() {
        use faultsim::{FaultEvent, FaultPlan};
        let addrs: Vec<GlobalAddr> = (0..10u32).map(|i| ext(i * 8)).collect();
        let plan = FaultPlan::from_events(
            0,
            vec![FaultEvent::ElinkDegrade {
                at: Cycle(0),
                extra: 5_000,
            }],
        );
        let (mut a, mut b) = (chip(), chip());
        a.set_faults(FaultState::from_plan(&plan));
        b.set_faults(FaultState::from_plan(&plan));
        for &addr in &addrs {
            a.read_external(0, addr, 8);
        }
        b.read_external_run(0, &addrs, 8);
        // Both sides take the degradation hit identically; once the
        // schedule drained the run may absorb, which must not change
        // any observable either.
        assert_chips_agree(&a, &b, "faulted span");
        assert!(a.now(0) > Cycle(5_000), "the degrade window was taken");
    }
}
