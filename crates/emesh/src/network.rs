//! The three-mesh eMesh fabric with contention and per-hop latency.

use desim::record::LinkLoad;
use desim::stats::Histogram;
use desim::trace::{direction_letter, MeshKind, Tracer, Track};
use desim::{Cycle, FifoResource, Reservation};
use faultsim::FaultState;

use crate::routing::{link_at, link_count, Direction, RouteIter};
use crate::topology::{Mesh2D, NodeId};

/// How a link serialises traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// `n` bytes per cycle (cMesh/xMesh data links).
    BytesPerCycle(u64),
    /// One transaction per cycle regardless of size (rMesh request wires).
    TransactionPerCycle,
}

/// Outcome of pushing one transaction through a mesh.
#[derive(Debug, Clone, Copy)]
pub struct TransferResult {
    /// Cycle the full payload has arrived at the destination router.
    pub arrival: Cycle,
    /// Router-to-router hops traversed.
    pub hops: u32,
    /// Total queueing delay accumulated across links.
    pub queued: Cycle,
}

/// Aggregate transfer statistics for one mesh.
#[derive(Debug, Default)]
struct MeshStats {
    transfers: u64,
    bytes: u64,
    byte_hops: u64,
    latency: Histogram,
}

/// One physical mesh: a grid of routers with four directed output links
/// each, modelled as FIFO servers, wormhole-pipelined with a single
/// cycle of routing latency per hop.
///
/// Links live in the flat link table ([`crate::routing::link_index`]),
/// and every transfer walks its XY route with [`RouteIter`], whose hops
/// carry their link index — no route allocation.
pub struct MeshNetwork {
    mesh: Mesh2D,
    kind: MeshKind,
    mode: LinkMode,
    hop_latency: u64,
    /// The link FIFOs, by link index.
    links: Vec<FifoResource>,
    /// Wire bytes carried, by link index.
    link_bytes: Vec<u64>,
    stats: MeshStats,
    tracer: Tracer,
    faults: FaultState,
}

impl MeshNetwork {
    /// Build the `kind` mesh where every link follows `mode` and each
    /// hop costs `hop_latency` cycles of routing delay.
    pub fn new(mesh: Mesh2D, kind: MeshKind, mode: LinkMode, hop_latency: u64) -> MeshNetwork {
        let make = || match mode {
            LinkMode::BytesPerCycle(b) => FifoResource::per_units(1, b),
            LinkMode::TransactionPerCycle => FifoResource::per_units(1, 1),
        };
        let links = (0..link_count(&mesh)).map(|_| make()).collect();
        MeshNetwork {
            mesh,
            kind,
            mode,
            hop_latency,
            links,
            link_bytes: vec![0; link_count(&mesh)],
            stats: MeshStats::default(),
            tracer: Tracer::disabled(),
            faults: FaultState::disabled(),
        }
    }

    /// Which of the three meshes this is.
    pub fn kind(&self) -> MeshKind {
        self.kind
    }

    /// Attach a tracer; every subsequent link reservation emits a span
    /// on its [`Track::MeshLink`] track.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach fault state; armed stall events perturb subsequent
    /// transfers (exactly one transfer per event).
    pub fn set_faults(&mut self, faults: FaultState) {
        self.faults = faults;
    }

    fn units_for(&self, wire_bytes: u64) -> u64 {
        match self.mode {
            LinkMode::BytesPerCycle(_) => wire_bytes,
            LinkMode::TransactionPerCycle => 1,
        }
    }

    /// Whether a tracer is attached (fast-forward executors fall back
    /// to per-event transfers so the timeline stays complete).
    pub fn is_traced(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The trace track of the link leaving `node` toward `dir`.
    fn track(&self, node: NodeId, dir: Direction) -> Track {
        Track::MeshLink {
            mesh: self.kind,
            node: u32::from(node.0),
            dir: dir.index() as u8,
        }
    }

    /// Tail serialization interval for `wire_bytes` under this mesh's
    /// link mode.
    fn serialization(&self, wire_bytes: u64) -> Cycle {
        match self.mode {
            LinkMode::BytesPerCycle(b) => Cycle(wire_bytes.max(1).div_ceil(b)),
            LinkMode::TransactionPerCycle => Cycle(1),
        }
    }

    /// End-to-end latency of an uncontended `src -> dst` transfer of
    /// `wire_bytes`: pure geometry and rates, the constant every
    /// transfer in an absorbed span observes.
    pub fn uncontended_latency(&self, src: NodeId, dst: NodeId, wire_bytes: u64) -> Cycle {
        let hops = u64::from(self.mesh.coord(src).manhattan(self.mesh.coord(dst)));
        Cycle(hops.max(1) * self.hop_latency) + self.serialization(wire_bytes)
    }

    /// True when every link on the XY route `src -> dst` is idle at
    /// `at` (frontier at or before `at`) — the conservative
    /// quiescence pre-check for [`MeshNetwork::transfer_run`], taken
    /// at the span's first issue time (later hops and later transfers
    /// only ever run later).
    pub fn quiet_route(&self, src: NodeId, dst: NodeId, at: Cycle) -> bool {
        RouteIter::new(&self.mesh, src, dst).all(|hop| self.links[hop.link()].free_at() <= at)
    }

    /// Absorb a span of `n` identical transfers `src -> dst` of
    /// `wire_bytes`, the `i`-th issued at `start_of(i)`, in closed
    /// form. Preconditions — the caller gates on them, debug builds
    /// assert them:
    ///
    /// * every traversed link is idle when the span begins
    ///   ([`MeshNetwork::quiet_route`] at `start_of(0)`),
    /// * issue times are spaced further apart than the link hold (true
    ///   for blocking reads, whose spacing is a full round trip),
    /// * no tracer is attached and no fault events are pending.
    ///
    /// Then every transfer is uncontended, its latency is the
    /// geometric constant of [`MeshNetwork::uncontended_latency`], and
    /// the per-link reservations absorb via
    /// [`FifoResource::absorb_run`] — the final state (link frontiers,
    /// busy cycles, idle-gap rings, wire bytes, statistics) is
    /// byte-identical to `n` [`MeshNetwork::transfer`] calls at `O(1)`
    /// per link instead of `O(n)`.
    pub fn transfer_run(
        &mut self,
        n: u64,
        src: NodeId,
        dst: NodeId,
        wire_bytes: u64,
        start_of: impl Fn(u64) -> Cycle,
    ) -> Cycle {
        debug_assert!(!self.tracer.is_enabled(), "transfer_run skips tracer spans");
        debug_assert!(self.quiet_route(src, dst, start_of(0)));
        let units = self.units_for(wire_bytes);
        let hold = self
            .links
            .first()
            .expect("mesh has links")
            .service_cycles(units);
        let route = RouteIter::new(&self.mesh, src, dst);
        let hops = route.len() as u64;
        for (h, hop) in (0u64..).zip(route) {
            // The header reaches hop `h` one hop latency after the
            // previous one, exactly as the per-event walk advances.
            let offset = Cycle(h * self.hop_latency);
            let link = hop.link();
            self.links[link].absorb_run(n, Cycle(hold.raw() * n), |i| (start_of(i) + offset, hold));
            self.link_bytes[link] += wire_bytes * n;
        }
        let latency = self.uncontended_latency(src, dst, wire_bytes);
        self.stats.transfers += n;
        self.stats.bytes += wire_bytes * n;
        self.stats.byte_hops += wire_bytes * hops * n;
        self.stats.latency.record_n(latency.raw(), n);
        latency
    }

    /// Send `wire_bytes` from `src` to `dst` starting at `at`.
    ///
    /// The header advances one hop per `hop_latency` cycles, reserving
    /// each traversed link FIFO for the message's serialization time;
    /// the tail arrives one serialization interval after the header.
    /// `src == dst` models a local (router-bypass) delivery costing one
    /// hop latency.
    pub fn transfer(
        &mut self,
        at: Cycle,
        src: NodeId,
        dst: NodeId,
        wire_bytes: u64,
    ) -> TransferResult {
        let units = self.units_for(wire_bytes);
        let hop_latency = Cycle(self.hop_latency);

        let route = RouteIter::new(&self.mesh, src, dst);
        let hops = route.len();
        let mut t = at;
        let mut queued = Cycle::ZERO;
        // Last traversed link, for fault-stall attribution (a local
        // delivery stalls at the source router).
        let mut last = (src, Direction::West);
        for hop in route {
            let link = hop.link();
            let r = self.links[link].request(t, units);
            self.link_bytes[link] += wire_bytes;
            if self.tracer.is_enabled() {
                self.tracer
                    .span(self.track(hop.node, hop.dir), "xfer", r.start, r.end);
            }
            queued += r.wait(t);
            t = r.start + hop_latency;
            last = (hop.node, hop.dir);
        }

        // Tail of the message: serialization of the payload behind the
        // header. For a zero-hop (local) transfer charge one hop of
        // latency plus serialization at the local port rate.
        let serialization = self.serialization(wire_bytes);
        let mut arrival = if hops == 0 {
            at + hop_latency + serialization
        } else {
            t + serialization
        };
        if self.faults.is_enabled() {
            if let Some(extra) = self.faults.mesh_stall(self.kind, at) {
                // A stall window holds the message at its last
                // traversed link.
                arrival += Cycle(extra);
                let (node, dir) = last;
                self.tracer
                    .instant(self.track(node, dir), "fault:mesh_stall", arrival);
            }
        }
        self.stats.transfers += 1;
        self.stats.bytes += wire_bytes;
        self.stats.byte_hops += wire_bytes * hops as u64;
        self.stats.latency.record((arrival - at).raw());
        TransferResult {
            arrival,
            hops: hops as u32,
            queued,
        }
    }

    /// Total transactions carried.
    pub fn transfers(&self) -> u64 {
        self.stats.transfers
    }

    /// Total wire bytes carried.
    pub fn bytes(&self) -> u64 {
        self.stats.bytes
    }

    /// Sum over transfers of `wire_bytes * hops` — the fabric activity
    /// figure the energy model charges per byte-hop.
    pub fn byte_hops(&self) -> u64 {
        self.stats.byte_hops
    }

    /// End-to-end latency histogram (cycles).
    pub fn latency(&self) -> &Histogram {
        &self.stats.latency
    }

    /// Busiest link's busy-cycle count — the congestion hot spot.
    pub fn max_link_busy(&self) -> Cycle {
        self.links
            .iter()
            .map(desim::FifoResource::busy_cycles)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    /// Busy cycles summed over every directed link.
    pub fn total_link_busy(&self) -> Cycle {
        self.links
            .iter()
            .map(desim::FifoResource::busy_cycles)
            .fold(Cycle::ZERO, |a, b| a + b)
    }

    /// Per-link busy cycles, by link index — cheap to snapshot at phase
    /// boundaries.
    pub fn link_busy_vec(&self) -> Vec<Cycle> {
        self.links
            .iter()
            .map(desim::FifoResource::busy_cycles)
            .collect()
    }

    /// Load summary of every link that carried traffic, in
    /// `(node, dir)` order. `makespan` scales busy cycles into a busy
    /// fraction (clamped to 1: reservations can extend past the last
    /// core cursor).
    pub fn link_stats(&self, makespan: Cycle) -> Vec<LinkLoad> {
        let mut out = Vec::new();
        for (i, link) in self.links.iter().enumerate() {
            let byte_hops = self.link_bytes[i];
            let busy = link.busy_cycles();
            if byte_hops == 0 && busy == Cycle::ZERO {
                continue;
            }
            let busy_fraction = if makespan == Cycle::ZERO {
                0.0
            } else {
                (busy.raw() as f64 / makespan.raw() as f64).min(1.0)
            };
            let (node, dir) = link_at(i);
            out.push(LinkLoad {
                mesh: self.kind.label().to_string(),
                node: u32::from(node.0),
                dir: direction_letter(dir.index() as u8).to_string(),
                byte_hops,
                busy_cycles: busy.raw(),
                busy_fraction,
            });
        }
        out
    }
}

/// Datasheet-derived fabric parameters.
#[derive(Debug, Clone, Copy)]
pub struct EMeshParams {
    /// cMesh/xMesh link width in bytes per cycle (E16G3: 8 — a double
    /// word per cycle per link).
    pub link_bytes_per_cycle: u64,
    /// Routing latency per node (E16G3: single-cycle wait per node).
    pub hop_latency: u64,
    /// Off-chip eLink bandwidth in bytes per cycle at core clock
    /// (E16G3: 8 GB/s total at 1 GHz = 8 B/cycle).
    pub elink_bytes_per_cycle: u64,
}

impl Default for EMeshParams {
    fn default() -> Self {
        EMeshParams {
            link_bytes_per_cycle: 8,
            hop_latency: 1,
            elink_bytes_per_cycle: 8,
        }
    }
}

/// Constant timing components of an uncontended off-chip read from a
/// fixed source (see [`EMesh::offchip_read_path`]): the per-mesh
/// latencies depend only on geometry and rates, the eLink holds only
/// on sizes, so a span of back-to-back reads differs read to read
/// only in its SDRAM access time.
#[derive(Debug, Clone, Copy)]
pub struct OffchipReadPath {
    /// rMesh request latency: issue to arrival at the eLink node.
    pub request: Cycle,
    /// eLink hold for the 8-byte read request.
    pub out_hold: Cycle,
    /// eLink hold for the `bytes + 8` reply payload.
    pub back_hold: Cycle,
    /// cMesh reply latency: eLink release to data back at the reader.
    pub reply: Cycle,
}

impl OffchipReadPath {
    /// End-to-end latency of one read given its SDRAM access time —
    /// the closed form of [`EMesh::read_offchip`]'s arrival delta on
    /// an uncontended fabric.
    pub fn latency(&self, memory_cycles: Cycle) -> Cycle {
        self.request + self.out_hold + memory_cycles + self.back_hold + self.reply
    }
}

/// True when fault state cannot perturb timing: disabled outright, or
/// armed with no events left to fire (probing an empty schedule does
/// not mutate it, so skipping the probes is invisible).
fn fault_free(faults: &FaultState) -> bool {
    !faults.is_enabled() || faults.pending() == 0
}

/// The full eMesh: three physical meshes plus the off-chip eLink port.
///
/// * on-chip writes ride the cMesh and are *posted* — the sender
///   continues immediately (this is the "write without stalling"
///   behaviour the paper exploits in FFBP),
/// * reads issue a request on the rMesh and stall the requester until
///   the reply write returns over the cMesh,
/// * off-chip traffic crosses the xMesh to the eLink node and then
///   serialises through the much narrower eLink.
///
/// The named fields pick a mesh by role; everything that covers the
/// whole fabric (tracer and fault attachment, link statistics and
/// busy-cycle tables, the byte-hop and transfer totals) walks
/// [`EMesh::meshes`], in [`MeshKind::ALL`] order.
pub struct EMesh {
    mesh: Mesh2D,
    /// On-chip write mesh.
    pub cmesh: MeshNetwork,
    /// Read-request mesh.
    pub rmesh: MeshNetwork,
    /// Off-chip mesh.
    pub xmesh: MeshNetwork,
    /// The shared off-chip link (both directions contend).
    pub elink: FifoResource,
    elink_node: NodeId,
    tracer: Tracer,
    faults: FaultState,
}

impl EMesh {
    /// Build the fabric for `mesh` with `params`.
    pub fn new(mesh: Mesh2D, params: EMeshParams) -> EMesh {
        let [cmesh, rmesh, xmesh] = MeshKind::ALL.map(|kind| {
            let mode = match kind {
                MeshKind::RMesh => LinkMode::TransactionPerCycle,
                _ => LinkMode::BytesPerCycle(params.link_bytes_per_cycle),
            };
            MeshNetwork::new(mesh, kind, mode, params.hop_latency)
        });
        EMesh {
            mesh,
            cmesh,
            rmesh,
            xmesh,
            elink: FifoResource::per_units(1, params.elink_bytes_per_cycle),
            elink_node: mesh.elink_node(),
            tracer: Tracer::disabled(),
            faults: FaultState::disabled(),
        }
    }

    /// Attach a tracer to the fabric: all three meshes emit per-link
    /// spans and the eLink emits occupancy spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for m in self.meshes_mut() {
            m.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Attach fault state to the fabric: the three meshes take stall
    /// events, the eLink takes degradation windows.
    pub fn set_faults(&mut self, faults: FaultState) {
        for m in self.meshes_mut() {
            m.set_faults(faults.clone());
        }
        self.faults = faults;
    }

    /// The three meshes, in [`MeshKind::ALL`] order.
    pub fn meshes(&self) -> [&MeshNetwork; 3] {
        [&self.cmesh, &self.rmesh, &self.xmesh]
    }

    fn meshes_mut(&mut self) -> [&mut MeshNetwork; 3] {
        [&mut self.cmesh, &mut self.rmesh, &mut self.xmesh]
    }

    /// Extra start delay for an eLink operation at `at` when a
    /// degradation window has armed (link retraining: the port is
    /// unavailable for the window).
    fn elink_fault_delay(&mut self, at: Cycle) -> Cycle {
        match self.faults.elink_degrade(at) {
            Some(extra) => {
                self.tracer.instant(Track::ELink, "fault:elink_degrade", at);
                Cycle(extra)
            }
            None => Cycle::ZERO,
        }
    }

    /// Load summary of every loaded link across all three meshes.
    pub fn link_stats(&self, makespan: Cycle) -> Vec<LinkLoad> {
        let meshes = self.meshes().into_iter();
        meshes.flat_map(|m| m.link_stats(makespan)).collect()
    }

    /// Per-link busy cycles of the whole fabric, laid out by
    /// [`crate::routing::fabric_link_index`].
    pub fn link_busy_vec(&self) -> Vec<Cycle> {
        let mut out = Vec::with_capacity(MeshKind::ALL.len() * link_count(&self.mesh));
        for m in self.meshes() {
            out.extend(m.links.iter().map(FifoResource::busy_cycles));
        }
        out
    }

    /// Busy cycles summed over every directed link of all meshes.
    pub fn total_link_busy(&self) -> Cycle {
        let busy = self.meshes().map(MeshNetwork::total_link_busy);
        busy.into_iter().fold(Cycle::ZERO, |a, b| a + b)
    }

    /// Transactions carried, all meshes.
    pub fn total_transfers(&self) -> u64 {
        self.meshes().map(MeshNetwork::transfers).iter().sum()
    }

    /// Cycles the off-chip eLink has been reserved — one of the
    /// component busy times the power sampler snapshots at phase
    /// boundaries.
    pub fn elink_busy_cycles(&self) -> Cycle {
        self.elink.busy_cycles()
    }

    /// Byte-hops summed across all three meshes.
    pub fn total_byte_hops(&self) -> u64 {
        self.meshes().map(MeshNetwork::byte_hops).iter().sum()
    }

    /// The topology this fabric spans.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Node hosting the off-chip eLink.
    pub fn elink_node(&self) -> NodeId {
        self.elink_node
    }

    /// Posted write of `bytes` payload from `src` into `dst`'s memory.
    /// Returns the delivery completion time; the *sender* does not wait.
    pub fn write_onchip(
        &mut self,
        at: Cycle,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> TransferResult {
        self.cmesh.transfer(at, src, dst, bytes + 8)
    }

    /// Blocking read of `bytes` from `dst`'s memory by `src`. Returns the
    /// time the data is back at `src` (request on rMesh, reply on cMesh).
    pub fn read_onchip(
        &mut self,
        at: Cycle,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> TransferResult {
        let req = self.rmesh.transfer(at, src, dst, 8);
        let rep = self.cmesh.transfer(req.arrival, dst, src, bytes + 8);
        TransferResult {
            arrival: rep.arrival,
            hops: req.hops + rep.hops,
            queued: req.queued + rep.queued,
        }
    }

    /// Posted write of `bytes` from `src` to off-chip memory: xMesh to
    /// the eLink node, then serialization through the eLink. Returns the
    /// time the payload has left the chip.
    pub fn write_offchip(&mut self, at: Cycle, src: NodeId, bytes: u64) -> TransferResult {
        let to_edge = self.xmesh.transfer(at, src, self.elink_node, bytes + 8);
        let delay = self.elink_fault_delay(to_edge.arrival);
        let r = self.elink.request(to_edge.arrival + delay, bytes + 8);
        self.tracer.span(Track::ELink, "wr_out", r.start, r.end);
        TransferResult {
            arrival: r.end,
            hops: to_edge.hops,
            queued: to_edge.queued + r.wait(to_edge.arrival),
        }
    }

    /// Blocking read of `bytes` from off-chip memory by `src`.
    /// `memory_cycles` is the SDRAM access time supplied by the memory
    /// model. Returns the time the data is back at `src`: request over
    /// rMesh to the edge, eLink request slot, SDRAM access, reply data
    /// serialised through the eLink and routed back over the cMesh.
    pub fn read_offchip(
        &mut self,
        at: Cycle,
        src: NodeId,
        bytes: u64,
        memory_cycles: Cycle,
    ) -> TransferResult {
        let req = self.rmesh.transfer(at, src, self.elink_node, 8);
        let delay = self.elink_fault_delay(req.arrival);
        let [out, back] = self.elink_read(req.arrival + delay, bytes, memory_cycles);
        let data_ready = out.end + memory_cycles;
        self.tracer.span(Track::ELink, "rd_req", out.start, out.end);
        self.tracer
            .span(Track::ELink, "rd_data", back.start, back.end);
        let rep = self
            .cmesh
            .transfer(back.end, self.elink_node, src, bytes + 8);
        TransferResult {
            arrival: rep.arrival,
            hops: req.hops + rep.hops,
            queued: req.queued + rep.queued + out.wait(req.arrival) + back.wait(data_ready),
        }
    }

    /// The eLink leg of [`EMesh::read_offchip`] for a request reaching
    /// the eLink at `at`: the request slot, then the reply
    /// `memory_cycles` after it. A request behind the frontier
    /// backfills a remembered idle gap ([`FifoResource::request`]).
    pub fn elink_read(&mut self, at: Cycle, bytes: u64, memory_cycles: Cycle) -> [Reservation; 2] {
        let out = self.elink.request(at, 8);
        [out, self.elink.request(out.end + memory_cycles, bytes + 8)]
    }

    /// The constant timing components of [`EMesh::read_offchip`] for
    /// `bytes`-sized reads from `src` on an uncontended fabric.
    pub fn offchip_read_path(&self, src: NodeId, bytes: u64) -> OffchipReadPath {
        OffchipReadPath {
            request: self.rmesh.uncontended_latency(src, self.elink_node, 8),
            out_hold: self.elink.service_cycles(8),
            back_hold: self.elink.service_cycles(bytes + 8),
            reply: self
                .cmesh
                .uncontended_latency(self.elink_node, src, bytes + 8),
        }
    }

    /// True when a span of back-to-back off-chip reads from `src`
    /// first issued at `t0` can be absorbed in closed form: its mesh
    /// legs can and the eLink is idle at `t0`.
    pub fn can_absorb_offchip_reads(&self, src: NodeId, t0: Cycle) -> bool {
        self.elink.free_at() <= t0 && self.can_absorb_offchip_read_legs(src, t0)
    }

    /// True when the mesh legs of a span of back-to-back off-chip reads
    /// from `src` first issued at `t0` can be absorbed in closed form:
    /// no tracer on the path (spans would go missing), no pending fault
    /// events (they would perturb timing), and the rMesh route to the
    /// eLink and the cMesh route back both idle at `t0`. A false here
    /// only costs a per-event fallback, never correctness.
    pub fn can_absorb_offchip_read_legs(&self, src: NodeId, t0: Cycle) -> bool {
        !self.tracer.is_enabled()
            && !self.rmesh.is_traced()
            && !self.cmesh.is_traced()
            && fault_free(&self.faults)
            && fault_free(&self.rmesh.faults)
            && fault_free(&self.cmesh.faults)
            && self.rmesh.quiet_route(src, self.elink_node, t0)
            && self.cmesh.quiet_route(self.elink_node, src, t0)
    }

    /// Absorb the rMesh and cMesh legs of off-chip reads from `src`:
    /// the `i`-th issued at `t[i]`, its reply leaving the eLink at
    /// `released(i)` — by [`EMesh::absorb_offchip_reads`]'s closed form,
    /// or after reservations taken one by one ([`EMesh::elink_read`]).
    pub fn absorb_offchip_read_legs(
        &mut self,
        src: NodeId,
        bytes: u64,
        t: &[Cycle],
        released: impl Fn(usize) -> Cycle,
    ) {
        if let n @ 1.. = t.len() as u64 {
            let port = self.elink_node;
            self.rmesh.transfer_run(n, src, port, 8, |i| t[i as usize]);
            self.cmesh
                .transfer_run(n, port, src, bytes + 8, |i| released(i as usize));
        }
    }

    /// Absorb `n` back-to-back off-chip reads from `src` whose issue
    /// times `t[i]` and SDRAM access times `mem[i]` the caller already
    /// laid out arithmetically with [`EMesh::offchip_read_path`].
    /// Byte-identical in final fabric state to `n`
    /// [`EMesh::read_offchip`] calls, under the
    /// [`EMesh::can_absorb_offchip_reads`] precondition: request
    /// headers absorb into the rMesh at the issue times, the eLink
    /// takes the `2n` interleaved request/reply reservations, and the
    /// replies absorb into the cMesh the instant the eLink releases
    /// them.
    pub fn absorb_offchip_reads(&mut self, src: NodeId, bytes: u64, t: &[Cycle], mem: &[Cycle]) {
        let n = t.len() as u64;
        if n == 0 {
            return;
        }
        debug_assert_eq!(t.len(), mem.len());
        let path = self.offchip_read_path(src, bytes);
        self.elink.absorb_run(
            2 * n,
            Cycle((path.out_hold.raw() + path.back_hold.raw()) * n),
            |k| {
                let i = (k / 2) as usize;
                let out_start = t[i] + path.request;
                if k % 2 == 0 {
                    (out_start, path.out_hold)
                } else {
                    (out_start + path.out_hold + mem[i], path.back_hold)
                }
            },
        );
        let release = path.request + path.out_hold + path.back_hold;
        self.absorb_offchip_read_legs(src, bytes, t, |i| t[i] + release + mem[i]);
    }

    /// Reserve the raw eLink (used by DMA models).
    pub fn elink_request(&mut self, at: Cycle, bytes: u64) -> Reservation {
        let delay = self.elink_fault_delay(at);
        let r = self.elink.request(at + delay, bytes);
        self.tracer.span(Track::ELink, "dma", r.start, r.end);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> EMesh {
        EMesh::new(Mesh2D::e16g3(), EMeshParams::default())
    }

    #[test]
    fn neighbor_write_is_cheap() {
        let mut f = fabric();
        let r = f.write_onchip(Cycle(0), NodeId(0), NodeId(1), 8);
        // 1 hop + serialization of 16 wire bytes at 8 B/cyc = 1 + 2.
        assert_eq!(r.hops, 1);
        assert_eq!(r.arrival, Cycle(3));
    }

    #[test]
    fn distant_write_costs_more_hops() {
        let near = fabric().write_onchip(Cycle(0), NodeId(0), NodeId(1), 64);
        let far = fabric().write_onchip(Cycle(0), NodeId(0), NodeId(15), 64);
        assert_eq!(far.hops, 6);
        assert!(far.arrival > near.arrival);
        // Same serialization, extra hops only.
        assert_eq!(far.arrival.raw() - near.arrival.raw(), 5);
    }

    #[test]
    fn read_costs_round_trip() {
        let w = fabric().write_onchip(Cycle(0), NodeId(0), NodeId(5), 8);
        let r = fabric().read_onchip(Cycle(0), NodeId(0), NodeId(5), 8);
        assert!(
            r.arrival > w.arrival,
            "read {:?} should exceed posted write {:?}",
            r,
            w
        );
        assert_eq!(r.hops, 2 * w.hops);
    }

    #[test]
    fn contention_queues_on_shared_link() {
        let mut f = fabric();
        // Two large writes from the same source at the same time share
        // the first eastbound link.
        let a = f.write_onchip(Cycle(0), NodeId(0), NodeId(3), 800);
        let b = f.write_onchip(Cycle(0), NodeId(0), NodeId(3), 800);
        assert_eq!(a.queued, Cycle::ZERO);
        assert!(b.queued > Cycle::ZERO);
        assert!(b.arrival > a.arrival);
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut f = fabric();
        let a = f.write_onchip(Cycle(0), NodeId(0), NodeId(1), 800);
        // Row 3: node 12 -> 13 uses a different link entirely.
        let b = f.write_onchip(Cycle(0), NodeId(12), NodeId(13), 800);
        assert_eq!(a.queued, Cycle::ZERO);
        assert_eq!(b.queued, Cycle::ZERO);
        assert_eq!(a.arrival, b.arrival);
    }

    #[test]
    fn offchip_read_includes_memory_and_elink() {
        let mut f = fabric();
        let r = f.read_offchip(Cycle(0), NodeId(0), 64, Cycle(50));
        // Must include at least: route to edge + elink + 50 + data return.
        assert!(r.arrival.raw() > 50 + 8);
    }

    #[test]
    fn offchip_bandwidth_is_the_bottleneck() {
        let mut f = fabric();
        // Pump 10 KB off chip from one core; the eLink (8 B/cyc) should
        // dominate: ~10*1024/8 cycles of serialization.
        let mut t = Cycle(0);
        let mut last = Cycle(0);
        for _ in 0..10 {
            let r = f.write_offchip(t, NodeId(0), 1024);
            last = r.arrival;
            t += Cycle(1);
        }
        assert!(last.raw() >= 10 * 1032 / 8);
    }

    #[test]
    fn elink_is_shared_between_cores() {
        let mut f = fabric();
        let a = f.write_offchip(Cycle(0), NodeId(0), 1024);
        let b = f.write_offchip(Cycle(0), NodeId(15), 1024);
        // Whoever arrives second at the edge queues behind the first.
        let (first, second) = if a.arrival < b.arrival {
            (a, b)
        } else {
            (b, a)
        };
        assert!(second.queued > Cycle::ZERO || second.arrival > first.arrival);
    }

    #[test]
    fn local_transfer_still_costs_a_cycle() {
        let mut f = fabric();
        let r = f.write_onchip(Cycle(10), NodeId(4), NodeId(4), 8);
        assert_eq!(r.hops, 0);
        assert!(r.arrival > Cycle(10));
    }

    #[test]
    fn zero_byte_transfer_still_takes_a_transaction_slot() {
        // A zero-byte payload maps to zero link *units* under
        // BytesPerCycle — the FIFO still charges its one-cycle
        // transaction slot — while the tail serialization clamps to
        // one cycle (`wire_bytes.max(1)`). The edge case pins both
        // semantics: arrival equals a 1-byte message's, and the link
        // is held for exactly one cycle.
        let mut f = fabric();
        let zero = f.cmesh.transfer(Cycle(0), NodeId(0), NodeId(1), 0);
        assert_eq!(zero.hops, 1);
        // 1 hop latency + ceil(max(0,1)/8) = 2 cycles.
        assert_eq!(zero.arrival, Cycle(2));
        let link = crate::routing::link_index(NodeId(0), Direction::East);
        assert_eq!(f.cmesh.link_busy_vec()[link], Cycle(1));
        let mut g = fabric();
        let one = g.cmesh.transfer(Cycle(0), NodeId(0), NodeId(1), 1);
        assert_eq!(one.arrival, zero.arrival);
        // Accounting: the transfer counts, but carries no bytes.
        assert_eq!(f.cmesh.transfers(), 1);
        assert_eq!(f.cmesh.bytes(), 0);
        assert_eq!(f.cmesh.byte_hops(), 0);
        // Local zero-byte delivery: one hop latency + clamped tail.
        let local = f.cmesh.transfer(Cycle(10), NodeId(4), NodeId(4), 0);
        assert_eq!(local.hops, 0);
        assert_eq!(local.arrival, Cycle(12));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut f = fabric();
        f.write_onchip(Cycle(0), NodeId(0), NodeId(3), 32);
        f.write_onchip(Cycle(0), NodeId(0), NodeId(3), 32);
        assert_eq!(f.cmesh.transfers(), 2);
        assert_eq!(f.cmesh.bytes(), 80);
        assert!(f.cmesh.max_link_busy() > Cycle::ZERO);
        assert_eq!(f.cmesh.latency().count(), 2);
    }

    #[test]
    fn link_stats_sum_to_byte_hops() {
        let mut f = fabric();
        f.write_onchip(Cycle(0), NodeId(0), NodeId(15), 256);
        f.read_onchip(Cycle(10), NodeId(3), NodeId(12), 64);
        f.write_offchip(Cycle(20), NodeId(5), 512);
        let stats = f.link_stats(Cycle(10_000));
        let total: u64 = stats.iter().map(|l| l.byte_hops).sum();
        assert_eq!(
            total,
            f.cmesh.byte_hops() + f.rmesh.byte_hops() + f.xmesh.byte_hops()
        );
        assert!(stats.iter().all(|l| l.busy_fraction <= 1.0));
        assert!(stats.iter().any(|l| l.mesh == "cmesh"));
        assert!(stats.iter().any(|l| l.mesh == "rmesh"));
        assert!(stats.iter().any(|l| l.mesh == "xmesh"));
    }

    #[test]
    fn a_transfer_reserves_exactly_the_links_of_its_route() {
        use crate::routing::{route_xy, Hop};
        let letter = |d: Direction| match d {
            Direction::West => "W",
            Direction::East => "E",
            Direction::North => "N",
            Direction::South => "S",
        };
        for m in [Mesh2D::e16g3(), Mesh2D::new(8, 8), Mesh2D::new(5, 3)] {
            for s in m.nodes() {
                for d in m.nodes() {
                    let mut net =
                        MeshNetwork::new(m, MeshKind::CMesh, LinkMode::BytesPerCycle(8), 1);
                    net.transfer(Cycle(0), s, d, 64);
                    let mut route: Vec<Hop> = route_xy(&m, m.coord(s), m.coord(d));
                    route.sort_by_key(|h| (m.node(h.from), h.dir.index()));
                    let busy: Vec<usize> = (net.link_busy_vec().iter().enumerate())
                        .filter(|(_, c)| **c > Cycle::ZERO)
                        .map(|(i, _)| i)
                        .collect();
                    let links: Vec<usize> = route.iter().map(|h| h.link()).collect();
                    assert_eq!(busy, links, "{s} -> {d} on {m:?}");
                    let stats: Vec<(u32, String)> = (net.link_stats(Cycle(1000)).into_iter())
                        .map(|l| (l.node, l.dir))
                        .collect();
                    let named: Vec<(u32, String)> = (route.iter())
                        .map(|h| (u32::from(m.node(h.from).0), letter(h.dir).to_string()))
                        .collect();
                    assert_eq!(stats, named, "{s} -> {d} on {m:?}");
                }
            }
        }
    }

    #[test]
    fn tracer_records_mesh_link_and_elink_spans() {
        use desim::trace::EventKind;
        let mut f = fabric();
        let t = Tracer::enabled();
        f.set_tracer(t.clone());
        f.write_onchip(Cycle(0), NodeId(0), NodeId(3), 64);
        f.write_offchip(Cycle(0), NodeId(0), 128);
        let events = t.snapshot();
        assert!(events.iter().any(|e| matches!(
            e.track,
            Track::MeshLink {
                mesh: MeshKind::CMesh,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e.track,
            Track::MeshLink {
                mesh: MeshKind::XMesh,
                ..
            }
        )));
        assert!(events
            .iter()
            .any(|e| e.track == Track::ELink && matches!(e.kind, EventKind::Span { .. })));
    }

    #[test]
    fn mesh_stall_fault_perturbs_exactly_one_transfer() {
        use faultsim::{FaultEvent, FaultPlan};
        let mut clean = fabric();
        let baseline = clean
            .write_onchip(Cycle(0), NodeId(0), NodeId(3), 64)
            .arrival;

        let mut f = fabric();
        let plan = FaultPlan::from_events(
            0,
            vec![FaultEvent::MeshStall {
                mesh: MeshKind::CMesh,
                at: Cycle(0),
                extra: 500,
            }],
        );
        let faults = FaultState::from_plan(&plan);
        f.set_faults(faults.clone());
        let hit = f.write_onchip(Cycle(0), NodeId(0), NodeId(3), 64).arrival;
        assert_eq!(hit, baseline + Cycle(500));
        // The event fired once: the next identical transfer only pays
        // ordinary link contention, never the stall again.
        let next = f.write_onchip(Cycle(10_000), NodeId(0), NodeId(3), 64);
        assert_eq!(next.arrival, Cycle(10_000) + (baseline - Cycle(0)));
        assert_eq!(faults.totals().faults_injected, 1);
    }

    #[test]
    fn elink_degrade_fault_delays_the_offchip_path_once() {
        use faultsim::{FaultEvent, FaultPlan};
        let mut clean = fabric();
        let baseline = clean.write_offchip(Cycle(0), NodeId(0), 128).arrival;

        let mut f = fabric();
        let faults = FaultState::from_plan(&FaultPlan::from_events(
            0,
            vec![FaultEvent::ElinkDegrade {
                at: Cycle(0),
                extra: 300,
            }],
        ));
        f.set_faults(faults.clone());
        let hit = f.write_offchip(Cycle(0), NodeId(0), 128).arrival;
        assert_eq!(hit, baseline + Cycle(300));
        assert_eq!(faults.totals().faults_injected, 1);
        assert_eq!(faults.pending(), 0);
    }

    #[test]
    fn disabled_faults_leave_timing_bit_identical() {
        let mut a = fabric();
        let mut b = fabric();
        b.set_faults(FaultState::disabled());
        for t in 0..50u64 {
            let ra = a.write_onchip(Cycle(t), NodeId(0), NodeId(15), 256);
            let rb = b.write_onchip(Cycle(t), NodeId(0), NodeId(15), 256);
            assert_eq!(ra.arrival, rb.arrival);
            let oa = a.read_offchip(Cycle(t), NodeId(3), 64, Cycle(40));
            let ob = b.read_offchip(Cycle(t), NodeId(3), 64, Cycle(40));
            assert_eq!(oa.arrival, ob.arrival);
        }
    }

    #[test]
    fn absorbed_offchip_read_span_matches_per_event_execution() {
        // Same blocking-read schedule on two fabrics, one per-event
        // and one absorbed in closed form: every observable — the
        // closed-form arrival itself, frontiers, busy cycles, served
        // counts, statistics, per-link loads, and how later
        // traffic lands in the remembered idle gaps — must agree.
        let mut a = fabric();
        let mut b = fabric();
        let src = NodeId(0);
        let bytes = 8u64;
        let path = b.offchip_read_path(src, bytes);
        // SDRAM times vary per read (open-row hit/miss mix); issue
        // times are spaced like blocking reads: previous arrival plus
        // an issue cycle.
        let mems: Vec<Cycle> = (0..200u64).map(|i| Cycle(20 + (i % 7) * 11)).collect();
        let mut t = Vec::new();
        let mut at = Cycle(100);
        for &m in &mems {
            t.push(at);
            let r = a.read_offchip(at, src, bytes, m);
            assert_eq!(r.arrival, at + path.latency(m), "closed form is exact");
            assert_eq!(r.queued, Cycle::ZERO, "span is uncontended");
            at = r.arrival + Cycle(1);
        }
        assert!(b.can_absorb_offchip_reads(src, t[0]));
        b.absorb_offchip_reads(src, bytes, &t, &mems);

        assert_eq!(a.elink.free_at(), b.elink.free_at());
        assert_eq!(a.elink.busy_cycles(), b.elink.busy_cycles());
        assert_eq!(a.elink.served(), b.elink.served());
        for (ma, mb) in [(&a.rmesh, &b.rmesh), (&a.cmesh, &b.cmesh)] {
            assert_eq!(ma.transfers(), mb.transfers());
            assert_eq!(ma.bytes(), mb.bytes());
            assert_eq!(ma.byte_hops(), mb.byte_hops());
            assert_eq!(ma.link_busy_vec(), mb.link_busy_vec());
            let (ha, hb) = (ma.latency(), mb.latency());
            assert_eq!(ha.count(), hb.count());
            assert_eq!(ha.min(), hb.min());
            assert_eq!(ha.max(), hb.max());
            assert_eq!(ha.quantile(0.5), hb.quantile(0.5));
        }
        let (sa, sb) = (a.link_stats(Cycle(1 << 20)), b.link_stats(Cycle(1 << 20)));
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!((x.byte_hops, x.busy_cycles), (y.byte_hops, y.busy_cycles));
        }
        // A late-timestamped read backfills identically on both sides:
        // the gap rings survived the absorption intact.
        let ra = a.read_offchip(Cycle(150), src, 64, Cycle(30));
        let rb = b.read_offchip(Cycle(150), src, 64, Cycle(30));
        assert_eq!(ra.arrival, rb.arrival);
    }

    #[test]
    fn offchip_read_span_behind_a_busy_elink_absorbs_once_caught_up() {
        // Two far nodes stream 2 KB reads back to back, which carries
        // the eLink frontier about 100 k cycles out and leaves idle
        // gaps. Node 0 then reads from cycle 2: per event while its
        // requests reach the eLink behind the frontier, then in closed
        // form from the first one that arrives at or after it, while
        // the frontier may still be ahead of that read's issue.
        for mesh in [Mesh2D::e16g3(), Mesh2D::new(8, 8)] {
            let make = || EMesh::new(mesh, EMeshParams::default());
            let (mut a, mut b) = (make(), make());
            for f in [&mut a, &mut b] {
                for other in [mesh.len() as u16 - 1, mesh.len() as u16 - 2] {
                    let mut at = Cycle(20);
                    for row in 0..105u64 {
                        let mem = Cycle(20 + (row % 3) * 40);
                        at = f.read_offchip(at, NodeId(other), 2048, mem).arrival;
                    }
                }
            }
            let frontier = a.elink.free_at();
            assert!(
                (Cycle(90_000)..Cycle(120_000)).contains(&frontier),
                "frontier {frontier:?}"
            );
            let src = NodeId(0);
            let path = b.offchip_read_path(src, 8);
            let mems: Vec<Cycle> = (0..300u64).map(|i| Cycle(20 + (i % 7) * 11)).collect();
            let (mut at, mut t, mut caught) = (Cycle(2), Vec::new(), None);
            for (i, &m) in mems.iter().enumerate() {
                let ra = a.read_offchip(at, src, 8, m);
                if caught.is_none() && at + path.request >= b.elink.free_at() {
                    caught = Some(i);
                }
                if caught.is_none() {
                    let rb = b.read_offchip(at, src, 8, m);
                    assert_eq!(ra.arrival, rb.arrival, "read {i} behind the frontier");
                } else {
                    assert_eq!(ra.arrival, at + path.latency(m), "read {i} caught up");
                    t.push(at);
                }
                at = ra.arrival + Cycle(2);
            }
            let first = caught.expect("the span catches up with the frontier");
            assert!(first > 50, "only {first} reads behind the frontier");
            b.absorb_offchip_reads(src, 8, &t, &mems[first..]);

            assert_eq!(a.elink.free_at(), b.elink.free_at());
            assert_eq!(a.elink.busy_cycles(), b.elink.busy_cycles());
            assert_eq!(a.elink.served(), b.elink.served());
            for (ma, mb) in [(&a.rmesh, &b.rmesh), (&a.cmesh, &b.cmesh)] {
                assert_eq!(ma.transfers(), mb.transfers());
                assert_eq!(ma.byte_hops(), mb.byte_hops());
                assert_eq!(ma.link_busy_vec(), mb.link_busy_vec());
                let (ha, hb) = (ma.latency(), mb.latency());
                assert_eq!(
                    (ha.count(), ha.min(), ha.max(), ha.quantile(0.5)),
                    (hb.count(), hb.min(), hb.max(), hb.quantile(0.5))
                );
            }
            // A read from another node at cycle 0 backfills the
            // remembered gaps identically on both fabrics.
            let ra = a.read_offchip(Cycle(0), NodeId(5), 64, Cycle(30));
            let rb = b.read_offchip(Cycle(0), NodeId(5), 64, Cycle(30));
            assert_eq!(ra.arrival, rb.arrival);
        }
    }

    #[test]
    fn absorb_precheck_rejects_busy_tracer_or_faulted_paths() {
        use faultsim::{FaultEvent, FaultPlan};
        // Draining eLink: a prior off-chip write holds the port.
        let mut f = fabric();
        let w = f.write_offchip(Cycle(0), NodeId(0), 1024);
        assert!(!f.can_absorb_offchip_reads(NodeId(0), Cycle(1)));
        assert!(f.can_absorb_offchip_reads(NodeId(0), w.arrival));
        // Tracer attached: per-event fallback keeps the timeline.
        let mut tr = fabric();
        tr.set_tracer(Tracer::enabled());
        assert!(!tr.can_absorb_offchip_reads(NodeId(0), Cycle(0)));
        // Armed fault events: timing may be perturbed. Once the event
        // has fired, the schedule is inert and absorption is safe.
        let mut fl = fabric();
        let faults = FaultState::from_plan(&FaultPlan::from_events(
            0,
            vec![FaultEvent::ElinkDegrade {
                at: Cycle(0),
                extra: 300,
            }],
        ));
        fl.set_faults(faults.clone());
        assert!(!fl.can_absorb_offchip_reads(NodeId(0), Cycle(0)));
        fl.write_offchip(Cycle(0), NodeId(0), 8);
        assert_eq!(faults.pending(), 0);
        assert!(fl.can_absorb_offchip_reads(NodeId(0), Cycle(10_000)));
    }

    #[test]
    fn rmesh_requests_are_one_per_cycle() {
        let mut f = fabric();
        // Ten read requests from the same node toward the same target:
        // the first rMesh link admits one per cycle.
        let mut arrivals = Vec::new();
        for _ in 0..10 {
            arrivals.push(f.rmesh.transfer(Cycle(0), NodeId(0), NodeId(3), 8).arrival);
        }
        for w in arrivals.windows(2) {
            assert_eq!(w[1].raw() - w[0].raw(), 1);
        }
    }
}
