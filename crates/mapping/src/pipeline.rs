//! What the two autofocus pipeline drivers —
//! [`crate::autofocus_mpmd`] (hand-written) and [`crate::autofocus_net`]
//! (the `streams` process network) — and their program model share:
//! the block staging, the message sizes, the stage graph's channels
//! and the per-firing kernel probe. The pipeline's shape — its stages
//! in role order, block, window and iteration counts — is
//! `sar_core::autofocus`'s ([`Stage::ALL`]); a driver and the model
//! that prices it read these same items, so a change to the dataflow is
//! made once.

use desim::OpCounts;
use epiphany::dma::DmaDirection;
use epiphany::Chip;
use memsim::GlobalAddr;
use sar_core::autofocus::{
    criterion_firings, AutofocusConfig, Block6, Stage, ITERATIONS, STAGES, WINDOWS,
};
use sim_harness::{AutofocusWorkload, Bound, Placement, ProgramModel, TrafficDecl, WorkDecl};

use crate::autofocus_seq::AUTOFOCUS_PAIRING;
use crate::layout::{BANK_CHILD_A, PIXEL_BYTES};

/// Bytes of one autofocus block (6x6 complex pixels) — in SDRAM, and in
/// the upper local bank a range core (or the sequential drivers' one
/// core) stages it into.
pub const BLOCK_BYTES: u32 = std::mem::size_of::<Block6>() as u32;

/// Bytes `stage` streams to each consumer per firing: one iteration's
/// complex samples for each of the six rows of a range interpolator,
/// or each range window of a beam interpolator.
pub(crate) fn msg_bytes(cfg: &AutofocusConfig, stage: Stage) -> u32 {
    let vectors = match stage {
        Stage::Range { .. } => 6,
        Stage::Beam { .. } => WINDOWS as u64,
        Stage::Corr => 0,
    };
    u32::try_from(vectors * cfg.samples_per_iteration() as u64 * PIXEL_BYTES)
        .expect("message fits u32")
}

/// The range interpolators' cores in role order, each with the image
/// block it stages.
pub(crate) fn range_cores(place: &Placement) -> impl Iterator<Item = (usize, usize)> + '_ {
    Stage::ALL.into_iter().filter_map(|stage| match stage {
        Stage::Range { blk, .. } => Some((place.core(stage), blk)),
        _ => None,
    })
}

/// DMA image block `blk` from SDRAM into `core`'s staging bank and
/// wait for it to land.
pub(crate) fn stage_block(chip: &mut Chip, core: usize, blk: usize) {
    let done = chip.dma_start(
        core,
        DmaDirection::ExternalToLocal,
        GlobalAddr::external(blk as u32 * BLOCK_BYTES),
        BANK_CHILD_A,
        u64::from(BLOCK_BYTES),
    );
    chip.dma_wait(core, done);
}

/// The initial load: every range interpolator stages its block.
pub(crate) fn stage_blocks(chip: &mut Chip, place: &Placement) {
    for (core, blk) in range_cores(place) {
        stage_block(chip, core, blk);
    }
}

/// Where hypothesis `h`'s criterion value is written back in SDRAM.
pub(crate) fn criterion_addr(h: usize) -> GlobalAddr {
    GlobalAddr::external(0x10000 + 8 * h as u32)
}

/// Every stage, in the order [`crate::autofocus_net`] creates its
/// actors — and its scheduler fires the lowest-numbered ready actor:
/// the correlator, then block by block the range and the beam
/// interpolators.
pub(crate) fn stages() -> [Stage; STAGES] {
    let mut order = Stage::ALL;
    order.sort_by_key(|stage| match stage {
        Stage::Corr => 0,
        Stage::Range { blk, .. } | Stage::Beam { blk, .. } => blk + 1,
    });
    order
}

/// The pipeline's channels, in the order both the network and the
/// model connect them. A consumer's input ports number its edges in
/// this order: beam interpolator `b` receives range windows in window
/// order, and the correlator's ports are block-major — what
/// [`crate::autofocus_net`]'s actors rely on.
pub(crate) fn edges() -> impl Iterator<Item = (Stage, Stage)> {
    stages()
        .into_iter()
        .flat_map(|from| from.consumers().map(move |to| (from, to)))
}

/// The placement-independent part of the pipeline model, built once:
/// labels, phases, per-firing op counts probed from the kernels,
/// message sizes and recovery declarations, with every stage on the
/// core numbered by its role ([`Stage::role`]). Probing runs the actual
/// stage kernels (the expensive part); a placement only writes core ids
/// ([`PipelineProbe::rewire`]), so a placement search probes once and
/// prices each candidate without rebuilding its model.
pub struct PipelineProbe {
    /// The model with each stage on its role's core, on no mesh.
    roles: ProgramModel,
}

impl PipelineProbe {
    /// Probe for the `streams` process network (`autofocus_net`): it
    /// waits once per firing — range actors wait on their command
    /// tokens too — and has no recovery story, so `sarlint` flags its
    /// channels as recovery-free (SL011/SL012).
    pub fn net(w: &AutofocusWorkload) -> PipelineProbe {
        PipelineProbe::probed(w, false)
    }

    /// Probe for the hand-written MPMD driver (`autofocus_mpmd`): its
    /// range cores never wait — they fire as soon as the host loop
    /// reaches them — and every channel (with its protocol flag) is
    /// covered by the driver's recovery story: watchdog retry on a lost
    /// flag, then drain-and-restart of the hypothesis with a spare-core
    /// remap if the peer has halted.
    pub fn mpmd(w: &AutofocusWorkload) -> PipelineProbe {
        PipelineProbe::probed(w, true)
    }

    /// Walk one hypothesis ([`criterion_firings`]), keep a firing's
    /// ledger per stage — every firing of a stage kind does the same,
    /// data-independent work (`criterion.rs`'s tests pin that) — and
    /// build the model with each stage on its role's core.
    ///
    /// Buffers: each range core holds its DMA'd source block in an
    /// upper bank; each beam core's and the correlator's bank 0
    /// receives one posted message per producer and round. Channels:
    /// the `edges()`, each with its flag-signalled posted-write
    /// protocol.
    fn probed(w: &AutofocusWorkload, mpmd: bool) -> PipelineProbe {
        let cfg = &w.config;
        let mut ops = [OpCounts::default(); STAGES];
        criterion_firings(&w.f_minus, &w.f_plus, 0.0, cfg, |stage, fired| {
            ops[stage.role()] = *fired;
        });
        let mut m = ProgramModel {
            cores: (0..STAGES).collect(),
            ..ProgramModel::default()
        };
        for stage in Stage::ALL {
            let core = stage.role();
            if let Stage::Range { blk, win } = stage {
                let label = format!("block{blk}[r{win}]");
                m.buffer(label, core, BANK_CHILD_A, 0, BLOCK_BYTES);
            }
            // One inbox per input port, sized for its producer's message.
            let producers = edges().filter(|&(_, to)| to == stage);
            for (port, (from, _)) in (0u32..).zip(producers) {
                let msg = msg_bytes(cfg, from);
                let label = match stage {
                    Stage::Beam { blk, win } => format!("inbox_b{blk}{win}[r{port}]"),
                    _ => format!("inbox_corr[{port}]"),
                };
                m.buffer(label, core, 0, port * msg, msg);
            }
        }
        for (from, to) in edges() {
            m.channel(format!("{from}->{to}"), from.role(), to.role());
        }

        // Workload: the range cores' block DMAs up front, then per
        // hypothesis every iteration of range -> beam -> correlate.
        m.pairing_efficiency = Some(AUTOFOCUS_PAIRING);
        let setup = m.phase("setup", 1);
        let range = Stage::ALL
            .into_iter()
            .filter(|s| matches!(s, Stage::Range { .. }));
        for stage in range {
            let mut wd = WorkDecl::new(stage.role());
            wd.dma_msgs = Bound::exact(1.0);
            wd.dma_bytes = Bound::exact(f64::from(BLOCK_BYTES));
            setup.work.push(wd);
        }
        let ph = m.phase("hypothesis", w.hypotheses as u64);
        // Per hypothesis every stage fires once an iteration, waits
        // for its inputs (a range actor of the network for its command
        // token) and posts one message to every consumer.
        let firings = ITERATIONS as f64;
        for stage in Stage::ALL {
            let waits = match stage {
                Stage::Range { .. } if mpmd => 0.0,
                _ => firings,
            };
            let msg = msg_bytes(cfg, stage);
            let core = stage.role();
            let mut wd = WorkDecl::new(core);
            wd.exact_ops(ops[core].scaled(ITERATIONS as u64));
            wd.compute_calls = Bound::exact(firings);
            wd.flag_waits = Bound::exact(waits);
            if stage == Stage::Corr {
                // The criterion write-back.
                wd.ext_write_msgs = Bound::exact(1.0);
                wd.ext_write_bytes = Bound::exact(8.0);
            }
            ph.work.push(wd);
            for to in stage.consumers() {
                ph.traffic.push(TrafficDecl {
                    from: core,
                    to: to.role(),
                    messages: Bound::exact(firings),
                    bytes: Bound::exact(firings * f64::from(msg)),
                });
            }
        }

        if mpmd {
            let covered = m.declare_recovery("range", "retry_backoff+drain_restart")
                + m.declare_recovery("beam", "retry_backoff+drain_restart");
            debug_assert!(covered > 0, "the pipeline's channels must match");
        }
        PipelineProbe { roles: m }
    }

    /// The probed workload wired onto `place` on a `mesh`-sized
    /// platform (no kernel execution).
    pub fn model(&self, place: &Placement, mesh: (u16, u16)) -> ProgramModel {
        let mut m = ProgramModel {
            mesh,
            ..self.roles.clone()
        };
        self.rewire(&mut m, place);
        m
    }

    /// Wire `m` — a [`model`](Self::model) of this probe — onto
    /// `place`, on the mesh it already has: every core id is rewritten
    /// from the role it stands for, nothing else is touched.
    pub fn rewire(&self, m: &mut ProgramModel, place: &Placement) {
        // Placements use canonical E16G3 (4-column) ids; the model
        // mirrors the drivers and renumbers onto the target mesh.
        let place = place.rebased(m.mesh.0, m.mesh.1);
        let core = Stage::ALL.map(|stage| place.core(stage));
        let roles = &self.roles;
        place.cores_into(&mut m.cores);
        for (b, role) in m.buffers.iter_mut().zip(&roles.buffers) {
            b.core = core[role.core];
        }
        for (c, role) in m.channels.iter_mut().zip(&roles.channels) {
            (c.from, c.to) = (core[role.from], core[role.to]);
        }
        for (f, role) in m.flags.iter_mut().zip(&roles.flags) {
            (f.setter, f.waiter) = (core[role.setter], core[role.waiter]);
        }
        for (ph, role) in m.workload.iter_mut().zip(&roles.workload) {
            for (wd, role) in ph.work.iter_mut().zip(&role.work) {
                wd.core = core[role.core];
            }
            for (t, role) in ph.traffic.iter_mut().zip(&role.traffic) {
                (t.from, t.to) = (core[role.from], core[role.to]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofocus_net;

    #[test]
    fn pipeline_model_matches_the_dataflow() {
        let w = AutofocusWorkload::small();
        let m = autofocus_net::model(&w, &Placement::neighbor(), (4, 4));
        assert_eq!(m.cores.len(), 13);
        // 18 range->beam + 6 beam->corr channels, one flag each.
        assert_eq!(m.channels.len(), 24);
        assert_eq!(m.flags.len(), 24);
        // 6 range blocks + 18 beam inboxes + 6 correlator inboxes.
        assert_eq!(m.buffers.len(), 30);
        // Message sizes follow samples_per_iteration (48/3 = 16).
        assert!(m.buffers.iter().any(|b| b.bytes == 6 * 16 * 8));
        assert!(m.buffers.iter().any(|b| b.bytes == 3 * 16 * 8));
        assert!(m.barriers.is_empty());

        // The channels are the pipeline's edges, in edge order, on the
        // placement's cores.
        let place = Placement::neighbor();
        let edges: Vec<(Stage, Stage)> = edges().collect();
        assert_eq!(edges.len(), 24);
        for (channel, (from, to)) in m.channels.iter().zip(&edges) {
            assert_eq!(channel.label, format!("{from}->{to}"));
            assert_eq!(
                (channel.from, channel.to),
                (place.core(*from), place.core(*to))
            );
        }
        // A consumer's input ports number its edges in that order — what
        // `autofocus_net`'s actors rely on: each beam interpolator receives
        // its block's range windows 0, 1, 2, and the correlator's six ports
        // are block-major.
        let producers = |to: Stage| -> Vec<Stage> {
            let into = edges.iter().filter(|(_, t)| *t == to);
            into.map(|(from, _)| *from).collect()
        };
        for blk in 0..2 {
            for win in 0..3 {
                assert_eq!(
                    producers(Stage::Beam { blk, win }),
                    [0, 1, 2].map(|win| Stage::Range { blk, win })
                );
            }
        }
        assert_eq!(
            producers(Stage::Corr),
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
                .map(|(blk, win)| Stage::Beam { blk, win })
        );
    }

    #[test]
    fn the_actor_order_is_a_permutation_of_the_table() {
        let order = stages();
        let mut roles = order.map(Stage::role);
        roles.sort_unstable();
        assert_eq!(roles, std::array::from_fn(|role| role));
        // The correlator first, then block by block the range and the
        // beam interpolators.
        let names: Vec<String> = order.iter().map(Stage::to_string).collect();
        assert_eq!(
            names.join(" "),
            "corr range00 range01 range02 beam00 beam01 beam02 \
             range10 range11 range12 beam10 beam11 beam12"
        );
    }

    #[test]
    fn the_range_cores_stage_their_own_block() {
        let place = Placement::neighbor();
        let cores: Vec<(usize, usize)> = range_cores(&place).collect();
        assert_eq!(cores, [(0, 0), (4, 0), (8, 0), (3, 1), (7, 1), (11, 1)]);
    }

    #[test]
    fn pipeline_model_rebases_the_placement_onto_bigger_meshes() {
        let w = AutofocusWorkload::small();
        let e16 = autofocus_net::model(&w, &Placement::neighbor(), (4, 4));
        let e64 = autofocus_net::model(&w, &Placement::neighbor(), (8, 8));
        assert_eq!(e64.mesh, (8, 8));
        assert_eq!(e64.cores.len(), 13);
        // Same channel graph, and every channel spans the same hop
        // count on both meshes (the rebase preserves coordinates).
        assert_eq!(e64.channels.len(), e16.channels.len());
        for (a, b) in e16.channels.iter().zip(&e64.channels) {
            assert_eq!(a.label, b.label);
            assert_eq!(
                e16.manhattan(a.from, a.to),
                e64.manhattan(b.from, b.to),
                "channel {} changed hop count",
                a.label
            );
        }
    }
}
