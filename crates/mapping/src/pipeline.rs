//! What the two 13-core autofocus pipeline drivers —
//! [`crate::autofocus_mpmd`] (hand-written) and [`crate::autofocus_net`]
//! (the `streams` process network) — and their program model share:
//! the block staging, the message sizes, the placement of the stage
//! graph (`sar_core::autofocus::Stage` names the stages and their
//! consumers) and the per-firing kernel probe. A driver and the model
//! that prices it read these same items, so a change to the dataflow is
//! made once.

use desim::OpCounts;
use epiphany::dma::DmaDirection;
use epiphany::Chip;
use memsim::GlobalAddr;
use sar_core::autofocus::{criterion_firings, AutofocusConfig, Block6, Stage};
use sim_harness::{AutofocusWorkload, Bound, Placement, ProgramModel, TrafficDecl, WorkDecl};

use crate::autofocus_seq::AUTOFOCUS_PAIRING;
use crate::layout::{BANK_CHILD_A, PIXEL_BYTES};

/// Bytes of one autofocus block (6x6 complex pixels) — in SDRAM, and in
/// the upper local bank a range core (or the sequential drivers' one
/// core) stages it into.
pub const BLOCK_BYTES: u32 = std::mem::size_of::<Block6>() as u32;

/// Bytes of a message carrying `vectors` vectors of one iteration's
/// complex samples.
fn msg_bytes(cfg: &AutofocusConfig, vectors: u64) -> u32 {
    u32::try_from(vectors * cfg.samples_per_iteration() as u64 * PIXEL_BYTES)
        .expect("message fits u32")
}

/// Bytes a range interpolator streams to each beam interpolator per
/// firing: six rows of complex samples.
pub(crate) fn range_msg_bytes(cfg: &AutofocusConfig) -> u32 {
    msg_bytes(cfg, 6)
}

/// Bytes a beam interpolator streams to the correlator per firing:
/// three windows of complex samples.
pub(crate) fn beam_msg_bytes(cfg: &AutofocusConfig) -> u32 {
    msg_bytes(cfg, 3)
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

/// Where hypothesis `h`'s criterion value is written back in SDRAM.
pub(crate) fn criterion_addr(h: usize) -> GlobalAddr {
    GlobalAddr::external(0x10000 + 8 * h as u32)
}

/// The core `place` runs `stage` on.
pub(crate) fn core_of(stage: Stage, place: &Placement) -> usize {
    match stage {
        Stage::Range { blk, win } => place.range[blk][win],
        Stage::Beam { blk, win } => place.beam[blk][win],
        Stage::Corr => place.corr,
    }
}

/// All thirteen stages: the correlator, then block by block the range
/// and the beam interpolators. [`crate::autofocus_net`] creates its
/// actors in this order, and its scheduler fires the lowest-numbered
/// ready actor.
pub(crate) fn stages() -> impl Iterator<Item = Stage> {
    let block = |blk| {
        let range = (0..3).map(move |win| Stage::Range { blk, win });
        range.chain((0..3).map(move |win| Stage::Beam { blk, win }))
    };
    std::iter::once(Stage::Corr).chain((0..2).flat_map(block))
}

/// The 24 channels of the pipeline, in the order both the network and
/// the model connect them. A consumer's input ports number its edges
/// in this order: beam interpolator `b` receives range windows 0, 1, 2,
/// and the correlator's six ports are block-major — what
/// [`crate::autofocus_net`]'s actors rely on.
pub(crate) fn edges() -> impl Iterator<Item = (Stage, Stage)> {
    stages().flat_map(|from| from.consumers().map(move |to| (from, to)))
}

/// The placement the probe builds its model on: each stage's "core" is
/// its role number (`autotune`'s: range `3·blk + win`, beam
/// `6 + 3·blk + win`, the correlator 12), so every core id in that
/// model names the role a placement fills.
const ROLES: Placement = Placement {
    range: [[0, 1, 2], [3, 4, 5]],
    beam: [[6, 7, 8], [9, 10, 11]],
    corr: 12,
};

/// The core `place` gives each role of [`ROLES`].
fn role_cores(place: &Placement) -> [usize; 13] {
    let mut cores = [0; 13];
    for stage in stages() {
        cores[core_of(stage, &ROLES)] = core_of(stage, place);
    }
    cores
}

/// The placement-independent part of the pipeline model, built once:
/// labels, phases, per-firing op counts probed from the kernels,
/// message sizes and recovery declarations, on the [`ROLES`] placement.
/// Probing runs the actual stage kernels (the expensive part); a
/// placement only writes core ids ([`PipelineProbe::rewire`]), so a
/// placement search probes once and prices each candidate without
/// rebuilding its model.
pub struct PipelineProbe {
    /// The model on [`ROLES`], on no mesh.
    roles: ProgramModel,
}

impl PipelineProbe {
    /// Probe for the `streams` process network (`autofocus_net`): it
    /// waits once per firing — range actors wait on their command
    /// tokens too — and has no recovery story, so `sarlint` flags its
    /// channels as recovery-free (SL011/SL012).
    pub fn net(w: &AutofocusWorkload) -> PipelineProbe {
        PipelineProbe::probed(w, 3.0, false)
    }

    /// Probe for the hand-written MPMD driver (`autofocus_mpmd`): its
    /// range cores never wait — they fire as soon as the host loop
    /// reaches them — and every channel (with its protocol flag) is
    /// covered by the driver's recovery story: watchdog retry on a lost
    /// flag, then drain-and-restart of the hypothesis with a spare-core
    /// remap if the peer has halted.
    pub fn mpmd(w: &AutofocusWorkload) -> PipelineProbe {
        PipelineProbe::probed(w, 0.0, true)
    }

    /// Walk one hypothesis ([`criterion_firings`]), keep a firing's
    /// ledger per stage kind — the per-firing work of the three
    /// pipeline stages — and build the model on [`ROLES`]. All ledgers
    /// are data-independent, so any firing of a kind stands for every
    /// other (`criterion.rs`'s tests pin that).
    ///
    /// Buffers: each range core holds its DMA'd source block in an
    /// upper bank; each beam core's bank 0 receives three posted range
    /// messages per round; the correlator's bank 0 receives six beam
    /// messages. Channels: the 24 `edges()`, each with its
    /// flag-signalled posted-write protocol.
    fn probed(
        w: &AutofocusWorkload,
        range_waits_per_hyp: f64,
        mpmd_recovery: bool,
    ) -> PipelineProbe {
        let cfg = &w.config;
        let mut range_ops = OpCounts::default();
        let mut beam_ops = OpCounts::default();
        let mut corr_ops = OpCounts::default();
        criterion_firings(&w.f_minus, &w.f_plus, 0.0, cfg, |stage, ops| {
            *match stage {
                Stage::Range { .. } => &mut range_ops,
                Stage::Beam { .. } => &mut beam_ops,
                Stage::Corr => &mut corr_ops,
            } = *ops;
        });
        let place = ROLES;
        let mut m = ProgramModel {
            cores: place.cores(),
            ..ProgramModel::default()
        };
        let (range_msg, beam_msg) = (range_msg_bytes(cfg), beam_msg_bytes(cfg));

        for (blk, range_cores) in place.range.iter().enumerate() {
            for (win, &rc) in range_cores.iter().enumerate() {
                m.buffer(
                    format!("block{blk}[r{win}]"),
                    rc,
                    BANK_CHILD_A,
                    0,
                    BLOCK_BYTES,
                );
            }
        }
        for (blk, beam_cores) in place.beam.iter().enumerate() {
            for (bi, &bc) in beam_cores.iter().enumerate() {
                for win in 0..3u32 {
                    m.buffer(
                        format!("inbox_b{blk}{bi}[r{win}]"),
                        bc,
                        0,
                        win * range_msg,
                        range_msg,
                    );
                }
            }
        }
        for slot in 0..6u32 {
            m.buffer(
                format!("inbox_corr[{slot}]"),
                place.corr,
                0,
                slot * beam_msg,
                beam_msg,
            );
        }
        for (from, to) in edges() {
            m.channel(
                format!("{from}->{to}"),
                core_of(from, &place),
                core_of(to, &place),
            );
        }

        // Workload: six range-core DMAs up front, then per hypothesis
        // three iterations of range -> beam -> correlate.
        m.pairing_efficiency = Some(AUTOFOCUS_PAIRING);
        let setup = m.phase("setup", 1);
        for &rc in place.range.iter().flatten() {
            let mut wd = WorkDecl::new(rc);
            wd.dma_msgs = Bound::exact(1.0);
            wd.dma_bytes = Bound::exact(f64::from(BLOCK_BYTES));
            setup.work.push(wd);
        }
        let ph = m.phase("hypothesis", w.hypotheses as u64);
        // Three firings of `stage` per hypothesis, each posting one
        // message to every consumer.
        let mut fires = |stage: Stage| {
            let (ops, waits, msg) = match stage {
                Stage::Range { .. } => (&range_ops, range_waits_per_hyp, range_msg),
                Stage::Beam { .. } => (&beam_ops, 3.0, beam_msg),
                Stage::Corr => (&corr_ops, 3.0, 0),
            };
            let core = core_of(stage, &place);
            let mut wd = WorkDecl::new(core);
            wd.exact_ops(ops.scaled(3));
            wd.compute_calls = Bound::exact(3.0);
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
                    to: core_of(to, &place),
                    messages: Bound::exact(3.0),
                    bytes: Bound::exact(3.0 * f64::from(msg)),
                });
            }
        };
        for blk in 0..2 {
            for win in 0..3 {
                fires(Stage::Range { blk, win });
            }
        }
        for blk in 0..2 {
            for win in 0..3 {
                fires(Stage::Beam { blk, win });
            }
        }
        fires(Stage::Corr);

        if mpmd_recovery {
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
        let core = role_cores(&place);
        let roles = &self.roles;
        m.cores = place.cores();
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
                (core_of(*from, &place), core_of(*to, &place))
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
