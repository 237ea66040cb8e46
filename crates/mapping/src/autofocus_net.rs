//! The autofocus pipeline expressed as a `streams` process network —
//! the paper's occam-pi "raise the abstraction level" direction made
//! concrete. Compare with [`crate::autofocus_mpmd`]: that driver
//! hand-manages every flag wait and remote write (the paper's
//! "increases the burden on the programmer"); this one declares
//! thirteen actors and their channels and lets the network do the
//! synchronisation. Both compute identical criteria on the same
//! machine model.

use std::cell::RefCell;
use std::rc::Rc;

use desim::OpCounts;
use epiphany::{Chip, EpiphanyParams};
use sar_core::autofocus::criterion::{
    beam_stage, block_shift, correlate_partial, range_stage, AutofocusConfig, BeamStageOut,
    RangeStageOut, Stage, BLOCKS, ITERATIONS, STAGES, WINDOWS,
};
use sar_core::autofocus::Block6;
use sim_harness::{AutofocusWorkload, Placement, ProgramModel, RunContext, SweepRun};
use streams::{Actor, FireCtx, Network};

use crate::pipeline::{criterion_addr, edges, msg_bytes, stage_blocks, stages, PipelineProbe};

/// Tokens flowing through the pipeline.
pub enum AfToken {
    /// Work order for a range actor: resample its block at `shift`
    /// for sweep iteration `iteration`.
    Cmd {
        /// Per-block resampling shift (already halved and signed).
        shift: f32,
        /// Criterion iteration, `0..ITERATIONS`.
        iteration: usize,
    },
    /// A range actor's window output.
    Range {
        /// Interpolated rows.
        out: Box<RangeStageOut>,
        /// Propagated shift.
        shift: f32,
        /// Propagated iteration.
        iteration: usize,
    },
    /// A beam actor's window output.
    Beam(Box<BeamStageOut>),
}

struct RangeActor {
    block: Block6,
    window: usize,
    cfg: AutofocusConfig,
    /// Bytes of each output message ([`msg_bytes`]).
    bytes: u64,
}

impl Actor<AfToken> for RangeActor {
    fn fire(&mut self, mut inputs: Vec<AfToken>, ctx: &mut FireCtx<'_, AfToken>) {
        let AfToken::Cmd { shift, iteration } = inputs.remove(0) else {
            panic!("range actor expects Cmd tokens");
        };
        let mut counts = OpCounts::default();
        let out = range_stage(
            &self.block,
            self.window,
            shift,
            iteration,
            &self.cfg,
            &mut counts,
        );
        ctx.charge(&counts);
        for port in 0..WINDOWS {
            ctx.send(
                port,
                AfToken::Range {
                    out: Box::new(out.clone()),
                    shift,
                    iteration,
                },
                self.bytes,
            );
        }
    }
}

struct BeamActor {
    window: usize,
    cfg: AutofocusConfig,
    /// Bytes of each output message ([`msg_bytes`]).
    bytes: u64,
}

impl Actor<AfToken> for BeamActor {
    fn fire(&mut self, inputs: Vec<AfToken>, ctx: &mut FireCtx<'_, AfToken>) {
        let mut range_out: [Option<RangeStageOut>; WINDOWS] = Default::default();
        let mut shift = 0.0f32;
        let mut iteration = 0usize;
        for (slot, tok) in inputs.into_iter().enumerate() {
            let AfToken::Range {
                out,
                shift: s,
                iteration: it,
            } = tok
            else {
                panic!("beam actor expects Range tokens");
            };
            range_out[slot] = Some(*out);
            shift = s;
            iteration = it;
        }
        let range_out = range_out.map(|o| o.expect("one input per range window"));
        let mut counts = OpCounts::default();
        let out = beam_stage(
            &range_out,
            self.window,
            shift,
            iteration,
            &self.cfg,
            &mut counts,
        );
        ctx.charge(&counts);
        ctx.send(0, AfToken::Beam(Box::new(out)), self.bytes);
    }
}

struct CorrActor {
    /// `(shift, accumulated criterion)` per hypothesis. The driver
    /// opens an entry before it feeds a hypothesis; every firing until
    /// the next one (one per iteration) accumulates into it.
    results: Rc<RefCell<Vec<(f32, f32)>>>,
}

impl Actor<AfToken> for CorrActor {
    fn fire(&mut self, inputs: Vec<AfToken>, ctx: &mut FireCtx<'_, AfToken>) {
        assert_eq!(
            inputs.len(),
            Stage::Corr.fan_in(),
            "the correlator joins every beam stream"
        );
        // Ports are block-major: `f-`'s beam windows, then `f+`'s.
        let mut blocks: [[Option<BeamStageOut>; WINDOWS]; BLOCKS] = Default::default();
        for (slot, tok) in inputs.into_iter().enumerate() {
            let AfToken::Beam(out) = tok else {
                panic!("correlator expects Beam tokens");
            };
            blocks[slot / WINDOWS][slot % WINDOWS] = Some(*out);
        }
        let [minus, plus] = blocks.map(|b| b.map(|o| o.expect("one input per beam window")));
        let mut counts = OpCounts::default();
        let partial = correlate_partial(&minus, &plus, &mut counts);
        ctx.charge(&counts);
        let mut results = self.results.borrow_mut();
        results.last_mut().expect("an open hypothesis").1 += partial;
    }
}

/// Run the workload on the declarative pipeline with `place`; the
/// chip emits its spans into `ctx.tracer`. The record carries one
/// phase per hypothesis (with the channels' high-water queue depth as
/// a per-phase metric) and the total actor firings — the pipeline's
/// activity — as the `firings` metric. The process network has no
/// fault-recovery story, so `ctx.faults` is never armed.
pub fn run(
    w: &AutofocusWorkload,
    params: EpiphanyParams,
    place: Placement,
    ctx: &RunContext,
) -> SweepRun {
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    // Placements use canonical E16G3 (4-column) ids; renumber onto
    // the chip's actual mesh, preserving coordinates and hop counts.
    let place = place.rebased(chip.mesh_dims().0, chip.mesh_dims().1);
    let mut net: Network<AfToken> = Network::new(chip);
    let results = Rc::new(RefCell::new(Vec::new()));

    // Initial block loads, as in the hand-written mapping.
    stage_blocks(net.chip_mut(), &place);

    // One actor per stage, wired along the pipeline's edges.
    let mut actors = [None; STAGES];
    for stage in stages() {
        let bytes = u64::from(msg_bytes(&w.config, stage));
        let behaviour: Box<dyn Actor<AfToken>> = match stage {
            Stage::Range { blk, win } => Box::new(RangeActor {
                block: if blk == 0 { w.f_minus } else { w.f_plus },
                window: win,
                cfg: w.config,
                bytes,
            }),
            Stage::Beam { win, .. } => Box::new(BeamActor {
                window: win,
                cfg: w.config,
                bytes,
            }),
            Stage::Corr => Box::new(CorrActor {
                results: results.clone(),
            }),
        };
        let id = net.add_actor(&stage.to_string(), place.core(stage), behaviour);
        actors[stage.role()] = Some(id);
    }
    let actor = |stage: Stage| actors[stage.role()].expect("every stage is an actor");
    for (from, to) in edges() {
        net.connect(actor(from), actor(to));
    }

    // Drive the sweep one hypothesis at a time: feed that hypothesis'
    // command tokens, let the network drain, write the criterion back —
    // one observable phase per hypothesis.
    let mut firings = 0u64;
    for h in 0..w.hypotheses {
        net.chip_mut().phase_begin("hypothesis");
        let shift = w.shift(h);
        results.borrow_mut().push((shift, 0.0));
        for iteration in 0..ITERATIONS {
            for stage in Stage::ALL {
                if let Stage::Range { blk, .. } = stage {
                    let shift = block_shift(blk, shift);
                    net.feed(actor(stage), AfToken::Cmd { shift, iteration });
                }
            }
        }
        firings += net.run();
        net.chip_mut()
            .write_external(place.corr, criterion_addr(h), 8);
        let peak = net.take_queue_peak();
        net.chip_mut().phase_metric("queue_peak", peak as f64);
        net.chip_mut().phase_end();
    }

    let mut record = net.chip().report(
        &format!("Autofocus / Epiphany, {STAGES} cores (streams network)"),
        STAGES,
    );
    record.set_metric("firings", firings as f64);
    let sweep = results.borrow().clone();
    SweepRun::new(record, sweep)
}

/// The static description of [`run`] with `place` on a `mesh`-sized
/// platform ([`PipelineProbe::net`]).
pub fn model(w: &AutofocusWorkload, place: &Placement, mesh: (u16, u16)) -> ProgramModel {
    PipelineProbe::net(w).model(place, mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofocus_mpmd;
    use crate::autofocus_seq::params;

    /// An untraced run.
    fn run(w: &AutofocusWorkload, params: EpiphanyParams, place: Placement) -> SweepRun {
        super::run(w, params, place, &RunContext::plain())
    }

    #[test]
    fn network_matches_the_hand_written_mapping_numerically() {
        let w = AutofocusWorkload::small();
        let net = run(&w, params(), Placement::neighbor());
        let hand = autofocus_mpmd::run(&w, params(), Placement::neighbor(), &RunContext::plain());
        assert_eq!(net.sweep.len(), hand.sweep.len());
        for ((s1, v1), (s2, v2)) in net.sweep.iter().zip(&hand.sweep) {
            assert!((s1 - s2).abs() < 1e-6, "shift grid mismatch: {s1} vs {s2}");
            assert!(
                (v1 - v2).abs() <= 1e-3 * v2.abs().max(1.0),
                "criterion mismatch at {s1}: {v1} vs {v2}"
            );
        }
        assert_eq!(net.best.0, hand.best.0);
    }

    #[test]
    fn network_timing_is_close_to_the_hand_written_mapping() {
        // The declarative version pays nothing material for its
        // abstraction: same compute, same placement, same message
        // sizes; scheduling differences stay within a small band.
        let w = AutofocusWorkload::paper();
        let net = run(&w, params(), Placement::neighbor());
        let hand = autofocus_mpmd::run(&w, params(), Placement::neighbor(), &RunContext::plain());
        let ratio = net.record.elapsed.seconds() / hand.record.elapsed.seconds();
        assert!(
            (0.7..1.4).contains(&ratio),
            "streams/hand-written time ratio {ratio:.2} out of band ({} vs {} ms)",
            net.record.millis(),
            hand.record.millis()
        );
    }

    #[test]
    fn firing_count_matches_the_dataflow() {
        let w = AutofocusWorkload::small();
        let net = run(&w, params(), Placement::neighbor());
        // Per (hypothesis, iteration): 6 range + 6 beam + 1 corr = 13.
        let rounds = w.hypotheses as u64 * 3;
        assert_eq!(net.record.metric("firings"), Some((13 * rounds) as f64));
    }

    #[test]
    fn recovers_the_injected_error() {
        let w = AutofocusWorkload::paper();
        let net = run(&w, params(), Placement::neighbor());
        assert!(
            (net.best.0 - w.true_shift).abs() <= 0.15,
            "found {} expected {}",
            net.best.0,
            w.true_shift
        );
    }
}
