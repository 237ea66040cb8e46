//! The actor network and its data-driven scheduler.

use std::collections::VecDeque;

use desim::{Cycle, OpCounts};
use epiphany::chip::CoreId;
use epiphany::Chip;

/// Index of an actor in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActorId(usize);

/// Index of a channel in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(usize);

/// Behaviour of one process. `T` is the network's token type.
pub trait Actor<T> {
    /// Consume one token from every input port. Charge compute through
    /// [`FireCtx::charge`] and emit tokens with [`FireCtx::send`]
    /// (output ports are numbered in [`Network::connect`] order).
    fn fire(&mut self, inputs: Vec<T>, ctx: &mut FireCtx<'_, T>);
}

/// Firing context handed to an actor.
pub struct FireCtx<'a, T> {
    chip: &'a mut Chip,
    core: CoreId,
    outputs: &'a [ChannelId],
    emitted: Vec<(ChannelId, T, u64)>,
}

impl<T> FireCtx<'_, T> {
    /// Charge a compute region to the actor's core.
    pub fn charge(&mut self, ops: &OpCounts) {
        self.chip.compute(self.core, ops);
    }

    /// Emit `token` (`bytes` long on the wire) on output port `port`.
    ///
    /// # Panics
    /// If `port` exceeds the actor's output arity.
    pub fn send(&mut self, port: usize, token: T, bytes: u64) {
        assert!(
            port < self.outputs.len(),
            "actor has {} output ports, tried {port}",
            self.outputs.len()
        );
        self.emitted.push((self.outputs[port], token, bytes));
    }

    /// The core this actor is placed on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Current simulated time on this actor's core.
    pub fn now(&self) -> Cycle {
        self.chip.now(self.core)
    }
}

struct ActorSlot<T> {
    name: String,
    core: CoreId,
    behaviour: Box<dyn Actor<T>>,
    inputs: Vec<ChannelId>,
    outputs: Vec<ChannelId>,
    /// Synthetic channel carrying externally fed tokens (sources only).
    source: Option<ChannelId>,
    firings: u64,
}

struct ChannelState<T> {
    to: ActorId,
    /// Tokens with their data-ready times at the consumer.
    queue: VecDeque<(Cycle, T)>,
    tokens_carried: u64,
    /// Deepest the queue has grown (high-water mark).
    max_depth: u64,
}

impl<T> ChannelState<T> {
    fn push(&mut self, ready: Cycle, token: T) {
        self.queue.push_back((ready, token));
        self.max_depth = self.max_depth.max(self.queue.len() as u64);
    }
}

/// A placed process network over a chip model.
pub struct Network<T> {
    chip: Chip,
    actors: Vec<ActorSlot<T>>,
    channels: Vec<ChannelState<T>>,
}

impl<T> Network<T> {
    /// Empty network over `chip`.
    pub fn new(chip: Chip) -> Network<T> {
        Network {
            chip,
            actors: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Place an actor on `core`.
    pub fn add_actor(&mut self, name: &str, core: CoreId, behaviour: Box<dyn Actor<T>>) -> ActorId {
        assert!(core < self.chip.cores(), "core {core} outside the chip");
        self.actors.push(ActorSlot {
            name: name.to_string(),
            core,
            behaviour,
            inputs: Vec::new(),
            outputs: Vec::new(),
            source: None,
            firings: 0,
        });
        ActorId(self.actors.len() - 1)
    }

    /// Connect `from` to `to` with a new channel; it becomes the next
    /// output port of `from` and the next input port of `to`.
    pub fn connect(&mut self, from: ActorId, to: ActorId) -> ChannelId {
        let id = ChannelId(self.channels.len());
        self.channels.push(ChannelState {
            to,
            queue: VecDeque::new(),
            tokens_carried: 0,
            max_depth: 0,
        });
        self.actors[from.0].outputs.push(id);
        self.actors[to.0].inputs.push(id);
        id
    }

    /// Inject an external token directly into `actor` (which must have
    /// no input channels — a source).
    pub fn feed(&mut self, actor: ActorId, token: T) {
        let slot = &self.actors[actor.0];
        assert!(
            slot.source.is_some() || slot.inputs.is_empty(),
            "feed() is for source actors; '{}' has channel inputs",
            slot.name
        );
        // Sources get a synthetic self-channel on first feed.
        let chan = if let Some(c) = slot.source {
            c
        } else {
            let id = ChannelId(self.channels.len());
            self.channels.push(ChannelState {
                to: actor,
                queue: VecDeque::new(),
                tokens_carried: 0,
                max_depth: 0,
            });
            // Input-only: never an output port of the actor.
            self.actors[actor.0].inputs.push(id);
            self.actors[actor.0].source = Some(id);
            id
        };
        let ready = self.chip.now(self.actors[actor.0].core);
        self.channels[chan.0].push(ready, token);
    }

    /// Whether `actor` can fire now.
    fn fireable(&self, idx: usize) -> bool {
        let a = &self.actors[idx];
        !a.inputs.is_empty()
            && a.inputs
                .iter()
                .all(|c| !self.channels[c.0].queue.is_empty())
    }

    /// Run until no actor can fire. Returns the number of firings.
    pub fn run(&mut self) -> u64 {
        let mut total = 0u64;
        while let Some(idx) = (0..self.actors.len()).find(|&i| self.fireable(i)) {
            total += 1;
            self.fire_one(idx);
        }
        total
    }

    fn fire_one(&mut self, idx: usize) {
        // Pop one token per input port; the actor blocks until the
        // latest one has arrived (the implicit flag wait).
        let input_chans: Vec<ChannelId> = self.actors[idx].inputs.clone();
        let mut tokens = Vec::with_capacity(input_chans.len());
        let mut latest = Cycle::ZERO;
        for c in &input_chans {
            let (ready, tok) = self.channels[c.0]
                .queue
                .pop_front()
                .expect("fireable checked non-empty");
            latest = latest.max(ready);
            tokens.push(tok);
        }
        let core = self.actors[idx].core;
        self.chip.wait_flag(core, latest);

        let outputs = self.actors[idx].outputs.clone();
        let mut ctx = FireCtx {
            chip: &mut self.chip,
            core,
            outputs: &outputs,
            emitted: Vec::new(),
        };
        // Temporarily take the behaviour out to satisfy the borrow
        // checker (the actor may not touch the network, only the ctx).
        let mut behaviour =
            std::mem::replace(&mut self.actors[idx].behaviour, Box::new(InertActor));
        behaviour.fire(tokens, &mut ctx);
        let emitted = ctx.emitted;
        self.actors[idx].behaviour = behaviour;
        self.actors[idx].firings += 1;

        for (chan, token, bytes) in emitted {
            let dst_actor = self.channels[chan.0].to;
            let dst_core = self.actors[dst_actor.0].core;
            let ready = self.chip.write_remote(core, dst_core, bytes);
            self.channels[chan.0].push(ready, token);
            self.channels[chan.0].tokens_carried += 1;
        }
    }

    /// Times the network has fired `actor`.
    pub fn firings(&self, actor: ActorId) -> u64 {
        self.actors[actor.0].firings
    }

    /// Tokens carried by `channel` so far.
    pub fn tokens_carried(&self, channel: ChannelId) -> u64 {
        self.channels[channel.0].tokens_carried
    }

    /// Deepest any channel queue has grown since construction (or the
    /// last [`Network::take_queue_peak`]).
    pub fn queue_peak(&self) -> u64 {
        self.channels.iter().map(|c| c.max_depth).max().unwrap_or(0)
    }

    /// Return [`Network::queue_peak`] and reset every channel's
    /// high-water mark to its current depth (per-phase sampling).
    pub fn take_queue_peak(&mut self) -> u64 {
        let peak = self.queue_peak();
        for c in &mut self.channels {
            c.max_depth = c.queue.len() as u64;
        }
        peak
    }

    /// Actor name (diagnostics).
    pub fn name(&self, actor: ActorId) -> &str {
        &self.actors[actor.0].name
    }

    /// The underlying chip (time/energy reports).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Mutable chip access (e.g. initial DMA loads before running).
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }
}

/// Placeholder behaviour swapped in while an actor is firing.
struct InertActor;
impl<T> Actor<T> for InertActor {
    fn fire(&mut self, _inputs: Vec<T>, _ctx: &mut FireCtx<'_, T>) {
        unreachable!("inert placeholder must never fire");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiphany::EpiphanyParams;

    fn chip() -> Chip {
        Chip::e16g3(EpiphanyParams::default())
    }

    struct AddOne;
    impl Actor<u64> for AddOne {
        fn fire(&mut self, inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
            ctx.charge(&OpCounts {
                ialu: 1,
                ..OpCounts::default()
            });
            ctx.send(0, inputs[0] + 1, 8);
        }
    }

    struct Collect(Vec<u64>);
    impl Actor<u64> for Collect {
        fn fire(&mut self, inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
            ctx.charge(&OpCounts {
                ialu: 1,
                ..OpCounts::default()
            });
            self.0.push(inputs.into_iter().sum());
        }
    }

    #[test]
    fn tokens_flow_through_a_pipeline_in_order() {
        let mut net = Network::new(chip());
        let a = net.add_actor("inc1", 0, Box::new(AddOne));
        let b = net.add_actor("inc2", 1, Box::new(AddOne));
        let sink = net.add_actor("sink", 2, Box::new(Collect(Vec::new())));
        net.connect(a, b);
        net.connect(b, sink);
        for v in [10u64, 20, 30] {
            net.feed(a, v);
        }
        let firings = net.run();
        assert_eq!(firings, 9); // 3 tokens x 3 actors
        assert_eq!(net.firings(sink), 3);
        assert!(net.chip().elapsed() > Cycle::ZERO);
    }

    struct CollectProbe(std::rc::Rc<std::cell::RefCell<Vec<u64>>>);
    impl Actor<u64> for CollectProbe {
        fn fire(&mut self, inputs: Vec<u64>, _ctx: &mut FireCtx<'_, u64>) {
            self.0.borrow_mut().push(inputs.into_iter().sum());
        }
    }

    #[test]
    fn results_are_correct_and_ordered() {
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let a = net.add_actor("inc", 0, Box::new(AddOne));
        let sink = net.add_actor("sink", 1, Box::new(CollectProbe(results.clone())));
        net.connect(a, sink);
        for v in [1u64, 2, 3, 4] {
            net.feed(a, v);
        }
        net.run();
        assert_eq!(*results.borrow(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn join_waits_for_both_producers() {
        // Two producers on different cores feed one consumer; the
        // consumer fires exactly min(tokens_left, tokens_right) times.
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let left = net.add_actor("left", 0, Box::new(AddOne));
        let right = net.add_actor("right", 5, Box::new(AddOne));
        let join = net.add_actor("join", 10, Box::new(CollectProbe(results.clone())));
        net.connect(left, join);
        net.connect(right, join);
        net.feed(left, 100);
        net.feed(left, 200);
        net.feed(right, 1);
        net.run();
        // Only one pair available: (101) + (2).
        assert_eq!(*results.borrow(), vec![103]);
        assert_eq!(net.firings(join), 1);
    }

    #[test]
    fn communication_advances_simulated_time() {
        struct Heavy;
        impl Actor<u64> for Heavy {
            fn fire(&mut self, inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
                ctx.charge(&OpCounts {
                    fmas: 10_000,
                    ..OpCounts::default()
                });
                ctx.send(0, inputs[0], 4096);
            }
        }
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let p = net.add_actor("heavy", 0, Box::new(Heavy));
        let s = net.add_actor("sink", 15, Box::new(CollectProbe(results.clone())));
        net.connect(p, s);
        net.feed(p, 7);
        net.run();
        // Compute (10k FMA) + 4 KB across six hops must both show.
        let elapsed = net.chip().elapsed();
        assert!(elapsed.raw() > 10_000, "elapsed {elapsed}");
        assert_eq!(net.tokens_carried(ChannelId(0)), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut net = Network::new(chip());
            let a = net.add_actor("a", 0, Box::new(AddOne));
            let b = net.add_actor("b", 3, Box::new(AddOne));
            let s = net.add_actor("s", 12, Box::new(Collect(Vec::new())));
            net.connect(a, b);
            net.connect(b, s);
            for v in 0..20u64 {
                net.feed(a, v);
            }
            net.run();
            net.chip().elapsed()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "output ports")]
    fn sending_on_a_missing_port_panics() {
        struct Bad;
        impl Actor<u64> for Bad {
            fn fire(&mut self, _inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
                ctx.send(0, 0, 8); // no outputs connected
            }
        }
        let mut net = Network::new(chip());
        let a = net.add_actor("bad", 0, Box::new(Bad));
        net.feed(a, 1);
        net.run();
    }

    #[test]
    #[should_panic(expected = "source actors")]
    fn feeding_a_non_source_panics() {
        let mut net = Network::new(chip());
        let a = net.add_actor("a", 0, Box::new(AddOne));
        let b = net.add_actor("b", 1, Box::new(AddOne));
        net.connect(a, b);
        net.feed(b, 1);
    }

    #[test]
    fn queue_depth_high_water_is_tracked() {
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let a = net.add_actor("inc", 0, Box::new(AddOne));
        let sink = net.add_actor("sink", 1, Box::new(CollectProbe(results.clone())));
        net.connect(a, sink);
        for v in 0..5u64 {
            net.feed(a, v);
        }
        // All five feeds queue on the synthetic source channel.
        assert_eq!(net.queue_peak(), 5);
        net.run();
        assert_eq!(net.take_queue_peak(), 5);
        // After the drain every queue is empty, so the reset peak is 0.
        assert_eq!(net.queue_peak(), 0);
    }

    #[test]
    fn names_and_cores_are_tracked() {
        let mut net: Network<u64> = Network::new(chip());
        let a = net.add_actor("range0", 4, Box::new(AddOne));
        assert_eq!(net.name(a), "range0");
    }
}
