//! A CSP-style process-network layer over the Epiphany machine model.
//!
//! The paper closes on programmability: the MPMD autofocus mapping
//! needed a hand-written C program per core plus manual flag
//! synchronisation, and the authors point to their occam-pi work as
//! the way to raise the abstraction level "while not compromising the
//! performance benefits". This crate is that idea in Rust: a network
//! of named *actors* placed on cores, connected by typed point-to-point
//! *channels*; an actor fires when every input port holds a token,
//! charges its compute to its core, and sends output tokens that ride
//! the modelled mesh as posted writes. Synchronisation (the flag
//! polling of the hand-written version) is implicit in the firing rule.
//!
//! Semantics are those of a Kahn process network restricted to
//! one-token-per-port firings (static dataflow): deterministic by
//! construction, matching the deterministic machine model underneath.
//!
//! ```
//! use desim::OpCounts;
//! use epiphany::{Chip, EpiphanyParams};
//! use streams::{Actor, FireCtx, Network};
//!
//! struct Doubler;
//! impl Actor<u64> for Doubler {
//!     fn fire(&mut self, inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
//!         ctx.charge(&OpCounts { ialu: 1, ..OpCounts::default() });
//!         ctx.send(0, inputs[0] * 2, 8);
//!     }
//! }
//!
//! struct Sink(Vec<u64>);
//! impl Actor<u64> for Sink {
//!     fn fire(&mut self, inputs: Vec<u64>, _ctx: &mut FireCtx<'_, u64>) {
//!         self.0.push(inputs[0]);
//!     }
//! }
//!
//! let mut net = Network::new(Chip::e16g3(EpiphanyParams::default()));
//! let doubler = net.add_actor("doubler", 0, Box::new(Doubler));
//! let sink = net.add_actor("sink", 1, Box::new(Sink(Vec::new())));
//! net.connect(doubler, sink);
//! net.feed(doubler, 21);
//! net.run();
//! ```

#![forbid(unsafe_code)]

pub mod network;

pub use network::{Actor, ActorId, ChannelId, FireCtx, Network};
