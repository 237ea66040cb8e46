//! Deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the timing substrate for the machine models in this
//! workspace (`epiphany`, `refcpu`). It provides:
//!
//! * a [`Cycle`] simulation clock (one tick = one clock cycle of the
//!   modelled clock domain),
//! * FIFO-arbitrated shared resources with a fixed service rate
//!   ([`resource::FifoResource`]), used to model links, memory ports and
//!   DMA channels,
//! * lightweight statistics: counters, histograms and the phase
//!   timeline ([`stats`]).
//!
//! The kernel is intentionally *not* a coroutine framework: the machine
//! models in this workspace are transaction-level and batch pure compute
//! analytically, so a simple "earliest deadline first" timeline with
//! explicit resource reservations is both faster and easier to test than
//! a process-interleaving scheduler.

#![forbid(unsafe_code)]

pub mod json;
pub mod power;
pub mod record;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod work;

pub use json::Json;
pub use power::{PhaseAttribution, PhasePower, PowerEpoch, PowerRecord, PowerTimeline};
pub use record::{
    EnergyRecord, FaultRecord, LinkLoad, MeshHeatmap, MeshUtilization, PhaseRecord, RunRecord,
    RUN_RECORD_VERSION,
};
pub use resource::{FifoResource, Reservation};
pub use rng::SmallRng;
pub use time::{Cycle, Frequency, TimeSpan};
pub use trace::{chrome_trace, MeshKind, TraceEvent, Tracer, Track};
pub use work::OpCounts;
