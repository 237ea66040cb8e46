//! Transaction-level model of the Adapteva eMesh network-on-chip.
//!
//! The Epiphany eMesh is a 2D mesh with four duplex links per node and
//! *three* physically separate mesh structures (E16G3 datasheet, "eGrid"):
//!
//! * **cMesh** — on-chip write transactions (posted, 8 bytes/cycle/link),
//! * **rMesh** — read *requests* (one transaction per cycle; the reply
//!   data returns as a write on the cMesh),
//! * **xMesh** — transactions destined off chip, draining into the
//!   east-edge eLink on the evaluation board.
//!
//! Routing is dimension-ordered (X then Y) with a single-cycle routing
//! latency per hop. The hardware arbitrates each node's five
//! directions round-robin; this crate does not model that grant —
//! it models each directed link as a FIFO server
//! ([`desim::FifoResource`]), so same-cycle conflicts resolve in
//! request order. Contention, serialization and per-hop latency are
//! captured at transaction granularity, which is the level the paper's
//! arguments live at (neighbour-only mapping, the 64x on-chip/off-chip
//! bandwidth ratio, congestion at the correlator core).

#![forbid(unsafe_code)]

pub mod network;
pub mod routing;
pub mod topology;

pub use network::{EMesh, MeshNetwork, TransferResult};
pub use routing::{route_xy, Direction};
pub use topology::{Coord, Mesh2D, NodeId};
