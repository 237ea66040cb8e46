//! Memory subsystem models shared by the machine models.
//!
//! * [`address`] — the Epiphany 32-bit global address map (core mesh
//!   coordinates live in the top address bits; everything is memory
//!   mapped).
//! * [`sram`] — a core's 32 KB local store: four 8 KB single-ported
//!   banks; concurrent core/DMA/mesh accesses to the same bank conflict.
//! * [`sdram`] — board SDRAM behind the eLink: shared bandwidth, access
//!   latency, and a simple per-bank open-row model.
//! * [`cache`] — a set-associative write-back LRU cache (functional).
//! * [`prefetch`] — a sequential stream prefetcher (the mechanism the
//!   paper credits for the i7's FFBP advantage).
//! * [`hierarchy`] — L1/L2/L3 + DRAM hierarchy with per-level hit
//!   costs; used by the `refcpu` baseline model.

#![forbid(unsafe_code)]

pub mod address;
pub mod cache;
pub mod hierarchy;
pub mod prefetch;
pub mod sdram;
pub mod sram;

pub use address::GlobalAddr;
pub use cache::{Cache, CacheAccess};
pub use hierarchy::{HierarchyParams, LevelStats, MemoryHierarchy};
pub use prefetch::{PrefetchRun, StreamPrefetcher};
pub use sdram::{Sdram, SdramParams};
pub use sram::{LocalStore, SramParams};
