//! The unified run harness (DESIGN.md §3 S12): every kernel × machine
//! pair in the repo runs through one entry point,
//! [`run`]`(mapping, workload, platform) -> `[`MappingRun`], and every
//! result is one serialisable [`desim::RunRecord`] with per-phase
//! observability.
//!
//! The three contracts:
//!
//! * [`Platform`] — a machine model (the Epiphany chip, the reference
//!   i7 core, the host's own threads) with its identity and datasheet
//!   power;
//! * [`Mapping`] — one way of running a kernel on a machine family
//!   (implementations live in `sar-epiphany`, next to their drivers);
//! * [`desim::RunRecord`] — the single result shape, stamped by [`run`]
//!   with the full kernel/mapping/platform identity.
//!
//! [`BenchHarness`] is the shared CLI runner the report binaries sit
//! on: common `--small`/`--json`/`--out` flags and one versioned JSON
//! document shape under `results/`.

#![forbid(unsafe_code)]

pub mod cli;
pub mod diag;
pub mod mapping;
pub mod model;
pub mod placement;
pub mod platform;
pub mod workload;

pub use cli::{BenchHarness, Flag};
pub use desim::{PhaseRecord, RunRecord, RUN_RECORD_VERSION};
pub use diag::{Diagnostic, Report, Severity};
pub use faultsim::{FaultPlan, FaultState};
pub use mapping::{
    run, run_ctx, run_traced, stamp, HarnessError, ImageRun, Mapping, MappingRun, RunContext,
    SweepRun,
};
pub use model::{
    BarrierDecl, Bound, BufferDecl, ChannelDecl, FlagDecl, PhaseDecl, ProgramModel, TrafficDecl,
    WorkDecl,
};
pub use placement::Placement;
pub use platform::{
    all_platforms, platform_named, EpiphanyPlatform, HostPlatform, Platform, PlatformKind,
    RefCpuPlatform, EPIPHANY_POWER_W, INTEL_POWER_W,
};
pub use workload::{AutofocusWorkload, FfbpWorkload, RdaWorkload, Workload};
