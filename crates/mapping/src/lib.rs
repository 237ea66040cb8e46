//! The paper's contribution: mapping the two SAR kernels onto the
//! Epiphany machine model, plus the reference-CPU runs and the Table I
//! harness.
//!
//! Six configurations, mirroring Table I:
//!
//! | kernel | machine | driver |
//! |---|---|---|
//! | FFBP | Intel i7 model, 1 core | [`ffbp_ref`] |
//! | FFBP | Epiphany, 1 core | [`ffbp_seq`] |
//! | FFBP | Epiphany, 16 cores SPMD | [`ffbp_spmd`] |
//! | autofocus | Intel i7 model, 1 core | [`autofocus_ref`] |
//! | autofocus | Epiphany, 1 core | [`autofocus_seq`] |
//! | autofocus | Epiphany, 13 cores MPMD | [`autofocus_mpmd`] |
//!
//! Plus the Range–Doppler kernel family grown on top of the same
//! harness: [`rda_seq`] (one Epiphany core) and [`rda_spmd`] (full
//! mesh, with an explicit tiled corner-turn phase).
//!
//! Every driver runs the *same functional kernels* from `sar-core`
//! (results are identical across machines — the paper's Fig. 7c/7d
//! observation) while feeding operation counts and memory traffic to
//! the machine model under evaluation.

#![forbid(unsafe_code)]

pub mod autofocus_mpmd;
pub mod autofocus_net;
pub mod autofocus_ref;
pub mod autofocus_seq;
pub mod ffbp_ref;
pub mod ffbp_seq;
pub mod ffbp_spmd;
pub mod harness_impls;
pub mod layout;
mod merge_walk;
pub mod pipeline;
pub mod rda_seq;
pub mod rda_spmd;
mod spmd;
pub mod table1;

pub use harness_impls::{all_mappings, configured, mapping_named, selected, Configured};

use desim::Frequency;

/// A machine's clock as its record label states it: `1 GHz`,
/// `2.67 GHz`, `400 MHz` — at most two decimals, trailing zeros dropped.
pub(crate) fn clock_label(clock: Frequency) -> String {
    let (value, unit) = if clock.hz() >= 1e9 {
        (clock.hz() / 1e9, "GHz")
    } else {
        (clock.hz() / 1e6, "MHz")
    };
    let digits = format!("{value:.2}");
    format!(
        "{} {unit}",
        digits.trim_end_matches('0').trim_end_matches('.')
    )
}
pub use table1::{table1, Table1, Table1Row};
// `benchmark/` names these two workloads through this crate.
pub use sim_harness::{AutofocusWorkload, FfbpWorkload};
