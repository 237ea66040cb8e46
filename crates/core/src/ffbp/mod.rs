//! Fast factorized back-projection (FFBP).
//!
//! The whole aperture starts as many short subapertures with low
//! angular resolution; pairs (merge base 2) are iteratively combined —
//! doubling angular resolution each iteration — until one subaperture
//! spans the full aperture at full resolution (Figure 3 of the paper).
//! Element combining follows eq. (5) with the child observation
//! coordinates from eqs. (1)–(4).

pub mod grid;
pub mod interp;
pub mod merge;
pub mod pipeline;

pub use grid::{PolarGrid, Stage, Subaperture};
pub use interp::InterpKind;
pub use merge::{merge_group, merge_pair, merge_rows, Hit, MergeRow, StagePlans, StageRows};
pub use pipeline::{ffbp, merge_stages, stage0, FfbpConfig, FfbpRun};
