//! The autofocus criterion calculation (Section II-A of the paper).
//!
//! When GPS data is insufficient, the flight-path compensation is found
//! by testing several candidate compensations before each subaperture
//! merge: each candidate shifts one subimage relative to the other
//! (a path error over a small subimage is well approximated by a
//! linear shift in the data), the shifted images are resampled with
//! cubic (Neville) interpolation along tilted paths — in the range
//! direction and then the beam direction — and the candidate whose
//! resampled images correlate best wins:
//!
//! `criterion = sum |f-(r, fi)|^2 * |f+(r, fi)|^2`       (eq. 6)
//!
//! The computation is organised exactly as the paper's Figure 8
//! dataflow: a *range interpolation* stage (three 4-column windows), a
//! *beam interpolation* stage (three 4-row windows), and a
//! *correlation + summation* stage, iterated three times to cover the
//! whole 6x6 pixel block. [`criterion_firings`] walks that dataflow
//! once and reports every [`Stage`] firing, so the MPMD mapping can
//! place each stage on its own core; [`Stage::ALL`] and the counts
//! beside it are the one statement of the pipeline's shape.

pub mod block;
pub mod criterion;
pub mod integrated;
pub mod search;

pub use block::Block6;
pub use criterion::{
    beam_stage, block_shift, correlate_partial, criterion_firings, focus_criterion, range_stage,
    AutofocusConfig, Stage, BLOCKS, ITERATIONS, STAGES, WINDOWS,
};
pub use integrated::{ffbp_with_autofocus, IntegratedConfig, IntegratedRun};
pub use search::{best_shift, sweep_criterion};
