//! Range–Doppler Algorithm (RDA) image formation.
//!
//! The classic transpose-heavy SAR formation pipeline, as a second
//! kernel family next to FFBP:
//!
//! 1. **Range compression** — each raw echo row is matched-filtered
//!    against the transmitted chirp (frequency domain, via the in-tree
//!    radix-2 FFT).
//! 2. **Corner turn + azimuth FFT** — the matrix is transposed from
//!    pulse-major to bin-major and every range bin's pulse history is
//!    transformed to the Doppler domain. On the manycore mappings this
//!    is the phase whose dominant cost is eMesh/SDRAM transpose
//!    traffic, not arithmetic.
//! 3. **Range-cell migration correction (RCMC)** — in the
//!    range–Doppler domain a target's curved range history collapses
//!    to a Doppler-dependent shift `delta(bin, m)`; each sample is
//!    gathered from `bin + delta` (nearest-neighbour).
//! 4. **Azimuth compression** — per range bin, the Doppler spectrum is
//!    multiplied by the conjugate FFT of the azimuth reference
//!    (hyperbolic phase history at that range) and inverse-transformed
//!    back to a focused azimuth line.
//!
//! Every stage kernel takes a `&mut OpCounts` and accrues a
//! *data-independent* operation ledger: the counts depend only on the
//! geometry and configuration, never on sample values or on which
//! pulse or bin a unit is. [`rda`] runs the stages one after another,
//! each stage's units spread over the host's threads, and sums their
//! ledgers; a machine driver or a `sarlint` program model prices one
//! ledger per stage, probed by running each stage's kernels once
//! (`sar_epiphany::rda_seq::probe`), so declared work is exact by
//! construction.
//!
//! On the host, [`rda`] allocates two image-sized matrices and nothing
//! per unit: the focused lines reuse the range-compressed matrix and
//! the image reuses the range–Doppler one, every unit works in its
//! output row (the public per-unit functions are wrappers over these
//! in-place forms, with the same ledgers), and both corner turns move
//! tiles of 16 rows against 16 contiguous samples of each row read.
//! [`azimuth_reference`] evaluates half the aperture and mirrors it,
//! exactly: `platform_y(n − 1 − k)` is `−platform_y(k)` in f32, so the
//! two pulses see the same `y²`. None of this moves a pixel or a
//! ledger count.

mod pipeline;
mod stages;

pub use pipeline::{rda, rda_with, RdaConfig, RdaRun};
pub use stages::{
    azimuth_compress, azimuth_reference, doppler_spectrum, fft_ops, ifft_ops, range_compress_row,
    rcmc_correct, rcmc_shift, MigrationTable, RCMC_MAX_SIN,
};
