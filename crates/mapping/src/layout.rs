//! Memory layout: external SDRAM buffers and local-store bank use.
//!
//! FFBP ping-pongs two full-image buffers in the 32 MB external
//! window (each stage reads the previous stage's buffer and writes its
//! own). Per core, the paper's implementation keeps code, stack and
//! working variables in the two lower local banks and prefetches
//! contributing subaperture data into the two *upper* 8 KB banks —
//! one child beam per bank (a 1001-sample beam is 8,008 bytes).

use memsim::GlobalAddr;
use sar_core::complex::c32;
use sim_harness::{FfbpWorkload, RdaWorkload};

/// Bytes per complex pixel.
pub const PIXEL_BYTES: u64 = std::mem::size_of::<c32>() as u64;

/// Local bank receiving child-A prefetches.
pub const BANK_CHILD_A: usize = 2;
/// Local bank receiving child-B prefetches.
pub const BANK_CHILD_B: usize = 3;

/// The two ping-pong image buffers in external memory.
#[derive(Debug, Clone, Copy)]
pub struct ExternalLayout {
    /// Range bins per beam (row length).
    pub num_bins: u32,
    /// Base offset of buffer 0 in the external window.
    pub base0: u32,
    /// Base offset of buffer 1.
    pub base1: u32,
}

impl ExternalLayout {
    /// Layout for an image of `num_beams_total x num_bins` pixels
    /// (the total beam count across all subapertures of a stage is
    /// constant, so both buffers are image-sized).
    pub fn new(num_beams_total: u32, num_bins: u32) -> ExternalLayout {
        let image_bytes = num_beams_total as u64 * num_bins as u64 * PIXEL_BYTES;
        let half = memsim::address::EXTERNAL_SIZE / 2;
        assert!(
            image_bytes <= half as u64,
            "image of {image_bytes} B does not fit a {half} B ping-pong buffer"
        );
        ExternalLayout {
            num_bins,
            base0: 0,
            base1: half,
        }
    }

    /// The layout every FFBP driver and model gives `w`: one row per
    /// pulse, one pixel per range bin.
    pub fn of(w: &FfbpWorkload) -> ExternalLayout {
        ExternalLayout::new(w.geom.num_pulses as u32, w.geom.num_bins as u32)
    }

    /// Base of the buffer holding stage `stage` data (stage 0 = raw
    /// pulses in buffer 0; each merge flips buffers).
    pub fn stage_base(&self, stage: u32) -> u32 {
        if stage.is_multiple_of(2) {
            self.base0
        } else {
            self.base1
        }
    }

    /// External address of `(global_beam, bin)` in the stage buffer,
    /// where `global_beam` numbers beams across all subapertures of the
    /// stage (subaperture-major).
    pub fn addr(&self, stage: u32, global_beam: u32, bin: u32) -> GlobalAddr {
        debug_assert!(bin < self.num_bins);
        let off = self.stage_base(stage) as u64
            + (global_beam as u64 * self.num_bins as u64 + bin as u64) * PIXEL_BYTES;
        GlobalAddr::external(off as u32)
    }

    /// Bytes of one beam (one row).
    pub fn beam_bytes(&self) -> u64 {
        self.num_bins as u64 * PIXEL_BYTES
    }
}

/// SDRAM layout for the RDA pipeline: three disjoint regions.
///
/// * **raw** — the uncompressed echo matrix, `pulses x echo_len`,
///   pulse-major (read-only input),
/// * **B** — a `pulses x bins`-sized working buffer: holds the
///   range-compressed matrix pulse-major, later the range–Doppler
///   matrix bin-major,
/// * **C** — a second working buffer of the same size: the corner-
///   turned (transposed) matrix, later the focused image bin-major.
///
/// Every phase reads one region and writes a *different* one, so a
/// phase is idempotent and can be redone after a core halt
/// (checkpoint/restart, like the FFBP SPMD mapping).
#[derive(Debug, Clone, Copy)]
pub struct RdaLayout {
    /// Pulse count (also the azimuth FFT length).
    pub pulses: u32,
    /// Range bins per pulse after compression.
    pub bins: u32,
    /// Fast-time samples per raw pulse (`bins + chirp samples`).
    pub echo_len: u32,
    base_raw: u32,
    base_b: u32,
    base_c: u32,
}

impl RdaLayout {
    /// Layout for a `pulses x bins` image formed from `pulses x
    /// echo_len` raw echoes.
    pub fn new(pulses: u32, bins: u32, echo_len: u32) -> RdaLayout {
        assert!(echo_len >= bins, "raw rows carry at least num_bins samples");
        let raw_bytes = pulses as u64 * echo_len as u64 * PIXEL_BYTES;
        let image_bytes = pulses as u64 * bins as u64 * PIXEL_BYTES;
        let total = raw_bytes + 2 * image_bytes;
        assert!(
            total <= memsim::address::EXTERNAL_SIZE as u64,
            "RDA working set of {total} B does not fit the external window"
        );
        RdaLayout {
            pulses,
            bins,
            echo_len,
            base_raw: 0,
            base_b: raw_bytes as u32,
            base_c: (raw_bytes + image_bytes) as u32,
        }
    }

    /// The layout every RDA driver and model gives `w`.
    pub fn of(w: &RdaWorkload) -> RdaLayout {
        RdaLayout::new(
            w.geom.num_pulses as u32,
            w.geom.num_bins as u32,
            w.raw.cols() as u32,
        )
    }

    /// External address of raw sample `(pulse, sample)`.
    pub fn raw_addr(&self, pulse: u32, sample: u32) -> GlobalAddr {
        debug_assert!(pulse < self.pulses && sample < self.echo_len);
        let off = self.base_raw as u64
            + (pulse as u64 * self.echo_len as u64 + sample as u64) * PIXEL_BYTES;
        GlobalAddr::external(off as u32)
    }

    /// Address of `(pulse, bin)` in region B viewed pulse-major (the
    /// range-compressed matrix).
    pub fn rc_addr(&self, pulse: u32, bin: u32) -> GlobalAddr {
        debug_assert!(pulse < self.pulses && bin < self.bins);
        let off = self.base_b as u64 + (pulse as u64 * self.bins as u64 + bin as u64) * PIXEL_BYTES;
        GlobalAddr::external(off as u32)
    }

    /// Address of `(bin, doppler)` in region B viewed bin-major (the
    /// range–Doppler matrix; same bytes as [`Self::rc_addr`], different
    /// lifetime).
    pub fn rd_addr(&self, bin: u32, m: u32) -> GlobalAddr {
        debug_assert!(bin < self.bins && m < self.pulses);
        let off = self.base_b as u64 + (bin as u64 * self.pulses as u64 + m as u64) * PIXEL_BYTES;
        GlobalAddr::external(off as u32)
    }

    /// Address of `(bin, pulse)` in region C viewed bin-major (the
    /// corner-turned matrix, later the focused image).
    pub fn ct_addr(&self, bin: u32, pulse: u32) -> GlobalAddr {
        debug_assert!(bin < self.bins && pulse < self.pulses);
        let off =
            self.base_c as u64 + (bin as u64 * self.pulses as u64 + pulse as u64) * PIXEL_BYTES;
        GlobalAddr::external(off as u32)
    }

    /// Bytes of one raw pulse row.
    pub fn raw_row_bytes(&self) -> u64 {
        self.echo_len as u64 * PIXEL_BYTES
    }

    /// Bytes of one range-compressed row (pulse-major region B).
    pub fn rc_row_bytes(&self) -> u64 {
        self.bins as u64 * PIXEL_BYTES
    }

    /// Bytes of one bin-major row (one full pulse history).
    pub fn col_bytes(&self) -> u64 {
        self.pulses as u64 * PIXEL_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_image_fits_ping_pong() {
        let l = ExternalLayout::new(1024, 1001);
        assert_eq!(l.beam_bytes(), 8008);
        assert_ne!(l.stage_base(0), l.stage_base(1));
        assert_eq!(l.stage_base(0), l.stage_base(2));
        let a = l.addr(0, 0, 0);
        let b = l.addr(0, 1, 0);
        assert_eq!((b.0 - a.0) as u64, l.beam_bytes());
        assert!(l.addr(1, 1023, 1000).is_external());
    }

    #[test]
    fn two_beams_are_the_papers_two_pulse_figure() {
        // Two pulses of subaperture data = 2 x 1001 complex = 16,016
        // bytes — the number the paper prefetches into two local banks.
        assert_eq!(2 * ExternalLayout::new(1024, 1001).beam_bytes(), 16_016);
    }

    #[test]
    fn beam_fits_one_bank() {
        let l = ExternalLayout::new(1024, 1001);
        assert!(l.beam_bytes() <= 8 * 1024, "a beam must fit one 8 KB bank");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_image_rejected() {
        let _ = ExternalLayout::new(4096, 4001);
    }

    #[test]
    fn rda_regions_are_disjoint_and_fit_at_paper_scale() {
        let l = RdaLayout::new(1024, 1001, 1129);
        assert_eq!(l.raw_row_bytes(), 9032);
        assert_eq!(l.rc_row_bytes(), 8008);
        assert_eq!(l.col_bytes(), 8192);
        // Region boundaries: last raw byte < first B byte < first C byte.
        let raw_end = l.raw_addr(1023, 1128).0 as u64 + PIXEL_BYTES;
        let b_start = l.rc_addr(0, 0).0 as u64;
        assert!(raw_end <= b_start);
        let b_end = l.rd_addr(1000, 1023).0 as u64 + PIXEL_BYTES;
        let c_start = l.ct_addr(0, 0).0 as u64;
        assert!(b_end <= c_start);
        assert!(l.ct_addr(1000, 1023).is_external());
        // B's two views cover the same bytes.
        assert_eq!(l.rc_addr(0, 0), l.rd_addr(0, 0));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_rda_working_set_rejected() {
        let _ = RdaLayout::new(4096, 4001, 4129);
    }
}
