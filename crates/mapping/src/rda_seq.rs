//! RDA on a single Epiphany core.
//!
//! The naive port, in the spirit of the sequential FFBP row: every
//! input sample is fetched from off-chip SDRAM with *blocking* reads
//! over the eLink, results are posted back with non-stalling writes.
//! Three phases over the [`RdaLayout`] regions:
//!
//! 1. `range`   — raw rows (region A) in, compressed rows out to B,
//! 2. `doppler` — *strided* column gathers from B (the corner turn a
//!    single core pays as pointwise traffic), Doppler rows out to C,
//! 3. `azimuth` — Doppler rows from C plus the RCMC-shifted gathers,
//!    focused bin-major rows out to B.

use desim::OpCounts;
use epiphany::{Chip, EpiphanyParams};
use sar_core::complex::c32;
use sar_core::image::ComplexImage;
use sar_core::rda::{
    azimuth_compress, azimuth_reference, doppler_spectrum, range_compress_row, rcmc_correct,
    rcmc_shift,
};
use sar_core::signal::{lfm_chirp, MatchedFilter};
use sim_harness::{ImageRun, RdaWorkload, RunContext};

use crate::layout::RdaLayout;

/// Execute the RDA workload on one core of the Epiphany model (one
/// record phase per pipeline stage); the chip emits its spans into
/// `ctx.tracer`.
pub fn run(w: &RdaWorkload, params: EpiphanyParams, ctx: &RunContext) -> ImageRun {
    let geom = &w.geom;
    let n = geom.num_pulses;
    let bins = geom.num_bins;
    let layout = RdaLayout::new(n as u32, bins as u32, w.raw.cols() as u32);
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    let core = 0usize;
    let waveform = lfm_chirp(w.config.chirp);
    let mf = MatchedFilter::new(&waveform, w.raw.cols());
    let mut counts = OpCounts::default();
    let mut charged = OpCounts::default();
    // Blocking fetches issue back to back with nothing between them —
    // buffered per row so the chip absorbs each span in closed form.
    let mut row_reads: Vec<memsim::GlobalAddr> = Vec::with_capacity(2 * n.max(w.raw.cols()));

    // Phase 1: range compression, A -> B (pulse-major).
    chip.phase_begin("range");
    let mut rc = ComplexImage::zeros(n, bins);
    for k in 0..n {
        row_reads.clear();
        for s in 0..w.raw.cols() {
            row_reads.push(layout.raw_addr(k as u32, s as u32));
        }
        chip.read_external_run(core, &row_reads, 8);
        let row = range_compress_row(&mf, w.raw.row(k), bins, &mut counts);
        rc.row_mut(k).copy_from_slice(&row);
        let delta = counts.since(&charged);
        charged = counts;
        chip.compute(core, &delta);
        chip.write_external(core, layout.rc_addr(k as u32, 0), layout.rc_row_bytes());
    }
    chip.phase_end();

    // Phase 2: corner turn + azimuth FFT, B (strided) -> C (bin-major).
    chip.phase_begin("doppler");
    let mut rd = ComplexImage::zeros(bins, n);
    let mut col = vec![c32::ZERO; n];
    for i in 0..bins {
        row_reads.clear();
        for k in 0..n {
            row_reads.push(layout.rc_addr(k as u32, i as u32));
        }
        chip.read_external_run(core, &row_reads, 8);
        for (k, c) in col.iter_mut().enumerate() {
            *c = rc.at(k, i);
        }
        let spectrum = doppler_spectrum(&col, &mut counts);
        rd.row_mut(i).copy_from_slice(&spectrum);
        let delta = counts.since(&charged);
        charged = counts;
        chip.compute(core, &delta);
        chip.write_external(core, layout.ct_addr(i as u32, 0), layout.col_bytes());
    }
    chip.phase_end();

    // Phase 3: RCMC + azimuth compression, C -> B (bin-major).
    chip.phase_begin("azimuth");
    let mut image = ComplexImage::zeros(n, bins);
    for i in 0..bins {
        row_reads.clear();
        for m in 0..n {
            row_reads.push(layout.ct_addr(i as u32, m as u32));
        }
        if w.config.rcmc {
            // The migration gathers land on deeper bins' rows.
            for m in 0..n {
                let d = rcmc_shift(geom, i, m);
                if d > 0 && i + d < bins {
                    row_reads.push(layout.ct_addr((i + d) as u32, m as u32));
                }
            }
        }
        chip.read_external_run(core, &row_reads, 8);
        let corrected = rcmc_correct(&rd, geom, i, w.config.rcmc, &mut counts);
        let href = azimuth_reference(geom, i, &mut counts);
        let line = azimuth_compress(&corrected, &href, &mut counts);
        for k in 0..n {
            *image.at_mut(k, i) = line[(k + n / 2) % n];
        }
        let delta = counts.since(&charged);
        charged = counts;
        chip.compute(core, &delta);
        chip.write_external(core, layout.rd_addr(i as u32, 0), layout.col_bytes());
    }
    chip.phase_end();

    ImageRun {
        record: chip.report("RDA / Epiphany, 1 core @ 1 GHz (sequential)", 1),
        image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_core::rda::rda;

    #[test]
    fn image_matches_the_plain_algorithm() {
        let w = RdaWorkload::small();
        let machine = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let plain = rda(&w.raw, &w.geom, &w.config);
        assert_eq!(machine.image.as_slice(), plain.image.as_slice());
    }

    #[test]
    fn every_input_sample_is_a_blocking_read() {
        let w = RdaWorkload::small();
        let r = run(&w, EpiphanyParams::default(), &RunContext::plain());
        let reads = r.record.counters.get("ext_read");
        let raw_samples = (w.raw.rows() * w.raw.cols()) as u64;
        let matrix = (w.geom.num_pulses * w.geom.num_bins) as u64;
        // Raw matrix + strided corner turn + Doppler rows, plus the
        // (bounded) RCMC gathers.
        assert!(reads >= raw_samples + 2 * matrix);
        assert!(reads <= raw_samples + 3 * matrix);
        assert_eq!(r.record.phases.len(), 3);
        assert_eq!(r.record.phases[1].name, "doppler");
    }
}
