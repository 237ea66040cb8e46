//! Counted RDA stage kernels.
//!
//! Each function both performs its stage on host data and accrues the
//! canonical operation ledger into an [`OpCounts`]. The ledger is
//! data-independent: for a fixed geometry and configuration every call
//! charges exactly the same counts regardless of sample values (RCMC
//! charges its shift arithmetic whether or not the gather lands inside
//! the swath). The mapping drivers and the static program-model probes
//! rely on this to stay bit-exact with each other.

use desim::OpCounts;

use crate::complex::c32;
use crate::geometry::{round_index, SarGeometry};
use crate::image::ComplexImage;
use crate::signal::{fft_inplace, ifft_inplace, MatchedFilter};

/// Operation ledger for one in-place radix-2 FFT of length `n`
/// (power of two): `(n/2)·log2(n)` butterflies, each a complex
/// multiply (2 FMA + 2 flops), an add/sub pair (4 flops), the twiddle
/// recurrence (2 FMA + 2 flops -- folded into the per-butterfly FMA
/// and flop charges below), two complex loads and stores, plus the
/// bit-reversal pass.
///
/// This prices the *Epiphany* kernel, which advances the twiddle
/// recurrence in every butterfly (the n = 1024 table alone would fill
/// one of a core's four 8 KB banks). The host's `signal::fft` looks its
/// twiddles up in a per-length plan instead; that decides how fast the
/// simulator forms the image, not what the simulated core is charged.
pub fn fft_ops(n: usize, counts: &mut OpCounts) {
    debug_assert!(n.is_power_of_two());
    let stages = n.trailing_zeros() as u64;
    let b = (n as u64 / 2) * stages;
    counts.fmas += 4 * b;
    counts.flops += 6 * b;
    counts.loads += 4 * b;
    counts.stores += 4 * b;
    counts.ialu += 2 * b + n as u64;
}

/// [`fft_ops`] plus the `1/N` normalisation pass of the inverse FFT.
pub fn ifft_ops(n: usize, counts: &mut OpCounts) {
    fft_ops(n, counts);
    counts.divs += 2 * n as u64;
    counts.loads += 2 * n as u64;
    counts.stores += 2 * n as u64;
}

/// Range-compress one raw echo row: zero-pad to the filter's FFT
/// length, forward FFT, conjugate-reference multiply, inverse FFT,
/// truncate to `num_bins`.
pub fn range_compress_row(
    mf: &MatchedFilter,
    echo: &[c32],
    num_bins: usize,
    counts: &mut OpCounts,
) -> Vec<c32> {
    let mut compressed = vec![c32::ZERO; num_bins];
    let mut scratch = vec![c32::ZERO; mf.fft_len()];
    range_compress_into(mf, echo, &mut compressed, &mut scratch, counts);
    compressed
}

/// [`range_compress_row`] into `out`, its `num_bins` samples, through
/// `scratch`, a buffer of the filter's FFT length that a caller reuses
/// from row to row.
pub(crate) fn range_compress_into(
    mf: &MatchedFilter,
    echo: &[c32],
    out: &mut [c32],
    scratch: &mut [c32],
    counts: &mut OpCounts,
) {
    let (l, num_bins) = (mf.fft_len() as u64, out.len());
    assert!(num_bins <= echo.len(), "the compressed samples of the echo");
    // Stage in/out copies.
    counts.loads += 2 * echo.len() as u64 + 2 * num_bins as u64;
    counts.stores += 2 * l + 2 * num_bins as u64;
    // FFT, pointwise reference multiply, inverse FFT.
    fft_ops(mf.fft_len(), counts);
    counts.fmas += 2 * l;
    counts.flops += 2 * l;
    counts.loads += 4 * l;
    counts.stores += 2 * l;
    counts.ialu += l;
    ifft_ops(mf.fft_len(), counts);
    let (signal, padding) = scratch.split_at_mut(echo.len());
    signal.copy_from_slice(echo);
    padding.fill(c32::ZERO);
    mf.compress_inplace(scratch, echo.len());
    out.copy_from_slice(&scratch[..num_bins]);
}

/// Azimuth FFT of one range bin's pulse history (the Doppler
/// spectrum). `column` length must be a power of two.
pub fn doppler_spectrum(column: &[c32], counts: &mut OpCounts) -> Vec<c32> {
    let mut spectrum = column.to_vec();
    doppler_spectrum_inplace(&mut spectrum, counts);
    spectrum
}

/// [`doppler_spectrum`] in place: `history` becomes its spectrum.
pub(crate) fn doppler_spectrum_inplace(history: &mut [c32], counts: &mut OpCounts) {
    counts.loads += 2 * history.len() as u64;
    counts.stores += 2 * history.len() as u64;
    fft_inplace(history);
    fft_ops(history.len(), counts);
}

/// Doppler bins whose implied squint exceeds this `|sin theta|` are
/// clamped; the resulting huge migration pushes the gather off the end
/// of the swath, which zeroes the (unphysical) bin.
pub const RCMC_MAX_SIN: f32 = 0.95;

/// The Doppler-only part of the migration: `1/cos theta − 1` for
/// Doppler bin `doppler`.
///
/// Doppler index `m` maps to squint `sin theta = lambda m~ / (2 N d)`
/// (`m~` the signed alias of `m`, `d` the pulse spacing); a scatterer
/// seen at squint `theta` sits `R (1/cos theta - 1)` beyond its
/// closest-approach range.
fn migration_factor(geom: &SarGeometry, doppler: usize) -> f32 {
    let n = geom.num_pulses;
    let m_signed = if doppler * 2 < n {
        doppler as f32
    } else {
        doppler as f32 - n as f32
    };
    let sin_t = (geom.wavelength * m_signed / (2.0 * n as f32 * geom.pulse_spacing))
        .clamp(-RCMC_MAX_SIN, RCMC_MAX_SIN);
    let cos_t = (1.0 - sin_t * sin_t).sqrt();
    1.0 / cos_t - 1.0
}

/// A migration of `factor` at slant range `range`, in whole range bins
/// (nearest-neighbour, always >= 0): `(migration / dr).round() as
/// usize` without libm's `roundf`. The `max(0)` is the cast's clamp of
/// a negative; the two part only at 2^63 bins.
fn migration_bins(geom: &SarGeometry, range: f32, factor: f32) -> usize {
    let migration = range * factor;
    round_index(migration / geom.dr).max(0) as usize
}

/// Range-cell migration for Doppler bin `doppler` at range bin `bin`,
/// in whole range bins: one cell of a [`MigrationTable`].
pub fn rcmc_shift(geom: &SarGeometry, bin: usize, doppler: usize) -> usize {
    migration_bins(geom, geom.bin_range(bin), migration_factor(geom, doppler))
}

/// The range-cell migration of one geometry, planned once: the
/// migration factor depends on the Doppler bin alone, so a run (and a
/// program model pricing one) evaluates its square root per Doppler
/// bin, not per cell of the range–Doppler matrix.
pub struct MigrationTable {
    geom: SarGeometry,
    /// [`migration_factor`] per Doppler bin; `None` with RCMC off (the
    /// ablation path: nothing migrates).
    factor: Option<Vec<f32>>,
}

impl MigrationTable {
    /// The table for `geom`, with RCMC `enabled` or off.
    pub fn new(geom: &SarGeometry, enabled: bool) -> MigrationTable {
        MigrationTable {
            geom: *geom,
            factor: enabled.then(|| {
                (0..geom.num_pulses)
                    .map(|m| migration_factor(geom, m))
                    .collect()
            }),
        }
    }

    /// The migration of every Doppler bin at range bin `bin`, in whole
    /// range bins -- [`rcmc_shift`] of each cell (0 with RCMC off).
    fn shifts(&self, bin: usize) -> impl Iterator<Item = usize> + '_ {
        let range = self.geom.bin_range(bin);
        let factor = self.factor.as_deref();
        (0..self.geom.num_pulses)
            .map(move |m| factor.map_or(0, |f| migration_bins(&self.geom, range, f[m])))
    }

    /// Where RCMC gathers each Doppler sample of range bin `bin` from:
    /// the range bin `bin + delta` per Doppler bin (`bin` itself where
    /// nothing migrates), `None` when that falls off the far end of
    /// the swath.
    pub fn sources(&self, bin: usize) -> impl Iterator<Item = Option<usize>> + '_ {
        self.shifts(bin)
            .map(move |shift| Some(bin + shift).filter(|&src| src < self.geom.num_bins))
    }

    /// The RCMC census: per range bin, how many Doppler samples its
    /// correction gathers from *another* in-swath bin — the
    /// [`sources`](Self::sources) that are `Some(src)` with
    /// `src != bin`. All zero with RCMC off.
    ///
    /// Counted per distinct migration factor, not per cell. Along range
    /// a factor's shift never decreases (every f32 step of it is
    /// monotone, `dr > 0` and the factor is `>= 0`), so `bin + shift`
    /// strictly increases: the bins whose gather moves and still lands
    /// in the swath are one interval, found by two binary searches and
    /// counted once for every Doppler bin with that factor. Factors
    /// repeat: bins `m` and `n − m` share one, and so does every bin
    /// past the [`RCMC_MAX_SIN`] clamp. At a fixed range bin the shift
    /// never decreases with the factor either, so in ascending factor
    /// order both interval ends only move down, and each search is
    /// bracketed by the previous factor's ends.
    pub fn gathers_per_bin(&self) -> Vec<usize> {
        let bins = self.geom.num_bins;
        let range_bins: Vec<usize> = (0..bins).collect();
        let mut factors = self.factor.clone().unwrap_or_default();
        factors.sort_unstable_by(f32::total_cmp);
        // +count where a factor's interval opens, -count past its end.
        let mut steps = vec![0isize; bins + 1];
        let (mut lo, mut hi) = (bins, bins);
        for same in factors.chunk_by(|a, b| a == b) {
            let shift = |bin| migration_bins(&self.geom, self.geom.bin_range(bin), same[0]);
            lo = range_bins[..lo].partition_point(|&bin| shift(bin) == 0);
            hi = range_bins[..hi].partition_point(|&bin| shift(bin) < bins - bin);
            if lo < hi {
                steps[lo] += same.len() as isize;
                steps[hi] -= same.len() as isize;
            }
        }
        let mut open = 0isize;
        steps[..bins]
            .iter()
            .map(|step| {
                open += step;
                open as usize
            })
            .collect()
    }

    /// The ledger of one [`correct`](Self::correct) call, which is the
    /// same for every bin: a per-sample charge, with the shift arithmetic
    /// only when RCMC is on.
    pub fn correct_ops(&self, counts: &mut OpCounts) {
        let n = self.geom.num_pulses as u64;
        if self.factor.is_some() {
            counts.flops += 6 * n;
            counts.fmas += 2 * n;
            counts.divs += 2 * n;
            counts.sqrts += n;
            counts.ialu += 2 * n;
        }
        counts.loads += 2 * n;
        counts.stores += 2 * n;
        counts.ialu += n;
    }

    /// Apply RCMC to range bin `bin` of the bin-major range–Doppler
    /// matrix `rd` (rows = range bins, cols = Doppler bins): gather
    /// each Doppler sample from its [source](Self::sources), zero when
    /// that falls off the swath. With RCMC off the row is copied
    /// unshifted; the ledger is [`correct_ops`](Self::correct_ops).
    pub fn correct(&self, rd: &ComplexImage, bin: usize, counts: &mut OpCounts) -> Vec<c32> {
        let mut corrected = vec![c32::ZERO; self.geom.num_pulses];
        self.correct_into(rd, bin, &mut corrected, counts);
        corrected
    }

    /// [`correct`](Self::correct) into `line`, one sample per Doppler
    /// bin.
    pub(crate) fn correct_into(
        &self,
        rd: &ComplexImage,
        bin: usize,
        line: &mut [c32],
        counts: &mut OpCounts,
    ) {
        assert_eq!(
            line.len(),
            self.geom.num_pulses,
            "a line of the table's pulses"
        );
        self.correct_ops(counts);
        for ((m, src), z) in self.sources(bin).enumerate().zip(line) {
            *z = src.map_or(c32::ZERO, |src| rd.at(src, m));
        }
    }
}

/// [`MigrationTable::correct`] for a caller holding no table: builds
/// the geometry's table and corrects the one bin.
pub fn rcmc_correct(
    rd: &ComplexImage,
    geom: &SarGeometry,
    bin: usize,
    enabled: bool,
    counts: &mut OpCounts,
) -> Vec<c32> {
    MigrationTable::new(geom, enabled).correct(rd, bin, counts)
}

/// Frequency-domain azimuth reference for range bin `bin`: the FFT of
/// the hyperbolic phase history a unit scatterer at that range traces
/// over the aperture.
pub fn azimuth_reference(geom: &SarGeometry, bin: usize, counts: &mut OpCounts) -> Vec<c32> {
    let mut h = vec![c32::ZERO; geom.num_pulses];
    azimuth_reference_into(geom, bin, &mut h, counts);
    h
}

/// [`azimuth_reference`] into `h`, one sample per pulse.
///
/// The phase history is evaluated for the first half of the aperture
/// and mirrored: `platform_y(n − 1 − k)` is `−platform_y(k)` in f32
/// (`k − (n − 1)/2` is exact below 2^24 and negating a factor negates
/// a product), so both pulses see the same `y²` and the same sample.
/// The ledger still charges a square root and a phasor per pulse: it
/// prices the Epiphany kernel, as [`fft_ops`] does.
pub(crate) fn azimuth_reference_into(
    geom: &SarGeometry,
    bin: usize,
    h: &mut [c32],
    counts: &mut OpCounts,
) {
    let n = geom.num_pulses;
    assert_eq!(h.len(), n, "one reference sample per pulse");
    let r = geom.bin_range(bin);
    let (head, tail) = h.split_at_mut(n.div_ceil(2));
    for (k, z) in head.iter_mut().enumerate() {
        let y = geom.platform_y(k);
        *z = c32::cis(geom.range_phase((r * r + y * y).sqrt()));
    }
    for (z, mirror) in tail.iter_mut().zip(head.iter().rev().skip(n % 2)) {
        *z = *mirror;
    }
    counts.fmas += 2 * n as u64;
    counts.flops += 2 * n as u64;
    counts.sqrts += n as u64;
    counts.trigs += n as u64;
    counts.stores += 2 * n as u64;
    fft_inplace(h);
    fft_ops(n, counts);
}

/// Azimuth-compress one range bin: conjugate-multiply the corrected
/// Doppler spectrum by the reference spectrum and inverse-transform.
/// The output is the focused azimuth line in circular-lag order (lag 0
/// at index 0); the pipeline rotates it so broadside lands mid-image.
pub fn azimuth_compress(corrected: &[c32], reference: &[c32], counts: &mut OpCounts) -> Vec<c32> {
    let mut line = corrected.to_vec();
    azimuth_compress_inplace(&mut line, reference, counts);
    line
}

/// [`azimuth_compress`] in place: `line` holds the corrected spectrum
/// and becomes the focused azimuth line.
pub(crate) fn azimuth_compress_inplace(line: &mut [c32], reference: &[c32], counts: &mut OpCounts) {
    assert_eq!(line.len(), reference.len());
    let n = line.len() as u64;
    for (z, h) in line.iter_mut().zip(reference) {
        *z *= h.conj();
    }
    counts.fmas += 2 * n;
    counts.flops += 3 * n;
    counts.loads += 4 * n;
    counts.stores += 2 * n;
    counts.ialu += n;
    ifft_inplace(line);
    ifft_ops(line.len(), counts);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcmc_shift_is_zero_at_zero_doppler_and_grows_off_broadside() {
        let g = SarGeometry::test_size();
        assert_eq!(rcmc_shift(&g, 0, 0), 0);
        assert_eq!(rcmc_shift(&g, g.num_bins - 1, 0), 0);
        // The aliased band edge (m = N/2) implies the largest squint.
        let edge = rcmc_shift(&g, g.num_bins / 2, g.num_pulses / 2);
        let near = rcmc_shift(&g, g.num_bins / 2, 1);
        assert!(edge >= near);
    }

    #[test]
    fn rcmc_shift_matches_geometric_migration_at_close_range() {
        // r0 = 100 m makes migration several bins deep; the Doppler bin
        // whose squint equals the aperture-edge squint must predict the
        // same extra delay as the geometry does.
        let g = SarGeometry {
            r0: 100.0,
            ..SarGeometry::test_size()
        };
        let r = g.bin_range(0);
        let y_edge = g.platform_y(g.num_pulses - 1);
        let geometric = ((r * r + y_edge * y_edge).sqrt() - r) / g.dr;
        let sin_edge = y_edge / (r * r + y_edge * y_edge).sqrt();
        let m_edge = (2.0 * g.num_pulses as f32 * g.pulse_spacing * sin_edge / g.wavelength).round()
            as usize;
        let predicted = rcmc_shift(&g, 0, m_edge) as f32;
        assert!(
            (predicted - geometric).abs() <= 1.0,
            "predicted {predicted} vs geometric {geometric}"
        );
    }

    /// The census's oracle: per range bin, the cells whose source is
    /// another in-swath bin, counted one by one.
    fn gathers_by_cell(table: &MigrationTable, bins: usize) -> Vec<usize> {
        (0..bins)
            .map(|bin| {
                let moved = |src: &Option<usize>| src.is_some_and(|src| src != bin);
                table.sources(bin).filter(moved).count()
            })
            .collect()
    }

    #[test]
    fn migration_table_equals_the_formula_in_every_cell() {
        let close = SarGeometry {
            r0: 100.0,
            ..SarGeometry::test_size()
        };
        // A short swath at close range: Doppler columns that migrate
        // inside the near swath gather from past the far end.
        let short = SarGeometry {
            num_bins: 40,
            ..close
        };
        for g in [
            SarGeometry::test_size(),
            SarGeometry::paper_size(),
            close,
            short,
        ] {
            let table = MigrationTable::new(&g, true);
            let off = MigrationTable::new(&g, false);
            for bin in 0..g.num_bins {
                // The formula with libm's rounding, which the table's
                // shifts do without.
                let formula: Vec<usize> = (0..g.num_pulses)
                    .map(|m| ((g.bin_range(bin) * migration_factor(&g, m)) / g.dr).round() as usize)
                    .collect();
                assert!(table.shifts(bin).eq(formula.iter().copied()), "bin {bin}");
                let cells = (0..g.num_pulses).map(|m| rcmc_shift(&g, bin, m));
                assert!(cells.eq(formula.iter().copied()), "bin {bin}");
                // A source is the shifted bin, while it stays in swath.
                let in_swath = |shift: &usize| Some(bin + shift).filter(|&src| src < g.num_bins);
                assert!(table.sources(bin).eq(formula.iter().map(in_swath)));
                assert!(off.sources(bin).all(|src| src == Some(bin)));
            }
            // The census counts exactly the cells that gather.
            let census = table.gathers_per_bin();
            assert_eq!(census, gathers_by_cell(&table, g.num_bins));
            assert!(census.iter().any(|&n| n > 0), "RCMC on gathers");
            assert_eq!(off.gathers_per_bin(), vec![0; g.num_bins]);
            assert_eq!(gathers_by_cell(&off, g.num_bins), vec![0; g.num_bins]);
        }
        // The short swath's cutoff: a Doppler column gathers in swath at
        // the near edge and from past the end at the far edge.
        let table = MigrationTable::new(&short, true);
        let near: Vec<_> = table.sources(0).collect();
        let far: Vec<_> = table.sources(short.num_bins - 1).collect();
        assert!(near
            .iter()
            .zip(&far)
            .any(|(n, f)| n.is_some_and(|src| src > 0) && f.is_none()));
    }

    #[test]
    fn census_equals_the_cell_count_on_drawn_geometries() {
        let mut rng = desim::rng::SmallRng::seed_from_u64(0x5a12);
        let (mut clamped, mut gathering) = (0, 0);
        for case in 0..200 {
            let g = SarGeometry {
                num_pulses: 1 << rng.gen_index(3..11),
                pulse_spacing: rng.gen_range(0.25..4.0),
                r0: rng.gen_range(20.0..5000.0),
                dr: rng.gen_range(0.2..3.0),
                num_bins: rng.gen_index(4..300),
                wavelength: rng.gen_range(0.5..10.0),
                ..SarGeometry::test_size()
            };
            // The band edge's `|sin theta|` is `lambda / 4d`.
            clamped += usize::from(g.wavelength / (4.0 * g.pulse_spacing) > RCMC_MAX_SIN);
            let table = MigrationTable::new(&g, true);
            let census = table.gathers_per_bin();
            assert_eq!(census, gathers_by_cell(&table, g.num_bins), "{case}: {g:?}");
            gathering += usize::from(census.iter().any(|&n| n > 0));
            let off = MigrationTable::new(&g, false);
            assert_eq!(off.gathers_per_bin(), vec![0; g.num_bins], "{case}: {g:?}");
        }
        assert!(clamped > 20 && clamped < 180, "{clamped} of 200 clamp");
        assert!(gathering > 20, "{gathering} of 200 gather");
    }

    #[test]
    fn azimuth_reference_equals_the_unmirrored_oracle_bit_for_bit() {
        let spaced = SarGeometry {
            pulse_spacing: 0.3,
            ..SarGeometry::paper_size()
        };
        for g in [SarGeometry::test_size(), SarGeometry::paper_size(), spaced] {
            let n = g.num_pulses;
            // Every bin of the small geometry, every 37th of the large.
            let step = if g.num_bins > 200 { 37 } else { 1 };
            for bin in (0..g.num_bins).step_by(step).chain([g.num_bins - 1]) {
                let r = g.bin_range(bin);
                let mut oracle: Vec<c32> = (0..n)
                    .map(|k| {
                        let y = g.platform_y(k);
                        c32::cis(g.range_phase((r * r + y * y).sqrt()))
                    })
                    .collect();
                fft_inplace(&mut oracle);
                let bits = |h: &[c32]| -> Vec<(u32, u32)> {
                    h.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                };
                let href = azimuth_reference(&g, bin, &mut OpCounts::default());
                let case = format!("{n} pulses, spacing {}, bin {bin}", g.pulse_spacing);
                assert!(bits(&href) == bits(&oracle), "{case}");
            }
        }
    }

    #[test]
    fn stage_ledgers_are_data_independent() {
        let g = SarGeometry::test_size();
        let n = g.num_pulses;
        let zeros = vec![c32::ZERO; n];
        let tones: Vec<c32> = (0..n).map(|t| c32::cis(0.3 * t as f32)).collect();
        let mut a = OpCounts::default();
        let mut b = OpCounts::default();
        doppler_spectrum(&zeros, &mut a);
        doppler_spectrum(&tones, &mut b);
        let rd0 = ComplexImage::zeros(g.num_bins, n);
        let mut rd1 = ComplexImage::zeros(g.num_bins, n);
        for z in rd1.as_mut_slice() {
            *z = c32::new(1.0, -2.0);
        }
        rcmc_correct(&rd0, &g, 3, true, &mut a);
        rcmc_correct(&rd1, &g, 3, true, &mut b);
        azimuth_compress(&zeros, &zeros, &mut a);
        azimuth_compress(&tones, &tones, &mut b);
        assert_eq!(a, b);
        assert!(a.flop_work() > 0);
    }

    #[test]
    fn fft_ledger_scales_n_log_n() {
        let mut small = OpCounts::default();
        let mut big = OpCounts::default();
        fft_ops(64, &mut small);
        fft_ops(1024, &mut big);
        // 1024·10 / (64·6) = 26.67x the butterflies.
        assert!(big.fmas > 25 * small.fmas);
        assert!(big.fmas < 28 * small.fmas);
    }
}
