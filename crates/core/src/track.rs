//! Non-linear flight tracks and motion compensation.
//!
//! The whole reason the paper processes in the time domain is that
//! back-projection "can compensate for non-linear flight tracks"
//! (§I). This module provides the perturbed tracks, the raw-data
//! simulation against them lives in [`crate::scene`], and
//! [`compensate_range_shift`] applies the per-pulse (or per-
//! subaperture) correction — from GPS when available, from the
//! autofocus estimate when not (Figure 4).

use desim::rng::SmallRng;
use desim::OpCounts;

use crate::complex::c32;
use crate::ffbp::interp::neville4;
use crate::geometry::SarGeometry;

/// Cross-track deviation of the platform per pulse, metres. Positive
/// values move the platform *toward* the scene (shortening ranges).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightTrack {
    offsets: Vec<f32>,
}

impl FlightTrack {
    /// A perfectly linear track.
    pub fn straight(num_pulses: usize) -> FlightTrack {
        FlightTrack {
            offsets: vec![0.0; num_pulses],
        }
    }

    /// A slow sinusoidal weave: `amplitude * sin(2 pi k / period)`.
    pub fn sinusoidal(num_pulses: usize, amplitude: f32, period: f32) -> FlightTrack {
        assert!(period > 1.0, "period must exceed one pulse");
        FlightTrack {
            offsets: (0..num_pulses)
                .map(|k| amplitude * (2.0 * std::f32::consts::PI * k as f32 / period).sin())
                .collect(),
        }
    }

    /// A smoothed random walk (deterministic per seed): integrates
    /// white noise of standard deviation `sigma` per pulse, then
    /// removes the mean so the average track is the nominal one.
    pub fn random_walk(num_pulses: usize, sigma: f32, seed: u64) -> FlightTrack {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut offsets = Vec::with_capacity(num_pulses);
        let mut x = 0.0f32;
        for _ in 0..num_pulses {
            x += rng.gen_range(-sigma..sigma);
            offsets.push(x);
        }
        let mean = offsets.iter().sum::<f32>() / num_pulses as f32;
        offsets.iter_mut().for_each(|v| *v -= mean);
        FlightTrack { offsets }
    }

    /// A step error: the second half of the aperture flies `step`
    /// metres closer (worst case for a single merge; used in tests).
    pub fn step(num_pulses: usize, step: f32) -> FlightTrack {
        let mut offsets = vec![0.0; num_pulses];
        for v in offsets.iter_mut().skip(num_pulses / 2) {
            *v = step;
        }
        FlightTrack { offsets }
    }

    /// Number of pulses covered.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the track is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Cross-track offset of pulse `k`.
    pub fn offset(&self, k: usize) -> f32 {
        self.offsets[k]
    }

    /// Mean offset over a pulse interval (the per-subaperture
    /// correction a merge stage would apply).
    pub fn mean_offset(&self, range: std::ops::Range<usize>) -> f32 {
        let n = range.len().max(1) as f32;
        self.offsets[range].iter().sum::<f32>() / n
    }

    /// Largest absolute deviation.
    pub fn max_abs(&self) -> f32 {
        self.offsets.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// Apply a range-shift motion compensation of `dx` metres to one
/// subaperture image, its beams back to back: every beam row is
/// resampled `dx` closer (cubic Neville in range) and the two-way phase
/// is rotated by `+4 pi dx / lambda`, so data collected `dx` nearer the
/// scene lines up with data from the nominal track.
pub fn compensate_range_shift(
    beams: &mut [c32],
    dx: f32,
    geom: &SarGeometry,
    counts: &mut OpCounts,
) {
    if dx == 0.0 {
        return;
    }
    let shift_bins = dx / geom.dr;
    // Data recorded dx closer carries phase exp(-j 4 pi (R - dx) / l);
    // rotating by exp(-j 4 pi dx / l) restores the nominal exp(-j 4 pi R / l).
    let phase = c32::cis(-4.0 * std::f32::consts::PI * dx / geom.wavelength);
    counts.trigs += 1;
    let n = geom.num_bins as isize;
    let mut scratch = vec![c32::ZERO; geom.num_bins];
    for row in beams.chunks_mut(geom.num_bins) {
        for (i, out) in scratch.iter_mut().enumerate() {
            // The target that belongs at bin i was recorded at i - shift.
            let pos = i as f32 - shift_bins;
            let i1 = pos.floor() as isize;
            let t = pos - pos.floor();
            let at = |j: isize| {
                if j < 0 || j >= n {
                    c32::ZERO
                } else {
                    row[j as usize]
                }
            };
            let p = [at(i1 - 1), at(i1), at(i1 + 1), at(i1 + 2)];
            counts.loads += 4;
            *out = neville4(p, t, counts) * phase;
            counts.fmas += 4;
            counts.stores += 2;
        }
        row.copy_from_slice(&scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ComplexImage;
    use crate::scene::{simulate_compressed_data, Scene};

    #[test]
    fn track_generators_have_expected_shape() {
        let s = FlightTrack::straight(16);
        assert_eq!(s.len(), 16);
        assert_eq!(s.max_abs(), 0.0);

        let w = FlightTrack::sinusoidal(100, 2.0, 50.0);
        assert!(w.max_abs() <= 2.0 + 1e-5);
        assert!(w.max_abs() > 1.5);

        let r1 = FlightTrack::random_walk(64, 0.1, 9);
        let r2 = FlightTrack::random_walk(64, 0.1, 9);
        assert_eq!(r1, r2, "random walk must be deterministic per seed");
        // Mean-free by construction.
        let mean: f32 = (0..64).map(|k| r1.offset(k)).sum::<f32>() / 64.0;
        assert!(mean.abs() < 1e-4);

        let st = FlightTrack::step(8, 0.5);
        assert_eq!(st.offset(0), 0.0);
        assert_eq!(st.offset(7), 0.5);
        assert_eq!(st.mean_offset(0..4), 0.0);
        assert_eq!(st.mean_offset(4..8), 0.5);
    }

    #[test]
    fn compensation_recovers_the_straight_track_data() {
        // Simulate one pulse from a platform flying dx closer, apply
        // the compensation, and compare against the straight-track
        // simulation of the same pulse: envelope and (critically) the
        // two-way phase must line up.
        let geom = crate::geometry::SarGeometry::test_size();
        let scene = Scene::single_target(geom);
        let dx = 1.3f32;
        let straight = simulate_compressed_data(&scene, 0.0, 0);
        let perturbed = crate::scene::simulate_with_track(
            &scene,
            &FlightTrack {
                offsets: vec![dx; geom.num_pulses],
            },
            0.0,
            0,
        );

        let mut sub = ComplexImage::zeros(1, geom.num_bins);
        sub.row_mut(0).copy_from_slice(perturbed.row(32));
        let mut counts = OpCounts::default();
        compensate_range_shift(sub.as_mut_slice(), dx, &geom, &mut counts);

        // Peak lands on the straight-track bin...
        let want_bin = straight
            .row(32)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .unwrap()
            .0;
        let (_, _, got_bin) = sub.peak();
        assert!((got_bin as i64 - want_bin as i64).abs() <= 1);

        // ...with the straight-track phase (this is what makes the
        // coherent merge work; an inverted sign here would defocus).
        let got = sub.at(0, got_bin);
        let want = straight.at(32, want_bin);
        let dphi = (got.arg() - want.arg()).rem_euclid(2.0 * std::f32::consts::PI);
        let dphi = dphi.min(2.0 * std::f32::consts::PI - dphi);
        assert!(dphi < 0.3, "phase error {dphi} rad after compensation");
        // Envelope within single-resampling tolerance of a critically
        // sampled kernel (cubic on a full-bandwidth sinc loses ~20% at
        // worst-case fractional offsets).
        assert!((got.abs() - want.abs()).abs() < 0.25 * want.abs());
        assert!(counts.fmas > 0);
    }

    #[test]
    fn compensation_restores_peak_position() {
        let geom = crate::geometry::SarGeometry::test_size();
        let scene = Scene::single_target(geom);
        let data = simulate_compressed_data(&scene, 0.0, 0);
        let mut sub = ComplexImage::zeros(1, geom.num_bins);
        sub.row_mut(0).copy_from_slice(data.row(32));
        let (_, _, bin0) = sub.peak();

        let mut counts = OpCounts::default();
        compensate_range_shift(sub.as_mut_slice(), 3.0, &geom, &mut counts);
        let (_, _, bin_shifted) = sub.peak();
        assert_eq!(
            bin_shifted as i64,
            bin0 as i64 + 3,
            "a +3 m compensation moves the response 3 bins out"
        );
    }

    #[test]
    fn zero_shift_is_identity() {
        let geom = crate::geometry::SarGeometry::test_size();
        let mut sub = ComplexImage::zeros(2, geom.num_bins);
        *sub.at_mut(1, 40) = c32::new(2.0, -1.0);
        let before = sub.clone();
        let mut counts = OpCounts::default();
        compensate_range_shift(sub.as_mut_slice(), 0.0, &geom, &mut counts);
        assert_eq!(sub, before);
        assert_eq!(counts, OpCounts::default());
    }
}
