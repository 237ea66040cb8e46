//! Stripmap geometry and the subaperture merge equations.
//!
//! Coordinates: the platform flies the `y` axis (azimuth) at constant
//! speed; `x` is ground range. Polar subaperture grids measure range
//! `r` from the subaperture centre and angle `theta` from the flight
//! axis (`theta = pi/2` is broadside).
//!
//! [`merge_geometry`] implements equations (1)–(4) of the paper: given
//! an output sample `(r, theta)` of a merged subaperture whose children
//! sit at `±l/2` along the flight axis, it returns the `(r1, theta1)`
//! and `(r2, theta2)` at which the two children observe the same ground
//! point. These are the "complicated index calculations" the paper maps
//! to the Epiphany's FMA unit.

use desim::OpCounts;

/// Radar and collection-geometry constants shared across the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct SarGeometry {
    /// Number of transmitted pulses (the full aperture). Must be a
    /// power of two for merge base 2.
    pub num_pulses: usize,
    /// Along-track spacing between pulses, metres.
    pub pulse_spacing: f32,
    /// Range of the first bin, metres.
    pub r0: f32,
    /// Range-bin spacing, metres.
    pub dr: f32,
    /// Number of range bins per pulse.
    pub num_bins: usize,
    /// Radar wavelength, metres (low-frequency UWB VHF SAR, as in the
    /// CARABAS-class Swedish systems the paper's references describe;
    /// the wavelength must be several range bins long for complex
    /// interpolation between bins to be meaningful).
    pub wavelength: f32,
    /// Half-width of the imaged angular sector around broadside,
    /// radians.
    pub theta_half_span: f32,
}

impl SarGeometry {
    /// The paper's evaluation size: 1024 pulses x 1001 range bins.
    pub fn paper_size() -> SarGeometry {
        SarGeometry {
            num_pulses: 1024,
            pulse_spacing: 1.0,
            r0: 4000.0,
            dr: 1.0,
            num_bins: 1001,
            wavelength: 8.0,
            theta_half_span: 0.114,
        }
    }

    /// A small configuration for unit tests (64 pulses x 129 bins).
    pub fn test_size() -> SarGeometry {
        SarGeometry {
            num_pulses: 64,
            pulse_spacing: 1.0,
            r0: 950.0,
            dr: 1.0,
            num_bins: 129,
            wavelength: 8.0,
            theta_half_span: 0.12,
        }
    }

    /// Along-track position of pulse `k`, centred so the aperture
    /// midpoint is `y = 0`.
    pub fn platform_y(&self, k: usize) -> f32 {
        (k as f32 - (self.num_pulses as f32 - 1.0) / 2.0) * self.pulse_spacing
    }

    /// Slant range from a platform position to a ground point.
    pub fn slant_range(&self, platform_y: f32, x: f32, y: f32) -> f32 {
        let dy = y - platform_y;
        (x * x + dy * dy).sqrt()
    }

    /// Range of the centre of bin `i`.
    pub fn bin_range(&self, i: usize) -> f32 {
        self.r0 + i as f32 * self.dr
    }

    /// Maximum range covered by the swath.
    pub fn r_max(&self) -> f32 {
        self.bin_range(self.num_bins - 1)
    }

    /// Lower edge of the angular sector.
    pub fn theta_min(&self) -> f32 {
        std::f32::consts::FRAC_PI_2 - self.theta_half_span
    }

    /// Upper edge of the angular sector.
    pub fn theta_max(&self) -> f32 {
        std::f32::consts::FRAC_PI_2 + self.theta_half_span
    }

    /// Number of pairwise merge iterations to the full aperture
    /// (10 for 1024 pulses).
    pub fn merge_iterations(&self) -> u32 {
        assert!(
            self.num_pulses.is_power_of_two(),
            "merge base 2 needs a power-of-two pulse count"
        );
        self.num_pulses.trailing_zeros()
    }

    /// Two-way phase of a scatterer at range `r`: `-4 pi r / lambda`.
    pub fn range_phase(&self, r: f32) -> f32 {
        -4.0 * std::f32::consts::PI * r / self.wavelength
    }
}

/// `x.round() as isize` for every `f32` — NaN to 0, ±inf and
/// magnitudes beyond `isize` saturated — without the libm call
/// `f32::round` is on baseline x86-64: truncate toward zero, then step
/// away from it when the remainder, exact below 2^63, is a half or more.
/// The nearest-bin index of FFBP's interpolators and of RDA's
/// migration shifts; `ffbp::interp`'s tests pin it against `f32::round`
/// for every kind of `f32`.
#[inline]
pub(crate) fn round_index(x: f32) -> isize {
    let t = x as isize;
    let rest = x - t as f32;
    t.saturating_add(isize::from(rest >= 0.5) - isize::from(rest <= -0.5))
}

/// Where the two children of a merge observe the output sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeLookup {
    /// Range from the trailing child (centre at `-l/2`).
    pub r1: f32,
    /// Angle from the trailing child.
    pub theta1: f32,
    /// Range from the leading child (centre at `+l/2`).
    pub r2: f32,
    /// Angle from the leading child.
    pub theta2: f32,
}

/// Equations (1)-(4): map an output sample `(r, theta)` of the merged
/// subaperture to the observation coordinates of its two children
/// separated by `l` along the flight axis.
///
/// `counts` accrues the arithmetic performed (the FMA-heavy index
/// calculation the paper highlights).
#[inline]
pub fn merge_geometry(r: f32, theta: f32, l: f32, counts: &mut OpCounts) -> MergeLookup {
    let h = 0.5 * l;
    let c = theta.cos();
    let rl = r * l;
    let base = r * r + h * h;
    // Eq. (1): r1^2 = r^2 + (l/2)^2 - 2 r (l/2) cos(pi - theta)
    //               = r^2 + (l/2)^2 + r l cos(theta)
    let r1 = (base + rl * c).sqrt();
    // Eq. (2): r2^2 = r^2 + (l/2)^2 - r l cos(theta)
    let r2 = (base - rl * c).sqrt();
    // Eq. (3): theta1 = acos((r1^2 + (l/2)^2 - r^2) / (r1 l))
    //        = acos((l/2 + r cos theta) / r1)
    let theta1 = ((h + r * c) / r1).clamp(-1.0, 1.0).acos();
    // Eq. (4): theta2 = pi - acos((r2^2 + (l/2)^2 - r^2) / (r2 l))
    //        = acos((r cos theta - l/2) / r2)
    let theta2 = ((r * c - h) / r2).clamp(-1.0, 1.0).acos();

    counts.trigs += 3; // cos + 2 acos
    counts.sqrts += 2;
    counts.divs += 2;
    counts.fmas += 5; // h*h+r*r, base±rl*c, h+r*c, r*c-h
    counts.flops += 4; // products and clamps
    counts.ialu += 2;

    MergeLookup {
        r1,
        theta1,
        r2,
        theta2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::FRAC_PI_2;

    fn lookup(r: f32, theta: f32, l: f32) -> MergeLookup {
        merge_geometry(r, theta, l, &mut OpCounts::default())
    }

    #[test]
    fn broadside_is_symmetric() {
        let g = lookup(1000.0, FRAC_PI_2, 16.0);
        assert!((g.r1 - g.r2).abs() < 1e-3, "{g:?}");
        // theta1 leans forward of broadside, theta2 leans back,
        // symmetrically.
        assert!((g.theta1 + g.theta2 - std::f32::consts::PI).abs() < 1e-4);
        assert!(g.theta1 < FRAC_PI_2);
        assert!(g.theta2 > FRAC_PI_2);
        // Both children are slightly farther than the merged centre.
        assert!(g.r1 > 1000.0 && g.r1 < 1000.2);
    }

    #[test]
    fn matches_direct_trigonometry() {
        // Place the ground point explicitly and verify against plain
        // Cartesian geometry.
        let (r, theta, l) = (750.0, FRAC_PI_2 + 0.05, 32.0);
        let (x, y) = (r * theta.sin(), r * theta.cos());
        let g = lookup(r, theta, l);
        // Child A at y = -l/2, child B at y = +l/2.
        let r1_direct = (x * x + (y + l / 2.0) * (y + l / 2.0)).sqrt();
        let r2_direct = (x * x + (y - l / 2.0) * (y - l / 2.0)).sqrt();
        assert!((g.r1 - r1_direct).abs() < 1e-2, "{} vs {}", g.r1, r1_direct);
        assert!((g.r2 - r2_direct).abs() < 1e-2);
        let t1_direct = ((y + l / 2.0) / r1_direct).acos();
        let t2_direct = ((y - l / 2.0) / r2_direct).acos();
        assert!((g.theta1 - t1_direct).abs() < 1e-4);
        assert!((g.theta2 - t2_direct).abs() < 1e-4);
    }

    #[test]
    fn zero_separation_is_identity() {
        let g = lookup(500.0, 1.5, 0.0);
        assert!((g.r1 - 500.0).abs() < 1e-3);
        assert!((g.r2 - 500.0).abs() < 1e-3);
        assert!((g.theta1 - 1.5).abs() < 1e-4);
        assert!((g.theta2 - 1.5).abs() < 1e-4);
    }

    #[test]
    fn op_counts_accumulate() {
        let mut counts = OpCounts::default();
        for _ in 0..10 {
            merge_geometry(800.0, 1.6, 8.0, &mut counts);
        }
        assert_eq!(counts.sqrts, 20);
        assert_eq!(counts.trigs, 30);
        assert_eq!(counts.divs, 20);
        assert!(counts.fmas >= 50);
    }

    #[test]
    fn geometry_helpers() {
        let g = SarGeometry::paper_size();
        assert_eq!(g.merge_iterations(), 10);
        assert!((g.platform_y(0) + 511.5).abs() < 1e-3);
        assert!((g.platform_y(1023) - 511.5).abs() < 1e-3);
        assert_eq!(g.bin_range(0), 4000.0);
        assert_eq!(g.r_max(), 5000.0);
        assert!((g.slant_range(0.0, 3.0, 4.0) - 5.0).abs() < 1e-6);
        assert!(g.theta_min() < g.theta_max());
        // Two-way phase advances by 4 pi per wavelength of range.
        let dp = g.range_phase(100.0 + g.wavelength) - g.range_phase(100.0);
        assert!((dp + 4.0 * std::f32::consts::PI).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_pulses_rejected_for_merging() {
        let g = SarGeometry {
            num_pulses: 1000,
            ..SarGeometry::paper_size()
        };
        let _ = g.merge_iterations();
    }
}
