//! Interpolation kernels for sampling a child subaperture at the
//! `(r, theta)` returned by the merge geometry.
//!
//! The paper's implementations use simplified (nearest-neighbour)
//! interpolation in both range and angle and note that the resulting
//! image quality "could be considerably improved by using more complex
//! interpolation kernels such as cubic interpolation" — so all three
//! are provided and compared by the interpolation ablation bench.

use desim::OpCounts;

use crate::complex::c32;
use crate::ffbp::grid::Subaperture;
use crate::geometry::SarGeometry;

/// Interpolation kernel choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpKind {
    /// Round both indices (the paper's choice).
    Nearest,
    /// Bilinear over range and angle.
    Linear,
    /// 4-point cubic (Neville) in range, linear in angle.
    Cubic,
}

/// Fractional `(range, beam)` indices of `(r, theta)` in a subaperture:
/// what [`sample_at`] (the value) and [`nearest_at`] (the element) read.
#[inline]
pub fn fractional_indices(sub: &Subaperture, geom: &SarGeometry, r: f32, theta: f32) -> (f32, f32) {
    let fr = (r - geom.r0) / geom.dr;
    let fb = sub.grid.beam_index(theta);
    (fr, fb)
}

/// Nearest-neighbour integer indices (range bin, beam) at fractional
/// `(fr, fb)`, or `None` outside the grid in *either* direction.
/// [`sample_at`] is strict in range only: outside the angular sector it
/// reads the edge beam where this rule reports no element, so a machine
/// driver prices no access for a value the arithmetic used (a known
/// model gap, DESIGN.md §7; `the_two_rules_differ_outside_the_sector`).
#[inline]
pub fn nearest_at(sub: &Subaperture, num_bins: usize, fr: f32, fb: f32) -> Option<(usize, usize)> {
    let i = fr.round();
    let j = fb.round();
    if i < 0.0 || j < 0.0 || i as usize >= num_bins || j as usize >= sub.grid.n_beams {
        None
    } else {
        Some((i as usize, j as usize))
    }
}

/// [`nearest_at`] for `(r, theta)` — callers use this both for
/// sampling and for deciding which beams to prefetch.
#[inline]
pub fn nearest_indices(
    sub: &Subaperture,
    geom: &SarGeometry,
    r: f32,
    theta: f32,
) -> Option<(usize, usize)> {
    let (fr, fb) = fractional_indices(sub, geom, r, theta);
    nearest_at(sub, geom.num_bins, fr, fb)
}

/// 4-point Neville interpolation at fractional position `t` relative to
/// sample `p[1]` (i.e. samples at positions -1, 0, 1, 2).
#[inline]
pub fn neville4(p: [c32; 4], t: f32, counts: &mut OpCounts) -> c32 {
    // Neville's scheme on unit-spaced abscissae x = {-1, 0, 1, 2}.
    let x = [-1.0f32, 0.0, 1.0, 2.0];
    let mut q = p;
    for level in 1..4 {
        for i in 0..(4 - level) {
            let denom = x[i] - x[i + level];
            let a = q[i].scale(t - x[i + level]);
            let b = q[i + 1].scale(t - x[i]);
            q[i] = (a - b).scale(1.0 / denom);
        }
    }
    // 6 combination steps, each ~2 complex scales + 1 subtract:
    // 12 real mul + 8 add per step -> count as 6 fma-pairs each.
    counts.fmas += 18;
    counts.flops += 12;
    counts.ialu += 6;
    q[0]
}

/// Sample `sub` at `(r, theta)` with kernel `kind`. Out-of-grid samples
/// return zero (the paper skips additions with out-of-range indices).
pub fn sample(
    sub: &Subaperture,
    geom: &SarGeometry,
    r: f32,
    theta: f32,
    kind: InterpKind,
    counts: &mut OpCounts,
) -> c32 {
    let (fr, fb) = fractional_indices(sub, geom, r, theta);
    sample_at(sub, fr, fb, kind, counts)
}

/// [`sample`] at [`fractional_indices`] `(fr, fb)` already derived; their
/// two divisions and subtractions are priced here, per sample taken.
#[inline]
pub fn sample_at(
    sub: &Subaperture,
    fr: f32,
    fb: f32,
    kind: InterpKind,
    counts: &mut OpCounts,
) -> c32 {
    // Beam direction: clamp to the sector edge (a subaperture's beams
    // tile its whole angular sector, so the nearest edge beam is the
    // right value just outside it — without this, linear/cubic kernels
    // would blend the edge beam with zeros and lose energy at every
    // early stage, where children have very few beams). The range
    // direction stays strict: outside the swath there is no data.
    let fb = fb.clamp(0.0, (sub.grid.n_beams - 1) as f32);
    counts.divs += 2;
    counts.flops += 2;
    match kind {
        InterpKind::Nearest => {
            counts.ialu += 4;
            counts.loads += 2;
            let i = fr.round() as isize;
            let j = fb.round() as isize;
            sub.data.at_or_zero(j, i)
        }
        InterpKind::Linear => {
            counts.ialu += 4;
            counts.loads += 8;
            counts.fmas += 6;
            let i0 = fr.floor();
            let j0 = fb.floor();
            let (ti, tj) = (fr - i0, fb - j0);
            let (i, j) = (i0 as isize, j0 as isize);
            let v00 = sub.data.at_or_zero(j, i);
            let v01 = sub.data.at_or_zero(j, i + 1);
            let v10 = sub.data.at_or_zero(j + 1, i);
            let v11 = sub.data.at_or_zero(j + 1, i + 1);
            let a = v00 + (v01 - v00).scale(ti);
            let b = v10 + (v11 - v10).scale(ti);
            a + (b - a).scale(tj)
        }
        InterpKind::Cubic => {
            counts.ialu += 6;
            counts.loads += 16;
            counts.fmas += 6;
            let i1 = fr.floor() as isize; // sample at position 0
            let j0 = fb.floor() as isize;
            let tj = fb - fb.floor();
            let t = fr - fr.floor();
            let mut rows = [c32::ZERO; 2];
            for (rowslot, j) in [(0usize, j0), (1, j0 + 1)] {
                let p = [
                    sub.data.at_or_zero(j, i1 - 1),
                    sub.data.at_or_zero(j, i1),
                    sub.data.at_or_zero(j, i1 + 1),
                    sub.data.at_or_zero(j, i1 + 2),
                ];
                rows[rowslot] = neville4(p, t, counts);
            }
            rows[0] + (rows[1] - rows[0]).scale(tj)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp::grid::PolarGrid;

    fn test_sub() -> (Subaperture, SarGeometry) {
        let geom = SarGeometry::test_size();
        let grid = PolarGrid::spanning(&geom, 8);
        let mut sub = Subaperture::zeros(0.0, 8.0, grid, geom.num_bins);
        // Fill with a smooth, separable ramp so interpolation is exact
        // for linear kernels: v(j, i) = j * 10 + i (real).
        for j in 0..8 {
            for i in 0..geom.num_bins {
                *sub.data.at_mut(j, i) = c32::new(j as f32 * 10.0 + i as f32, 0.0);
            }
        }
        (sub, geom)
    }

    #[test]
    fn nearest_hits_exact_grid_points() {
        let (sub, geom) = test_sub();
        let mut c = OpCounts::default();
        let r = geom.bin_range(40);
        let th = sub.grid.beam_theta(3);
        let v = sample(&sub, &geom, r, th, InterpKind::Nearest, &mut c);
        assert_eq!(v, c32::new(70.0, 0.0));
        assert_eq!(nearest_indices(&sub, &geom, r, th), Some((40, 3)));
    }

    #[test]
    fn out_of_grid_is_zero_and_none() {
        let (sub, geom) = test_sub();
        let mut c = OpCounts::default();
        let v = sample(
            &sub,
            &geom,
            geom.r0 - 100.0,
            1.0,
            InterpKind::Nearest,
            &mut c,
        );
        assert_eq!(v, c32::ZERO);
        assert_eq!(nearest_indices(&sub, &geom, geom.r0 - 100.0, 1.0), None);
        assert_eq!(
            nearest_indices(&sub, &geom, geom.r_max() + 50.0, sub.grid.beam_theta(0)),
            None
        );
    }

    #[test]
    fn the_two_rules_differ_outside_the_sector() {
        // Beam index -0.8 is 0.3 beams below the sector's lower edge,
        // 7.8 as far above its upper one: the value is the edge beam's,
        // the reported element is none.
        let (sub, geom) = test_sub();
        let mut c = OpCounts::default();
        let fr = 40.0;
        for kind in [InterpKind::Nearest, InterpKind::Linear, InterpKind::Cubic] {
            for (outside, edge) in [(-0.8, 0.0), (7.8, 7.0)] {
                let v = sample_at(&sub, fr, outside, kind, &mut c);
                assert_eq!(v, sample_at(&sub, fr, edge, kind, &mut c), "{kind:?}");
                assert!(
                    (v - sub.data.at(edge as usize, 40)).abs() < 1e-3,
                    "{kind:?}"
                );
                assert_eq!(nearest_at(&sub, geom.num_bins, fr, outside), None);
                let at_edge = nearest_at(&sub, geom.num_bins, fr, edge);
                assert_eq!(at_edge, Some((40, edge as usize)));
            }
        }
        // Inside the sector's outer half beams the two agree.
        assert_eq!(nearest_at(&sub, geom.num_bins, fr, -0.3), Some((40, 0)));
    }

    #[test]
    fn linear_reproduces_linear_fields_exactly() {
        let (sub, geom) = test_sub();
        let mut c = OpCounts::default();
        // Halfway between bins 40/41 and beams 3/4.
        let r = geom.bin_range(40) + 0.5 * geom.dr;
        let th = (sub.grid.beam_theta(3) + sub.grid.beam_theta(4)) / 2.0;
        let v = sample(&sub, &geom, r, th, InterpKind::Linear, &mut c);
        assert!((v.re - 75.5).abs() < 1e-3, "{v}");
    }

    #[test]
    fn cubic_reproduces_linear_fields_exactly() {
        let (sub, geom) = test_sub();
        let mut c = OpCounts::default();
        let r = geom.bin_range(40) + 0.3 * geom.dr;
        let th = sub.grid.beam_theta(3);
        let v = sample(&sub, &geom, r, th, InterpKind::Cubic, &mut c);
        assert!((v.re - (30.0 + 40.3)).abs() < 1e-2, "{v}");
    }

    #[test]
    fn neville_interpolates_cubic_polynomials_exactly() {
        // f(x) = x^3 - 2x + 1 sampled at -1, 0, 1, 2.
        let f = |x: f32| x * x * x - 2.0 * x + 1.0;
        let p = [
            c32::new(f(-1.0), 0.0),
            c32::new(f(0.0), 0.0),
            c32::new(f(1.0), 0.0),
            c32::new(f(2.0), 0.0),
        ];
        let mut c = OpCounts::default();
        for t in [0.1f32, 0.5, 0.9, 1.3, -0.4] {
            let v = neville4(p, t, &mut c);
            assert!((v.re - f(t)).abs() < 1e-4, "t={t}: {} vs {}", v.re, f(t));
            assert!(v.im.abs() < 1e-5);
        }
        assert!(c.fmas > 0);
    }

    #[test]
    fn neville_at_nodes_returns_samples() {
        let p = [
            c32::new(4.0, 1.0),
            c32::new(-2.0, 0.5),
            c32::new(7.0, -3.0),
            c32::new(0.0, 2.0),
        ];
        let mut c = OpCounts::default();
        for (t, expect) in [(-1.0f32, p[0]), (0.0, p[1]), (1.0, p[2]), (2.0, p[3])] {
            let v = neville4(p, t, &mut c);
            assert!((v - expect).abs() < 1e-4, "t={t}");
        }
    }

    #[test]
    fn kernels_agree_on_grid_points() {
        let (sub, geom) = test_sub();
        let r = geom.bin_range(50);
        let th = sub.grid.beam_theta(5);
        let mut c = OpCounts::default();
        let n = sample(&sub, &geom, r, th, InterpKind::Nearest, &mut c);
        let l = sample(&sub, &geom, r, th, InterpKind::Linear, &mut c);
        let q = sample(&sub, &geom, r, th, InterpKind::Cubic, &mut c);
        assert!((n - l).abs() < 1e-3);
        assert!((n - q).abs() < 1e-2);
    }

    #[test]
    fn cost_ordering_nearest_cheapest() {
        let (sub, geom) = test_sub();
        let r = geom.bin_range(50) + 0.4;
        let th = sub.grid.beam_theta(5) + 0.3 * sub.grid.d_theta;
        let cost = |kind| {
            let mut c = OpCounts::default();
            sample(&sub, &geom, r, th, kind, &mut c);
            c.flop_work() + c.loads
        };
        let n = cost(InterpKind::Nearest);
        let l = cost(InterpKind::Linear);
        let q = cost(InterpKind::Cubic);
        assert!(n < l && l < q, "costs: nearest={n}, linear={l}, cubic={q}");
    }
}
