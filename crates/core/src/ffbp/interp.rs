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
use crate::geometry::{round_index, SarGeometry};

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

/// `(x.floor() as isize, x - x.floor())`, bit for bit for every `f32`,
/// without the libm call `f32::floor` is on baseline x86-64.
#[inline]
fn floor_index(x: f32) -> (isize, f32) {
    let floor = if x.abs() < 8_388_608.0 {
        // Truncated toward zero, one lower below a negative fraction;
        // the sign of `x` keeps `floor(-0.0)`'s −0.
        let t = x as i32 as f32;
        (if t > x { t - 1.0 } else { t }).copysign(x)
    } else {
        x // 2^23 and beyond, ±inf and NaN are their own floors.
    };
    (floor as isize, x - floor)
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
    element(sub, num_bins, round_index(fr), round_index(fb))
}

/// Element `(i, j)` of the grid, or `None` outside it.
#[inline]
fn element(sub: &Subaperture, num_bins: usize, i: isize, j: isize) -> Option<(usize, usize)> {
    // A negative index wraps beyond every grid.
    let (i, j) = (i as usize, j as usize);
    (i < num_bins && j < sub.grid.n_beams).then_some((i, j))
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

/// The arithmetic of one [`sample_at`] with kernel `kind`, alike for
/// every sample: the two divisions and subtractions of
/// [`fractional_indices`] and the kernel's own.
pub(crate) fn sample_ops(kind: InterpKind) -> OpCounts {
    let (ialu, loads, fmas) = match kind {
        InterpKind::Nearest => (4, 2, 0),
        InterpKind::Linear => (4, 8, 6),
        InterpKind::Cubic => (6, 16, 6),
    };
    let mut ops = OpCounts {
        divs: 2,
        flops: 2,
        ialu,
        loads,
        fmas,
        ..OpCounts::default()
    };
    if kind == InterpKind::Cubic {
        for _ in 0..2 {
            neville4([c32::ZERO; 4], 0.0, &mut ops); // its two chains
        }
    }
    ops
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
    counts.add(&sample_ops(kind));
    value(sub, (fr, fb), (round_index(fr), round_index(fb)), kind)
}

/// A child's value at `(fr, fb)` — [`sample_at`]'s, its ledger left to
/// the caller — and its element, [`nearest_at`]'s: what a merge loop
/// reads per sample, both from one rounded index pair.
#[inline(always)]
pub(crate) fn sample_and_element(
    sub: &Subaperture,
    num_bins: usize,
    (fr, fb): (f32, f32),
    kind: InterpKind,
) -> (c32, Option<(usize, usize)>) {
    let (i, j) = (round_index(fr), round_index(fb));
    (
        value(sub, (fr, fb), (i, j), kind),
        element(sub, num_bins, i, j),
    )
}

/// Kernel `kind`'s value at `(fr, fb)`, whose rounded indices are
/// `(i, j)`.
#[inline(always)]
fn value(sub: &Subaperture, (fr, fb): (f32, f32), (i, j): (isize, isize), kind: InterpKind) -> c32 {
    // Beam direction: clamp to the sector edge (a subaperture's beams
    // tile its whole angular sector, so the nearest edge beam is the
    // right value just outside it — without this, linear/cubic kernels
    // would blend the edge beam with zeros and lose energy at every
    // early stage, where children have very few beams). The range
    // direction stays strict: outside the swath there is no data. The
    // nearest kernel clamps its rounded beam: the same, the bounds being
    // whole.
    let fb = fb.clamp(0.0, (sub.grid.n_beams - 1) as f32);
    match kind {
        InterpKind::Nearest => sub
            .data
            .at_or_zero(j.clamp(0, sub.grid.n_beams as isize - 1), i),
        InterpKind::Linear => {
            let (i, ti) = floor_index(fr);
            let (j, tj) = floor_index(fb);
            let v00 = sub.data.at_or_zero(j, i);
            let v01 = sub.data.at_or_zero(j, i + 1);
            let v10 = sub.data.at_or_zero(j + 1, i);
            let v11 = sub.data.at_or_zero(j + 1, i + 1);
            let a = v00 + (v01 - v00).scale(ti);
            let b = v10 + (v11 - v10).scale(ti);
            a + (b - a).scale(tj)
        }
        InterpKind::Cubic => {
            let (i1, t) = floor_index(fr); // sample at position 0
            let (j0, tj) = floor_index(fb);
            let mut rows = [c32::ZERO; 2];
            for (rowslot, j) in [(0usize, j0), (1, j0 + 1)] {
                let p = [
                    sub.data.at_or_zero(j, i1 - 1),
                    sub.data.at_or_zero(j, i1),
                    sub.data.at_or_zero(j, i1 + 1),
                    sub.data.at_or_zero(j, i1 + 2),
                ];
                rows[rowslot] = neville4(p, t, &mut OpCounts::default());
            }
            rows[0] + (rows[1] - rows[0]).scale(tj)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp::grid::PolarGrid;
    use crate::image::ComplexImage;

    /// An 8-beam subaperture's samples: a smooth, separable ramp, so
    /// interpolation is exact for linear kernels: v(j, i) = j * 10 + i
    /// (real).
    fn test_sub() -> (ComplexImage, SarGeometry) {
        let geom = SarGeometry::test_size();
        let mut image = ComplexImage::zeros(8, geom.num_bins);
        for j in 0..8 {
            for i in 0..geom.num_bins {
                *image.at_mut(j, i) = c32::new(j as f32 * 10.0 + i as f32, 0.0);
            }
        }
        (image, geom)
    }

    /// [`test_sub`]'s samples as a subaperture spanning the sector.
    fn view<'a>(image: &'a ComplexImage, geom: &SarGeometry) -> Subaperture<'a> {
        Subaperture {
            center_y: 0.0,
            length: 8.0,
            grid: PolarGrid::spanning(geom, 8),
            rows: 0..8,
            data: image.rows_of(0..8),
        }
    }

    /// [`round_index`] and [`floor_index`] against `f32::round` and
    /// `f32::floor` followed by `as isize`, and the fraction against
    /// `x - x.floor()` (NaN as NaN, else to the bit).
    fn assert_converts(x: f32) {
        assert_eq!(round_index(x), x.round() as isize, "round {x:e}");
        let (i, frac) = floor_index(x);
        assert_eq!(i, x.floor() as isize, "floor {x:e}");
        let expect = x - x.floor();
        assert!(
            frac.to_bits() == expect.to_bits() || frac.is_nan() && expect.is_nan(),
            "fraction of {x:e}: {frac:e} vs {expect:e}"
        );
    }

    #[test]
    fn integer_round_and_floor_match_libm_for_every_kind_of_f32() {
        let mut specials = vec![0.0f32, f32::from_bits(1), f32::from_bits(2)];
        specials.extend([f32::MIN_POSITIVE, f32::MAX, f32::INFINITY, f32::NAN]);
        for e in 23..=64 {
            let p = (e as f32).exp2();
            specials.extend([p.next_down(), p, p.next_up()]);
        }
        for x in specials {
            assert_converts(x);
            assert_converts(-x);
        }
        // Every half-integer below 2^23 in magnitude and one ulp either
        // side, then 10^7 random bit patterns: 60 million values, split
        // over two threads.
        std::thread::scope(|s| {
            for (seed, ks) in [(35, -(1i32 << 23)..0), (36, 0..1 << 23)] {
                s.spawn(move || {
                    for k in ks {
                        let half = (k as f32 + 0.5).to_bits();
                        for bits in [half - 1, half, half + 1] {
                            assert_converts(f32::from_bits(bits));
                        }
                    }
                    let mut rng = desim::rng::SmallRng::seed_from_u64(seed);
                    for _ in 0..2_500_000 {
                        let bits = rng.next_u64();
                        assert_converts(f32::from_bits(bits as u32));
                        assert_converts(f32::from_bits((bits >> 32) as u32));
                    }
                });
            }
        });
    }

    #[test]
    fn nearest_hits_exact_grid_points() {
        let (image, geom) = test_sub();
        let sub = view(&image, &geom);
        let mut c = OpCounts::default();
        let r = geom.bin_range(40);
        let th = sub.grid.beam_theta(3);
        let v = sample(&sub, &geom, r, th, InterpKind::Nearest, &mut c);
        assert_eq!(v, c32::new(70.0, 0.0));
        assert_eq!(nearest_indices(&sub, &geom, r, th), Some((40, 3)));
    }

    #[test]
    fn out_of_grid_is_zero_and_none() {
        let (image, geom) = test_sub();
        let sub = view(&image, &geom);
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
        let (image, geom) = test_sub();
        let sub = view(&image, &geom);
        let mut c = OpCounts::default();
        let fr = 40.0;
        for kind in [InterpKind::Nearest, InterpKind::Linear, InterpKind::Cubic] {
            for (outside, edge) in [(-0.8, 0.0), (7.8, 7.0)] {
                let v = sample_at(&sub, fr, outside, kind, &mut c);
                assert_eq!(v, sample_at(&sub, fr, edge, kind, &mut c), "{kind:?}");
                assert!((v - image.at(edge as usize, 40)).abs() < 1e-3, "{kind:?}");
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
        let (image, geom) = test_sub();
        let sub = view(&image, &geom);
        let mut c = OpCounts::default();
        // Halfway between bins 40/41 and beams 3/4.
        let r = geom.bin_range(40) + 0.5 * geom.dr;
        let th = (sub.grid.beam_theta(3) + sub.grid.beam_theta(4)) / 2.0;
        let v = sample(&sub, &geom, r, th, InterpKind::Linear, &mut c);
        assert!((v.re - 75.5).abs() < 1e-3, "{v}");
    }

    #[test]
    fn cubic_reproduces_linear_fields_exactly() {
        let (image, geom) = test_sub();
        let sub = view(&image, &geom);
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
        let (image, geom) = test_sub();
        let sub = view(&image, &geom);
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
        let (image, geom) = test_sub();
        let sub = view(&image, &geom);
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
