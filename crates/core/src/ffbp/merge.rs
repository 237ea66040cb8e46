//! Subaperture element combining — eq. (5) of the paper, with the
//! child observation coordinates from eqs. (1)–(4).

use desim::OpCounts;

use crate::complex::c32;
use crate::ffbp::grid::Subaperture;
use crate::ffbp::interp::{sample, InterpKind};
use crate::geometry::{merge_geometry, SarGeometry};

/// Combine one output sample from the two child contributions:
/// `a(r1, theta1) + b(r2, theta2)` (eq. 5), with per-child phase
/// alignment `exp(j 4 pi (r_child - r) / lambda)` referencing the
/// child's range history to the merged centre. The paper's simplified
/// implementation folds this factor into the element combining.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn combine_sample(
    a: &Subaperture,
    b: &Subaperture,
    geom: &SarGeometry,
    r: f32,
    theta: f32,
    l: f32,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) -> c32 {
    combine_sample_with_lookup(a, b, geom, r, theta, l, kind, phase_correct, counts).0
}

/// [`combine_sample`] plus the geometry lookup it used — machine-model
/// drivers need the child coordinates to decide which accesses were
/// local (prefetched) and which went to external memory.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn combine_sample_with_lookup(
    a: &Subaperture,
    b: &Subaperture,
    geom: &SarGeometry,
    r: f32,
    theta: f32,
    l: f32,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) -> (c32, crate::geometry::MergeLookup) {
    let look = merge_geometry(r, theta, l, counts);
    let va = sample(a, geom, look.r1, look.theta1, kind, counts);
    let vb = sample(b, geom, look.r2, look.theta2, kind, counts);
    let v = if phase_correct {
        let k = 4.0 * std::f32::consts::PI / geom.wavelength;
        let pa = c32::cis(k * (look.r1 - r));
        let pb = c32::cis(k * (look.r2 - r));
        counts.trigs += 2;
        counts.fmas += 8;
        counts.flops += 2;
        va * pa + vb * pb
    } else {
        counts.flops += 2;
        va + vb
    };
    (v, look)
}

/// Compute one output beam (row `j` of the merged grid) into
/// `row_out`. Shared by the sequential and host-parallel drivers.
#[allow(clippy::too_many_arguments)]
pub fn merge_pair_row(
    a: &Subaperture,
    b: &Subaperture,
    geom: &SarGeometry,
    out_grid: &crate::ffbp::grid::PolarGrid,
    l: f32,
    j: usize,
    kind: InterpKind,
    phase_correct: bool,
    row_out: &mut [c32],
    counts: &mut OpCounts,
) {
    debug_assert_eq!(row_out.len(), geom.num_bins);
    let theta = out_grid.beam_theta(j);
    for (i, out) in row_out.iter_mut().enumerate() {
        let r = geom.bin_range(i);
        *out = combine_sample(a, b, geom, r, theta, l, kind, phase_correct, counts);
        counts.stores += 2;
    }
}

/// Merge two adjacent subapertures into one with doubled angular
/// resolution. `a` must be the trailing child (smaller `center_y`).
pub fn merge_pair(
    a: &Subaperture,
    b: &Subaperture,
    geom: &SarGeometry,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) -> Subaperture {
    assert!(
        a.center_y < b.center_y,
        "children must be ordered along track"
    );
    assert_eq!(a.grid, b.grid, "children must share a grid");
    assert!(
        (a.length - b.length).abs() < 1e-3,
        "children must have equal length"
    );
    let l = b.center_y - a.center_y;
    let mut out = Subaperture::merged_shell(a, b, geom.num_bins);
    let out_grid = out.grid;
    for j in 0..out_grid.n_beams {
        merge_pair_row(
            a,
            b,
            geom,
            &out_grid,
            l,
            j,
            kind,
            phase_correct,
            out.data.row_mut(j),
            counts,
        );
    }
    out
}

/// Merge `m >= 2` adjacent subapertures at once (merge base `m`),
/// generalising eqs. (1)–(4) to children at offsets
/// `(c - (m-1)/2) * l_child` from the merged centre.
pub fn merge_group(
    children: &[Subaperture],
    geom: &SarGeometry,
    kind: InterpKind,
    phase_correct: bool,
    counts: &mut OpCounts,
) -> Subaperture {
    let m = children.len();
    assert!(m >= 2, "merge base must be at least 2");
    for w in children.windows(2) {
        assert!(w[0].center_y < w[1].center_y, "children must be ordered");
        assert_eq!(w[0].grid, w[1].grid, "children must share a grid");
    }
    let center = children.iter().map(|c| c.center_y).sum::<f32>() / m as f32;
    let total_len: f32 = children.iter().map(|c| c.length).sum();
    let out_grid = children[0].grid.refined_by(m);
    let mut out = Subaperture::zeros(center, total_len, out_grid, geom.num_bins);
    let k = 4.0 * std::f32::consts::PI / geom.wavelength;

    for j in 0..out_grid.n_beams {
        let theta = out_grid.beam_theta(j);
        let (sin_t, cos_t) = theta.sin_cos();
        counts.trigs += 1;
        for i in 0..geom.num_bins {
            let r = geom.bin_range(i);
            let (x, y) = (r * sin_t, r * cos_t);
            let mut acc = c32::ZERO;
            for child in children {
                let d = child.center_y - center;
                let dy = y - d;
                let rc = (x * x + dy * dy).sqrt();
                let thc = (dy / rc).clamp(-1.0, 1.0).acos();
                counts.sqrts += 1;
                counts.trigs += 1;
                counts.divs += 1;
                counts.fmas += 4;
                let v = sample(child, geom, rc, thc, kind, counts);
                if phase_correct {
                    acc += v * c32::cis(k * (rc - r));
                    counts.trigs += 1;
                    counts.fmas += 4;
                } else {
                    acc += v;
                    counts.flops += 2;
                }
            }
            *out.data.at_mut(j, i) = acc;
            counts.stores += 2;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp::grid::PolarGrid;
    use crate::ffbp::pipeline::stage0;
    use crate::scene::{simulate_compressed_data, Scene};

    fn two_pulse_children() -> (Vec<Subaperture>, SarGeometry) {
        let geom = SarGeometry::test_size();
        let scene = Scene::single_target(geom);
        let data = simulate_compressed_data(&scene, 0.0, 0);
        (stage0(&data, &geom), geom)
    }

    #[test]
    fn merge_doubles_beams_and_centers() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let merged = merge_pair(&subs[0], &subs[1], &geom, InterpKind::Nearest, true, &mut c);
        assert_eq!(merged.grid.n_beams, 2);
        assert!((merged.center_y - (subs[0].center_y + subs[1].center_y) / 2.0).abs() < 1e-4);
        assert!((merged.length - 2.0 * subs[0].length).abs() < 1e-4);
        assert!(c.sqrts > 0 && c.stores > 0);
    }

    #[test]
    fn merged_energy_shows_coherent_gain() {
        // Merging two pulses that both contain the target response
        // should grow the peak beyond either child's (coherent sum).
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let merged = merge_pair(
            &subs[30],
            &subs[31],
            &geom,
            InterpKind::Nearest,
            true,
            &mut c,
        );
        let (pm, _, _) = merged.data.peak();
        let (p0, _, _) = subs[30].data.peak();
        assert!(pm > 1.5 * p0, "merged peak {pm} vs child {p0}");
    }

    #[test]
    fn phase_correction_matters() {
        // Without phase alignment the two-pulse sum is incoherent and
        // the peak is lower.
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let with = merge_pair(
            &subs[30],
            &subs[31],
            &geom,
            InterpKind::Nearest,
            true,
            &mut c,
        );
        let without = merge_pair(
            &subs[30],
            &subs[31],
            &geom,
            InterpKind::Nearest,
            false,
            &mut c,
        );
        // At a 1 m wavelength with metre-scale bins, dropping the
        // correction cannot beat the aligned sum.
        assert!(with.data.peak().0 >= 0.9 * without.data.peak().0);
    }

    #[test]
    fn merge_group_base2_close_to_merge_pair() {
        let (subs, geom) = two_pulse_children();
        let mut c1 = OpCounts::default();
        let mut c2 = OpCounts::default();
        let a = merge_pair(
            &subs[10],
            &subs[11],
            &geom,
            InterpKind::Linear,
            true,
            &mut c1,
        );
        let b = merge_group(
            &[subs[10].clone(), subs[11].clone()],
            &geom,
            InterpKind::Linear,
            true,
            &mut c2,
        );
        assert_eq!(a.grid.n_beams, b.grid.n_beams);
        // Same geometry expressed two ways: images should agree closely.
        let mut max_err = 0.0f32;
        let mut max_mag = 0.0f32;
        for (x, y) in a.data.as_slice().iter().zip(b.data.as_slice()) {
            max_err = max_err.max((*x - *y).abs());
            max_mag = max_mag.max(x.abs());
        }
        assert!(
            max_err < 0.05 * max_mag.max(1e-6),
            "pair vs group mismatch: {max_err} vs peak {max_mag}"
        );
    }

    #[test]
    fn group_of_four_quadruples_beams() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let four: Vec<_> = subs[0..4].to_vec();
        let merged = merge_group(&four, &geom, InterpKind::Nearest, true, &mut c);
        assert_eq!(merged.grid.n_beams, 4);
        assert!((merged.length - 4.0 * subs[0].length).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "ordered along track")]
    fn wrong_order_rejected() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let _ = merge_pair(&subs[1], &subs[0], &geom, InterpKind::Nearest, true, &mut c);
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn mismatched_grids_rejected() {
        let (subs, geom) = two_pulse_children();
        let mut c = OpCounts::default();
        let mut b = subs[1].clone();
        b.grid = PolarGrid {
            n_beams: 2,
            ..b.grid
        };
        b.data = crate::image::ComplexImage::zeros(2, geom.num_bins);
        let _ = merge_pair(&subs[0], &b, &geom, InterpKind::Nearest, true, &mut c);
    }
}
