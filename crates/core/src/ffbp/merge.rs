//! Subaperture element combining — eq. (5) of the paper, with the
//! child observation coordinates from eqs. (1)–(4) — and the walk of one
//! merge iteration: pair by pair, beam by beam ([`stage_rows`]), bin by
//! bin ([`MergeRow::combine`]). Every FFBP in the workspace — the plain
//! [`crate::ffbp::ffbp`], the host-parallel and autofocused ones, and
//! the machine drivers of `sar-epiphany` — is a caller of this one loop
//! nest; [`crate::ffbp::pipeline::merge_stages`] is the stage loop
//! around it.

use desim::OpCounts;

use crate::complex::c32;
use crate::ffbp::grid::Subaperture;
use crate::ffbp::interp::{nearest_indices, sample, InterpKind};
use crate::ffbp::pipeline::FfbpConfig;
use crate::geometry::{merge_geometry, MergeLookup, SarGeometry};

/// The `(bin, beam)` element of a child subaperture that contributes
/// to an output sample; `None` when the lookup falls outside the
/// child's swath.
pub type Hit = Option<(usize, usize)>;

/// One output row of a merge — output beam `beam` of pair `pair` — as
/// the walk ([`stage_rows`]) states it: everything the per-bin loop
/// needs, and nothing about where a machine keeps the data.
pub struct MergeRow<'a> {
    /// The trailing child.
    pub a: &'a Subaperture,
    /// The leading child.
    pub b: &'a Subaperture,
    /// Along-track distance between the children's centres.
    pub l: f32,
    /// Centre angle of the output beam.
    pub theta: f32,
    /// The pair's position in its stage.
    pub pair: usize,
    /// The row's beam index in the pair's output.
    pub beam: usize,
    geom: &'a SarGeometry,
    cfg: FfbpConfig,
}

impl MergeRow<'_> {
    /// Combine the output sample at range `r` from the two child
    /// contributions: `a(r1, theta1) + b(r2, theta2)` (eq. 5), with
    /// per-child phase alignment `exp(j 4 pi (r_child - r) / lambda)`
    /// referencing the child's range history to the merged centre. The
    /// paper's simplified implementation folds this factor into the
    /// element combining. Returns the sample and the geometry lookup it
    /// used.
    #[inline]
    fn combine_sample(&self, r: f32, counts: &mut OpCounts) -> (c32, MergeLookup) {
        let (geom, kind) = (self.geom, self.cfg.interp);
        let look = merge_geometry(r, self.theta, self.l, counts);
        let va = sample(self.a, geom, look.r1, look.theta1, kind, counts);
        let vb = sample(self.b, geom, look.r2, look.theta2, kind, counts);
        let v = if self.cfg.phase_correct {
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

    /// Compute the row into `out`, reporting each sample's two
    /// contributing elements to `sample(bin, hits)` (a caller with no
    /// use for them passes `|_, _| {}` and pays nothing). Returns the
    /// row's arithmetic — the ledger a machine model prices; what the
    /// machine does with the result row is the machine's to count.
    #[inline]
    pub fn combine(&self, out: &mut [c32], mut sample: impl FnMut(usize, [Hit; 2])) -> OpCounts {
        let geom = self.geom;
        let mut ops = OpCounts::default();
        for (i, v) in out.iter_mut().enumerate() {
            let look;
            (*v, look) = self.combine_sample(geom.bin_range(i), &mut ops);
            sample(
                i,
                [
                    nearest_indices(self.a, geom, look.r1, look.theta1),
                    nearest_indices(self.b, geom, look.r2, look.theta2),
                ],
            );
        }
        ops
    }

    /// The plain algorithm's row: [`MergeRow::combine`] with the hits
    /// ignored, plus the two word stores per sample that put the result
    /// in memory (a machine driver prices its own write-back instead).
    pub fn merge_into(&self, out: &mut [c32], counts: &mut OpCounts) {
        debug_assert_eq!(out.len(), self.geom.num_bins);
        counts.add(&self.combine(out, |_, _| {}));
        counts.stores += 2 * out.len() as u64;
    }
}

/// The rows of one pair, beam by beam, each with the row of `out` (the
/// pair's [`Subaperture::merged_shell`]) it fills. `a` must be the
/// trailing child (smaller `center_y`).
fn pair_rows<'a>(
    a: &'a Subaperture,
    b: &'a Subaperture,
    pair: usize,
    out: &'a mut Subaperture,
    geom: &'a SarGeometry,
    cfg: FfbpConfig,
) -> impl Iterator<Item = (MergeRow<'a>, &'a mut [c32])> {
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
    let grid = out.grid;
    let rows = out.data.as_mut_slice().chunks_mut(geom.num_bins);
    rows.enumerate().map(move |(beam, row_out)| {
        let theta = grid.beam_theta(beam);
        let row = MergeRow {
            a,
            b,
            l,
            theta,
            pair,
            beam,
            geom,
            cfg,
        };
        (row, row_out)
    })
}

/// The zeroed successors of `stage`, one per adjacent pair.
pub(crate) fn merged_shells(stage: &[Subaperture], num_bins: usize) -> Vec<Subaperture> {
    let pairs = stage.chunks(2);
    pairs
        .map(|p| Subaperture::merged_shell(&p[0], &p[1], num_bins))
        .collect()
}

/// The walk of one merge iteration at merge base 2: every output row of
/// `stage` — pair by pair, beam by beam — with the slice of `next`
/// ([`merged_shells`]) it fills. The rows are independent of one
/// another, so a caller may visit them in any order or deal them to
/// threads ([`crate::parallel`]).
pub(crate) fn stage_rows<'a>(
    stage: &'a [Subaperture],
    next: &'a mut [Subaperture],
    geom: &'a SarGeometry,
    cfg: &FfbpConfig,
) -> impl Iterator<Item = (MergeRow<'a>, &'a mut [c32])> {
    let cfg = *cfg;
    let pairs = stage.chunks(2).zip(next).enumerate();
    pairs.flat_map(move |(pair, (ab, out))| pair_rows(&ab[0], &ab[1], pair, out, geom, cfg))
}

/// One merge iteration, in walk order: hand every output row of
/// `stage` to `row` together with the slice it must
/// [`MergeRow::combine`] into. Returns the merged stage.
pub fn merge_rows(
    stage: &[Subaperture],
    geom: &SarGeometry,
    cfg: &FfbpConfig,
    mut row: impl FnMut(&MergeRow<'_>, &mut [c32]),
) -> Vec<Subaperture> {
    let mut next = merged_shells(stage, geom.num_bins);
    for (merge_row, out) in stage_rows(stage, &mut next, geom, cfg) {
        row(&merge_row, out);
    }
    next
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
    let cfg = FfbpConfig {
        interp: kind,
        phase_correct,
        merge_base: 2,
    };
    let mut out = Subaperture::merged_shell(a, b, geom.num_bins);
    for (row, row_out) in pair_rows(a, b, 0, &mut out, geom, cfg) {
        row.merge_into(row_out, counts);
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
