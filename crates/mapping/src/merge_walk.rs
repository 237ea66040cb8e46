//! The FFBP merge traversal the three FFBP drivers share: stage → pair
//! → output beam → range bin, with the child-beam bases and output-row
//! addresses the [`ExternalLayout`] implies. A driver supplies only
//! what its machine does with a row and with each contributing element
//! ([`crate::ffbp_ref`] touches its cache hierarchy, [`crate::ffbp_seq`]
//! issues blocking reads, [`crate::ffbp_spmd`] prefetches and splits
//! hits from misses); the arithmetic, the op ledger and the addresses
//! are stated here once.

use desim::OpCounts;
use memsim::GlobalAddr;
use sar_core::complex::c32;
use sar_core::ffbp::grid::Subaperture;
use sar_core::ffbp::interp::nearest_indices;
use sar_core::ffbp::merge::combine_sample_with_lookup;
use sar_core::ffbp::pipeline::stage0;
use sar_core::image::ComplexImage;
use sim_harness::FfbpWorkload;

use crate::layout::ExternalLayout;

/// The `(bin, beam)` element of a child subaperture that contributes
/// to an output sample; `None` when the lookup falls outside the
/// child's swath.
pub(crate) type Hit = Option<(usize, usize)>;

/// One output row of a merge: output beam `theta` of the pair `a`, `b`.
pub(crate) struct MergeRow<'a> {
    /// The trailing child.
    pub a: &'a Subaperture,
    /// The leading child.
    pub b: &'a Subaperture,
    /// Along-track distance between the children's centres.
    pub l: f32,
    /// Centre angle of the output beam.
    pub theta: f32,
    /// The row's beam index across the whole output stage — also its
    /// position in the stage's row order (the SPMD work-unit number).
    pub out_beam: u32,
    /// Beam index of each child's beam 0 across the input stage.
    child_base: [u32; 2],
    /// The stage the children belong to (the output is `stage + 1`).
    stage: u32,
    /// Where both stages live in external memory.
    pub layout: ExternalLayout,
    w: &'a FfbpWorkload,
}

impl MergeRow<'_> {
    /// External address of element `(bin, beam)` of child 0 (`a`) or
    /// 1 (`b`).
    pub fn child_addr(&self, child: usize, (bin, beam): (usize, usize)) -> GlobalAddr {
        self.layout
            .addr(self.stage, self.child_base[child] + beam as u32, bin as u32)
    }

    /// External addresses of a sample's in-swath contributions, child
    /// `a`'s first.
    pub fn child_addrs(&self, hits: [Hit; 2]) -> impl Iterator<Item = GlobalAddr> + '_ {
        hits.into_iter()
            .enumerate()
            .filter_map(|(child, hit)| Some(self.child_addr(child, hit?)))
    }

    /// External address of this row's sample `bin`.
    pub fn out_addr(&self, bin: usize) -> GlobalAddr {
        self.layout.addr(self.stage + 1, self.out_beam, bin as u32)
    }

    /// Compute the row into `out`, reporting each sample's two
    /// contributing elements to `sample(bin, hits)`. Returns the row's
    /// arithmetic for the machine model to price.
    #[inline]
    pub fn combine(&self, out: &mut [c32], mut sample: impl FnMut(usize, [Hit; 2])) -> OpCounts {
        let (w, geom) = (self.w, &self.w.geom);
        let mut ops = OpCounts::default();
        for (i, v) in out.iter_mut().enumerate() {
            let look;
            (*v, look) = combine_sample_with_lookup(
                self.a,
                self.b,
                geom,
                geom.bin_range(i),
                self.theta,
                self.l,
                w.config.interp,
                w.config.phase_correct,
                &mut ops,
            );
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
}

/// One merge iteration: hand every output row of `stage` (stage number
/// `stage_idx`), pair by pair and beam by beam, to `row` together with
/// the slice it must [`MergeRow::combine`] into. Returns the merged
/// stage.
pub(crate) fn merge_rows(
    w: &FfbpWorkload,
    stage: &[Subaperture],
    stage_idx: u32,
    mut row: impl FnMut(&MergeRow<'_>, &mut [c32]),
) -> Vec<Subaperture> {
    let layout = ExternalLayout::of(w);
    let child_beams = stage[0].grid.n_beams as u32;
    let mut next = Vec::with_capacity(stage.len() / 2);
    for (pair_idx, pair) in stage.chunks(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        let mut out = Subaperture::merged_shell(a, b, w.geom.num_bins);
        let base_a = 2 * pair_idx as u32 * child_beams;
        for j in 0..out.grid.n_beams {
            let merge_row = MergeRow {
                a,
                b,
                l: b.center_y - a.center_y,
                theta: out.grid.beam_theta(j),
                out_beam: (pair_idx * out.grid.n_beams + j) as u32,
                child_base: [base_a, base_a + child_beams],
                stage: stage_idx,
                layout,
                w,
            };
            row(&merge_row, out.data.row_mut(j));
        }
        next.push(out);
    }
    next
}

/// The whole image formation: stage 0 from the pulse-compressed data,
/// then `merge(stage, stage_idx)` per iteration until one subaperture
/// — the image — is left.
pub(crate) fn merge_stages(
    w: &FfbpWorkload,
    mut merge: impl FnMut(&[Subaperture], u32) -> Vec<Subaperture>,
) -> ComplexImage {
    let mut stage = stage0(&w.data, &w.geom);
    let mut stage_idx = 0;
    while stage.len() > 1 {
        stage = merge(&stage, stage_idx);
        stage_idx += 1;
    }
    stage.into_iter().next().expect("non-empty stage").data
}

/// Op counts of one output sample under the workload's interpolation
/// and phase-correction settings. The kernel's counts are
/// data-independent, so the first sample of the first stage-0 pair is
/// exact for every sample of the run — the models' declaration cannot
/// drift from the kernel, because it *is* the kernel, reached through
/// the drivers' own walk.
pub(crate) fn probe_sample(w: &FfbpWorkload) -> OpCounts {
    let stage = stage0(&w.data, &w.geom);
    let mut ops = None;
    merge_rows(w, &stage[..2], 0, |row, out| {
        ops.get_or_insert_with(|| row.combine(&mut out[..1], |_, _| {}));
    });
    ops.expect("a pair has output rows")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_visits_every_output_row_at_its_layout_address() {
        let w = FfbpWorkload::small();
        let layout = ExternalLayout::of(&w);
        let mut rows = 0u32;
        let mut expected_rows = 0;
        let image = merge_stages(&w, |stage, stage_idx| {
            let out_beams = 2 * stage[0].grid.n_beams;
            expected_rows += (stage.len() / 2 * out_beams) as u32;
            let mut in_stage = 0u32;
            let next = merge_rows(&w, stage, stage_idx, |row, out| {
                // Rows arrive pair by pair, beam by beam: consecutive
                // rows of the output stage's buffer.
                assert_eq!(row.out_beam, in_stage);
                assert_eq!(row.out_addr(0), layout.addr(stage_idx + 1, in_stage, 0));
                assert_eq!(row.out_addr(7), layout.addr(stage_idx + 1, in_stage, 7));
                // The pair's children sit back to back in the input
                // stage's buffer, `a` first.
                let pair = in_stage / out_beams as u32;
                let child_beams = stage[0].grid.n_beams as u32;
                let a0 = 2 * pair * child_beams;
                assert_eq!(row.child_addr(0, (3, 0)), layout.addr(stage_idx, a0, 3));
                assert_eq!(
                    row.child_addr(1, (3, 0)),
                    layout.addr(stage_idx, a0 + child_beams, 3)
                );
                assert_eq!(out.len(), w.geom.num_bins);
                row.combine(out, |_, _| {});
                in_stage += 1;
            });
            rows += in_stage;
            next
        });
        // Every stage has one output row per pulse.
        let stages = w.geom.merge_iterations();
        assert_eq!(expected_rows, w.geom.num_pulses as u32 * stages);
        assert_eq!(rows, expected_rows);
        let plain = sar_core::ffbp::ffbp(&w.data, &w.geom, &w.config);
        assert_eq!(image.as_slice(), plain.image.as_slice());
    }
}
