//! What the three FFBP machine drivers add to `sar-core`'s merge walk
//! ([`sar_core::ffbp::merge_stages`] → [`sar_core::ffbp::merge_rows`] →
//! [`sar_core::ffbp::MergeRow::combine`]): where a row and its
//! contributing elements live in external memory. The arithmetic, the op
//! ledger and the order of the rows are the plain algorithm's; a driver
//! supplies only what its machine does with a row and with each
//! contributing element ([`crate::ffbp_ref`] touches its cache
//! hierarchy, [`crate::ffbp_seq`] issues blocking reads,
//! [`crate::ffbp_spmd`] prefetches and splits hits from misses).

use std::ops::Deref;

use desim::OpCounts;
use memsim::GlobalAddr;
use sar_core::complex::c32;
use sar_core::ffbp::{merge_rows, stage0, Hit, MergeRow, Subaperture};
use sim_harness::FfbpWorkload;

use crate::layout::ExternalLayout;

/// A row of the walk (which it dereferences to) at its place in the
/// [`ExternalLayout`].
pub(crate) struct LaidOutRow<'a> {
    row: &'a MergeRow<'a>,
    /// The row's beam index across the whole output stage — also its
    /// position in the stage's row order (the SPMD work-unit number).
    pub out_beam: u32,
    /// Beam index of each child's beam 0 across the input stage.
    child_base: [u32; 2],
    /// The stage the children belong to (the output is `stage + 1`).
    stage: u32,
    /// Where both stages live in external memory.
    pub layout: ExternalLayout,
}

impl<'a> Deref for LaidOutRow<'a> {
    type Target = MergeRow<'a>;

    fn deref(&self) -> &MergeRow<'a> {
        self.row
    }
}

impl LaidOutRow<'_> {
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
}

/// One merge iteration of the walk over `stage` (stage number
/// `stage_idx`), every row handed to `row` with its addresses: a
/// stage's buffer holds its subapertures back to back, beam-major.
pub(crate) fn laid_out_rows(
    w: &FfbpWorkload,
    stage: &[Subaperture],
    stage_idx: u32,
    mut row: impl FnMut(&LaidOutRow<'_>, &mut [c32]),
) -> Vec<Subaperture> {
    let layout = ExternalLayout::of(w);
    let child_beams = stage[0].grid.n_beams;
    merge_rows(stage, &w.geom, &w.config, |merge_row, out| {
        let base_a = (2 * merge_row.pair * child_beams) as u32;
        let laid_out = LaidOutRow {
            row: merge_row,
            out_beam: base_a + merge_row.beam as u32,
            child_base: [base_a, base_a + child_beams as u32],
            stage: stage_idx,
            layout,
        };
        row(&laid_out, out);
    })
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
    merge_rows(&stage[..2], &w.geom, &w.config, |row, out| {
        ops.get_or_insert_with(|| row.combine(&mut out[..1], |_, _| {}));
    });
    ops.expect("a pair has output rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_core::ffbp::merge_stages;

    #[test]
    fn the_walk_visits_every_output_row_at_its_layout_address() {
        let w = FfbpWorkload::small();
        let layout = ExternalLayout::of(&w);
        let mut rows = 0u32;
        let mut expected_rows = 0;
        let (image, _) = merge_stages(&w.data, &w.geom, |stage, stage_idx| {
            let out_beams = 2 * stage[0].grid.n_beams;
            expected_rows += (stage.len() / 2 * out_beams) as u32;
            let mut in_stage = 0u32;
            let next = laid_out_rows(&w, &stage, stage_idx, |row, out| {
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
