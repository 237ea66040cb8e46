//! The merge walk against its per-sample reference.
//!
//! `reference` below is the element combining as it stood before rows
//! were planned (the parent of PR 24), kept verbatim: for every output
//! sample it derives the merge geometry (eqs. 1–4), both children's
//! fractional indices, the interpolated values and the two phase
//! factors from scratch, and derives the indices a second time for the
//! reported hits. `MergeRow::combine` now reads all of that from a row
//! plan that pairs of a stage share; this test holds the two to the
//! bit — every output sample, every `OpCounts` field, every reported
//! `[Hit; 2]` — for all three kernels, phase correction on and off, a
//! dyadic pulse spacing (1.0: one `l` per stage, plans reused) and a
//! non-dyadic one (0.3: several `l` per stage, plans replaced), at
//! every stage of a 64-pulse scene, plus the 1-bin prefix call the
//! machine models' `probe_sample` makes.

use sar_core::complex::c32;
use sar_core::ffbp::{merge_rows, merge_stages, FfbpConfig, Hit, InterpKind, MergeRow};
use sar_core::geometry::SarGeometry;
use sar_core::scene::{simulate_compressed_data, Scene};
use sar_core::OpCounts;

mod reference {
    use sar_core::complex::c32;
    use sar_core::ffbp::interp::neville4;
    use sar_core::ffbp::{FfbpConfig, InterpKind, MergeRow, Subaperture};
    use sar_core::geometry::{merge_geometry, MergeLookup, SarGeometry};
    use sar_core::OpCounts;

    fn fractional_indices(sub: &Subaperture, geom: &SarGeometry, r: f32, theta: f32) -> (f32, f32) {
        let fr = (r - geom.r0) / geom.dr;
        let fb = sub.grid.beam_index(theta);
        (fr, fb)
    }

    pub fn nearest_indices(
        sub: &Subaperture,
        geom: &SarGeometry,
        r: f32,
        theta: f32,
    ) -> Option<(usize, usize)> {
        let (fr, fb) = fractional_indices(sub, geom, r, theta);
        let i = fr.round();
        let j = fb.round();
        if i < 0.0 || j < 0.0 || i as usize >= geom.num_bins || j as usize >= sub.grid.n_beams {
            None
        } else {
            Some((i as usize, j as usize))
        }
    }

    fn sample(
        sub: &Subaperture,
        geom: &SarGeometry,
        r: f32,
        theta: f32,
        kind: InterpKind,
        counts: &mut OpCounts,
    ) -> c32 {
        let (fr, fb) = fractional_indices(sub, geom, r, theta);
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

    /// `MergeRow::combine_sample` as it was; the row's private `geom`
    /// and `cfg` come in as arguments.
    pub fn combine_sample(
        row: &MergeRow<'_>,
        geom: &SarGeometry,
        cfg: &FfbpConfig,
        r: f32,
        counts: &mut OpCounts,
    ) -> (c32, MergeLookup) {
        let kind = cfg.interp;
        let look = merge_geometry(r, row.theta, row.l, counts);
        let va = sample(row.a, geom, look.r1, look.theta1, kind, counts);
        let vb = sample(row.b, geom, look.r2, look.theta2, kind, counts);
        let v = if cfg.phase_correct {
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
}

/// `MergeRow::combine` as it was, over [`reference::combine_sample`].
fn reference_combine(
    row: &MergeRow<'_>,
    geom: &SarGeometry,
    cfg: &FfbpConfig,
    out: &mut [c32],
    mut sample: impl FnMut(usize, [Hit; 2]),
) -> OpCounts {
    let mut ops = OpCounts::default();
    for (i, v) in out.iter_mut().enumerate() {
        let look;
        (*v, look) = reference::combine_sample(row, geom, cfg, geom.bin_range(i), &mut ops);
        sample(
            i,
            [
                reference::nearest_indices(row.a, geom, look.r1, look.theta1),
                reference::nearest_indices(row.b, geom, look.r2, look.theta2),
            ],
        );
    }
    ops
}

fn bits(row: &[c32]) -> Vec<(u32, u32)> {
    row.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[test]
fn the_planned_walk_equals_the_per_sample_reference_bit_for_bit() {
    let mut rows = 0;
    let mut misses = 0;
    for pulse_spacing in [1.0, 0.3] {
        let geom = SarGeometry {
            pulse_spacing,
            ..SarGeometry::test_size()
        };
        let data = simulate_compressed_data(&Scene::six_targets(geom), 0.0, 0);
        for interp in [InterpKind::Nearest, InterpKind::Linear, InterpKind::Cubic] {
            for phase_correct in [true, false] {
                let cfg = FfbpConfig {
                    interp,
                    phase_correct,
                    ..FfbpConfig::default()
                };
                let (_, iterations) = merge_stages(&data, &geom, |stage, stage_idx| {
                    merge_rows(&stage, &geom, &cfg, |row, out| {
                        let case = format!(
                            "{interp:?} phase={phase_correct} spacing={pulse_spacing} \
                             stage {stage_idx} pair {} beam {}",
                            row.pair, row.beam
                        );
                        let mut hits = Vec::new();
                        let ops = row.combine(out, |i, h| hits.push((i, h)));

                        let mut want = vec![c32::ZERO; out.len()];
                        let mut want_hits = Vec::new();
                        let want_ops = reference_combine(row, &geom, &cfg, &mut want, |i, h| {
                            want_hits.push((i, h));
                        });
                        assert_eq!(bits(out), bits(&want), "{case}: samples");
                        assert_eq!(ops, want_ops, "{case}: op ledger");
                        assert_eq!(hits, want_hits, "{case}: hits");
                        misses += hits
                            .iter()
                            .flat_map(|(_, h)| h)
                            .filter(|h| h.is_none())
                            .count();

                        // The 1-bin prefix `probe_sample` asks for.
                        let mut one = [c32::ZERO];
                        let mut one_hits = Vec::new();
                        let one_ops = row.combine(&mut one, |i, h| one_hits.push((i, h)));
                        assert_eq!(bits(&one), bits(&want[..1]), "{case}: prefix sample");
                        assert_eq!(one_ops.scaled(out.len() as u64), want_ops, "{case}: prefix");
                        assert_eq!(one_hits, want_hits[..1], "{case}: prefix hit");
                        rows += 1;
                    })
                });
                assert_eq!(iterations, geom.merge_iterations());
            }
        }
    }
    // Every stage has one output row per pulse; some lookups leave the
    // swath, so `None` hits were compared too.
    assert_eq!(rows, 2 * 3 * 2 * 6 * 64);
    assert!(misses > 0, "no out-of-swath lookup was exercised");
}
