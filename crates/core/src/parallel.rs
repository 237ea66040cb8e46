//! Host-thread parallel FFBP — the "general purpose multi-core"
//! comparison point (Lidberg et al., the paper's Section IV): coarse
//! data-level parallelism over the output image, the same partitioning
//! idea the Epiphany SPMD mapping uses, but with threads on the host.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use desim::OpCounts;

use crate::ffbp::grid::Subaperture;
use crate::ffbp::merge::merge_pair_row;
use crate::ffbp::pipeline::{stage0, FfbpConfig, FfbpRun};
use crate::geometry::SarGeometry;
use crate::image::ComplexImage;

/// Run FFBP with `threads` worker threads. Functionally identical to
/// [`crate::ffbp::ffbp`] with merge base 2; work is split by output
/// beam within each merge, with an atomic work queue balancing the load.
pub fn ffbp_parallel(
    data: &ComplexImage,
    geom: &SarGeometry,
    cfg: &FfbpConfig,
    threads: usize,
) -> FfbpRun {
    assert!(threads >= 1, "need at least one thread");
    assert_eq!(cfg.merge_base, 2, "parallel driver implements merge base 2");
    let mut stage = stage0(data, geom);
    let mut iterations = 0u32;
    let total_counts = Mutex::new(OpCounts::default());

    while stage.len() > 1 {
        let pairs: Vec<(&Subaperture, &Subaperture)> =
            stage.chunks(2).map(|pair| (&pair[0], &pair[1])).collect();
        let out_grid = stage[0].grid.refined();
        let n_beams = out_grid.n_beams;

        // Pre-allocate every output subaperture, then hand out (pair,
        // beam) units from a shared queue.
        let mut outputs: Vec<Subaperture> = pairs
            .iter()
            .map(|(a, b)| Subaperture::merged_shell(a, b, geom.num_bins))
            .collect();

        // Split each output into per-beam row slices we can distribute.
        let mut row_slots: Vec<(usize, usize, &mut [crate::complex::c32])> = Vec::new();
        for (p, out) in outputs.iter_mut().enumerate() {
            let mut rest = out.data.as_mut_slice();
            for j in 0..n_beams {
                let (row, tail) = rest.split_at_mut(geom.num_bins);
                row_slots.push((p, j, row));
                rest = tail;
            }
        }

        let next_unit = AtomicUsize::new(0);
        let slots = Mutex::new(row_slots);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut local = OpCounts::default();
                    loop {
                        let idx = next_unit.fetch_add(1, Ordering::Relaxed);
                        // Take ownership of slot `idx` (each index is
                        // claimed exactly once).
                        let unit = {
                            let mut guard = slots.lock().unwrap();
                            if idx >= guard.len() {
                                None
                            } else {
                                let (p, j, row) = &mut guard[idx];
                                // Steal the slice out of the slot.
                                let row = std::mem::take(row);
                                Some((*p, *j, row))
                            }
                        };
                        let Some((p, j, row)) = unit else { break };
                        let (a, b) = pairs[p];
                        let l = b.center_y - a.center_y;
                        merge_pair_row(
                            a,
                            b,
                            geom,
                            &out_grid,
                            l,
                            j,
                            cfg.interp,
                            cfg.phase_correct,
                            row,
                            &mut local,
                        );
                    }
                    total_counts.lock().unwrap().add(&local);
                });
            }
        });

        stage = outputs;
        iterations += 1;
    }

    let full = stage.into_iter().next().expect("non-empty stage");
    FfbpRun {
        image: full.data,
        counts: total_counts.into_inner().unwrap(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp::ffbp;
    use crate::scene::{simulate_compressed_data, Scene};

    fn setup() -> (ComplexImage, SarGeometry) {
        let geom = SarGeometry::test_size();
        let scene = Scene::six_targets(geom);
        (simulate_compressed_data(&scene, 0.0, 0), geom)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (data, geom) = setup();
        let cfg = FfbpConfig::default();
        let seq = ffbp(&data, &geom, &cfg);
        for threads in [1, 2, 4] {
            let par = ffbp_parallel(&data, &geom, &cfg, threads);
            assert_eq!(par.iterations, seq.iterations);
            assert_eq!(
                par.image.as_slice(),
                seq.image.as_slice(),
                "thread count {threads} changed the result"
            );
        }
    }

    #[test]
    fn op_counts_are_thread_count_invariant() {
        let (data, geom) = setup();
        let cfg = FfbpConfig::default();
        let a = ffbp_parallel(&data, &geom, &cfg, 2);
        let b = ffbp_parallel(&data, &geom, &cfg, 4);
        assert_eq!(a.counts, b.counts);
    }
}
