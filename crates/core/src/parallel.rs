//! Host-thread parallel FFBP — the "general purpose multi-core"
//! comparison point (Lidberg et al., the paper's Section IV): coarse
//! data-level parallelism over the output image, the same partitioning
//! idea the Epiphany SPMD mapping uses, but with threads on the host.

use std::sync::Mutex;

use desim::OpCounts;

use crate::ffbp::merge::{StagePlans, StageRows};
use crate::ffbp::pipeline::{merge_stages, FfbpConfig, FfbpRun};
use crate::geometry::SarGeometry;
use crate::image::ComplexImage;

/// Run FFBP with `threads` worker threads. Functionally identical to
/// [`crate::ffbp::ffbp`] with merge base 2; within each merge the
/// workers claim the walk's output rows one at a time from a shared
/// queue, which balances the load, and plan each into per-worker scratch
/// (one row): workers share no plan, so none is reused — a shared table
/// would have to be filled before they start.
pub fn ffbp_parallel(
    data: &ComplexImage,
    geom: &SarGeometry,
    cfg: &FfbpConfig,
    threads: usize,
) -> FfbpRun {
    assert!(threads >= 1, "need at least one thread");
    assert_eq!(cfg.merge_base, 2, "parallel driver implements merge base 2");
    let mut counts = OpCounts::default();
    let (image, iterations) = merge_stages(data, geom, |stage, _| {
        let mut next = stage.merged(2);
        let rows = StageRows::new(&stage, geom, cfg);
        let outs = next.data.as_mut_slice().chunks_mut(geom.num_bins);
        let queue = Mutex::new(outs.enumerate());
        std::thread::scope(|scope| {
            let worker = || {
                let mut plans = StagePlans::one_row(geom.num_bins);
                let mut local = OpCounts::default();
                loop {
                    // A `let`, so the queue is unlocked while the row
                    // is computed.
                    let claimed = queue.lock().expect("no worker panics in `next`").next();
                    let Some((k, out)) = claimed else { break };
                    plans.plan(rows.row(k)).merge_into(out, &mut local);
                }
                local
            };
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            for w in workers {
                counts.add(&w.join().expect("a merge worker panicked"));
            }
        });
        next
    });
    FfbpRun {
        image,
        counts,
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
