//! Shared helpers for the benchmark harness and report binaries.
//!
//! Binaries (one per paper artefact or ablation — see DESIGN.md §4):
//!
//! * `table1` — Table I (all six configurations) + derived figures,
//! * `fig7` — Figure 7(a)-(d) as PGM images + quality metrics,
//! * `interp_ablation` — NN vs linear vs cubic (A2),
//! * `merge_base` — merge base 2 vs 4 (A6),
//! * `autofocus_recovery` — the Figure-4 pipeline under non-linear
//!   tracks (A7),
//! * `loader_cost` — SPMD vs MPMD program-load cost (A8),
//! * `vs_multicore` — real host threads vs the simulated Epiphany on
//!   throughput per watt (A9),
//! * `rda_corner_turn` — the RDA corner turn's mesh and SDRAM pressure
//!   against FFBP on the same scene (E6),
//! * `run` — the unified runner: any registered Mapping × Platform ×
//!   Workload triple through `sim_harness::run` (`--placement
//!   neighbor|scattered` is the Figure 9 placement study, E5).
//!
//! The energy breakdown (E3) and the core-count, memory-system,
//! off-chip-bandwidth, clock and fault-intensity ablations (A1, A3, A4,
//! A5, A10) are sweep specs under `specs/`, run by the `sweep` binary.
//!
//! Every binary sits on [`sim_harness::BenchHarness`]: the shared
//! `--small` / `--json` / `--out P` / `--no-write` flags, and one
//! versioned record document written under `results/`.

#![forbid(unsafe_code)]

use sar_core::geometry::SarGeometry;
use sar_core::scene::{simulate_compressed_data, Scene};
use sim_harness::FfbpWorkload;

/// An FFBP workload reduced to `pulses x bins` (power-of-two pulses),
/// six-target scene, deterministic seed — the workload of the A2, A6
/// and A9 binaries.
pub fn reduced_ffbp(pulses: usize, bins: usize) -> FfbpWorkload {
    assert!(pulses.is_power_of_two(), "merge base 2 needs 2^k pulses");
    let geom = SarGeometry {
        num_pulses: pulses,
        num_bins: bins,
        ..SarGeometry::paper_size()
    };
    let scene = Scene::six_targets(geom);
    FfbpWorkload {
        geom,
        data: simulate_compressed_data(&scene, 0.0, 7),
        config: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_workload_has_requested_shape() {
        let w = reduced_ffbp(128, 257);
        assert_eq!(w.data.rows(), 128);
        assert_eq!(w.data.cols(), 257);
    }

    #[test]
    #[should_panic(expected = "2^k pulses")]
    fn non_pow2_rejected() {
        let _ = reduced_ffbp(100, 100);
    }
}
