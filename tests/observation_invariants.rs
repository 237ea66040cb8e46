//! Conservation invariants of what the chip model observes (ROADMAP
//! item 4), over every registered chip pair at small scale: phases
//! are ordered, disjoint and end by the makespan; no counter, mesh
//! byte-hop, transfer or link-busy figure sums over the phases to more
//! than the run saw — and to exactly the run total where the phases
//! tile the run; the power timeline's epochs tile `[0, makespan]`.

use sar_repro::desim::{Cycle, PhaseRecord, RunRecord};
use sar_repro::epiphany::activity::slot;
use sar_repro::sar_epiphany::all_mappings;
use sar_repro::sim_harness::{all_platforms, run, PlatformKind, Workload};

/// Mappings whose phases cover every cycle and every event of the run.
const TILING: [&str; 4] = ["ffbp_seq", "ffbp_spmd", "rda_seq", "rda_spmd"];

/// Every chip pair's record, labelled `mapping x platform`.
fn chip_records() -> Vec<(String, RunRecord)> {
    let mut out = Vec::new();
    for m in all_mappings() {
        for p in all_platforms() {
            if p.kind() == PlatformKind::Epiphany && m.supports(p.kind()) {
                let w = Workload::named(m.kernel(), true).expect("registered kernel");
                let r = run(m.as_ref(), &w, p.as_ref()).expect("supported pair runs");
                out.push((format!("{} x {}", m.name(), p.label()), r.record));
            }
        }
    }
    assert!(out.len() >= 10, "registry shrank: {} chip pairs", out.len());
    out
}

/// The phases the machine observed (the harness appends a synthetic
/// `unattributed` one for energy outside them).
fn observed(r: &RunRecord) -> impl Iterator<Item = &PhaseRecord> {
    r.phases.iter().filter(|p| p.name != "unattributed")
}

#[test]
fn phases_are_ordered_disjoint_and_end_by_the_makespan() {
    for (pair, r) in chip_records() {
        let eps = 1e-9 * r.millis();
        let mut cursor = 0.0;
        for p in observed(&r) {
            assert!(p.time_ms >= 0.0, "{pair}: {}[{}]", p.name, p.index);
            assert!(
                p.start_ms >= cursor - eps,
                "{pair}: {}[{}] starts at {} ms, before {cursor} ms",
                p.name,
                p.index,
                p.start_ms
            );
            cursor = p.start_ms + p.time_ms;
        }
        assert!(cursor <= r.millis() + eps, "{pair}: phases outrun the run");
        if TILING.iter().any(|m| pair.starts_with(m)) {
            let covered: f64 = observed(&r).map(|p| p.time_ms).sum();
            assert!((covered - r.millis()).abs() <= eps, "{pair}: phases tile");
        }
    }
}

#[test]
fn no_phase_sum_exceeds_the_run_total() {
    for (pair, r) in chip_records() {
        let tiles = TILING.iter().any(|m| pair.starts_with(m));
        let check = |what: &str, phases: u64, run: u64| {
            assert!(
                phases <= run,
                "{pair}: {what} {phases} in phases, {run} in run"
            );
            if tiles {
                assert_eq!(phases, run, "{pair}: {what} where the phases tile the run");
            }
        };
        let mut in_phases = 0;
        for name in slot::NAMES {
            let sum: f64 = observed(&r).filter_map(|p| p.metrics.get(name)).sum();
            in_phases += sum as u64;
            check(name, sum as u64, r.counters.get(name));
        }
        assert!(in_phases > 0, "{pair}: no counter reached any phase");
        // Each mesh figure of a phase against the run counter it sums to.
        type Figure = fn(&PhaseRecord) -> u64;
        let mesh: [(&str, Figure); 5] = [
            ("cmesh_byte_hops", |p| p.mesh.cmesh_byte_hops),
            ("rmesh_byte_hops", |p| p.mesh.rmesh_byte_hops),
            ("xmesh_byte_hops", |p| p.mesh.xmesh_byte_hops),
            ("mesh_transfers", |p| p.mesh.transfers),
            ("mesh_link_busy_cycles", |p| p.mesh.link_busy_cycles),
        ];
        for (name, of) in mesh {
            check(name, observed(&r).map(of).sum(), r.counters.get(name));
        }
    }
}

#[test]
fn power_epochs_tile_the_run() {
    for (pair, r) in chip_records() {
        let epochs = &r
            .power
            .as_ref()
            .expect("chip records carry power")
            .timeline
            .epochs;
        let mut cursor = Cycle::ZERO;
        for e in epochs {
            assert_eq!(e.start, cursor, "{pair}: gap or overlap in the timeline");
            assert!(e.end >= e.start, "{pair}: epoch runs backwards");
            cursor = e.end;
        }
        assert_eq!(
            cursor, r.elapsed.cycles,
            "{pair}: timeline ends at the makespan"
        );
    }
}
