//! `table1()`'s six records are the ones the harness's single entry
//! point makes: each serialises byte for byte like a
//! `sim_harness::run` of its pair on its Table I platform — at small
//! scale, and on a deep-merge geometry whose later merges miss
//! `ffbp_spmd`'s prefetched beams, so its blocking reads contend for the
//! eLink and backfill its idle gaps.

use sar_repro::desim::RunRecord;
use sar_repro::sar_core::geometry::SarGeometry;
use sar_repro::sar_core::scene::{simulate_compressed_data, Scene};
use sar_repro::sar_epiphany::{mapping_named, table1};
use sar_repro::sim_harness::{
    run, AutofocusWorkload, EpiphanyPlatform, FfbpWorkload, Platform, RefCpuPlatform, Workload,
};

/// The six pairs in `table1()`'s record order, and whether each runs on
/// the Intel reference.
const PAIRS: [(&str, bool); 6] = [
    ("ffbp_ref", true),
    ("ffbp_seq", false),
    ("ffbp_spmd", false),
    ("autofocus_ref", true),
    ("autofocus_seq", false),
    ("autofocus_mpmd", false),
];

/// Check `table1()`'s records against six runs; return them.
fn records_equal_six_runs(ffbp: &FfbpWorkload, autofocus: &AutofocusWorkload) -> Vec<RunRecord> {
    let table = table1(ffbp, autofocus);
    assert_eq!(table.records.len(), PAIRS.len());
    let workloads = [
        Workload::Ffbp(ffbp.clone()),
        Workload::Autofocus(autofocus.clone()),
    ];
    for (i, (&(name, on_intel), record)) in PAIRS.iter().zip(&table.records).enumerate() {
        let platform: Box<dyn Platform> = if on_intel {
            Box::new(RefCpuPlatform::default())
        } else {
            Box::new(EpiphanyPlatform::default())
        };
        let mapping = mapping_named(name).expect("a registered mapping");
        let alone =
            run(mapping.as_ref(), &workloads[i / 3], platform.as_ref()).expect("a supported pair");
        let (ours, theirs) = (
            record.to_json().to_string_pretty(),
            alone.record.to_json().to_string_pretty(),
        );
        assert!(ours == theirs, "{name}: table1's record differs from run's");
    }
    table.records
}

#[test]
fn table1_records_equal_six_harness_runs_at_small_scale() {
    records_equal_six_runs(&FfbpWorkload::small(), &AutofocusWorkload::small());
}

#[test]
fn table1_records_equal_six_harness_runs_on_a_deep_merge_geometry() {
    let geom = SarGeometry {
        num_pulses: 256,
        r0: 300.0,
        ..SarGeometry::test_size()
    };
    let ffbp = FfbpWorkload {
        geom,
        data: simulate_compressed_data(&Scene::single_target(geom), 0.0, 3),
        config: Default::default(),
    };
    let records = records_equal_six_runs(&ffbp, &AutofocusWorkload::small());
    // The geometry reaches the path it is here for.
    assert!(records[2].metric("external_misses").expect("stamped") > 0.0);
}
