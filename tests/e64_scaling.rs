//! E64 scale-out regression: pinning the 16-core FFBP slice
//! assignment onto the e64's 4x4 corner subgrid reproduces the golden
//! baseline configuration — the image bit for bit against both the
//! plain algorithm and the dedicated e16 run, and the e16 run itself
//! anchored to the checked-in `results/table1_baseline.json` timing.

use sar_repro::desim::Json;
use sar_repro::epiphany::EpiphanyParams;
use sar_repro::sar_core::ffbp::ffbp;
use sar_repro::sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_repro::sim_harness::{FfbpWorkload, RunContext};

#[test]
fn e64_sixteen_core_subgrid_reproduces_the_golden_image() {
    let ctx = RunContext::plain();
    let w = FfbpWorkload::small();
    let plain = ffbp(&w.data, &w.geom, &w.config).image;
    let e16 = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx);
    let sub = ffbp_spmd::run(
        &w,
        EpiphanyParams::e64(),
        SpmdOptions {
            cores: Some(16),
            ..SpmdOptions::default()
        },
        &ctx,
    );
    // The subgrid run carries the e64 identity but the e16 slice
    // assignment...
    assert!(
        sub.record.label.contains("16 cores"),
        "{}",
        sub.record.label
    );
    // ...and forms the identical image: same slices, same merge tree,
    // same f32 arithmetic — core placement must not leak into pixels.
    assert_eq!(sub.image.as_slice(), e16.image.as_slice());
    assert_eq!(sub.image.as_slice(), plain.as_slice());

    // Anchor to the golden document: the baseline's 16-core FFBP row
    // is exactly the configuration the subgrid reproduces, so a fresh
    // e16 run must still match its recorded time (±1e-9 relative, as
    // in tests/table1_golden.rs).
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/table1_baseline.json"
    ))
    .expect("baseline file must be checked in");
    let doc = Json::parse(&text).expect("baseline parses");
    let golden_ms = doc
        .get("table")
        .and_then(|t| t.get("ffbp"))
        .and_then(Json::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("cores").and_then(Json::as_u64) == Some(16))
        })
        .and_then(|r| r.get("time_ms"))
        .and_then(Json::as_f64)
        .expect("baseline carries the 16-core FFBP row");
    let fresh_ms = e16.record.millis();
    assert!(
        (fresh_ms - golden_ms).abs() <= 1e-9 * golden_ms.abs(),
        "16-core FFBP drifted from the golden baseline: {fresh_ms} vs {golden_ms}"
    );
}

#[test]
fn the_full_e64_beats_the_e16_on_the_same_image() {
    let ctx = RunContext::plain();
    let w = FfbpWorkload::small();
    let e16 = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx);
    let e64 = ffbp_spmd::run(&w, EpiphanyParams::e64(), SpmdOptions::default(), &ctx);
    assert_eq!(e64.image.as_slice(), e16.image.as_slice());
    assert!(
        e64.record.elapsed.cycles < e16.record.elapsed.cycles,
        "64 cores must outrun 16 on the same workload"
    );
}
