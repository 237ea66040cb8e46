//! Regenerates Table I of the paper at full workload scale.
//!
//! Usage: `cargo run -p bench --bin table1 --release [-- --small] [-- --json]`
//!
//! The bench document carries the six per-configuration [`desim::RunRecord`]s
//! plus a `"table"` key with the rendered rows — the same shape as the
//! checked-in golden baseline `results/table1_baseline.json`.

use sim_harness::{AutofocusWorkload, BenchHarness, FfbpWorkload, Flag};

fn main() {
    let mut h = BenchHarness::declared("table1", &[Flag::SMALL]);
    let (fw, aw) = if h.small() {
        (FfbpWorkload::small(), AutofocusWorkload::small())
    } else {
        (FfbpWorkload::paper(), AutofocusWorkload::paper())
    };
    let t = sar_epiphany::table1(&fw, &aw);
    h.say(&t);
    h.attach("table", t.to_json());
    for r in t.records {
        h.record(r);
    }
    h.finish();
}
