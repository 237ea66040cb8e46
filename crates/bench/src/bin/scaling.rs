//! A1 — FFBP core-count scaling (the paper's "natural scalability"
//! claim and its 64-core outlook in §VII).
//!
//! Usage: `cargo run -p bench --bin scaling --release [-- --full] [-- --json]`
//! (default uses a 256-pulse workload; `--full` runs the paper size).

use epiphany::EpiphanyParams;
use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sim_harness::{BenchHarness, FfbpWorkload, RunContext};

fn main() {
    let mut h = BenchHarness::new("scaling");
    let w = if h.flag("full") {
        FfbpWorkload::paper()
    } else {
        bench::reduced_ffbp(256, 1001)
    };
    h.say(format_args!(
        "FFBP SPMD core scaling ({} pulses x {} bins)",
        w.geom.num_pulses, w.geom.num_bins
    ));
    h.say(format_args!(
        "{:>6} {:>12} {:>9} {:>11} {:>12} {:>10}",
        "cores", "time (ms)", "speedup", "efficiency", "eLink util", "misses"
    ));
    let mut base_ms = None;
    for cores in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut r = ffbp_spmd::run(
            &w,
            EpiphanyParams::default(),
            SpmdOptions {
                cores: Some(cores),
                ..SpmdOptions::default()
            },
            &RunContext::plain(),
        );
        let ms = r.record.millis();
        let base = *base_ms.get_or_insert(ms);
        let speedup = base / ms;
        h.say(format_args!(
            "{:>6} {:>12.2} {:>8.2}x {:>10.1}% {:>11.1}% {:>10}",
            cores,
            ms,
            speedup,
            100.0 * speedup / cores as f64,
            100.0 * r.record.elink_utilization(),
            r.record.metric("external_misses").unwrap_or(0.0)
        ));
        r.record.set_metric("speedup_vs_1", speedup);
        h.record(r.record);
    }
    h.say("\nThe eLink becomes the scaling wall: watch utilisation approach");
    h.say("100% while efficiency falls — the paper's off-chip-bandwidth story.");
    h.finish();
}
