//! A3 — attribute the SPMD FFBP performance to its two memory tricks:
//! DMA prefetch into the upper local banks, and non-stalling posted
//! writes. The paper credits both (§VI); this bench isolates each.
//!
//! Usage: `cargo run -p bench --bin prefetch_ablation --release [-- --json]`

use epiphany::EpiphanyParams;
use refcpu::RefCpuParams;
use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_epiphany::{ffbp_ref, ffbp_seq};
use sim_harness::{BenchHarness, RunContext};

fn main() {
    let ctx = RunContext::plain();
    let mut h = BenchHarness::new("prefetch_ablation");
    let w = bench::reduced_ffbp(256, 1001);
    h.say(format_args!(
        "FFBP memory-system ablation ({} pulses x {} bins)",
        w.geom.num_pulses, w.geom.num_bins
    ));

    let with = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx);
    let without = ffbp_spmd::run(
        &w,
        EpiphanyParams::default(),
        SpmdOptions {
            prefetch: false,
            ..SpmdOptions::default()
        },
        &ctx,
    );
    h.say("\nEpiphany SPMD (16 cores):");
    h.say(format_args!(
        "  prefetch ON : {:>10.2} ms   local {} / external {}",
        with.record.millis(),
        with.record.metric("local_hits").unwrap_or(0.0),
        with.record.metric("external_misses").unwrap_or(0.0)
    ));
    h.say(format_args!(
        "  prefetch OFF: {:>10.2} ms   local {} / external {}",
        without.record.millis(),
        without.record.metric("local_hits").unwrap_or(0.0),
        without.record.metric("external_misses").unwrap_or(0.0)
    ));
    h.say(format_args!(
        "  prefetch speedup: {}",
        bench::fmt_x(without.record.elapsed.seconds() / with.record.elapsed.seconds())
    ));
    let mut r_with = with.record;
    r_with.label = format!("{} — prefetch ON", r_with.label);
    let mut r_without = without.record;
    r_without.label = format!("{} — prefetch OFF", r_without.label);
    r_without.set_metric("slowdown_vs_prefetch", {
        r_without.elapsed.seconds() / r_with.elapsed.seconds()
    });
    h.record(r_with);
    h.record(r_without);

    // Sequential side: Epiphany's naive port vs the i7 with and
    // without *its* prefetcher — the other half of the paper's
    // memory-system argument.
    let seq = ffbp_seq::run(&w, EpiphanyParams::default(), &ctx);
    let i7 = ffbp_ref::run(&w, RefCpuParams::default());
    let i7_nopf = ffbp_ref::run(&w, RefCpuParams::without_prefetch());
    h.say("\nSequential configurations:");
    h.say(format_args!(
        "  Epiphany 1 core (no cache)     : {:>10.2} ms",
        seq.record.millis()
    ));
    h.say(format_args!(
        "  i7 model (caches + prefetcher) : {:>10.2} ms",
        i7.record.millis()
    ));
    h.say(format_args!(
        "  i7 model (prefetcher disabled) : {:>10.2} ms",
        i7_nopf.record.millis()
    ));
    h.say(format_args!(
        "  i7 prefetcher contribution     : {}",
        bench::fmt_x(i7_nopf.record.elapsed.seconds() / i7.record.elapsed.seconds())
    ));
    h.record(seq.record);
    h.record(i7.record);
    let mut r_nopf = i7_nopf.record;
    r_nopf.label = format!("{} — prefetcher disabled", r_nopf.label);
    h.record(r_nopf);
    h.finish();
}
