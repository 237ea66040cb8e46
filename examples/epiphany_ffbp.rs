//! Run the SPMD FFBP mapping on the simulated 16-core Epiphany and
//! print the machine report: simulated time, energy breakdown, eLink
//! pressure, and the prefetch hit rate that drives the paper's story.
//!
//! Run with: `cargo run --example epiphany_ffbp --release`

use sar_repro::epiphany::EpiphanyParams;
use sar_repro::sar_epiphany::ffbp_seq;
use sar_repro::sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_repro::sim_harness::{FfbpWorkload, RunContext};

fn main() {
    let ctx = RunContext::plain();
    // A reduced workload keeps the example quick; the full Table I run
    // lives in `cargo run -p bench --bin table1 --release`.
    let w = FfbpWorkload::of(sar_repro::sar_core::geometry::SarGeometry {
        num_pulses: 256,
        ..sar_repro::sar_core::geometry::SarGeometry::paper_size()
    });

    let seq = ffbp_seq::run(&w, EpiphanyParams::default(), &ctx);
    let par = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx);

    println!("{}", seq.record);
    println!();
    println!("{}", par.record);
    println!();
    let hits = par
        .record
        .metric("local_hits")
        .expect("stamped by the driver");
    let misses = par
        .record
        .metric("external_misses")
        .expect("stamped by the driver");
    println!(
        "prefetch coverage: {hits} local / {misses} external ({:.1}% hit rate)",
        100.0 * hits / (hits + misses)
    );
    println!(
        "16-core speedup over one Epiphany core: {:.2}x (paper, full size: 11.7x)",
        seq.record.elapsed.seconds() / par.record.elapsed.seconds()
    );
    assert_eq!(
        seq.image.as_slice(),
        par.image.as_slice(),
        "both mappings must form the same image"
    );
}
