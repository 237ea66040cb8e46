//! A2 — interpolation-kernel ablation: the paper uses simplified
//! (nearest-neighbour) interpolation and remarks that cubic kernels
//! would "considerably improve" image quality at higher cost. Quantify
//! both sides: cycles on the Epiphany model and fidelity to GBP.
//!
//! Usage: `cargo run -p bench --bin interp_ablation --release [-- --json]`

use epiphany::EpiphanyParams;
use sar_core::ffbp::{ffbp, FfbpConfig, InterpKind};
use sar_core::gbp::gbp;
use sar_core::quality::{image_entropy, normalized_rmse};
use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sim_harness::{BenchHarness, FfbpWorkload, RunContext};

fn main() {
    let mut h = BenchHarness::new("interp_ablation");
    let base = bench::reduced_ffbp(256, 513);
    let reference = gbp(&base.data, &base.geom, base.geom.num_pulses);
    h.say(format_args!(
        "FFBP interpolation ablation ({} pulses x {} bins; RMSE vs GBP)",
        base.geom.num_pulses, base.geom.num_bins
    ));
    h.say(format_args!(
        "{:>9} {:>14} {:>12} {:>12} {:>10}",
        "kernel", "epiphany (ms)", "flop work", "RMSE", "entropy"
    ));
    for (name, kind) in [
        ("nearest", InterpKind::Nearest),
        ("linear", InterpKind::Linear),
        ("cubic", InterpKind::Cubic),
    ] {
        let w = FfbpWorkload {
            config: FfbpConfig {
                interp: kind,
                ..base.config
            },
            ..base.clone()
        };
        let mut machine = ffbp_spmd::run(
            &w,
            EpiphanyParams::default(),
            SpmdOptions::default(),
            &RunContext::plain(),
        );
        let plain = ffbp(&w.data, &w.geom, &w.config);
        let rmse = normalized_rmse(&plain.image, &reference.image);
        let entropy = image_entropy(&plain.image);
        h.say(format_args!(
            "{:>9} {:>14.2} {:>12} {:>12.4} {:>10.2}",
            name,
            machine.record.millis(),
            plain.counts.flop_work(),
            rmse,
            entropy
        ));
        machine.record.label = format!("{} — {name} interpolation", machine.record.label);
        machine
            .record
            .set_metric("flop_work", plain.counts.flop_work() as f64);
        machine.record.set_metric("rmse_vs_gbp", rmse);
        machine.record.set_metric("entropy", entropy);
        h.record(machine.record);
    }
    h.say("\nNearest is cheapest and noisiest; cubic buys fidelity with flops —");
    h.say("the trade the paper points at without quantifying.");
    h.finish();
}
