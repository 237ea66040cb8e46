//! Fault-intensity sweep: how much makespan and energy the recovery
//! policies cost as the injected-fault count grows, on both recovered
//! mappings — the SPMD FFBP (checkpoint/restart + degraded cores) and
//! the MPMD autofocus pipeline (watchdog retry + drain-and-restart
//! with spare-core remap). Level 0 is the fault-free baseline; every
//! level reuses the same seed, so the sweep is reproducible run to
//! run.
//!
//! Usage: `cargo run -p bench --bin fault_sweep --release [-- --json --seed N]`

use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_epiphany::{autofocus_mpmd, autofocus_seq};
use sim_harness::{
    AutofocusWorkload, BenchHarness, FaultPlan, FaultState, FfbpWorkload, Placement, RunContext,
};

/// A mixed-kind random fault group spec: `n` of each perturbation kind
/// drawn from the first `window` cycles of the run.
fn spec(n: u64, window: u64) -> String {
    format!(
        r#"{{"version": 1, "faults": [
            {{"kind": "flag_drop", "count": {n}, "window": [0, {window}]}},
            {{"kind": "sdram_bit_error", "count": {n}, "window": [0, {window}]}},
            {{"kind": "elink_degrade", "count": {n}, "window": [0, {window}], "extra": 128}},
            {{"kind": "mesh_stall", "count": {n}, "window": [0, {window}], "extra": 256}}
        ]}}"#
    )
}

fn main() {
    let mut h = BenchHarness::new("fault_sweep");
    let seed = h.uint_operand("seed").unwrap_or_else(|d| {
        eprintln!("{d}");
        std::process::exit(2);
    });
    let seed = seed.unwrap_or(7);
    let fw = FfbpWorkload::small();
    let aw = AutofocusWorkload::small();

    h.say(format_args!("fault-intensity sweep (seed {seed})"));
    h.say(format_args!(
        "{:>14} {:>7} {:>10} {:>8} {:>12} {:>12}",
        "mapping", "faults", "time (ms)", "retries", "rec. cycles", "overhead"
    ));

    let mut ffbp_base = 0.0f64;
    let mut af_base = 0.0f64;
    for n in [0u64, 1, 2, 4, 8] {
        // FFBP/SPMD: the window spans the run so every level lands
        // inside it. Flag drops stay pending here (the SPMD drain uses
        // local flags, not remote writes) — only the timing kinds bite.
        let plan = FaultPlan::parse(&spec(n, 400_000), seed).expect("sweep spec parses");
        let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
        let r = ffbp_spmd::run(
            &fw,
            epiphany::EpiphanyParams::default(),
            SpmdOptions::default(),
            &ctx,
        );
        let ms = r.record.millis();
        if n == 0 {
            ffbp_base = ms;
        }
        let mut record = r.record;
        record.set_metric("fault_level", n as f64);
        record.set_metric("overhead_pct", 100.0 * (ms / ffbp_base - 1.0));
        h.say(format_args!(
            "{:>14} {:>7} {:>10.3} {:>8} {:>12} {:>11.2}%",
            "ffbp_spmd",
            record.faults.faults_injected,
            ms,
            record.faults.retries,
            record.faults.recovery_cycles,
            100.0 * (ms / ffbp_base - 1.0)
        ));
        h.record(record);

        // Autofocus/MPMD: a shorter run, so a tighter window; here the
        // flag drops do bite (every inter-stage message is a remote
        // flag write) and cost watchdog timeouts.
        let plan = FaultPlan::parse(&spec(n, 40_000), seed).expect("sweep spec parses");
        let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
        let r = autofocus_mpmd::run(&aw, autofocus_seq::params(), Placement::neighbor(), &ctx);
        let ms = r.record.millis();
        if n == 0 {
            af_base = ms;
        }
        let mut record = r.record;
        record.set_metric("fault_level", n as f64);
        record.set_metric("overhead_pct", 100.0 * (ms / af_base - 1.0));
        h.say(format_args!(
            "{:>14} {:>7} {:>10.3} {:>8} {:>12} {:>11.2}%",
            "autofocus_mpmd",
            record.faults.faults_injected,
            ms,
            record.faults.retries,
            record.faults.recovery_cycles,
            100.0 * (ms / af_base - 1.0)
        ));
        h.record(record);
    }

    h.say("\nRecovery degrades gracefully: overhead grows with the injected");
    h.say("count, and every level produces bit-identical images/sweeps to the");
    h.say("fault-free run (the drivers' recovery tests assert this).");
    h.finish();
}
