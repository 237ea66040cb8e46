//! E3 — energy deep-dive. Table I only multiplies datasheet power by
//! time; the model can attribute the Epiphany's energy to components
//! (datapath, local store, mesh, eLink, SDRAM, leakage) and show *why*
//! the streaming autofocus pipeline is 2x more energy-efficient per
//! datasheet watt than FFBP: it never touches the expensive off-chip
//! path.
//!
//! Runs through the harness registry, so every record carries the
//! powertrace block: the component split comes from the per-phase
//! [`desim::PhasePower`] deltas, and each phase prints its dominant
//! component and stall/compute attribution.
//!
//! Usage: `cargo run -p bench --bin energy_report --release [-- --full] [-- --json]`

use desim::RunRecord;
use sar_epiphany::mapping_named;
use sim_harness::{platform_named, run, BenchHarness, Workload};

fn show(h: &mut BenchHarness, record: RunRecord) {
    let e = &record.energy;
    let total = e.total_j();
    let pct = |x: f64| 100.0 * x / total.max(f64::MIN_POSITIVE);
    h.say(format_args!("\n{}", record.label));
    h.say(format_args!(
        "  time {:>10.3} ms | energy {:>10.4} J | power {:>6.3} W",
        record.millis(),
        total,
        record.avg_power_w()
    ));
    h.say(format_args!(
        "  datapath {:>5.1}% | SRAM {:>5.1}% | mesh {:>5.1}% | eLink {:>5.1}% | SDRAM {:>5.1}% | static {:>5.1}%",
        pct(e.compute_j),
        pct(e.sram_j),
        pct(e.mesh_j),
        pct(e.elink_j),
        pct(e.sdram_j),
        pct(e.static_j)
    ));
    if let Some(power) = &record.power {
        for p in &power.phases {
            let a = &p.attribution;
            h.say(format_args!(
                "    {:<20} {:>9.6} J  dominant {:<7} {:>5.1}%  compute {:>3.0}% / stall {:>3.0}%",
                format!("{}[{}]", p.name, p.index),
                p.energy.total_j(),
                a.dominant,
                100.0 * a.dominant_share,
                100.0 * a.compute_fraction,
                100.0 * a.stall_fraction
            ));
        }
    }
    h.record(record);
}

fn main() {
    let mut h = BenchHarness::new("energy_report");
    let small = !h.flag("full");
    let platform = platform_named("epiphany").expect("epiphany platform is registered");

    h.say("Component-level energy breakdowns (Epiphany model)");
    for name in ["ffbp_seq", "ffbp_spmd", "autofocus_seq", "autofocus_mpmd"] {
        let m = mapping_named(name).expect("registered mapping");
        let w = Workload::named(m.kernel(), small).expect("registered workload");
        let out = run(m.as_ref(), &w, platform.as_ref()).expect("registered pair runs");
        show(&mut h, out.record);
    }

    h.say("\nFFBP pays for every byte that crosses the eLink (drivers + SDRAM);");
    h.say("the autofocus pipeline keeps data on the mesh, so nearly all its");
    h.say("energy is useful arithmetic — the mechanism behind 38x vs 78x.");
    h.finish();
}
