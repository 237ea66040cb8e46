//! Related-work context (paper §IV/VI-A, Lidberg et al.): FFBP on a
//! general-purpose multicore host — real threads, real wall time —
//! against the simulated 16-core Epiphany, compared on energy
//! efficiency as the paper does ("our implementation outperforms
//! theirs in terms of energy efficiency").
//!
//! Host energy uses an assumed package power (configurable constant
//! below) times measured wall time; the Epiphany side uses the 2 W
//! datasheet figure times simulated time.
//!
//! Usage: `cargo run -p bench --bin vs_multicore --release [-- --json]`

use epiphany::EpiphanyParams;
use sar_core::geometry::SarGeometry;
use sar_core::parallel::ffbp_parallel;
use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sim_harness::{BenchHarness, FfbpWorkload, RunContext, EPIPHANY_POWER_W};

/// Assumed host package power under load, watts (a mobile/desktop
/// multicore; adjust for your machine).
const HOST_POWER_W: f64 = 45.0;

fn main() {
    let mut h = BenchHarness::declared("vs_multicore", &[]);
    let w = FfbpWorkload::of(SarGeometry {
        num_pulses: 256,
        ..SarGeometry::paper_size()
    });
    let pixels = w.pixels() as f64;
    h.say(format_args!(
        "FFBP: host threads (measured wall time) vs simulated Epiphany ({} px)",
        w.pixels()
    ));
    h.say(format_args!(
        "\n{:>16} {:>12} {:>14} {:>16}",
        "config", "time (ms)", "Mpx/s", "Mpx/s/W"
    ));

    let mut host_best = f64::MAX;
    let max_threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    for threads in [1usize, 2, 4, max_threads] {
        let (mut record, _run) =
            BenchHarness::host_record(&format!("FFBP / host, {threads} threads"), || {
                ffbp_parallel(&w.data, &w.geom, &w.config, threads)
            });
        let secs = record.elapsed.seconds();
        host_best = host_best.min(secs);
        let mpx = pixels / secs / 1e6;
        h.say(format_args!(
            "{:>12} x{:<3} {:>12.1} {:>14.2} {:>16.4}",
            "host",
            threads,
            secs * 1e3,
            mpx,
            mpx / HOST_POWER_W
        ));
        record.power_w = HOST_POWER_W;
        record.set_metric("threads", threads as f64);
        record.set_metric("mpx_per_s", mpx);
        record.set_metric("mpx_per_s_per_w", mpx / HOST_POWER_W);
        h.record(record);
    }

    let epi = ffbp_spmd::run(
        &w,
        EpiphanyParams::default(),
        SpmdOptions::default(),
        &RunContext::plain(),
    );
    let secs = epi.record.elapsed.seconds();
    let mpx = pixels / secs / 1e6;
    h.say(format_args!(
        "{:>16} {:>12.1} {:>14.2} {:>16.4}",
        "Epiphany x16",
        secs * 1e3,
        mpx,
        mpx / EPIPHANY_POWER_W
    ));
    let mut epi_record = epi.record;
    epi_record.set_metric("mpx_per_s", mpx);
    epi_record.set_metric("mpx_per_s_per_w", mpx / EPIPHANY_POWER_W);
    h.record(epi_record);

    let host_mpx_w = pixels / host_best / 1e6 / HOST_POWER_W;
    let epi_mpx_w = mpx / EPIPHANY_POWER_W;
    h.say(format_args!(
        "\nenergy-efficiency advantage (Epiphany / best host): {:.1}x",
        epi_mpx_w / host_mpx_w
    ));
    h.say("The host wins raw throughput; per watt the manycore wins — the");
    h.say("paper's conclusion against the Lidberg et al. Xeon implementation.");
    h.finish();
}
