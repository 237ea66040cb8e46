//! Figure 7: (a) pulse-compressed raw data, (b) GBP image, (c) FFBP
//! image "on Intel", (d) FFBP image "on Epiphany".
//!
//! Writes the four panels as PGM files into `fig7_out/` and prints the
//! quality metrics the paper discusses: the FFBP panels are identical
//! to each other (same functional kernel on both machines) and
//! measurably noisier than the GBP reference because of the simplified
//! nearest-neighbour interpolation.
//!
//! Usage: `cargo run -p bench --bin fig7 --release [-- --small] [-- --json]`

use std::path::Path;

use sar_core::gbp::gbp;
use sar_core::quality::{image_entropy, normalized_rmse, peak_sidelobe_ratio_db};
use sar_epiphany::{ffbp_ref, ffbp_seq};
use sim_harness::{BenchHarness, FfbpWorkload, Flag, RunContext};

fn main() {
    let mut h = BenchHarness::declared("fig7", &[Flag::SMALL]);
    let w = if h.small() {
        FfbpWorkload::small()
    } else {
        FfbpWorkload::paper()
    };
    let out = Path::new("fig7_out");
    std::fs::create_dir_all(out).expect("create output dir");

    h.say(format_args!(
        "Figure 7 reproduction ({} x {})",
        w.geom.num_pulses, w.geom.num_bins
    ));

    // (a) raw pulse-compressed data: six curved target paths.
    w.data
        .write_pgm(&out.join("fig7a_raw_data.pgm"), -50.0)
        .expect("write (a)");
    h.say("(a) pulse-compressed raw data  -> fig7a_raw_data.pgm");

    // (b) GBP reference.
    let reference = gbp(&w.data, &w.geom, w.geom.num_pulses);
    reference
        .image
        .write_pgm(&out.join("fig7b_gbp.pgm"), -50.0)
        .expect("write (b)");
    h.say(format_args!(
        "(b) GBP image                  -> fig7b_gbp.pgm   (PSLR {:.1} dB, entropy {:.2})",
        peak_sidelobe_ratio_db(&reference.image, 4),
        image_entropy(&reference.image)
    ));

    // (c)/(d) FFBP through the two machine models — same kernel, same
    // numbers; only time/energy differ.
    let intel = ffbp_ref::run(&w, refcpu::RefCpuParams::default());
    intel
        .image
        .write_pgm(&out.join("fig7c_ffbp_intel.pgm"), -50.0)
        .expect("write (c)");
    let epiphany = ffbp_seq::run(
        &w,
        epiphany::EpiphanyParams::default(),
        &RunContext::plain(),
    );
    epiphany
        .image
        .write_pgm(&out.join("fig7d_ffbp_epiphany.pgm"), -50.0)
        .expect("write (d)");

    let identical = intel.image.as_slice() == epiphany.image.as_slice();
    h.say(format_args!(
        "(c) FFBP on Intel model        -> fig7c_ffbp_intel.pgm    (PSLR {:.1} dB, entropy {:.2})",
        peak_sidelobe_ratio_db(&intel.image, 4),
        image_entropy(&intel.image)
    ));
    h.say(format_args!(
        "(d) FFBP on Epiphany model     -> fig7d_ffbp_epiphany.pgm (identical to (c): {identical})"
    ));
    let rmse = normalized_rmse(&intel.image, &reference.image);
    h.say("\nQuality vs GBP (the paper: FFBP/NN is visibly noisier):");
    h.say(format_args!("  FFBP normalized RMSE vs GBP : {rmse:.4}"));
    h.say(format_args!(
        "  entropy GBP / FFBP          : {:.2} / {:.2}",
        image_entropy(&reference.image),
        image_entropy(&intel.image)
    ));
    for mut record in [intel.record, epiphany.record] {
        record.set_metric("rmse_vs_gbp", rmse);
        record.set_metric("entropy", image_entropy(&intel.image));
        record.set_metric(
            "pslr_db",
            f64::from(peak_sidelobe_ratio_db(&intel.image, 4)),
        );
        record.set_metric("images_identical", f64::from(u8::from(identical)));
        h.record(record);
    }
    h.finish();
    assert!(identical, "machines must produce identical FFBP images");
}
