//! The image-quality ablations of EXPERIMENTS.md, pinned: A2
//! (interpolation kernel, the paper's §VI remark), A6 (merge base) and
//! A7 (autofocus recovery under non-linear tracks, the paper's
//! Figure 4). Each test runs the library calls the study is made of and
//! asserts every deterministic number of its table bit for bit —
//! simulated cycles, flop work, iterations, RMSE, entropy, peaks,
//! fixes and the −6 dB widths. Host wall time is not a number of these
//! studies: it does not repeat.
//!
//! `cargo test --release --test ablations -- --nocapture` prints the
//! tables. A deliberate change to FFBP, GBP, the autofocus estimator or
//! the machine model regenerates the expected rows from the assertion
//! message and says in EXPERIMENTS.md what moved.

use sar_repro::epiphany::EpiphanyParams;
use sar_repro::sar_core::autofocus::integrated::{ffbp_with_autofocus, IntegratedConfig};
use sar_repro::sar_core::ffbp::{ffbp, FfbpConfig, InterpKind};
use sar_repro::sar_core::gbp::gbp;
use sar_repro::sar_core::geometry::SarGeometry;
use sar_repro::sar_core::quality::{image_entropy, normalized_rmse, response_width, Axis};
use sar_repro::sar_core::scene::{simulate_compressed_data, simulate_with_track, Scene};
use sar_repro::sar_core::track::FlightTrack;
use sar_repro::sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_repro::sim_harness::{FfbpWorkload, RunContext};

/// The paper geometry cut to `pulses x bins`.
fn geometry(pulses: usize, bins: usize) -> SarGeometry {
    SarGeometry {
        num_pulses: pulses,
        num_bins: bins,
        ..SarGeometry::paper_size()
    }
}

/// The six-target workload of A2 and A6: 256 pulses x 513 bins.
fn workload() -> FfbpWorkload {
    FfbpWorkload::of(geometry(256, 513))
}

/// One A2 row: the kernel's 16-core Epiphany run and its image.
#[derive(Debug, PartialEq)]
struct KernelRow {
    kernel: &'static str,
    cycles: u64,
    flop_work: u64,
    rmse_vs_gbp: f64,
    entropy: f64,
}

#[test]
fn a2_interpolation_kernels() {
    let base = workload();
    let reference = gbp(&base.data, &base.geom, base.geom.num_pulses);
    println!("A2: FFBP interpolation kernels (256 pulses x 513 bins; RMSE vs GBP)");
    println!(
        "{:>9} {:>14} {:>12} {:>12} {:>10}",
        "kernel", "epiphany (ms)", "flop work", "RMSE", "entropy"
    );
    let mut rows = Vec::new();
    for (kernel, interp) in [
        ("nearest", InterpKind::Nearest),
        ("linear", InterpKind::Linear),
        ("cubic", InterpKind::Cubic),
    ] {
        let w = FfbpWorkload {
            config: FfbpConfig {
                interp,
                ..base.config
            },
            ..base.clone()
        };
        let machine = ffbp_spmd::run(
            &w,
            EpiphanyParams::default(),
            SpmdOptions::default(),
            &RunContext::plain(),
        );
        let plain = ffbp(&w.data, &w.geom, &w.config);
        let row = KernelRow {
            kernel,
            cycles: machine.record.elapsed.cycles.raw(),
            flop_work: plain.counts.flop_work(),
            rmse_vs_gbp: normalized_rmse(&plain.image, &reference.image),
            entropy: image_entropy(&plain.image),
        };
        println!(
            "{:>9} {:>14.2} {:>12} {:>12.4} {:>10.2}",
            row.kernel,
            machine.record.millis(),
            row.flop_work,
            row.rmse_vs_gbp,
            row.entropy
        );
        rows.push(row);
    }
    assert_eq!(
        rows,
        [
            KernelRow {
                kernel: "nearest",
                cycles: 21_073_438,
                flop_work: 37_822_464,
                rmse_vs_gbp: 0.016012250574376184,
                entropy: 8.55882060511831,
            },
            KernelRow {
                kernel: "linear",
                cycles: 21_942_875,
                flop_work: 63_037_440,
                rmse_vs_gbp: 0.025170744396641572,
                entropy: 7.880666458843116,
            },
            KernelRow {
                kernel: "cubic",
                cycles: 30_635_018,
                flop_work: 264_757_248,
                rmse_vs_gbp: 0.010693320264629241,
                entropy: 8.370597777949662,
            },
        ]
    );
}

/// One A6 row: plain FFBP at one merge base.
#[derive(Debug, PartialEq)]
struct BaseRow {
    merge_base: usize,
    iterations: u32,
    flop_work: u64,
    rmse_vs_gbp: f64,
    entropy: f64,
}

#[test]
fn a6_merge_base() {
    let w = workload();
    let reference = gbp(&w.data, &w.geom, w.geom.num_pulses);
    println!("A6: FFBP merge base (256 pulses x 513 bins; RMSE vs GBP)");
    println!(
        "{:>5} {:>11} {:>14} {:>12} {:>10}",
        "base", "iterations", "flop work", "RMSE", "entropy"
    );
    let rows: Vec<BaseRow> = [2, 4]
        .into_iter()
        .map(|merge_base| {
            let cfg = FfbpConfig {
                merge_base,
                ..w.config
            };
            let run = ffbp(&w.data, &w.geom, &cfg);
            let row = BaseRow {
                merge_base,
                iterations: run.iterations,
                flop_work: run.counts.flop_work(),
                rmse_vs_gbp: normalized_rmse(&run.image, &reference.image),
                entropy: image_entropy(&run.image),
            };
            println!(
                "{:>5} {:>11} {:>14} {:>12.4} {:>10.2}",
                row.merge_base, row.iterations, row.flop_work, row.rmse_vs_gbp, row.entropy
            );
            row
        })
        .collect();
    assert_eq!(
        rows,
        [
            BaseRow {
                merge_base: 2,
                iterations: 8,
                flop_work: 37_822_464,
                rmse_vs_gbp: 0.016012250574376184,
                entropy: 8.55882060511831,
            },
            BaseRow {
                merge_base: 4,
                iterations: 4,
                flop_work: 37_822_464,
                rmse_vs_gbp: 0.010455417001388835,
                entropy: 8.44793710862515,
            },
        ]
    );
}

/// One A7 row: a track's plain and autofocused peaks, as a percentage
/// of the straight-track FFBP peak, and the images' entropies.
#[derive(Debug, PartialEq)]
struct TrackRow {
    track: &'static str,
    plain_peak_pct: f32,
    autofocus_peak_pct: f32,
    recovered_pct: f32,
    fixes: usize,
    entropy_plain: f64,
    entropy_autofocus: f64,
}

#[test]
fn a7_autofocus_recovery() {
    let geom = geometry(256, 257);
    let scene = Scene::single_target(geom);
    let clean = simulate_compressed_data(&scene, 0.0, 0);
    let ideal = ffbp(&clean, &geom, &FfbpConfig::default());
    let (ideal_peak, _, _) = ideal.image.peak();
    println!("A7: autofocus recovery under non-linear flight tracks");
    println!("(256 pulses, single target; peaks relative to straight-track FFBP)");
    println!(
        "{:<24} {:>11} {:>11} {:>11} {:>6} {:>12}",
        "track", "plain peak", "autof peak", "recovered", "fixes", "entropy +/-"
    );
    let pulses = geom.num_pulses;
    let mut rows = Vec::new();
    for (track, path) in [
        ("straight", FlightTrack::straight(pulses)),
        ("step 1.5 m", FlightTrack::step(pulses, 1.5)),
        (
            "sinusoid 1.0 m / 96 p",
            FlightTrack::sinusoidal(pulses, 1.0, 96.0),
        ),
        (
            "sinusoid 1.0 m / 128 p",
            FlightTrack::sinusoidal(pulses, 1.0, 128.0),
        ),
        (
            "random walk 0.10 m/p",
            FlightTrack::random_walk(pulses, 0.10, 5),
        ),
    ] {
        let data = simulate_with_track(&scene, &path, 0.0, 0);
        let plain = ffbp(&data, &geom, &FfbpConfig::default());
        let auto = ffbp_with_autofocus(&data, &geom, &IntegratedConfig::default());
        let (p_plain, _, _) = plain.image.peak();
        let (p_auto, _, _) = auto.image.peak();
        let row = TrackRow {
            track,
            plain_peak_pct: 100.0 * p_plain / ideal_peak,
            autofocus_peak_pct: 100.0 * p_auto / ideal_peak,
            recovered_pct: 100.0 * (p_auto - p_plain) / ideal_peak,
            fixes: auto.corrections.len(),
            entropy_plain: image_entropy(&plain.image),
            entropy_autofocus: image_entropy(&auto.image),
        };
        println!(
            "{:<24} {:>10.1}% {:>10.1}% {:>10.1}% {:>6} {:>5.2}/{:<5.2}",
            row.track,
            row.plain_peak_pct,
            row.autofocus_peak_pct,
            row.recovered_pct,
            row.fixes,
            row.entropy_plain,
            row.entropy_autofocus
        );
        rows.push(row);
    }
    let widths = (
        response_width(&ideal.image, Axis::Range, 0.5),
        response_width(&ideal.image, Axis::CrossRange, 0.5),
    );
    println!(
        "ideal peak {ideal_peak}; -6 dB widths: range {:.1} px, cross-range {:.1} px",
        widths.0, widths.1
    );
    assert_eq!(
        (ideal_peak, widths),
        (133.407_36, (1.949_356_3, 35.187_386))
    );
    // The 128-pulse sinusoid is the estimator's blind spot: its period
    // divides the subaperture lengths, every subaperture's mean offset
    // is zero, and no pairwise shift is left to measure (0 fixes). On
    // the random walk the plain peak already exceeds the straight
    // track's, and autofocus lowers it.
    assert_eq!(
        rows,
        [
            TrackRow {
                track: "straight",
                plain_peak_pct: 100.0,
                autofocus_peak_pct: 114.508_3,
                recovered_pct: 14.508_306_5,
                fixes: 2,
                entropy_plain: 6.822432428674736,
                entropy_autofocus: 6.817374954183634,
            },
            TrackRow {
                track: "step 1.5 m",
                plain_peak_pct: 97.589_39,
                autofocus_peak_pct: 125.626_88,
                recovered_pct: 28.037_483,
                fixes: 1,
                entropy_plain: 6.961244701456838,
                entropy_autofocus: 6.835741813398698,
            },
            TrackRow {
                track: "sinusoid 1.0 m / 96 p",
                plain_peak_pct: 62.879_585,
                autofocus_peak_pct: 74.688_91,
                recovered_pct: 11.809_331,
                fixes: 1,
                entropy_plain: 7.127363947906244,
                entropy_autofocus: 7.106325284804806,
            },
            TrackRow {
                track: "sinusoid 1.0 m / 128 p",
                plain_peak_pct: 76.840_67,
                autofocus_peak_pct: 76.840_67,
                recovered_pct: 0.0,
                fixes: 0,
                entropy_plain: 7.0511504196901535,
                entropy_autofocus: 7.0511504196901535,
            },
            TrackRow {
                track: "random walk 0.10 m/p",
                plain_peak_pct: 116.034_29,
                autofocus_peak_pct: 105.593_59,
                recovered_pct: -10.440_69,
                fixes: 3,
                entropy_plain: 6.728660726067845,
                entropy_autofocus: 6.757237711995471,
            },
        ]
    );
}
