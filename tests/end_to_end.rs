//! End-to-end integration: the full signal chain from chirp echoes to
//! a focused image, and the Table I harness shape on a small workload.

use sar_repro::sar_core::ffbp::{ffbp, FfbpConfig};
use sar_repro::sar_core::gbp::gbp;
use sar_repro::sar_core::geometry::SarGeometry;
use sar_repro::sar_core::quality::energy_concentration;
use sar_repro::sar_core::scene::{simulate_via_chirp, Scene};
use sar_repro::sar_core::signal::ChirpParams;
use sar_repro::sar_epiphany::table1;
use sar_repro::sim_harness::{AutofocusWorkload, FfbpWorkload};

/// Expected (beam, bin) of a target on the final polar grid.
fn expected_position(geom: &SarGeometry, x: f32, y: f32) -> (usize, usize) {
    let r = (x * x + y * y).sqrt();
    let theta = (y / r).acos();
    let beam = ((theta - geom.theta_min()) / (2.0 * geom.theta_half_span) * geom.num_pulses as f32)
        .round() as usize;
    let bin = ((r - geom.r0) / geom.dr).round() as usize;
    (beam.min(geom.num_pulses - 1), bin.min(geom.num_bins - 1))
}

#[test]
fn chirp_to_focused_image() {
    // The whole front half of the chain: raw chirp echoes, matched
    // filtering, then FFBP — no shortcut through the direct synthesis.
    let geom = SarGeometry {
        num_pulses: 32,
        num_bins: 200,
        ..SarGeometry::test_size()
    };
    let scene = Scene::single_target(geom);
    let data = simulate_via_chirp(
        &scene,
        ChirpParams {
            samples: 64,
            fractional_bandwidth: 0.9,
        },
    );
    let run = ffbp(&data, &geom, &FfbpConfig::default());
    let t = scene.targets[0];
    let (eb, ei) = expected_position(&geom, t.x, t.y);
    let (_, beam, bin) = run.image.peak();
    assert!(
        (beam as i64 - eb as i64).abs() <= 3,
        "azimuth focus: got beam {beam}, expected ~{eb}"
    );
    assert!(
        (bin as i64 - ei as i64).abs() <= 3,
        "range focus: got bin {bin}, expected ~{ei}"
    );
}

#[test]
fn six_targets_all_focus() {
    let geom = SarGeometry::test_size();
    let scene = Scene::six_targets(geom);
    let data = sar_repro::sar_core::scene::simulate_compressed_data(&scene, 0.0, 7);
    let run = ffbp(&data, &geom, &FfbpConfig::default());
    let expected: Vec<(usize, usize)> = scene
        .targets
        .iter()
        .map(|t| expected_position(&geom, t.x, t.y))
        .collect();
    // A large share of image energy must sit in small boxes around the
    // six true positions (guard sized for the NN-interpolation blur).
    let conc = energy_concentration(&run.image, &expected, 6);
    assert!(conc > 0.4, "energy concentration {conc:.2} too low");

    // And GBP concentrates at the same positions at least as well.
    let reference = gbp(&data, &geom, geom.num_pulses);
    let conc_gbp = energy_concentration(&reference.image, &expected, 6);
    assert!(conc_gbp > conc * 0.8, "GBP should be at least comparable");
}

#[test]
fn noisy_data_still_focuses() {
    let geom = SarGeometry::test_size();
    let scene = Scene::single_target(geom);
    let data = sar_repro::sar_core::scene::simulate_compressed_data(&scene, 0.05, 11);
    let run = ffbp(&data, &geom, &FfbpConfig::default());
    let t = scene.targets[0];
    let (eb, ei) = expected_position(&geom, t.x, t.y);
    let (_, beam, bin) = run.image.peak();
    assert!((beam as i64 - eb as i64).abs() <= 3);
    assert!((bin as i64 - ei as i64).abs() <= 3);
}

#[test]
fn table1_small_reproduces_the_paper_shape() {
    let t = table1(&FfbpWorkload::small(), &AutofocusWorkload::small());
    // Ordering claims of the paper, which must hold at any scale:
    // 1. Sequential Epiphany loses to the i7 on FFBP (memory-bound).
    assert!(t.ffbp[1].speedup < 1.0);
    // 2. 16-core Epiphany wins on FFBP.
    assert!(t.ffbp[2].speedup > 1.0);
    // 3. Sequential Epiphany is roughly competitive on autofocus.
    assert!(t.autofocus[1].speedup > 0.3 && t.autofocus[1].speedup < 1.5);
    // 4. The 13-core pipeline wins on autofocus.
    assert!(t.autofocus[2].speedup > 1.0);
    // 5. Energy-efficiency advantages exceed the raw power ratio.
    assert!(t.ffbp_energy_ratio > 8.75);
    assert!(t.autofocus_energy_ratio > 8.75);
}
