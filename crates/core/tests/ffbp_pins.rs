//! Every FFBP entry point of `sar-core`, then `rda()` and
//! `focus_criterion`, pinned to the bit and to the integer.
//!
//! `ffbp`, `ffbp_parallel` and `ffbp_with_autofocus` are callers of one
//! traversal (`sar_core::ffbp::{merge_stages, merge_rows}`); the other
//! gates compare their *images* with one another, which a traversal
//! edit that moved all of them at once would pass, and nothing else
//! records their op ledgers. `golden/ffbp_pins.txt` holds one line per
//! case below — the FNV-1a 64 hash over `re.to_bits()`, `im.to_bits()`
//! of the image in row-major order, the eight `OpCounts` fields, the
//! iteration count and (autofocus) every correction — written at the
//! commit before the four stage loops became one (PR 22). An edit that
//! only changes *where* the loop nest lives must leave it equal; a
//! deliberate change regenerates it from the lines the test prints
//! under `-- --nocapture`.
//!
//! The `rda` lines (the `RdaWorkload::small` shape, RCMC on and off:
//! image hash and `RdaRun::counts` — `tests/rda_image_bits.rs` pins
//! images only) and the `focus_criterion` lines (`f32::to_bits` of the
//! value and its ledger for five shifts over a displaced blob pair)
//! were written the same way, at the commit before those two families'
//! loop nests became `rda::Stages` and `criterion_firings` (PR 23).

use sar_core::autofocus::integrated::{ffbp_with_autofocus, IntegratedConfig};
use sar_core::autofocus::{focus_criterion, AutofocusConfig, Block6};
use sar_core::ffbp::{ffbp, FfbpConfig, InterpKind};
use sar_core::geometry::SarGeometry;
use sar_core::image::ComplexImage;
use sar_core::parallel::ffbp_parallel;
use sar_core::rda::{rda, RdaConfig};
use sar_core::scene::{simulate_compressed_data, simulate_raw_echoes, simulate_with_track, Scene};
use sar_core::signal::ChirpParams;
use sar_core::track::FlightTrack;
use sar_core::OpCounts;

fn image_hash(image: &ComplexImage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for z in image.as_slice() {
        for byte in
            z.re.to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(z.im.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn counts(c: &OpCounts) -> String {
    format!(
        "flops {} fmas {} ialu {} loads {} stores {} sqrts {} divs {} trigs {}",
        c.flops, c.fmas, c.ialu, c.loads, c.stores, c.sqrts, c.divs, c.trigs
    )
}

fn line(case: &str, image: &ComplexImage, c: &OpCounts, iterations: u32) -> String {
    format!(
        "{case}: image {:016x} {} iterations {iterations}",
        image_hash(image),
        counts(c)
    )
}

fn pins() -> Vec<String> {
    let geom = SarGeometry::test_size();
    let data = simulate_compressed_data(&Scene::six_targets(geom), 0.0, 0);
    let mut lines = Vec::new();

    for interp in [InterpKind::Nearest, InterpKind::Linear, InterpKind::Cubic] {
        for phase_correct in [true, false] {
            let cfg = FfbpConfig {
                interp,
                phase_correct,
                ..FfbpConfig::default()
            };
            let run = ffbp(&data, &geom, &cfg);
            let case = format!("ffbp {interp:?} phase={phase_correct} base=2");
            lines.push(line(&case, &run.image, &run.counts, run.iterations));
        }
    }
    let base4 = FfbpConfig {
        merge_base: 4,
        ..FfbpConfig::default()
    };
    let run = ffbp(&data, &geom, &base4);
    lines.push(line(
        "ffbp Nearest phase=true base=4",
        &run.image,
        &run.counts,
        run.iterations,
    ));

    for threads in [1, 3, 8] {
        let run = ffbp_parallel(&data, &geom, &FfbpConfig::default(), threads);
        let case = format!("ffbp_parallel threads={threads}");
        lines.push(line(&case, &run.image, &run.counts, run.iterations));
    }
    // More threads than any merge has output rows (a stage of an
    // 8-pulse aperture has eight): the surplus workers find no work.
    let tiny = SarGeometry {
        num_pulses: 8,
        ..geom
    };
    let tiny_data = simulate_compressed_data(&Scene::six_targets(tiny), 0.0, 0);
    let run = ffbp_parallel(&tiny_data, &tiny, &FfbpConfig::default(), 11);
    lines.push(line(
        "ffbp_parallel 8 pulses threads=11",
        &run.image,
        &run.counts,
        run.iterations,
    ));

    let single = Scene::single_target(geom);
    let step = FlightTrack::step(geom.num_pulses, 1.5);
    for (case, data) in [
        (
            "ffbp_with_autofocus clean",
            simulate_compressed_data(&single, 0.0, 0),
        ),
        (
            "ffbp_with_autofocus step track",
            simulate_with_track(&single, &step, 0.0, 0),
        ),
    ] {
        let run = ffbp_with_autofocus(&data, &geom, &IntegratedConfig::default());
        let corrections: Vec<String> = run
            .corrections
            .iter()
            .map(|c| format!("{}:{}:{:08x}", c.iteration, c.pair, c.dx_meters.to_bits()))
            .collect();
        lines.push(format!(
            "{} corrections [{}]",
            line(case, &run.image, &run.counts, run.iterations),
            corrections.join(" ")
        ));
    }

    // `RdaWorkload::small`'s shape (this crate sits below the harness).
    let chirp = ChirpParams {
        samples: 64,
        fractional_bandwidth: 0.9,
    };
    let raw = simulate_raw_echoes(&Scene::six_targets(geom), chirp);
    for rcmc in [true, false] {
        let run = rda(&raw, &geom, &RdaConfig { chirp, rcmc });
        lines.push(format!(
            "rda small rcmc={rcmc}: image {:016x} {}",
            image_hash(&run.image),
            counts(&run.counts)
        ));
    }

    let truth = 0.4f32;
    let f_minus = Block6::gaussian_blob(0.0, truth / 2.0);
    let f_plus = Block6::gaussian_blob(0.0, -truth / 2.0);
    for shift in [-1.0f32, -0.35, 0.0, 0.4, 0.85] {
        let mut c = OpCounts::default();
        let v = focus_criterion(
            &f_minus,
            &f_plus,
            shift,
            &AutofocusConfig::default(),
            &mut c,
        );
        lines.push(format!(
            "focus_criterion shift={shift}: value {:08x} {}",
            v.to_bits(),
            counts(&c)
        ));
    }
    lines
}

#[test]
fn images_ledgers_and_corrections_match_the_pinned_lines() {
    let fresh = pins();
    for l in &fresh {
        println!("{l}");
    }
    let expected: Vec<&str> = include_str!("golden/ffbp_pins.txt").lines().collect();
    assert_eq!(expected.len(), fresh.len(), "case count changed");
    for (fresh, expected) in fresh.iter().zip(expected) {
        assert_eq!(fresh, expected);
    }
}
