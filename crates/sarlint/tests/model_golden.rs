//! The refactoring gate for the program models: every model a mapping
//! can export — through the registry and through the driver options
//! the registry never sets — must keep its bytes and its price.
//!
//! `tests/golden/models.jsonl` holds one line per case below, written
//! by the commit before the model builders moved next to their drivers
//! (when they were one `program_model.rs`): the FNV-1a 64 hash of the
//! model's `Debug` rendering and the [`sarlint::cost::CostReport`] it
//! prices to. A deliberate model change regenerates the file and says
//! what moved.

use desim::Json;
use sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_epiphany::rda_seq;
use sar_epiphany::rda_spmd::{self, RdaSpmdOptions};
use sar_epiphany::{all_mappings, configured};
use sarlint::cost::{cost_model, cost_pair};
use sim_harness::{
    all_platforms, platform_named, FfbpWorkload, Platform, ProgramModel, RdaWorkload, Workload,
};

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(case: &str, model: &ProgramModel, platform: &dyn Platform) -> String {
    Json::obj()
        .with("case", case)
        .with(
            "model_fnv",
            format!("{:016x}", fnv1a64(&format!("{model:?}"))),
        )
        .with("cost", cost_model(model, platform).to_json())
        .to_string()
}

/// The 16 registered pairs that export a model at small scale, then the
/// cases only a direct call reaches: both pipeline mappings scattered,
/// the SPMD drivers' core pins (subgrid, covering mesh, E64 corner),
/// prefetch off, and `rda_spmd` at paper scale (where the raw-row tail
/// buffers and the second DMA descriptor per row exist).
fn model_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for m in all_mappings() {
        let w = Workload::named(m.kernel(), true).expect("kernel resolves");
        for p in all_platforms() {
            if !m.supports(p.kind()) {
                continue;
            }
            if let Some(model) = m.program_model(&w, p.as_ref()) {
                let case = format!("{} x {}", m.name(), p.label());
                lines.push(line(&case, &model, p.as_ref()));
            }
        }
    }

    let e16 = platform_named("epiphany").expect("platform resolves");
    let e64 = platform_named("e64").expect("platform resolves");
    let autofocus = Workload::named("autofocus", true).expect("kernel resolves");
    for name in ["autofocus_mpmd", "autofocus_net"] {
        let scattered = Json::obj().with("placement", "scattered");
        let pair = configured(name, "epiphany", &scattered).expect("placeable");
        let model = pair
            .mapping
            .program_model(&autofocus, e16.as_ref())
            .expect("exports a model");
        lines.push(line(&format!("{name} scattered"), &model, e16.as_ref()));
    }

    let ffbp = FfbpWorkload::small();
    let pinned = |cores| SpmdOptions {
        cores: Some(cores),
        ..SpmdOptions::default()
    };
    let no_prefetch = SpmdOptions {
        prefetch: false,
        ..SpmdOptions::default()
    };
    for (case, opts, platform) in [
        ("ffbp_spmd cores=4", pinned(4), &e16),
        ("ffbp_spmd cores=32 (covering mesh)", pinned(32), &e16),
        ("ffbp_spmd prefetch=off", no_prefetch, &e16),
        ("ffbp_spmd cores=16 on e64", pinned(16), &e64),
    ] {
        let params = platform.epiphany_params().expect("epiphany family");
        let model = ffbp_spmd::model(&ffbp, &opts, (params.mesh_cols, params.mesh_rows));
        lines.push(line(case, &model, platform.as_ref()));
    }

    for (case, w, opts) in [
        (
            "rda_spmd cores=4",
            RdaWorkload::small(),
            RdaSpmdOptions { cores: Some(4) },
        ),
        (
            "rda_spmd paper scale",
            RdaWorkload::paper(),
            RdaSpmdOptions::default(),
        ),
    ] {
        let model = rda_spmd::model(&w, &opts, (4, 4));
        lines.push(line(case, &model, e16.as_ref()));
    }

    // The RCMC gathers every RDA model declares: at paper scale on both
    // meshes, with a core count that leaves a remainder in the deal of
    // 1001 bins, and at r0 = 100 m, where many cells migrate and the
    // far swath's gathers fall off its end.
    let paper = RdaWorkload::paper();
    let mut close = RdaWorkload::small();
    close.geom.r0 = 100.0;
    let fifteen = RdaSpmdOptions { cores: Some(15) };
    let default = RdaSpmdOptions::default();
    for (case, model, platform) in [
        ("rda_seq paper scale", rda_seq::model(&paper, (4, 4)), &e16),
        (
            "rda_seq paper scale on e64",
            rda_seq::model(&paper, (8, 8)),
            &e64,
        ),
        (
            "rda_spmd paper scale on e64",
            rda_spmd::model(&paper, &default, (8, 8)),
            &e64,
        ),
        (
            "rda_spmd cores=15 paper scale on e64",
            rda_spmd::model(&paper, &fifteen, (8, 8)),
            &e64,
        ),
        ("rda_seq r0=100m", rda_seq::model(&close, (4, 4)), &e16),
        (
            "rda_spmd r0=100m",
            rda_spmd::model(&close, &default, (4, 4)),
            &e16,
        ),
    ] {
        lines.push(line(case, &model, platform.as_ref()));
    }
    lines
}

#[test]
fn program_models_match_the_checked_in_bytes() {
    let fresh = model_lines();
    // The fresh file, for a deliberate regeneration (`-- --nocapture`).
    println!("{}", fresh.join("\n"));
    let expected = include_str!("golden/models.jsonl");
    assert_eq!(expected.lines().count(), fresh.len());
    for (fresh, expected) in fresh.iter().zip(expected.lines()) {
        assert_eq!(fresh, expected);
    }
}

/// `golden/costs.jsonl`: the whole [`sarlint::cost::CostReport`] of
/// every bounded registered pair, at small and at paper scale — written
/// at the commit before `sarlint::cost` stopped restating
/// `epiphany::CostBlock::lower` and called it (PR 22).
fn cost_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for small in [true, false] {
        for m in all_mappings() {
            let w = Workload::named(m.kernel(), small).expect("kernel resolves");
            for p in all_platforms() {
                if !m.supports(p.kind()) {
                    continue;
                }
                let (cost, _) = cost_pair(m.as_ref(), &w, p.as_ref());
                if cost.bounded {
                    let scale = if small { "small" } else { "paper" };
                    let case = format!("{} x {} ({scale})", m.name(), p.label());
                    lines.push(
                        Json::obj()
                            .with("case", case)
                            .with("cost", cost.to_json())
                            .to_string(),
                    );
                }
            }
        }
    }
    lines
}

#[test]
fn cost_reports_match_the_checked_in_bytes() {
    let fresh = cost_lines();
    let expected = include_str!("golden/costs.jsonl");
    assert_eq!(expected.lines().count(), fresh.len());
    for (fresh, expected) in fresh.iter().zip(expected.lines()) {
        assert_eq!(fresh, expected);
    }
}
