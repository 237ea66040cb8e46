//! Cross-machine integration: the functional results must be identical
//! on every modelled machine (the paper's Fig. 7c = 7d observation),
//! while the *timing* must respond to architecture knobs in the
//! physically sensible direction.

use sar_repro::desim::Frequency;
use sar_repro::epiphany::EpiphanyParams;
use sar_repro::refcpu::RefCpuParams;
use sar_repro::sar_epiphany::ffbp_spmd::{self, SpmdOptions};
use sar_repro::sar_epiphany::rda_spmd::{self, RdaSpmdOptions};
use sar_repro::sar_epiphany::{autofocus_mpmd, autofocus_net};
use sar_repro::sar_epiphany::{autofocus_ref, autofocus_seq, ffbp_ref, ffbp_seq, rda_seq};
use sar_repro::sim_harness::{AutofocusWorkload, FfbpWorkload, Placement, RdaWorkload, RunContext};

#[test]
fn all_machines_form_the_same_ffbp_image() {
    let ctx = RunContext::plain();
    let w = FfbpWorkload::small();
    let a = ffbp_ref::run(&w, RefCpuParams::default()).image;
    let b = ffbp_seq::run(&w, EpiphanyParams::default(), &ctx).image;
    let c = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx).image;
    assert_eq!(a.as_slice(), b.as_slice());
    assert_eq!(b.as_slice(), c.as_slice());
}

#[test]
fn all_machines_form_the_same_rda_image() {
    let ctx = RunContext::plain();
    let w = RdaWorkload::small();
    let plain = sar_repro::sar_core::rda::rda(&w.raw, &w.geom, &w.config).image;
    let a = rda_seq::run(&w, EpiphanyParams::default(), &ctx).image;
    let b = rda_spmd::run(
        &w,
        EpiphanyParams::default(),
        RdaSpmdOptions::default(),
        &ctx,
    )
    .image;
    assert_eq!(plain.as_slice(), a.as_slice());
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn all_machines_compute_the_same_criterion_sweep() {
    let ctx = RunContext::plain();
    // The test sweep, and the degenerate one-point grid: a single
    // hypothesis tests no compensation (shift 0), on every driver.
    let one_point = AutofocusWorkload {
        hypotheses: 1,
        ..AutofocusWorkload::small()
    };
    for w in [AutofocusWorkload::small(), one_point] {
        let a = autofocus_ref::run(&w, autofocus_ref::params());
        let b = autofocus_seq::run(&w, autofocus_seq::params(), &ctx);
        assert_eq!(a.sweep.len(), w.hypotheses);
        assert_eq!(a.sweep, b.sweep);
        assert_eq!(a.best, b.best);
        if w.hypotheses == 1 {
            assert_eq!(a.sweep[0].0, 0.0);
        }
        for pipeline in [
            autofocus_mpmd::run(&w, autofocus_seq::params(), Placement::neighbor(), &ctx),
            autofocus_net::run(&w, autofocus_seq::params(), Placement::neighbor(), &ctx),
        ] {
            assert_eq!(pipeline.sweep.len(), w.hypotheses);
            for ((s1, v1), (s2, v2)) in b.sweep.iter().zip(&pipeline.sweep) {
                assert_eq!(s1, s2);
                assert!((v1 - v2).abs() <= 1e-3 * v1.abs().max(1.0));
            }
            assert_eq!(pipeline.best.0, b.best.0);
        }
    }
}

#[test]
fn simulated_runs_are_deterministic() {
    let ctx = RunContext::plain();
    let w = FfbpWorkload::small();
    let a = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx);
    let b = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx);
    assert_eq!(a.record.elapsed.cycles, b.record.elapsed.cycles);
    assert_eq!(
        a.record.metric("external_misses"),
        b.record.metric("external_misses")
    );
}

#[test]
fn faster_clock_means_less_wall_time_same_cycles() {
    let ctx = RunContext::plain();
    let w = AutofocusWorkload::small();
    let slow = autofocus_seq::run(
        &w,
        EpiphanyParams {
            clock: Frequency::mhz(400.0),
            ..autofocus_seq::params()
        },
        &ctx,
    );
    let fast = autofocus_seq::run(
        &w,
        EpiphanyParams {
            clock: Frequency::ghz(1.0),
            ..autofocus_seq::params()
        },
        &ctx,
    );
    assert_eq!(slow.record.elapsed.cycles, fast.record.elapsed.cycles);
    let ratio = slow.record.elapsed.seconds() / fast.record.elapsed.seconds();
    assert!(
        (ratio - 2.5).abs() < 1e-6,
        "1 GHz / 400 MHz = 2.5x, got {ratio}"
    );
}

#[test]
fn wider_elink_speeds_up_ffbp() {
    let ctx = RunContext::plain();
    let w = FfbpWorkload::small();
    let mut narrow_params = EpiphanyParams::default();
    narrow_params.emesh.elink_bytes_per_cycle = 1;
    let narrow = ffbp_spmd::run(&w, narrow_params, SpmdOptions::default(), &ctx);
    let nominal = ffbp_spmd::run(&w, EpiphanyParams::default(), SpmdOptions::default(), &ctx);
    assert!(
        narrow.record.elapsed.seconds() > nominal.record.elapsed.seconds(),
        "an 8x narrower eLink must hurt FFBP"
    );
}

#[test]
fn slower_sdram_hurts_the_sequential_port_most() {
    let ctx = RunContext::plain();
    let w = FfbpWorkload::small();
    let mut slow_mem = EpiphanyParams::default();
    slow_mem.sdram.row_hit_cycles *= 4;
    slow_mem.sdram.row_miss_cycles *= 4;
    let seq_nominal = ffbp_seq::run(&w, EpiphanyParams::default(), &ctx);
    let seq_slow = ffbp_seq::run(&w, slow_mem, &ctx);
    let penalty = seq_slow.record.elapsed.seconds() / seq_nominal.record.elapsed.seconds();
    assert!(
        penalty > 1.5,
        "per-element blocking reads must feel 4x SDRAM latency, got {penalty:.2}x"
    );
}

#[test]
fn prefetchless_i7_approaches_epiphany_seq_behaviour() {
    // With its prefetcher off, the i7 model keeps its caches but pays
    // cold-miss latency whenever the stage working set exceeds them —
    // which needs a workload bigger than the tiny test image (whose
    // stages fit in L2 and hide the prefetcher entirely).
    let w = FfbpWorkload::of(sar_repro::sar_core::geometry::SarGeometry {
        num_pulses: 128,
        ..sar_repro::sar_core::geometry::SarGeometry::paper_size()
    });
    let on = ffbp_ref::run(&w, RefCpuParams::default());
    let off = ffbp_ref::run(&w, RefCpuParams::without_prefetch());
    // The prefetcher can only help, and the cache hierarchy (with or
    // without it) keeps the i7 model essentially compute-bound on this
    // streaming kernel — the paper's "prefetching mechanisms combined
    // with three levels of caches" argument. The dramatic contrast is
    // with the cacheless Epiphany port, which stalls on most cycles.
    assert!(off.record.elapsed.seconds() >= on.record.elapsed.seconds());
    let stalls = on.record.metric("mem_stall_fraction").unwrap();
    assert!(
        stalls < 0.10,
        "cached i7 should be compute-bound, stalls {stalls:.2}"
    );
    let epi = ffbp_seq::run(&w, EpiphanyParams::default(), &RunContext::plain());
    let busy_fraction = {
        // All stall time on the Epiphany port is eLink/SDRAM latency.
        let total = epi.record.elapsed.seconds();
        let i7_equiv = on.record.elapsed.seconds();
        total / i7_equiv
    };
    assert!(
        busy_fraction > 1.5,
        "the cacheless port should be far slower: {busy_fraction:.2}x"
    );
}

/// Satellite of the harness refactor: *every* registered mapping on
/// *every* platform it supports must reproduce the plain `sar-core`
/// algorithm's functional output — the paper's machine-independence
/// claim, now enforced across the full registry instead of a
/// hand-picked trio.
#[test]
fn every_mapping_on_every_platform_matches_the_plain_algorithms() {
    use sar_repro::desim::OpCounts;
    use sar_repro::sar_core::autofocus::sweep_criterion;
    use sar_repro::sar_core::ffbp::ffbp;
    use sar_repro::sar_epiphany::all_mappings;
    use sar_repro::sim_harness::{all_platforms, run, Workload};

    let ffbp_w = FfbpWorkload::small();
    let af_w = AutofocusWorkload::small();
    let rda_w = RdaWorkload::small();
    let plain_image = ffbp(&ffbp_w.data, &ffbp_w.geom, &ffbp_w.config).image;
    let plain_rda = sar_repro::sar_core::rda::rda(&rda_w.raw, &rda_w.geom, &rda_w.config).image;
    let plain_sweep = sweep_criterion(
        &af_w.f_minus,
        &af_w.f_plus,
        af_w.max_shift,
        af_w.hypotheses,
        &af_w.config,
        &mut OpCounts::default(),
    );

    let mut checked = 0usize;
    for m in all_mappings() {
        let w = match m.kernel() {
            "ffbp" => Workload::Ffbp(ffbp_w.clone()),
            "rda" => Workload::Rda(rda_w.clone()),
            _ => Workload::Autofocus(af_w.clone()),
        };
        for p in all_platforms() {
            if !m.supports(p.kind()) {
                continue;
            }
            let out = run(m.as_ref(), &w, p.as_ref())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", m.name(), p.label()));
            if m.kernel() == "ffbp" {
                let image = out.image.expect("ffbp mappings return the image");
                assert_eq!(
                    image.as_slice(),
                    plain_image.as_slice(),
                    "{} on {} diverged from plain FFBP",
                    m.name(),
                    p.label()
                );
            } else if m.kernel() == "rda" {
                let image = out.image.expect("rda mappings return the image");
                assert_eq!(
                    image.as_slice(),
                    plain_rda.as_slice(),
                    "{} on {} diverged from plain RDA",
                    m.name(),
                    p.label()
                );
            } else {
                let sweep = out.sweep.expect("autofocus mappings return the sweep");
                assert_eq!(sweep.len(), plain_sweep.len());
                for (&(s1, v1), &(s2, v2)) in sweep.iter().zip(&plain_sweep) {
                    assert_eq!(s1, s2, "{} on {}: shift grid", m.name(), p.label());
                    assert!(
                        (v1 - v2).abs() <= 1e-3 * v2.abs().max(1.0),
                        "{} on {}: criterion at {s1}: {v1} vs {v2}",
                        m.name(),
                        p.label()
                    );
                }
            }
            checked += 1;
        }
    }
    // Every mapping runs once per platform it supports: the three
    // host-kind mappings on the host, the seven Epiphany-kind mappings
    // on both the e16 and the e64.
    let expected: usize = all_mappings()
        .iter()
        .map(|m| {
            all_platforms()
                .iter()
                .filter(|p| m.supports(p.kind()))
                .count()
        })
        .sum();
    assert!(
        expected >= 8,
        "registry shrank below the original trio-era floor"
    );
    assert_eq!(
        checked, expected,
        "expected every supported (mapping, platform) pair to run once"
    );
}

/// The reference-CPU model is the denominator of every Table I
/// speedup, and `results/table1_baseline.json` only pins its `time_ms`.
/// `tests/golden/refcpu_records.jsonl` holds the four records below as
/// the commit before the host fast path through `memsim` serialised
/// them; a host-speed change must reproduce every byte (cycles,
/// `dram_access`, `mem_stall_cycles` per phase, `mem_stall_fraction`).
/// A deliberate model change regenerates the file and says what moved.
#[test]
fn refcpu_records_match_the_checked_in_bytes() {
    let ffbp_w = FfbpWorkload::small();
    let af_w = AutofocusWorkload::small();
    let mut af_without_prefetch = autofocus_ref::params();
    af_without_prefetch.hierarchy.prefetch = false;
    let fresh = [
        ffbp_ref::run(&ffbp_w, RefCpuParams::default()).record,
        ffbp_ref::run(&ffbp_w, RefCpuParams::without_prefetch()).record,
        autofocus_ref::run(&af_w, autofocus_ref::params()).record,
        autofocus_ref::run(&af_w, af_without_prefetch).record,
    ];
    let expected = include_str!("golden/refcpu_records.jsonl");
    assert_eq!(expected.lines().count(), fresh.len());
    for (record, line) in fresh.iter().zip(expected.lines()) {
        assert_eq!(record.to_json().to_string(), line, "{}", record.label);
    }
}

/// One line of `RunRecord` JSON per run below, in this order: every
/// supported Mapping × Platform pair at small scale through
/// `sim_harness::run` (`ffbp_host` is wall-clock timed and skipped),
/// the three mappings with a recovery story on `epiphany` under
/// `specs/faults_demo.json` seed 42 through `run_ctx`, and
/// `autofocus_mpmd` with the scattered placement.
fn registry_records() -> Vec<String> {
    use sar_repro::sar_epiphany::{all_mappings, configured, mapping_named};
    use sar_repro::sim_harness::{
        all_platforms, platform_named, run, run_ctx, FaultPlan, FaultState, Workload,
    };

    let line = |out: sar_repro::sim_harness::MappingRun| out.record.to_json().to_string();
    let mut lines = Vec::new();
    for m in all_mappings() {
        if m.name() == "ffbp_host" {
            continue;
        }
        let w = Workload::named(m.kernel(), true).expect("kernel resolves");
        for p in all_platforms() {
            if m.supports(p.kind()) {
                lines.push(line(run(m.as_ref(), &w, p.as_ref()).expect("pair runs")));
            }
        }
    }
    let epiphany = platform_named("epiphany").expect("platform resolves");
    let spec = include_str!("../specs/faults_demo.json");
    for name in ["ffbp_spmd", "autofocus_mpmd", "rda_spmd"] {
        let m = mapping_named(name).expect("registered");
        let w = Workload::named(m.kernel(), true).expect("kernel resolves");
        let plan = FaultPlan::parse(spec, 42).expect("spec parses");
        let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
        lines.push(line(
            run_ctx(m.as_ref(), &w, epiphany.as_ref(), &ctx).expect("faulted run converges"),
        ));
    }
    let scattered = sar_repro::desim::Json::obj().with("placement", "scattered");
    let scattered =
        configured("autofocus_mpmd", "epiphany", &scattered).expect("autofocus_mpmd is placeable");
    let w = Workload::named("autofocus", true).expect("kernel resolves");
    lines.push(line(
        run(scattered.mapping.as_ref(), &w, scattered.platform.as_ref()).expect("scattered run"),
    ));
    lines
}

/// The refactoring gate for the registry: `tests/golden/registry_records.jsonl`
/// was written by the commit before `harness_impls.rs` became a table,
/// so a change to how mappings are registered, entered or placed must
/// reproduce every byte of every record. A deliberate model change
/// regenerates the file and says what moved.
#[test]
fn registry_records_match_the_checked_in_bytes() {
    let fresh = registry_records();
    let expected = include_str!("golden/registry_records.jsonl");
    assert_eq!(expected.lines().count(), fresh.len());
    for (i, (record, line)) in fresh.iter().zip(expected.lines()).enumerate() {
        assert!(record == line, "record {i} differs: {}", &record[..120]);
    }
}

/// The driver option paths `registry_records.jsonl` never takes, one
/// `RunRecord` JSON line each in this order: `ffbp_spmd` pinned to a
/// 4-core subgrid, over-subscribed to 32 cores (covering mesh), with
/// prefetch off, and pinned to 16 cores of the E64; `rda_spmd` on 4
/// cores; `autofocus_net` with the scattered placement.
/// `tests/golden/option_records.jsonl` was written by the commit before
/// the drivers and their program models started sharing their sizing,
/// deal and staging code, so that sharing must reproduce every byte.
#[test]
fn option_records_match_the_checked_in_bytes() {
    let ctx = RunContext::plain();
    let ffbp_w = FfbpWorkload::small();
    let e16 = EpiphanyParams::default();
    let pinned = |cores| SpmdOptions {
        cores: Some(cores),
        ..SpmdOptions::default()
    };
    let no_prefetch = SpmdOptions {
        prefetch: false,
        ..SpmdOptions::default()
    };
    let fresh = [
        ffbp_spmd::run(&ffbp_w, e16, pinned(4), &ctx).record,
        ffbp_spmd::run(&ffbp_w, e16, pinned(32), &ctx).record,
        ffbp_spmd::run(&ffbp_w, e16, no_prefetch, &ctx).record,
        ffbp_spmd::run(&ffbp_w, EpiphanyParams::e64(), pinned(16), &ctx).record,
        rda_spmd::run(
            &RdaWorkload::small(),
            e16,
            RdaSpmdOptions { cores: Some(4) },
            &ctx,
        )
        .record,
        autofocus_net::run(
            &AutofocusWorkload::small(),
            autofocus_seq::params(),
            Placement::scattered(),
            &ctx,
        )
        .record,
    ];
    let expected = include_str!("golden/option_records.jsonl");
    assert_eq!(expected.lines().count(), fresh.len());
    for (record, line) in fresh.iter().zip(expected.lines()) {
        assert!(
            record.to_json().to_string() == line,
            "{} differs",
            record.label
        );
    }
}
