//! The unified experiment runner: any registered Mapping × Platform ×
//! Workload triple through the single harness entry point.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --bin run --release -- [--mapping M] [--platform P] \
//!     [--workload ffbp|rda|autofocus] \
//!     [--placement neighbor|scattered|@placement.json] \
//!     [--faults spec.json] [--seed N] \
//!     [--small] [--json] [--list] [--analyze] [--cost] [--trace out.json] \
//!     [--heatmap] [--power]
//! ```
//!
//! Omitted selectors mean "all": with no flags the runner executes
//! every supported mapping × platform pair on its kernel's workload.
//! `--list` prints the registries and exits. `--analyze` runs the
//! `sarlint` static checks on each pair first and *refuses to
//! simulate* any pair with a hard diagnostic (exit 1); adding `--cost`
//! also prices each simulated pair with the static cost model and
//! prints the predicted bounds next to the simulated result
//! (presentation only — the records are unchanged). `--trace P`
//! exports a Chrome `trace_event` timeline per executed pair (the
//! first pair writes `P`, later ones `P` with `-1`, `-2`, … before the
//! extension); `--heatmap` prints the per-link mesh table after each
//! Epiphany run; `--power` prints the power timeline and per-phase
//! energy-attribution table after each run (presentation only — the
//! records are byte-identical with or without it).
//!
//! `--faults spec.json` arms deterministic fault injection: the spec's
//! random groups expand from `--seed N` (default 0), each executed
//! pair gets a fresh schedule, and the per-run fault/recovery totals
//! land in the record (`faults_injected`, `retries`, …). Same seed +
//! same spec reproduce the run exactly.
//!
//! `--placement` accepts the hand names or `@path/to/placement.json`
//! — a file the `autotune` binary's `--placement-out` writes — so a
//! tuned placement is simulated through the identical path as the
//! hand ones.
//!
//! Bad command lines exit 2 with a `CLI***` diagnostic on stderr,
//! before any pair runs: `CLI001` for an unknown name, `CLI002` for a
//! missing operand, `CLI003` for an unknown `--placement` name,
//! `CLI004` for a malformed `--seed`, `CLI005` for an unreadable or
//! malformed `--faults` spec, `CLI007` for an unreadable, malformed or
//! out-of-bounds `--placement` file, `CLI008` for an argument not in
//! `--help`'s list.

use std::path::{Path, PathBuf};

use sar_epiphany::{all_mappings, selected};
use sim_harness::{
    all_platforms, run_ctx, BenchHarness, Diagnostic, FaultPlan, FaultState, Flag, RunContext,
    Workload,
};

/// Every flag the runner reads besides the document's.
const FLAGS: &[Flag] = &[
    Flag::operand("mapping", "M", "run mapping M only (--list names them)"),
    Flag::operand("platform", "P", "run platform P only"),
    Flag::operand("workload", "K", "run kernel K only: ffbp, rda or autofocus"),
    Flag::operand(
        "placement",
        "S",
        "re-place the mappings: neighbor, scattered or @placement.json",
    ),
    Flag::operand("faults", "F", "arm the fault spec in file F"),
    Flag::uint(
        "seed",
        "N",
        "expand the fault spec's random groups from N (default 0)",
    ),
    Flag::SMALL,
    Flag::switch("list", "print the registries and exit"),
    Flag::switch(
        "analyze",
        "refuse to simulate a pair with a hard sarlint finding",
    ),
    Flag::switch("cost", "with --analyze, print the static cost bounds"),
    Flag::operand(
        "trace",
        "P",
        "export a Chrome trace_event timeline per pair to P",
    ),
    Flag::switch("heatmap", "print the per-link mesh heatmap after each run"),
    Flag::switch("power", "print the power timeline after each run"),
];

/// `path` for run 0, `path` with `-n` spliced into its file name before
/// the extension for later runs, so an unselective sweep doesn't
/// overwrite its traces and every trace lands beside the first.
fn trace_file(path: &str, n: usize) -> PathBuf {
    let path = Path::new(path);
    let Some(stem) = path.file_stem().filter(|_| n > 0) else {
        return path.to_path_buf();
    };
    let mut name = stem.to_os_string();
    name.push(format!("-{n}"));
    if let Some(ext) = path.extension() {
        name.push(".");
        name.push(ext);
    }
    path.with_file_name(name)
}

/// Print a command-line diagnostic and exit 2 (the CLI error status;
/// 1 is reserved for "ran, found problems").
fn fail(d: &Diagnostic) -> ! {
    eprintln!("{d}");
    eprintln!("try --list for the registered names");
    std::process::exit(2);
}

fn main() {
    let mut h = BenchHarness::declared("run", FLAGS);
    let pairs = selected(
        h.operand("mapping"),
        h.operand("platform"),
        h.operand("placement"),
    )
    .unwrap_or_else(|d| fail(&d));
    let kernel = h.operand("workload").map(str::to_string);
    if let Some(k) = kernel
        .as_deref()
        .filter(|k| Workload::named(k, true).is_none())
    {
        fail(&Diagnostic::hard(
            "CLI001",
            format!("--workload {k}"),
            "unknown workload name; expected 'ffbp', 'rda' or 'autofocus'",
        ));
    }

    if h.flag("list") {
        println!("mappings  :");
        for m in all_mappings() {
            println!("  {:<16} kernel {}", m.name(), m.kernel());
        }
        println!("platforms :");
        for p in all_platforms() {
            println!("  {}", p.label());
        }
        println!("workloads : ffbp, rda, autofocus");
        println!("placements: neighbor, scattered, @path/to/placement.json");
        return;
    }

    let seed = h.uint("seed").unwrap_or(0);
    let fault_plan: Option<FaultPlan> = h.operand("faults").map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            fail(&Diagnostic::hard(
                "CLI005",
                format!("--faults {path}"),
                format!("cannot read fault spec: {e}"),
            ))
        });
        FaultPlan::parse(&text, seed).unwrap_or_else(|e| {
            fail(&Diagnostic::hard(
                "CLI005",
                format!("--faults {path}"),
                format!("malformed fault spec: {e}"),
            ))
        })
    });

    h.say(format_args!(
        "unified runner — {} scale{}",
        if h.small() { "small" } else { "paper" },
        if h.flag("analyze") {
            ", sarlint gate on"
        } else {
            ""
        }
    ));
    h.say(format_args!(
        "\n{:<16} {:>10} {:>6} {:>12} {:>9} {:>12}",
        "mapping", "platform", "cores", "time (ms)", "power W", "energy (J)"
    ));
    let mut ran = 0usize;
    let mut refused = 0usize;
    for group in pairs.chunk_by(|a, b| a.mapping.name() == b.mapping.name()) {
        let group_kernel = group[0].mapping.kernel();
        if kernel.as_deref().is_some_and(|k| k != group_kernel) {
            continue;
        }
        let workload =
            Workload::named(group_kernel, h.small()).expect("a registered kernel has a workload");
        for pair in group {
            let (m, p) = (pair.mapping.as_ref(), pair.platform.as_ref());
            if !m.supports(p.kind()) {
                continue; // unsupported pair — skip, don't fail
            }
            // One program model per pair, for the gate and the bounds.
            let model = h
                .flag("analyze")
                .then(|| sarlint::pair_model(m, &workload, p))
                .flatten();
            if h.flag("analyze") {
                let report = sarlint::analyze_pair_with(m, p, model.as_ref());
                if !report.is_clean() {
                    eprintln!(
                        "refusing to simulate {} x {}: {} hard sarlint finding(s)",
                        m.name(),
                        p.label(),
                        report.hard_count()
                    );
                    for d in report.hard() {
                        eprintln!("{d}");
                    }
                    refused += 1;
                    continue;
                }
            }
            let tracer = h.tracer();
            let mut ctx = RunContext::traced(tracer.clone());
            if let Some(plan) = &fault_plan {
                // Each pair gets a fresh schedule, so a sweep injects
                // the same faults into every run.
                ctx = ctx.with_faults(FaultState::from_plan(plan));
            }
            let r = match run_ctx(m, &workload, p, &ctx) {
                Ok(r) => r,
                Err(e) => {
                    // supports() said yes but execute() refused: a
                    // registry bug worth surfacing, not skipping.
                    eprintln!("{} x {}: {e}", m.name(), p.label());
                    continue;
                }
            };
            h.say(format_args!(
                "{:<16} {:>10} {:>6} {:>12.3} {:>9.1} {:>12.6}",
                r.record.mapping,
                r.record.platform,
                r.record.cores_used,
                r.record.millis(),
                r.record.power_w,
                r.record.energy_j()
            ));
            if h.flag("analyze") && h.flag("cost") {
                let (c, _lints) = sarlint::cost::cost_pair_with(m, p, model.as_ref());
                if c.bounded {
                    let cycles = r.record.elapsed.cycles.raw() as f64;
                    let energy = r.record.energy_j();
                    h.say(format_args!(
                        "  {} — simulated {cycles:.3e} cycles / {energy:.6} J ({})",
                        c.summary(),
                        if c.cycles.contains(cycles) && c.total_j.contains(energy) {
                            "within bounds"
                        } else {
                            "OUTSIDE BOUNDS"
                        }
                    ));
                } else {
                    h.say(format_args!("  {}", c.summary()));
                }
            }
            if r.record.faults.any() {
                let f = &r.record.faults;
                h.say(format_args!(
                    "  faults: {} injected, {} retries, {} recovery cycles, \
                     {} degraded core(s), {:.6} J recovery energy",
                    f.faults_injected,
                    f.retries,
                    f.recovery_cycles,
                    f.degraded_cores,
                    f.recovery_energy_j
                ));
            }
            if let Some(path) = h.trace_path() {
                h.write_trace(trace_file(path, ran), &tracer, r.record.elapsed.clock);
            }
            if h.heatmap() {
                if let Some(heatmap) = &r.record.mesh_heatmap {
                    h.say(format_args!("\n{}", heatmap.render(8)));
                }
            }
            if h.flag("power") {
                if let Some(power) = &r.record.power {
                    h.say(format_args!("\n{}", power.render(r.record.elapsed.clock)));
                }
            }
            h.record(r.record);
            ran += 1;
        }
    }
    if ran == 0 && refused == 0 {
        eprintln!("no supported mapping x platform pair matched the selection");
        std::process::exit(1);
    }
    h.finish();
    if refused > 0 {
        eprintln!("{refused} pair(s) refused by the sarlint gate");
        std::process::exit(1);
    }
}
