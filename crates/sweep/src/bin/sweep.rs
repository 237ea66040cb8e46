//! The sweep runner: fan a Mapping × Platform × seed grid across
//! worker threads and write one versioned results document.
//!
//! ```text
//! cargo run -p sweep --bin sweep --release -- \
//!     --grid specs/scaling_demo.json [--threads N] [--resume] \
//!     [--out results/sweep_<name>.json] [--json] [--force] [--no-write] \
//!     [--profile]
//! ```
//!
//! `--resume` loads the existing output document as a cell cache, so
//! re-running an unchanged grid simulates nothing and grown grids run
//! only their new cells. The output is byte-identical for any
//! `--threads` value. `--profile` prints where the wall time went
//! (loading the resumed document, workload setup, each simulated cell,
//! serialisation, writing the file, and the total they add up to)
//! without changing the output document. `--help` lists the flags; any
//! other argument is a `CLI008`, exit 2, before the grid is read.

use std::time::{Duration, Instant};

use desim::Json;
use sim_harness::{BenchHarness, Diagnostic, Flag};

/// Every flag the runner reads besides the document's.
const FLAGS: &[Flag] = &[
    Flag::operand("grid", "G", "run the grid spec in file G"),
    Flag::uint(
        "threads",
        "N",
        "simulate on N worker threads (default: every core)",
    ),
    Flag::switch("resume", "reuse the cells of the existing output document"),
    Flag::switch("profile", "print where the wall time went"),
];
use sweep::{run_grid, CellCache, GridSpec};

fn fail(d: &Diagnostic, code: i32) -> ! {
    eprintln!("{d}");
    std::process::exit(code);
}

fn main() {
    let started = Instant::now();
    let h = BenchHarness::declared("sweep", FLAGS);
    let grid_path = h.operand("grid").unwrap_or_else(|| {
        fail(
            &Diagnostic::hard("CLI002", "--grid", "sweep requires --grid <spec.json>"),
            2,
        )
    });
    let text = std::fs::read_to_string(grid_path).unwrap_or_else(|e| {
        fail(
            &Diagnostic::hard("SWP001", grid_path, format!("cannot read grid: {e}")),
            2,
        )
    });
    let spec = GridSpec::parse(&text).unwrap_or_else(|d| fail(&d, 2));
    let threads = match h.uint("threads") {
        None => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        Some(n) if n >= 1 => usize::try_from(n).unwrap_or(usize::MAX),
        Some(_) => fail(
            &Diagnostic::hard(
                "CLI002",
                "--threads",
                "--threads requires a positive integer",
            ),
            2,
        ),
    };
    let out_path = h.out_path(&format!("sweep_{}.json", spec.name));
    let t_load = Instant::now();
    let cache = if h.flag("resume") {
        CellCache::load(&out_path)
    } else {
        CellCache::empty()
    };
    let load = h.flag("resume").then(|| t_load.elapsed());

    h.say(format_args!(
        "sweep '{}': {} pair(s) x {} seed(s) on {} thread(s){}",
        spec.name,
        spec.pairs.len(),
        spec.seeds.len(),
        threads,
        if cache.is_empty() {
            String::new()
        } else {
            format!(", resuming over {} cached cell(s)", cache.len())
        }
    ));
    let outcome = run_grid(&spec, threads, &cache).unwrap_or_else(|d| fail(&d, 1));
    h.say(format_args!(
        "{} cell(s): {} simulated, {} derived, {} from cache",
        outcome.cells_total, outcome.cells_run, outcome.cells_derived, outcome.cells_cached
    ));

    if let Some(rows) = outcome
        .document
        .get("scaling")
        .and_then(|s| s.get("rows"))
        .and_then(Json::as_array)
    {
        h.say(format_args!(
            "\n{:<16} {:>9} {:>7} {:>12} {:>11} {:>9} {:>8}",
            "mapping", "platform", "cores", "time (ms)", "energy (J)", "vs seq", "vs e16"
        ));
        for row in rows {
            let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?");
            let f = |k: &str| row.get(k).and_then(Json::as_f64);
            let ratio = |k: &str| f(k).map_or_else(|| "-".to_string(), |v| format!("{v:.2}x"));
            // A pair's `set` block tells its variants apart.
            let set = row
                .get("set")
                .map_or_else(String::new, |s| format!("  {s}"));
            h.say(format_args!(
                "{:<16} {:>9} {:>7} {:>12.3} {:>11.4} {:>9} {:>8}{set}",
                s("mapping"),
                s("platform"),
                row.get("platform_cores")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                f("time_ms").unwrap_or(0.0),
                f("energy_j").unwrap_or(0.0),
                ratio("speedup_vs_seq"),
                ratio("speedup_vs_e16"),
            ));
        }
    }

    if h.json() {
        print!("{}", outcome.document.to_string_pretty());
    }
    let write = (!h.flag("no-write")).then(|| {
        let t_write = Instant::now();
        h.write_document(&out_path, &outcome.document);
        t_write.elapsed()
    });

    if h.flag("profile") {
        // Everything the user waited for, in the order it happened;
        // `total` is the elapsed time of `main` and `unlisted` what no
        // line above it accounts for.
        let profile = &outcome.profile;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let sum = |rows: &[(String, Duration)]| rows.iter().map(|(_, t)| *t).sum::<Duration>();
        let line = |what: &str, t: Duration, note: &str| {
            h.say(format_args!("profile: {what:<24} {:>9.3} ms{note}", ms(t)));
        };
        h.say(format_args!(""));
        if let Some(load) = load {
            let note = format!("  (read + parse + harvest, {} cached cell(s))", cache.len());
            line("load", load, &note);
        }
        if profile.setup.is_empty() {
            h.say(format_args!(
                "profile: setup: none (every cell cached{})",
                if outcome.cells_derived > 0 {
                    " or derived from a cached one"
                } else {
                    ""
                }
            ));
        } else {
            line("setup", sum(&profile.setup), "  (workload build)");
        }
        for (kernel, t) in &profile.setup {
            h.say(format_args!("  {kernel:<31} {:>9.3} ms", ms(*t)));
        }
        let note = format!(
            "  ({} cell(s), {:.3} ms of worker time)",
            profile.cells.len(),
            ms(sum(&profile.cells))
        );
        line("simulate", profile.simulate, &note);
        for (label, t) in &profile.cells {
            h.say(format_args!("  {label:<31} {:>9.3} ms", ms(*t)));
        }
        line("serialize", profile.serialize, "");
        if let Some(write) = write {
            line("write", write, "  (overwrite check + text + file)");
        }
        let total = started.elapsed();
        let listed = load.unwrap_or_default()
            + sum(&profile.setup)
            + profile.simulate
            + profile.serialize
            + write.unwrap_or_default();
        let note = format!("  ({:.3} ms unlisted)", ms(total.saturating_sub(listed)));
        line("total", total, &note);
    }
}
