//! The unified runner's `--placement` surface: hand names and
//! `@path/to/placement.json` files resolve through the same
//! `Placement::resolve` path, unknown names exit 2 with `CLI003`,
//! unreadable/malformed/out-of-bounds files exit 2 with `CLI007`, and
//! a placement file — the hand one, and one `autotune` found —
//! round-trips through a real simulated run.

use std::process::Command;

use sim_harness::Placement;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_placement(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("{name}-{}.json", std::process::id()));
    std::fs::write(&path, text).expect("placement written");
    path.to_string_lossy().into_owned()
}

#[test]
fn unknown_placement_name_exits_2_with_cli003() {
    let out = run(&["--placement", "diagonal", "--small", "--no-write"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI003"));
}

#[test]
fn unreadable_placement_file_exits_2_with_cli007() {
    let out = run(&[
        "--placement",
        "@/nonexistent/placement.json",
        "--small",
        "--no-write",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI007"));
}

#[test]
fn malformed_placement_file_exits_2_with_cli007() {
    // Valid JSON, wrong shape: a block is missing a core.
    let path = temp_placement(
        "placement-cli-bad",
        r#"{"version": 1, "range": [[0, 4], [3, 7, 11]],
            "beam": [[1, 5, 9], [2, 6, 10]], "corr": 13}"#,
    );
    let out = run(&["--placement", &format!("@{path}"), "--small", "--no-write"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI007"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn out_of_bounds_placement_file_exits_2_with_cli007() {
    // Structurally valid, but core 16 sits at (0, 4): off the 4x4
    // E16G3 mesh, and core 1000000 has no canonical coordinate at all.
    // The runner must refuse both before anything panics.
    for corr in [16, 1_000_000] {
        let mut off = Placement::neighbor();
        off.corr = corr;
        let path = temp_placement("placement-cli-off", &off.to_json().to_string_pretty());
        let out = run(&[
            "--placement",
            &format!("@{path}"),
            "--mapping",
            "autofocus_mpmd",
            "--platform",
            "epiphany",
            "--small",
            "--no-write",
        ]);
        assert_eq!(out.status.code(), Some(2), "corr {corr}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("CLI007"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn placement_file_simulates_like_its_hand_twin() {
    // `@file` holding the neighbor placement must behave exactly like
    // the literal name — same pair, same workload, exit 0.
    let path = temp_placement(
        "placement-cli-ok",
        &Placement::neighbor().to_json().to_string_pretty(),
    );
    let by_file = run(&[
        "--placement",
        &format!("@{path}"),
        "--mapping",
        "autofocus_mpmd",
        "--platform",
        "epiphany",
        "--small",
        "--json",
        "--no-write",
    ]);
    assert_eq!(by_file.status.code(), Some(0), "{by_file:?}");
    let by_name = run(&[
        "--placement",
        "neighbor",
        "--mapping",
        "autofocus_mpmd",
        "--platform",
        "epiphany",
        "--small",
        "--json",
        "--no-write",
    ]);
    assert_eq!(by_name.status.code(), Some(0), "{by_name:?}");
    assert_eq!(by_file.stdout, by_name.stdout, "placement file diverged");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_tuned_placement_loads_back_through_the_gate() {
    // The bytes `autotune --placement-out` writes (a test cannot name
    // another package's binary, so through the library), read back by
    // `run --placement @P` behind the sarlint gate.
    let mut cfg = autotune::TuneConfig::new("autofocus_mpmd:epiphany");
    cfg.small = true;
    cfg.iters = 60;
    cfg.seed = 7;
    let tuning = autotune::tune(&cfg).expect("pair is tunable");
    assert_ne!(tuning.best, tuning.initial, "the search moved a role");
    let path = temp_placement(
        "placement-cli-tuned",
        &tuning.best.to_json().to_string_pretty(),
    );
    let out = run(&[
        "--mapping",
        "autofocus_mpmd",
        "--platform",
        "epiphany",
        "--small",
        "--placement",
        &format!("@{path}"),
        "--analyze",
        "--no-write",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_file(&path);
}
