//! The `sweep` binary declares its flags: `--help` lists them and exits
//! 0, and an argument outside the list is a `CLI008` on stderr with
//! exit status 2 — before the grid is read or run, so nothing is
//! printed or written.

use std::process::{Command, Output};

fn sweep_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("sweep runs")
}

#[test]
fn an_undeclared_flag_stops_the_sweep_before_it_runs() {
    let dir = std::env::temp_dir().join(format!("sweep-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let grid = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/sweep_smoke.json");
    for args in [
        &["--grid", grid, "--bogus"][..],
        &["--grid", grid, "--threads", "1", "--resum"],
        &["--grid", grid, "--small"],
    ] {
        let out = sweep_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let bad = args.last().expect("an argument");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("CLI008] {bad}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before stopping");
    }
    assert!(
        !dir.join("results").exists(),
        "a refused command line wrote"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_the_flags_and_exits_0() {
    let out = sweep_in(&std::env::temp_dir(), &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--grid G",
        "--threads N",
        "--resume",
        "--profile",
        "--json",
        "--out P",
        "--no-write",
        "--force",
        "--help",
    ] {
        assert!(help.contains(flag), "--help lacks {flag}:\n{help}");
    }
}
