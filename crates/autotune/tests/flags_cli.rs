//! The `autotune` binary declares its flags: `--help` lists them and
//! exits 0, and an argument outside the list is a `CLI008` on stderr
//! with exit status 2 — before the search, so no report is written
//! (a misspelt flag once reran the whole tuning and rewrote
//! `results/autotune_report.json`).

use std::process::{Command, Output};

fn autotune_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autotune"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("autotune runs")
}

#[test]
fn an_undeclared_flag_stops_the_tuner_before_it_searches() {
    let dir = std::env::temp_dir().join(format!("autotune-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for args in [
        &["--bogus"][..],
        &["--small", "--seed", "3", "--strategey", "greedy"],
        &["--small", "stray"],
    ] {
        let out = autotune_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let bad = args
            .iter()
            .rev()
            .find(|a| a.starts_with("--") || **a == "stray");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let bad = bad.expect("a refused argument");
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
    let out = autotune_in(&std::env::temp_dir(), &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--pair M:P",
        "--objective O",
        "--seed N",
        "--iters N",
        "--strategy S",
        "--small",
        "--placement-out P",
        "--json",
        "--out P",
        "--no-write",
        "--force",
        "--help",
    ] {
        assert!(help.contains(flag), "--help lacks {flag}:\n{help}");
    }
}
