//! Every report binary declares its flags: `--help` lists them and
//! exits 0, and an argument outside the list is a `CLI008` on stderr
//! with exit status 2 — before any run, so nothing is printed or
//! written.

use std::process::{Command, Output};

fn run_in(dir: &std::path::Path, bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

const BINARIES: [(&str, &str); 4] = [
    ("run", env!("CARGO_BIN_EXE_run")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("vs_multicore", env!("CARGO_BIN_EXE_vs_multicore")),
];

#[test]
fn an_undeclared_flag_stops_every_binary_before_it_runs() {
    let dir = std::env::temp_dir().join(format!("flags-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for (name, bin) in BINARIES {
        for args in [&["--bogus"][..], &["--small", "--no-write", "--bogus-flag"]] {
            if name == "vs_multicore" && args.contains(&"--small") {
                continue; // it has no reduced scale to ask for
            }
            let out = run_in(&dir, bin, args);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let bad = args.last().expect("an argument");
            assert!(
                stderr.contains(&format!("CLI008] {bad}")),
                "{name}: {stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "{name} {args:?} printed before stopping"
            );
        }
    }
    // The misspelt `--analyze` once ran all 17 pairs at paper scale and
    // wrote results/run.json; a stray operand is refused the same way.
    let run = BINARIES[0].1;
    for args in [&["--anaylze"][..], &["--small", "ffbp_spmd"]] {
        let out = run_in(&dir, run, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
    assert!(
        !dir.join("results").exists(),
        "a refused command line wrote"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_each_binarys_flags_and_exits_0() {
    let dir = std::env::temp_dir();
    for (name, bin) in BINARIES {
        let out = run_in(&dir, bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        let help = String::from_utf8_lossy(&out.stdout);
        for flag in ["--json", "--out P", "--no-write", "--force", "--help"] {
            assert!(help.contains(flag), "{name} --help lacks {flag}:\n{help}");
        }
        assert_eq!(help.contains("--small"), name != "vs_multicore", "{help}");
    }
    let out = run_in(&dir, BINARIES[0].1, &["--help"]);
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--mapping M",
        "--seed N",
        "--analyze",
        "--trace P",
        "--power",
    ] {
        assert!(help.contains(flag), "run --help lacks {flag}:\n{help}");
    }
}
