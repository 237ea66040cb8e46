//! The unified runner's `--analyze` gate: a pair with a hard sarlint
//! diagnostic is refused (nonzero exit naming the code), a clean pair
//! simulates normally, and bad command lines exit 2.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn scattered_pipeline_is_refused_by_the_gate() {
    let out = run(&[
        "--analyze",
        "--mapping",
        "autofocus_mpmd",
        "--placement",
        "scattered",
        "--small",
        "--no-write",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to simulate"), "{stderr}");
    assert!(stderr.contains("SL005"), "{stderr}");
    // The refused pair must not have produced a result row.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("autofocus_mpmd   epiphany"), "{stdout}");
}

#[test]
fn clean_pair_passes_the_gate_and_simulates() {
    let out = run(&[
        "--analyze",
        "--mapping",
        "autofocus_mpmd",
        "--small",
        "--no-write",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("autofocus_mpmd"), "{stdout}");
}

#[test]
fn rda_on_the_e64_passes_the_gate_inside_its_cost_bounds_with_power() {
    let out = run(&[
        "--analyze",
        "--cost",
        "--mapping",
        "rda_spmd",
        "--platform",
        "e64",
        "--small",
        "--power",
        "--no-write",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rda_spmd"), "{stdout}");
    assert!(stdout.contains("power profile"), "{stdout}");
}

#[test]
fn bad_command_lines_exit_2_with_diagnostics() {
    let out = run(&["--mapping", "nosuch", "--no-write"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI001"));

    let out = run(&["--placement", "--small", "--no-write"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI002"));
}
