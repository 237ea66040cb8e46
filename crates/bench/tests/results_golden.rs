//! The tracked `results/` documents this crate's binaries write must
//! regenerate byte for byte, records included: `table1_baseline.json`
//! is the output of `table1 --small` (`tests/table1_golden.rs` compares
//! its rows within a tolerance through the library),
//! `rda_corner_turn.json` the paper-scale output of `rda_corner_turn`.
//! A deliberate model change regenerates the file (`cargo run -p bench
//! --bin table1 -- --small --out results/table1_baseline.json`, `cargo
//! run -p bench --bin rda_corner_turn -- --out
//! results/rda_corner_turn.json`) and says what moved.

use std::path::Path;
use std::process::Command;

/// Run `binary args… --out <tmp>/name` and compare the document it
/// writes with `results/name`.
fn assert_regenerates(binary: &str, args: &[&str], name: &str) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let run = Command::new(binary)
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{run:?}");
    let tracked = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    assert!(
        std::fs::read(&out).expect("document written") == std::fs::read(tracked).expect("tracked"),
        "{} differs from results/{name}",
        out.display()
    );
}

#[test]
fn table1_small_regenerates_the_tracked_baseline() {
    assert_regenerates(
        env!("CARGO_BIN_EXE_table1"),
        &["--small"],
        "table1_baseline.json",
    );
}

#[test]
fn rda_corner_turn_regenerates_the_tracked_document() {
    assert_regenerates(
        env!("CARGO_BIN_EXE_rda_corner_turn"),
        &[],
        "rda_corner_turn.json",
    );
}
