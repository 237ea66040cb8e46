//! `results/table1_baseline.json` is the tracked output of
//! `table1 --small`. `tests/table1_golden.rs` compares its rows within
//! a tolerance through the library; this runs the binary and compares
//! every byte of the document, records included. A deliberate model
//! change regenerates the file (`cargo run -p bench --bin table1 --
//! --small --out results/table1_baseline.json`) and says what moved.

use std::path::Path;
use std::process::Command;

#[test]
fn table1_small_regenerates_the_tracked_baseline() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("table1_baseline.json");
    let run = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--small", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{run:?}");
    let tracked = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/table1_baseline.json"
    );
    assert!(
        std::fs::read(&out).expect("document written") == std::fs::read(tracked).expect("tracked"),
        "{} differs from results/table1_baseline.json",
        out.display()
    );
}
