//! The tracked `results/` documents must regenerate byte for byte,
//! records included: `table1_baseline.json` is the output of `table1
//! --small` (`tests/table1_golden.rs` compares its rows within a
//! tolerance through the library), `rda_corner_turn.json` the sweep
//! document of `specs/rda_corner_turn.json` (paper scale). A deliberate
//! model change regenerates the file (`cargo run -p bench --bin table1
//! -- --small --out results/table1_baseline.json`, `cargo run -p sweep
//! --bin sweep -- --grid specs/rda_corner_turn.json --out
//! results/rda_corner_turn.json --force`) and says what moved.

use std::path::Path;
use std::process::Command;

use sweep::{run_grid, CellCache, GridSpec};

/// `results/name`, as tracked.
fn tracked(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(path).expect("tracked")
}

#[test]
fn table1_small_regenerates_the_tracked_baseline() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("table1_baseline.json");
    let run = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--small", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{run:?}");
    assert!(
        std::fs::read_to_string(&out).expect("document written") == tracked("table1_baseline.json"),
        "{} differs from results/table1_baseline.json",
        out.display()
    );
}

#[test]
fn rda_corner_turn_regenerates_the_tracked_document() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/rda_corner_turn.json"
    );
    let spec = GridSpec::parse(&std::fs::read_to_string(spec).expect("spec readable"))
        .expect("spec parses");
    let out = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
    assert!(
        out.document.to_string_pretty() == tracked("rda_corner_turn.json"),
        "specs/rda_corner_turn.json no longer regenerates results/rda_corner_turn.json"
    );
}
