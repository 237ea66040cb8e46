//! `--threads` is an unsigned-integer operand: a non-number is a
//! `CLI004` and zero a `CLI002`, both exit status 2 before the grid
//! runs.

use std::process::Command;

#[test]
fn threads_must_be_a_positive_integer() {
    let grid = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/clock.json");
    for (threads, code) in [("abc", "CLI004"), ("-1", "CLI004"), ("0", "CLI002")] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--grid", grid, "--threads", threads, "--no-write"])
            .output()
            .expect("sweep runs");
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(code), "--threads {threads}: {stderr}");
        assert!(out.stdout.is_empty(), "--threads {threads} ran");
    }
}
