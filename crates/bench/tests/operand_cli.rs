//! A flag whose operand is missing is refused before the binary does
//! any work: `CLI002` on stderr, exit status 2, and nothing written —
//! not a results document at the default path, not a figure directory,
//! not a file named after the next flag.

use std::process::Command;

/// Run `bin` with `args` in a fresh directory; assert the refusal and
/// that the directory is left empty.
fn refused_in_an_empty_directory(tag: &str, bin: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("operand-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{tag} {args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("CLI002"), "{tag} {args:?}: {stderr}");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("listed").collect();
    assert!(left.is_empty(), "{tag} {args:?} wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_operand_is_refused_before_anything_is_written() {
    let cases: [(&str, &str, &[&str]); 3] = [
        (
            "table1",
            env!("CARGO_BIN_EXE_table1"),
            &["--small", "--out"],
        ),
        (
            "fig7",
            env!("CARGO_BIN_EXE_fig7"),
            &["--small", "--out", "--json"],
        ),
        (
            "run",
            env!("CARGO_BIN_EXE_run"),
            &["--small", "--no-write", "--trace"],
        ),
    ];
    for (tag, bin, args) in cases {
        refused_in_an_empty_directory(tag, bin, args);
    }
}
