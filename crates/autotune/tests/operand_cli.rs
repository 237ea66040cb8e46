//! A flag whose operand is missing is refused before the tuner
//! searches: `CLI002` on stderr, exit status 2, and no report written
//! at the default path.

use std::process::Command;

#[test]
fn a_missing_out_operand_writes_no_report() {
    let dir = std::env::temp_dir().join(format!("autotune-operand-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_autotune"))
        .args(["--small", "--out"])
        .current_dir(&dir)
        .output()
        .expect("autotune runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLI002"));
    let left: Vec<_> = std::fs::read_dir(&dir).expect("listed").collect();
    assert!(left.is_empty(), "wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}
