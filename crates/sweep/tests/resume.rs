//! The `sweep` binary's determinism end to end: the document is the
//! same bytes for any `--threads` value; a document `sweep` wrote is a
//! cache the next run loads in time linear in its size, a fully cached
//! run rewrites it byte for byte, an edited placement file is not served
//! from it, a placement file is read once, when the grid is parsed, and
//! `--profile` accounts for the load and the write, not only for what
//! happens inside `run_grid`.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use desim::{Json, RUN_RECORD_VERSION};
use sim_harness::Placement;
use sweep::{run_grid, CellCache, GridSpec};

/// 8 pairs × 8 seeds at small scale: a 2 MB document.
const GRID64: &str = r#"{
    "version": 1,
    "name": "grid64",
    "small": true,
    "pairs": [
        {"mapping": "ffbp_seq", "platform": "epiphany"},
        {"mapping": "ffbp_spmd", "platform": "epiphany"},
        {"mapping": "ffbp_spmd", "platform": "e64"},
        {"mapping": "autofocus_seq", "platform": "epiphany"},
        {"mapping": "autofocus_mpmd", "platform": "epiphany"},
        {"mapping": "autofocus_mpmd", "platform": "e64"},
        {"mapping": "rda_spmd", "platform": "epiphany"},
        {"mapping": "rda_spmd", "platform": "e64"}
    ],
    "seeds": [1, 2, 3, 4, 5, 6, 7, 8]
}"#;

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn a_64_cell_document_loads_back_in_linear_time() {
    let spec = GridSpec::parse(GRID64).expect("spec parses");
    let cold = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
    let text = cold.document.to_string_pretty();
    assert!(text.len() > 1_500_000, "document is {} bytes", text.len());
    let dir = scratch_dir("grid64");
    let path = dir.join("sweep_grid64.json");
    std::fs::write(&path, &text).expect("document written");

    // Milliseconds for a single-pass reader; the per-character
    // re-validation this replaces needed 18 s for the same document.
    let t0 = Instant::now();
    let cache = CellCache::load(&path);
    let elapsed = t0.elapsed();
    assert_eq!(cache.len(), 64);
    assert!(
        elapsed < Duration::from_secs(5),
        "loading {} bytes took {elapsed:?}",
        text.len()
    );

    let resumed = run_grid(&spec, 1, &cache).expect("grid resumes");
    assert_eq!(
        (
            resumed.cells_run,
            resumed.cells_derived,
            resumed.cells_cached
        ),
        (0, 0, 64)
    );
    assert!(resumed.document.to_string_pretty() == text);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_edited_placement_file_reruns_its_cells_and_no_other_key_moves() {
    let dir = scratch_dir("placement");
    let file = dir.join("placement.json");
    let place = |p: Placement| std::fs::write(&file, p.to_json().to_string_pretty());
    place(Placement::neighbor()).expect("placement written");
    let parse = || {
        GridSpec::parse(&format!(
            r#"{{"version": 1, "name": "placed", "pairs": [
            {{"mapping": "autofocus_mpmd", "platform": "epiphany", "set": {{"placement": "@{}"}}}},
            {{"mapping": "autofocus_mpmd", "platform": "epiphany", "set": {{"placement": "neighbor"}}}}
        ]}}"#,
            file.display()
        ))
        .expect("spec parses")
    };
    let spec = parse();
    // Each cell's key and record text.
    let cells = |doc: &Json| -> Vec<(String, String)> {
        let cells = doc.get("cells").and_then(Json::as_array).expect("cells");
        let key = |c: &Json| {
            c.get("key")
                .and_then(Json::as_str)
                .expect("key")
                .to_string()
        };
        let record = |c: &Json| c.get("record").expect("record").to_string();
        cells.iter().map(|c| (key(c), record(c))).collect()
    };

    let cold = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
    let before = cells(&cold.document);
    // A named placement keys as its `set` block, as it always has.
    assert_eq!(
        before[1].0,
        format!(
            r#"autofocus_mpmd|epiphany|autofocus|small|0|v{RUN_RECORD_VERSION}|{{"placement": "neighbor"}}"#
        )
    );
    let cache = CellCache::from_document(&cold.document);
    let warm = run_grid(&spec, 1, &cache).expect("grid resumes");
    assert_eq!((warm.cells_run, warm.cells_cached), (0, 2));

    // The grid read the file when it was parsed; parsed again, it
    // reads the edit.
    place(Placement::scattered()).expect("placement rewritten");
    let edited = run_grid(&parse(), 1, &cache).expect("grid resumes");
    assert_eq!((edited.cells_run, edited.cells_cached), (1, 1));
    let after = cells(&edited.document);
    assert_ne!(after[0].0, before[0].0, "the file's cell moves its key");
    assert_ne!(
        after[0].1, before[0].1,
        "and is simulated under the new file"
    );
    assert_eq!(after[1], before[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_placement_file_is_read_once_when_the_grid_is_parsed() {
    let dir = scratch_dir("read-once");
    let file = dir.join("placement.json");
    let write = |p: Placement| std::fs::write(&file, p.to_json().to_string_pretty());
    write(Placement::neighbor()).expect("placement written");
    let text = format!(
        r#"{{"version": 1, "name": "once", "pairs": [
            {{"mapping": "autofocus_mpmd", "platform": "epiphany", "set": {{"placement": "@{}"}}}},
            {{"mapping": "autofocus_net", "platform": "epiphany", "set": {{"placement": "@{}"}}}}
        ], "seeds": [1, 2]}}"#,
        file.display(),
        file.display()
    );
    let untouched = GridSpec::parse(&text).expect("spec parses");
    let untouched = run_grid(&untouched, 1, &CellCache::empty()).expect("grid runs");

    // Overwritten, then deleted, between the parse and the run: the
    // cells key and simulate what the parse read.
    let spec = GridSpec::parse(&text).expect("spec parses");
    write(Placement::scattered()).expect("placement rewritten");
    let overwritten = run_grid(&spec, 1, &CellCache::empty()).expect("grid runs");
    std::fs::remove_file(&file).expect("placement removed");
    let deleted = run_grid(&spec, 2, &CellCache::empty()).expect("grid runs without the file");
    let bytes = |doc: &Json| doc.to_string_pretty();
    assert!(bytes(&overwritten.document) == bytes(&untouched.document));
    assert!(bytes(&deleted.document) == bytes(&untouched.document));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_binary_writes_the_same_document_for_any_thread_count() {
    let dir = scratch_dir("threads");
    let grid = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/sweep_smoke.json");
    let document = |threads: &str| {
        let out = dir.join(format!("sweep_t{threads}.json"));
        let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--grid", grid, "--threads", threads, "--out"])
            .arg(&out)
            .output()
            .expect("sweep runs");
        assert!(run.status.success(), "{run:?}");
        std::fs::read(&out).expect("document written")
    };
    assert!(document("2") == document("1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_summary_table_names_each_variants_set() {
    let dir = scratch_dir("variants");
    let grid = dir.join("variants.json");
    std::fs::write(
        &grid,
        r#"{"version": 1, "name": "variants", "pairs": [
            {"mapping": "ffbp_spmd", "platform": "epiphany", "set": {"cores": 4}},
            {"mapping": "ffbp_spmd", "platform": "epiphany"}
        ]}"#,
    )
    .expect("grid written");
    let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("--grid")
        .arg(&grid)
        .arg("--no-write")
        .output()
        .expect("sweep runs");
    assert!(run.status.success(), "{run:?}");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 prose");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("ffbp_spmd"))
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert!(rows[0].ends_with(r#"  {"cores": 4}"#), "{stdout}");
    assert!(
        rows[1].ends_with('-'),
        "a set-less row ends at its ratios: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_profile_of_a_resume_accounts_for_the_load_and_the_write() {
    let dir = scratch_dir("profile");
    let out = dir.join("sweep_smoke.json");
    let grid = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/sweep_smoke.json");
    let sweep = |extra: &[&str]| {
        let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--grid", grid, "--threads", "1", "--profile", "--out"])
            .arg(&out)
            .args(extra)
            .output()
            .expect("sweep runs");
        assert!(run.status.success(), "{run:?}");
        String::from_utf8(run.stdout).expect("utf-8 prose")
    };

    let cold = sweep(&[]);
    assert!(
        cold.contains("3 simulated, 3 derived, 0 from cache"),
        "{cold}"
    );
    assert!(
        !cold.contains("profile: load"),
        "nothing was loaded: {cold}"
    );
    assert!(cold.contains("profile: setup  "), "{cold}");
    let written = std::fs::read(&out).expect("document written");

    let resumed = sweep(&["--resume"]);
    assert!(
        resumed.contains("0 simulated, 0 derived, 6 from cache"),
        "{resumed}"
    );
    for line in [
        "profile: load  ",
        "6 cached cell(s)",
        "profile: setup: none (every cell cached)",
        "profile: simulate  ",
        "profile: serialize  ",
        "profile: write  ",
        "profile: total  ",
        "ms unlisted)",
    ] {
        assert!(resumed.contains(line), "no '{line}' in:\n{resumed}");
    }
    assert!(std::fs::read(&out).expect("document rewritten") == written);

    // Without a file to write there is no `write` line either.
    let dry = sweep(&["--resume", "--no-write"]);
    assert!(dry.contains("profile: load  ") && !dry.contains("profile: write"));
    std::fs::remove_dir_all(&dir).ok();
}
