//! Self-seeded fuzz of `Placement::parse` and `Placement::resolve`, the
//! readers every `--placement` operand goes through (`run`, `sarlint`,
//! a grid pair's `set` block): the hand placements and the runner's CLI
//! test inputs, damaged. Every input must yield a `Placement` or an
//! error — a message from `parse`, a coded `Diagnostic` from `resolve`
//! — never a panic, and never a hang.
//!
//! The inputs are the JSON of `Placement::neighbor()` and
//! `Placement::scattered()`, and the files and names of
//! `crates/bench/tests/placement_cli.rs` (a block one core short, a
//! correlator off the mesh and off the coordinate space, an unknown
//! name). The damage is that of `crates/faultsim/tests/plan_fuzz.rs`,
//! drawn from `desim::rng` with a fixed seed so a failure reproduces:
//! truncation and byte flips of the text, and — on the parsed document
//! — two values swapped between fields, or two keys swapped between
//! members.

use std::time::{Duration, Instant};

use desim::{Json, SmallRng};
use sim_harness::Placement;

/// The placement files: both hand placements, then the runner's bad
/// inputs.
fn files() -> Vec<String> {
    let mut files: Vec<String> = [Placement::neighbor(), Placement::scattered()]
        .iter()
        .map(|p| p.to_json().to_string_pretty())
        .collect();
    files.push(
        r#"{"version": 1, "range": [[0, 4], [3, 7, 11]],
            "beam": [[1, 5, 9], [2, 6, 10]], "corr": 13}"#
            .to_string(),
    );
    for corr in [16, 1_000_000] {
        let mut off = Placement::neighbor();
        off.corr = corr;
        files.push(off.to_json().to_string_pretty());
    }
    files
}

/// The path (child indices, container by container) of every value
/// below the root: object member values and array elements.
fn paths(node: &Json, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match node {
        Json::Obj(members) => members.iter().map(|(_, v)| v).collect(),
        Json::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        out.push(at.clone());
        paths(child, at, out);
        at.pop();
    }
}

fn node_mut<'a>(node: &'a mut Json, path: &[usize]) -> &'a mut Json {
    let Some((&i, rest)) = path.split_first() else {
        return node;
    };
    let child = match node {
        Json::Obj(members) => &mut members[i].1,
        Json::Arr(items) => &mut items[i],
        _ => unreachable!("paths() only descends into containers"),
    };
    node_mut(child, rest)
}

/// `doc` with the values at two unrelated paths exchanged.
fn swap_values(doc: &Json, rng: &mut SmallRng) -> Json {
    let mut all = Vec::new();
    paths(doc, &mut Vec::new(), &mut all);
    let a = &all[rng.gen_index(0..all.len())];
    let b = &all[rng.gen_index(0..all.len())];
    let mut out = doc.clone();
    if a.starts_with(b) || b.starts_with(a) {
        return out;
    }
    let (va, vb) = (node_mut(&mut out, a).clone(), node_mut(&mut out, b).clone());
    *node_mut(&mut out, a) = vb;
    *node_mut(&mut out, b) = va;
    out
}

/// `doc` with the keys of two object members exchanged.
fn swap_keys(doc: &Json, rng: &mut SmallRng) -> Json {
    let mut all = Vec::new();
    paths(doc, &mut Vec::new(), &mut all);
    all.push(Vec::new());
    let mut members: Vec<(Vec<usize>, usize)> = Vec::new();
    let mut out = doc.clone();
    for parent in &all {
        if let Json::Obj(m) = node_mut(&mut out, parent) {
            members.extend((0..m.len()).map(|i| (parent.clone(), i)));
        }
    }
    let (pa, ia) = members[rng.gen_index(0..members.len())].clone();
    let (pb, ib) = members[rng.gen_index(0..members.len())].clone();
    let key = |out: &mut Json, path: &[usize], i: usize| -> String {
        match node_mut(out, path) {
            Json::Obj(m) => m[i].0.clone(),
            _ => unreachable!("collected from objects"),
        }
    };
    let (ka, kb) = (key(&mut out, &pa, ia), key(&mut out, &pb, ib));
    for (path, i, name) in [(pa, ia, kb), (pb, ib, ka)] {
        if let Json::Obj(m) = node_mut(&mut out, &path) {
            m[i].0 = name;
        }
    }
    out
}

/// Truncate or flip one byte of `text`.
fn damage_bytes(text: &str, rng: &mut SmallRng, truncate: bool) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if truncate {
        bytes.truncate(rng.gen_index(0..bytes.len()));
    } else {
        let at = rng.gen_index(0..bytes.len());
        bytes[at] = rng.next_u64() as u8;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What a caller does with an accepted placement: it uses 13 distinct
/// cores, and wherever it fits it rebases without panicking.
fn check_accepted(p: &Placement) {
    assert_eq!(p.cores().len(), 13);
    for (cols, rows) in [(4, 4), (8, 8)] {
        if p.fits(cols, rows) {
            assert_eq!(p.rebased(cols, rows).cores().len(), 13);
        }
    }
}

#[test]
fn damaged_placements_yield_a_placement_or_a_coded_diagnostic() {
    let mut rng = SmallRng::seed_from_u64(0x504c_4143);
    let files = files();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("placement-fuzz-{}.json", std::process::id()));
    let operand = format!("@{}", path.display());
    let (mut accepted, mut refused) = (0u32, 0u32);
    for round in 0..400 {
        for (i, text) in files.iter().enumerate() {
            let doc = Json::parse(text).expect("an input placement is JSON");
            let damaged = match round % 4 {
                0 => damage_bytes(text, &mut rng, true),
                1 => damage_bytes(text, &mut rng, false),
                2 => swap_values(&doc, &mut rng).to_string_pretty(),
                _ => swap_keys(&doc, &mut rng).to_string_pretty(),
            };
            let started = Instant::now();
            let parsed = Placement::parse(&damaged);
            std::fs::write(&path, &damaged).expect("placement written");
            let resolved = Placement::resolve(&operand);
            match (&parsed, &resolved) {
                (Ok(p), Ok(q)) => {
                    assert_eq!(p, q, "input {i}: parse and resolve agree");
                    check_accepted(p);
                    accepted += 1;
                }
                (Err(message), Err(d)) => {
                    assert!(!message.is_empty(), "input {i}: empty error for {damaged}");
                    assert_eq!(d.code, "CLI007", "input {i}: {damaged}");
                    assert!(d.message.contains(message.as_str()), "{}", d.message);
                    refused += 1;
                }
                _ => panic!("input {i}: parse {parsed:?} but resolve {resolved:?}"),
            }
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "input {i}: {:?} to parse {damaged}",
                started.elapsed()
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    // Both outcomes occur: the damage is neither always fatal nor
    // always harmless.
    assert!(accepted > 100 && refused > 1000, "{accepted} / {refused}");
}

#[test]
fn damaged_names_yield_a_placement_or_a_coded_diagnostic() {
    let mut rng = SmallRng::seed_from_u64(0x4e41_4d45);
    for round in 0..2_000 {
        let name = ["neighbor", "scattered", "diagonal"][round % 3];
        let damaged = damage_bytes(name, &mut rng, round % 2 == 0);
        match Placement::resolve(&damaged) {
            Ok(p) => {
                assert_eq!(Placement::named(&damaged), Some(p));
                check_accepted(&p);
            }
            // A flip to a leading '@' names a file that is not there.
            Err(d) => assert!(
                ["CLI003", "CLI007"].contains(&d.code) && !d.message.is_empty(),
                "{damaged:?}: {d:?}"
            ),
        }
    }
}
