//! Self-seeded fuzz of `GridSpec::parse`, the reader every `--grid`
//! file goes through: the checked-in specs, damaged. Every input must
//! yield a `GridSpec` or a coded `SWP00x` diagnostic — never a panic.
//!
//! Four kinds of damage, drawn from `desim::rng` (the seed is fixed, so
//! a failure reproduces): truncation and byte flips of the text, as in
//! `crates/desim/tests/json_fuzz.rs`, and — on the parsed document —
//! two values swapped between fields, or two keys swapped between
//! members, so that well-formed JSON carries the wrong shape, type or
//! name where the parser expects another (a fault block where a core
//! count goes, `"cores"` where `"mapping"` goes, …).

use desim::{Json, SmallRng};
use sweep::GridSpec;

/// The checked-in specs, by file name.
fn specs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("specs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable spec");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    specs.sort();
    specs
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

#[test]
fn damaged_specs_yield_a_grid_or_a_coded_diagnostic() {
    let mut rng = SmallRng::seed_from_u64(0x4752_4944);
    let specs = specs();
    assert!(specs.len() >= 9, "only {} specs", specs.len());
    let (mut accepted, mut refused) = (0u32, 0u32);
    for round in 0..400 {
        for (name, text) in &specs {
            let doc = Json::parse(text).expect("a checked-in spec is JSON");
            let damaged = match round % 4 {
                0 => {
                    let mut bytes = text.clone().into_bytes();
                    bytes.truncate(rng.gen_index(0..bytes.len()));
                    String::from_utf8_lossy(&bytes).into_owned()
                }
                1 => {
                    let mut bytes = text.clone().into_bytes();
                    let at = rng.gen_index(0..bytes.len());
                    bytes[at] = rng.next_u64() as u8;
                    String::from_utf8_lossy(&bytes).into_owned()
                }
                2 => swap_values(&doc, &mut rng).to_string_pretty(),
                _ => swap_keys(&doc, &mut rng).to_string_pretty(),
            };
            match GridSpec::parse(&damaged) {
                Ok(spec) => {
                    assert!(!spec.pairs.is_empty() && !spec.cells().is_empty());
                    accepted += 1;
                }
                Err(d) => {
                    assert!(
                        matches!(d.code, "SWP001" | "SWP002"),
                        "{name}: {d} for {damaged}"
                    );
                    refused += 1;
                }
            }
        }
    }
    // Both outcomes occur: the damage is neither always fatal nor
    // always harmless.
    assert!(accepted > 100 && refused > 1000, "{accepted} / {refused}");
}
