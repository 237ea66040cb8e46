//! Self-seeded fuzz of `FaultPlan::parse`, the reader every fault spec
//! goes through (`run --faults`, a grid's `faults`, a pair's `set`
//! block): the checked-in plans, damaged. Every input must yield a
//! `FaultPlan` or a `SpecError` — never a panic, and never a hang.
//!
//! The plans are `specs/faults_demo.json` and the inline plans of
//! `specs/fault_intensity.json`. The damage is that of
//! `crates/sweep/tests/spec_fuzz.rs`, drawn from `desim::rng` with a
//! fixed seed so a failure reproduces: truncation and byte flips of the
//! text, and — on the parsed document — two values swapped between
//! fields, or two keys swapped between members, so that well-formed JSON
//! carries the wrong shape, type or name where the parser expects
//! another (a window where a cycle goes, `"count"` where `"at"` goes, …).

use std::time::{Duration, Instant};

use desim::{Json, SmallRng};
use faultsim::FaultPlan;

fn read_spec(name: &str) -> String {
    let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("readable spec")
}

/// The checked-in plans: the demo plan, then every `set` block's plan of
/// the fault-intensity grid.
fn plans() -> Vec<String> {
    let mut plans = vec![read_spec("faults_demo.json")];
    let grid = Json::parse(&read_spec("fault_intensity.json")).expect("grid is JSON");
    let pairs = grid.get("pairs").and_then(Json::as_array).expect("pairs");
    plans.extend(pairs.iter().filter_map(|p| {
        let plan = p.get("set").and_then(|s| s.get("faults"));
        plan.map(Json::to_string_pretty)
    }));
    plans
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
fn damaged_plans_yield_a_plan_or_a_spec_error() {
    let mut rng = SmallRng::seed_from_u64(0x504c_414e);
    let plans = plans();
    assert_eq!(plans.len(), 11, "the demo plan and ten intensity levels");
    let (mut accepted, mut refused) = (0u32, 0u32);
    for round in 0..400 {
        for (i, text) in plans.iter().enumerate() {
            let doc = Json::parse(text).expect("a checked-in plan is JSON");
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
            let started = Instant::now();
            let seed = rng.next_u64();
            match FaultPlan::parse(&damaged, seed) {
                Ok(plan) => {
                    assert_eq!(plan.seed, seed);
                    assert!(plan.events.windows(2).all(|w| w[0].at() <= w[1].at()));
                    accepted += 1;
                }
                Err(e) => {
                    assert!(!e.message.is_empty(), "plan {i}: empty error for {damaged}");
                    refused += 1;
                }
            }
            // A well-formed group expands at most 2^20 events; anything
            // slower than this is a hang in the making.
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "plan {i}: {:?} to parse {damaged}",
                started.elapsed()
            );
        }
    }
    // Both outcomes occur: the damage is neither always fatal nor
    // always harmless.
    assert!(accepted > 200 && refused > 1000, "{accepted} / {refused}");
}
