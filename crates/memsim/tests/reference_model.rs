//! Differential test of the host-fast `Cache`, `StreamPrefetcher` and
//! `MemoryHierarchy` against the straightforward models they replaced.
//!
//! `reference/` holds the previous implementations verbatim (an array
//! of `Line` structs scanned twice per touch; a `Vec<Option<Stream>>`
//! table returning a `Vec` per observe), plus the hierarchy's access
//! loop over them. Every trace below drives old and new side by side
//! and demands the same answer per touch, not just the same totals.

use desim::rng::SmallRng;
use memsim::{Cache, HierarchyParams, MemoryHierarchy, StreamPrefetcher};

mod reference;

/// One demand touch of a trace.
type Touch = (u64, bool);

/// The five access shapes, scaled so that a working set of `span`
/// bytes is swept, overflowed or sampled. The descending one runs down
/// to address 0, where its stream asks for lines below line 0.
fn traces(span: u64, n: u64, seed: u64) -> Vec<(&'static str, Vec<Touch>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let span = span.max(1024);

    let sequential = (0..n).map(|i| (4096 + 8 * i, false)).collect();

    // FFBP's merge: two children read at positions that wander a few
    // samples and jump a row now and then, one output row written in
    // order.
    let row = 1001 * 8;
    let mut child = [0u64, span / 2];
    let mut gather = Vec::new();
    for i in 0..n / 3 {
        for pos in &mut child {
            *pos += 8 * rng.gen_u64(0..4);
            if rng.gen_u64(0..64) == 0 {
                *pos += row;
            }
            *pos %= 2 * span;
            gather.push((*pos, false));
        }
        gather.push((4 * span + 8 * i, true));
    }

    let top = 8 * n;
    let descending = (0..=n).map(|i| (top - 8 * i, i % 5 == 0)).collect();

    let random = (0..n)
        .map(|_| (rng.gen_u64(0..4 * span), rng.gen_u64(0..4) == 0))
        .collect();

    // Mostly writes over twice the capacity: dirty victims all the time.
    let write_heavy = (0..n)
        .map(|_| (rng.gen_u64(0..2 * span), rng.gen_u64(0..10) < 7))
        .collect();

    vec![
        ("sequential", sequential),
        ("gather", gather),
        ("descending", descending),
        ("random", random),
        ("write_heavy", write_heavy),
    ]
}

#[test]
fn cache_matches_the_reference_per_touch() {
    // (size, line, ways): the three default levels, then direct-mapped,
    // two sets of two ways, one fully associative set, a 2-byte line.
    let geometries = [
        (32 * 1024, 64, 8),
        (256 * 1024, 64, 8),
        (4 * 1024 * 1024, 64, 16),
        (128, 64, 1),
        (256, 64, 2),
        (1024, 64, 16),
        (4096, 64, 1),
        (64, 2, 4),
    ];
    for (g, &(size, line, ways)) in geometries.iter().enumerate() {
        for (name, trace) in traces(u64::from(size), 60_000, 0xcac4e + g as u64) {
            let mut new = Cache::new(size, line, ways);
            let mut old = reference::Cache::new(size, line, ways);
            assert_eq!(new.sets(), old.sets());
            let mut rng = SmallRng::seed_from_u64(g as u64);
            for (i, &(addr, write)) in trace.iter().enumerate() {
                let ctx = || format!("{size}/{line}/{ways} {name} touch {i} @ {addr:#x}");
                // A fifth of the touches are prefetch fills of a nearby line.
                if rng.gen_u64(0..5) == 0 {
                    let near = addr + u64::from(line) * rng.gen_u64(0..3);
                    assert_eq!(new.fill(near), old.fill(near), "{}", ctx());
                }
                assert_eq!(new.contains(addr), old.contains(addr), "{}", ctx());
                assert_eq!(
                    new.access(addr, write),
                    old.access(addr, write),
                    "{}",
                    ctx()
                );
            }
            assert_eq!(
                (new.hits(), new.misses(), new.writebacks()),
                (old.hits(), old.misses(), old.writebacks()),
                "{size}/{line}/{ways} {name}"
            );
            assert!(new.hits() + new.misses() > 0);
        }
    }
}

#[test]
fn prefetcher_matches_the_reference_per_observe() {
    let mut checked_runs = 0u64;
    for table_size in [1usize, 2, 3, 16] {
        for confirm_after in [1u32, 2, 3] {
            for depth in [0u32, 1, 4] {
                let seed = 0x9f37 + 100 * table_size as u64 + u64::from(10 * confirm_after + depth);
                for (name, trace) in traces(16 * 1024, 20_000, seed) {
                    let mut new = StreamPrefetcher::new(table_size, confirm_after, depth);
                    let mut old =
                        reference::StreamPrefetcher::new(table_size, confirm_after, depth);
                    for (i, &(addr, _)) in trace.iter().enumerate() {
                        let line = addr / 64;
                        let (got, want) =
                            (new.observe(line).collect::<Vec<u64>>(), old.observe(line));
                        assert_eq!(
                            got, want,
                            "table {table_size} confirm {confirm_after} depth {depth} \
                             {name} observe {i} of line {line}"
                        );
                        checked_runs += u64::from(!want.is_empty());
                    }
                    assert_eq!(new.issued(), old.issued());
                }
            }
        }
    }
    assert!(checked_runs > 100_000, "only {checked_runs} non-empty runs");
}

/// Latency of every access, then every counter the records are built
/// from.
fn hierarchy_agrees(params: HierarchyParams, span: u64, n: u64, seed: u64) {
    for (name, trace) in traces(span, n, seed) {
        let mut new = MemoryHierarchy::new(params);
        let mut old = reference::Hierarchy::new(params);
        let mut rng = SmallRng::seed_from_u64(seed);
        for (i, &(addr, write)) in trace.iter().enumerate() {
            // One access in eight is an object of up to five lines.
            let bytes = if rng.gen_u64(0..8) == 0 {
                rng.gen_u64(0..5 * u64::from(params.line_bytes))
            } else {
                8
            };
            assert_eq!(
                new.access_range(addr, bytes, write),
                old.access_range(addr, bytes, write),
                "{name} access {i}: {bytes} bytes @ {addr:#x}, prefetch {}",
                params.prefetch
            );
        }
        let (l1, l2, l3) = new.stats();
        for (level, stats, cache) in [
            ("l1", l1, &old.l1),
            ("l2", l2, &old.l2),
            ("l3", l3, &old.l3),
        ] {
            assert_eq!(
                (stats.hits, stats.misses),
                (cache.hits(), cache.misses()),
                "{name} {level}"
            );
        }
        assert_eq!(new.dram_accesses(), old.dram_accesses, "{name}");
    }
}

#[test]
fn hierarchy_matches_the_reference_per_access() {
    let default = HierarchyParams::default();
    // Three tiny levels: direct-mapped L1, two sets of two ways, one
    // fully associative set; the prefetcher thrashes all of them.
    let tiny = HierarchyParams {
        l1_bytes: 128,
        l1_ways: 1,
        l2_bytes: 256,
        l2_ways: 2,
        l3_bytes: 1024,
        l3_ways: 16,
        ..default
    };
    for prefetch in [true, false] {
        let with = |p: HierarchyParams| HierarchyParams { prefetch, ..p };
        hierarchy_agrees(with(default), 1 << 20, 300_000, 0x41e7);
        hierarchy_agrees(with(default), 8 << 20, 300_000, 0x41e8);
        hierarchy_agrees(with(tiny), 2048, 40_000, 0x41e9);
    }
}
