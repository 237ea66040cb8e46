//! Powertrace's zero-cost guarantee: power sampling touches its state
//! (boundary marks, component snapshots) only in `phase_begin` /
//! `phase_end`, so running a batch of operations *inside* a phase must
//! allocate exactly as much as running the identical batch outside
//! one — the sampler adds nothing to the per-operation hot path. This
//! test binary installs a counting global allocator (which is why it
//! lives alone in its own integration-test binary) and compares the
//! two counts; the simulator is deterministic, so the counts are too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use epiphany::cost::OpCounts;
use epiphany::{Chip, EpiphanyParams};

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. The guard measures one
    /// thread's loop; libtest's own threads allocate when they please,
    /// and a process-wide count would charge that to the loop. Const
    /// initialisation and no destructor: touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run the standard batch on a fresh chip, counting only the
/// allocations of the operations themselves — phase boundaries (which
/// legitimately allocate for metric maps and boundary marks) sit
/// outside the measured window.
fn batch_allocations(in_phase: bool) -> u64 {
    let mut chip = Chip::e16g3(EpiphanyParams::default());
    let ops = OpCounts {
        fmas: 64,
        loads: 32,
        ialu: 8,
        ..OpCounts::default()
    };
    if in_phase {
        chip.phase_begin("measured");
    }
    let before = allocations();
    for i in 0..100_000usize {
        let core = i % 16;
        chip.compute(core, &ops);
        chip.write_remote(core, (core + 1) % 16, 64);
    }
    let after = allocations();
    if in_phase {
        chip.phase_end();
        let record = chip.report("overhead", 16);
        let power = record.power.expect("chip records carry a power block");
        assert!(!power.timeline.is_empty());
        assert!((power.timeline.total_j() - record.energy.total_j()).abs() <= 1e-12);
    }
    after - before
}

#[test]
fn power_sampling_adds_no_hot_path_allocations() {
    // Equal counts mean something only if the counter counts.
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(allocations(), before + 1);
    // First run pays for lazy statics; the second is the baseline.
    let _warmup = batch_allocations(false);
    let bare = batch_allocations(false);
    let sampled = batch_allocations(true);
    assert_eq!(
        sampled, bare,
        "an open phase changed the hot path's allocation count \
         ({sampled} vs {bare} across 200k operations)"
    );
}
