//! The fault hooks' overhead guarantee: a *disabled* [`FaultState`]
//! must not allocate, no matter how many injection-point queries hit
//! it — the no-`--faults` path must stay bit-identical and free. Same
//! counting-allocator pattern as `desim`'s tracer guard.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::trace::MeshKind;
use desim::Cycle;
use faultsim::FaultState;

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

#[test]
fn disabled_fault_state_never_allocates() {
    let faults = FaultState::disabled();
    // Warm up once so any lazy statics in the harness are paid for.
    let _ = faults.mesh_stall(MeshKind::CMesh, Cycle(0));
    let before = allocations();
    for i in 0..100_000u64 {
        let now = Cycle(i);
        assert!(faults.mesh_stall(MeshKind::CMesh, now).is_none());
        assert!(faults.mesh_stall(MeshKind::XMesh, now).is_none());
        assert!(faults.flag_fault(now).is_none());
        assert!(faults.elink_degrade(now).is_none());
        assert!(!faults.sdram_bit_error(now));
        assert!(!faults.halted((i % 16) as u32, now));
        faults.add_retries(1);
        faults.add_recovery_cycles(10);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled fault state allocated {} times",
        after - before
    );
    assert_eq!(faults.totals(), desim::FaultRecord::default());
    // The zero above means something only if the counter counts.
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(allocations(), after + 1);
}
