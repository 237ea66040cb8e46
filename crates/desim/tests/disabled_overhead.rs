//! The tracer's overhead guarantee: a *disabled* tracer must not
//! allocate, no matter how many events are offered to it. This test
//! binary installs a counting global allocator (which is why it lives
//! alone in its own integration-test binary) and asserts the
//! allocation count does not move across a large batch of disabled
//! emission calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::trace::{MeshKind, Tracer, Track};
use desim::Cycle;

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
fn disabled_tracer_never_allocates() {
    let tracer = Tracer::disabled();
    let link = Track::MeshLink {
        mesh: MeshKind::CMesh,
        node: 5,
        dir: 1,
    };
    // Warm up once so any lazy statics in the harness are paid for.
    tracer.span(Track::Core(0), "warmup", Cycle(0), Cycle(1));
    let before = allocations();
    for i in 0..100_000u64 {
        tracer.span(
            Track::Core((i % 16) as u32),
            "compute",
            Cycle(i),
            Cycle(i + 3),
        );
        tracer.instant(link, "xfer", Cycle(i));
        tracer.counter(Track::Run, "energy_j", Cycle(i), i as f64);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled tracer allocated {} times",
        after - before
    );
    assert_eq!(tracer.event_count(), 0);
    // The zero above means something only if the counter counts.
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(allocations(), after + 1);
}
