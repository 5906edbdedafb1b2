//! Allocation probe: once a `Dinic` is built and has answered one query,
//! further queries must not touch the heap — the residual arena, the
//! stamped scratch arrays and the undo log are all reused. Counter and
//! flag are thread-local, as in `crates/ncc/tests/zero_alloc.rs`, so
//! only the measuring thread's allocations register.

use dgr_graph::{Dinic, Graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// True while this thread is inside the measured window (const-init,
    /// so reading it never allocates — safe inside the allocator).
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made inside the measured window.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_measuring() {
    // Thread teardown can query TLS after destruction; treat that as
    // "not measuring" rather than panicking inside the allocator.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s own guarantees carry over; the counter is a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warm_queries_do_not_allocate() {
    // A ring of 256 nodes with chords to the 3rd and 7th successor:
    // 6-regular, so an uncapped query runs several phases of long paths.
    let n = 256u64;
    let edges = (0..n).flat_map(|u| [1, 3, 7].map(|step| (u, (u + step) % n)));
    let g = Graph::from_edges(0..n, edges).unwrap();
    let mut dinic = Dinic::from_graph(&g);
    assert_eq!(dinic.flow_up_to(0, 128, usize::MAX), 6);

    MEASURING.with(|m| m.set(true));
    let mut total = 0;
    for i in 0..1000usize {
        // Far and near pairs, capped below, at and above the answer.
        let (s, t) = (i % 256, (i * 37 + 11) % 256);
        if s != t {
            total += dinic.flow_up_to(s, t, 1 + i % 8);
        }
    }
    MEASURING.with(|m| m.set(false));
    assert!(total > 3000, "the queries must have found flow: {total}");
    assert_eq!(ALLOCATIONS.get(), 0, "warm flow queries allocated");
}
