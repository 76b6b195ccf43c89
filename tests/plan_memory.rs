//! Pins the packed plan's memory: building it costs no more than three
//! upper-triangular `PairBitset`s.
//!
//! The first query against a fresh adversary decides the plan storage and
//! allocates it whole. At n = 4096 the packed plan is a symmetric cache
//! matrix (n² bits) plus the open round's triangle (n²/2 bits); that is the
//! footprint of the three triangles it replaced (entry-present, answer, and
//! round membership). A layout that grows the plan past that budget shows up
//! here as a byte count, instead of as a higher peak RSS in the benchmark.

use parallel_ecs::graph::PairBitset;
use parallel_ecs::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes requested by the thread that
/// switched counting on.
struct CountingAllocator;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes allocated by this thread while `f` runs.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn packed_plan_fits_three_pair_triangles() {
    let n = 4096;
    let adversary = EqualSizeAdversary::new(n, 64);
    let (_, bytes) = bytes_allocated(|| adversary.same(0, 1));

    let triangle = PairBitset::new(n).words().len() * 8;
    let budget = 3 * triangle + 4096;
    assert!(
        bytes > 2 * triangle,
        "the first query must build the plan ({bytes} bytes allocated)"
    );
    assert!(
        bytes <= budget,
        "building the plan allocated {bytes} bytes; budget {budget}"
    );
}
