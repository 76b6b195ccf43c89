//! Pins the heap-allocation budget of the two merge-based algorithms.
//!
//! Er-merge (Theorem 2) and cr-compound (Theorem 1) keep their answers in
//! index-addressed buffers that are reused from level to level, so a sort
//! allocates a bounded number of buffers plus their amortised growth rather
//! than a handful of vectors and hash maps per merge. A regression that
//! brings back per-merge copies or hashed bookkeeping shows up here as an
//! allocation count far above the budget instead of as a silent slowdown.
//!
//! Counting follows `tests/union_find_alloc.rs`: a counting global
//! allocator around one sort of each algorithm on a fixed-seed
//! n = 10 000 `uniform:5` instance.

use parallel_ecs::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator with a global allocation counter bolted on.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const N: usize = 10_000;

fn instance() -> Instance {
    let mut rng = Xoshiro256StarStar::seed_from_u64(2016);
    Instance::from_distribution(&AnyDistribution::uniform(5), N, &mut rng)
}

/// Allocations made by one sequential sort of the pinned instance.
fn allocations_of<A: EcsAlgorithm>(algorithm: &A) -> usize {
    let instance = instance();
    let oracle = InstanceOracle::new(&instance);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = algorithm.sort_with_backend(&oracle, ExecutionBackend::Sequential);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(instance.verify(&run.partition));
    after - before
}

/// Checks one sort's count against its budget (the measured count with
/// 1.5× headroom) and against a tenth of the count measured for the
/// per-merge `Vec<Vec<usize>>` answers and hashed outcome maps these
/// buffers replaced.
fn check(name: &str, count: usize, budget: usize, replaced: usize) {
    assert!(
        count <= budget,
        "{name}: one n = {N} sort made {count} allocations, budget {budget}"
    );
    assert!(
        count * 10 < replaced,
        "{name}: {count} allocations is not a tenth of the {replaced} of per-merge copies"
    );
}

/// One test, so no other test thread allocates while a sort is counted.
#[test]
fn merge_sorts_stay_within_their_allocation_budgets() {
    // Measured: 106. Per-merge copies: 146 075.
    check(
        "er-merge",
        allocations_of(&ErMergeSort::new()),
        159,
        146_075,
    );
    // Measured: 39. Per-merge copies: 85 217.
    check(
        "cr-compound",
        allocations_of(&CrCompoundMerge::new(5)),
        58,
        85_217,
    );
}
