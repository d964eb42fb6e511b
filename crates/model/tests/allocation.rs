//! The explorer allocates per state-space growth, never per transition:
//! visited states live as encodings in one arena, and successors are
//! stepped through reused scratch states, so only the geometric growth of
//! the arena, the id table and the parent links reaches the allocator.
//!
//! One test in its own binary, because the counting allocator sees every
//! thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ccsim_model::{explore, ModelConfig};
use ccsim_types::ProtocolKind;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s implementation upholds the `GlobalAlloc` contract; the
// counting touches only a statistic, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[test]
fn exploration_allocates_per_growth_not_per_transition() {
    for kind in ProtocolKind::ALL {
        let cfg = ModelConfig::new(kind).with_nodes(3).with_max_ops(3);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let ex = std::hint::black_box(explore(&cfg).unwrap());
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(ex.counterexample.is_none(), "{kind:?} violated");
        let transitions = ex.metrics.transitions;
        // Geometric growth costs a few dozen allocations over the whole
        // space; one per transition would cost tens of thousands.
        assert!(
            allocations * 1000 < transitions,
            "{kind:?}: {allocations} allocations for {transitions} transitions"
        );
    }
}
