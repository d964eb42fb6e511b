//! A replay allocates per page of simulated state, never per access or per
//! block: caches are one fixed-stride slab each, and the directory, busy
//! windows and oracles live in lazily paged dense slabs of plain words.
//!
//! One test in its own binary, because the counting allocator sees every
//! thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ccsim_engine::{replay, TraceOp};
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_workloads::{capture_spec, oltp, Spec};

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
fn replay_allocates_per_page_not_per_access() {
    let spec = Spec::Oltp(oltp::OltpParams::quick());
    let (_, trace) = capture_spec(MachineConfig::oltp_scaled(ProtocolKind::Baseline), &spec);
    let accesses = trace
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.op,
                TraceOp::Load(_) | TraceOp::Store(..) | TraceOp::LoadExclusive(_)
            )
        })
        .count() as u64;
    for kind in ProtocolKind::ALL {
        let cfg = MachineConfig::oltp_scaled(kind);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = std::hint::black_box(replay(cfg, &trace, &[]));
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(stats.exec_cycles > 0);
        // Pages, cache slabs and geometric growth cost about a hundred
        // allocations per replay; one per touched block would cost tens of
        // thousands.
        assert!(
            allocations * 100 < accesses,
            "{kind:?}: {allocations} allocations for {accesses} accesses"
        );
    }
}
