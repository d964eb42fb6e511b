//! Prints state-space sizes, wall times and peak heap for a grid of bounded
//! configurations, one line per (protocol, nodes, blocks, budget) cell.
//! Run with `cargo run --release -p ccsim-model --example calibrate` to
//! re-derive the sizing guidance quoted in EXPERIMENTS.md and to pick
//! bounds for new tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ccsim_model::{explore, ModelConfig};
use ccsim_types::ProtocolKind;

/// Counts live heap bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

impl PeakAlloc {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s implementation upholds the `GlobalAlloc` contract; the
// counting touches only statistics, so `Relaxed` suffices.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PeakAlloc::grew(layout.size());
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before releasing the old one: a moving
        // realloc holds both for a moment.
        PeakAlloc::grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn main() {
    let grid = [
        (2u16, 1u8, 4u8),
        (2, 2, 4),
        (3, 1, 4),
        (3, 1, 3),
        (3, 2, 3),
        (4, 1, 3),
        (4, 1, 2),
    ];
    for kind in ProtocolKind::ALL {
        for (n, b, ops) in grid {
            let cfg = ModelConfig::new(kind)
                .with_nodes(n)
                .with_blocks(b)
                .with_max_ops(ops);
            let base = LIVE.load(Ordering::Relaxed);
            PEAK.store(base, Ordering::Relaxed);
            let ex = explore(&cfg).unwrap();
            let peak_mb = (PEAK.load(Ordering::Relaxed) - base) as f64 / (1 << 20) as f64;
            println!(
                "{:?} n={n} b={b} ops={ops}: states={} trans={} dedup={} frontier={} depth={} wall={}ms peak={peak_mb:.1}MB viol={}",
                kind,
                ex.metrics.states,
                ex.metrics.transitions,
                ex.metrics.dedup_hits,
                ex.metrics.max_frontier,
                ex.metrics.max_depth,
                ex.metrics.wall_ms,
                ex.counterexample.is_some()
            );
        }
    }
}
