//! The chaos-checking path allocates per run, never per access: a checked
//! replay through a lossy transport, an event-capturing replay and the
//! SC-conformance check of its log each allocate about as often on a trace
//! as on the same trace played twice over. Their working state lives in
//! scratch buffers and dense tables sized once; what still grows with the
//! run (the event log, the result vectors) grows geometrically.
//!
//! One test in its own binary, because the counting allocator sees every
//! thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ccsim_engine::{replay_checked, replay_events, InvariantMode, Trace};
use ccsim_race::check;
use ccsim_types::{FaultConfig, MachineConfig, ProtocolKind};
use ccsim_workloads::{capture_spec, mp3d, Spec};

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

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The trace's events played twice over: twice the accesses, the same
/// footprint, so any allocation made per access shows up as the difference.
fn doubled(trace: &Trace) -> Trace {
    let mut events = trace.events().to_vec();
    events.extend_from_slice(trace.events());
    Trace::from_events(trace.procs(), events).expect("same processors as the original")
}

#[test]
fn chaos_checking_allocates_per_run_not_per_access() {
    let chaos = FaultConfig {
        nack_per_mille: 40,
        delay_per_mille: 30,
        drop_per_mille: 60,
        dup_per_mille: 50,
        reorder_per_mille: 40,
        max_delay_cycles: 120,
        seed: 0xC0FFEE,
        ..FaultConfig::default()
    };
    let spec = Spec::Mp3d(mp3d::Mp3dParams::quick());
    let trace = capture_spec(
        MachineConfig::splash_baseline(ProtocolKind::Baseline),
        &spec,
    )
    .1;
    let twice = doubled(&trace);
    let extra_events = trace.events().len() as u64;
    // Allocations of each stage of one chaos cell.
    let stages = |cfg: MachineConfig, t: &Trace| {
        let (_, log) = replay_events(cfg, t, &[]);
        [
            allocations(|| replay_checked(cfg, t, &[], InvariantMode::Check)),
            allocations(|| replay_events(cfg, t, &[])),
            allocations(|| check(&cfg.protocol, &log)),
        ]
    };
    for kind in ProtocolKind::ALL {
        let cfg = MachineConfig::splash_baseline(kind).with_faults(chaos);
        let (once, doubled) = (stages(cfg, &trace), stages(cfg, &twice));
        let names = ["checked replay", "event capture", "race check"];
        for ((stage, once), doubled) in names.into_iter().zip(once).zip(doubled) {
            let extra = doubled.saturating_sub(once);
            // Geometric growth of the run-length buffers costs a handful of
            // reallocations; one allocation per access would cost thousands.
            assert!(
                extra * 100 < extra_events,
                "{kind:?} {stage}: {extra} more allocations for {extra_events} more trace \
                 events ({once} for the trace, {doubled} for it twice)"
            );
        }
    }
}
