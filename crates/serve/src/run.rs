//! The serve runner: open-loop drivers over the OLTP schema, ward-stopped.
//!
//! One driver program per node: it lazily generates its arrival stream,
//! admits arrivals into a bounded queue, services requests through the
//! serve transaction-class ops, and records latencies into the shared
//! measurement plane. Wards are evaluated under the measurement lock and
//! stop the run through the engine's [`HaltHandle`] hook.
//!
//! Determinism: every access to the shared plane happens while the
//! accessing processor holds its simulated turn, and the engine admits
//! exactly one processor at a time in a deterministic order — so lock
//! acquisitions are uncontended and globally ordered, histogram merges are
//! bucket-wise sums (order-independent anyway), and ward firing lands on
//! the identical completion in every rerun and on both engine backends.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ccsim_engine::{Component, HaltHandle, RunStats, SimBuilder};
use ccsim_types::{Addr, MachineConfig, ProtocolKind};
use ccsim_util::stable_hash::fnv1a64;
use ccsim_util::{FxHashMap, Json, LatencyHistogram, ToJson};
use ccsim_workloads::oltp::{layout, ops};

use crate::arrivals::ArrivalGen;
use crate::config::{ServeConfig, TxnClass};
use crate::population::Population;
use crate::wards::{StopReason, WardState};

/// Hot-key window tracked for cross-node conflict accounting.
const HOT_SET: u64 = 64;
/// Upper bound of one idle wait, cycles (keeps the watchdog content and
/// halt polling responsive at low arrival rates).
const IDLE_SLICE: u64 = 2_000;
/// Fixed admission/dispatch overhead per serviced request, cycles.
const DISPATCH_CYCLES: u64 = 180;

/// Everything one protocol's serve run produces.
#[derive(Clone, Debug)]
pub struct ServeReport {
    pub protocol: ProtocolKind,
    pub stop: StopReason,
    /// Largest processor clock at the end of the run.
    pub cycles: u64,
    pub admitted: u64,
    pub completed: u64,
    pub dropped: u64,
    pub max_queue_depth: u64,
    /// Cross-node RMW touches of the zipf-hot key set.
    pub hot_row_conflicts: u64,
    /// Latency histograms per transaction class, merged across nodes.
    pub class_hists: [LatencyHistogram; 4],
    /// Queue depth observed at each admission (a gauge histogram).
    pub queue_depth_hist: LatencyHistogram,
    pub stats: RunStats,
}

impl ServeReport {
    /// Completed transactions per million simulated cycles.
    pub fn throughput_per_mcycle(&self) -> u64 {
        self.completed
            .saturating_mul(1_000_000)
            .checked_div(self.cycles)
            .unwrap_or(0)
    }
}

/// The shared measurement plane (one per run, behind a mutex the engine's
/// turn order keeps uncontended).
struct Plane {
    hists: [LatencyHistogram; 4],
    depth_hist: LatencyHistogram,
    admitted: u64,
    completed: u64,
    dropped: u64,
    max_depth: u64,
    hot_last: [u16; HOT_SET as usize],
    hot_conflicts: u64,
    stop: Option<StopReason>,
    ward: WardState,
}

impl Plane {
    fn new(cfg: &ServeConfig) -> Plane {
        Plane {
            hists: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
            depth_hist: LatencyHistogram::new(),
            admitted: 0,
            completed: 0,
            dropped: 0,
            max_depth: 0,
            hot_last: [u16::MAX; HOT_SET as usize],
            hot_conflicts: 0,
            stop: None,
            ward: WardState::new(cfg.ward),
        }
    }

    fn record_stop(&mut self, reason: StopReason, halt: &HaltHandle) {
        if self.stop.is_none() {
            self.stop = Some(reason);
        }
        halt.halt();
    }
}

fn lock(plane: &Mutex<Plane>) -> std::sync::MutexGuard<'_, Plane> {
    plane.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one protocol's serve simulation to its ward-stopped end.
pub fn serve_run(machine: MachineConfig, cfg: &ServeConfig) -> ServeReport {
    cfg.validate().expect("invalid serve config");
    let cfg = *cfg;
    let nodes = machine.nodes;
    let mut b = SimBuilder::new(machine);
    let db = layout::allocate(&mut b, cfg.branches, cfg.accounts, nodes);
    let index_base = b.alloc().alloc(cfg.index_words * 8, 64);
    for i in (0..cfg.index_words).step_by(64) {
        b.init(Addr(index_base.0 + i * 8), i);
    }
    let halt = b.halt_handle();
    let plane = Arc::new(Mutex::new(Plane::new(&cfg)));
    let pop = Population::new(&cfg);

    for node in 0..nodes {
        let mut gen = ArrivalGen::new(&cfg, node, nodes);
        let plane = Arc::clone(&plane);
        let halt = halt.clone();
        b.spawn(move |p| {
            let mut queue: VecDeque<crate::arrivals::Arrival> = VecDeque::new();
            let mut visits: FxHashMap<u64, u64> = FxHashMap::default();
            p.set_component(Component::Os);
            p.busy(200 + node as u64 * 40); // staggered listener start-up
            loop {
                if p.halted() {
                    break;
                }
                let now = p.now();
                // NB: bind the ward verdict first — an `if let` over the
                // guard would hold the lock into the body and self-deadlock.
                let fuse = lock(&plane).ward.on_clock(now);
                if let Some(r) = fuse {
                    lock(&plane).record_stop(r, &halt);
                    break;
                }
                // Admit everything that has arrived by `now`; overload
                // shows up as drops, never as generator back-pressure.
                while gen.peek_cycle() <= now {
                    let a = gen.take();
                    let g = &mut *lock(&plane);
                    if (queue.len() as u64) < cfg.queue_cap {
                        queue.push_back(a);
                        g.admitted += 1;
                        let depth = queue.len() as u64;
                        g.depth_hist.record(depth);
                        g.max_depth = g.max_depth.max(depth);
                    } else {
                        g.dropped += 1;
                        if let Some(r) = g.ward.on_drop(g.dropped) {
                            g.record_stop(r, &halt);
                        }
                    }
                }
                if halt.is_halted() {
                    break;
                }
                let Some(a) = queue.pop_front() else {
                    // Idle: advance to the next arrival in bounded slices.
                    let wait = gen.peek_cycle().saturating_sub(now).clamp(1, IDLE_SLICE);
                    p.set_component(Component::Os);
                    p.busy(wait);
                    continue;
                };
                let visit = visits.entry(a.client).or_insert(0);
                let (class, inp) = pop.txn(a.client, *visit, node);
                *visit += 1;
                p.set_component(Component::Os);
                p.busy(DISPATCH_CYCLES);
                match class {
                    TxnClass::PointRead => ops::point_read(&p, &db, &inp),
                    TxnClass::Rmw => ops::read_modify_write(&p, &db, &inp, false),
                    TxnClass::Scan => ops::scan(&p, &db, index_base, &inp),
                    TxnClass::Append => ops::append(&p, &db, &inp, false),
                }
                let latency = p.now().saturating_sub(a.cycle);
                let g = &mut *lock(&plane);
                g.hists[class.idx()].record(latency);
                g.completed += 1;
                if class == TxnClass::Rmw && a.rank <= HOT_SET {
                    let slot = (a.rank - 1) as usize;
                    let last = g.hot_last[slot];
                    if last != u16::MAX && last != node {
                        g.hot_conflicts += 1;
                    }
                    g.hot_last[slot] = node;
                }
                if g.stop.is_none() {
                    let Plane {
                        ward,
                        hists,
                        completed,
                        ..
                    } = g;
                    if let Some(r) = ward.on_completion(*completed, hists) {
                        g.record_stop(r, &halt);
                    }
                }
            }
        });
    }

    let done = b.run_full();
    let g = lock(&plane);
    ServeReport {
        protocol: done.stats.protocol,
        // The max-cycles fuse backstops every exit path, so a finished run
        // always has a reason; default defensively anyway.
        stop: g.stop.unwrap_or(StopReason::MaxCycles),
        cycles: done.stats.exec_cycles,
        admitted: g.admitted,
        completed: g.completed,
        dropped: g.dropped,
        max_queue_depth: g.max_depth,
        hot_row_conflicts: g.hot_conflicts,
        class_hists: g.hists.clone(),
        queue_depth_hist: g.depth_hist.clone(),
        stats: done.stats.clone(),
    }
}

/// Run the protocol comparison: one serve run per protocol, in
/// `protocols` order.
pub fn serve_sweep(
    base: MachineConfig,
    cfg: &ServeConfig,
    protocols: &[ProtocolKind],
) -> Vec<ServeReport> {
    protocols
        .iter()
        .map(|&kind| serve_run(base.with_protocol(kind), cfg))
        .collect()
}

/// Content key of a serve run: a pure function of `(machine, serve)`
/// canonical JSON — the same discipline as the harness run cache, pinned
/// by the env-invariance tests so thread-count knobs can never leak in.
pub fn serve_key(machine: &MachineConfig, cfg: &ServeConfig) -> u64 {
    let doc = Json::obj(vec![
        ("format", Json::Str("ccsim-serve-key-v1".into())),
        ("machine", machine.to_json()),
        ("serve", cfg.to_json()),
    ]);
    fnv1a64(doc.to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeConfig {
        // Small enough for unit tests: converge fast or hit the fuse fast.
        let mut cfg = ServeConfig::quick();
        cfg.clients = 2_000;
        cfg.accounts = 4_096;
        cfg.index_words = 8_192;
        cfg.ward.check_every = 64;
        cfg.ward.max_cycles = 1_200_000;
        cfg
    }

    #[test]
    fn quick_run_is_ward_stopped_and_serves_all_classes() {
        let r = serve_run(MachineConfig::oltp_scaled(ProtocolKind::Ls), &tiny());
        assert!(r.completed > 100, "only {} completions", r.completed);
        assert!(r.admitted >= r.completed);
        assert!(r.cycles <= tiny().ward.max_cycles + IDLE_SLICE);
        for (i, h) in r.class_hists.iter().enumerate() {
            assert!(h.count() > 0, "class {i} starved");
            assert!(h.percentile_per_mille(990) >= h.percentile_per_mille(500));
        }
        let total: u64 = r.class_hists.iter().map(|h| h.count()).sum();
        assert_eq!(total, r.completed);
    }

    #[test]
    fn overload_trips_the_queue_divergence_ward() {
        let mut cfg = tiny();
        cfg.rate_per_mcycle = 60_000; // far beyond 4-node service capacity
        cfg.queue_cap = 8;
        cfg.ward.diverge_dropped = 200;
        let r = serve_run(MachineConfig::oltp_scaled(ProtocolKind::Baseline), &cfg);
        assert_eq!(r.stop, StopReason::QueueDivergence);
        assert!(r.dropped >= 200);
        assert!(r.max_queue_depth == 8, "queue never filled");
    }

    #[test]
    fn starved_run_hits_the_max_cycles_fuse() {
        let mut cfg = tiny();
        cfg.rate_per_mcycle = 2; // a trickle: percentiles can't converge
        cfg.ward.max_cycles = 300_000;
        let r = serve_run(MachineConfig::oltp_scaled(ProtocolKind::Ls), &cfg);
        assert_eq!(r.stop, StopReason::MaxCycles);
        assert!(r.cycles >= 300_000);
    }

    #[test]
    fn serve_key_depends_on_config_not_environment() {
        let cfg = tiny();
        let base = MachineConfig::oltp_scaled(ProtocolKind::Ls);
        let k = serve_key(&base, &cfg);
        assert_eq!(k, serve_key(&base, &cfg));
        let mut skewed = cfg;
        skewed.skew_per_mille += 100;
        assert_ne!(k, serve_key(&base, &skewed));
        assert_ne!(
            k,
            serve_key(&base.with_protocol(ProtocolKind::Ad), &cfg),
            "protocol must be part of the key"
        );
    }
}
