//! The layer pass of a `--trace 1` run: each layer's public API, driven
//! directly over the workload's layer inputs. Nothing here re-implements
//! coherence orchestration; the microbenchmarks call `Hierarchy`, `Store`
//! and `Network` exactly as their crates export them.
//!
//! Host times are medians of [`REPS`] repetitions. Simulated counters come
//! from the Baseline replays of the same inputs.

use std::hint::black_box;
use std::sync::Arc;

use ccsim_cache::{Hierarchy, LineState, Probe};
use ccsim_engine::parallel::replay_with_threads;
use ccsim_engine::{replay, replay_checked, replay_events, InvariantMode, Trace, TraceOp};
use ccsim_mem::{pages, Store};
use ccsim_model::{explore, verify, ModelConfig};
use ccsim_network::Network;
use ccsim_serve::{serve_run, ArrivalGen, Population, Zipf};
use ccsim_types::{Addr, MachineConfig, MsgKind, NodeId, ProtocolKind};
use ccsim_util::{LatencyHistogram, Xoshiro256pp};
use ccsim_workloads::{capture_spec, run_spec};

use crate::report::{median, metric, Metric};
use crate::spans::{timed, Tracer};
use crate::workloads::{stats_accesses, trace_accesses, LayerInputs, Scale, CHAOS_RATE};

/// Repetitions behind every host-time layer number.
const REPS: usize = 3;

/// Host threads available to this process.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` [`REPS`] times, each inside a span named `name`; return the
/// median duration in seconds and the last result.
fn median_time<R>(tr: &mut Tracer, name: &str, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let (s, r) = tr.span(name, |_| timed(&mut f));
        times.push(s);
        last = Some(r);
    }
    // ccsim-lint: allow(unwrap): REPS > 0, so the loop ran
    (median(&times), last.expect("REPS > 0"))
}

/// One captured memory access: issuing processor, address, and the stored
/// value for a store.
type Access = (u16, Addr, Option<u64>);

fn accesses_of(trace: &Trace) -> Vec<Access> {
    trace
        .events()
        .iter()
        .filter_map(|e| match e.op {
            TraceOp::Load(a) | TraceOp::LoadExclusive(a) => Some((e.proc, a, None)),
            TraceOp::Store(a, v) => Some((e.proc, a, Some(v))),
            TraceOp::Busy(_) | TraceOp::SetComponent(_) => None,
        })
        .collect()
}

/// Per-node `Hierarchy::probe`, with `fill` on a miss (`Modified` for a
/// store, `Shared` for a load). No coherence: other nodes' copies are
/// never invalidated. Returns each miss as (requester, home).
fn probe_caches(cfg: &MachineConfig, accesses: &[Access]) -> Vec<(NodeId, NodeId)> {
    let mut caches: Vec<Hierarchy> = (0..cfg.nodes).map(|_| Hierarchy::new(cfg)).collect();
    let mut misses = Vec::new();
    for &(p, a, store) in accesses {
        let block = a.block(cfg.block_bytes());
        let h = &mut caches[p as usize];
        if h.probe(block) == Probe::Miss {
            let state = if store.is_some() {
                LineState::Modified
            } else {
                LineState::Shared
            };
            black_box(h.fill(block, state));
            misses.push((NodeId(p), pages::home_node(a, cfg.page_bytes, cfg.nodes)));
        }
    }
    misses
}

/// `Store::load` for loads and `Store::store` for stores.
fn touch_store(accesses: &[Access]) -> u64 {
    let mut store = Store::new();
    let mut sum = 0u64;
    for &(_, a, v) in accesses {
        match v {
            Some(v) => store.store(a, v),
            None => sum = sum.wrapping_add(store.load(a)),
        }
    }
    black_box(sum)
}

/// A request and its reply through `Network::send` for every miss.
/// Returns the number of `send` calls.
fn send_misses(cfg: &MachineConfig, misses: &[(NodeId, NodeId)]) -> Result<u64, String> {
    let mut net =
        Network::try_with_topology(cfg.nodes, cfg.latency, cfg.block_bytes(), cfg.topology)?;
    let mut t = 0u64;
    for &(p, home) in misses {
        let at_home = net.send(t, p, home, MsgKind::ReadReq);
        t = net.send(at_home, home, p, MsgKind::ReadReply);
    }
    black_box(t);
    Ok(2 * misses.len() as u64)
}

/// Sums over the engine inputs.
#[derive(Default)]
struct EngineSums {
    live_ms: Vec<f64>,
    live_s: f64,
    serial_s: f64,
    t2_s: f64,
    tn_s: f64,
    checked_s: f64,
    events_s: f64,
    race_s: f64,
    faulty_s: f64,
    encode_s: f64,
    decode_s: f64,
    probe_s: f64,
    store_s: f64,
    send_s: f64,
    bytes: u64,
    accesses: u64,
    log_events: u64,
    sends: u64,
    l1_hits: u64,
    l2_hits: u64,
    misses: u64,
    dir_ops: u64,
    ownacq: u64,
    invals: u64,
    msgs: u64,
    retransmits: u64,
    invariant_violations: u64,
    race_violations: u64,
}

fn engine_layers(inputs: &LayerInputs, tr: &mut Tracer) -> Result<EngineSums, String> {
    let mut s = EngineSums::default();
    let threads2 = 2.min(nproc());
    for input in &inputs.engine {
        let cfg = input.cfg;
        let (live_s, live) = median_time(tr, "engine.run", || run_spec(cfg, &input.spec));
        let trace = match &input.trace {
            Some(t) => Arc::clone(t),
            None => Arc::new(
                tr.span("engine.trace.capture", |_| capture_spec(cfg, &input.spec))
                    .1,
            ),
        };
        let accesses = trace_accesses(&trace);
        let (serial_s, stats) = median_time(tr, "engine.trace.replay", || replay(cfg, &trace, &[]));
        if stats != live {
            return Err(format!(
                "{}: replay of the capture diverged from its live run",
                input.spec.name()
            ));
        }
        if stats_accesses(&stats) != accesses {
            return Err(format!(
                "{}: counters account for {} accesses, the trace holds {accesses}",
                input.spec.name(),
                stats_accesses(&stats)
            ));
        }
        let (t2_s, _) = median_time(tr, "engine.parallel.replay_t2", || {
            replay_with_threads(cfg, &trace, &[], threads2)
        });
        let tn_s = if nproc() == threads2 {
            t2_s
        } else {
            median_time(tr, "engine.parallel.replay_nproc", || {
                replay_with_threads(cfg, &trace, &[], nproc())
            })
            .0
        };
        let (checked_s, (_, report)) = median_time(tr, "engine.invariants.replay_checked", || {
            replay_checked(cfg, &trace, &[], InvariantMode::Check)
        });
        let (events_s, (_, log)) = median_time(tr, "engine.events.replay_events", || {
            replay_events(cfg, &trace, &[])
        });
        let (race_s, race) =
            median_time(tr, "race.check", || ccsim_race::check(&cfg.protocol, &log));
        let faulty_cfg = cfg.with_faults(ccsim_harness::chaos_plan(CHAOS_RATE, inputs.fault_seed));
        let (faulty_s, faulty) = median_time(tr, "network.faulty_replay", || {
            replay(faulty_cfg, &trace, &[])
        });
        let (encode_s, bytes) = median_time(tr, "engine.trace.encode", || trace.to_bytes());
        let (decode_s, decoded) =
            median_time(tr, "engine.trace.decode", || Trace::from_bytes(&bytes));
        if decoded.as_ref() != Ok(&*trace) {
            return Err(format!(
                "{}: trace codec round trip failed",
                input.spec.name()
            ));
        }
        let ops = accesses_of(&trace);
        let (probe_s, miss_stream) = median_time(tr, "cache.probe", || probe_caches(&cfg, &ops));
        let (store_s, _) = median_time(tr, "mem.store", || touch_store(&ops));
        let (send_s, sends) = median_time(tr, "network.send", || send_misses(&cfg, &miss_stream));

        s.live_ms.push(live_s * 1e3);
        s.live_s += live_s;
        s.serial_s += serial_s;
        s.t2_s += t2_s;
        s.tn_s += tn_s;
        s.checked_s += checked_s;
        s.events_s += events_s;
        s.race_s += race_s;
        s.faulty_s += faulty_s;
        s.encode_s += encode_s;
        s.decode_s += decode_s;
        s.probe_s += probe_s;
        s.store_s += store_s;
        s.send_s += send_s;
        s.bytes += bytes.len() as u64;
        s.accesses += accesses;
        s.log_events += log.len() as u64;
        s.sends += sends?;
        s.l1_hits += stats.machine.l1_hits;
        s.l2_hits += stats.machine.l2_hits;
        s.misses += stats.dir.global_reads + stats.dir.write_misses;
        s.dir_ops += stats.dir.global_reads + stats.dir.ownership_acquisitions();
        s.ownacq += stats.dir.ownership_acquisitions();
        s.invals += stats.dir.invalidations_requested;
        s.msgs += stats.traffic.total_messages();
        s.retransmits += faulty.machine.retransmits;
        s.invariant_violations += report.total_violations();
        s.race_violations += race.total_violations();
    }
    Ok(s)
}

/// Serve-layer costs and counters.
struct ServeLayer {
    arrival_ns: f64,
    zipf_ns: f64,
    txn_ns: f64,
    hist_ns: f64,
    layer_share: f64,
    dropped_frac: f64,
    max_queue_depth: u64,
    hot_conflicts_per_ktxn: f64,
}

fn serve_layers(inputs: &LayerInputs, scale: Scale, tr: &mut Tracer) -> ServeLayer {
    let cfg = inputs.serve;
    let n: u64 = match scale {
        Scale::Bench => 200_000,
        Scale::Quick => 2_000,
    };
    let per_call = |secs: f64| secs * 1e9 / n as f64;
    let (arrival_s, _) = median_time(tr, "serve.arrivals", || {
        let mut g = ArrivalGen::new(&cfg, 0, 4);
        for _ in 0..n {
            black_box(g.take());
        }
    });
    let zipf = Zipf::new(cfg.clients, cfg.skew_per_mille);
    let (zipf_s, _) = median_time(tr, "serve.zipf", || {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        for _ in 0..n {
            black_box(zipf.sample(&mut rng));
        }
    });
    let pop = Population::new(&cfg);
    let (txn_s, _) = median_time(tr, "serve.population", || {
        for i in 0..n {
            black_box(pop.txn(i % cfg.clients, i / cfg.clients, (i % 4) as u16));
        }
    });
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x4157);
    let samples: Vec<u64> = (0..n).map(|_| rng.below(1 << 22)).collect();
    let (hist_s, _) = median_time(tr, "util.histogram", || {
        let mut h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        black_box(h.count())
    });
    let (arrival_ns, txn_ns, hist_ns) = (per_call(arrival_s), per_call(txn_s), per_call(hist_s));

    let (mut run_s, mut layer_ns) = (0.0, 0.0);
    let (mut offered, mut dropped, mut completed, mut hot, mut max_depth) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in ProtocolKind::ALL {
        let (s, r) = tr.span("serve.run", |_| {
            timed(|| serve_run(MachineConfig::oltp_scaled(p), &cfg))
        });
        run_s += s;
        let arrivals = r.admitted + r.dropped;
        // Generator, population and histogram calls the run made, priced
        // at the microbenchmark costs: an estimate of the serve layer's own
        // time inside the run.
        layer_ns += arrivals as f64 * arrival_ns
            + r.completed as f64 * txn_ns
            + (r.completed + r.admitted) as f64 * hist_ns;
        offered += arrivals;
        dropped += r.dropped;
        completed += r.completed;
        hot += r.hot_row_conflicts;
        max_depth = max_depth.max(r.max_queue_depth);
    }
    ServeLayer {
        arrival_ns,
        zipf_ns: per_call(zipf_s),
        txn_ns,
        hist_ns,
        layer_share: layer_ns / (run_s * 1e9),
        dropped_frac: dropped as f64 / offered.max(1) as f64,
        max_queue_depth: max_depth,
        hot_conflicts_per_ktxn: hot as f64 * 1000.0 / completed.max(1) as f64,
    }
}

/// Model-checker costs and state-space shape over the three protocols.
fn model_layers(inputs: &LayerInputs, tr: &mut Tracer) -> Result<[f64; 4], String> {
    let (mut explore_s, mut verify_s) = (0.0, 0.0);
    let (mut dedup, mut transitions, mut frontier) = (0u64, 0u64, 0u64);
    for kind in ProtocolKind::ALL {
        let cfg = ModelConfig {
            kind,
            ..inputs.model
        };
        let (s, ex) = tr.span("model.explore", |_| timed(|| explore(&cfg)));
        let ex = ex?;
        explore_s += s;
        dedup += ex.metrics.dedup_hits;
        transitions += ex.metrics.transitions;
        frontier = frontier.max(ex.metrics.max_frontier);
        let (s, proof) = tr.span("model.verify", |_| {
            timed(|| verify(&ModelConfig::new(kind)))
        });
        proof?;
        verify_s += s;
    }
    Ok([
        explore_s * 1e3,
        verify_s * 1e3,
        dedup as f64 / transitions.max(1) as f64,
        frontier as f64,
    ])
}

/// Run every layer's microbenchmarks and derive the per-layer metrics (all
/// but `bench.trace_overhead_frac`, which the traced loop provides).
pub(crate) fn layer_pass(
    inputs: &LayerInputs,
    scale: Scale,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let e = tr.span("layer.engine", |tr| engine_layers(inputs, tr))?;
    let sv = tr.span("layer.serve", |tr| serve_layers(inputs, scale, tr));
    let [explore_ms, verify_ms, dedup_frac, max_frontier] =
        tr.span("layer.model", |tr| model_layers(inputs, tr))?;

    let acc = e.accesses.max(1) as f64;
    let ns_per_acc = |secs: f64| secs * 1e9 / acc;
    let per_kacc = |n: u64| n as f64 * 1000.0 / acc;
    let replay_ns = ns_per_acc(e.serial_s);
    let probe_ns = ns_per_acc(e.probe_s);
    let store_ns = ns_per_acc(e.store_s);
    let send_ns = e.send_s * 1e9 / e.sends.max(1) as f64;
    let msgs_per_acc = e.msgs as f64 / acc;
    Ok(vec![
        metric("engine.run.live_ms_p50", median(&e.live_ms), "ms"),
        metric(
            "engine.run.outside_commit_frac",
            1.0 - e.serial_s / e.live_s,
            "frac",
        ),
        metric("engine.trace.replay_ns_per_access", replay_ns, "ns"),
        metric(
            "engine.trace.encode_mb_per_s",
            e.bytes as f64 / 1e6 / e.encode_s,
            "MB/s",
        ),
        metric(
            "engine.trace.decode_mb_per_s",
            e.bytes as f64 / 1e6 / e.decode_s,
            "MB/s",
        ),
        metric(
            "engine.parallel.replay_ns_per_access_t2",
            ns_per_acc(e.t2_s),
            "ns",
        ),
        metric(
            "engine.parallel.speedup_vs_serial",
            e.serial_s / e.tn_s,
            "ratio",
        ),
        metric(
            "engine.invariants.overhead_frac",
            e.checked_s / e.serial_s - 1.0,
            "frac",
        ),
        metric(
            "engine.invariants.violations",
            e.invariant_violations as f64,
            "count",
        ),
        metric(
            "engine.events.overhead_frac",
            e.events_s / e.serial_s - 1.0,
            "frac",
        ),
        metric(
            "race.check_ns_per_event",
            e.race_s * 1e9 / e.log_events.max(1) as f64,
            "ns",
        ),
        metric(
            "race.cell_share",
            e.race_s / (e.checked_s + e.events_s + e.race_s),
            "frac",
        ),
        metric("race.violations", e.race_violations as f64, "count"),
        metric(
            "network.fault_overhead_frac",
            e.faulty_s / e.serial_s - 1.0,
            "frac",
        ),
        metric("network.send_ns", send_ns, "ns"),
        metric("network.msgs_per_kacc", per_kacc(e.msgs), "1/kacc"),
        metric(
            "network.retransmits_per_kacc",
            per_kacc(e.retransmits),
            "1/kacc",
        ),
        metric("cache.probe_ns", probe_ns, "ns"),
        metric("cache.l1_hit_frac", e.l1_hits as f64 / acc, "frac"),
        metric("cache.l2_hit_frac", e.l2_hits as f64 / acc, "frac"),
        metric("cache.miss_frac", e.misses as f64 / acc, "frac"),
        metric("mem.store_ns", store_ns, "ns"),
        metric("core.dir_ops_per_kacc", per_kacc(e.dir_ops), "1/kacc"),
        metric(
            "core.invals_per_ownacq",
            e.invals as f64 / e.ownacq.max(1) as f64,
            "ratio",
        ),
        metric(
            "engine.machine.residual_ns_per_access",
            replay_ns - probe_ns - store_ns - send_ns * msgs_per_acc,
            "ns",
        ),
        metric("serve.arrival_ns", sv.arrival_ns, "ns"),
        metric("serve.zipf_ns", sv.zipf_ns, "ns"),
        metric("serve.txn_ns", sv.txn_ns, "ns"),
        metric("util.histogram_record_ns", sv.hist_ns, "ns"),
        metric("serve.layer_share", sv.layer_share, "frac"),
        metric("serve.dropped_frac", sv.dropped_frac, "frac"),
        metric("serve.max_queue_depth", sv.max_queue_depth as f64, "count"),
        metric(
            "serve.hot_conflicts_per_ktxn",
            sv.hot_conflicts_per_ktxn,
            "1/ktxn",
        ),
        metric("model.explore_ms", explore_ms, "ms"),
        metric("model.verify_ms", verify_ms, "ms"),
        metric("model.dedup_hit_frac", dedup_frac, "frac"),
        metric("model.max_frontier", max_frontier, "count"),
    ])
}
