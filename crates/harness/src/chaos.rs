//! Chaos sweep: fault-rate grids over workloads × protocols, checked
//! against the exactly-once delivery theorem, with a delta-debugging
//! shrinker that reduces any failure to a minimal witness.
//!
//! Replay pins the access interleaving: every cell replays the *same*
//! captured trace, so a lossy, duplicating, reordering interconnect may
//! only perturb *latencies* — never memory behaviour. (This is the replay
//! analogue of the engine soaks' sequential-quantum regime; unlike a live
//! sequential-quantum run it also works for barrier workloads, whose
//! spin-waiters would never yield inside a near-infinite quantum.) Each
//! grid cell replays one captured workload trace through a faulty
//! transport and convicts any observable divergence from the fault-free
//! run:
//!
//! 1. coherence invariants (SWMR, directory/cache agreement, data values)
//!    must stay clean under [`InvariantMode::Check`];
//! 2. the oracle / directory / false-sharing / cache-hit statistics must be
//!    bit-identical to the fault-free replay (latency counters are exempt —
//!    retransmits and NACK backoff legitimately add cycles);
//! 3. optionally, the SC-conformance analyzer must find the *same*
//!    sequential witness (fingerprint equality) as the fault-free run.
//!
//! When a cell fails — in practice only when a seeded transport mutation
//! like skip-dedup is installed — the sweep shrinks the failing trace with
//! ddmin and then zeroes every fault rate that is not needed to reproduce,
//! yielding a minimal (trace, fault plan) witness small enough to read.

use ccsim_engine::{
    replay_checked, replay_events, InvariantMode, RunStats, Trace, TraceEvent, TraceOp,
};
use ccsim_race::check;
use ccsim_stats::ChaosSummary;
use ccsim_types::{FaultConfig, MachineConfig, ProtocolKind};
use ccsim_workloads::{capture_spec, Spec};

use crate::jobset::default_workers;

/// Scheduling quantum that serializes processors into round-robin slices
/// long enough that every program runs sequentially — the live-simulation
/// regime of the result-identity theorem (see the engine's fault soaks).
/// Only usable for barrier-free programs: a spin-waiter inside a
/// near-infinite quantum is never preempted, so a live barrier workload
/// under this quantum livelocks. The sweep itself does not need it —
/// replay pins the interleaving via the captured trace instead.
pub const SEQUENTIAL_QUANTUM: u64 = 1 << 40;

/// The canonical chaos fault plan at a given intensity. `rate` scales all
/// five fault classes together; at `rate = 60` this is exactly the
/// reference plan from the robustness suite (nack 40, delay 30, drop 60,
/// dup 50, reorder 40).
pub fn chaos_plan(rate: u16, seed: u64) -> FaultConfig {
    let scaled = |num: u32, den: u32| (rate as u32 * num / den).min(1000) as u16;
    FaultConfig {
        nack_per_mille: scaled(2, 3),
        delay_per_mille: scaled(1, 2),
        drop_per_mille: scaled(1, 1),
        dup_per_mille: scaled(5, 6),
        reorder_per_mille: scaled(2, 3),
        max_delay_cycles: 120,
        seed,
        ..FaultConfig::default()
    }
}

/// Sweep description: the grid is `specs × protocols × rates × seeds`.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    pub protocols: Vec<ProtocolKind>,
    pub specs: Vec<Spec>,
    /// Fault intensities (per-mille; see [`chaos_plan`]). `0` cells are
    /// legal and always clean — useful as in-grid controls.
    pub rates: Vec<u16>,
    pub seeds: Vec<u64>,
    /// Cross-check every cell with the SC-conformance analyzer (slower:
    /// two extra event-capturing replays per cell).
    pub check_sc: bool,
    /// Shrink the first failing cell to a minimal witness.
    pub shrink: bool,
    /// Seeded transport mutation to install in every cell's faulty replay
    /// (requires the `testing` cargo feature). This is how the shrinker is
    /// demonstrated: a broken transport must be convicted with a small
    /// witness, not a 10k-access trace.
    pub mutation: Option<ccsim_types::TransportMutation>,
}

impl ChaosConfig {
    pub fn new() -> ChaosConfig {
        ChaosConfig {
            protocols: vec![ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls],
            specs: vec![Spec::Mp3d(ccsim_workloads::mp3d::Mp3dParams::quick())],
            rates: vec![60],
            seeds: vec![1, 2, 3],
            check_sc: true,
            shrink: true,
            mutation: None,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::new()
    }
}

/// One grid cell's verdict.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    pub workload: String,
    pub protocol: ProtocolKind,
    pub rate_per_mille: u16,
    pub seed: u64,
    /// Program accesses in the replayed trace.
    pub accesses: u64,
    /// Transport recoveries the faulty replay performed (proof the fault
    /// injector actually fired).
    pub retransmits: u64,
    pub nacks: u64,
    /// Whether the SC cross-check ran for this cell.
    pub sc_checked: bool,
    /// `None` = clean; otherwise the first divergence, rendered.
    pub failure: Option<String>,
}

/// A shrunken failing cell: the minimal trace and fault plan that still
/// reproduce the divergence.
#[derive(Clone, Debug)]
pub struct ChaosWitness {
    pub workload: String,
    pub protocol: ProtocolKind,
    pub faults: FaultConfig,
    pub procs: u16,
    pub events: Vec<TraceEvent>,
    pub failure: String,
}

impl ChaosWitness {
    /// Program accesses in the minimal trace (loads + stores +
    /// read-exclusives; `Busy`/`SetComponent` bookkeeping excluded).
    pub fn accesses(&self) -> usize {
        access_count(&self.events)
    }

    /// Human-readable rendering: the fault plan plus one line per event.
    pub fn render(&self) -> String {
        let mut s = format!(
            "minimal witness: {} under {:?}, {} access(es)\nfault plan: nack {} delay {} drop {} dup {} reorder {} (per mille), seed {:#x}\nfailure: {}\n",
            self.workload,
            self.protocol,
            self.accesses(),
            self.faults.nack_per_mille,
            self.faults.delay_per_mille,
            self.faults.drop_per_mille,
            self.faults.dup_per_mille,
            self.faults.reorder_per_mille,
            self.faults.seed,
            self.failure
        );
        for e in &self.events {
            s.push_str(&format!("  P{} {:?}\n", e.proc, e.op));
        }
        s
    }
}

/// The whole sweep's result.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    pub cells: Vec<ChaosCell>,
    /// Minimal witness of the first failing cell (when `shrink` was set).
    pub witness: Option<ChaosWitness>,
}

impl ChaosOutcome {
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| c.failure.is_some()).count()
    }

    pub fn is_clean(&self) -> bool {
        self.failures() == 0
    }

    /// Flatten into the serializable [`ChaosSummary`].
    pub fn summary(&self) -> ChaosSummary {
        ChaosSummary {
            cells: self.cells.len() as u64,
            failures: self.failures() as u64,
            sc_checked: self.cells.iter().filter(|c| c.sc_checked).count() as u64,
            retransmits: self.cells.iter().map(|c| c.retransmits).sum(),
            nacks: self.cells.iter().map(|c| c.nacks).sum(),
            witness_accesses: self.witness.as_ref().map_or(0, |w| w.accesses() as u64),
            witness_protocol: self
                .witness
                .as_ref()
                .map_or(String::new(), |w| format!("{:?}", w.protocol)),
            witness_failure: self
                .witness
                .as_ref()
                .map_or(String::new(), |w| w.failure.clone()),
        }
    }
}

fn access_count(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.op,
                TraceOp::Load(_) | TraceOp::Store(..) | TraceOp::LoadExclusive(_)
            )
        })
        .count()
}

/// Attach the configured transport mutation to a fault plan. Errors when a
/// mutation is requested without the `testing` feature — release builds
/// cannot run a broken transport.
fn apply_mutation(
    plan: FaultConfig,
    mutation: Option<ccsim_types::TransportMutation>,
) -> Result<FaultConfig, String> {
    match mutation {
        None => Ok(plan),
        Some(_m) => {
            #[cfg(feature = "testing")]
            {
                Ok(plan.with_transport_mutation(_m))
            }
            #[cfg(not(feature = "testing"))]
            Err(format!(
                "transport mutation {} requires the `testing` cargo feature",
                _m.label()
            ))
        }
    }
}

/// First statistic group where a faulty replay diverged from the
/// fault-free run, or `None` when the result-identity theorem held.
/// Latency-side counters (cycles, traffic, retransmits, NACK backoff) are
/// deliberately not compared — transport recovery legitimately spends
/// cycles and messages; it must never change *results*.
fn stats_divergence(base: &RunStats, faulty: &RunStats) -> Option<&'static str> {
    if faulty.oracle != base.oracle {
        return Some("oracle classification");
    }
    if faulty.dir != base.dir {
        return Some("directory event counts");
    }
    if faulty.false_sharing != base.false_sharing {
        return Some("false/true sharing split");
    }
    let hits = |s: &RunStats| {
        (
            s.machine.l1_hits,
            s.machine.l2_hits,
            s.machine.silent_stores,
            s.machine.dirty_hits,
        )
    };
    if hits(faulty) != hits(base) {
        return Some("cache hit counters");
    }
    None
}

/// RAII guard that silences the global panic hook. A broken transport can
/// drive the engine into debug asserts (e.g. the directory front-end's
/// same-owner check) — the sweep *counts* those as failures via
/// `catch_unwind`, and without this guard every ddmin probe would print a
/// full panic banner to stderr.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct QuietPanics(Option<PanicHook>);

impl QuietPanics {
    fn install() -> QuietPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics(Some(prev))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            std::panic::set_hook(h);
        }
    }
}

/// Replay `trace` fault-free and through `faults`, returning the faulty
/// stats and the first divergence (if any). The fault-free replay must be
/// clean for the comparison to be meaningful; a dirty base is reported as
/// its own failure class (it would indicate an engine bug, not a transport
/// one). An engine *panic* during a faulty replay — a mutated transport
/// can corrupt the directory badly enough to trip front-end asserts before
/// the invariant checker sees the divergence — is itself a conviction, so
/// it is caught and reported rather than propagated.
fn diverges(
    cfg: MachineConfig,
    faults: FaultConfig,
    trace: &Trace,
    check_sc: bool,
) -> (RunStats, Option<String>) {
    let (base, base_report) = replay_checked(cfg, trace, &[], InvariantMode::Check);
    if !base_report.is_clean() {
        let v = &base_report.violations()[0];
        return (base, Some(format!("fault-free replay is dirty: {v}")));
    }
    let fcfg = cfg.with_faults(faults);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        replay_checked(fcfg, trace, &[], InvariantMode::Check)
    }));
    let (faulty, report) = match caught {
        Ok(r) => r,
        Err(payload) => {
            let msg = crate::jobset::panic_detail(payload);
            return (base, Some(format!("engine panic: {msg}")));
        }
    };
    if !report.is_clean() {
        let v = &report.violations()[0];
        return (faulty, Some(format!("invariant violation: {v}")));
    }
    if let Some(group) = stats_divergence(&base, &faulty) {
        return (
            faulty,
            Some(format!("result divergence from fault-free run: {group}")),
        );
    }
    if check_sc {
        let (_, base_log) = replay_events(cfg, trace, &[]);
        let (_, faulty_log) = replay_events(fcfg, trace, &[]);
        let b = check(&cfg.protocol, &base_log);
        let f = check(&fcfg.protocol, &faulty_log);
        if !f.is_clean() {
            return (faulty, Some("faulty run is not SC-conformant".to_string()));
        }
        if f.sc_fingerprint != b.sc_fingerprint {
            return (
                faulty,
                Some("SC witness fingerprint diverged from fault-free run".to_string()),
            );
        }
    }
    (faulty, None)
}

/// ddmin (complement-reduction variant) over the trace events: repeatedly
/// drop chunks whose removal keeps the failure reproducible, refining the
/// chunk size until the trace is 1-minimal with respect to chunk removal.
/// Deterministic: candidates are tried in a fixed order.
fn ddmin(events: &[TraceEvent], fails: &dyn Fn(&[TraceEvent]) -> bool) -> Vec<TraceEvent> {
    let mut cur = events.to_vec();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - start));
            cand.extend_from_slice(&cur[..start]);
            cand.extend_from_slice(&cur[end..]);
            if !cand.is_empty() && fails(&cand) {
                cur = cand;
                n = 2.max(n - 1);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= cur.len() {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

/// Shrink a failing cell: ddmin the trace, then zero every fault rate the
/// minimal trace does not need to reproduce the failure.
fn shrink_failure(
    cfg: MachineConfig,
    faults: FaultConfig,
    trace: &Trace,
    check_sc: bool,
    workload: &str,
) -> ChaosWitness {
    let _quiet = QuietPanics::install();
    let procs = trace.procs();
    let failing = |plan: FaultConfig, events: &[TraceEvent]| -> bool {
        match Trace::from_events(procs, events.to_vec()) {
            Ok(t) => diverges(cfg, plan, &t, check_sc).1.is_some(),
            Err(_) => false,
        }
    };
    let minimal = ddmin(trace.events(), &|ev| failing(faults, ev));

    let mut plan = faults;
    let zeroed: [fn(&mut FaultConfig); 5] = [
        |f| f.nack_per_mille = 0,
        |f| f.delay_per_mille = 0,
        |f| f.drop_per_mille = 0,
        |f| f.dup_per_mille = 0,
        |f| f.reorder_per_mille = 0,
    ];
    for zero in zeroed {
        let mut cand = plan;
        zero(&mut cand);
        if failing(cand, &minimal) {
            plan = cand;
        }
    }

    let failure = match Trace::from_events(procs, minimal.clone()) {
        Ok(t) => diverges(cfg, plan, &t, check_sc)
            .1
            .unwrap_or_else(|| "failure did not reproduce on the minimal trace".to_string()),
        Err(e) => format!("minimal trace failed to rebuild: {e:?}"),
    };
    ChaosWitness {
        workload: workload.to_string(),
        protocol: cfg.protocol.kind,
        faults: plan,
        procs,
        events: minimal,
        failure,
    }
}

/// Run the whole grid. Captures each `(spec, protocol)` base trace once
/// (fault-free, default quantum), then checks every `(rate, seed)` cell
/// against it. Each cell is a single-threaded replay, so cells fan across
/// the [`default_workers`] budget (`CCSIM_JOBS` overrides it); results come
/// back in grid order, so every result is independent of the worker count.
pub fn sweep(cc: &ChaosConfig) -> Result<ChaosOutcome, String> {
    // Pre-flight the mutation gate so a misconfigured release build fails
    // before burning capture time.
    apply_mutation(FaultConfig::default(), cc.mutation)?;
    let _quiet = QuietPanics::install();

    // One capture per (spec, protocol); cells replay these traces, which
    // pins the interleaving — faults can only move latencies.
    let mut bases: Vec<(String, MachineConfig, Trace)> = Vec::new();
    for spec in &cc.specs {
        for &kind in &cc.protocols {
            let cfg = MachineConfig::splash_baseline(kind);
            let (_, trace) = capture_spec(cfg, spec);
            bases.push((spec.name().to_string(), cfg, trace));
        }
    }

    // The flat cell grid, in deterministic order.
    let mut grid: Vec<(usize, u16, u64)> = Vec::new();
    for base_idx in 0..bases.len() {
        for &rate in &cc.rates {
            for &seed in &cc.seeds {
                grid.push((base_idx, rate, seed));
            }
        }
    }

    let run_cell = |i: usize| -> Result<ChaosCell, String> {
        let (base_idx, rate, seed) = grid[i];
        let (workload, cfg, trace) = &bases[base_idx];
        let plan = apply_mutation(chaos_plan(rate, seed), cc.mutation)?;
        let (fstats, failure) = diverges(*cfg, plan, trace, cc.check_sc);
        Ok(ChaosCell {
            workload: workload.clone(),
            protocol: cfg.protocol.kind,
            rate_per_mille: rate,
            seed,
            accesses: access_count(trace.events()) as u64,
            retransmits: fstats.machine.retransmits,
            nacks: fstats.machine.nacks,
            sc_checked: cc.check_sc,
            failure,
        })
    };

    let cells = ccsim_util::pool::run_indexed(default_workers(1), grid.len(), run_cell)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    let witness = if cc.shrink {
        match cells.iter().position(|c| c.failure.is_some()) {
            Some(i) => {
                let (base_idx, rate, seed) = grid[i];
                let (workload, cfg, trace) = &bases[base_idx];
                let plan = apply_mutation(chaos_plan(rate, seed), cc.mutation)?;
                Some(shrink_failure(*cfg, plan, trace, cc.check_sc, workload))
            }
            None => None,
        }
    } else {
        None
    };

    Ok(ChaosOutcome { cells, witness })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::Addr;

    /// A migratory two-block ping-pong across four processors — the access
    /// pattern that maximizes ownership hand-offs and therefore transport
    /// traffic. Small enough to shrink fast in tests.
    fn migratory_trace(rounds: u64) -> Trace {
        let (a, b) = (Addr(0x100), Addr(4096 + 0x100));
        let mut events = Vec::new();
        for i in 0..rounds {
            let p = (i % 4) as u16;
            events.push(TraceEvent {
                proc: p,
                op: TraceOp::Load(a),
            });
            events.push(TraceEvent {
                proc: p,
                op: TraceOp::Store(a, i),
            });
            events.push(TraceEvent {
                proc: p,
                op: TraceOp::Load(b),
            });
            events.push(TraceEvent {
                proc: p,
                op: TraceOp::Store(b, i),
            });
        }
        // ccsim-lint: allow(unwrap): hand-built trace is well-formed
        Trace::from_events(4, events).unwrap()
    }

    fn seq_cfg(kind: ProtocolKind) -> MachineConfig {
        let mut cfg = MachineConfig::splash_baseline(kind);
        cfg.schedule_quantum = SEQUENTIAL_QUANTUM;
        cfg
    }

    #[test]
    fn chaos_plan_at_rate_60_is_the_reference_plan() {
        let p = chaos_plan(60, 7);
        assert_eq!(
            (
                p.nack_per_mille,
                p.delay_per_mille,
                p.drop_per_mille,
                p.dup_per_mille,
                p.reorder_per_mille
            ),
            (40, 30, 60, 50, 40)
        );
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn a_faulty_migratory_replay_matches_its_fault_free_run() {
        for kind in [ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls] {
            let trace = migratory_trace(40);
            let (_, failure) = diverges(seq_cfg(kind), chaos_plan(60, 0xFA17), &trace, false);
            assert_eq!(failure, None, "{kind:?}");
        }
    }

    #[test]
    fn ddmin_reaches_a_small_subset() {
        // Synthetic predicate: fails whenever events 3 and 11 are both
        // present. ddmin must isolate exactly those two.
        let events: Vec<TraceEvent> = (0..32)
            .map(|i| TraceEvent {
                proc: 0,
                op: TraceOp::Busy(i),
            })
            .collect();
        let fails = |ev: &[TraceEvent]| {
            let has = |k: u64| {
                ev.iter()
                    .any(|e| matches!(e.op, TraceOp::Busy(x) if x == k))
            };
            has(3) && has(11)
        };
        let min = ddmin(&events, &fails);
        assert_eq!(min.len(), 2);
        assert!(fails(&min));
    }

    #[cfg(feature = "testing")]
    #[test]
    fn skip_dedup_is_convicted_and_shrunk_to_a_small_witness() {
        use ccsim_types::TransportMutation;
        let cfg = seq_cfg(ProtocolKind::Baseline);
        let trace = migratory_trace(40);
        let plan = chaos_plan(600, 0xD0D0).with_transport_mutation(TransportMutation::SkipDedup);
        let (_, failure) = diverges(cfg, plan, &trace, false);
        let failure = failure.expect("skip-dedup must be observable under a dup-heavy plan");
        assert!(failure.contains("invariant violation") || failure.contains("divergence"));

        let witness = shrink_failure(cfg, plan, &trace, false, "migratory");
        assert!(
            witness.accesses() <= 16,
            "witness has {} accesses:\n{}",
            witness.accesses(),
            witness.render()
        );
        assert!(!witness.failure.is_empty());
        // The duplicate rate must survive plan reduction — it is the fault
        // class the mutation leaks.
        assert!(witness.faults.dup_per_mille > 0);
    }
}
