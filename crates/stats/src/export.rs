//! Machine-readable export of run statistics (JSON), consumed by the
//! reproduction harness to assemble EXPERIMENTS.md.

use ccsim_engine::{Component, RunStats};
use ccsim_types::MsgClass;
use ccsim_util::{json_record, FromJson};

/// Flat, serializable summary of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    pub protocol: String,
    pub nodes: u16,
    pub block_bytes: u64,
    pub exec_cycles: u64,
    pub busy: u64,
    pub read_stall: u64,
    pub write_stall: u64,
    pub traffic_read_bytes: u64,
    pub traffic_write_bytes: u64,
    pub traffic_other_bytes: u64,
    pub traffic_messages: u64,
    pub global_reads: u64,
    pub read_class: [u64; 4],
    pub upgrades: u64,
    pub write_misses: u64,
    pub invalidations: u64,
    pub invalidations_per_shared_write: f64,
    pub exclusive_grants: u64,
    pub silent_stores: u64,
    pub retries: u64,
    /// Oracle: [global_writes, ls_writes, migratory_writes] per component
    /// App/Lib/Os and total.
    pub oracle_app: [u64; 3],
    pub oracle_lib: [u64; 3],
    pub oracle_os: [u64; 3],
    pub ls_fraction: f64,
    pub migratory_fraction: f64,
    pub ls_coverage: f64,
    pub migratory_coverage: f64,
    pub false_sharing_fraction: f64,
}

json_record!(RunSummary {
    protocol,
    nodes,
    block_bytes,
    exec_cycles,
    busy,
    read_stall,
    write_stall,
    traffic_read_bytes,
    traffic_write_bytes,
    traffic_other_bytes,
    traffic_messages,
    global_reads,
    read_class,
    upgrades,
    write_misses,
    invalidations,
    invalidations_per_shared_write,
    exclusive_grants,
    silent_stores,
    retries,
    oracle_app,
    oracle_lib,
    oracle_os,
    ls_fraction,
    migratory_fraction,
    ls_coverage,
    migratory_coverage,
    false_sharing_fraction
});

impl RunSummary {
    pub fn from_stats(r: &RunStats) -> Self {
        let comp = |c: Component| {
            let k = r.oracle.component(c);
            [k.global_writes, k.ls_writes, k.migratory_writes]
        };
        RunSummary {
            protocol: r.protocol.label().to_string(),
            nodes: r.config.nodes,
            block_bytes: r.config.block_bytes(),
            exec_cycles: r.exec_cycles,
            busy: r.busy(),
            read_stall: r.read_stall(),
            write_stall: r.write_stall(),
            traffic_read_bytes: r.traffic.class(MsgClass::Read).bytes,
            traffic_write_bytes: r.traffic.class(MsgClass::Write).bytes,
            traffic_other_bytes: r.traffic.class(MsgClass::Other).bytes,
            traffic_messages: r.traffic.total_messages(),
            global_reads: r.dir.global_reads,
            read_class: r.dir.read_class,
            upgrades: r.dir.upgrades,
            write_misses: r.dir.write_misses,
            invalidations: r.dir.invalidations_requested,
            invalidations_per_shared_write: r.invalidations_per_shared_write(),
            exclusive_grants: r.dir.exclusive_grants,
            silent_stores: r.machine.silent_stores,
            retries: r.machine.retries,
            oracle_app: comp(Component::App),
            oracle_lib: comp(Component::Lib),
            oracle_os: comp(Component::Os),
            ls_fraction: r.oracle.ls_fraction(None),
            migratory_fraction: r.oracle.migratory_fraction(None),
            ls_coverage: r.oracle.ls_coverage(),
            migratory_coverage: r.oracle.migratory_coverage(),
            false_sharing_fraction: r.false_sharing.false_fraction(),
        }
    }
}

/// Flat, serializable summary of one bounded model-checking run
/// (`ccsim-model`), exported through the same canonical-JSON path as
/// [`RunSummary`] so state-space metrics land next to performance metrics
/// in the harness's artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelCheckSummary {
    pub protocol: String,
    pub nodes: u16,
    pub blocks: u8,
    pub max_ops: u8,
    /// Unique states visited.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Successors already in the visited set.
    pub dedup_hits: u64,
    /// Peak BFS frontier size.
    pub max_frontier: u64,
    /// Deepest state reached.
    pub max_depth: u32,
    pub wall_ms: u64,
    /// Order-independent fingerprint of the visited state set (XOR of
    /// fnv1a64 over canonical encodings) — equal state spaces compare
    /// equal across runs and machines.
    pub state_fingerprint: u64,
    /// Empty = exploration clean; otherwise the violation description.
    pub violation: String,
}

json_record!(ModelCheckSummary {
    protocol,
    nodes,
    blocks,
    max_ops,
    states,
    transitions,
    dedup_hits,
    max_frontier,
    max_depth,
    wall_ms,
    state_fingerprint,
    violation
});

/// Flat, serializable summary of one parametric verification run
/// (`ccsim verify`): abstract reachability over the counter-abstraction
/// lattice, plus the refinement verdict when an abstract counterexample
/// was found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifySummary {
    pub protocol: String,
    /// Unique abstract states reached.
    pub abstract_states: u64,
    /// Concrete probe transitions executed across all materializations.
    pub transitions: u64,
    /// Transitions that first saturated a sharer counter to ω.
    pub widenings: u64,
    /// Deepest abstract state reached.
    pub max_depth: u32,
    pub wall_ms: u64,
    /// Order-independent fingerprint of the abstract reachable set.
    pub fingerprint: u64,
    /// True when the fixpoint was reached with zero violations — a proof
    /// for every node count, not just the bounded configurations.
    pub parametric: bool,
    /// Empty = clean; otherwise the abstract violation description.
    pub violation: String,
    /// Refinement verdict: "" (clean run), "genuine", or "spurious".
    pub refinement: String,
    /// Node count at which the counterexample concretized (0 if none).
    pub concretized_nodes: u16,
    /// Runtime invariant violations reported by the engine replay of the
    /// concretized counterexample (0 if none was replayed).
    pub engine_violations: u64,
}

json_record!(VerifySummary {
    protocol,
    abstract_states,
    transitions,
    widenings,
    max_depth,
    wall_ms,
    fingerprint,
    parametric,
    violation,
    refinement,
    concretized_nodes,
    engine_violations
});

/// Flat, serializable output of the static trace analyzer (`ccsim analyze`,
/// [`crate::analysis`]). Pairs the paper-taxonomy block classification
/// (computed on an idealized infinite-cache stream pass) with the exact
/// counters of the engine's replay of the same trace, which equal the
/// capturing run's on quantum-deterministic runs.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisSummary {
    pub protocol: String,
    pub nodes: u16,
    pub block_bytes: u64,
    /// Total trace events (including Busy/SetComponent bookkeeping).
    pub events: u64,
    /// Memory accesses analyzed (loads + stores + load-exclusives).
    pub accesses: u64,
    /// Distinct blocks touched.
    pub blocks: u64,
    // Paper-taxonomy sharing-pattern labels. private/read_shared/
    // producer_consumer/load_store/irregular partition the touched blocks;
    // migratory is a strict subset of load_store, and the false-sharing
    // candidate label is orthogonal to all of them.
    pub private_blocks: u64,
    pub read_shared_blocks: u64,
    pub producer_consumer_blocks: u64,
    pub load_store_blocks: u64,
    /// Strict subset of `load_store_blocks`: LS blocks whose sequences
    /// migrate between processors.
    pub migratory_blocks: u64,
    pub irregular_blocks: u64,
    /// Orthogonal label: multi-node blocks whose per-node word footprints
    /// never overlap (candidates for false sharing at this block size).
    pub false_sharing_candidates: u64,
    // Idealized (infinite-cache) action counts from the stream pass.
    pub ideal_global_reads: u64,
    pub ideal_global_writes: u64,
    pub ideal_ls_writes: u64,
    pub ideal_migratory_writes: u64,
    // Engine replay of the trace (exact match with the capturing run).
    pub global_reads: u64,
    pub global_writes: u64,
    pub ls_writes: u64,
    pub migratory_writes: u64,
    pub eliminated: u64,
    pub eliminated_ls: u64,
    pub eliminated_migratory: u64,
    pub silent_stores: u64,
    /// Static upper bound on the ownership transactions the LS protocol can
    /// eliminate for this trace and geometry: every load-store-sequence
    /// write's acquisition is eliminable in the limit, so this is
    /// `ls_writes`; the engine's `eliminated_ls` never exceeds it.
    pub ls_upper_bound: u64,
    pub false_sharing_fraction: f64,
}

json_record!(AnalysisSummary {
    protocol,
    nodes,
    block_bytes,
    events,
    accesses,
    blocks,
    private_blocks,
    read_shared_blocks,
    producer_consumer_blocks,
    load_store_blocks,
    migratory_blocks,
    irregular_blocks,
    false_sharing_candidates,
    ideal_global_reads,
    ideal_global_writes,
    ideal_ls_writes,
    ideal_migratory_writes,
    global_reads,
    global_writes,
    ls_writes,
    migratory_writes,
    eliminated,
    eliminated_ls,
    eliminated_migratory,
    silent_stores,
    ls_upper_bound,
    false_sharing_fraction
});

/// Flat, serializable summary of one SC-conformance analysis (`ccsim race`,
/// `ccsim-race`). Counts describe the size of the checked problem (so a
/// "clean" verdict is auditable: zero checked grants would also be clean);
/// the fingerprint pins the sequential witness for determinism comparisons.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceSummary {
    pub protocol: String,
    pub nodes: u16,
    /// Events in the analyzed log (including `Init` seeds).
    pub events: u64,
    /// Program accesses (reads + read-exclusives + writes).
    pub accesses: u64,
    pub reads: u64,
    pub writes: u64,
    /// Distinct coherence blocks replayed by the shadow pass.
    pub blocks: u64,
    /// Distinct words tracked by the happens-before pass.
    pub words: u64,
    // Happens-before graph size, by edge origin.
    pub po_edges: u64,
    pub rf_edges: u64,
    pub co_edges: u64,
    pub fr_edges: u64,
    pub ack_edges: u64,
    // How much the shadow replay actually verified.
    pub excl_grants_checked: u64,
    pub notls_checked: u64,
    pub ls_writes_checked: u64,
    /// True when the happens-before graph is acyclic and a total sequential
    /// order was exhibited.
    pub sc_witness: bool,
    /// fnv1a64 fingerprint of the witness order (0 when `sc_witness` is
    /// false). Bit-exact across runs on deterministic workloads.
    pub sc_order_fingerprint: u64,
    /// Distinct violations reported (post-dedup).
    pub violations: u64,
    /// Further violations suppressed by the per-kind/per-location cap.
    pub suppressed: u64,
    /// Empty = conformant; otherwise the first violation, rendered.
    pub first_violation: String,
}

json_record!(RaceSummary {
    protocol,
    nodes,
    events,
    accesses,
    reads,
    writes,
    blocks,
    words,
    po_edges,
    rf_edges,
    co_edges,
    fr_edges,
    ack_edges,
    excl_grants_checked,
    notls_checked,
    ls_writes_checked,
    sc_witness,
    sc_order_fingerprint,
    violations,
    suppressed,
    first_violation
});

impl RaceSummary {
    pub fn from_report(protocol: &str, nodes: u16, r: &ccsim_race::RaceReport) -> Self {
        let c = &r.counts;
        RaceSummary {
            protocol: protocol.to_string(),
            nodes,
            events: c.events,
            accesses: c.accesses,
            reads: c.reads,
            writes: c.writes,
            blocks: c.blocks,
            words: c.words,
            po_edges: c.po_edges,
            rf_edges: c.rf_edges,
            co_edges: c.co_edges,
            fr_edges: c.fr_edges,
            ack_edges: c.ack_edges,
            excl_grants_checked: c.excl_grants_checked,
            notls_checked: c.notls_checked,
            ls_writes_checked: c.ls_writes_checked,
            sc_witness: r.sc_fingerprint.is_some(),
            sc_order_fingerprint: r.sc_fingerprint.unwrap_or(0),
            violations: r.violations.len() as u64,
            suppressed: r.suppressed,
            first_violation: r
                .first_violation()
                .map(|v| format!("{}: {}", v.kind.label(), v.detail))
                .unwrap_or_default(),
        }
    }
}

/// Flat, serializable summary of one chaos sweep (`ccsim chaos`,
/// `ccsim-harness::chaos`). The counts make a "clean" verdict auditable: a
/// sweep with zero cells — or zero retransmits, meaning the fault injector
/// never fired — proves nothing, and the consumer can see that.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Grid cells checked (workloads × protocols × rates × seeds).
    pub cells: u64,
    /// Cells that diverged from their fault-free run.
    pub failures: u64,
    /// Cells that were additionally cross-checked by the SC-conformance
    /// analyzer (witness fingerprint equality with the fault-free run).
    pub sc_checked: u64,
    /// Total transport retransmissions across all faulty replays — proof
    /// the interconnect actually dropped and duplicated messages.
    pub retransmits: u64,
    /// Total NACK-and-retry recoveries across all faulty replays.
    pub nacks: u64,
    /// Program accesses in the shrunken minimal witness (0 = no witness,
    /// i.e. the sweep was clean or shrinking was disabled).
    pub witness_accesses: u64,
    /// Protocol of the witness cell (empty when no witness).
    pub witness_protocol: String,
    /// First divergence of the witness cell, rendered (empty when none).
    pub witness_failure: String,
}

json_record!(ChaosSummary {
    cells,
    failures,
    sc_checked,
    retransmits,
    nacks,
    witness_accesses,
    witness_protocol,
    witness_failure
});

/// Schema tag stamped into every [`ServeSummary`] document.
pub const SERVE_SCHEMA: &str = "ccsim-serve-v1";

/// Latency percentiles of one transaction class in one serve run. All
/// values are simulated cycles from log-bucketed integer histograms —
/// deterministic and exactly reproducible, never wall-clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeClassLatency {
    /// Class label: `point_read` / `rmw` / `scan` / `append`.
    pub class: String,
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

json_record!(ServeClassLatency {
    class,
    count,
    p50,
    p90,
    p99,
    max
});

/// One protocol's row in a serve comparison: service-level numbers (stop
/// reason, throughput, queue behaviour, per-class latency) next to the
/// coherence-level numbers the paper cares about (ownership acquisitions,
/// invalidations, write stall) so the overhead→latency link is in one
/// record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeRow {
    pub protocol: String,
    /// Ward that ended the run: `converged` / `max-cycles` /
    /// `queue-divergence`.
    pub stop: String,
    pub cycles: u64,
    pub admitted: u64,
    pub completed: u64,
    pub dropped: u64,
    pub throughput_per_mcycle: u64,
    pub max_queue_depth: u64,
    pub hot_row_conflicts: u64,
    pub ownership_acquisitions: u64,
    pub invalidations: u64,
    pub write_stall: u64,
    pub traffic_bytes: u64,
    pub classes: Vec<ServeClassLatency>,
}

json_record!(ServeRow {
    protocol,
    stop,
    cycles,
    admitted,
    completed,
    dropped,
    throughput_per_mcycle,
    max_queue_depth,
    hot_row_conflicts,
    ownership_acquisitions,
    invalidations,
    write_stall,
    traffic_bytes,
    classes
});

/// Flat, serializable summary of one serve sweep (`ccsim serve`,
/// `ccsim-serve`): the offered-load configuration echoed back (so the
/// document is self-describing) plus one [`ServeRow`] per protocol. The
/// whole document is a pure function of `(machine, serve config)` — the
/// determinism suite pins its bytes across reruns and thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeSummary {
    /// Always [`SERVE_SCHEMA`]; parsing rejects anything else.
    pub schema: String,
    pub nodes: u16,
    pub clients: u64,
    pub skew_per_mille: u32,
    pub rate_per_mcycle: u64,
    /// Per-mille class mix, [`ServeClassLatency::class`] label order.
    pub mix_per_mille: [u16; 4],
    pub seed: u64,
    pub rows: Vec<ServeRow>,
}

json_record!(ServeSummary {
    schema,
    nodes,
    clients,
    skew_per_mille,
    rate_per_mcycle,
    mix_per_mille,
    seed,
    rows
});

impl ServeSummary {
    /// Parse a summary document, rejecting any schema tag other than
    /// [`SERVE_SCHEMA`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let s = ServeSummary::from_text(text)?;
        if s.schema != SERVE_SCHEMA {
            return Err(format!(
                "serve: unknown schema {:?} (expected {SERVE_SCHEMA:?})",
                s.schema
            ));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_engine::SimBuilder;
    use ccsim_types::{MachineConfig, ProtocolKind};
    use ccsim_util::ToJson;

    fn toy_run() -> RunStats {
        let mut b = SimBuilder::new(MachineConfig::splash_baseline(ProtocolKind::Ls));
        let a = b.alloc().alloc_words(1);
        b.spawn(move |p| {
            let v = p.load(a);
            p.store(a, v + 1);
        });
        b.run()
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = RunSummary::from_stats(&toy_run());
        let json = s.to_json().pretty();
        let back = RunSummary::from_text(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.protocol, "LS");
        assert_eq!(back.nodes, 4);
    }

    #[test]
    fn model_check_summary_round_trips_through_json() {
        let s = ModelCheckSummary {
            protocol: "LS".into(),
            nodes: 3,
            blocks: 1,
            max_ops: 4,
            states: 1234,
            transitions: 5678,
            dedup_hits: 42,
            max_frontier: 99,
            max_depth: 12,
            wall_ms: 7,
            // Bit-exactness of the u64 fingerprint matters: Json keeps a
            // dedicated U64 variant, so no f64 round-trip loss.
            state_fingerprint: u64::MAX - 1,
            violation: String::new(),
        };
        let back = ModelCheckSummary::from_text(&s.to_json().pretty()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.state_fingerprint, u64::MAX - 1);
    }

    #[test]
    fn chaos_summary_round_trips_through_json() {
        let s = ChaosSummary {
            cells: 27,
            failures: 1,
            sc_checked: 27,
            retransmits: 4242,
            nacks: 199,
            witness_accesses: 9,
            witness_protocol: "Baseline".into(),
            witness_failure: "invariant violation: SWMR".into(),
        };
        let back = ChaosSummary::from_text(&s.to_json().pretty()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.witness_accesses, 9);
    }

    #[test]
    fn analysis_summary_round_trips_through_json() {
        let s = AnalysisSummary {
            protocol: "LS".into(),
            nodes: 4,
            block_bytes: 64,
            events: 100,
            accesses: 80,
            blocks: 7,
            private_blocks: 2,
            read_shared_blocks: 1,
            producer_consumer_blocks: 1,
            load_store_blocks: 2,
            migratory_blocks: 1,
            irregular_blocks: 1,
            false_sharing_candidates: 1,
            ideal_global_reads: 10,
            ideal_global_writes: 9,
            ideal_ls_writes: 8,
            ideal_migratory_writes: 3,
            global_reads: 12,
            global_writes: 11,
            ls_writes: 9,
            migratory_writes: 4,
            eliminated: 5,
            eliminated_ls: 5,
            eliminated_migratory: 2,
            silent_stores: 5,
            ls_upper_bound: 9,
            false_sharing_fraction: 0.25,
        };
        let back = AnalysisSummary::from_text(&s.to_json().pretty()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn race_summary_round_trips_through_json() {
        let s = RaceSummary {
            protocol: "LS".into(),
            nodes: 4,
            events: 1000,
            accesses: 800,
            reads: 500,
            writes: 300,
            blocks: 40,
            words: 120,
            po_edges: 999,
            rf_edges: 500,
            co_edges: 260,
            fr_edges: 17,
            ack_edges: 123,
            excl_grants_checked: 21,
            notls_checked: 4,
            ls_writes_checked: 300,
            sc_witness: true,
            // Bit-exactness of the u64 fingerprint matters: Json keeps a
            // dedicated U64 variant, so no f64 round-trip loss.
            sc_order_fingerprint: u64::MAX - 3,
            violations: 0,
            suppressed: 0,
            first_violation: String::new(),
        };
        let back = RaceSummary::from_text(&s.to_json().pretty()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.sc_order_fingerprint, u64::MAX - 3);
    }

    #[test]
    fn race_summary_from_report_matches_the_analysis() {
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let mut b = SimBuilder::new(cfg);
        b.capture_events();
        let a = b.alloc().alloc_words(1);
        b.spawn(move |p| {
            let v = p.load(a);
            p.store(a, v + 1);
        });
        let mut done = b.run_full();
        let log = done.take_event_log().unwrap();
        let report = ccsim_race::check(&cfg.protocol, &log);
        let s = RaceSummary::from_report(cfg.protocol.kind.label(), cfg.nodes, &report);
        assert_eq!(s.events, report.counts.events);
        assert!(s.sc_witness, "clean toy run must have an SC witness");
        assert_eq!(s.sc_order_fingerprint, report.sc_fingerprint.unwrap());
        assert!(s.first_violation.is_empty());
    }

    #[test]
    fn serve_summary_round_trips_and_pins_its_schema() {
        let class = |name: &str, p99: u64| ServeClassLatency {
            class: name.into(),
            count: 1000,
            p50: p99 / 4,
            p90: p99 / 2,
            p99,
            max: p99 + 17,
        };
        let s = ServeSummary {
            schema: SERVE_SCHEMA.into(),
            nodes: 8,
            clients: 2_000_000,
            skew_per_mille: 990,
            rate_per_mcycle: 1600,
            mix_per_mille: [450, 300, 150, 100],
            seed: u64::MAX - 7,
            rows: vec![ServeRow {
                protocol: "LS".into(),
                stop: "converged".into(),
                cycles: 12_345_678,
                admitted: 20_000,
                completed: 19_900,
                dropped: 100,
                throughput_per_mcycle: 1612,
                max_queue_depth: 31,
                hot_row_conflicts: 420,
                ownership_acquisitions: 9_999,
                invalidations: 1_234,
                write_stall: 777_777,
                traffic_bytes: 88_888_888,
                classes: vec![class("point_read", 4_000), class("rmw", 9_000)],
            }],
        };
        let back = ServeSummary::parse(&s.to_json().pretty()).unwrap();
        assert_eq!(s, back);
        // u64 bit-exactness through the dedicated U64 Json variant.
        assert_eq!(back.seed, u64::MAX - 7);
        // A wrong schema tag is rejected, not silently accepted.
        let mut other = s.clone();
        other.schema = "ccsim-serve-v0".into();
        let err = ServeSummary::parse(&other.to_json().pretty()).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn summary_is_consistent_with_stats() {
        let r = toy_run();
        let s = RunSummary::from_stats(&r);
        assert_eq!(s.exec_cycles, r.exec_cycles);
        assert_eq!(s.busy + s.read_stall + s.write_stall, r.total_cycles());
        assert_eq!(s.global_reads, 1);
        assert_eq!(s.oracle_app[0], 1, "one global write");
        assert_eq!(s.oracle_app[1], 1, "which was a load-store sequence");
    }
}
