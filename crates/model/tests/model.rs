//! Integration tests for the bounded model checker: exhaustive clean
//! explorations of the unmodified protocols, and mutation tests proving
//! the checker catches seeded protocol bugs with counterexamples that
//! replay to concrete engine-level invariant failures.

use ccsim_core::DirStats;
use ccsim_engine::InvariantMode;
use ccsim_model::{
    explore, replay_counterexample, summarize, verify, AbsState, ModelConfig, OpKind,
};
use ccsim_stats::ModelCheckSummary;
use ccsim_types::{ProtocolKind, RuleMutation, TransportMutation};
use ccsim_util::{check, FromJson, ToJson};

// --- Clean exhaustive explorations (the main verification result) ------

fn assert_clean(cfg: &ModelConfig) {
    let ex = explore(cfg).unwrap();
    assert!(
        ex.counterexample.is_none(),
        "{:?} n={} b={} ops={} violated:\n{}",
        cfg.kind,
        cfg.nodes,
        cfg.blocks,
        cfg.max_ops,
        ex.counterexample.unwrap()
    );
    assert!(ex.metrics.states > 100, "exploration was not exhaustive");
    assert!(
        ex.terminal_states > 0,
        "budget exhaustion must produce terminal states"
    );
    assert!(ex.metrics.dedup_hits > 0, "canonicalization never deduped");
}

#[test]
fn two_nodes_one_block_is_clean_for_all_protocols() {
    for kind in ProtocolKind::ALL {
        assert_clean(&ModelConfig::new(kind));
    }
}

#[test]
fn three_nodes_one_block_is_clean_for_all_protocols() {
    // ~15-24k states per protocol at a budget of 3 — exhaustive but still
    // fast in debug builds. The full budget-4 space (~60-93k states) is
    // covered by the ignored benchmark-cell pin test, which CI's
    // release-mode model-check step runs.
    for kind in ProtocolKind::ALL {
        assert_clean(&ModelConfig::new(kind).with_nodes(3).with_max_ops(3));
    }
}

#[test]
fn two_blocks_exercise_eviction_interleavings_cleanly() {
    // Two blocks map to distinct L1/L2 sets, so this exercises tag
    // survival across replacement (§3.1 case 3) under LS.
    assert_clean(&ModelConfig::new(ProtocolKind::Ls).with_blocks(2));
}

#[test]
#[ignore = "~190-310k states per protocol; run with --include-ignored (CI's release model-check step does)"]
fn four_nodes_one_block_is_clean_for_all_protocols() {
    for kind in ProtocolKind::ALL {
        assert_clean(&ModelConfig::new(kind).with_nodes(4).with_max_ops(3));
    }
}

// --- Pinned state spaces ------------------------------------------------
//
// The exact output of every exploration below, per protocol. Any change to
// the explorer's store, BFS order or transition relation that moves one of
// these numbers changes what the checker explored; a pure speedup must
// leave every literal in place.

/// `(states, transitions, dedup_hits, max_frontier, max_depth,
/// state_fingerprint, terminal_states)`, in `ProtocolKind::ALL` order.
type Pins = [(u64, u64, u64, u64, u32, u64, u64); 3];

fn assert_pinned(cfg: ModelConfig, pins: &Pins) {
    for (kind, &pin) in ProtocolKind::ALL.into_iter().zip(pins) {
        let ex = explore(&ModelConfig { kind, ..cfg }).unwrap();
        assert!(ex.counterexample.is_none(), "{kind:?} violated");
        let m = ex.metrics;
        let got = (
            m.states,
            m.transitions,
            m.dedup_hits,
            m.max_frontier,
            m.max_depth,
            m.state_fingerprint,
            ex.terminal_states,
        );
        assert_eq!(
            got, pin,
            "{kind:?} n={} b={} ops={} faults={}",
            cfg.nodes, cfg.blocks, cfg.max_ops, cfg.fault_budget
        );
    }
}

#[test]
fn small_state_spaces_are_pinned_exactly() {
    let base = ModelConfig::new(ProtocolKind::Baseline);
    assert_pinned(
        base,
        &[
            (3171, 13258, 10088, 873, 8, 0x6819dcd7e4b5e048, 472),
            (3913, 15886, 11974, 1100, 8, 0x52d81e0a8a648d5e, 654),
            (2801, 11220, 8420, 778, 8, 0xf24ab9d489f29a83, 472),
        ],
    );
    assert_pinned(
        base.with_nodes(3).with_max_ops(3),
        &[
            (19441, 110805, 91365, 5435, 9, 0xffc563814d571303, 1395),
            (23953, 133188, 109236, 6749, 9, 0xf3ba22bed5412061, 1896),
            (14902, 82833, 67932, 4072, 9, 0x9dd57dc9618e508d, 1224),
        ],
    );
    assert_pinned(
        base.with_fault_budget(2),
        &[
            (39355, 211402, 172048, 10741, 10, 0x7bb04675606e84ee, 3364),
            (51555, 271448, 219894, 14100, 10, 0x7f285f2bd16d5213, 4960),
            (45689, 237078, 191390, 12292, 10, 0x3c8063b965f4d2ec, 4412),
        ],
    );
}

#[test]
#[ignore = "~60-93k states per protocol; run with --include-ignored (CI's release model-check step does)"]
fn the_benchmark_state_space_is_pinned_exactly() {
    // The `model_check` benchmark's exploration cell.
    assert_pinned(
        ModelConfig::new(ProtocolKind::Baseline).with_nodes(3),
        &[
            (70738, 472464, 401727, 14897, 12, 0xc11fd1ed3ad6ae59, 2391),
            (92815, 608079, 515265, 19703, 12, 0x57f398f1eb701f86, 3513),
            (58924, 383184, 324261, 12638, 12, 0xd31945d80eab5f2a, 2322),
        ],
    );
}

#[test]
#[ignore = "~190-310k states per protocol; run with --include-ignored (CI's release model-check step does)"]
fn the_four_node_state_space_is_pinned_exactly() {
    assert_pinned(
        ModelConfig::new(ProtocolKind::Baseline)
            .with_nodes(4)
            .with_max_ops(3),
        &[
            (
                245981,
                1979056,
                1733076,
                55753,
                12,
                0xc6984a9aee0fdeac,
                5040,
            ),
            (
                308041,
                2435644,
                2127604,
                70804,
                12,
                0x94951eb8695548f0,
                6880,
            ),
            (
                188601,
                1495348,
                1306748,
                43728,
                12,
                0xfb99d22bf8c91895,
                4468,
            ),
        ],
    );
}

#[test]
fn parametric_proofs_are_pinned_exactly() {
    // `(states, transitions, fingerprint)` of `verify`, per protocol.
    let pins = [
        (25, 697, 0xfc5b172f82649a2a),
        (31, 796, 0x34bca629946fbeb0),
        (29, 798, 0x6acd7232e6378413),
    ];
    for (kind, pin) in ProtocolKind::ALL.into_iter().zip(pins) {
        let v = verify(&ModelConfig::new(kind)).unwrap();
        assert!(v.counterexample.is_none(), "{kind:?} violated");
        let m = v.metrics;
        assert_eq!((m.states, m.transitions, m.fingerprint), pin, "{kind:?}");
    }
}

#[test]
fn exploration_is_deterministic_and_summarizable() {
    let cfg = ModelConfig::new(ProtocolKind::Ls);
    let a = explore(&cfg).unwrap();
    let b = explore(&cfg).unwrap();
    assert_eq!(a.metrics.states, b.metrics.states);
    assert_eq!(a.metrics.transitions, b.metrics.transitions);
    assert_eq!(a.metrics.state_fingerprint, b.metrics.state_fingerprint);

    // The summary survives the canonical-JSON export path bit-exactly.
    let s = summarize(&a);
    let back = ModelCheckSummary::from_text(&s.to_json().pretty()).unwrap();
    assert_eq!(back, s);
    assert_eq!(back.state_fingerprint, a.metrics.state_fingerprint);
}

// --- The visited-set encoding ------------------------------------------

#[test]
fn decoding_inverts_encoding_along_random_walks() {
    // The explorer keeps visited states only as encodings, so every field
    // of every reachable state must survive the round trip. Decoding into
    // a scratch state that still holds the previous state of the walk also
    // proves decode overwrites every field.
    check::cases(200, |g| {
        let kind = *g.pick(&ProtocolKind::ALL);
        let cfg = ModelConfig::new(kind)
            .with_nodes(g.range(2, 5) as u16)
            .with_blocks(g.range(1, 3) as u8)
            .with_max_ops(g.range(1, 5) as u8)
            .with_fault_budget(g.range(0, 3) as u8);
        let pcfg = cfg.protocol().unwrap();
        let mut stats = DirStats::default();
        let mut state = AbsState::initial(&cfg, &pcfg);
        let mut scratch = state.clone();
        loop {
            let enc = state.encode();
            assert_eq!(enc.len(), AbsState::encoded_len(&cfg), "{cfg:?}");
            scratch.decode(&enc);
            assert_eq!(scratch, state, "{cfg:?}");
            let steps = state.enabled_steps(&cfg);
            if steps.is_empty() {
                break;
            }
            let step = *g.pick(&steps);
            let v = state.apply(&cfg, &pcfg, &mut stats, step);
            assert!(v.is_empty(), "{cfg:?} {step}: {v:?}");
        }
    });
}

// --- Mutation tests: the checker catches seeded protocol bugs ----------
//
// Each seeded mutation must (a) be found by the abstract exploration with
// a counterexample and (b) replay on the concrete engine as a runtime
// invariant violation — demonstrating the abstract bug is a real bug.

fn assert_caught_and_replays(kind: ProtocolKind, m: RuleMutation) {
    let cfg = ModelConfig::new(kind).with_mutation(m);
    let ex = explore(&cfg).unwrap();
    let cex = ex.counterexample.unwrap_or_else(|| {
        panic!(
            "{m:?} under {kind:?} was not caught in {} states",
            ex.metrics.states
        )
    });
    assert!(!cex.steps.is_empty());
    let (_, report) = replay_counterexample(&cfg, &cex, InvariantMode::Check);
    assert!(
        !report.is_clean(),
        "{m:?} under {kind:?}: abstract counterexample did not reproduce on \
         the engine:\n{cex}"
    );
}

#[test]
fn a_skipped_ls_detag_is_caught_and_replays() {
    // The de-tag rule is the heart of §3: without it a second writer's
    // unpaired acquisition keeps the stale LS-bit.
    assert_caught_and_replays(ProtocolKind::Ls, RuleMutation::SkipLsDetag);
}

#[test]
fn a_dropped_notls_notification_is_caught_and_replays() {
    assert_caught_and_replays(ProtocolKind::Ls, RuleMutation::DropNotLs);
}

#[test]
fn dropped_invalidations_are_caught_as_swmr_violations() {
    // Baseline has no LS machinery, so the only thing that can catch this
    // is the SWMR check itself.
    for kind in ProtocolKind::ALL {
        assert_caught_and_replays(kind, RuleMutation::DropInvalidations);
    }
}

#[test]
fn a_stale_lr_field_on_ownership_transfer_is_caught_and_replays() {
    assert_caught_and_replays(ProtocolKind::Ls, RuleMutation::KeepLrOnOwnership);
}

#[test]
fn mutations_without_an_observable_effect_stay_clean() {
    // Baseline has no tags to skip de-tagging and no LR field to leak:
    // the checker must not cry wolf on mutations that cannot fire.
    for m in [RuleMutation::SkipLsDetag, RuleMutation::KeepLrOnOwnership] {
        let cfg = ModelConfig::new(ProtocolKind::Baseline).with_mutation(m);
        let ex = explore(&cfg).unwrap();
        assert!(
            ex.counterexample.is_none(),
            "{m:?} cannot affect Baseline, yet the checker reported:\n{}",
            ex.counterexample.unwrap()
        );
    }
}

#[test]
fn strict_mode_replay_panics_at_the_violation() {
    let cfg =
        ModelConfig::new(ProtocolKind::Baseline).with_mutation(RuleMutation::DropInvalidations);
    let cex = explore(&cfg).unwrap().counterexample.unwrap();
    let panic = std::panic::catch_unwind(|| {
        replay_counterexample(&cfg, &cex, InvariantMode::Strict);
    })
    .expect_err("strict replay of a violating trace must panic");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("coherence invariant violated"),
        "unexpected panic payload: {msg}"
    );
}

// --- Bounded transport faults (the recovery-transport theorem) ---------
//
// With the recovery transport intact, interconnect faults are invisible to
// the protocol: a drop is absorbed by timeout-and-retransmit and a
// duplicate by receiver dedup. Exploring every interleaving that contains
// up to `fault_budget` ghost faults must therefore stay violation-free.
// Seeding the skip-dedup transport mutation must break exactly that
// theorem, with a shortest counterexample ending in a duplicate delivery.

#[test]
fn bounded_transport_faults_are_absorbed_for_all_protocols() {
    for kind in ProtocolKind::ALL {
        let base = explore(&ModelConfig::new(kind)).unwrap();
        let faulty = explore(&ModelConfig::new(kind).with_fault_budget(2)).unwrap();
        assert!(
            faulty.counterexample.is_none(),
            "{kind:?} with a fault budget of 2 violated:\n{}",
            faulty.counterexample.unwrap()
        );
        assert!(
            faulty.metrics.transitions > base.metrics.transitions,
            "{kind:?}: the fault budget added no ghost transitions"
        );
        assert!(faulty.terminal_states > 0);
    }
}

#[test]
fn skip_dedup_is_convicted_with_a_shortest_counterexample() {
    for kind in ProtocolKind::ALL {
        let cfg = ModelConfig::new(kind)
            .with_fault_budget(1)
            .with_transport_mutation(TransportMutation::SkipDedup);
        let ex = explore(&cfg).unwrap();
        let cex = ex.counterexample.unwrap_or_else(|| {
            panic!(
                "skip-dedup under {kind:?} was not caught in {} states",
                ex.metrics.states
            )
        });
        let last = cex.steps.last().unwrap();
        assert!(
            matches!(last.op, OpKind::DupLoad | OpKind::DupStore),
            "{kind:?}: conviction must come from a duplicate delivery, got:\n{cex}"
        );
        // BFS reports a shortest counterexample; the known minimum is
        // load, evict, redeliver-stale-read (3 steps).
        assert!(
            cex.steps.len() <= 3,
            "{kind:?}: counterexample is not minimal:\n{cex}"
        );
    }
}

#[test]
fn a_zero_fault_budget_keeps_skip_dedup_unobservable() {
    // The mutation only matters if a duplicate can actually be delivered —
    // the checker must not cry wolf when the fault budget is zero.
    let cfg = ModelConfig::new(ProtocolKind::Baseline)
        .with_transport_mutation(TransportMutation::SkipDedup);
    let ex = explore(&cfg).unwrap();
    assert!(
        ex.counterexample.is_none(),
        "skip-dedup fired without any fault budget:\n{}",
        ex.counterexample.unwrap()
    );
}

#[test]
fn transport_counterexamples_replay_their_processor_prefix_cleanly() {
    // Ghost fault steps carry no processor operation; the concrete
    // conviction lives in the engine's seeded-fault tests. The processor
    // prefix of a transport counterexample must replay clean — the
    // violation genuinely needs the duplicate.
    let cfg = ModelConfig::new(ProtocolKind::Baseline)
        .with_fault_budget(1)
        .with_transport_mutation(TransportMutation::SkipDedup);
    let cex = explore(&cfg).unwrap().counterexample.unwrap();
    let (_, report) = replay_counterexample(&cfg, &cex, InvariantMode::Check);
    assert!(report.is_clean(), "{:?}", report.violations());
    assert!(report.checks() > 0);
}
