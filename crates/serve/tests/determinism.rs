//! The serve determinism contract, pinned at the artifact level: the
//! canonical `ServeSummary` JSON is a pure function of `(machine, serve
//! config)`. Reruns, and the sweep against independent per-protocol runs,
//! must produce byte-identical documents, and no thread-count environment
//! variable may enter the serve key — anything less would make the CI
//! serve gate and the bench trajectory flaky.

use ccsim_serve::{serve_key, serve_run, serve_sweep, summarize, ArrivalGen, ServeConfig};
use ccsim_types::{MachineConfig, ProtocolKind};

/// Small but non-trivial: hits the converged ward in a fraction of a
/// second yet exercises every class and all three protocols.
fn cfg() -> ServeConfig {
    let mut cfg = ServeConfig::quick();
    cfg.clients = 2_000;
    cfg.accounts = 4_096;
    cfg.index_words = 8_192;
    cfg.ward.check_every = 64;
    cfg.ward.max_cycles = 1_200_000;
    cfg
}

fn machine() -> MachineConfig {
    MachineConfig::oltp_scaled(ProtocolKind::Baseline)
}

fn summary_bytes() -> String {
    let cfg = cfg();
    let reports = serve_sweep(machine(), &cfg, &ProtocolKind::ALL);
    summarize(&cfg, &reports).to_json()
}

#[test]
fn arrival_sequences_are_byte_identical_across_reruns() {
    let cfg = cfg();
    let encode = |node| {
        let mut g = ArrivalGen::new(&cfg, node, 4);
        let mut bytes = Vec::new();
        for _ in 0..2_000 {
            let a = g.take();
            bytes.extend_from_slice(&a.cycle.to_le_bytes());
            bytes.extend_from_slice(&a.rank.to_le_bytes());
        }
        bytes
    };
    for node in 0..4 {
        assert_eq!(encode(node), encode(node), "node {node} stream drifted");
    }
}

#[test]
fn rerun_summary_json_is_byte_identical() {
    assert_eq!(summary_bytes(), summary_bytes());
}

#[test]
fn sweep_summary_bytes_equal_independent_per_protocol_reruns() {
    let cfg = cfg();
    let reruns: Vec<_> = ProtocolKind::ALL
        .iter()
        .map(|&kind| serve_run(machine().with_protocol(kind), &cfg))
        .collect();
    assert_eq!(summary_bytes(), summarize(&cfg, &reruns).to_json());
}

#[test]
fn ward_stop_lands_on_the_identical_cycle_across_reruns() {
    let cfg = cfg();
    let a = serve_run(machine(), &cfg);
    let b = serve_run(machine(), &cfg);
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.class_hists, b.class_hists);
}

#[test]
fn thread_count_env_vars_cannot_enter_the_serve_key() {
    // Mirrors the harness cache-key invariance test: the serve content key
    // hashes canonical config JSON only, so no thread-count knob can leak
    // in. Both worker-count variables the harness reads are pinned here.
    let cfg = cfg();
    let m = machine();
    let before = serve_key(&m, &cfg);
    for var in ["CCSIM_JOBS", "CCSIM_CHAOS_THREADS"] {
        for setting in ["1", "4", "8", "banana"] {
            std::env::set_var(var, setting);
            assert_eq!(
                serve_key(&m, &cfg),
                before,
                "{var}={setting} changed the serve key"
            );
        }
        std::env::remove_var(var);
    }
    assert_eq!(serve_key(&m, &cfg), before);

    // The key does respond to what determines results.
    assert_ne!(serve_key(&m.with_protocol(ProtocolKind::Ad), &cfg), before);
    let mut hotter = cfg;
    hotter.seed ^= 1;
    assert_ne!(serve_key(&m, &hotter), before);
}
