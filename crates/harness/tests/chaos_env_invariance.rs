//! The chaos sweep's worker count (`CCSIM_JOBS`, the one worker-count knob)
//! is an execution knob, not an input: it must affect neither the run-cache
//! key (the chaos gate shares cached fault-free runs with every other
//! experiment) nor any swept result.

use ccsim_harness::chaos::{sweep, ChaosConfig};
use ccsim_harness::run_key;
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_workloads::{lu::LuParams, Spec};

const JOBS: &str = "CCSIM_JOBS";

/// One test function on purpose: both halves mutate the same process-global
/// environment variable and must not interleave.
#[test]
fn chaos_thread_setting_changes_neither_cache_keys_nor_sweep_results() {
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    let spec = Spec::Lu(LuParams::quick());

    // Half 1: the cache key is a pure function of (config, spec).
    let key = run_key(&cfg, &spec);
    for setting in ["1", "4", "16", "banana"] {
        std::env::set_var(JOBS, setting);
        assert_eq!(
            run_key(&cfg, &spec),
            key,
            "{JOBS}={setting} changed the cache key"
        );
    }
    std::env::remove_var(JOBS);
    assert_eq!(run_key(&cfg, &spec), key);

    // Half 2: the sweep's cells are bit-identical for every worker count.
    let cc = ChaosConfig {
        protocols: vec![ProtocolKind::Baseline],
        specs: vec![spec],
        rates: vec![60],
        seeds: vec![1, 2],
        check_sc: false,
        shrink: false,
        mutation: None,
    };
    std::env::set_var(JOBS, "1");
    let serial = sweep(&cc).unwrap();
    std::env::set_var(JOBS, "4");
    let parallel = sweep(&cc).unwrap();
    std::env::remove_var(JOBS);

    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.seed, p.seed);
        assert_eq!(s.failure, p.failure);
        assert_eq!(s.retransmits, p.retransmits, "seed {}", s.seed);
        assert_eq!(s.nacks, p.nacks, "seed {}", s.seed);
    }
    assert_eq!(serial.summary(), parallel.summary());
    assert!(serial.is_clean(), "control sweep must be clean");
    assert!(
        serial.cells.iter().all(|c| c.retransmits > 0),
        "fault injector never fired — the sweep proves nothing"
    );
}
