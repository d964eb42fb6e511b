//! Cache keys are a pure function of (config, spec): no environment
//! variable — in particular the worker count `CCSIM_JOBS` (the `JobSet`
//! pool and the chaos sweep) — may leak into them, or a batch run at one
//! width could miss, or be served different bytes than, the entry another
//! width wrote.

use ccsim_harness::run_key;
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_workloads::{mp3d::Mp3dParams, Spec};

#[test]
fn thread_count_settings_do_not_change_cache_keys() {
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    let spec = Spec::Mp3d(Mp3dParams::quick());
    let before = run_key(&cfg, &spec);
    let var = "CCSIM_JOBS";
    for setting in ["1", "4", "8", "banana"] {
        std::env::set_var(var, setting);
        assert_eq!(
            run_key(&cfg, &spec),
            before,
            "{var}={setting} changed the cache key"
        );
    }
    std::env::remove_var(var);
    assert_eq!(run_key(&cfg, &spec), before);

    // Keys do respond to what actually determines results.
    let other = run_key(&cfg.with_protocol(ProtocolKind::Ad), &spec);
    assert_ne!(other, before);
}
