//! Trace replay reproduces the live run it was captured from: same
//! `RunStats`, same canonical JSON bytes, for every workload × protocol
//! pair, run after run, with and without fault injection — and the
//! event-capturing replay commits exactly the same run.

use ccsim_engine::{replay, replay_events};
use ccsim_types::{FaultConfig, MachineConfig, ProtocolKind};
use ccsim_util::ToJson;
use ccsim_workloads::{capture_spec, cholesky, lu, mp3d, Spec};

fn quick_specs() -> Vec<Spec> {
    vec![
        Spec::Mp3d(mp3d::Mp3dParams::quick()),
        Spec::Cholesky(cholesky::CholeskyParams::quick()),
        Spec::Lu(lu::LuParams::quick()),
    ]
}

/// Every workload × protocol: replaying the capture matches the live run
/// byte-for-byte (stats compared both structurally and as canonical JSON).
#[test]
fn replay_is_bit_identical_to_the_live_run() {
    for spec in quick_specs() {
        for kind in ProtocolKind::ALL {
            let cfg = MachineConfig::splash_baseline(kind);
            let (live, trace) = capture_spec(cfg, &spec);
            let replayed = replay(cfg, &trace, &[]);
            assert_eq!(
                replayed,
                live,
                "{} under {kind:?}: replay must reproduce the live run",
                spec.name()
            );
            assert_eq!(
                replayed.to_json().to_string(),
                live.to_json().to_string(),
                "{} under {kind:?}: JSON bytes differ",
                spec.name()
            );
        }
    }
}

/// Capturing the event log does not change what replay commits.
#[test]
fn replay_events_matches_replay() {
    for spec in quick_specs() {
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let (_, trace) = capture_spec(cfg, &spec);
        let (stats, log) = replay_events(cfg, &trace, &[]);
        assert_eq!(
            stats,
            replay(cfg, &trace, &[]),
            "{}: stats diverged",
            spec.name()
        );
        assert_eq!(
            replay_events(cfg, &trace, &[]).1,
            log,
            "{}: event log diverged across reruns",
            spec.name()
        );
    }
}

/// Repeated replays of the same trace are identical.
#[test]
fn repeated_replays_are_stable() {
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ad);
    let (_, trace) = capture_spec(cfg, &Spec::Mp3d(mp3d::Mp3dParams::quick()));
    let first = replay(cfg, &trace, &[]);
    for _ in 0..3 {
        assert_eq!(replay(cfg, &trace, &[]), first);
    }
}

/// Seeded fault injection perturbs timing, but the perturbed run is still
/// deterministic: replay under the same faults matches the faulty live run.
#[test]
fn faulty_replay_matches_the_faulty_live_run() {
    let faults = FaultConfig {
        nack_per_mille: 25,
        delay_per_mille: 40,
        max_delay_cycles: 60,
        seed: 0xFA11,
        ..FaultConfig::default()
    };
    for kind in [ProtocolKind::Baseline, ProtocolKind::Ls] {
        let cfg = MachineConfig::splash_baseline(kind).with_faults(faults);
        let (live, trace) = capture_spec(cfg, &Spec::Mp3d(mp3d::Mp3dParams::quick()));
        assert_eq!(
            replay(cfg, &trace, &[]),
            live,
            "{kind:?}: faulty replay drifted"
        );
    }
}
