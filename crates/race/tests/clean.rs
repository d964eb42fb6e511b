//! The analyzer must be *quiet* on the real engine: every quick-scale
//! workload, under every protocol variant, replays cleanly through the
//! happens-before pass and the shadow rules replay. These tests are the
//! other half of the mutation tests — a checker that flags correct runs is
//! as useless as one that misses broken ones.

use ccsim_engine::replay_events;
use ccsim_race::check;
use ccsim_types::{FaultConfig, MachineConfig, ProtocolKind};
use ccsim_workloads::{capture_events_spec, capture_spec, cholesky, lu, mp3d, Spec};

fn specs() -> Vec<Spec> {
    vec![
        Spec::Mp3d(mp3d::Mp3dParams::quick()),
        Spec::Cholesky(cholesky::CholeskyParams::quick()),
        Spec::Lu(lu::LuParams::quick()),
    ]
}

#[test]
fn quick_workloads_are_conformant_under_all_protocols() {
    for kind in ProtocolKind::ALL {
        for spec in specs() {
            let cfg = MachineConfig::splash_baseline(kind);
            let (_, log) = capture_events_spec(cfg, &spec);
            let report = check(&cfg.protocol, &log);
            assert!(
                report.is_clean(),
                "{} under {kind:?} is not conformant:\n{}",
                spec.name(),
                report.render(&log)
            );
            assert!(
                report.sc_fingerprint.is_some(),
                "{} under {kind:?}: no SC witness found",
                spec.name()
            );
            assert!(report.counts.accesses > 0);
            assert!(report.counts.rf_edges > 0);
        }
    }
}

#[test]
fn replayed_logs_are_conformant_under_all_protocols() {
    for kind in ProtocolKind::ALL {
        for spec in [
            Spec::Mp3d(mp3d::Mp3dParams::quick()),
            Spec::Cholesky(cholesky::CholeskyParams::quick()),
        ] {
            let cfg = MachineConfig::splash_baseline(kind);
            let (_, trace) = capture_spec(cfg, &spec);
            let (_, log) = replay_events(cfg, &trace, &[]);
            let report = check(&cfg.protocol, &log);
            assert!(
                report.is_clean(),
                "{} under {kind:?} via replay is not conformant:\n{}",
                spec.name(),
                report.render(&log)
            );
            assert!(report.sc_fingerprint.is_some());
        }
    }
}

#[test]
fn faulty_transport_runs_are_sc_conformant_with_fault_free_fingerprints() {
    // Replaying a captured trace pins the access interleaving, so a lossy,
    // duplicating, reordering interconnect may only perturb latencies — the
    // recovery transport must keep the memory behaviour (and therefore the
    // SC witness) bit-identical to the fault-free replay.
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
    for kind in ProtocolKind::ALL {
        let spec = Spec::Mp3d(mp3d::Mp3dParams::quick());
        let base_cfg = MachineConfig::splash_baseline(kind);
        let faulty_cfg = base_cfg.with_faults(chaos);

        let (_, trace) = capture_spec(base_cfg, &spec);
        let (base_stats, base_log) = replay_events(base_cfg, &trace, &[]);
        let (faulty_stats, faulty_log) = replay_events(faulty_cfg, &trace, &[]);
        assert!(
            faulty_stats.machine.retransmits > 0,
            "{kind:?}: the fault plan never dropped a message — the test proves nothing"
        );
        let base = check(&base_cfg.protocol, &base_log);
        let faulty = check(&faulty_cfg.protocol, &faulty_log);
        assert!(
            faulty.is_clean(),
            "faulty run under {kind:?} is not conformant:\n{}",
            faulty.render(&faulty_log)
        );
        assert!(faulty.sc_fingerprint.is_some());
        assert_eq!(
            faulty.sc_fingerprint, base.sc_fingerprint,
            "{kind:?}: transport faults changed the SC witness"
        );
        assert_eq!(faulty.counts.events, base.counts.events);
        assert_eq!(
            faulty_stats.dir, base_stats.dir,
            "{kind:?}: transport faults changed directory event counts"
        );
    }
}

#[test]
fn sc_fingerprint_is_deterministic_across_runs() {
    for kind in ProtocolKind::ALL {
        let spec = Spec::Mp3d(mp3d::Mp3dParams::quick());
        let cfg = MachineConfig::splash_baseline(kind);
        let (_, log_a) = capture_events_spec(cfg, &spec);
        let (_, log_b) = capture_events_spec(cfg, &spec);
        let a = check(&cfg.protocol, &log_a);
        let b = check(&cfg.protocol, &log_b);
        assert_eq!(
            a.sc_fingerprint, b.sc_fingerprint,
            "SC witness fingerprint must be bit-identical across runs ({kind:?})"
        );
        assert_eq!(a.counts.events, b.counts.events);
    }
}
