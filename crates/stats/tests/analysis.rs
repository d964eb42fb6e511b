//! Acceptance check: the trace analyzer's exact counters, taken from a
//! replay of the captured trace, must equal the capturing run's LS-oracle
//! counters for quick-scale MP3D / Cholesky / LU runs under the (default)
//! sequential quantum, on every protocol.

use ccsim_stats::analyze;
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_workloads::{capture_spec, cholesky, lu, mp3d, Spec};

fn quick_specs() -> Vec<Spec> {
    let mut mp = mp3d::Mp3dParams::quick();
    // Trim the particle count so the full three-workload × three-protocol
    // matrix stays a sub-second test.
    mp.particles = mp.particles.min(200);
    mp.steps = mp.steps.min(2);
    let mut ch = cholesky::CholeskyParams::quick();
    ch.waves = ch.waves.min(2);
    let lu = lu::LuParams::quick();
    vec![Spec::Mp3d(mp), Spec::Cholesky(ch), Spec::Lu(lu)]
}

#[test]
fn static_ls_counts_match_engine_counters() {
    for spec in quick_specs() {
        for kind in [ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls] {
            let cfg = MachineConfig::splash_baseline(kind);
            assert_eq!(cfg.schedule_quantum, 1, "sequential quantum is the default");
            let (stats, trace) = capture_spec(cfg, &spec);
            let s = analyze(&cfg, &trace).unwrap();
            let o = stats.oracle.total();
            let ctx = format!("{} / {kind:?}", spec.name());

            // The tentpole equality: statically-counted load-store
            // sequences equal the engine's LS-detection counters.
            assert_eq!(s.ls_writes, o.ls_writes, "{ctx}: ls_writes");
            assert_eq!(s.global_writes, o.global_writes, "{ctx}: global_writes");
            assert_eq!(
                s.migratory_writes, o.migratory_writes,
                "{ctx}: migratory_writes"
            );
            assert_eq!(s.eliminated, o.eliminated, "{ctx}: eliminated");
            assert_eq!(s.eliminated_ls, o.eliminated_ls, "{ctx}: eliminated_ls");
            assert_eq!(
                s.eliminated_migratory, o.eliminated_migratory,
                "{ctx}: eliminated_migratory"
            );
            assert_eq!(
                s.silent_stores, stats.machine.silent_stores,
                "{ctx}: silent_stores"
            );
            assert_eq!(s.global_reads, stats.dir.global_reads, "{ctx}: dir reads");

            // Migratory is a strict subset of load-store, statically and
            // dynamically.
            assert!(s.migratory_writes <= s.ls_writes, "{ctx}");
            assert!(s.migratory_blocks <= s.load_store_blocks, "{ctx}");

            // The static upper bound really bounds what the protocol
            // eliminated.
            assert_eq!(s.ls_upper_bound, s.ls_writes, "{ctx}");
            assert!(o.eliminated_ls <= s.ls_upper_bound, "{ctx}: upper bound");

            // False-sharing classification agrees with the engine too
            // (same classifier fed the same stream).
            assert_eq!(
                s.false_sharing_fraction,
                stats.false_sharing.false_fraction(),
                "{ctx}: false sharing"
            );
        }
    }
}

#[test]
fn ls_protocol_actually_uses_some_of_the_bound_on_mp3d() {
    // Sanity that the acceptance numbers are non-trivial: MP3D's migratory
    // cell updates give the LS protocol real load-store sequences to
    // eliminate.
    let mut mp = mp3d::Mp3dParams::quick();
    mp.particles = mp.particles.min(200);
    mp.steps = mp.steps.min(2);
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    let (stats, trace) = capture_spec(cfg, &Spec::Mp3d(mp));
    let s = analyze(&cfg, &trace).unwrap();
    assert!(s.ls_writes > 0, "MP3D quick must contain LS sequences");
    assert!(
        stats.oracle.total().eliminated_ls > 0,
        "LS protocol must eliminate some of them"
    );
    assert!(s.load_store_blocks > 0);
}

#[test]
fn analysis_is_deterministic_across_captures() {
    let mut mp = mp3d::Mp3dParams::quick();
    mp.particles = 100;
    mp.steps = 1;
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ad);
    let (_, t1) = capture_spec(cfg, &Spec::Mp3d(mp.clone()));
    let (_, t2) = capture_spec(cfg, &Spec::Mp3d(mp));
    assert_eq!(t1, t2, "sequential-quantum capture is deterministic");
    assert_eq!(analyze(&cfg, &t1).unwrap(), analyze(&cfg, &t2).unwrap());
}
