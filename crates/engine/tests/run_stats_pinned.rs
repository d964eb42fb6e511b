//! Byte pins for real replays.
//!
//! `replay_identity.rs` compares a replay with the live run inside one
//! build, so a change to a structure both sides share (a cache, a
//! classifier) would move both sides together and still pass. These pins
//! hold the absolute result instead: the `fnv1a64` of the compact
//! canonical JSON of `RunStats` for every quick workload under each
//! protocol, one faulty machine, and the bytes of one event log. A hot-path
//! rewrite must leave every literal below unchanged; a literal may move
//! only with a deliberate change to what the simulator computes.

use ccsim_engine::{replay, replay_events, RunStats, Trace};
use ccsim_types::{FaultConfig, MachineConfig, ProtocolKind};
use ccsim_util::{fnv1a64, ToJson};
use ccsim_workloads::{capture_spec, cholesky, lu, mp3d, oltp, Spec};

const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls];

fn h(stats: &RunStats) -> u64 {
    fnv1a64(stats.to_json().to_string().as_bytes())
}

/// The machine a spec runs on: the OLTP machine for OLTP, the SPLASH
/// machine otherwise.
fn machine(spec: &Spec, kind: ProtocolKind) -> MachineConfig {
    match spec {
        Spec::Oltp(_) => MachineConfig::oltp_scaled(kind),
        _ => MachineConfig::splash_baseline(kind),
    }
}

/// Capture once under Baseline, then replay the trace under each protocol.
fn replay_hashes(spec: &Spec) -> [u64; 3] {
    let (_, trace): (RunStats, Trace) = capture_spec(machine(spec, ProtocolKind::Baseline), spec);
    PROTOCOLS.map(|kind| h(&replay(machine(spec, kind), &trace, &[])))
}

#[test]
fn mp3d_replays_are_pinned() {
    let got = replay_hashes(&Spec::Mp3d(mp3d::Mp3dParams::quick()));
    assert_eq!(
        got,
        [0x033366f99eafccd1, 0xc005bc038a9afdef, 0xf3e16f24e2467af9],
        "{got:#x?}"
    );
}

#[test]
fn cholesky_replays_are_pinned() {
    let got = replay_hashes(&Spec::Cholesky(cholesky::CholeskyParams::quick()));
    assert_eq!(
        got,
        [0x3ce195aa2ad56735, 0x8eaa566404a3a3b2, 0xea3ddac8e822cf34],
        "{got:#x?}"
    );
}

#[test]
fn lu_replays_are_pinned() {
    let got = replay_hashes(&Spec::Lu(lu::LuParams::quick()));
    assert_eq!(
        got,
        [0x642d8c2caf265dc6, 0xee3c674a65ca2cda, 0xad2964e01f2c39c1],
        "{got:#x?}"
    );
}

#[test]
fn oltp_replays_are_pinned() {
    let got = replay_hashes(&Spec::Oltp(oltp::OltpParams::quick()));
    assert_eq!(
        got,
        [0x7f1fad46111c7e71, 0x2e4b3e5c71ae276e, 0x6aa095a8ba1e8635],
        "{got:#x?}"
    );
}

/// NACKs and delays perturb timing and retry paths.
#[test]
fn faulty_replay_is_pinned() {
    let faults = FaultConfig {
        nack_per_mille: 25,
        delay_per_mille: 40,
        max_delay_cycles: 60,
        seed: 0xFA11,
        ..FaultConfig::default()
    };
    let spec = Spec::Mp3d(mp3d::Mp3dParams::quick());
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls).with_faults(faults);
    let (_, trace) = capture_spec(cfg, &spec);
    let got = h(&replay(cfg, &trace, &[]));
    assert_eq!(got, 0xc75dcf753828776f, "{got:#x}");
}

/// The event log carries every fill, invalidation and eviction, so it pins
/// victim choice directly, not only through the counters.
#[test]
fn event_log_bytes_are_pinned() {
    let spec = Spec::Mp3d(mp3d::Mp3dParams::quick());
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    let (_, trace) = capture_spec(cfg, &spec);
    let (stats, log) = replay_events(cfg, &trace, &[]);
    let got = (h(&stats), fnv1a64(&log.to_bytes()));
    assert_eq!(got, (0x18faef131819d48f, 0xcfaeeb6aa8b2463a), "{got:#x?}");
}
