//! Adversarial decoding tests for the JSON decoders of outside bytes.
//!
//! Run-cache entries, saved configurations and exported summaries are read
//! back from disk, so every decoder must answer malformed text with an
//! `Err` — never a panic — and must reject any document cut short. The
//! pristine documents double as round-trip checks: decoding and
//! re-encoding reproduces their bytes exactly. Mirrors the binary-trace
//! tests in `ccsim-engine/tests/trace_robustness.rs`.

use ccsim_engine::{RunStats, SimBuilder};
use ccsim_serve::ServeConfig;
use ccsim_stats::{
    AnalysisSummary, ChaosSummary, ModelCheckSummary, RaceSummary, RunSummary, ServeSummary,
    VerifySummary,
};
use ccsim_types::{FaultConfig, MachineConfig, ProtocolKind, Topology};
use ccsim_util::check::{cases, Gen};
use ccsim_util::{FromJson, Json, LatencyHistogram, ToJson};
use ccsim_workloads::{lu, oltp, Spec};

/// Decode a document; on success, return the value's compact re-encoding.
type Decoder = fn(&str) -> Result<String, String>;

fn codec<T: FromJson + ToJson>(text: &str) -> Result<String, String> {
    T::from_text(text).map(|v| v.to_json().to_string())
}

fn parse(text: &str) -> Result<String, String> {
    Json::parse(text).map(|j| j.to_string())
}

fn serve_summary(text: &str) -> Result<String, String> {
    ServeSummary::parse(text).map(|s| s.to_json().to_string())
}

/// Decoding must return `Ok` or `Err`; a panic fails with the input shown.
fn decode_total(name: &str, decode: Decoder, text: &str) -> Result<String, String> {
    let owned = text.to_string();
    std::panic::catch_unwind(move || decode(&owned))
        .unwrap_or_else(|_| panic!("{name} decoder panicked on {text:?}"))
}

const RUN: &str = r#"{
    "protocol": "LS", "nodes": 4, "block_bytes": 16, "exec_cycles": 123456, "busy": 1000,
    "read_stall": 2000, "write_stall": 3000, "traffic_read_bytes": 4000,
    "traffic_write_bytes": 5000, "traffic_other_bytes": 6000, "traffic_messages": 700,
    "global_reads": 80, "read_class": [1, 2, 3, 4], "upgrades": 9, "write_misses": 10,
    "invalidations": 11, "invalidations_per_shared_write": 0.375, "exclusive_grants": 12,
    "silent_stores": 13, "retries": 14, "oracle_app": [15, 16, 17],
    "oracle_lib": [18, 19, 20], "oracle_os": [21, 22, 23], "ls_fraction": 0.5,
    "migratory_fraction": 0.25, "ls_coverage": 0.3333333333333333,
    "migratory_coverage": 0.125, "false_sharing_fraction": 0.0625
}"#;

const MODEL: &str = r#"{
    "protocol": "AD", "nodes": 3, "blocks": 1, "max_ops": 4, "states": 1234,
    "transitions": 5678, "dedup_hits": 42, "max_frontier": 99, "max_depth": 12, "wall_ms": 7,
    "state_fingerprint": 18446744073709551614, "violation": "SWMR"
}"#;

const VERIFY: &str = r#"{
    "protocol": "LS", "abstract_states": 321, "transitions": 654, "widenings": 3,
    "max_depth": 17, "wall_ms": 5, "fingerprint": 16045690981293355021, "parametric": true,
    "violation": "", "refinement": "genuine", "concretized_nodes": 3, "engine_violations": 2
}"#;

const ANALYSIS: &str = r#"{
    "protocol": "LS", "nodes": 4, "block_bytes": 64, "events": 100, "accesses": 80,
    "blocks": 7, "private_blocks": 2, "read_shared_blocks": 1, "producer_consumer_blocks": 1,
    "load_store_blocks": 2, "migratory_blocks": 1, "irregular_blocks": 1,
    "false_sharing_candidates": 1, "ideal_global_reads": 10, "ideal_global_writes": 9,
    "ideal_ls_writes": 8, "ideal_migratory_writes": 3, "global_reads": 12,
    "global_writes": 11, "ls_writes": 9, "migratory_writes": 4, "eliminated": 5,
    "eliminated_ls": 5, "eliminated_migratory": 2, "silent_stores": 5, "ls_upper_bound": 9,
    "false_sharing_fraction": 0.25
}"#;

const RACE: &str = r#"{
    "protocol": "Baseline", "nodes": 4, "events": 1000, "accesses": 800, "reads": 500,
    "writes": 300, "blocks": 40, "words": 120, "po_edges": 999, "rf_edges": 500,
    "co_edges": 260, "fr_edges": 17, "ack_edges": 123, "excl_grants_checked": 21,
    "notls_checked": 4, "ls_writes_checked": 300, "sc_witness": true,
    "sc_order_fingerprint": 18446744073709551612, "violations": 1, "suppressed": 2,
    "first_violation": "lost-update: \"quoted\"\n ☺"
}"#;

const CHAOS: &str = r#"{
    "cells": 27, "failures": 1, "sc_checked": 27, "retransmits": 4242, "nacks": 199,
    "witness_accesses": 9, "witness_protocol": "Baseline",
    "witness_failure": "invariant violation: SWMR"
}"#;

const SERVE: &str = r#"{
    "schema": "ccsim-serve-v1", "nodes": 8, "clients": 2000000, "skew_per_mille": 990,
    "rate_per_mcycle": 1600, "mix_per_mille": [450, 300, 150, 100],
    "seed": 18446744073709551608,
    "rows": [{
        "protocol": "LS", "stop": "converged", "cycles": 12345678, "admitted": 20000,
        "completed": 19900, "dropped": 100, "throughput_per_mcycle": 1612,
        "max_queue_depth": 31, "hot_row_conflicts": 420, "ownership_acquisitions": 9999,
        "invalidations": 1234, "write_stall": 777777, "traffic_bytes": 88888888,
        "classes": [
            {"class": "point_read", "count": 1000, "p50": 1000, "p90": 2000, "p99": 4000,
             "max": 4017},
            {"class": "rmw", "count": 1000, "p50": 2250, "p90": 4500, "p99": 9000, "max": 9017}
        ]
    }]
}"#;

fn toy_stats() -> RunStats {
    let mut b = SimBuilder::new(MachineConfig::splash_baseline(ProtocolKind::Ls));
    let ctr = b.alloc().alloc_words(1);
    for _ in 0..2 {
        b.spawn(move |p| {
            for _ in 0..10 {
                p.fetch_add(ctr, 1);
                p.busy(5);
            }
        });
    }
    b.run()
}

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::splash_baseline(ProtocolKind::Ad);
    cfg.topology = Topology::Mesh2D { width: 2 };
    cfg.faults = FaultConfig {
        drop_per_mille: 15,
        delay_per_mille: 10,
        max_delay_cycles: 80,
        seed: 0xFA17,
        ..FaultConfig::default()
    };
    cfg
}

fn histogram() -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for v in [0, 3, 17, 17, 250, 4_000, 1 << 40] {
        h.record(v);
    }
    h
}

/// Every decoder under test with one pristine document each.
fn samples() -> Vec<(&'static str, Decoder, String)> {
    vec![
        (
            "RunStats",
            codec::<RunStats>,
            toy_stats().to_json().pretty(),
        ),
        (
            "MachineConfig",
            codec::<MachineConfig>,
            machine().to_json().pretty(),
        ),
        (
            "ServeConfig",
            codec::<ServeConfig>,
            ServeConfig::quick().to_json().pretty(),
        ),
        (
            "Spec",
            codec::<Spec>,
            Spec::Oltp(oltp::OltpParams::quick()).to_json().pretty(),
        ),
        (
            "Spec",
            codec::<Spec>,
            Spec::Lu(lu::LuParams::quick()).to_json().to_string(),
        ),
        (
            "LatencyHistogram",
            codec::<LatencyHistogram>,
            histogram().to_json().pretty(),
        ),
        ("RunSummary", codec::<RunSummary>, RUN.into()),
        (
            "ModelCheckSummary",
            codec::<ModelCheckSummary>,
            MODEL.into(),
        ),
        ("VerifySummary", codec::<VerifySummary>, VERIFY.into()),
        ("AnalysisSummary", codec::<AnalysisSummary>, ANALYSIS.into()),
        ("RaceSummary", codec::<RaceSummary>, RACE.into()),
        ("ChaosSummary", codec::<ChaosSummary>, CHAOS.into()),
        ("ServeSummary", serve_summary, SERVE.into()),
    ]
}

#[test]
fn pristine_documents_round_trip_to_equal_bytes() {
    for (name, decode, text) in samples() {
        let canonical = Json::parse(&text).unwrap().to_string();
        assert_eq!(decode(&text), Ok(canonical.clone()), "{name}");
        assert_eq!(parse(&text), Ok(canonical), "{name}: Json::parse");
    }
}

#[test]
fn every_prefix_inside_the_top_level_object_is_an_error() {
    for (name, decode, text) in samples() {
        let end = text.trim_end().len();
        for cut in (0..end).filter(|&c| text.is_char_boundary(c)) {
            let prefix = &text[..cut];
            for (what, d) in [(name, decode), ("Json::parse", parse as Decoder)] {
                assert!(
                    decode_total(what, d, prefix).is_err(),
                    "{what}: prefix of {cut}/{end} bytes of a {name} document decoded"
                );
            }
        }
    }
}

/// One random corruption of `text`: a truncation, a byte flip, or a
/// splice of a slice of another document. Invalid UTF-8 is replaced, as a
/// lossy reader of the file would.
fn mutate(g: &mut Gen, text: &str, others: &[String]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match g.below(3) {
        0 => bytes.truncate(g.below(bytes.len() as u64 + 1) as usize),
        1 => {
            for _ in 0..g.urange(1, 4) {
                let i = g.below(bytes.len() as u64) as usize;
                bytes[i] ^= g.range(1, 256) as u8;
            }
        }
        _ => {
            let donor = g.pick(others).as_bytes();
            let a = g.below(donor.len() as u64) as usize;
            let b = g.urange(a, donor.len() + 1);
            let at = g.below(bytes.len() as u64 + 1) as usize;
            let cut = g.urange(at, (at + 64).min(bytes.len()) + 1);
            bytes.splice(at..cut, donor[a..b].iter().copied());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn random_truncations_flips_and_splices_never_panic() {
    let samples = samples();
    let texts: Vec<String> = samples.iter().map(|(_, _, t)| t.clone()).collect();
    cases(2_000, |g: &mut Gen| {
        let (name, decode, text) = g.pick(&samples);
        let mutated = mutate(g, text, &texts);
        for (what, d) in [(*name, *decode), ("Json::parse", parse as Decoder)] {
            // Whatever decodes must re-encode to a fixed point: the
            // accepted value is one the encoder can represent.
            if let Ok(canonical) = decode_total(what, d, &mutated) {
                assert_eq!(
                    d(&canonical),
                    Ok(canonical.clone()),
                    "{what}: re-encoding of {mutated:?}"
                );
            }
        }
    });
}

/// Hand-picked hostile values: each must be an error, not a silent
/// truncation, a value the encoder cannot reproduce, or an overflow panic
/// in a debug build.
#[test]
fn hostile_field_values_are_errors() {
    let serve = ServeConfig::quick().to_json().to_string();
    let hist = histogram().to_json().to_string();
    let machine = machine().to_json().to_string();
    let cases: [(&str, Decoder, String, &str); 5] = [
        (
            "RunSummary",
            codec::<RunSummary>,
            RUN.replace("\"ls_fraction\": 0.5", "\"ls_fraction\": 1e999"),
            "out of range",
        ),
        (
            "ServeConfig",
            codec::<ServeConfig>,
            serve.replace(
                "\"burst_off_cycles\": 120000",
                "\"burst_off_cycles\": 18446744073709551615",
            ),
            "overflows",
        ),
        (
            "ServeConfig",
            codec::<ServeConfig>,
            serve.replace("\"skew_per_mille\": 900", "\"skew_per_mille\": 4294967297"),
            "out of range for u32",
        ),
        (
            "LatencyHistogram",
            codec::<LatencyHistogram>,
            hist.replace("[[0,1]", "[[0,18446744073709551615]"),
            "overflow",
        ),
        (
            "MachineConfig",
            codec::<MachineConfig>,
            machine.replace("\"nodes\": 4", "\"nodes\": 65540"),
            "out of range for u16",
        ),
    ];
    for (name, decode, text, needle) in cases {
        let err = decode_total(name, decode, &text).unwrap_err();
        assert!(err.contains(needle), "{name}: {err}");
    }
}
