//! Byte pins for the canonical JSON encodings.
//!
//! The run cache and `serve_key` hash the compact canonical JSON of
//! `MachineConfig`, `Spec` and `ServeConfig`; the exported summaries are
//! what every figure and CLI report is built from. A reordered or renamed
//! key would silently invalidate every cache entry and every golden file,
//! so each encoding is pinned here by the `fnv1a64` of its compact bytes.
//! A change to any literal below is a format change: it must come with a
//! `CACHE_FORMAT` bump, not a re-pin.

use ccsim_harness::cache::run_key;
use ccsim_serve::{serve_key, ServeConfig};
use ccsim_stats::{
    AnalysisSummary, ChaosSummary, ModelCheckSummary, RaceSummary, RunSummary, ServeClassLatency,
    ServeRow, ServeSummary, VerifySummary, SERVE_SCHEMA,
};
use ccsim_types::{FaultConfig, MachineConfig, ProtocolKind, Topology};
use ccsim_util::{fnv1a64, ToJson};
use ccsim_workloads::{cholesky, lu, mp3d, oltp, Spec};

/// `fnv1a64` of the compact encoding. Called through the trait so the
/// pin is on the `Json` value, never on a pretty-printed wrapper.
fn h<T: ToJson>(v: &T) -> u64 {
    fnv1a64(ToJson::to_json(v).to_string().as_bytes())
}

const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Baseline,
    ProtocolKind::Ad,
    ProtocolKind::Ls,
    ProtocolKind::Dsi,
];

/// A machine off every default: mesh topology, a non-default fault plan
/// and LS tag hysteresis.
fn exotic_machine() -> MachineConfig {
    let mut cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    cfg.topology = Topology::Mesh2D { width: 2 };
    cfg.protocol.ls.tag_hysteresis = 2;
    cfg.faults = FaultConfig {
        nack_per_mille: 25,
        delay_per_mille: 10,
        drop_per_mille: 15,
        dup_per_mille: 12,
        reorder_per_mille: 9,
        max_delay_cycles: 80,
        max_consecutive_nacks: 6,
        seed: 0xFA17,
        ..FaultConfig::default()
    };
    cfg
}

fn specs() -> [Spec; 4] {
    [
        Spec::Mp3d(mp3d::Mp3dParams::quick()),
        Spec::Lu(lu::LuParams::quick()),
        Spec::Cholesky(cholesky::CholeskyParams::quick()),
        Spec::Oltp(oltp::OltpParams::quick()),
    ]
}

/// A fixed toy run: two processors contending on one counter.
fn toy_stats() -> ccsim_engine::RunStats {
    let mut b = ccsim_engine::SimBuilder::new(MachineConfig::splash_baseline(ProtocolKind::Ls));
    let ctr = b.alloc().alloc_words(1);
    for _ in 0..2 {
        b.spawn(move |p| {
            for _ in 0..20 {
                p.fetch_add(ctr, 1);
                p.busy(7);
            }
        });
    }
    b.run()
}

fn run_summary() -> RunSummary {
    RunSummary {
        protocol: "LS".into(),
        nodes: 4,
        block_bytes: 16,
        exec_cycles: 123_456,
        busy: 1000,
        read_stall: 2000,
        write_stall: 3000,
        traffic_read_bytes: 4000,
        traffic_write_bytes: 5000,
        traffic_other_bytes: 6000,
        traffic_messages: 700,
        global_reads: 80,
        read_class: [1, 2, 3, 4],
        upgrades: 9,
        write_misses: 10,
        invalidations: 11,
        invalidations_per_shared_write: 0.375,
        exclusive_grants: 12,
        silent_stores: 13,
        retries: 14,
        oracle_app: [15, 16, 17],
        oracle_lib: [18, 19, 20],
        oracle_os: [21, 22, 23],
        ls_fraction: 0.5,
        migratory_fraction: 0.25,
        ls_coverage: 1.0 / 3.0,
        migratory_coverage: 0.125,
        false_sharing_fraction: 0.0625,
    }
}

fn model_summary() -> ModelCheckSummary {
    ModelCheckSummary {
        protocol: "AD".into(),
        nodes: 3,
        blocks: 1,
        max_ops: 4,
        states: 1234,
        transitions: 5678,
        dedup_hits: 42,
        max_frontier: 99,
        max_depth: 12,
        wall_ms: 7,
        state_fingerprint: u64::MAX - 1,
        violation: "SWMR".into(),
    }
}

fn verify_summary() -> VerifySummary {
    VerifySummary {
        protocol: "LS".into(),
        abstract_states: 321,
        transitions: 654,
        widenings: 3,
        max_depth: 17,
        wall_ms: 5,
        fingerprint: 0xDEAD_BEEF_0BAD_F00D,
        parametric: true,
        violation: String::new(),
        refinement: "genuine".into(),
        concretized_nodes: 3,
        engine_violations: 2,
    }
}

fn analysis_summary() -> AnalysisSummary {
    AnalysisSummary {
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
    }
}

fn race_summary() -> RaceSummary {
    RaceSummary {
        protocol: "Baseline".into(),
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
        sc_order_fingerprint: u64::MAX - 3,
        violations: 1,
        suppressed: 2,
        first_violation: "lost-update: \"quoted\"\n".into(),
    }
}

fn chaos_summary() -> ChaosSummary {
    ChaosSummary {
        cells: 27,
        failures: 1,
        sc_checked: 27,
        retransmits: 4242,
        nacks: 199,
        witness_accesses: 9,
        witness_protocol: "Baseline".into(),
        witness_failure: "invariant violation: SWMR".into(),
    }
}

fn serve_summary() -> ServeSummary {
    let class = |name: &str, p99: u64| ServeClassLatency {
        class: name.into(),
        count: 1000,
        p50: p99 / 4,
        p90: p99 / 2,
        p99,
        max: p99 + 17,
    };
    ServeSummary {
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
    }
}

/// Every pin, labelled. Compared as a whole so one run reports every
/// drifted encoding at once.
fn actual() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for k in PROTOCOLS {
        out.push((
            format!("machine/{}", k.label()),
            h(&MachineConfig::splash_baseline(k)),
        ));
    }
    out.push(("machine/exotic".into(), h(&exotic_machine())));
    for s in specs() {
        out.push((format!("spec/{}", s.name()), h(&s)));
    }
    out.push(("serve_config/quick".into(), h(&ServeConfig::quick())));
    out.push(("run_stats/toy".into(), h(&toy_stats())));
    out.push(("summary/run".into(), h(&run_summary())));
    out.push(("summary/model".into(), h(&model_summary())));
    out.push(("summary/verify".into(), h(&verify_summary())));
    out.push(("summary/analysis".into(), h(&analysis_summary())));
    out.push(("summary/race".into(), h(&race_summary())));
    out.push(("summary/chaos".into(), h(&chaos_summary())));
    out.push(("summary/serve".into(), h(&serve_summary())));
    let [mp3d, _, cholesky, _] = specs();
    let key = |cfg: &MachineConfig, spec: &Spec| u64::from_str_radix(&run_key(cfg, spec), 16);
    out.push((
        "run_key/ls_mp3d".into(),
        key(&MachineConfig::splash_baseline(ProtocolKind::Ls), &mp3d).unwrap(),
    ));
    out.push((
        "run_key/exotic_cholesky".into(),
        key(&exotic_machine(), &cholesky).unwrap(),
    ));
    out.push((
        "serve_key/quick".into(),
        serve_key(
            &MachineConfig::splash_baseline(ProtocolKind::Ad),
            &ServeConfig::quick(),
        ),
    ));
    out
}

const PINNED: &[(&str, u64)] = &[
    ("machine/Baseline", 0x825d_8f28_2602_e327),
    ("machine/AD", 0x4793_7ff3_8c34_e37d),
    ("machine/LS", 0x2734_b1ac_e84b_f2c9),
    ("machine/DSI", 0x92a8_e106_57f6_0008),
    ("machine/exotic", 0xaf67_c9bc_eafb_7b15),
    ("spec/MP3D", 0x7659_5dc6_a908_5e99),
    ("spec/LU", 0x1320_eaf1_5470_1071),
    ("spec/Cholesky", 0x63dd_bc9d_461d_bd28),
    ("spec/OLTP", 0x0350_839c_b386_00fc),
    ("serve_config/quick", 0x09cc_3dd0_0fc3_7019),
    ("run_stats/toy", 0xf93c_703b_6fd9_9b69),
    ("summary/run", 0xa693_06a4_7e2b_90b7),
    ("summary/model", 0xb453_8d17_4504_5374),
    ("summary/verify", 0x5c99_055e_e19e_a8a7),
    ("summary/analysis", 0xe941_4534_5588_5e87),
    ("summary/race", 0xe0d3_cf03_9049_1110),
    ("summary/chaos", 0x5dfa_772e_b31f_90d7),
    ("summary/serve", 0xc1a5_bcdc_20ce_46a1),
    ("run_key/ls_mp3d", 0x3a9e_6715_f685_1397),
    ("run_key/exotic_cholesky", 0xd704_c69b_d7de_0fda),
    ("serve_key/quick", 0xd369_6d55_87ee_e9a9),
];

#[test]
fn canonical_encodings_are_byte_pinned() {
    let got = actual();
    let mut drift = Vec::new();
    for (label, value) in &got {
        match PINNED.iter().find(|(l, _)| l == label) {
            Some(&(_, want)) if want == *value => {}
            Some(&(_, want)) => {
                drift.push(format!("{label}: 0x{value:016x} (pinned 0x{want:016x})"))
            }
            None => drift.push(format!("{label}: 0x{value:016x} (not pinned)")),
        }
    }
    assert!(drift.is_empty(), "encodings drifted:\n{}", drift.join("\n"));
    assert_eq!(got.len(), PINNED.len(), "pin table size");
}
