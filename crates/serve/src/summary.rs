//! Assembly of [`ServeSummary`] documents from sweep reports.
//!
//! The summary type itself lives in `ccsim-stats` (the export layer owns
//! every JSON schema the harness consumes); this module is the only place
//! that knows how to flatten a [`ServeReport`] into one — percentiles are
//! read off the merged histograms here, once, so every consumer (CLI,
//! bench, CI gate) prints identical numbers.

use ccsim_stats::{ServeClassLatency, ServeRow, ServeSummary, SERVE_SCHEMA};

use crate::config::{ServeConfig, TxnClass};
use crate::run::ServeReport;

/// Flatten one report into a summary row.
pub fn row_of(r: &ServeReport) -> ServeRow {
    let classes = TxnClass::ALL
        .iter()
        .map(|c| {
            let h = &r.class_hists[c.idx()];
            ServeClassLatency {
                class: c.label().to_string(),
                count: h.count(),
                p50: h.percentile_per_mille(500),
                p90: h.percentile_per_mille(900),
                p99: h.percentile_per_mille(990),
                max: h.max(),
            }
        })
        .collect();
    ServeRow {
        protocol: r.protocol.label().to_string(),
        stop: r.stop.label().to_string(),
        cycles: r.cycles,
        admitted: r.admitted,
        completed: r.completed,
        dropped: r.dropped,
        throughput_per_mcycle: r.throughput_per_mcycle(),
        max_queue_depth: r.max_queue_depth,
        hot_row_conflicts: r.hot_row_conflicts,
        ownership_acquisitions: r.stats.dir.ownership_acquisitions(),
        invalidations: r.stats.dir.invalidations_requested,
        write_stall: r.stats.write_stall(),
        traffic_bytes: r.stats.traffic.total_bytes(),
        classes,
    }
}

/// Assemble the canonical serve document for one sweep.
pub fn summarize(cfg: &ServeConfig, reports: &[ServeReport]) -> ServeSummary {
    ServeSummary {
        schema: SERVE_SCHEMA.to_string(),
        nodes: reports.first().map(|r| r.stats.config.nodes).unwrap_or(0),
        clients: cfg.clients,
        skew_per_mille: cfg.skew_per_mille,
        rate_per_mcycle: cfg.rate_per_mcycle,
        mix_per_mille: cfg.mix_per_mille,
        seed: cfg.seed,
        rows: reports.iter().map(row_of).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::serve_sweep;
    use ccsim_types::{MachineConfig, ProtocolKind};

    fn tiny() -> ServeConfig {
        let mut cfg = ServeConfig::quick();
        cfg.clients = 2_000;
        cfg.accounts = 4_096;
        cfg.index_words = 8_192;
        cfg.ward.check_every = 64;
        cfg.ward.max_cycles = 1_200_000;
        cfg
    }

    #[test]
    fn summary_matches_reports_and_round_trips() {
        let cfg = tiny();
        let base = MachineConfig::oltp_scaled(ProtocolKind::Baseline);
        let reports = serve_sweep(base, &cfg, &ProtocolKind::ALL);
        let s = summarize(&cfg, &reports);
        assert_eq!(s.schema, SERVE_SCHEMA);
        assert_eq!(s.nodes, base.nodes);
        assert_eq!(s.rows.len(), 3);
        for (row, rep) in s.rows.iter().zip(&reports) {
            assert_eq!(row.protocol, rep.protocol.label());
            assert_eq!(row.completed, rep.completed);
            assert_eq!(row.classes.len(), 4);
            let by_class: u64 = row.classes.iter().map(|c| c.count).sum();
            assert_eq!(by_class, rep.completed);
            for c in &row.classes {
                assert!(c.p50 <= c.p90 && c.p90 <= c.p99 && c.p99 <= c.max);
            }
        }
        // Canonical JSON round-trips through the stats export layer.
        let back = ServeSummary::parse(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn ls_pays_no_more_ownership_overhead_than_baseline() {
        // The paper's claim surfaced at serve scale: under a skewed OLTP
        // mix, LS eliminates ownership acquisitions the Baseline pays for.
        let cfg = tiny();
        let base = MachineConfig::oltp_scaled(ProtocolKind::Baseline);
        let s = summarize(&cfg, &serve_sweep(base, &cfg, &ProtocolKind::ALL));
        let find = |p: &str| s.rows.iter().find(|r| r.protocol == p).unwrap().clone();
        let baseline = find("Baseline");
        let ls = find("LS");
        assert!(
            ls.ownership_acquisitions < baseline.ownership_acquisitions,
            "LS {} vs Baseline {}",
            ls.ownership_acquisitions,
            baseline.ownership_acquisitions
        );
    }
}
