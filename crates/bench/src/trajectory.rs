//! The benchmark trajectory: structured `BENCH_*.json` records and the
//! regression comparator that gates them in CI.
//!
//! Each repo-growth PR that changes performance appends one committed
//! `BENCH_NNNN.json` snapshot — the *trajectory* — so perf claims stay
//! falsifiable. A record carries wall-clock, captured-access throughput and
//! within-run speedup for the quick reproduction, all as integers (micros,
//! counts, per-mille ratios) so the canonical JSON writer round-trips them
//! byte-exactly with no float formatting hazards.
//!
//! The comparator ([`compare`]) checks a freshly measured summary against
//! the committed baseline:
//!
//! * wall-clock may not exceed the baseline by more than the tolerance band
//!   (default 1.75× — wide enough for runner-to-runner noise, tight enough
//!   to flag a genuine 2× slowdown);
//! * any metric whose baseline speedup cleared the floor (default 1.5×,
//!   the acceptance bar) must keep clearing it — this ratio is
//!   machine-independent, so it gates strictly even on slower CI hardware;
//! * metrics present in the baseline may not disappear.

use std::time::Instant;

use ccsim_util::{json_record, FromJson, Json, ToJson};

/// Format tag pinned by the golden-schema test; bump on layout changes.
pub const BENCH_SCHEMA: &str = "ccsim-bench-trajectory-v1";

/// One measured quantity of the quick reproduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchMetric {
    /// Stable metric name, e.g. `engine_fiber_mp3d`.
    pub name: String,
    /// Wall-clock of the measured section, microseconds.
    pub wall_us: u64,
    /// Memory accesses the section performed (captured trace length).
    pub accesses: u64,
    /// `accesses / wall seconds`, rounded down.
    pub accesses_per_sec: u64,
    /// Speedup over the metric's 1-worker reference variant, in 1/1000
    /// units (1500 = 1.5×). Zero when the metric has no reference.
    pub speedup_per_mille: u64,
}

json_record!(BenchMetric {
    name,
    wall_us,
    accesses,
    accesses_per_sec,
    speedup_per_mille
});

impl BenchMetric {
    /// Assemble a metric from a timed section; throughput and the speedup
    /// ratio are derived here so every caller rounds identically.
    pub fn from_timing(name: &str, wall_us: u64, accesses: u64, reference_us: Option<u64>) -> Self {
        let wall = wall_us.max(1);
        BenchMetric {
            name: name.to_string(),
            wall_us,
            accesses,
            accesses_per_sec: accesses.saturating_mul(1_000_000) / wall,
            speedup_per_mille: reference_us
                .map(|r| r.saturating_mul(1000) / wall)
                .unwrap_or(0),
        }
    }
}

/// One committed `BENCH_*.json` snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchSummary {
    /// Trajectory id, e.g. `BENCH_0006`.
    pub bench: String,
    /// Scale the numbers were measured at (`quick` for CI).
    pub scale: String,
    pub metrics: Vec<BenchMetric>,
}

impl BenchSummary {
    pub fn metric(&self, name: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Canonical JSON bytes — what gets committed and diffed.
    pub fn to_canonical_json(&self) -> String {
        self.to_json().to_string()
    }

    pub fn from_canonical_json(s: &str) -> Result<BenchSummary, String> {
        BenchSummary::from_text(s)
    }
}

impl ToJson for BenchSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", BENCH_SCHEMA.to_json()),
            ("bench", self.bench.to_json()),
            ("scale", self.scale.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl FromJson for BenchSummary {
    /// Hand-written rather than a `json_record!`: the schema tag is a
    /// constant, checked on decode.
    fn from_json(j: &Json) -> Result<Self, String> {
        let schema: String = j.field("schema")?;
        if schema != BENCH_SCHEMA {
            return Err(format!("unknown bench schema {schema:?}"));
        }
        Ok(BenchSummary {
            bench: j.field("bench")?,
            scale: j.field("scale")?,
            metrics: j.field("metrics")?,
        })
    }
}

/// The regression-gate tolerance band.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Maximum allowed `current.wall / baseline.wall`, per-mille.
    pub max_slowdown_per_mille: u64,
    /// Floor for any metric that recorded a speedup, per-mille.
    pub min_speedup_per_mille: u64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            max_slowdown_per_mille: 1750,
            min_speedup_per_mille: 1500,
        }
    }
}

/// One comparator complaint, human-readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Regression {
    pub metric: String,
    pub detail: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.metric, self.detail)
    }
}

/// Compare a fresh measurement against the committed baseline. Empty result
/// means the gate passes.
pub fn compare(
    baseline: &BenchSummary,
    current: &BenchSummary,
    tol: &Tolerance,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.metrics {
        let Some(cur) = current.metric(&base.name) else {
            out.push(Regression {
                metric: base.name.clone(),
                detail: "metric missing from current measurement".to_string(),
            });
            continue;
        };
        // Wall-clock band: slowdown beyond the tolerance is a regression.
        // (Speedups and small noise pass; `base.wall_us` is never 0 because
        // `from_timing` clamps, but guard anyway.)
        if base.wall_us > 0
            && cur.wall_us.saturating_mul(1000)
                > base.wall_us.saturating_mul(tol.max_slowdown_per_mille)
        {
            out.push(Regression {
                metric: base.name.clone(),
                detail: format!(
                    "wall-clock {}us vs baseline {}us exceeds {}.{:03}x tolerance",
                    cur.wall_us,
                    base.wall_us,
                    tol.max_slowdown_per_mille / 1000,
                    tol.max_slowdown_per_mille % 1000,
                ),
            });
        }
        // Speedup floor: machine-independent, so no band — a metric whose
        // baseline cleared the floor must keep clearing it. (Metrics that
        // merely *record* a sub-floor ratio are informational and not
        // gated.)
        if base.speedup_per_mille >= tol.min_speedup_per_mille
            && cur.speedup_per_mille < tol.min_speedup_per_mille
        {
            out.push(Regression {
                metric: base.name.clone(),
                detail: format!(
                    "speedup {}.{:03}x fell below the {}.{:03}x floor",
                    cur.speedup_per_mille / 1000,
                    cur.speedup_per_mille % 1000,
                    tol.min_speedup_per_mille / 1000,
                    tol.min_speedup_per_mille % 1000,
                ),
            });
        }
    }
    out
}

/// Time one closure, returning (wall microseconds, closure result).
pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_micros() as u64, out)
}

/// Run one workload live with an explicit engine backend (the bench needs
/// both backends in one process, so the `CCSIM_SIM_ENGINE` default is not
/// enough).
fn run_live(
    cfg: ccsim_types::MachineConfig,
    spec: &ccsim_workloads::Spec,
    kind: ccsim_engine::EngineKind,
) -> ccsim_engine::RunStats {
    use ccsim_workloads::{cholesky, lu, mp3d, oltp, Spec};
    let mut b = ccsim_engine::SimBuilder::new(cfg);
    b.engine(kind);
    match spec {
        Spec::Mp3d(p) => mp3d::build(&mut b, p),
        Spec::Lu(p) => {
            lu::build(&mut b, p);
        }
        Spec::Cholesky(p) => {
            cholesky::build(&mut b, p);
        }
        Spec::Oltp(p) => {
            oltp::build(&mut b, p);
        }
    }
    b.run()
}

/// Measure the quick reproduction and assemble the trajectory record.
///
/// Metrics per workload (MP3D / Cholesky / LU quick, LS protocol):
///
/// * `engine_fiber_<w>` — live simulation on the fiber backend; its
///   speedup reference is the seed's thread-per-processor backend, so the
///   ratio records the within-run engine speedup this trajectory exists to
///   defend (the ≥1.5× acceptance bar).
/// * `replay_serial_<w>` — trace replay through `ccsim_engine::replay`.
/// * `warm_cache_replay_<w>` — re-running the workload through the run
///   cache with a warm entry (deserialize instead of simulate).
pub fn measure_quick(bench: &str) -> BenchSummary {
    use ccsim_engine::{fiber, EngineKind};
    use ccsim_harness::{run_cached_at, CacheMode};
    use ccsim_types::{MachineConfig, ProtocolKind};
    use ccsim_workloads::{capture_spec, cholesky, lu, mp3d, Spec};

    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    let fiber_kind = if fiber::supported() {
        EngineKind::Fiber
    } else {
        EngineKind::Threads
    };
    let cache_dir =
        std::env::temp_dir().join(format!("ccsim-bench-{}-{}", bench, std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut metrics = Vec::new();
    let specs = [
        ("mp3d", Spec::Mp3d(mp3d::Mp3dParams::quick())),
        (
            "cholesky",
            Spec::Cholesky(cholesky::CholeskyParams::quick()),
        ),
        ("lu", Spec::Lu(lu::LuParams::quick())),
    ];
    for (name, spec) in &specs {
        let (_, trace) = capture_spec(cfg, spec);
        let accesses = trace.len() as u64;

        let (threads_us, _) = timed(|| run_live(cfg, spec, EngineKind::Threads));
        let (fiber_us, _) = timed(|| run_live(cfg, spec, fiber_kind));
        metrics.push(BenchMetric::from_timing(
            &format!("engine_fiber_{name}"),
            fiber_us,
            accesses,
            Some(threads_us),
        ));

        let (replay_us, _) = timed(|| ccsim_engine::replay(cfg, &trace, &[]));
        metrics.push(BenchMetric::from_timing(
            &format!("replay_serial_{name}"),
            replay_us,
            accesses,
            None,
        ));

        run_cached_at(cfg, spec, CacheMode::ReadWrite, &cache_dir); // cold fill
        let (warm_us, _) = timed(|| run_cached_at(cfg, spec, CacheMode::ReadWrite, &cache_dir));
        metrics.push(BenchMetric::from_timing(
            &format!("warm_cache_replay_{name}"),
            warm_us,
            accesses,
            None,
        ));
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    BenchSummary {
        bench: bench.to_string(),
        scale: "quick".to_string(),
        metrics,
    }
}

/// Measure the serve-scale trajectory (`BENCH_0008`): the quick serve
/// sweep at two zipf skew points (s = 0.5 mild, s = 1.2 hot), each run
/// across Baseline/AD/LS.
///
/// Two metric families per skew point:
///
/// * `serve_sweep_serial_<s>` — wall-clock of the sweep.
/// * `serve_p99c_<protocol>_<s>` — the RMW class's p99 in **simulated
///   cycles**, carried in the `wall_us` field. These are bit-deterministic
///   (no runner noise at all), so the comparator's wall-clock band doubles
///   as a behaviour-drift tripwire: a protocol change that moves serve
///   tail latency by more than the band fails the gate.
pub fn measure_serve(bench: &str) -> BenchSummary {
    use ccsim_serve::{serve_sweep, summarize, ServeConfig};
    use ccsim_types::{MachineConfig, ProtocolKind};

    let base = MachineConfig::oltp_scaled(ProtocolKind::Baseline);
    let mut metrics = Vec::new();
    for (tag, skew) in [("s500", 500u32), ("s1200", 1200u32)] {
        let mut cfg = ServeConfig::quick();
        cfg.clients = 2_000;
        cfg.accounts = 4_096;
        cfg.index_words = 8_192;
        cfg.ward.check_every = 64;
        cfg.ward.max_cycles = 1_200_000;
        cfg.skew_per_mille = skew;

        let (sweep_us, reports) = timed(|| serve_sweep(base, &cfg, &ProtocolKind::ALL));
        let completed: u64 = reports.iter().map(|r| r.completed).sum();
        metrics.push(BenchMetric::from_timing(
            &format!("serve_sweep_serial_{tag}"),
            sweep_us,
            completed,
            None,
        ));

        let s = summarize(&cfg, &reports);
        for row in &s.rows {
            let rmw = row
                .classes
                .iter()
                .find(|c| c.class == "rmw")
                .expect("serve summary always carries an rmw class");
            metrics.push(BenchMetric::from_timing(
                &format!("serve_p99c_{}_{tag}", row.protocol.to_lowercase()),
                rmw.p99,
                rmw.count,
                None,
            ));
        }
    }

    BenchSummary {
        bench: bench.to_string(),
        scale: "quick".to_string(),
        metrics,
    }
}

/// Measure the linter trajectory (`BENCH_0010`): wall time of the
/// three-layer semantic analysis over this workspace's own sources.
///
/// * `lint_parse_workspace` — layer 1+2 alone: lex and parse every source
///   file into the AST. The `accesses` column carries total source lines,
///   so `accesses_per_sec` is parse throughput in lines/second.
/// * `lint_semantic_workspace` — the full `ccsim lint` pass: parse plus
///   symbol table, call graph, and every interprocedural rule. Its speedup
///   reference is the parse-only time, so the ratio records how much of the
///   wall the semantic layers cost on top of parsing (a per-mille value
///   *below* 1000 — informational, not gated by the speedup floor).
pub fn measure_lint(bench: &str) -> BenchSummary {
    use ccsim_lint::{lint_workspace, LintConfig};

    // The workspace root relative to this crate's manifest — independent of
    // the directory the bench binary is invoked from.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = ccsim_lint::source::workspace_files(&root).expect("enumerate workspace sources");
    let lines: u64 = files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map(|s| s.lines().count() as u64)
                .unwrap_or(0)
        })
        .sum();

    let (parse_us, parsed) = timed(|| {
        files
            .iter()
            .filter_map(|p| std::fs::read_to_string(p).ok())
            .map(|src| {
                ccsim_lint::parse::parse(&ccsim_lint::lexer::lex(&src).tokens)
                    .items
                    .len()
            })
            .sum::<usize>()
    });
    assert!(parsed > 0, "parser must recover items from the workspace");

    let cfg = LintConfig::workspace();
    let (lint_us, diags) = timed(|| lint_workspace(&root, &cfg).expect("lint workspace"));
    assert!(
        diags.is_empty(),
        "the workspace must stay clean under its own linter: {diags:?}"
    );

    BenchSummary {
        bench: bench.to_string(),
        scale: "quick".to_string(),
        metrics: vec![
            BenchMetric::from_timing("lint_parse_workspace", parse_us, lines, None),
            BenchMetric::from_timing("lint_semantic_workspace", lint_us, lines, Some(parse_us)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSummary {
        BenchSummary {
            bench: "BENCH_TEST".to_string(),
            scale: "quick".to_string(),
            metrics: vec![
                BenchMetric::from_timing("engine_fiber_mp3d", 10_000, 50_000, Some(80_000)),
                BenchMetric::from_timing("warm_cache_replay", 2_000, 0, None),
            ],
        }
    }

    #[test]
    fn canonical_json_round_trips() {
        let s = sample();
        let json = s.to_canonical_json();
        let back = BenchSummary::from_canonical_json(&json).unwrap();
        assert_eq!(back, s);
        // Canonical means stable: re-encoding gives the same bytes.
        assert_eq!(back.to_canonical_json(), json);
    }

    #[test]
    fn decode_rejects_foreign_schema() {
        let json = sample().to_canonical_json().replace("-v1", "-v999");
        assert!(BenchSummary::from_canonical_json(&json)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn derived_fields_are_computed_consistently() {
        let m = BenchMetric::from_timing("x", 10_000, 50_000, Some(80_000));
        assert_eq!(m.accesses_per_sec, 5_000_000);
        assert_eq!(m.speedup_per_mille, 8_000); // 80ms reference / 10ms = 8x
        let no_ref = BenchMetric::from_timing("y", 10_000, 1, None);
        assert_eq!(no_ref.speedup_per_mille, 0);
        // Zero wall is clamped rather than dividing by zero.
        assert_eq!(
            BenchMetric::from_timing("z", 0, 7, None).accesses_per_sec,
            7_000_000
        );
    }

    #[test]
    fn comparator_flags_twofold_slowdown() {
        let base = sample();
        let mut slow = base.clone();
        for m in &mut slow.metrics {
            m.wall_us *= 2;
        }
        let regressions = compare(&base, &slow, &Tolerance::default());
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions[0].detail.contains("tolerance"));
    }

    #[test]
    fn comparator_accepts_in_tolerance_noise() {
        let base = sample();
        let mut noisy = base.clone();
        for m in &mut noisy.metrics {
            m.wall_us = m.wall_us * 12 / 10; // 1.2x — within the 1.75x band
        }
        assert!(compare(&base, &noisy, &Tolerance::default()).is_empty());
        // Getting *faster* is never a regression.
        let mut fast = base.clone();
        for m in &mut fast.metrics {
            m.wall_us /= 4;
        }
        assert!(compare(&base, &fast, &Tolerance::default()).is_empty());
    }

    #[test]
    fn comparator_enforces_speedup_floor_and_presence() {
        let base = sample();
        let mut lost = base.clone();
        lost.metrics[0].speedup_per_mille = 1_100; // below the 1.5x floor
        let regressions = compare(&base, &lost, &Tolerance::default());
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].detail.contains("floor"));

        let mut missing = base.clone();
        missing.metrics.remove(1);
        let regressions = compare(&base, &missing, &Tolerance::default());
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].detail.contains("missing"));
    }
}
