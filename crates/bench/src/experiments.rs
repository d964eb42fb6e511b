//! Experiment drivers, one per figure and table of the paper's evaluation.

use ccsim_engine::RunStats;
use ccsim_harness::JobSet;
use ccsim_stats::{RunSummary, Triptych};
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_util::{Json, ToJson};
use ccsim_workloads::{cholesky, lu, mp3d, oltp, Spec};
use std::io::Write as _;

/// Problem-size selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down sizes used by tests and Criterion benches.
    Quick,
    /// The paper's problem sizes (minutes of simulation).
    Paper,
}

impl Scale {
    /// Read `CCSIM_SCALE` (values `quick` / `paper`), defaulting as given.
    pub fn from_env(default: Scale) -> Scale {
        match std::env::var("CCSIM_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            Ok("quick") => Scale::Quick,
            _ => default,
        }
    }
}

fn mp3d_params(s: Scale) -> mp3d::Mp3dParams {
    match s {
        Scale::Paper => mp3d::Mp3dParams::paper(),
        Scale::Quick => mp3d::Mp3dParams::quick(),
    }
}

fn lu_params(s: Scale) -> lu::LuParams {
    match s {
        Scale::Paper => lu::LuParams::paper(),
        Scale::Quick => lu::LuParams::quick(),
    }
}

fn cholesky_params(s: Scale) -> cholesky::CholeskyParams {
    match s {
        Scale::Paper => cholesky::CholeskyParams::paper(),
        Scale::Quick => cholesky::CholeskyParams::quick(),
    }
}

fn oltp_params(s: Scale) -> oltp::OltpParams {
    match s {
        Scale::Paper => oltp::OltpParams::paper(),
        Scale::Quick => oltp::OltpParams::quick(),
    }
}

/// Run one workload spec under all three protocols (Baseline, AD, LS),
/// fanned across the harness worker pool and memoized by the run cache.
pub fn run_protocols(
    cfg_for: impl Fn(ProtocolKind) -> MachineConfig,
    spec: &Spec,
) -> Vec<RunStats> {
    let mut set = JobSet::new();
    for &k in &ProtocolKind::ALL {
        set.push(cfg_for(k), spec.clone());
    }
    set.run()
}

/// One triptych experiment (Figures 3, 4, 6, 7).
pub struct FigureRun {
    pub name: &'static str,
    pub runs: Vec<RunStats>,
}

impl FigureRun {
    pub fn triptych(&self) -> Triptych {
        Triptych::new(self.name, &self.runs)
    }

    pub fn render(&self) -> String {
        ccsim_stats::render_triptych(&self.triptych())
    }

    /// Persist per-protocol summaries to `target/repro/<tag>.json`.
    pub fn export(&self, tag: &str) {
        export_summaries(tag, &self.runs);
    }
}

/// Write run summaries as a JSON array under `target/repro/`.
pub fn export_summaries(tag: &str, runs: &[RunStats]) {
    let dir = std::path::Path::new("target/repro");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let summaries = Json::Arr(
        runs.iter()
            .map(|r| RunSummary::from_stats(r).to_json())
            .collect(),
    );
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{tag}.json"))) {
        let _ = write!(f, "{}", summaries.pretty());
    }
}

/// Figure 3: MP3D behaviour under Baseline/AD/LS.
pub fn fig3(scale: Scale) -> FigureRun {
    let spec = Spec::Mp3d(mp3d_params(scale));
    FigureRun {
        name: "MP3D (Figure 3)",
        runs: run_protocols(MachineConfig::splash_baseline, &spec),
    }
}

/// Figure 4: Cholesky behaviour at 4 processors.
pub fn fig4(scale: Scale) -> FigureRun {
    let spec = Spec::Cholesky(cholesky_params(scale));
    FigureRun {
        name: "Cholesky (Figure 4)",
        runs: run_protocols(MachineConfig::splash_baseline, &spec),
    }
}

/// Figure 5: Cholesky invalidation traffic at 4, 16 and 32 processors.
pub fn fig5(scale: Scale) -> Vec<(u16, Vec<RunStats>)> {
    let procs: &[u16] = match scale {
        Scale::Paper => &[4, 16, 32],
        Scale::Quick => &[4, 8],
    };
    let mut set = JobSet::new();
    for &p in procs {
        let mut params = cholesky_params(scale);
        params.procs = p;
        // Keep the total problem fixed while scaling processors, as the
        // paper does.
        let spec = Spec::Cholesky(params);
        for &k in &ProtocolKind::ALL {
            set.push(
                MachineConfig::splash_baseline(k).with_nodes(p),
                spec.clone(),
            );
        }
    }
    let runs = set.run();
    procs
        .iter()
        .zip(runs.chunks(ProtocolKind::ALL.len()))
        .map(|(&p, chunk)| (p, chunk.to_vec()))
        .collect()
}

/// Figure 6: LU behaviour.
pub fn fig6(scale: Scale) -> FigureRun {
    let spec = Spec::Lu(lu_params(scale));
    FigureRun {
        name: "LU (Figure 6)",
        runs: run_protocols(MachineConfig::splash_baseline, &spec),
    }
}

/// Figure 7: OLTP behaviour. Also the source of Tables 2 and 3.
pub fn fig7(scale: Scale) -> FigureRun {
    let spec = Spec::Oltp(oltp_params(scale));
    FigureRun {
        name: "OLTP (Figure 7)",
        runs: run_protocols(MachineConfig::oltp_scaled, &spec),
    }
}

/// Table 2 needs the Baseline OLTP run (occurrence is protocol-independent
/// in the limit; the paper measures it on the unmodified protocol).
pub fn table2(runs: &FigureRun) -> String {
    ccsim_stats::render_table2(&runs.runs[0])
}

/// Table 3: coverage of LS and AD on OLTP.
pub fn table3(runs: &FigureRun) -> String {
    let ls = runs
        .runs
        .iter()
        .find(|r| r.protocol == ProtocolKind::Ls)
        .unwrap();
    let ad = runs
        .runs
        .iter()
        .find(|r| r.protocol == ProtocolKind::Ad)
        .unwrap();
    ccsim_stats::render_table3(ls, ad)
}

/// Table 4: false-sharing fraction vs block size, OLTP Baseline runs.
pub fn tab4(scale: Scale) -> Vec<(u64, RunStats)> {
    let sizes: &[u64] = match scale {
        Scale::Paper => &[16, 32, 64, 128, 256],
        Scale::Quick => &[16, 32, 64],
    };
    let mut set = JobSet::new();
    for &bs in sizes {
        let spec = Spec::Oltp(oltp_params(scale));
        set.push(
            MachineConfig::oltp_scaled(ProtocolKind::Baseline).with_block_bytes(bs),
            spec,
        );
    }
    sizes.iter().copied().zip(set.run()).collect()
}

/// Static (compiler, instruction-centric) vs dynamic (AD, LS) comparison
/// on OLTP — the discussion of §2.1/§6 and the paper's prior study \[12\]:
/// static load-exclusive hints only reach the tight read-modify-writes a
/// dataflow analysis can prove, so their coverage on OLTP trails LS.
///
/// Returns runs in order: Baseline, Static (Baseline + hints), AD, LS.
pub fn static_comparison(scale: Scale) -> Vec<RunStats> {
    let mut set = JobSet::new();
    // Baseline.
    set.push(
        MachineConfig::oltp_scaled(ProtocolKind::Baseline),
        Spec::Oltp(oltp_params(scale)),
    );
    // Static: plain write-invalidate hardware + compiler hints.
    let mut p = oltp_params(scale);
    p.static_hints = true;
    set.push(
        MachineConfig::oltp_scaled(ProtocolKind::Baseline),
        Spec::Oltp(p),
    );
    // Dynamic techniques.
    for kind in [ProtocolKind::Ad, ProtocolKind::Ls] {
        set.push(
            MachineConfig::oltp_scaled(kind),
            Spec::Oltp(oltp_params(scale)),
        );
    }
    set.run()
}

/// Render the static-vs-dynamic comparison.
pub fn render_static_comparison(runs: &[RunStats]) -> String {
    use std::fmt::Write as _;
    let labels = ["Baseline", "Static", "AD", "LS"];
    let base = runs[0].total_cycles() as f64;
    let base_ws = runs[0].write_stall() as f64;
    let mut s = String::new();
    let _ = writeln!(s, "== Static (compiler) vs dynamic (AD/LS) on OLTP ==");
    let _ = writeln!(
        s,
        "{:>9} {:>11} {:>13} {:>13} {:>14}",
        "technique", "exec (%)", "write stall", "silent stores", "traffic bytes"
    );
    for (label, r) in labels.iter().zip(runs) {
        let _ = writeln!(
            s,
            "{:>9} {:>10.1} {:>12.1}% {:>13} {:>14}",
            label,
            100.0 * r.total_cycles() as f64 / base,
            100.0 * r.write_stall() as f64 / base_ws,
            r.machine.silent_stores,
            r.traffic.total_bytes(),
        );
    }
    s
}

/// §6 related-work comparison: dynamic self-invalidation (Lebeck & Wood,
/// simplified to tear-off grants) against Baseline, AD, and LS on OLTP.
/// DSI attacks the same invalidation overhead from the read side — the
/// paper argues LS achieves the effect with far less complexity.
///
/// Returns runs in order: Baseline, DSI, AD, LS.
pub fn dsi_comparison(scale: Scale) -> Vec<RunStats> {
    let mut set = JobSet::new();
    for k in [
        ProtocolKind::Baseline,
        ProtocolKind::Dsi,
        ProtocolKind::Ad,
        ProtocolKind::Ls,
    ] {
        set.push(
            MachineConfig::oltp_scaled(k),
            Spec::Oltp(oltp_params(scale)),
        );
    }
    set.run()
}

/// Render the DSI comparison.
pub fn render_dsi(runs: &[RunStats]) -> String {
    use std::fmt::Write as _;
    let base = &runs[0];
    let mut s = String::new();
    let _ = writeln!(s, "== DSI (self-invalidation) vs AD vs LS on OLTP (§6) ==");
    let _ = writeln!(
        s,
        "{:>9} {:>9} {:>14} {:>13} {:>12} {:>12}",
        "technique", "exec (%)", "invalidations", "read misses", "tear-offs", "traffic (B)"
    );
    for r in runs {
        let _ = writeln!(
            s,
            "{:>9} {:>8.1} {:>14} {:>13} {:>12} {:>12}",
            r.protocol.label(),
            100.0 * r.total_cycles() as f64 / base.total_cycles() as f64,
            r.dir.invalidations_requested,
            r.dir.global_reads,
            r.dir.tear_grants,
            r.traffic.total_bytes(),
        );
    }
    s
}

/// §4.2/§5.2 cache-variation analysis: Cholesky across L2 sizes. The paper:
/// "At larger cache sizes, with fewer replacements, the ability of LS to
/// reduce more ownership overhead than AD decreases."
pub fn cache_size_sweep(scale: Scale) -> Vec<(u64, Vec<RunStats>)> {
    let sizes_kb: &[u64] = match scale {
        Scale::Paper => &[64, 128, 256, 512],
        Scale::Quick => &[8, 32, 128],
    };
    let mut set = JobSet::new();
    for &kb in sizes_kb {
        let spec = Spec::Cholesky(cholesky_params(scale));
        for &k in &ProtocolKind::ALL {
            let mut cfg = MachineConfig::splash_baseline(k);
            cfg.l2.size_bytes = kb * 1024;
            set.push(cfg, spec.clone());
        }
    }
    let runs = set.run();
    sizes_kb
        .iter()
        .zip(runs.chunks(ProtocolKind::ALL.len()))
        .map(|(&kb, chunk)| (kb, chunk.to_vec()))
        .collect()
}

/// Block-size sweep for MP3D (the §5.5 "variation analysis ... for all
/// applications"; Table 4 covers OLTP's block sweep separately).
pub fn block_size_sweep(scale: Scale) -> Vec<(u64, Vec<RunStats>)> {
    let sizes: &[u64] = match scale {
        Scale::Paper => &[16, 32, 64, 128],
        Scale::Quick => &[16, 64],
    };
    let mut set = JobSet::new();
    for &bs in sizes {
        let spec = Spec::Mp3d(mp3d_params(scale));
        for &k in &ProtocolKind::ALL {
            set.push(
                MachineConfig::splash_baseline(k).with_block_bytes(bs),
                spec.clone(),
            );
        }
    }
    let runs = set.run();
    sizes
        .iter()
        .zip(runs.chunks(ProtocolKind::ALL.len()))
        .map(|(&bs, chunk)| (bs, chunk.to_vec()))
        .collect()
}

/// Render a sweep: one row per (parameter, protocol).
pub fn render_sweep(title: &str, unit: &str, rows: &[(u64, Vec<RunStats>)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = writeln!(
        s,
        "{:>8} {:>9} | {:>9} {:>12} {:>12} {:>13}",
        unit, "protocol", "exec (%)", "write stall", "read misses", "traffic (B)"
    );
    for (param, runs) in rows {
        let base = &runs[0];
        for r in runs {
            let _ = writeln!(
                s,
                "{:>8} {:>9} | {:>8.1} {:>12} {:>12} {:>13}",
                param,
                r.protocol.label(),
                100.0 * r.total_cycles() as f64 / base.total_cycles() as f64,
                r.write_stall(),
                r.dir.global_reads,
                r.traffic.total_bytes(),
            );
        }
    }
    s
}

/// Interconnect ablation (extension): the paper's fixed-delay
/// point-to-point network vs a 2-D mesh, where distance costs hops and
/// middle links are contention points. LS's traffic reduction pays off
/// *more* on the mesh because ownership messages cross multiple contended
/// links.
pub fn topology_ablation(scale: Scale) -> Vec<(String, Vec<RunStats>)> {
    use ccsim_types::Topology;
    let procs: u16 = 16;
    let mut params = cholesky_params(scale);
    params.procs = procs;
    let spec = Spec::Cholesky(params);
    let topologies = [
        ("point-to-point", Topology::PointToPoint),
        ("4x4 mesh", Topology::Mesh2D { width: 4 }),
    ];
    let mut set = JobSet::new();
    for (_, topo) in topologies {
        for &k in &ProtocolKind::ALL {
            let mut cfg = MachineConfig::splash_baseline(k).with_nodes(procs);
            cfg.topology = topo;
            set.push(cfg, spec.clone());
        }
    }
    let runs = set.run();
    topologies
        .iter()
        .zip(runs.chunks(ProtocolKind::ALL.len()))
        .map(|((label, _), chunk)| (format!("Cholesky @16P / {label}"), chunk.to_vec()))
        .collect()
}

/// Render the topology ablation.
pub fn render_topology(entries: &[(String, Vec<RunStats>)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "== Interconnect ablation: point-to-point vs 2-D mesh ==");
    for (label, runs) in entries {
        let base = &runs[0];
        let _ = writeln!(s, "-- {label} --");
        for r in runs {
            let _ = writeln!(
                s,
                "  {:>9}: exec {:>12} ({:>5.1}%)  traffic {:>11}B ({:>5.1}%)",
                r.protocol.label(),
                r.exec_cycles,
                100.0 * r.total_cycles() as f64 / base.total_cycles() as f64,
                r.traffic.total_bytes(),
                100.0 * r.traffic.total_bytes() as f64 / base.traffic.total_bytes() as f64,
            );
        }
    }
    s
}

/// §6 consistency ablation: the same workloads under the paper's
/// sequential-consistency model and under an idealized relaxed model
/// (writes retire into a write buffer). The paper predicts: "under more
/// relaxed memory models this reduction of write stall time is probably
/// reduced ... \[the\] technique however has a potential to reduce network
/// traffic under any memory model."
///
/// Returns (workload, consistency label, runs Baseline/AD/LS).
pub fn consistency_ablation(scale: Scale) -> Vec<(String, Vec<RunStats>)> {
    use ccsim_types::Consistency;
    let mut out = Vec::new();
    type Case = (&'static str, Spec, fn(ProtocolKind) -> MachineConfig);
    let cases: Vec<Case> = vec![
        (
            "MP3D",
            Spec::Mp3d(mp3d_params(scale)),
            MachineConfig::splash_baseline,
        ),
        (
            "OLTP",
            Spec::Oltp(oltp_params(scale)),
            MachineConfig::oltp_scaled,
        ),
    ];
    let mut set = JobSet::new();
    let mut labels = Vec::new();
    for (wl, spec, cfg_for) in cases {
        for cons in [Consistency::Sc, Consistency::Relaxed] {
            labels.push(format!("{wl} / {cons:?}"));
            for &k in &ProtocolKind::ALL {
                let mut cfg = cfg_for(k);
                cfg.consistency = cons;
                set.push(cfg, spec.clone());
            }
        }
    }
    let runs = set.run();
    for (label, chunk) in labels.into_iter().zip(runs.chunks(ProtocolKind::ALL.len())) {
        out.push((label, chunk.to_vec()));
    }
    out
}

/// Render the consistency ablation.
pub fn render_consistency(entries: &[(String, Vec<RunStats>)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "== §6 ablation: SC vs relaxed consistency ==");
    for (label, runs) in entries {
        let base = &runs[0];
        let _ = writeln!(s, "-- {label} --");
        for r in runs {
            let _ = writeln!(
                s,
                "  {:>9}: exec {:>5.1}%  write stall {:>5.1}%  traffic {:>5.1}%",
                r.protocol.label(),
                100.0 * r.total_cycles() as f64 / base.total_cycles() as f64,
                if base.write_stall() == 0 {
                    0.0
                } else {
                    100.0 * r.write_stall() as f64 / base.write_stall() as f64
                },
                100.0 * r.traffic.total_bytes() as f64 / base.traffic.total_bytes() as f64,
            );
        }
    }
    s
}

/// §5.5 variation analysis: protocol-variant knobs on MP3D and OLTP.
pub struct VariationReport {
    /// (label, runs) — each entry compares a variant against its base.
    pub entries: Vec<(String, Vec<RunStats>)>,
}

pub fn variation(scale: Scale) -> VariationReport {
    let mut set = JobSet::new();
    // (label, number of runs in the group) — sliced from the batch below.
    let mut groups: Vec<(String, usize)> = Vec::new();

    // Default tagging (LS and AD): every block starts tagged, so even cold
    // reads return exclusive copies.
    let mp3d_spec = Spec::Mp3d(mp3d_params(scale));
    for (kind, default_tagged) in [
        (ProtocolKind::Ls, false),
        (ProtocolKind::Ls, true),
        (ProtocolKind::Ad, false),
        (ProtocolKind::Ad, true),
    ] {
        let mut cfg = MachineConfig::splash_baseline(kind);
        cfg.protocol.ls.default_tagged = default_tagged && kind == ProtocolKind::Ls;
        cfg.protocol.ad.default_tagged = default_tagged && kind == ProtocolKind::Ad;
        set.push(cfg, mp3d_spec.clone());
    }
    groups.push((
        "MP3D default tagging (LS, LS+default, AD, AD+default)".into(),
        4,
    ));

    // De-tag keep-heuristic on OLTP.
    let oltp_spec = Spec::Oltp(oltp_params(scale));
    for keep in [false, true] {
        let mut cfg = MachineConfig::oltp_scaled(ProtocolKind::Ls);
        cfg.protocol.ls.keep_on_unpaired_write = keep;
        set.push(cfg, oltp_spec.clone());
    }
    groups.push(("OLTP LS de-tag keep-heuristic (off, on)".into(), 2));

    // Two-step hysteresis on OLTP (tagging, then de-tagging).
    for (tag_h, detag_h) in [(1u8, 1u8), (2, 1), (1, 2)] {
        let mut cfg = MachineConfig::oltp_scaled(ProtocolKind::Ls);
        cfg.protocol.ls.tag_hysteresis = tag_h;
        cfg.protocol.ls.detag_hysteresis = detag_h;
        set.push(cfg, oltp_spec.clone());
    }
    groups.push(("OLTP LS hysteresis (1/1, tag=2, detag=2)".into(), 3));

    let mut runs = set.run();
    let mut entries = Vec::new();
    for (label, len) in groups {
        let rest = runs.split_off(len);
        entries.push((label, std::mem::replace(&mut runs, rest)));
    }
    VariationReport { entries }
}

/// Render the variation report.
pub fn render_variation(v: &VariationReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "== §5.5 variation analysis ==");
    for (label, runs) in &v.entries {
        let _ = writeln!(s, "-- {label} --");
        for r in runs {
            let _ = writeln!(
                s,
                "  {:>9}: exec={:>12} write_stall={:>11} traffic={:>11}B read_misses={:>8}",
                r.protocol.label(),
                r.total_cycles(),
                r.write_stall(),
                r.traffic.total_bytes(),
                r.dir.global_reads,
            );
        }
    }
    s
}

/// The machine parameters of Table 1, rendered for `repro_config`.
pub fn render_table1() -> String {
    use std::fmt::Write as _;
    let c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
    let l = c.latency;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Table 1: cache parameters and memory system latencies =="
    );
    let _ = writeln!(
        s,
        "L1 access time        {:>6} cycle(s)",
        c.l1.access_cycles
    );
    let _ = writeln!(
        s,
        "L1 size               {:>6} kB (4/16/32/64 supported)",
        c.l1.size_bytes / 1024
    );
    let _ = writeln!(s, "L1 associativity      {:>6} (1/2 supported)", c.l1.assoc);
    let _ = writeln!(
        s,
        "L1 block size         {:>6} B (16/32/64/128 supported)",
        c.l1.block_bytes
    );
    let _ = writeln!(s, "L2 access time        {:>6} cycles", c.l2.access_cycles);
    let _ = writeln!(
        s,
        "L2 size               {:>6} kB (64/512/1024/2048 supported)",
        c.l2.size_bytes / 1024
    );
    let _ = writeln!(s, "L2 associativity      {:>6}", c.l2.assoc);
    let _ = writeln!(s, "Memory access time    {:>6} cycles", l.mem);
    let _ = writeln!(s, "Network traversal     {:>6} cycles", l.net);
    let _ = writeln!(s, "Memory controller     {:>6} cycles", l.mc);
    let _ = writeln!(
        s,
        "Local access          {:>6} cycles (derived)",
        l.local_miss()
    );
    let _ = writeln!(
        s,
        "Home access           {:>6} cycles (derived)",
        l.home_miss()
    );
    let _ = writeln!(
        s,
        "Remote access         {:>6} cycles (derived)",
        l.remote_miss()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults() {
        // No env manipulation (tests run in parallel): just check default
        // passthrough when the variable is unset or unrecognized.
        let s = Scale::from_env(Scale::Quick);
        assert!(s == Scale::Quick || s == Scale::Paper);
    }

    #[test]
    fn table1_contains_derived_latencies() {
        let t = render_table1();
        assert!(t.contains("100 cycles"));
        assert!(t.contains("220 cycles"));
        assert!(t.contains("420 cycles"));
    }

    #[test]
    fn fig3_quick_runs_and_renders() {
        let f = fig3(Scale::Quick);
        assert_eq!(f.runs.len(), 3);
        let out = f.render();
        assert!(out.contains("MP3D"));
        // LS must not lose to Baseline on total time.
        let t = f.triptych();
        let ls = t.run(ProtocolKind::Ls).unwrap();
        assert!(ls.time_total() <= 100.0 + 1e-9);
    }

    #[test]
    fn fig5_quick_has_one_row_per_proc_count() {
        let rows = fig5(Scale::Quick);
        assert_eq!(rows.len(), 2);
        for (p, runs) in &rows {
            assert!(*p >= 4);
            assert_eq!(runs.len(), 3);
        }
        let out = ccsim_stats::render_fig5(&rows);
        assert!(out.contains("Figure 5"));
    }

    #[test]
    fn tab4_false_sharing_grows_with_block_size() {
        let rows = tab4(Scale::Quick);
        let first = rows.first().unwrap().1.false_sharing.false_fraction();
        let last = rows.last().unwrap().1.false_sharing.false_fraction();
        assert!(
            last > first,
            "false sharing should grow with block size: {first:.3} -> {last:.3}"
        );
        let out = ccsim_stats::render_table4(&rows);
        assert!(out.contains("Block size"));
    }
}
