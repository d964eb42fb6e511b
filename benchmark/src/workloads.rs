//! The five workloads: how each builds its inputs from the seed (set-up),
//! what one timed job does, and how a job's output is checked.
//!
//! Every workload is a closed loop with one client: jobs run one after
//! another, cycling through a fixed list of cells (input × protocol), so
//! the parent and the change do identical work per job.

use std::sync::Arc;

use ccsim_engine::{
    replay, replay_checked, replay_events, InvariantMode, RunStats, Trace, TraceOp,
};
use ccsim_model::{explore, verify, ModelConfig};
use ccsim_serve::{serve_run, ServeConfig, StopReason};
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_util::rng64::splitmix64;
use ccsim_util::{fnv1a64, ToJson};
use ccsim_workloads::{capture_spec, cholesky, lu, mp3d, oltp, run_spec, Spec};

use crate::spans::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LiveSplash,
    ReplayOltp,
    ChaosChecked,
    ServeZipf,
    ModelCheck,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LiveSplash,
        Workload::ReplayOltp,
        Workload::ChaosChecked,
        Workload::ServeZipf,
        Workload::ModelCheck,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveSplash => "live_splash",
            Workload::ReplayOltp => "replay_oltp",
            Workload::ChaosChecked => "chaos_checked",
            Workload::ServeZipf => "serve_zipf",
            Workload::ModelCheck => "model_check",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. The command line always runs `Bench`; `Quick` keeps the
/// same shapes small enough for debug-build tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Quick,
}

impl Scale {
    fn pick<T>(self, bench: T, quick: T) -> T {
        match self {
            Scale::Bench => bench,
            Scale::Quick => quick,
        }
    }
}

/// An independent 64-bit seed for input `tag` of run seed `seed`.
pub(crate) fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// The canonical chaos intensity (the robustness suite's reference plan).
pub(crate) const CHAOS_RATE: u16 = 60;

/// Loads, stores and load-exclusives in a trace.
pub fn trace_accesses(trace: &Trace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.op,
                TraceOp::Load(_) | TraceOp::Store(..) | TraceOp::LoadExclusive(_)
            )
        })
        .count() as u64
}

/// Loads, stores and load-exclusives a run simulated, from its counters:
/// every access either hits (L1, L2, dirty or silent store) or reaches the
/// directory as a global read or an ownership acquisition.
pub fn stats_accesses(s: &RunStats) -> u64 {
    s.machine.l1_hits
        + s.machine.l2_hits
        + s.machine.dirty_hits
        + s.machine.silent_stores
        + s.dir.global_reads
        + s.dir.ownership_acquisitions()
}

fn stats_digest(s: &RunStats) -> u64 {
    fnv1a64(s.to_json().to_string().as_bytes())
}

/// The fault-free replay a chaos cell must reproduce.
#[derive(Debug)]
pub struct ChaosReference {
    pub stats: RunStats,
    pub sc_fingerprint: Option<u64>,
}

/// What one job does.
#[derive(Debug)]
pub enum Job {
    /// A live fiber run of a workload program.
    Live { cfg: MachineConfig, spec: Spec },
    /// A serial trace replay; `expect` holds the live capture's stats when
    /// the replay runs under the capture's own configuration.
    Replay {
        cfg: MachineConfig,
        trace: Arc<Trace>,
        expect: Option<Arc<RunStats>>,
    },
    /// One chaos cell: a checked replay through a faulty transport, then an
    /// event-capturing replay and the SC-conformance check.
    Chaos {
        cfg: MachineConfig,
        trace: Arc<Trace>,
        reference: Arc<ChaosReference>,
    },
    /// One ward-stopped serve run.
    Serve {
        machine: MachineConfig,
        cfg: ServeConfig,
    },
    /// Bounded exploration followed by the parametric proof.
    Model {
        explore: ModelConfig,
        verify: ModelConfig,
    },
}

/// One (input, protocol) pair of a workload.
#[derive(Debug)]
pub struct Cell {
    pub label: String,
    /// Index of the distinct input this cell runs.
    pub input: usize,
    pub protocol: ProtocolKind,
    pub job: Job,
}

/// What a job produced.
#[derive(Clone, Debug)]
pub struct Output {
    /// Hash of everything the job computed; every repeat of a cell must
    /// reproduce its first job's digest.
    pub digest: u64,
    /// Units of work done: simulated accesses, serve transactions or
    /// explored model states.
    pub work: u64,
    /// Simulated statistics behind the paper metrics (engine jobs only).
    pub stats: Option<RunStats>,
}

impl Job {
    /// Run the job, checking what can be checked within one job.
    pub fn run(&self, tr: &mut Tracer) -> Result<Output, String> {
        match self {
            Job::Live { cfg, spec } => {
                let stats = tr.span("engine.run", |_| run_spec(*cfg, spec));
                Ok(engine_output(stats))
            }
            Job::Replay { cfg, trace, expect } => {
                let stats = tr.span("engine.trace.replay", |_| replay(*cfg, trace, &[]));
                if let Some(e) = expect {
                    if stats != **e {
                        return Err(
                            "replay under the capture protocol diverged from the live capture"
                                .into(),
                        );
                    }
                }
                Ok(engine_output(stats))
            }
            Job::Chaos {
                cfg,
                trace,
                reference,
            } => {
                let (stats, report) = tr.span("engine.invariants", |_| {
                    replay_checked(*cfg, trace, &[], InvariantMode::Check)
                });
                if let Some(v) = report.violations().first() {
                    return Err(format!("invariant violation: {v}"));
                }
                if let Some(group) = coherence_divergence(&reference.stats, &stats) {
                    return Err(format!("{group} diverged from the fault-free replay"));
                }
                let (_, log) = tr.span("engine.events", |_| replay_events(*cfg, trace, &[]));
                let race = tr.span("race", |_| ccsim_race::check(&cfg.protocol, &log));
                if !race.is_clean() {
                    return Err("faulty replay is not SC-conformant".into());
                }
                if race.sc_fingerprint != reference.sc_fingerprint {
                    return Err("SC witness diverged from the fault-free replay".into());
                }
                let mut out = engine_output(stats);
                out.digest ^= race.sc_fingerprint.unwrap_or(0).rotate_left(17);
                Ok(out)
            }
            Job::Serve { machine, cfg } => {
                let r = tr.span("serve", |_| serve_run(*machine, cfg));
                if r.stop != StopReason::ConvergedPercentiles {
                    return Err(format!("serve run stopped on {}", r.stop.label()));
                }
                Ok(Output {
                    digest: fnv1a64(format!("{r:?}").as_bytes()),
                    work: r.completed,
                    stats: Some(r.stats),
                })
            }
            Job::Model {
                explore: e,
                verify: v,
            } => {
                let ex = tr.span("model.explore", |_| explore(e))?;
                if let Some(cex) = &ex.counterexample {
                    return Err(format!("model counterexample: {}", cex.violation));
                }
                let proof = tr.span("model.verify", |_| verify(v))?;
                if let Some(cex) = &proof.counterexample {
                    return Err(format!("abstract counterexample: {}", cex.violation));
                }
                let m = ex.metrics;
                let key = format!(
                    "{} {} {} {} {} {} {} {} {} {}",
                    m.states,
                    m.transitions,
                    m.dedup_hits,
                    m.max_frontier,
                    m.max_depth,
                    m.state_fingerprint,
                    ex.terminal_states,
                    proof.metrics.states,
                    proof.metrics.transitions,
                    proof.metrics.fingerprint,
                );
                Ok(Output {
                    digest: fnv1a64(key.as_bytes()),
                    work: m.states + proof.metrics.states,
                    stats: None,
                })
            }
        }
    }
}

fn engine_output(stats: RunStats) -> Output {
    Output {
        digest: stats_digest(&stats),
        work: stats_accesses(&stats),
        stats: Some(stats),
    }
}

/// The first statistic group of a faulty replay that differs from the
/// fault-free one. Latency-side counters (cycles, traffic, retransmits,
/// NACKs) are exempt: transport recovery may cost time, never results.
fn coherence_divergence(base: &RunStats, faulty: &RunStats) -> Option<&'static str> {
    let hits = |s: &RunStats| {
        (
            s.machine.l1_hits,
            s.machine.l2_hits,
            s.machine.silent_stores,
            s.machine.dirty_hits,
        )
    };
    if faulty.oracle != base.oracle {
        Some("oracle classification")
    } else if faulty.dir != base.dir {
        Some("directory counters")
    } else if faulty.false_sharing != base.false_sharing {
        Some("false-sharing split")
    } else if hits(faulty) != hits(base) {
        Some("cache hit counters")
    } else {
        None
    }
}

/// The paper's LS-versus-Baseline comparison, in percent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperCut {
    /// 100 × (1 − ΣLS ÷ ΣBaseline) of ownership acquisitions per 1k
    /// accesses, summed over the workload's distinct inputs.
    pub ownacq_pct: f64,
    /// The same ratio for write-stall cycles per 1k accesses.
    pub write_stall_pct: f64,
}

/// [`PaperCut`] from the first output of every cell.
pub fn paper_cut(cells: &[Cell], first: &[Option<Output>]) -> Result<PaperCut, String> {
    let inputs = cells.iter().map(|c| c.input + 1).max().unwrap_or(0);
    // [input] -> [Baseline, LS]
    let mut pairs: Vec<[Option<&RunStats>; 2]> = vec![[None; 2]; inputs];
    for (cell, out) in cells.iter().zip(first) {
        let slot = match cell.protocol {
            ProtocolKind::Baseline => 0,
            ProtocolKind::Ls => 1,
            _ => continue,
        };
        let stats = out
            .as_ref()
            .and_then(|o| o.stats.as_ref())
            .ok_or_else(|| format!("cell {} produced no statistics", cell.label))?;
        pairs[cell.input][slot] = Some(stats);
    }
    let pairs = pairs
        .into_iter()
        .enumerate()
        .map(|(input, [base, ls])| {
            base.zip(ls)
                .ok_or_else(|| format!("input {input} lacks a Baseline or LS cell"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(cut_over(&pairs))
}

/// [`PaperCut`] over the (Baseline, LS) statistics of each distinct input.
fn cut_over(pairs: &[(&RunStats, &RunStats)]) -> PaperCut {
    // (ownacq per 1k accesses, write stall per 1k accesses)
    let rates = |s: &RunStats| {
        let acc = stats_accesses(s).max(1) as f64;
        (
            s.dir.ownership_acquisitions() as f64 * 1000.0 / acc,
            s.write_stall() as f64 * 1000.0 / acc,
        )
    };
    let mut sums = [[0.0f64; 2]; 2];
    for (base, ls) in pairs {
        for (slot, stats) in [base, ls].into_iter().enumerate() {
            let (own, stall) = rates(stats);
            sums[slot][0] += own;
            sums[slot][1] += stall;
        }
    }
    let cut =
        |metric: usize| 100.0 * (1.0 - sums[1][metric] / sums[0][metric].max(f64::MIN_POSITIVE));
    PaperCut {
        ownacq_pct: cut(0),
        write_stall_pct: cut(1),
    }
}

/// `model_check`'s engine reference input. The model has no input to vary,
/// so the seed is fixed.
fn model_reference_spec(scale: Scale) -> Spec {
    chaos_spec(0, scale)
}

/// [`PaperCut`] of `model_check`, whose model has no timing: that of its
/// engine reference input, replayed under Baseline and LS. The runner
/// computes it outside set-up and the timed loop, so this engine work stays
/// out of the workload's timings.
pub fn model_reference_cut(scale: Scale) -> PaperCut {
    let spec = model_reference_spec(scale);
    let cfg = MachineConfig::splash_baseline;
    let trace = capture_spec(cfg(ProtocolKind::Baseline), &spec).1;
    let base = replay(cfg(ProtocolKind::Baseline), &trace, &[]);
    let ls = replay(cfg(ProtocolKind::Ls), &trace, &[]);
    cut_over(&[(&base, &ls)])
}

/// One engine input of the layer pass: a workload program, the Baseline
/// machine it runs on, and its captured trace when set-up already has it.
#[derive(Debug)]
pub struct EngineInput {
    pub cfg: MachineConfig,
    pub spec: Spec,
    pub trace: Option<Arc<Trace>>,
}

/// What the layer pass runs each layer's public API over.
#[derive(Debug)]
pub struct LayerInputs {
    pub engine: Vec<EngineInput>,
    pub serve: ServeConfig,
    pub model: ModelConfig,
    pub fault_seed: u64,
}

/// Everything set-up produces.
pub struct Setup {
    pub cells: Vec<Cell>,
    /// Digest of the inputs, so repeated set-ups can be checked against
    /// each other.
    pub input_digest: u64,
    pub layer: LayerInputs,
}

fn protocol_cells(label: &str, input: usize, job: impl Fn(ProtocolKind) -> Job) -> Vec<Cell> {
    ProtocolKind::ALL
        .into_iter()
        .map(|p| Cell {
            label: format!("{label}/{}", p.label()),
            input,
            protocol: p,
            job: job(p),
        })
        .collect()
}

fn splash_specs(seed: u64, scale: Scale) -> Vec<Spec> {
    let mut mp = scale.pick(mp3d::Mp3dParams::paper(), mp3d::Mp3dParams::quick());
    mp.steps = scale.pick(5, 2);
    mp.seed = derive_seed(seed, 1);
    let mut ch = scale.pick(
        cholesky::CholeskyParams::paper(),
        cholesky::CholeskyParams::quick(),
    );
    ch.waves = scale.pick(3, 1);
    ch.seed = derive_seed(seed, 2);
    let mut lu = lu::LuParams::paper();
    lu.n = scale.pick(80, 32);
    lu.seed = derive_seed(seed, 3);
    vec![Spec::Mp3d(mp), Spec::Cholesky(ch), Spec::Lu(lu)]
}

fn oltp_spec(seed: u64, scale: Scale) -> Spec {
    let mut p = scale.pick(oltp::OltpParams::paper(), oltp::OltpParams::quick());
    if scale == Scale::Quick {
        p.txns_per_proc = 20;
    }
    p.seed = derive_seed(seed, 4);
    Spec::Oltp(p)
}

fn chaos_spec(seed: u64, scale: Scale) -> Spec {
    let mut p = scale.pick(mp3d::Mp3dParams::paper(), mp3d::Mp3dParams::quick());
    p.steps = 1;
    p.seed = derive_seed(seed, 5);
    Spec::Mp3d(p)
}

fn serve_config(seed: u64, scale: Scale) -> ServeConfig {
    let mut c = scale.pick(ServeConfig::paper(), ServeConfig::quick());
    c.seed = seed;
    c
}

fn model_configs(scale: Scale, kind: ProtocolKind) -> (ModelConfig, ModelConfig) {
    (
        ModelConfig::new(kind).with_nodes(scale.pick(3, 2)),
        ModelConfig::new(kind),
    )
}

fn spec_digest(spec: &Spec) -> u64 {
    fnv1a64(spec.to_json().to_string().as_bytes())
}

/// Build a workload's inputs from the seed and prepare its cells.
pub fn setup(w: Workload, seed: u64, scale: Scale) -> Result<Setup, String> {
    // `model_check` has no inputs to vary, so its layer inputs ignore the
    // seed too.
    let layer_seed = if w == Workload::ModelCheck { 0 } else { seed };
    let mut layer = LayerInputs {
        engine: Vec::new(),
        serve: serve_config(derive_seed(layer_seed, 7), scale),
        model: model_configs(scale, ProtocolKind::Baseline).0,
        fault_seed: derive_seed(layer_seed, 6),
    };
    let (cells, input_digest) = match w {
        Workload::LiveSplash => {
            let specs = splash_specs(seed, scale);
            let mut cells = Vec::new();
            for (i, spec) in specs.iter().enumerate() {
                cells.extend(protocol_cells(spec.name(), i, |p| Job::Live {
                    cfg: MachineConfig::splash_baseline(p),
                    spec: spec.clone(),
                }));
            }
            let digest = specs
                .iter()
                .fold(0, |h, s| h ^ spec_digest(s).rotate_left(7));
            layer.engine = specs
                .into_iter()
                .map(|spec| EngineInput {
                    cfg: MachineConfig::splash_baseline(ProtocolKind::Baseline),
                    spec,
                    trace: None,
                })
                .collect();
            (cells, digest)
        }
        Workload::ReplayOltp => {
            let spec = oltp_spec(seed, scale);
            let capture_cfg = MachineConfig::oltp_scaled(ProtocolKind::Baseline);
            let (live, captured) = capture_spec(capture_cfg, &spec);
            let bytes = captured.to_bytes();
            let trace = Trace::from_bytes(&bytes).map_err(|e| format!("trace codec: {e}"))?;
            if trace != captured {
                return Err("trace codec round trip changed the trace".into());
            }
            let (trace, live) = (Arc::new(trace), Arc::new(live));
            let cells = protocol_cells(spec.name(), 0, |p| Job::Replay {
                cfg: MachineConfig::oltp_scaled(p),
                trace: Arc::clone(&trace),
                expect: (p == capture_cfg.protocol.kind).then(|| Arc::clone(&live)),
            });
            layer.engine = vec![EngineInput {
                cfg: capture_cfg,
                spec,
                trace: Some(trace),
            }];
            (cells, fnv1a64(&bytes))
        }
        Workload::ChaosChecked => {
            let spec = chaos_spec(seed, scale);
            let capture_cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
            let trace = Arc::new(capture_spec(capture_cfg, &spec).1);
            let mut references = Vec::new();
            for p in ProtocolKind::ALL {
                let cfg = MachineConfig::splash_baseline(p);
                let (stats, report) = replay_checked(cfg, &trace, &[], InvariantMode::Check);
                if let Some(v) = report.violations().first() {
                    return Err(format!("fault-free replay is dirty: {v}"));
                }
                let (_, log) = replay_events(cfg, &trace, &[]);
                let race = ccsim_race::check(&cfg.protocol, &log);
                if !race.is_clean() {
                    return Err("fault-free replay is not SC-conformant".into());
                }
                references.push(Arc::new(ChaosReference {
                    stats,
                    sc_fingerprint: race.sc_fingerprint,
                }));
            }
            let mut cells = Vec::new();
            for f in 0..scale.pick(8, 2) {
                let plan = ccsim_harness::chaos_plan(CHAOS_RATE, derive_seed(layer.fault_seed, f));
                for (p, reference) in ProtocolKind::ALL.into_iter().zip(&references) {
                    cells.push(Cell {
                        label: format!("{}/f{f}/{}", spec.name(), p.label()),
                        input: f as usize,
                        protocol: p,
                        job: Job::Chaos {
                            cfg: MachineConfig::splash_baseline(p).with_faults(plan),
                            trace: Arc::clone(&trace),
                            reference: Arc::clone(reference),
                        },
                    });
                }
            }
            let digest = fnv1a64(&trace.to_bytes()) ^ layer.fault_seed;
            layer.engine = vec![EngineInput {
                cfg: capture_cfg,
                spec,
                trace: Some(trace),
            }];
            (cells, digest)
        }
        Workload::ServeZipf => {
            let configs: Vec<ServeConfig> = (0..scale.pick(48, 2))
                .map(|i| serve_config(derive_seed(seed, 100 + i), scale))
                .collect();
            let mut cells = Vec::new();
            for (i, cfg) in configs.iter().enumerate() {
                cells.extend(protocol_cells(&format!("serve/s{i}"), i, |p| Job::Serve {
                    machine: MachineConfig::oltp_scaled(p),
                    cfg: *cfg,
                }));
            }
            layer.serve = configs[0];
            // The serve programs run OLTP operations over the TPC-B
            // layout, so the engine layers see an OLTP capture.
            layer.engine = vec![EngineInput {
                cfg: MachineConfig::oltp_scaled(ProtocolKind::Baseline),
                spec: oltp_spec(seed, Scale::Quick),
                trace: None,
            }];
            (
                cells,
                configs.iter().fold(0, |h, c| h ^ c.seed.rotate_left(11)),
            )
        }
        Workload::ModelCheck => {
            let cells = ProtocolKind::ALL
                .into_iter()
                .map(|p| {
                    let (explore, verify) = model_configs(scale, p);
                    Cell {
                        label: format!("model/{}", p.label()),
                        input: 0,
                        protocol: p,
                        job: Job::Model { explore, verify },
                    }
                })
                .collect();
            // The engine layers have no model input; they are
            // characterized on the engine reference input instead.
            layer.engine = vec![EngineInput {
                cfg: MachineConfig::splash_baseline(ProtocolKind::Baseline),
                spec: model_reference_spec(scale),
                trace: None,
            }];
            (cells, 0)
        }
    };
    Ok(Setup {
        cells,
        input_digest,
        layer,
    })
}
