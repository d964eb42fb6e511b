//! `ccsim` — command-line front end to the simulator.
//!
//! ```text
//! ccsim run     --workload <mp3d|lu|cholesky|oltp> --protocol <baseline|ad|ls> [options]
//! ccsim compare --workload <mp3d|lu|cholesky|oltp> [options]   # all three protocols
//! ccsim model   [--protocol <baseline|ad|ls|all>] [model options]  # bounded model check
//! ccsim verify  [--protocol <baseline|ad|ls|all>] [verify options] # parametric (all-n) proof
//! ccsim lint    [--deny] [--json] [--root DIR] [--explain RULE]  # workspace static analysis
//! ccsim analyze --workload W [--protocol P] | --trace FILE [--json]  # sharing patterns
//! ccsim race    --workload W [--protocol P] | --trace FILE [--json]  # SC conformance
//! ccsim chaos   [--workload W] [--protocol P|all] [chaos options]  # fault-grid soak
//! ccsim serve   [--protocol P|all] [serve options]              # open-loop OLTP service
//! ccsim config                                                  # print Table 1
//!
//! options:
//!   --scale <quick|paper>   problem size            (default quick)
//!   --nodes <N>             processor count         (workload default)
//!   --block <bytes>         coherence block size    (config default)
//!   --l2-kb <K>             L2 capacity in kB       (config default)
//!   --quantum <cycles>      scheduling quantum      (default 1)
//!   --relaxed               idealized write buffer instead of SC
//!   --mesh <width>          2-D mesh instead of point-to-point
//!   --json                  emit a JSON RunSummary instead of text
//!
//! model options:
//!   --nodes <N>             model nodes, 2-4        (default 2)
//!   --blocks <B>            model blocks, 1-2       (default 1)
//!   --max-ops <K>           per-node op budget      (default 4)
//!   --mutation <NAME>       seed a rule mutation    (needs --features testing)
//!   --expect-violation      exit 0 iff a violation IS found
//!   --format github         annotate counterexamples at the violated rule site
//!   --json                  emit JSON ModelCheckSummary documents
//!
//! verify options:
//!   --mutation <NAME>       seed a rule mutation    (needs --features testing)
//!   --expect-violation      exit 0 iff a violation IS found
//!   --format github         annotate counterexamples at the violated rule site
//!   --json                  emit JSON VerifySummary documents
//!
//! lint options:
//!   --deny                  exit 1 if any diagnostic fires (CI gate)
//!   --root <DIR>            workspace root to scan  (default .)
//!   --explain <RULE>        print the long description of one rule
//!   --json                  emit diagnostics as a JSON array
//!
//! analyze options:
//!   --trace <FILE>          analyze a saved trace instead of capturing one
//!   --save-trace <FILE>     save the captured trace for later `--trace` runs
//!   --json                  emit a JSON AnalysisSummary instead of text
//!
//! race options:
//!   --trace <FILE>          replay a saved trace instead of capturing a run
//!   --mutation <NAME>       seed a rule mutation    (needs --features testing)
//!   --expect-violation      exit 0 iff a violation IS found
//!   --json                  emit a JSON RaceSummary instead of text
//!
//! chaos options:
//!   --rates <CSV>           fault intensities, per mille   (default 60)
//!   --seeds <CSV>           fault-plan seeds               (default 1,2,3)
//!   --no-sc                 skip the SC-conformance cross-check
//!   --no-shrink             report failures without ddmin shrinking
//!   --mutation <NAME>       seed a transport mutation (needs --features testing)
//!   --expect-violation      exit 0 iff a cell DOES fail
//!   --json                  emit a JSON ChaosSummary instead of text
//!
//! serve options:
//!   --clients <N>           client population              (scale default)
//!   --skew <S>              zipf exponent, e.g. 0.99       (scale default)
//!   --rate <R>              arrivals per million cycles    (scale default)
//!   --burst <ON:OFF:X>      burst on/off cycles and intensity per mille; 0:0:1000 = off
//!   --mix <a:b:c:d>         per-mille point_read:rmw:scan:append mix (sums to 1000)
//!   --seed <S>              run seed                       (scale default)
//!   --max-cycles <C>        ward fuse, simulated cycles    (scale default)
//!   --expect <WARD>         exit 0 iff every run stopped by WARD
//!                           (converged|max-cycles|queue-divergence)
//!   --json                  emit a JSON ServeSummary instead of text
//! ```

use ccsim::engine::{replay_events, InvariantMode, RunStats, Trace};
use ccsim::harness::{chaos, run_cached, JobSet};
use ccsim::lint;
use ccsim::model::{
    explore, replay_counterexample, summarize, summarize_verify, verify, ModelConfig, Refinement,
};
use ccsim::race::check as race_check;
use ccsim::serve::{serve_sweep, ServeConfig, StopReason};
use ccsim::stats::{analyze, render_triptych, RaceSummary, RunSummary, Triptych};
use ccsim::types::{Consistency, RuleMutation, Topology, TransportMutation};
use ccsim::util::{Json, ToJson};
use ccsim::workloads::{capture_events_spec, capture_spec, cholesky, lu, mp3d, oltp, Spec};
use ccsim::{MachineConfig, ProtocolKind};
use std::process::exit;

/// Install a seeded rule mutation into a machine config (`--mutation`).
/// Mutations only exist under the `testing` cargo feature; release binaries
/// refuse rather than silently running the clean protocol.
fn with_mutation(mut cfg: MachineConfig, mutation: Option<RuleMutation>) -> MachineConfig {
    let Some(m) = mutation else { return cfg };
    #[cfg(feature = "testing")]
    {
        cfg.protocol = cfg.protocol.with_rule_mutation(m);
        cfg
    }
    #[cfg(not(feature = "testing"))]
    {
        let _ = &mut cfg;
        eprintln!(
            "mutation {} requires a build with --features testing",
            m.label()
        );
        exit(2);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ccsim <run|compare|model|verify|lint|analyze|race|chaos|serve|config> \
         [--workload W] \
         [--protocol P] [--scale S] [--nodes N] [--block B] [--l2-kb K] [--quantum Q] [--relaxed] \
         [--mesh W] [--json]\n\
         model options: [--blocks B] [--max-ops K] [--mutation NAME] [--expect-violation] \
         [--format github]\n\
         verify options: [--mutation NAME] [--expect-violation] [--format github]\n\
         lint options: [--deny] [--root DIR] [--explain RULE] [--format github]\n\
         analyze options: [--trace FILE] [--save-trace FILE]\n\
         race options: [--trace FILE] [--mutation NAME] [--expect-violation]\n\
         chaos options: [--rates CSV] [--seeds CSV] [--no-sc] [--no-shrink] [--mutation NAME] \
         [--expect-violation]\n\
         serve options: [--clients N] [--skew S] [--rate R] [--burst ON:OFF:X] [--mix a:b:c:d] \
         [--seed S] [--max-cycles C] [--expect WARD]"
    );
    exit(2);
}

#[derive(Default)]
struct Opts {
    workload: Option<String>,
    protocol: Option<String>,
    scale: Option<String>,
    nodes: Option<u16>,
    block: Option<u64>,
    l2_kb: Option<u64>,
    quantum: Option<u64>,
    relaxed: bool,
    mesh: Option<u16>,
    json: bool,
    blocks: Option<u8>,
    max_ops: Option<u8>,
    mutation: Option<String>,
    expect_violation: bool,
    deny: bool,
    root: Option<String>,
    explain: Option<String>,
    format: Option<String>,
    trace: Option<String>,
    save_trace: Option<String>,
    rates: Option<String>,
    seeds: Option<String>,
    no_sc: bool,
    no_shrink: bool,
    clients: Option<u64>,
    skew: Option<String>,
    rate: Option<u64>,
    burst: Option<String>,
    mix: Option<String>,
    seed: Option<u64>,
    max_cycles: Option<u64>,
    expect: Option<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {a}");
                usage()
            })
        };
        match a.as_str() {
            "--workload" => o.workload = Some(val().clone()),
            "--protocol" => o.protocol = Some(val().clone()),
            "--scale" => o.scale = Some(val().clone()),
            "--nodes" => o.nodes = Some(val().parse().unwrap_or_else(|_| usage())),
            "--block" => o.block = Some(val().parse().unwrap_or_else(|_| usage())),
            "--l2-kb" => o.l2_kb = Some(val().parse().unwrap_or_else(|_| usage())),
            "--quantum" => o.quantum = Some(val().parse().unwrap_or_else(|_| usage())),
            "--relaxed" => o.relaxed = true,
            "--mesh" => o.mesh = Some(val().parse().unwrap_or_else(|_| usage())),
            "--json" => o.json = true,
            "--blocks" => o.blocks = Some(val().parse().unwrap_or_else(|_| usage())),
            "--max-ops" => o.max_ops = Some(val().parse().unwrap_or_else(|_| usage())),
            "--mutation" => o.mutation = Some(val().clone()),
            "--expect-violation" => o.expect_violation = true,
            "--deny" => o.deny = true,
            "--root" => o.root = Some(val().clone()),
            "--explain" => o.explain = Some(val().clone()),
            "--format" => o.format = Some(val().clone()),
            "--trace" => o.trace = Some(val().clone()),
            "--save-trace" => o.save_trace = Some(val().clone()),
            "--rates" => o.rates = Some(val().clone()),
            "--seeds" => o.seeds = Some(val().clone()),
            "--no-sc" => o.no_sc = true,
            "--no-shrink" => o.no_shrink = true,
            "--clients" => o.clients = Some(val().parse().unwrap_or_else(|_| usage())),
            "--skew" => o.skew = Some(val().clone()),
            "--rate" => o.rate = Some(val().parse().unwrap_or_else(|_| usage())),
            "--burst" => o.burst = Some(val().clone()),
            "--mix" => o.mix = Some(val().clone()),
            "--seed" => o.seed = Some(val().parse().unwrap_or_else(|_| usage())),
            "--max-cycles" => o.max_cycles = Some(val().parse().unwrap_or_else(|_| usage())),
            "--expect" => o.expect = Some(val().clone()),
            _ => {
                eprintln!("unknown option {a}");
                usage()
            }
        }
    }
    o
}

fn protocol_of(s: &str) -> ProtocolKind {
    match s {
        "baseline" => ProtocolKind::Baseline,
        "ad" => ProtocolKind::Ad,
        "ls" => ProtocolKind::Ls,
        _ => {
            eprintln!("unknown protocol {s} (baseline|ad|ls)");
            usage()
        }
    }
}

/// `--protocol` for the commands that default to every protocol.
fn protocols_of(o: &Opts) -> Vec<ProtocolKind> {
    match o.protocol.as_deref().unwrap_or("all") {
        "all" => ProtocolKind::ALL.to_vec(),
        s => vec![protocol_of(s)],
    }
}

/// `--mutation`: a seeded coherence-rule mutation, if one was named.
fn mutation_of(o: &Opts) -> Option<RuleMutation> {
    o.mutation.as_deref().map(|s| {
        RuleMutation::parse(s).unwrap_or_else(|| {
            let names: Vec<&str> = RuleMutation::ALL.iter().map(|m| m.label()).collect();
            eprintln!("unknown mutation {s} ({})", names.join("|"));
            usage()
        })
    })
}

fn spec_of(workload: &str, paper: bool, nodes: Option<u16>) -> Spec {
    match workload {
        "mp3d" => {
            let mut p = if paper {
                mp3d::Mp3dParams::paper()
            } else {
                mp3d::Mp3dParams::quick()
            };
            if let Some(n) = nodes {
                p.procs = n;
            }
            Spec::Mp3d(p)
        }
        "lu" => {
            let mut p = if paper {
                lu::LuParams::paper()
            } else {
                lu::LuParams::quick()
            };
            if let Some(n) = nodes {
                p.procs = n;
            }
            Spec::Lu(p)
        }
        "cholesky" => {
            let mut p = if paper {
                cholesky::CholeskyParams::paper()
            } else {
                cholesky::CholeskyParams::quick()
            };
            if let Some(n) = nodes {
                p.procs = n;
            }
            Spec::Cholesky(p)
        }
        "oltp" => {
            let mut p = if paper {
                oltp::OltpParams::paper()
            } else {
                oltp::OltpParams::quick()
            };
            if let Some(n) = nodes {
                p.procs = n;
            }
            Spec::Oltp(p)
        }
        _ => {
            eprintln!("unknown workload {workload} (mp3d|lu|cholesky|oltp)");
            usage()
        }
    }
}

fn config_of(o: &Opts, workload: &str, kind: ProtocolKind) -> MachineConfig {
    let mut cfg = if workload == "oltp" {
        MachineConfig::oltp_scaled(kind)
    } else {
        MachineConfig::splash_baseline(kind)
    };
    if let Some(n) = o.nodes {
        cfg = cfg.with_nodes(n);
    }
    if let Some(b) = o.block {
        cfg = cfg.with_block_bytes(b);
    }
    if let Some(k) = o.l2_kb {
        cfg.l2.size_bytes = k * 1024;
    }
    if let Some(q) = o.quantum {
        cfg.schedule_quantum = q;
    }
    if o.relaxed {
        cfg.consistency = Consistency::Relaxed;
    }
    if let Some(w) = o.mesh {
        cfg.topology = Topology::Mesh2D { width: w };
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        exit(2);
    }
    cfg
}

/// Read a saved `--trace` file for subcommand `cmd` and widen the machine
/// to the trace's processor count. Unreadable or malformed input exits 2
/// with a `cmd:` prefix.
fn load_trace(cmd: &str, path: &str, o: &Opts, kind: ProtocolKind) -> (MachineConfig, Trace) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("{cmd}: cannot read {path}: {e}");
        exit(2);
    });
    let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("{cmd}: {path}: {e}");
        exit(2);
    });
    let mut cfg = config_of(o, o.workload.as_deref().unwrap_or(""), kind);
    if cfg.nodes < trace.procs() {
        cfg = cfg.with_nodes(trace.procs());
    }
    if let Err(e) = cfg.validate() {
        eprintln!("{cmd}: {path}: {e}");
        exit(2);
    }
    (cfg, trace)
}

fn print_run(r: &RunStats, json: bool) {
    if json {
        print!("{}", RunSummary::from_stats(r).to_json().pretty());
    } else {
        println!("protocol        {}", r.protocol.label());
        println!("exec cycles     {}", r.exec_cycles);
        println!("busy            {}", r.busy());
        println!("read stall      {}", r.read_stall());
        println!("write stall     {}", r.write_stall());
        println!("traffic bytes   {}", r.traffic.total_bytes());
        println!("global reads    {}", r.dir.global_reads);
        println!("ownership acqs  {}", r.dir.ownership_acquisitions());
        println!("silent stores   {}", r.machine.silent_stores);
        println!("ls coverage     {:.1}%", 100.0 * r.oracle.ls_coverage());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let o = parse_opts(&args[1..]);
    match cmd.as_str() {
        "config" => {
            // Reuse the bench renderer indirectly: print the config-derived
            // latency rows directly.
            let cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
            let l = cfg.latency;
            println!(
                "L1: {} kB, {}-way, {} B blocks, {} cycle(s)",
                cfg.l1.size_bytes / 1024,
                cfg.l1.assoc,
                cfg.l1.block_bytes,
                cfg.l1.access_cycles
            );
            println!(
                "L2: {} kB, {}-way, {} cycles",
                cfg.l2.size_bytes / 1024,
                cfg.l2.assoc,
                cfg.l2.access_cycles
            );
            println!(
                "memory {} / controller {} / network {} cycles",
                l.mem, l.mc, l.net
            );
            println!(
                "derived: local {} / home {} / remote {} cycles",
                l.local_miss(),
                l.home_miss(),
                l.remote_miss()
            );
        }
        "run" => {
            let workload = o.workload.clone().unwrap_or_else(|| usage());
            let kind = protocol_of(o.protocol.as_deref().unwrap_or("ls"));
            let paper = o.scale.as_deref() == Some("paper");
            let spec = spec_of(&workload, paper, o.nodes);
            let cfg = config_of(&o, &workload, kind);
            let r = run_cached(cfg, &spec);
            print_run(&r, o.json);
        }
        "model" => {
            let kinds = protocols_of(&o);
            let mutation = mutation_of(&o);
            if let Some(f) = o.format.as_deref() {
                if f != "github" {
                    eprintln!("unknown model format {f} (github)");
                    exit(2);
                }
            }
            let mut violations = 0u32;
            let mut docs = Vec::new();
            for kind in kinds {
                let mut cfg = ModelConfig::new(kind);
                if let Some(n) = o.nodes {
                    cfg = cfg.with_nodes(n);
                }
                if let Some(b) = o.blocks {
                    cfg = cfg.with_blocks(b);
                }
                if let Some(k) = o.max_ops {
                    cfg = cfg.with_max_ops(k);
                }
                if let Some(m) = mutation {
                    cfg = cfg.with_mutation(m);
                }
                let ex = explore(&cfg).unwrap_or_else(|e| {
                    eprintln!("model: {e}");
                    exit(2);
                });
                let s = summarize(&ex);
                if o.json {
                    docs.push(s.to_json());
                } else {
                    println!(
                        "{:<8} nodes={} blocks={} max-ops={}: {} states, {} transitions, \
                         depth {}, {} ms — {}",
                        s.protocol,
                        s.nodes,
                        s.blocks,
                        s.max_ops,
                        s.states,
                        s.transitions,
                        s.max_depth,
                        s.wall_ms,
                        if s.violation.is_empty() {
                            "clean".to_string()
                        } else {
                            format!("VIOLATION: {}", s.violation)
                        }
                    );
                }
                if let Some(cex) = &ex.counterexample {
                    violations += 1;
                    if !o.json {
                        println!("counterexample (shortest, {} steps):", cex.steps.len());
                        println!("{cex}");
                        let (_, report) = replay_counterexample(&cfg, cex, InvariantMode::Check);
                        println!(
                            "engine replay: {} invariant violation(s) in {} checks",
                            report.total_violations(),
                            report.checks()
                        );
                        for v in report.violations() {
                            println!("  {v}");
                        }
                    }
                    if o.format.as_deref() == Some("github") {
                        // GitHub Actions workflow command: point the CI
                        // failure at the enforcement site of the broken rule.
                        let (file, line) = cex.violation.rule.site();
                        println!(
                            "::error file={file},line={line}::[model/{}] {}",
                            s.protocol, cex.violation
                        );
                    }
                }
            }
            if o.json {
                print!("{}", Json::Arr(docs).pretty());
            }
            let ok = if o.expect_violation {
                violations > 0
            } else {
                violations == 0
            };
            if !ok {
                exit(1);
            }
        }
        "verify" => {
            let kinds = protocols_of(&o);
            let mutation = mutation_of(&o);
            if let Some(f) = o.format.as_deref() {
                if f != "github" {
                    eprintln!("unknown verify format {f} (github)");
                    exit(2);
                }
            }
            let mut violations = 0u32;
            let mut docs = Vec::new();
            for kind in kinds {
                let mut cfg = ModelConfig::new(kind);
                if let Some(m) = mutation {
                    cfg = cfg.with_mutation(m);
                }
                let v = verify(&cfg).unwrap_or_else(|e| {
                    eprintln!("verify: {e}");
                    exit(2);
                });
                let s = summarize_verify(&v);
                if o.json {
                    docs.push(s.to_json());
                } else {
                    println!(
                        "{:<8} abstract: {} states, {} transitions, {} widenings, depth {}, \
                         {} ms — {}",
                        s.protocol,
                        s.abstract_states,
                        s.transitions,
                        s.widenings,
                        s.max_depth,
                        s.wall_ms,
                        if s.parametric {
                            "proved for every node count".to_string()
                        } else {
                            format!("VIOLATION: {}", s.violation)
                        }
                    );
                }
                if let Some(cex) = &v.counterexample {
                    violations += 1;
                    if !o.json {
                        println!("abstract counterexample ({} steps):", cex.steps.len());
                        println!("{cex}");
                        match &v.refinement {
                            Some(Refinement::Genuine {
                                nodes,
                                counterexample,
                                engine_checks,
                                engine_violations,
                            }) => {
                                println!(
                                    "concretized at n={nodes} (shortest, {} steps):",
                                    counterexample.steps.len()
                                );
                                println!("{counterexample}");
                                println!(
                                    "engine replay: {engine_violations} invariant violation(s) \
                                     in {engine_checks} checks"
                                );
                            }
                            Some(Refinement::Spurious { tried_nodes }) => {
                                println!(
                                    "spurious: no concrete counterexample at n in {tried_nodes:?}; \
                                     widening points:"
                                );
                                for w in &v.widening_points {
                                    println!("  {w}");
                                }
                            }
                            None => {}
                        }
                    }
                    if o.format.as_deref() == Some("github") {
                        let (file, line) = cex.violation.rule.site();
                        println!(
                            "::error file={file},line={line}::[verify/{}] {}",
                            s.protocol, cex.violation
                        );
                    }
                }
            }
            if o.json {
                print!("{}", Json::Arr(docs).pretty());
            }
            let ok = if o.expect_violation {
                violations > 0
            } else {
                violations == 0
            };
            if !ok {
                exit(1);
            }
        }
        "lint" => {
            if let Some(rule) = o.explain.as_deref() {
                match lint::explain(rule) {
                    Some(info) => {
                        println!("[{}] {}\n\n{}", info.id, info.summary, info.explain);
                    }
                    None => {
                        let ids: Vec<&str> = lint::RULES.iter().map(|r| r.id).collect();
                        eprintln!("unknown rule {rule} ({})", ids.join("|"));
                        exit(2);
                    }
                }
                return;
            }
            let root = o.root.as_deref().unwrap_or(".");
            let cfg = lint::LintConfig::workspace();
            let diags =
                lint::lint_workspace(std::path::Path::new(root), &cfg).unwrap_or_else(|e| {
                    eprintln!("lint: {e}");
                    exit(2);
                });
            match o.format.as_deref() {
                // GitHub Actions workflow commands: annotate the PR diff
                // directly instead of burying findings in the job log.
                Some("github") => {
                    for d in &diags {
                        println!(
                            "::error file={},line={}::[{}] {}",
                            d.file, d.line, d.rule, d.message
                        );
                    }
                }
                // SARIF 2.1.0 for code-scanning UIs and CI artifacts.
                Some("sarif") => {
                    println!("{}", lint::sarif::to_sarif(&diags));
                }
                Some(other) => {
                    eprintln!("unknown lint format {other} (github|sarif)");
                    exit(2);
                }
                None if o.json => {
                    let arr = Json::Arr(diags.iter().map(ToJson::to_json).collect());
                    print!("{}", arr.pretty());
                }
                None => {
                    for d in &diags {
                        println!("{}", d.render());
                    }
                    println!(
                        "{} diagnostic(s); run `ccsim lint --explain <rule>` for details",
                        diags.len()
                    );
                }
            }
            if o.deny && !diags.is_empty() {
                exit(1);
            }
        }
        "analyze" => {
            let kind = protocol_of(o.protocol.as_deref().unwrap_or("ls"));
            let (cfg, trace) = if let Some(path) = o.trace.as_deref() {
                load_trace("analyze", path, &o, kind)
            } else {
                let workload = o.workload.clone().unwrap_or_else(|| usage());
                let paper = o.scale.as_deref() == Some("paper");
                let spec = spec_of(&workload, paper, o.nodes);
                let cfg = config_of(&o, &workload, kind);
                let (_, trace) = capture_spec(cfg, &spec);
                (cfg, trace)
            };
            if let Some(path) = o.save_trace.as_deref() {
                if let Err(e) = std::fs::write(path, trace.to_bytes()) {
                    eprintln!("analyze: cannot write {path}: {e}");
                    exit(2);
                }
            }
            let s = analyze(&cfg, &trace).unwrap_or_else(|e| {
                eprintln!("analyze: {e}");
                exit(2);
            });
            if o.json {
                print!("{}", s.to_json().pretty());
            } else {
                println!("protocol             {}", s.protocol);
                println!("events / accesses    {} / {}", s.events, s.accesses);
                println!("blocks touched       {}", s.blocks);
                println!("  private            {}", s.private_blocks);
                println!("  read-shared        {}", s.read_shared_blocks);
                println!("  producer-consumer  {}", s.producer_consumer_blocks);
                println!(
                    "  load-store         {} (migratory subset: {})",
                    s.load_store_blocks, s.migratory_blocks
                );
                println!("  irregular          {}", s.irregular_blocks);
                println!("  false-sharing cand {}", s.false_sharing_candidates);
                println!("global writes        {}", s.global_writes);
                println!(
                    "ls writes            {} (migratory subset: {})",
                    s.ls_writes, s.migratory_writes
                );
                println!("ls upper bound       {}", s.ls_upper_bound);
                println!(
                    "eliminated           {} (ls {}, migratory {})",
                    s.eliminated, s.eliminated_ls, s.eliminated_migratory
                );
                println!("silent stores        {}", s.silent_stores);
                println!(
                    "false sharing        {:.1}%",
                    100.0 * s.false_sharing_fraction
                );
            }
        }
        "race" => {
            let kind = protocol_of(o.protocol.as_deref().unwrap_or("ls"));
            let mutation = mutation_of(&o);
            let (cfg, log) = if let Some(path) = o.trace.as_deref() {
                let (cfg, trace) = load_trace("race", path, &o, kind);
                let cfg = with_mutation(cfg, mutation);
                let (_, log) = replay_events(cfg, &trace, &[]);
                (cfg, log)
            } else {
                let workload = o.workload.clone().unwrap_or_else(|| usage());
                let paper = o.scale.as_deref() == Some("paper");
                let spec = spec_of(&workload, paper, o.nodes);
                let cfg = with_mutation(config_of(&o, &workload, kind), mutation);
                // Deliberately bypasses the run cache: a mutated run must
                // never be cached, and the event log is not part of the
                // cached artifact anyway.
                let (_, log) = capture_events_spec(cfg, &spec);
                (cfg, log)
            };
            let report = race_check(&cfg.protocol, &log);
            if o.json {
                let s = RaceSummary::from_report(cfg.protocol.kind.label(), cfg.nodes, &report);
                print!("{}", s.to_json().pretty());
            } else {
                println!("{}", report.render(&log));
            }
            let ok = if o.expect_violation {
                !report.is_clean()
            } else {
                report.is_clean()
            };
            if !ok {
                exit(1);
            }
        }
        "chaos" => {
            let kinds = protocols_of(&o);
            let workload = o.workload.clone().unwrap_or_else(|| "mp3d".to_string());
            let paper = o.scale.as_deref() == Some("paper");
            let spec = spec_of(&workload, paper, o.nodes);
            fn csv<T: std::str::FromStr>(s: &str, what: &str) -> Vec<T> {
                s.split(',')
                    .map(|v| {
                        v.trim().parse().unwrap_or_else(|_| {
                            eprintln!("bad {what} value {v:?}");
                            usage()
                        })
                    })
                    .collect()
            }
            let mutation = o.mutation.as_deref().map(|s| {
                TransportMutation::parse(s).unwrap_or_else(|| {
                    let names: Vec<&str> =
                        TransportMutation::ALL.iter().map(|m| m.label()).collect();
                    eprintln!("unknown transport mutation {s} ({})", names.join("|"));
                    usage()
                })
            });
            // Gate on *this* binary's feature set, not the library's: under
            // workspace-wide builds feature unification can compile the
            // harness with `testing` on even when this crate's is off.
            if let Some(m) = mutation {
                if !cfg!(feature = "testing") {
                    eprintln!(
                        "transport mutation {} requires the `testing` cargo feature",
                        m.label()
                    );
                    exit(2);
                }
            }
            let cc = chaos::ChaosConfig {
                protocols: kinds,
                specs: vec![spec],
                rates: o.rates.as_deref().map_or(vec![60], |s| csv(s, "rate")),
                seeds: o.seeds.as_deref().map_or(vec![1, 2, 3], |s| csv(s, "seed")),
                check_sc: !o.no_sc,
                shrink: !o.no_shrink,
                mutation,
            };
            let outcome = chaos::sweep(&cc).unwrap_or_else(|e| {
                eprintln!("chaos: {e}");
                exit(2);
            });
            if o.json {
                print!("{}", outcome.summary().to_json().pretty());
            } else {
                for c in &outcome.cells {
                    let verdict = match &c.failure {
                        None => format!(
                            "clean ({} retransmit(s), {} nack(s))",
                            c.retransmits, c.nacks
                        ),
                        Some(f) => format!("FAIL: {f}"),
                    };
                    println!(
                        "{:<10} {:<8} rate {:>4} seed {:>6}: {}",
                        c.workload,
                        format!("{:?}", c.protocol),
                        c.rate_per_mille,
                        c.seed,
                        verdict
                    );
                }
                println!(
                    "{} cell(s), {} failure(s)",
                    outcome.cells.len(),
                    outcome.failures()
                );
                if let Some(w) = &outcome.witness {
                    print!("{}", w.render());
                }
            }
            let ok = if o.expect_violation {
                !outcome.is_clean()
            } else {
                outcome.is_clean()
            };
            if !ok {
                exit(1);
            }
        }
        "serve" => {
            let kinds = protocols_of(&o);
            let paper = o.scale.as_deref() == Some("paper");
            let mut cfg = if paper {
                ServeConfig::paper()
            } else {
                ServeConfig::quick()
            };
            if let Some(c) = o.clients {
                cfg.clients = c;
            }
            if let Some(s) = o.skew.as_deref() {
                let exp: f64 = s.parse().unwrap_or_else(|_| {
                    eprintln!("bad --skew value {s:?} (zipf exponent, e.g. 0.99)");
                    usage()
                });
                cfg.skew_per_mille = (exp * 1000.0).round() as u32;
            }
            if let Some(r) = o.rate {
                cfg.rate_per_mcycle = r;
            }
            if let Some(b) = o.burst.as_deref() {
                let parts: Vec<u64> = b
                    .split(':')
                    .map(|v| {
                        v.parse().unwrap_or_else(|_| {
                            eprintln!("bad --burst value {b:?} (want ON:OFF:X)");
                            usage()
                        })
                    })
                    .collect();
                let [on, off, x] = parts[..] else {
                    eprintln!("bad --burst value {b:?} (want ON:OFF:X)");
                    usage()
                };
                cfg.burst_on_cycles = on;
                cfg.burst_off_cycles = off;
                cfg.burst_x_per_mille = x;
            }
            if let Some(m) = o.mix.as_deref() {
                let parts: Vec<u16> = m
                    .split(':')
                    .map(|v| {
                        v.parse().unwrap_or_else(|_| {
                            eprintln!("bad --mix value {m:?} (want a:b:c:d per mille)");
                            usage()
                        })
                    })
                    .collect();
                let [a, b, c, d] = parts[..] else {
                    eprintln!("bad --mix value {m:?} (want a:b:c:d per mille)");
                    usage()
                };
                cfg.mix_per_mille = [a, b, c, d];
            }
            if let Some(s) = o.seed {
                cfg.seed = s;
            }
            if let Some(c) = o.max_cycles {
                cfg.ward.max_cycles = c;
            }
            if let Err(e) = cfg.validate() {
                eprintln!("serve: {e}");
                exit(2);
            }
            let expect = o.expect.as_deref().map(|s| {
                StopReason::parse(s).unwrap_or_else(|| {
                    eprintln!("unknown ward {s} (converged|max-cycles|queue-divergence)");
                    usage()
                })
            });
            let base = config_of(&o, "oltp", kinds[0]);
            let reports = serve_sweep(base, &cfg, &kinds);
            let s = ccsim::serve::summarize(&cfg, &reports);
            if o.json {
                print!("{}", s.to_json().pretty());
            } else {
                println!(
                    "serve: {} clients, zipf s={:.2}, {} arrivals/Mcycle, mix {:?}, seed {}",
                    s.clients,
                    s.skew_per_mille as f64 / 1000.0,
                    s.rate_per_mcycle,
                    s.mix_per_mille,
                    s.seed
                );
                for row in &s.rows {
                    println!(
                        "{:<9} stop={:<16} cycles={:<10} done={} drop={} thrpt/Mc={} \
                         maxq={} hotrow={} ownacq={} inval={}",
                        row.protocol,
                        row.stop,
                        row.cycles,
                        row.completed,
                        row.dropped,
                        row.throughput_per_mcycle,
                        row.max_queue_depth,
                        row.hot_row_conflicts,
                        row.ownership_acquisitions,
                        row.invalidations
                    );
                    for c in &row.classes {
                        println!(
                            "  {:<11} n={:<7} p50={:<7} p90={:<7} p99={:<7} max={}",
                            c.class, c.count, c.p50, c.p90, c.p99, c.max
                        );
                    }
                }
            }
            if let Some(want) = expect {
                let bad: Vec<&str> = s
                    .rows
                    .iter()
                    .filter(|r| r.stop != want.label())
                    .map(|r| r.protocol.as_str())
                    .collect();
                if !bad.is_empty() {
                    eprintln!(
                        "serve: expected every run to stop by {:?}, but {} did not",
                        want.label(),
                        bad.join(", ")
                    );
                    exit(1);
                }
            }
        }
        "compare" => {
            let workload = o.workload.clone().unwrap_or_else(|| usage());
            let paper = o.scale.as_deref() == Some("paper");
            let spec = spec_of(&workload, paper, o.nodes);
            let mut set = JobSet::new();
            for &k in &ProtocolKind::ALL {
                set.push(config_of(&o, &workload, k), spec.clone());
            }
            let runs: Vec<RunStats> = set.run();
            if o.json {
                let arr = Json::Arr(
                    runs.iter()
                        .map(|r| RunSummary::from_stats(r).to_json())
                        .collect(),
                );
                print!("{}", arr.pretty());
            } else {
                let t = Triptych::new(workload.to_uppercase(), &runs);
                print!("{}", render_triptych(&t));
            }
        }
        _ => usage(),
    }
}
