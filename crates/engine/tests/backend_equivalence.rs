//! The fiber and thread backends drive one deterministic schedule.
//!
//! Random per-processor programs mixing every `Proc` operation, with
//! unequal lengths so processors retire at different times, run under
//! several scheduling quanta and every protocol on both backends. Both
//! runs must produce equal `RunStats` and equal captured traces (the
//! trace fixes the exact order in which operations retire), and that
//! order is also checked against a reference model of the schedule: each
//! operation issues only while its `(clock / quantum, id)` key is the
//! least among the processors that still have operations to issue.
//!
//! Two harder shapes ride along: a simulation nested inside a running
//! processor, and a panic in one processor while its siblings are
//! suspended mid-program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ccsim_engine::{fiber, replay, Component, EngineKind, Proc, RunStats, SimBuilder, Trace};
use ccsim_types::{Addr, MachineConfig, ProtocolKind};
use ccsim_util::rng64::Xoshiro256pp;

const QUANTA: [u64; 4] = [1, 3, 64, 100_000];

/// One simulated operation of a generated program. Word operands index
/// into the run's address pool.
#[derive(Clone, Copy, Debug)]
enum Op {
    Load(usize),
    Store(usize, u64),
    /// Fetch-add that skips its store when the loaded value is a
    /// multiple of three.
    Rmw(usize, u64),
    Cas(usize, u64, u64),
    LoadExclusive(usize),
    Busy(u64),
    SetComponent(Component),
}

/// Words the programs touch: a few neighbours sharing blocks, plus words
/// a cache size apart so they evict each other in the direct-mapped L1.
const POOL: [u64; 16] = [
    0, 1, 2, 3, 4, 5, 9, 17, 512, 513, 520, 1024, 1025, 1536, 2048, 2049,
];

fn gen_program(rng: &mut Xoshiro256pp, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let w = rng.below(POOL.len() as u64) as usize;
            match rng.below(10) {
                0 | 1 => Op::Load(w),
                2 | 3 => Op::Store(w, rng.below(8)),
                4 => Op::Rmw(w, 1 + rng.below(3)),
                5 => Op::Cas(w, rng.below(4), rng.below(8)),
                6 => Op::LoadExclusive(w),
                7 => Op::SetComponent(match rng.below(3) {
                    0 => Component::App,
                    1 => Component::Lib,
                    _ => Component::Os,
                }),
                // Small busy steps make clocks land exactly on window
                // edges, where an off-by-one in the turn test shows.
                _ => Op::Busy(1 + rng.below(4)),
            }
        })
        .collect()
}

/// 2–4 programs of unequal lengths for a 4-node machine.
fn gen_programs(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let procs = 2 + rng.below(3) as usize;
    (0..procs)
        .map(|_| {
            let len = 5 + rng.below(60) as usize;
            gen_program(&mut rng, len)
        })
        .collect()
}

/// The issue clock of each turn a processor took, with the number of
/// trace events the turn retired.
type IssueLog = Vec<(u64, usize)>;

/// Issue `op`, logging each turn it takes.
fn exec(p: &Proc, base: Addr, op: Op, log: &mut IssueLog) {
    let at = |w: usize| Addr(base.0 + POOL[w] * 8);
    let t = p.now();
    let events = match op {
        Op::Load(w) => {
            let v = p.load(at(w));
            log.push((t, 1));
            // A data-dependent busy turn makes the schedule depend on
            // loaded values, not only on the program text.
            if v & 1 == 1 {
                let t = p.now();
                p.busy(1);
                log.push((t, 1));
            }
            return;
        }
        Op::Store(w, v) => {
            p.store(at(w), v);
            1
        }
        Op::Rmw(w, d) => {
            let mut stored = false;
            p.rmw(at(w), |v| {
                stored = v % 3 != 0;
                stored.then(|| v.wrapping_add(d))
            });
            1 + stored as usize
        }
        Op::Cas(w, expect, new) => 1 + (p.cas(at(w), expect, new) == expect) as usize,
        Op::LoadExclusive(w) => {
            p.load_exclusive(at(w));
            1
        }
        Op::Busy(c) => {
            p.busy(c);
            1
        }
        Op::SetComponent(c) => {
            p.set_component(c);
            1
        }
    };
    log.push((t, events));
}

/// What one run produced.
struct Outcome {
    stats: RunStats,
    trace: Trace,
    issues: Vec<IssueLog>,
    /// The words seeded before the run, for replaying the trace.
    init: Vec<(Addr, u64)>,
}

fn config(kind: ProtocolKind, quantum: u64) -> MachineConfig {
    let mut cfg = MachineConfig::splash_baseline(kind);
    cfg.schedule_quantum = quantum;
    cfg
}

/// Seed a few pool words so loads see nonzero, odd and even values.
fn init_words(b: &mut SimBuilder) -> (Addr, Vec<(Addr, u64)>) {
    let base = b.alloc().alloc_words(POOL[POOL.len() - 1] + 1);
    let init: Vec<(Addr, u64)> = (0..POOL.len())
        .step_by(3)
        .map(|w| (Addr(base.0 + POOL[w] * 8), w as u64))
        .collect();
    for &(a, v) in &init {
        b.init(a, v);
    }
    (base, init)
}

/// Run `programs` on `engine`. When `nest` is set, processor 0 runs a
/// whole simulation of its own halfway through its program.
fn run(engine: EngineKind, cfg: MachineConfig, programs: &[Vec<Op>], nest: Option<u64>) -> Outcome {
    let mut b = SimBuilder::new(cfg);
    b.engine(engine);
    b.capture_trace();
    let (base, init) = init_words(&mut b);
    let issues = Arc::new(Mutex::new(vec![IssueLog::new(); programs.len()]));
    for (i, prog) in programs.iter().enumerate() {
        let prog = prog.clone();
        let issues = Arc::clone(&issues);
        b.spawn(move |p| {
            let mut log = IssueLog::with_capacity(prog.len());
            for (k, &op) in prog.iter().enumerate() {
                if let (0, Some(seed)) = (i, nest) {
                    if k == prog.len() / 2 {
                        nested_sims_agree(seed);
                    }
                }
                exec(&p, base, op, &mut log);
            }
            issues.lock().unwrap()[i] = log;
        });
    }
    let mut fin = b.run_full();
    let trace = fin.take_trace().expect("trace captured");
    let issues = std::mem::take(&mut *issues.lock().unwrap());
    Outcome {
        stats: fin.stats,
        trace,
        issues,
        init,
    }
}

/// Check the captured retire order against the schedule's definition: a
/// turn is taken only while its taker's `(clock / quantum, id)` is the
/// least key among processors with turns left. A processor's clock
/// between turns is the issue clock of its next one.
fn check_schedule(out: &Outcome, quantum: u64, what: &str) {
    let n = out.issues.len();
    let mut next = vec![0usize; n];
    let mut events = out.trace.events().iter().enumerate();
    while let Some((i, ev)) = events.next() {
        let p = ev.proc as usize;
        let (clock, retired) = out.issues[p][next[p]];
        let key = (clock / quantum, p);
        for o in (0..n).filter(|&o| o != p) {
            if let Some(&(c, _)) = out.issues[o].get(next[o]) {
                assert!(
                    key < (c / quantum, o),
                    "{what}: event {i} issued by P{p} at clock {clock}, \
                     but P{o} at clock {c} held the least key"
                );
            }
        }
        // The rest of this turn's events retire back-to-back.
        for _ in 1..retired {
            let (_, ev) = events.next().expect("operation's events present");
            assert_eq!(ev.proc as usize, p, "{what}: turn split at event {i}");
        }
        next[p] += 1;
    }
    for (p, log) in out.issues.iter().enumerate() {
        assert_eq!(
            next[p],
            log.len(),
            "{what}: P{p} turns missing from the trace"
        );
    }
}

fn backends() -> Vec<EngineKind> {
    if fiber::supported() {
        vec![EngineKind::Fiber, EngineKind::Threads]
    } else {
        vec![EngineKind::Threads]
    }
}

/// Run one program set on every backend and assert they agree with each
/// other, with the reference schedule, and with a replay of the trace.
fn assert_backends_agree(cfg: MachineConfig, programs: &[Vec<Op>], nest: Option<u64>, what: &str) {
    let mut first: Option<Outcome> = None;
    for engine in backends() {
        let out = run(engine, cfg, programs, nest);
        let what = format!("{what} on {engine:?}");
        check_schedule(&out, cfg.schedule_quantum, &what);
        assert_eq!(
            replay(cfg, &out.trace, &out.init),
            out.stats,
            "{what}: replay of the captured trace differs from the live run"
        );
        match &first {
            None => first = Some(out),
            Some(f) => {
                assert_eq!(f.trace, out.trace, "{what}: retire order diverges");
                assert_eq!(f.stats, out.stats, "{what}: RunStats diverge");
            }
        }
    }
}

#[test]
fn backends_agree_on_random_programs() {
    for seed in 0..8u64 {
        let programs = gen_programs(seed);
        for q in QUANTA {
            for kind in ProtocolKind::ALL {
                let what = format!("seed {seed}, quantum {q}, {kind:?}");
                assert_backends_agree(config(kind, q), &programs, None, &what);
            }
        }
    }
}

/// Inside a running processor, simulate a second machine on both
/// backends; the inner runs must agree and the outer run must not notice.
fn nested_sims_agree(seed: u64) {
    let programs = gen_programs(seed);
    assert_backends_agree(config(ProtocolKind::Ls, 1), &programs, None, "nested");
}

#[test]
fn a_simulation_nested_inside_a_processor_matches() {
    for seed in 100..103u64 {
        let programs = gen_programs(seed);
        for q in [1, 64] {
            let what = format!("outer seed {seed}, quantum {q}");
            assert_backends_agree(
                config(ProtocolKind::Ad, q),
                &programs,
                Some(seed + 1),
                &what,
            );
        }
    }
}

/// Where the panicking processor raises.
#[derive(Clone, Copy, Debug)]
enum PanicAt {
    /// In workload code between two operations.
    BetweenOps,
    /// Inside an atomic operation, while holding the turn.
    InsideTurn,
}

#[test]
fn a_panic_propagates_after_siblings_finish() {
    for at in [PanicAt::BetweenOps, PanicAt::InsideTurn] {
        for q in [1, 100_000] {
            for engine in backends() {
                let programs = gen_programs(7);
                let mut b = SimBuilder::new(config(ProtocolKind::Ls, q));
                b.engine(engine);
                let (base, _) = init_words(&mut b);
                let finished = Arc::new(AtomicUsize::new(0));
                let culprit = 1;
                for (i, prog) in programs.iter().enumerate() {
                    let prog = prog.clone();
                    let finished = Arc::clone(&finished);
                    b.spawn(move |p| {
                        for (k, &op) in prog.iter().enumerate() {
                            if i == culprit && k == prog.len() / 2 {
                                match at {
                                    PanicAt::BetweenOps => panic!("workload bug"),
                                    PanicAt::InsideTurn => {
                                        p.rmw(base, |_| panic!("workload bug"));
                                    }
                                }
                            }
                            exec(&p, base, op, &mut IssueLog::new());
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
                let err = catch_unwind(AssertUnwindSafe(|| b.run()))
                    .expect_err("the workload panic must propagate");
                let msg = err.downcast_ref::<&'static str>().copied().unwrap_or("?");
                assert_eq!(msg, "workload bug", "{at:?}, quantum {q}, {engine:?}");
                assert_eq!(
                    finished.load(Ordering::SeqCst),
                    programs.len() - 1,
                    "{at:?}, quantum {q}, {engine:?}: every sibling runs to completion"
                );
            }
        }
    }
}
