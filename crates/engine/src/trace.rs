//! Trace capture and trace-driven replay.
//!
//! The engine normally runs *program-driven* (workload closures execute on
//! live threads, §4's methodology). This module adds the classical
//! *trace-driven* mode: capture the global memory-access stream of one run,
//! then replay it — cheaply, with no threads — through fresh machines with
//! different protocols, cache geometries or networks.
//!
//! Replaying under the **same** configuration reproduces the original run
//! exactly (asserted in tests): the captured order *is* the simulated-time
//! order, and all latencies are deterministic functions of machine state.
//! Replaying under a **different** configuration carries the standard
//! trace-driven caveat: the interleaving stays as captured instead of
//! adapting to the new timing — fine for coherence/miss studies, biased for
//! fine-grained synchronization races.
//!
//! Traces serialize to a compact, versioned binary format (`to_bytes` /
//! `from_bytes`) so they can be stored and shared.

use ccsim_types::{Addr, MachineConfig, NodeId};

use crate::invariants::{InvariantMode, InvariantReport};
use crate::machine::Machine;
use crate::oracle::Component;
use crate::stats::{ProcTimes, RunStats};

/// One captured operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    Load(Addr),
    /// Plain store (also the write half of a captured RMW; the stored value
    /// reproduces the original computation).
    Store(Addr, u64),
    /// Load with the static exclusive hint.
    LoadExclusive(Addr),
    Busy(u64),
    SetComponent(Component),
}

/// One event: which processor did what (in global simulated-time order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub proc: u16,
    pub op: TraceOp,
}

/// A captured access stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    pub(crate) events: Vec<TraceEvent>,
    /// Number of processors that contributed.
    pub(crate) procs: u16,
}

const MAGIC: u32 = 0xCC51_7ACE;
const VERSION: u32 = 1;

/// Why a byte stream failed to decode as a [`Trace`]. Every malformed input
/// maps to one of these — decoding never panics and never over-allocates,
/// no matter how garbled the bytes are (same policy as the PR 2 run-cache
/// quarantine: corrupt artifacts are reported and skipped, not trusted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The stream ended inside a header or an event.
    Truncated,
    /// The first word is not the trace magic.
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u32),
    /// The header's processor count exceeds `u16` (the event encoding).
    TooManyProcs(u32),
    /// The declared event count cannot fit in the remaining bytes (each
    /// event needs at least 3), so the header is lying.
    EventCountOverflow { declared: u64, max_possible: u64 },
    /// Unknown operation tag in an event.
    BadOpTag(u8),
    /// Unknown component tag in a `SetComponent` event.
    BadComponentTag(u8),
    /// An event names a processor outside the header's range.
    ProcOutOfRange { index: usize, proc: u16, procs: u16 },
    /// Decoding succeeded but bytes remain past the declared events.
    TrailingBytes(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::BadMagic(m) => write!(f, "not a ccsim trace (magic {m:#010x})"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::TooManyProcs(n) => write!(f, "processor count {n} exceeds u16"),
            TraceError::EventCountOverflow {
                declared,
                max_possible,
            } => write!(
                f,
                "header declares {declared} events but at most {max_possible} fit in the stream"
            ),
            TraceError::BadOpTag(t) => write!(f, "bad op tag {t}"),
            TraceError::BadComponentTag(t) => write!(f, "bad component tag {t}"),
            TraceError::ProcOutOfRange { index, proc, procs } => write!(
                f,
                "event {index} names processor {proc}, but the trace declares {procs}"
            ),
            TraceError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after the last event"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Build a trace from explicit events, validating processor ranges
    /// (the same checks [`Trace::from_bytes`] applies).
    pub fn from_events(procs: u16, events: Vec<TraceEvent>) -> Result<Trace, TraceError> {
        for (index, e) in events.iter().enumerate() {
            if e.proc >= procs {
                return Err(TraceError::ProcOutOfRange {
                    index,
                    proc: e.proc,
                    procs,
                });
            }
        }
        Ok(Trace { events, procs })
    }
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn procs(&self) -> u16 {
        self.procs
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 20);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.procs as u32).to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.proc.to_le_bytes());
            match e.op {
                TraceOp::Load(a) => {
                    out.push(0);
                    out.extend_from_slice(&a.0.to_le_bytes());
                }
                TraceOp::Store(a, v) => {
                    out.push(1);
                    out.extend_from_slice(&a.0.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
                TraceOp::LoadExclusive(a) => {
                    out.push(2);
                    out.extend_from_slice(&a.0.to_le_bytes());
                }
                TraceOp::Busy(c) => {
                    out.push(3);
                    out.extend_from_slice(&c.to_le_bytes());
                }
                TraceOp::SetComponent(c) => {
                    out.push(4);
                    out.push(match c {
                        Component::App => 0,
                        Component::Lib => 1,
                        Component::Os => 2,
                    });
                }
            }
        }
        out
    }

    /// Deserialize from [`Trace::to_bytes`] output.
    ///
    /// Total: validates the header, every event, and that nothing trails the
    /// last declared event. Allocation is bounded by the input length, not
    /// the (untrusted) declared event count.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        struct R<'a>(&'a [u8], usize);
        impl R<'_> {
            fn take<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
                let end = self.1 + N;
                if end > self.0.len() {
                    return Err(TraceError::Truncated);
                }
                let mut a = [0u8; N];
                a.copy_from_slice(&self.0[self.1..end]);
                self.1 = end;
                Ok(a)
            }
            fn u8(&mut self) -> Result<u8, TraceError> {
                Ok(self.take::<1>()?[0])
            }
            fn u16(&mut self) -> Result<u16, TraceError> {
                Ok(u16::from_le_bytes(self.take()?))
            }
            fn u32(&mut self) -> Result<u32, TraceError> {
                Ok(u32::from_le_bytes(self.take()?))
            }
            fn u64(&mut self) -> Result<u64, TraceError> {
                Ok(u64::from_le_bytes(self.take()?))
            }
            fn remaining(&self) -> usize {
                self.0.len() - self.1
            }
        }
        let mut r = R(bytes, 0);
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let procs_raw = r.u32()?;
        let procs = u16::try_from(procs_raw).map_err(|_| TraceError::TooManyProcs(procs_raw))?;
        let declared = r.u64()?;
        // Every event carries at least proc (u16) + op tag (u8) = 3 bytes,
        // so a declared count beyond remaining/3 cannot be honest. This also
        // bounds the Vec pre-allocation by the input length rather than the
        // untrusted count.
        let max_possible = (r.remaining() / 3) as u64;
        if declared > max_possible {
            return Err(TraceError::EventCountOverflow {
                declared,
                max_possible,
            });
        }
        let n = declared as usize;
        let mut events = Vec::with_capacity(n);
        for index in 0..n {
            let proc = r.u16()?;
            if proc >= procs {
                return Err(TraceError::ProcOutOfRange { index, proc, procs });
            }
            let op = match r.u8()? {
                0 => TraceOp::Load(Addr(r.u64()?)),
                1 => TraceOp::Store(Addr(r.u64()?), r.u64()?),
                2 => TraceOp::LoadExclusive(Addr(r.u64()?)),
                3 => TraceOp::Busy(r.u64()?),
                4 => TraceOp::SetComponent(match r.u8()? {
                    0 => Component::App,
                    1 => Component::Lib,
                    2 => Component::Os,
                    x => return Err(TraceError::BadComponentTag(x)),
                }),
                x => return Err(TraceError::BadOpTag(x)),
            };
            events.push(TraceEvent { proc, op });
        }
        if r.remaining() != 0 {
            return Err(TraceError::TrailingBytes(r.remaining()));
        }
        Ok(Trace { events, procs })
    }
}

/// Replay a captured trace through a fresh machine.
///
/// `cfg.nodes` must cover every processor in the trace. Initial memory is
/// zero; seed values with `init` pairs if the captured run used `init`.
/// Invariant checking follows `CCSIM_INVARIANTS` (the machine default); use
/// [`replay_checked`] to force a mode and read back the report.
pub fn replay(cfg: MachineConfig, trace: &Trace, init: &[(Addr, u64)]) -> RunStats {
    replay_inner(cfg, trace, init, None, false).0
}

/// Replay with an explicit invariant-checking mode, returning what the
/// checker observed alongside the stats. This is how model-checker
/// counterexamples are validated against the concrete engine: convert to a
/// trace, replay under [`InvariantMode::Check`] (or `Strict` to panic at the
/// first violation), and inspect the report.
pub fn replay_checked(
    cfg: MachineConfig,
    trace: &Trace,
    init: &[(Addr, u64)],
    mode: InvariantMode,
) -> (RunStats, InvariantReport) {
    let (stats, report, _) = replay_inner(cfg, trace, init, Some(mode), false);
    (stats, report)
}

/// Replay while capturing the coherence event log (see [`crate::events`])
/// for SC-conformance analysis — the trace-file path of `ccsim race`.
pub fn replay_events(
    cfg: MachineConfig,
    trace: &Trace,
    init: &[(Addr, u64)],
) -> (RunStats, crate::events::EventLog) {
    let (stats, _, log) = replay_inner(cfg, trace, init, None, true);
    // ccsim-lint: allow(unwrap): capture was requested, so the log exists
    (stats, log.expect("event capture was enabled"))
}

/// The serial commit engine behind every replay flavour: a fresh machine
/// plus the per-processor clocks, time-attribution buckets, and component
/// state, advanced one captured event at a time in capture order.
struct ReplayState {
    machine: Machine,
    cfg: MachineConfig,
    clocks: Vec<u64>,
    times: Vec<ProcTimes>,
    comp: Vec<Component>,
}

impl ReplayState {
    fn new(
        cfg: MachineConfig,
        trace: &Trace,
        init: &[(Addr, u64)],
        mode: Option<InvariantMode>,
        capture_events: bool,
    ) -> ReplayState {
        assert!(
            cfg.nodes >= trace.procs,
            "trace uses {} processors, machine has {}",
            trace.procs,
            cfg.nodes
        );
        let mut machine = Machine::new(cfg);
        if let Some(m) = mode {
            machine.set_invariant_mode(m);
        }
        if capture_events {
            machine.capture_events();
        }
        for &(a, v) in init {
            machine.poke(a, v);
        }
        let n = trace.procs as usize;
        ReplayState {
            machine,
            cfg,
            clocks: vec![0u64; n],
            times: vec![ProcTimes::default(); n],
            comp: vec![Component::App; n],
        }
    }

    /// Commit one captured event.
    // ccsim-lint: allow(panic-path): replay ops index per-proc tables sized from the trace header at load time
    fn apply(&mut self, e: &TraceEvent) {
        let p = e.proc as usize;
        let id = NodeId(e.proc);
        let t0 = self.clocks[p];
        match e.op {
            TraceOp::Load(a) => {
                let (_, t1, stall) = self.machine.load(id, a, t0);
                attribute(&mut self.times[p], t0, t1, stall);
                self.clocks[p] = t1;
            }
            TraceOp::Store(a, v) => {
                let (t1, stall) = self.machine.write(id, a, v, t0, self.comp[p]);
                attribute(&mut self.times[p], t0, t1, stall);
                self.clocks[p] = t1;
            }
            TraceOp::LoadExclusive(a) => {
                let (_, t1, stall) = self.machine.load_exclusive(id, a, t0);
                attribute(&mut self.times[p], t0, t1, stall);
                self.clocks[p] = t1;
            }
            TraceOp::Busy(c) => {
                self.times[p].busy += c;
                self.clocks[p] += c;
            }
            TraceOp::SetComponent(c) => self.comp[p] = c,
        }
    }

    fn finish(mut self) -> (RunStats, InvariantReport, Option<crate::events::EventLog>) {
        let report = self.machine.invariant_report().clone();
        let log = self.machine.take_event_log();
        let stats = RunStats {
            protocol: self.cfg.protocol.kind,
            config: self.cfg,
            exec_cycles: self.clocks.iter().copied().max().unwrap_or(0),
            per_proc: self.times,
            traffic: self.machine.traffic().clone(),
            dir: self.machine.dir_stats(),
            machine: self.machine.counters(),
            oracle: *self.machine.oracle_stats(),
            false_sharing: *self.machine.false_sharing_stats(),
        };
        (stats, report, log)
    }
}

fn replay_inner(
    cfg: MachineConfig,
    trace: &Trace,
    init: &[(Addr, u64)],
    mode: Option<InvariantMode>,
    capture_events: bool,
) -> (RunStats, InvariantReport, Option<crate::events::EventLog>) {
    let mut st = ReplayState::new(cfg, trace, init, mode, capture_events);
    for e in &trace.events {
        st.apply(e);
    }
    st.finish()
}

fn attribute(t: &mut ProcTimes, t0: u64, t1: u64, stall: crate::machine::StallKind) {
    let dt = t1 - t0;
    match stall {
        crate::machine::StallKind::None => t.busy += dt,
        crate::machine::StallKind::Read => t.read_stall += dt,
        crate::machine::StallKind::Write => t.write_stall += dt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::SimBuilder;
    use ccsim_types::ProtocolKind;

    fn capture_counter_run(kind: ProtocolKind) -> (RunStats, Trace) {
        let mut b = SimBuilder::new(MachineConfig::splash_baseline(kind));
        b.capture_trace();
        let a = b.alloc().alloc_padded(8, 64);
        for _ in 0..4 {
            b.spawn(move |p| {
                for _ in 0..50 {
                    p.fetch_add(a, 1);
                    p.busy(23);
                }
            });
        }
        let mut done = b.run_full();
        let trace = done.take_trace().expect("capture was enabled");
        (done.stats, trace)
    }

    #[test]
    fn replay_same_config_reproduces_run_exactly() {
        for kind in ProtocolKind::ALL {
            let (orig, trace) = capture_counter_run(kind);
            let replayed = replay(MachineConfig::splash_baseline(kind), &trace, &[]);
            assert_eq!(replayed.exec_cycles, orig.exec_cycles, "{kind:?}");
            assert_eq!(
                replayed.traffic.total_bytes(),
                orig.traffic.total_bytes(),
                "{kind:?}"
            );
            assert_eq!(replayed.dir.global_reads, orig.dir.global_reads);
            assert_eq!(replayed.machine.silent_stores, orig.machine.silent_stores);
            assert_eq!(
                replayed.oracle.total().global_writes,
                orig.oracle.total().global_writes
            );
            for (a, b) in replayed.per_proc.iter().zip(&orig.per_proc) {
                assert_eq!(a, b, "{kind:?}: per-proc times diverged");
            }
        }
    }

    #[test]
    fn replay_under_different_protocol() {
        let (base, trace) = capture_counter_run(ProtocolKind::Baseline);
        let ls = replay(
            MachineConfig::splash_baseline(ProtocolKind::Ls),
            &trace,
            &[],
        );
        assert!(
            ls.machine.silent_stores > 0,
            "LS replay should fire the optimization"
        );
        assert!(ls.write_stall() < base.write_stall());
        assert!(ls.traffic.total_bytes() < base.traffic.total_bytes());
    }

    #[test]
    fn binary_round_trip() {
        let (_, trace) = capture_counter_run(ProtocolKind::Baseline);
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Trace::from_bytes(b"not a trace").is_err());
        assert!(Trace::from_bytes(&[]).is_err());
        // Valid header, truncated body.
        let (_, trace) = capture_counter_run(ProtocolKind::Baseline);
        let bytes = trace.to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn capture_records_components_and_hints() {
        let mut b = SimBuilder::new(MachineConfig::splash_baseline(ProtocolKind::Baseline));
        b.capture_trace();
        let a = b.alloc().alloc_words(1);
        b.spawn(move |p| {
            p.set_component(Component::Os);
            p.load_exclusive(a);
            p.store(a, 7);
        });
        let mut done = b.run_full();
        let trace = done.take_trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e.op, TraceOp::SetComponent(Component::Os))));
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e.op, TraceOp::LoadExclusive(_))));
        // Replay preserves the component attribution.
        let r = replay(
            MachineConfig::splash_baseline(ProtocolKind::Baseline),
            &trace,
            &[],
        );
        assert_eq!(r.oracle.component(Component::Os).global_writes, 1);
    }

    #[test]
    fn replay_with_seeded_memory() {
        let mut b = SimBuilder::new(MachineConfig::splash_baseline(ProtocolKind::Baseline));
        b.capture_trace();
        let a = b.alloc().alloc_words(1);
        b.init(a, 41);
        b.spawn(move |p| {
            let v = p.load(a);
            p.store(a, v + 1);
        });
        let mut done = b.run_full();
        let trace = done.take_trace().unwrap();
        // Replay applies the captured store value: memory must end at 42
        // regardless of seeding — the trace carries the computed value.
        let r = replay(
            MachineConfig::splash_baseline(ProtocolKind::Ls),
            &trace,
            &[(a, 41)],
        );
        assert_eq!(r.dir.global_reads, 1);
    }
}
