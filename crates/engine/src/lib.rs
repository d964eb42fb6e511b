//! The program-driven multiprocessor simulator.
//!
//! Mirrors the paper's methodology (§4): "every memory access produced by the
//! workload ... is sent to the memory system simulator which handles the
//! access according to the contents and behavior of the caches. We model
//! processor stall according to the behavior and latencies of the memory
//! components, so a realistic interleaving of execution between the
//! different processors can be maintained."
//!
//! # Structure
//!
//! * [`machine::Machine`] — one simulated machine: per-node two-level cache
//!   hierarchies, per-node full-map directories, the interconnect, the flat
//!   backing store, and the transaction orchestration that composes the
//!   latency paths of Table 1 (local 100 / home 220 / remote 420 cycles,
//!   uncontended).
//! * [`oracle`] — ground-truth classifiers that run alongside the protocol:
//!   load-store-sequence and migratory-sharing detection (Tables 2 & 3) and
//!   word-granular false-sharing classification (Table 4).
//! * [`run`] — the deterministic runner: each simulated processor executes
//!   a real Rust closure (a fiber, or an OS thread on the thread backend)
//!   whose every memory access traps into the engine; processors interleave
//!   in simulated-time order (conservative time-sliced execution), so
//!   results are bit-for-bit reproducible.
//! * [`trace`] — trace capture and replay. Live runs and replay commit every
//!   operation through the same step, so a same-configuration replay
//!   reproduces the live run exactly.
//! * [`stats::RunStats`] — everything a figure or table needs: execution
//!   time split (busy / read stall / write stall), traffic by class, global
//!   read misses by home state, ownership statistics, oracle counters.
//!
//! # Sequential consistency
//!
//! §4.2: "The system implements a sequential consistency memory model and
//! the processors stall on every second level cache miss, both reads and
//! writes." The engine charges the full transaction latency to the issuing
//! processor's clock — reads stall as *read stall*, ownership acquisitions
//! as *write stall* — and a processor performs one memory operation at a
//! time. Atomic read-modify-writes execute their global read action and
//! global write action back-to-back with no intervening access, exactly the
//! load-store sequence shape of §2.

pub mod events;
pub mod fiber;
pub mod invariants;
pub mod machine;
pub mod oracle;
pub mod parallel;
pub mod run;
pub mod stats;
pub mod trace;

pub use events::{CoherenceEvent, EventKind, EventLog, EventLogError, WriteHow};
pub use invariants::{InvariantMode, InvariantReport, InvariantRule, InvariantViolation};
pub use machine::{Machine, StallKind};
pub use oracle::{Component, FalseSharingStats, OracleStats};
pub use run::{EngineKind, FinishedSim, HaltHandle, Proc, SimBuilder, DEFAULT_WATCHDOG_CYCLES};
pub use stats::{ProcTimes, RunStats};
pub use trace::{replay, replay_checked, replay_events, Trace, TraceError, TraceEvent, TraceOp};
