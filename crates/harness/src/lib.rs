//! Parallel experiment harness: a bounded worker-pool [`JobSet`] plus a
//! content-addressed on-disk run cache.
//!
//! The simulator is *internally* parallel (one OS thread per simulated
//! processor) but fully deterministic: the engine admits exactly one
//! simulated processor at a time, chosen from simulated state alone, so a
//! `(MachineConfig, Spec)` pair always produces bit-for-bit identical
//! [`RunStats`](ccsim_engine::RunStats). Two consequences this crate
//! exploits:
//!
//! 1. **Independent runs are embarrassingly parallel.** A figure needs the
//!    same workload under Baseline/AD/LS, a sweep needs many cache sizes —
//!    none of those runs communicate. [`JobSet`] fans them out across a
//!    bounded pool of OS threads (budget: host cores divided by the threads
//!    each run spawns itself) and returns results in submission order.
//! 2. **Results are pure functions of their inputs.** [`cache`] memoizes
//!    `RunStats` on disk, keyed by a stable hash of the serialized config +
//!    spec + a crate-version salt. A warm cache replays an entire
//!    experiment suite without simulating anything.

pub mod cache;
pub mod chaos;
pub mod jobset;

pub use cache::{default_dir, run_cached, run_cached_at, run_key, CacheMode, CacheStats};
pub use chaos::{
    chaos_plan, sweep, ChaosCell, ChaosConfig, ChaosOutcome, ChaosWitness, SEQUENTIAL_QUANTUM,
};
pub use jobset::{default_workers, run_protocols, Job, JobError, JobSet};
