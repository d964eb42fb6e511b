//! A set of independent simulation jobs fanned across a bounded worker
//! pool, with deterministic result ordering.
//!
//! A simulation run occupies roughly one core regardless of its node count.
//! On the default fiber backend it is one OS thread; on the thread backend
//! (`CCSIM_SIM_ENGINE=threads`) it spawns one OS thread per simulated
//! processor, serialized under the engine lock, and those threads all exist
//! at once. The pool budget therefore divides the host's cores by the
//! widest job's processor count, keeping the total live-thread count
//! bounded on either backend while still running independent experiments
//! concurrently.
//!
//! Results come back in submission order no matter which worker finished
//! first, and every job goes through the run cache, so a `JobSet` is a
//! drop-in replacement for a sequential `for` loop over `run_spec` calls:
//! same values, same order, less wall-clock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use ccsim_engine::RunStats;
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_workloads::Spec;

use crate::cache::{run_cached_at, CacheMode};

/// One independent simulation: a machine configuration plus a workload.
#[derive(Clone, Debug)]
pub struct Job {
    pub cfg: MachineConfig,
    pub spec: Spec,
}

/// One job's failure, with enough context to reproduce it: which slot in
/// the batch, what was being simulated, and the panic message.
#[derive(Clone, Debug)]
pub struct JobError {
    /// The job's index in submission order.
    pub index: usize,
    /// Workload description (the spec's debug form).
    pub workload: String,
    /// Protocol the failing run was configured with.
    pub protocol: ProtocolKind,
    /// Node count of the failing run.
    pub nodes: u16,
    /// The panic payload, stringified.
    pub detail: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job #{} ({} under {:?}, {} nodes) panicked: {}",
            self.index, self.workload, self.protocol, self.nodes, self.detail
        )
    }
}

/// Stringify a panic payload (panics carry `&str` or `String` in practice;
/// anything else gets a placeholder rather than being dropped).
pub(crate) fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker budget for jobs that each spawn `procs_per_run` simulated
/// processors: host cores divided by that width, at least 1. The
/// `CCSIM_JOBS` environment variable overrides the result (0 is ignored).
pub fn default_workers(procs_per_run: usize) -> usize {
    if let Some(n) = std::env::var("CCSIM_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (host / procs_per_run.max(1)).max(1)
}

/// An ordered batch of independent simulation jobs.
#[derive(Default)]
pub struct JobSet {
    jobs: Vec<Job>,
}

impl JobSet {
    pub fn new() -> Self {
        JobSet::default()
    }

    /// Queue one run; returns its index in the result vector.
    pub fn push(&mut self, cfg: MachineConfig, spec: Spec) -> usize {
        self.jobs.push(Job { cfg, spec });
        self.jobs.len() - 1
    }

    /// Queue the same workload under several protocols (the shape every
    /// figure uses); returns the index of the first.
    pub fn push_protocols(
        &mut self,
        cfg: MachineConfig,
        spec: &Spec,
        kinds: &[ProtocolKind],
    ) -> usize {
        let first = self.jobs.len();
        for &k in kinds {
            self.push(cfg.with_protocol(k), spec.clone());
        }
        first
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The environment-configured worker budget for this batch: host cores
    /// divided by the widest job's node count.
    fn env_workers(&self) -> usize {
        let widest = self
            .jobs
            .iter()
            .map(|j| j.cfg.nodes as usize)
            .max()
            .unwrap_or(1);
        default_workers(widest)
    }

    /// Run every job and return results in submission order, using the
    /// environment-configured cache mode and worker budget. Panics on the
    /// first failed job; use [`JobSet::run_checked`] to keep the healthy
    /// results of a partially failing batch.
    pub fn run(self) -> Vec<RunStats> {
        let workers = self.env_workers();
        self.run_with(workers, CacheMode::from_env(), crate::cache::default_dir())
    }

    /// Run with an explicit worker count, cache mode and cache directory
    /// (the form tests use — no environment reads). Panics with the failing
    /// job's context if any job fails.
    pub fn run_with(self, workers: usize, mode: CacheMode, dir: PathBuf) -> Vec<RunStats> {
        self.run_checked_with(workers, mode, dir)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Like [`JobSet::run`], but fail-safe: each job runs under
    /// `catch_unwind`, so one panicking job yields an `Err` carrying its
    /// context in that job's result slot while every other job still runs
    /// to completion.
    pub fn run_checked(self) -> Vec<Result<RunStats, JobError>> {
        let workers = self.env_workers();
        self.run_checked_with(workers, CacheMode::from_env(), crate::cache::default_dir())
    }

    /// [`JobSet::run_checked`] with an explicit worker count, cache mode
    /// and cache directory.
    pub fn run_checked_with(
        self,
        workers: usize,
        mode: CacheMode,
        dir: PathBuf,
    ) -> Vec<Result<RunStats, JobError>> {
        let jobs = self.jobs;
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = workers.clamp(1, n);
        let run_one = |i: usize, job: &Job| -> Result<RunStats, JobError> {
            catch_unwind(AssertUnwindSafe(|| {
                run_cached_at(job.cfg, &job.spec, mode, &dir)
            }))
            .map_err(|payload| JobError {
                index: i,
                workload: format!("{:?}", job.spec),
                protocol: job.cfg.protocol.kind,
                nodes: job.cfg.nodes,
                detail: panic_detail(payload),
            })
        };
        // The shared bounded pool keeps submission order in the result
        // vector regardless of which worker finished first; `run_one`
        // already catches panics, so a worker never dies mid-batch.
        ccsim_util::pool::run_indexed(workers, n, |i| run_one(i, &jobs[i]))
    }
}

/// Run one workload under each of `kinds` in parallel; results align with
/// `kinds` by index. The common "all three protocols" case in one call.
pub fn run_protocols(cfg: MachineConfig, spec: &Spec, kinds: &[ProtocolKind]) -> Vec<RunStats> {
    let mut set = JobSet::new();
    set.push_protocols(cfg, spec, kinds);
    set.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::MachineConfig;
    use ccsim_workloads::mp3d::Mp3dParams;

    fn tiny_spec(particles: u64) -> Spec {
        let mut p = Mp3dParams::quick();
        p.particles = particles;
        p.steps = 1;
        Spec::Mp3d(p)
    }

    #[test]
    fn results_keep_submission_order() {
        // Off-mode runs bump the global bypass counter the cache tests read.
        let _stats = crate::cache::tests::stats_lock();
        let mut set = JobSet::new();
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        for kind in [ProtocolKind::Ls, ProtocolKind::Baseline, ProtocolKind::Ad] {
            set.push(cfg.with_protocol(kind), tiny_spec(24));
        }
        assert_eq!(set.len(), 3);
        let out = set.run_with(3, CacheMode::Off, crate::cache::default_dir());
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].protocol, ProtocolKind::Ls);
        assert_eq!(out[1].protocol, ProtocolKind::Baseline);
        assert_eq!(out[2].protocol, ProtocolKind::Ad);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // Off-mode runs bump the global bypass counter the cache tests read.
        let _stats = crate::cache::tests::stats_lock();
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        let build = || {
            let mut set = JobSet::new();
            for kind in ProtocolKind::ALL {
                set.push(cfg.with_protocol(kind), tiny_spec(32));
            }
            for particles in [16, 24] {
                set.push(cfg, tiny_spec(particles));
            }
            set
        };
        let serial = build().run_with(1, CacheMode::Off, crate::cache::default_dir());
        let parallel = build().run_with(4, CacheMode::Off, crate::cache::default_dir());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn push_protocols_expands_in_order() {
        let mut set = JobSet::new();
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        let first = set.push_protocols(cfg, &tiny_spec(16), &ProtocolKind::ALL);
        assert_eq!(first, 0);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn empty_set_runs_to_empty() {
        assert!(JobSet::new().is_empty());
        assert_eq!(
            JobSet::new()
                .run_with(4, CacheMode::Off, crate::cache::default_dir())
                .len(),
            0
        );
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers(4) >= 1);
        assert!(default_workers(0) >= 1);
        assert!(default_workers(usize::MAX) >= 1);
    }
}
