//! Serve-scale traffic over the OLTP stack: open-loop zipfian load,
//! bounded admission queues, ward-stopped runs, latency percentiles.
//!
//! This crate turns the batch-style OLTP workload into a *service*: a
//! client population measured in millions hits the TPC-B schema with
//! zipf-skewed key popularity through an open-loop (generator never
//! back-pressured) Poisson-plus-bursts arrival process, and the run ends
//! when a ward predicate declares steady state — not when an op budget
//! runs out. The paper's ownership-overhead story (Baseline vs AD vs LS)
//! is then read off tail latency instead of aggregate traffic: lingering
//! read-shared copies of hot rows are exactly what AD's two-copy
//! detection trips over and LS's load-store sequence detection forgives.
//!
//! Module map:
//!
//! * [`config`] — [`ServeConfig`]/[`WardConfig`]/[`TxnClass`], validated
//!   at decode time (`serve:`-prefixed errors);
//! * [`zipf`] — O(1) rejection-inversion zipf sampler;
//! * [`population`] — rank→client→row mapping and split per-client
//!   parameter streams;
//! * [`arrivals`] — per-node open-loop arrival generators (thinning);
//! * [`wards`] — converged-percentiles / queue-divergence / max-cycles
//!   stop predicates;
//! * [`run`] — the driver programs, the shared measurement plane, the
//!   protocol sweep, and the serve content key;
//! * [`summary`] — flattening sweep reports into the canonical
//!   `ccsim-serve-v1` [`ccsim_stats::ServeSummary`] document.
//!
//! Everything is bit-deterministic in the run seed: same config ⇒ same
//! arrival sequence, same ward firing point, same histograms, on either
//! engine backend.

pub mod arrivals;
pub mod config;
pub mod population;
pub mod run;
pub mod summary;
pub mod wards;
pub mod zipf;

pub use arrivals::{Arrival, ArrivalGen};
pub use config::{ServeConfig, TxnClass, WardConfig};
pub use population::Population;
pub use run::{serve_key, serve_run, serve_sweep, ServeReport};
pub use summary::{row_of, summarize};
pub use wards::{StopReason, WardState};
pub use zipf::Zipf;
