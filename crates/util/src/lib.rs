//! Zero-dependency support library for the ccsim workspace.
//!
//! The build environment is fully offline — no crates.io registry is
//! available — so everything the simulator previously pulled from external
//! crates lives here instead:
//!
//! * [`fxhash`] — the FxHash algorithm (rustc's default hasher) and
//!   [`FxHashMap`]/[`FxHashSet`] aliases, replacing `rustc-hash`;
//! * [`json`] — a small JSON value model, parser, and deterministic writer
//!   with [`ToJson`]/[`FromJson`] traits, replacing `serde`/`serde_json`
//!   for run-statistics export and the content-addressed run cache;
//! * [`stable_hash`] — FNV-1a content hashing for cache keys;
//! * [`rng64`] — a seedable xoshiro256++ generator, the core under
//!   `ccsim_types::SimRng` (replacing `rand`) and the test-case generator;
//! * [`check`] — a deterministic mini property-test runner replacing
//!   `proptest` for the workspace's randomized invariant tests;
//! * [`pool`] — the bounded scoped worker pool (deterministic result
//!   ordering) behind the harness `JobSet`, replacing `rayon`;
//! * [`slab`] — lazily-paged dense arrays for per-block hot-path state;
//! * [`latency`] — integer-only log-bucketed latency histograms with a
//!   deterministic merge, the serve-scale measurement plane (replacing
//!   `hdrhistogram`).

pub mod check;
pub mod fxhash;
pub mod json;
pub mod latency;
pub mod pool;
pub mod rng64;
pub mod slab;
pub mod stable_hash;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use json::{FromJson, Json, ToJson};
pub use latency::LatencyHistogram;
pub use rng64::Xoshiro256pp;
pub use slab::Slab;
pub use stable_hash::{fnv1a64, Fnv1a};
