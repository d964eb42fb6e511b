//! `ccsim-model`: a bounded model checker for the Baseline/AD/LS
//! coherence protocols, with counterexample replay on the concrete engine.
//!
//! # Why a model checker for a simulator?
//!
//! The simulator's protocol behaviour lives in one place —
//! [`ccsim_core::rules`], a pure transition table over directory entries —
//! and both this crate and the engine's [`ccsim_core::DirTable`] execute
//! it. Exhaustively exploring the abstract machine therefore verifies the
//! *same* state machine the simulator runs, not a re-specification that
//! could drift: there is exactly one copy of the rules.
//!
//! # What is checked
//!
//! For bounded configurations (2-4 nodes, 1-2 blocks, a per-node operation
//! budget), every interleaving of whole coherence transactions is
//! enumerated by breadth-first search over canonicalized states
//! ([`explore`]). In every reachable state and across every transition:
//!
//! * **SWMR** — a writable copy never coexists with any other copy;
//! * **directory/cache agreement** — the home's state and sharer set match
//!   the caches exactly;
//! * **data-value** — loads observe the latest store (per-block counter
//!   abstraction); dirty copies hold it; clean copies match memory;
//! * **protocol rules** — the LS tag/de-tag/LR laws (§3/§3.1 of the
//!   paper), `NotLS` reporting, AD's migratory detection, and tag survival
//!   across replacement, via the independent `check_*` postconditions in
//!   [`ccsim_core::rules`];
//! * **progress** — every transition consumes budget (no livelock within
//!   the bound) and only budget-exhausted states lack successors (no
//!   deadlock).
//!
//! # Counterexamples
//!
//! The first violating transition terminates the search; BFS order makes
//! the reported [`Counterexample`] a shortest one. [`replay`] converts it
//! into a concrete [`ccsim_engine::Trace`] (evictions become conflict-set
//! loads) and re-executes it on the real machine with runtime invariants
//! enabled, closing the loop: an abstract violation is demonstrated as a
//! concrete engine-level invariant failure.
//!
//! # Proving the checker works
//!
//! Under the `testing` cargo feature, a [`ccsim_types::RuleMutation`] can
//! be seeded into the shared transition table (e.g. skip the LS de-tag,
//! drop the `NotLS` notification, drop invalidations). The mutation tests
//! assert each seeded bug is caught with a counterexample that replays to
//! a concrete invariant failure — the checker detects real protocol bugs,
//! not just the ones it was written against.
//!
//! # Parametric verification (`ccsim verify`)
//!
//! Bounded exploration stops at 4 nodes; [`verify`] does not. It runs
//! abstract reachability over a counter-abstraction lattice
//! ([`lattice`]): per block, the home summary plus a sharer counter in
//! {0, 1, ω} and the role classes of the LR / last-writer references. The
//! abstract transition relation is derived mechanically by materializing
//! each abstract element into representative concrete states and stepping
//! them through the *same* [`AbsState::apply`] the bounded checker uses
//! ([`abstraction`]) — so a clean abstract fixpoint proves SWMR,
//! directory/cache agreement, the data-value laws and the §3 LS laws for
//! **every** node count at once. Abstract counterexamples are concretized
//! at small n through [`explore`] and replayed on the engine
//! ([`refine`]); the soundness of the over-approximation is pinned by the
//! projection-coverage test in `tests/verify.rs`.

pub mod abstraction;
pub mod config;
pub mod explore;
pub mod lattice;
pub mod refine;
pub mod replay;
pub mod state;
mod store;
pub mod summary;

pub use abstraction::{verify, AbsStep, AbstractCex, Verification, VerifyMetrics};
pub use config::{ModelConfig, MAX_BLOCKS, MAX_FAULTS, MAX_NODES, MAX_OPS};
pub use explore::{explore, explore_keeping_states, Counterexample, Exploration, Metrics};
pub use lattice::{AbsBlock, AbsHome, AbsRef, Count};
pub use refine::{refine, Refinement};
pub use replay::{machine_config, replay_counterexample, to_trace};
pub use state::{AbsState, BlockView, CopyVal, OpKind, Step, Violation};
pub use summary::{summarize, summarize_verify};
