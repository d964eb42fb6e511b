//! Exhaustive breadth-first exploration of the bounded state space.
//!
//! Classic explicit-state search: canonical byte encodings deduplicate
//! visited states, parent links reconstruct the path to a violation, and
//! BFS order makes the first counterexample found a *shortest* one — no
//! separate minimization pass is needed.
//!
//! Visited states are kept only as their encodings, packed at a fixed
//! stride ([`AbsState::encoded_len`]) into one arena and indexed by an
//! open-addressing id table (`store.rs`). Ids are assigned in discovery
//! order, which is BFS order, so the frontier is simply the ids past the
//! one being expanded: the search needs no queue. Each expansion decodes
//! one state into a reused scratch state and steps every successor in a
//! second one, so after warm-up a transition allocates nothing.
//!
//! Exploration stops at the first violating transition (the counterexample
//! is the deliverable; everything past a broken state is noise). Clean runs
//! visit every reachable state and report the state-space metrics plus an
//! order-independent fingerprint for regression comparison.

use ccsim_core::DirStats;
use ccsim_util::fnv1a64;

use crate::config::ModelConfig;
use crate::state::{AbsState, Step, Violation};
use crate::store::StateStore;

/// State-space metrics of one exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Unique states visited (including the initial state).
    pub states: u64,
    /// Transitions executed (successor computations).
    pub transitions: u64,
    /// Successors that were already in the visited set.
    pub dedup_hits: u64,
    /// Peak BFS frontier size.
    pub max_frontier: u64,
    /// Deepest state reached (in transitions from the initial state).
    pub max_depth: u32,
    /// Wall-clock time of the exploration.
    pub wall_ms: u64,
    /// XOR of `fnv1a64` over every visited state's canonical encoding —
    /// insertion-order independent, so equal state spaces always produce
    /// equal fingerprints.
    pub state_fingerprint: u64,
}

/// A shortest run of the abstract machine ending in a violating transition.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The steps from the initial state; the last one exposes the violation.
    pub steps: Vec<Step>,
    /// The first violation that step produced (more may accompany it).
    pub violation: Violation,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>2}. {s}", i + 1)?;
        }
        write!(f, "  => {}", self.violation)
    }
}

/// Result of one bounded exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    pub config: ModelConfig,
    pub metrics: Metrics,
    /// `None` = every reachable state and transition is clean.
    pub counterexample: Option<Counterexample>,
    /// States with exhausted budgets (the only successor-free states —
    /// any other would be a deadlock, which the op alphabet excludes by
    /// construction and the explorer asserts).
    pub terminal_states: u64,
}

/// Exhaustively explore the bounded state space of `cfg`.
pub fn explore(cfg: &ModelConfig) -> Result<Exploration, String> {
    search(cfg).map(|(ex, _)| ex)
}

/// Like [`explore`], but also return every visited concrete state (in BFS
/// order). The parametric verifier's soundness cross-check projects each
/// of these into the counter-abstraction domain and asserts coverage by
/// the abstract reachable set (`tests/verify.rs`).
pub fn explore_keeping_states(cfg: &ModelConfig) -> Result<(Exploration, Vec<AbsState>), String> {
    let (ex, store) = search(cfg)?;
    let pcfg = cfg.protocol()?;
    let mut state = AbsState::initial(cfg, &pcfg);
    let states = store
        .iter()
        .map(|enc| {
            state.decode(enc);
            state.clone()
        })
        .collect();
    Ok((ex, states))
}

/// The breadth-first search behind [`explore`], returning the visited set.
fn search(cfg: &ModelConfig) -> Result<(Exploration, StateStore), String> {
    let pcfg = cfg.protocol()?;
    // ccsim-lint: allow(wall-clock): wall_ms is reporting-only, never feeds exploration order
    // ccsim-lint: allow(determinism-taint): elapsed time lands in reporting fields only, never in keys or exported state
    let start = std::time::Instant::now();
    let mut stats = DirStats::default();

    let init = AbsState::initial(cfg, &pcfg);
    let mut metrics = Metrics::default();
    let mut store = StateStore::new(AbsState::encoded_len(cfg));
    // Parent link of every state but the initial one (id 0), by id − 1.
    let mut parents: Vec<(u32, Step)> = Vec::new();
    let mut terminal_states = 0u64;

    // Scratch buffers, reused by every expansion and transition.
    let mut enc = Vec::new();
    let mut steps = Vec::new();
    let mut cur = init.clone();
    let mut next = init.clone();

    init.encode_into(&mut enc);
    metrics.state_fingerprint ^= fnv1a64(&enc);
    store.insert(&enc);
    metrics.states = 1;
    metrics.max_frontier = 1;

    // BFS levels are contiguous id ranges: `depth` is the level of `id`,
    // and `level_end` the first id of the next level.
    let (mut depth, mut level_end) = (0u32, 1usize);
    let mut id = 0usize;
    while id < store.len() {
        if id == level_end {
            depth += 1;
            level_end = store.len();
        }
        cur.decode(store.get(id));
        cur.enabled_steps_into(cfg, &mut steps);
        if steps.is_empty() {
            let budget: u32 = cur.budget.iter().map(|&b| b as u32).sum();
            assert_eq!(budget, 0, "deadlock: no enabled step but budget remains");
            terminal_states += 1;
        }
        for &step in &steps {
            next.copy_from(&cur);
            let violations = next.apply(cfg, &pcfg, &mut stats, step);
            metrics.transitions += 1;
            if let Some(v) = violations.into_iter().next() {
                let mut path = vec![step];
                let mut at = id;
                while at > 0 {
                    let (parent, s) = parents[at - 1];
                    path.push(s);
                    at = parent as usize;
                }
                path.reverse();
                metrics.max_depth = metrics.max_depth.max(depth + 1);
                metrics.wall_ms = start.elapsed().as_millis() as u64;
                return Ok((
                    Exploration {
                        config: *cfg,
                        metrics,
                        counterexample: Some(Counterexample {
                            steps: path,
                            violation: v,
                        }),
                        terminal_states,
                    },
                    store,
                ));
            }
            next.encode_into(&mut enc);
            if store.insert(&enc).is_none() {
                metrics.dedup_hits += 1;
                continue;
            }
            metrics.state_fingerprint ^= fnv1a64(&enc);
            parents.push((id as u32, step));
            metrics.states += 1;
            metrics.max_depth = metrics.max_depth.max(depth + 1);
            // The frontier is every id after the one being expanded.
            let frontier = store.len() - id - 1;
            metrics.max_frontier = metrics.max_frontier.max(frontier as u64);
        }
        id += 1;
    }
    metrics.wall_ms = start.elapsed().as_millis() as u64;
    Ok((
        Exploration {
            config: *cfg,
            metrics,
            counterexample: None,
            terminal_states,
        },
        store,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::ProtocolKind;

    #[test]
    fn two_node_one_block_baseline_is_clean() {
        let ex = explore(&ModelConfig::new(ProtocolKind::Baseline)).unwrap();
        assert!(ex.counterexample.is_none(), "{:?}", ex.counterexample);
        assert!(ex.metrics.states > 10);
        assert!(ex.terminal_states > 0);
        assert!(
            ex.metrics.max_depth <= 2 * 4,
            "depth bounded by total budget"
        );
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ModelConfig::new(ProtocolKind::Ls);
        let a = explore(&cfg).unwrap();
        let b = explore(&cfg).unwrap();
        assert_eq!(a.metrics.states, b.metrics.states);
        assert_eq!(a.metrics.transitions, b.metrics.transitions);
        assert_eq!(a.metrics.state_fingerprint, b.metrics.state_fingerprint);
    }

    #[test]
    fn invalid_configs_error() {
        assert!(explore(&ModelConfig::new(ProtocolKind::Dsi)).is_err());
    }
}
