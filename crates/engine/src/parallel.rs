//! The one name left from the deleted planning-parallel replay sweep.
//!
//! Trace replay is a single serial commit loop ([`crate::trace::replay`]).
//! This module survives only because the benchmark package
//! (`benchmark/src/layers.rs`) imports [`replay_with_threads`] by this path;
//! it goes once that import does.

use ccsim_types::{Addr, MachineConfig};

use crate::stats::RunStats;
use crate::trace::Trace;

/// [`crate::trace::replay`] under its old name. The thread count is
/// ignored: every replay runs serially.
pub fn replay_with_threads(
    cfg: MachineConfig,
    trace: &Trace,
    init: &[(Addr, u64)],
    _threads: usize,
) -> RunStats {
    crate::trace::replay(cfg, trace, init)
}
