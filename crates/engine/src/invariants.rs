//! Runtime coherence invariant checking.
//!
//! A directory bug would not crash the simulator — it would silently skew
//! every figure the repo reproduces. This module re-derives the protocol's
//! safety conditions from first principles after every protocol action and
//! reports divergence as structured [`InvariantViolation`]s:
//!
//! * **SWMR** — single-writer/multiple-reader: at most one cache holds a
//!   writable (non-`Shared`) copy, and no sharer coexists with such an
//!   owner. `LStemp` (cache state `Excl`, the LS protocol's speculative
//!   exclusive-clean grant) counts as a writable copy.
//! * **State agreement** — the home directory's view (home state + exact
//!   sharer set, the LR pointer, and the LS/migratory tag bit) matches the
//!   actual cache states across the machine.
//! * **Data value** — every load returns the value of the most recent store
//!   to that address, tracked in a golden flat memory maintained
//!   independently of the simulator's store.
//!
//! Cost and strictness are controlled by [`InvariantMode`], selected in
//! code or via `CCSIM_INVARIANTS=off|check|strict`:
//!
//! * `off` (default) — no checking, no overhead beyond one branch.
//! * `check` — violations are collected into an [`InvariantReport`] the
//!   caller can inspect after the run; the simulation continues.
//! * `strict` — the first violation panics with full context (used by the
//!   CI fault soak, where any violation must fail the build).

use ccsim_cache::LineState;
use ccsim_core::rules::copy_violations;
use ccsim_core::{CopyState, DirEntry};
use ccsim_types::{Addr, BlockAddr, NodeId, ProtocolKind};
use ccsim_util::FxHashMap;

/// The safety-rule vocabulary is shared with the bounded model checker —
/// `ccsim_core::rules::SafetyRule` re-exported under the engine's
/// historical name.
pub use ccsim_core::SafetyRule as InvariantRule;

/// How much invariant checking to do, and what to do on a violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InvariantMode {
    /// No checking (production default).
    #[default]
    Off,
    /// Check and collect violations; never panic.
    Check,
    /// Check and panic on the first violation.
    Strict,
}

impl InvariantMode {
    /// Parse `CCSIM_INVARIANTS`. Unset means [`InvariantMode::Off`]; an
    /// unknown value warns once on stderr and errs on the side of checking.
    pub fn from_env() -> Self {
        match std::env::var("CCSIM_INVARIANTS") {
            Ok(v) => Self::parse(&v),
            Err(_) => InvariantMode::Off,
        }
    }

    /// Parse one mode name (the `CCSIM_INVARIANTS` vocabulary).
    pub fn parse(v: &str) -> Self {
        match v {
            "" | "off" => InvariantMode::Off,
            "check" => InvariantMode::Check,
            "strict" => InvariantMode::Strict,
            other => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    // ccsim-lint: allow(debug-residue): deliberate Once-gated operator warning for a misspelled env var, off the hot path
                    eprintln!(
                        "ccsim: unknown CCSIM_INVARIANTS value `{other}` \
                         (accepted: off, check, strict); assuming `check`"
                    );
                });
                InvariantMode::Check
            }
        }
    }
}

/// One observed violation, with enough context to reproduce it.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    pub rule: InvariantRule,
    pub block: BlockAddr,
    pub cycle: u64,
    /// The node whose access triggered the check.
    pub node: NodeId,
    pub protocol: ProtocolKind,
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at cycle {} via {} ({}): {}",
            self.rule.label(),
            self.block,
            self.cycle,
            self.node,
            self.protocol.label(),
            self.detail
        )
    }
}

/// Cap on stored violations; past it only the count grows (a broken run
/// would otherwise collect one violation per access).
const MAX_RECORDED: usize = 64;

/// Aggregated outcome of a checked run.
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    violations: Vec<InvariantViolation>,
    dropped: u64,
    checks: u64,
}

impl InvariantReport {
    /// Violations recorded (capped at an internal bound; see
    /// [`InvariantReport::total_violations`] for the true count).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Total violations observed, including any dropped past the cap.
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.dropped
    }

    /// Number of invariant checks executed (proof the checker actually ran).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }
}

impl std::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} invariant check(s), {} violation(s)",
            self.checks,
            self.total_violations()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "  ... and {} more (capped)", self.dropped)?;
        }
        Ok(())
    }
}

/// Map a concrete cache line state to the shared rules vocabulary.
pub fn copy_state(s: LineState) -> CopyState {
    match s {
        LineState::Shared => CopyState::Shared,
        LineState::Excl => CopyState::Excl,
        LineState::ExclDirty => CopyState::ExclDirty,
        LineState::Modified => CopyState::Modified,
    }
}

/// Map an abstract copy state back to the concrete cache vocabulary.
pub fn line_state(s: CopyState) -> LineState {
    match s {
        CopyState::Shared => LineState::Shared,
        CopyState::Excl => LineState::Excl,
        CopyState::ExclDirty => LineState::ExclDirty,
        CopyState::Modified => LineState::Modified,
    }
}

/// Compute the invariant violations visible for one block, given the home's
/// directory entry and the actual cache holders `(node, state)`.
///
/// Delegates to [`ccsim_core::rules::copy_violations`] — the *same* checks
/// the bounded model checker applies to every abstract state — after
/// translating the concrete [`LineState`]s.
pub fn block_violations(
    protocol: ProtocolKind,
    block: BlockAddr,
    entry: Option<&DirEntry>,
    holders: &[(NodeId, LineState)],
) -> Vec<(InvariantRule, String)> {
    let abstract_holders: Vec<(NodeId, CopyState)> =
        holders.iter().map(|&(n, s)| (n, copy_state(s))).collect();
    copy_violations(protocol, block, entry, &abstract_holders)
}

/// The per-machine checker: mode, golden memory, and the report.
pub struct InvariantChecker {
    mode: InvariantMode,
    /// Golden flat memory: address -> last stored value. Populated lazily
    /// (first load of an untracked address adopts the observed value), so
    /// the mode can be switched on at any point of a run.
    golden: FxHashMap<Addr, u64>,
    report: InvariantReport,
    /// Scratch holder list for [`InvariantChecker::check_holders`], reused
    /// so a clean check allocates nothing.
    holders: Vec<(NodeId, CopyState)>,
}

impl InvariantChecker {
    pub fn new(mode: InvariantMode) -> Self {
        InvariantChecker {
            mode,
            golden: FxHashMap::default(),
            report: InvariantReport::default(),
            holders: Vec::new(),
        }
    }

    pub fn mode(&self) -> InvariantMode {
        self.mode
    }

    pub fn set_mode(&mut self, mode: InvariantMode) {
        self.mode = mode;
    }

    pub fn report(&self) -> &InvariantReport {
        &self.report
    }

    /// Track a store (or pre-run poke) in the golden memory.
    pub fn record_golden(&mut self, addr: Addr, value: u64) {
        if self.mode != InvariantMode::Off {
            self.golden.insert(addr, value);
        }
    }

    /// Data-value check for one load.
    pub fn check_value(
        &mut self,
        addr: Addr,
        value: u64,
        block: BlockAddr,
        node: NodeId,
        cycle: u64,
        protocol: ProtocolKind,
    ) {
        if self.mode == InvariantMode::Off {
            return;
        }
        self.report.checks += 1;
        match self.golden.get(&addr) {
            Some(&expect) if expect != value => {
                self.record(InvariantViolation {
                    rule: InvariantRule::DataValue,
                    block,
                    cycle,
                    node,
                    protocol,
                    detail: format!("load of {addr} returned {value:#x}, expected {expect:#x}"),
                });
            }
            Some(_) => {}
            None => {
                self.golden.insert(addr, value);
            }
        }
    }

    /// Run the block-level suite (SWMR, state agreement, entry checks).
    pub fn check_block(
        &mut self,
        protocol: ProtocolKind,
        block: BlockAddr,
        entry: Option<&DirEntry>,
        holders: &[(NodeId, LineState)],
        node: NodeId,
        cycle: u64,
    ) {
        self.check_holders(protocol, block, entry, node, cycle, |out| {
            out.extend(holders.iter().map(|&(n, s)| (n, copy_state(s))));
        });
    }

    /// [`InvariantChecker::check_block`] with the holders written by `fill`
    /// into a scratch list the checker keeps between calls: the per-access
    /// hook of a checked run, which allocates nothing unless it records a
    /// violation. `fill` runs only when checking is on.
    pub fn check_holders(
        &mut self,
        protocol: ProtocolKind,
        block: BlockAddr,
        entry: Option<&DirEntry>,
        node: NodeId,
        cycle: u64,
        fill: impl FnOnce(&mut Vec<(NodeId, CopyState)>),
    ) {
        if self.mode == InvariantMode::Off {
            return;
        }
        self.report.checks += 1;
        let mut holders = std::mem::take(&mut self.holders);
        holders.clear();
        fill(&mut holders);
        for (rule, detail) in copy_violations(protocol, block, entry, &holders) {
            self.record(InvariantViolation {
                rule,
                block,
                cycle,
                node,
                protocol,
                detail,
            });
        }
        self.holders = holders;
    }

    /// Record transition-postcondition failures (the `check_*` functions of
    /// `ccsim_core::rules`) as [`InvariantRule::ProtocolRule`] violations.
    pub fn check_rules(
        &mut self,
        violations: Vec<String>,
        block: BlockAddr,
        node: NodeId,
        cycle: u64,
        protocol: ProtocolKind,
    ) {
        if self.mode == InvariantMode::Off {
            return;
        }
        self.report.checks += 1;
        for detail in violations {
            self.record(InvariantViolation {
                rule: InvariantRule::ProtocolRule,
                block,
                cycle,
                node,
                protocol,
                detail,
            });
        }
    }

    // ccsim-lint: allow(panic-path): a coherence invariant violation is fatal by design; committing further frames would corrupt the replay
    fn record(&mut self, v: InvariantViolation) {
        if self.mode == InvariantMode::Strict {
            panic!("coherence invariant violated: {v}");
        }
        if self.report.violations.len() < MAX_RECORDED {
            self.report.violations.push(v);
        } else {
            self.report.dropped += 1;
        }
    }

    /// Test-only: desynchronize the golden memory from the simulated store
    /// so the data-value rule demonstrably fires. Only compiled with the
    /// `testing` feature.
    #[cfg(feature = "testing")]
    #[doc(hidden)]
    pub fn corrupt_golden_for_test(&mut self, addr: Addr) {
        let v = self.golden.get(&addr).copied().unwrap_or(0);
        self.golden.insert(addr, v ^ 0xDEAD_BEEF);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_core::{HomeState, SharerSet};

    const B: BlockAddr = BlockAddr(0x40);

    fn entry(state: HomeState, sharers: &[u16]) -> DirEntry {
        let mut e = DirEntry::new(false);
        e.state = state;
        for &n in sharers {
            e.sharers.insert(NodeId(n));
        }
        e
    }

    #[test]
    fn clean_states_produce_no_violations() {
        let e = entry(HomeState::Shared, &[0, 2]);
        let holders = [
            (NodeId(0), LineState::Shared),
            (NodeId(2), LineState::Shared),
        ];
        assert!(block_violations(ProtocolKind::Ls, B, Some(&e), &holders).is_empty());
        let e = entry(HomeState::Owned(NodeId(1)), &[1]);
        let holders = [(NodeId(1), LineState::Modified)];
        assert!(block_violations(ProtocolKind::Ls, B, Some(&e), &holders).is_empty());
        assert!(block_violations(ProtocolKind::Ls, B, None, &[]).is_empty());
    }

    #[test]
    fn swmr_catches_writer_plus_sharer() {
        // LStemp (Excl) coexisting with a sharer is an SWMR violation even
        // though neither copy is dirty.
        let holders = [(NodeId(0), LineState::Excl), (NodeId(1), LineState::Shared)];
        let got = block_violations(ProtocolKind::Ls, B, None, &holders);
        assert!(got.iter().any(|(r, _)| *r == InvariantRule::Swmr));
    }

    #[test]
    fn agreement_catches_phantom_and_missing_sharers() {
        let e = entry(HomeState::Shared, &[0, 3]);
        // Node 3 is claimed but holds nothing; node 1 holds but is unclaimed.
        let holders = [
            (NodeId(0), LineState::Shared),
            (NodeId(1), LineState::Shared),
        ];
        let got = block_violations(ProtocolKind::Baseline, B, Some(&e), &holders);
        let agreement: Vec<_> = got
            .iter()
            .filter(|(r, _)| *r == InvariantRule::StateAgreement)
            .collect();
        assert_eq!(agreement.len(), 2);
    }

    #[test]
    fn entry_internal_inconsistency_is_reported() {
        let mut e = entry(HomeState::Owned(NodeId(2)), &[2]);
        e.sharers = SharerSet::single(NodeId(0));
        let holders = [(NodeId(2), LineState::Modified)];
        let got = block_violations(ProtocolKind::Ad, B, Some(&e), &holders);
        assert!(got.iter().any(|(r, _)| *r == InvariantRule::DirectoryEntry));
    }

    #[test]
    fn baseline_must_not_tag() {
        let mut e = entry(HomeState::Shared, &[0]);
        e.tagged = true;
        let holders = [(NodeId(0), LineState::Shared)];
        let got = block_violations(ProtocolKind::Baseline, B, Some(&e), &holders);
        assert!(got.iter().any(|(r, _)| *r == InvariantRule::DirectoryEntry));
        // The same entry is legal under LS.
        let got = block_violations(ProtocolKind::Ls, B, Some(&e), &holders);
        assert!(got.is_empty());
    }

    #[test]
    fn checker_collects_and_caps() {
        let mut c = InvariantChecker::new(InvariantMode::Check);
        let holders = [
            (NodeId(0), LineState::Modified),
            (NodeId(1), LineState::Shared),
        ];
        for i in 0..(MAX_RECORDED as u64 + 10) {
            c.check_block(ProtocolKind::Ls, B, None, &holders, NodeId(0), i);
        }
        let r = c.report();
        assert!(!r.is_clean());
        assert_eq!(r.violations().len(), MAX_RECORDED);
        assert!(r.total_violations() > MAX_RECORDED as u64);
        assert_eq!(r.checks(), MAX_RECORDED as u64 + 10);
        // Off mode does nothing.
        let mut c = InvariantChecker::new(InvariantMode::Off);
        c.check_block(ProtocolKind::Ls, B, None, &holders, NodeId(0), 0);
        assert!(c.report().is_clean());
        assert_eq!(c.report().checks(), 0);
    }

    #[test]
    #[should_panic(expected = "coherence invariant violated")]
    fn strict_mode_panics() {
        let mut c = InvariantChecker::new(InvariantMode::Strict);
        let holders = [
            (NodeId(0), LineState::Modified),
            (NodeId(1), LineState::Shared),
        ];
        c.check_block(ProtocolKind::Ls, B, None, &holders, NodeId(0), 0);
    }

    #[test]
    fn golden_memory_checks_values() {
        let mut c = InvariantChecker::new(InvariantMode::Check);
        c.record_golden(Addr(0x8), 7);
        c.check_value(Addr(0x8), 7, B, NodeId(0), 10, ProtocolKind::Ls);
        assert!(c.report().is_clean());
        c.check_value(Addr(0x8), 8, B, NodeId(0), 11, ProtocolKind::Ls);
        assert_eq!(c.report().total_violations(), 1);
        assert_eq!(c.report().violations()[0].rule, InvariantRule::DataValue);
        // Untracked addresses adopt the observed value.
        let mut c = InvariantChecker::new(InvariantMode::Check);
        c.check_value(Addr(0x10), 42, B, NodeId(1), 0, ProtocolKind::Ad);
        c.check_value(Addr(0x10), 42, B, NodeId(1), 1, ProtocolKind::Ad);
        assert!(c.report().is_clean());
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(InvariantMode::parse("off"), InvariantMode::Off);
        assert_eq!(InvariantMode::parse(""), InvariantMode::Off);
        assert_eq!(InvariantMode::parse("check"), InvariantMode::Check);
        assert_eq!(InvariantMode::parse("strict"), InvariantMode::Strict);
        // Unknown values err on the side of checking.
        assert_eq!(InvariantMode::parse("bogus"), InvariantMode::Check);
    }

    #[test]
    fn violation_display_names_everything() {
        let v = InvariantViolation {
            rule: InvariantRule::Swmr,
            block: B,
            cycle: 123,
            node: NodeId(2),
            protocol: ProtocolKind::Ls,
            detail: "two writers".into(),
        };
        let s = v.to_string();
        assert!(s.contains("SWMR"));
        assert!(s.contains("123"));
        assert!(s.contains("LS"));
        assert!(s.contains("two writers"));
    }
}
