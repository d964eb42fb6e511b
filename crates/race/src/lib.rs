//! Happens-before race detector and SC-conformance analyzer for `ccsim`
//! coherence event logs (`ccsim race`).
//!
//! Input: the structured [`EventLog`] the engine captures behind
//! `SimBuilder::capture_events` (or `replay_events` for a stored trace).
//! The analyzer makes one deterministic pass, `O(events)` when every read
//! observes the newest value of its word (always true of engine logs) and
//! `O(events × nodes)` otherwise:
//!
//! 1. [`hb`] builds the happens-before graph (program order, reads-from,
//!    coherence order, from-read, invalidation-acknowledgement edges),
//!    computes per-event vector clocks, checks the per-location SC axioms
//!    (read-value conformance against golden memory, CoWR, CoRR, with the
//!    CoWW/CoRW predicates exposed directly), and extracts a global SC
//!    witness — a topological order of all events, fingerprinted for
//!    determinism checks — or, on failure, a minimal witness cycle.
//! 2. [`shadow`] replays the *unmutated* protocol rules transaction by
//!    transaction next to the log: grant kinds, invalidation victim sets,
//!    owner actions and `NotLS` reports must match the spec; cached-copy
//!    lifetimes are tracked for SWMR, hit-legality, and stale-copy checks;
//!    and the paper's §2 load-store-sequence definition is re-derived from
//!    scratch and cross-checked against the oracle verdicts in the log.
//!
//! Every violation carries a **witness**: the shortest offending event
//! chain (for SC violations, the minimal happens-before cycle), rendered
//! with the events' log indices.

pub mod hb;
pub mod shadow;

use ccsim_engine::EventLog;
use ccsim_types::ProtocolConfig;
use ccsim_util::FxHashSet;

pub use hb::{corw_violates, coww_violates, hb_le};

/// What a violation violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A read's value matches no logged write or init of that word.
    ReadValue,
    /// A read observed a version older than a write that happens-before it.
    CoWr,
    /// One processor's reads of a word went backward in coherence order.
    CoRr,
    /// Two writes' happens-before order contradicts coherence order.
    CoWw,
    /// A read happens-before a write co-before what it observed.
    CoRw,
    /// The happens-before graph is cyclic: no SC witness exists.
    ScCycle,
    /// An exclusive copy coexisted with another copy.
    Swmr,
    /// A cache hit on a copy that survived a foreign write.
    StaleHit,
    /// A cache hit without a live (or sufficient) tracked copy.
    HitWithoutCopy,
    /// The spec demands an invalidation the log does not contain.
    MissingInval,
    /// The log contains an invalidation the spec does not demand.
    SpuriousInval,
    /// The granted copy kind contradicts the spec.
    GrantMismatch,
    /// The `NotLS` flag/report contradicts the spec (§3.1 case 2).
    NotLsMismatch,
    /// The forwarding owner's action (downgrade/invalidate) contradicts
    /// the spec.
    OwnerActionMismatch,
    /// A silent store on a line not held exclusive-clean.
    SilentStore,
    /// The oracle's load-store verdict contradicts the §2 definition.
    LsDefinition,
    /// A `NotLS` report from a node without an unwritten exclusive copy.
    SpuriousNotLs,
}

impl ViolationKind {
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::ReadValue => "read-value",
            ViolationKind::CoWr => "co-wr",
            ViolationKind::CoRr => "co-rr",
            ViolationKind::CoWw => "co-ww",
            ViolationKind::CoRw => "co-rw",
            ViolationKind::ScCycle => "sc-cycle",
            ViolationKind::Swmr => "swmr",
            ViolationKind::StaleHit => "stale-hit",
            ViolationKind::HitWithoutCopy => "hit-without-copy",
            ViolationKind::MissingInval => "missing-inval",
            ViolationKind::SpuriousInval => "spurious-inval",
            ViolationKind::GrantMismatch => "grant",
            ViolationKind::NotLsMismatch => "notls",
            ViolationKind::OwnerActionMismatch => "owner-action",
            ViolationKind::SilentStore => "silent-store",
            ViolationKind::LsDefinition => "ls-def",
            ViolationKind::SpuriousNotLs => "spurious-notls",
        }
    }
}

/// One detected violation with its minimal witness chain (event indices
/// into the analyzed log; for [`ViolationKind::ScCycle`] the chain is a
/// cycle — the last event happens-before the first).
#[derive(Clone, Debug)]
pub struct RaceViolation {
    pub kind: ViolationKind,
    pub detail: String,
    pub witness: Vec<u32>,
}

impl RaceViolation {
    /// Human rendering with the witness events spelled out.
    pub fn render(&self, log: &EventLog) -> String {
        let mut s = format!("[{}] {}\n  witness:", self.kind.label(), self.detail);
        const SHOWN: usize = 12;
        for &id in self.witness.iter().take(SHOWN) {
            match log.events().get(id as usize) {
                Some(e) => s.push_str(&format!("\n    #{id}  {e}")),
                None => s.push_str(&format!("\n    #{id}  <out of range>")),
            }
        }
        if self.witness.len() > SHOWN {
            s.push_str(&format!(
                "\n    … {} more events",
                self.witness.len() - SHOWN
            ));
        }
        if let (ViolationKind::ScCycle, Some(&first)) = (self.kind, self.witness.first()) {
            s.push_str(&format!("\n    → back to #{first} (cycle)"));
        }
        s
    }
}

/// Work and edge counters for one analysis pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaceCounts {
    pub events: u64,
    pub accesses: u64,
    pub reads: u64,
    pub writes: u64,
    pub blocks: u64,
    pub words: u64,
    pub po_edges: u64,
    pub rf_edges: u64,
    pub co_edges: u64,
    pub fr_edges: u64,
    pub ack_edges: u64,
    /// Exclusive grants whose legality the shadow replay validated.
    pub excl_grants_checked: u64,
    /// Forwarded reads where the owner-independent NotLS law applied.
    pub notls_checked: u64,
    /// Global/silent writes whose oracle verdict the §2 mirror checked.
    pub ls_writes_checked: u64,
}

/// The analyzer's verdict.
#[derive(Debug, Default)]
pub struct RaceReport {
    pub counts: RaceCounts,
    /// FNV-1a fingerprint of the SC witness order; `None` iff the
    /// happens-before graph is cyclic.
    pub sc_fingerprint: Option<u64>,
    /// Detected violations, capped at [`RaceReport::MAX_VIOLATIONS`] and
    /// deduplicated per (kind, block/word).
    pub violations: Vec<RaceViolation>,
    /// Violations suppressed by the cap or the per-(kind, location) dedup.
    pub suppressed: u64,
    seen: FxHashSet<(ViolationKind, u64)>,
}

impl RaceReport {
    pub const MAX_VIOLATIONS: usize = 64;

    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Detected + suppressed.
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }

    pub fn first_violation(&self) -> Option<&RaceViolation> {
        self.violations.first()
    }

    pub(crate) fn push(
        &mut self,
        kind: ViolationKind,
        key: u64,
        detail: String,
        witness: Vec<u32>,
    ) {
        if !self.seen.insert((kind, key)) || self.violations.len() >= Self::MAX_VIOLATIONS {
            self.suppressed += 1;
            return;
        }
        self.violations.push(RaceViolation {
            kind,
            detail,
            witness,
        });
    }

    /// Full human rendering.
    pub fn render(&self, log: &EventLog) -> String {
        let c = &self.counts;
        let mut s = format!(
            "{} events ({} accesses: {} reads / {} writes) over {} blocks, {} words\n\
             hb edges: {} po, {} rf, {} co, {} fr, {} ack\n\
             checked: {} exclusive grants, {} NotLS laws, {} oracle write verdicts\n",
            c.events,
            c.accesses,
            c.reads,
            c.writes,
            c.blocks,
            c.words,
            c.po_edges,
            c.rf_edges,
            c.co_edges,
            c.fr_edges,
            c.ack_edges,
            c.excl_grants_checked,
            c.notls_checked,
            c.ls_writes_checked,
        );
        match self.sc_fingerprint {
            Some(fp) => s.push_str(&format!("SC witness fingerprint: {fp:#018x}\n")),
            None => s.push_str("SC witness: NONE (happens-before graph is cyclic)\n"),
        }
        if self.is_clean() {
            s.push_str("conformance: clean\n");
        } else {
            s.push_str(&format!(
                "conformance: {} violation(s){}\n",
                self.violations.len(),
                if self.suppressed > 0 {
                    format!(" (+{} suppressed duplicates)", self.suppressed)
                } else {
                    String::new()
                }
            ));
            for v in &self.violations {
                s.push_str(&v.render(log));
                s.push('\n');
            }
        }
        s
    }
}

/// Analyze one event log against the protocol it was captured under.
///
/// `protocol` is the configuration the *engine* ran with; the shadow
/// replay strips any seeded rule mutation from it, so a mutated run is
/// checked against the clean spec — which is exactly how the seeded bugs
/// are caught.
pub fn check(protocol: &ProtocolConfig, log: &EventLog) -> RaceReport {
    let mut report = RaceReport::default();
    hb::analyze(log, &mut report);
    shadow::analyze(protocol, log, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_core::rules::CopyState;
    use ccsim_core::GrantKind;
    use ccsim_engine::{CoherenceEvent, EventKind, WriteHow};
    use ccsim_types::{Addr, NodeId, ProtocolKind};

    fn ev(proc: u16, kind: EventKind) -> CoherenceEvent {
        CoherenceEvent {
            proc: NodeId(proc),
            kind,
        }
    }

    fn log_of(nodes: u16, events: Vec<CoherenceEvent>) -> EventLog {
        EventLog::from_events(nodes, 32, events).expect("valid test log")
    }

    const A: Addr = Addr(0x100);
    const B: Addr = Addr(0x140); // different 32-byte block

    fn block(a: Addr) -> ccsim_types::BlockAddr {
        a.block(32)
    }

    /// A correct little run: P0 init, P0 reads+writes, P1 acquires with a
    /// proper invalidation of P0.
    fn clean_events() -> Vec<CoherenceEvent> {
        vec![
            ev(0, EventKind::Init { addr: A, value: 7 }),
            ev(
                0,
                EventKind::Fill {
                    block: block(A),
                    state: CopyState::Shared,
                },
            ),
            ev(
                0,
                EventKind::Read {
                    addr: A,
                    value: 7,
                    hit: false,
                    grant: GrantKind::Shared,
                    notls: false,
                },
            ),
            // P1 write miss: invalidate P0, fill Modified, access last.
            ev(
                0,
                EventKind::Inval {
                    block: block(A),
                    by: NodeId(1),
                },
            ),
            ev(
                1,
                EventKind::Fill {
                    block: block(A),
                    state: CopyState::Modified,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    addr: A,
                    value: 9,
                    how: WriteHow::Global,
                    ls: false,
                    mig: false,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    addr: A,
                    value: 10,
                    how: WriteHow::DirtyHit,
                    ls: false,
                    mig: false,
                },
            ),
        ]
    }

    #[test]
    fn clean_log_is_clean() {
        let log = log_of(2, clean_events());
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let r = check(&cfg, &log);
        assert!(r.is_clean(), "unexpected violations: {}", r.render(&log));
        assert!(r.sc_fingerprint.is_some());
        assert_eq!(r.counts.accesses, 3);
        assert_eq!(r.counts.writes, 2);
        assert!(r.counts.ack_edges >= 2);
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let a = check(&cfg, &log_of(2, clean_events())).sc_fingerprint;
        let b = check(&cfg, &log_of(2, clean_events())).sc_fingerprint;
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn read_value_violation_detected() {
        let mut evs = clean_events();
        evs.push(ev(
            1,
            EventKind::Read {
                addr: A,
                value: 999, // never written
                hit: true,
                grant: GrantKind::Shared,
                notls: false,
            },
        ));
        let log = log_of(2, evs);
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let r = check(&cfg, &log);
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ReadValue));
    }

    #[test]
    fn cowr_stale_read_detected() {
        // P0 writes 1 then 2 to A; P0 then reads the *old* value 1. The
        // second write happens-before the read (program order) -> CoWR.
        let evs = vec![
            ev(0, EventKind::Init { addr: A, value: 0 }),
            ev(
                0,
                EventKind::Fill {
                    block: block(A),
                    state: CopyState::Modified,
                },
            ),
            ev(
                0,
                EventKind::Write {
                    addr: A,
                    value: 1,
                    how: WriteHow::Global,
                    ls: false,
                    mig: false,
                },
            ),
            ev(
                0,
                EventKind::Write {
                    addr: A,
                    value: 2,
                    how: WriteHow::DirtyHit,
                    ls: false,
                    mig: false,
                },
            ),
            ev(
                0,
                EventKind::Read {
                    addr: A,
                    value: 1,
                    hit: true,
                    grant: GrantKind::Shared,
                    notls: false,
                },
            ),
        ];
        let log = log_of(1, evs);
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let r = check(&cfg, &log);
        let v = r
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::CoWr)
            .expect("CoWR must fire");
        assert!(v.witness.len() >= 2, "witness chain: {:?}", v.witness);
        assert!(r.sc_fingerprint.is_none() || !r.is_clean());
    }

    #[test]
    fn corr_backward_read_detected() {
        // P1 reads version 2, then re-reads version 1: CoRR.
        let evs = vec![
            ev(0, EventKind::Init { addr: A, value: 1 }),
            ev(0, EventKind::Init { addr: A, value: 2 }),
            ev(
                1,
                EventKind::Read {
                    addr: A,
                    value: 2,
                    hit: true,
                    grant: GrantKind::Shared,
                    notls: false,
                },
            ),
            ev(
                1,
                EventKind::Read {
                    addr: A,
                    value: 1,
                    hit: true,
                    grant: GrantKind::Shared,
                    notls: false,
                },
            ),
        ];
        let log = log_of(2, evs);
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let r = check(&cfg, &log);
        assert!(r.violations.iter().any(|v| v.kind == ViolationKind::CoRr));
    }

    #[test]
    fn missing_invalidation_detected() {
        // P0 holds A shared; P1 acquires A but the log has no Inval(P0).
        let evs = vec![
            ev(
                0,
                EventKind::Fill {
                    block: block(A),
                    state: CopyState::Shared,
                },
            ),
            ev(
                0,
                EventKind::Read {
                    addr: A,
                    value: 0,
                    hit: false,
                    grant: GrantKind::Shared,
                    notls: false,
                },
            ),
            ev(
                1,
                EventKind::Fill {
                    block: block(A),
                    state: CopyState::Modified,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    addr: A,
                    value: 5,
                    how: WriteHow::Global,
                    ls: false,
                    mig: false,
                },
            ),
            // P0's stale copy is then hit: stale-hit too.
            ev(
                0,
                EventKind::Read {
                    addr: A,
                    value: 5,
                    hit: true,
                    grant: GrantKind::Shared,
                    notls: false,
                },
            ),
        ];
        let log = log_of(2, evs);
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let r = check(&cfg, &log);
        assert!(
            r.violations
                .iter()
                .any(|v| v.kind == ViolationKind::MissingInval),
            "got: {}",
            r.render(&log)
        );
        assert!(r.violations.iter().any(|v| v.kind == ViolationKind::Swmr));
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::StaleHit));
    }

    #[test]
    fn ls_definition_mismatch_detected() {
        // P0: global read then global write -> the §2 mirror expects
        // ls=true; the log claims ls=false.
        let evs = vec![
            ev(
                0,
                EventKind::Fill {
                    block: block(A),
                    state: CopyState::Shared,
                },
            ),
            ev(
                0,
                EventKind::Read {
                    addr: A,
                    value: 0,
                    hit: false,
                    grant: GrantKind::Shared,
                    notls: false,
                },
            ),
            ev(
                0,
                EventKind::Fill {
                    block: block(A),
                    state: CopyState::Modified,
                },
            ),
            ev(
                0,
                EventKind::Write {
                    addr: A,
                    value: 3,
                    how: WriteHow::Global,
                    ls: false, // lie: the mirror derives ls=true
                    mig: false,
                },
            ),
        ];
        let log = log_of(1, evs);
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let r = check(&cfg, &log);
        assert!(
            r.violations
                .iter()
                .any(|v| v.kind == ViolationKind::LsDefinition),
            "got: {}",
            r.render(&log)
        );
    }

    #[test]
    fn violations_dedupe_per_kind_and_location() {
        let mut r = RaceReport::default();
        r.push(ViolationKind::Swmr, 1, "a".into(), vec![0]);
        r.push(ViolationKind::Swmr, 1, "b".into(), vec![1]);
        r.push(ViolationKind::Swmr, 2, "c".into(), vec![2]);
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.total_violations(), 3);
        assert!(!r.is_clean());
    }

    #[test]
    fn render_names_the_witness_events() {
        let log = log_of(2, clean_events());
        let v = RaceViolation {
            kind: ViolationKind::ScCycle,
            detail: "demo".into(),
            witness: vec![0, 2],
        };
        let s = v.render(&log);
        assert!(s.contains("[sc-cycle]"));
        assert!(s.contains("#0"));
        assert!(s.contains("init"));
        assert!(s.contains("back to #0"));
    }

    #[test]
    fn distinct_blocks_are_tracked_separately() {
        // Same shape as clean_events but on two blocks; stays clean.
        let mut evs = clean_events();
        evs.push(ev(
            1,
            EventKind::Fill {
                block: block(B),
                state: CopyState::Modified,
            },
        ));
        evs.push(ev(
            1,
            EventKind::Write {
                addr: B,
                value: 1,
                how: WriteHow::Global,
                ls: false,
                mig: false,
            },
        ));
        let log = log_of(2, evs);
        let cfg = ccsim_types::ProtocolConfig::new(ProtocolKind::Baseline);
        let r = check(&cfg, &log);
        assert!(r.is_clean(), "got: {}", r.render(&log));
        assert_eq!(r.counts.blocks, 2);
    }
}
