//! The full-map directory and the three coherence protocols.
//!
//! All three protocols share one transaction skeleton (it is the *same*
//! write-invalidate protocol family); they differ only in when a block gets
//! tagged for exclusive read grants:
//!
//! * **Baseline** never tags.
//! * **AD** tags on the classical migratory pattern (two copies, writer was
//!   the other copyholder) and reverts on write misses and failed grants.
//! * **LS** tags whenever an ownership acquisition comes from the block's
//!   last reader (with no intervening global access), de-tags otherwise, and
//!   keeps the tag across replacements.
//!
//! The engine drives transactions in two phases: `read`/`write` at the home,
//! then — when the block is owned elsewhere — `read_forward_result` /
//! `write_forward_result` once the owner's actual cache state is known.
//!
//! The transition bodies themselves live in [`crate::rules`] as pure
//! functions over `(&ProtocolConfig, &mut DirStats, &mut DirEntry)`; this
//! type owns the entry map and statistics and delegates every transaction,
//! so the bounded model checker (`ccsim-model`) explores exactly the rules
//! the simulator runs.

use crate::entry::{DirEntry, Fig1State};
use crate::outcome::{ReadMissClass, ReadResolution, ReadStep, WriteResolution, WriteStep};
use crate::rules;
use ccsim_types::{BlockAddr, NodeId, ProtocolConfig, ProtocolKind};
use ccsim_util::{FromJson, FxHashMap, Json, ToJson};

/// Logical event counters kept at the directory (message/byte counts live in
/// the network model; these are protocol-level events, counted even when the
/// requester is local to the home).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Global read actions serviced.
    pub global_reads: u64,
    /// Global read misses by home-state class (Figure 3/4/6/7, right).
    pub read_class: [u64; 4],
    /// Ownership acquisitions by a node already holding a shared copy —
    /// Figure 5's "Global Inv's".
    pub upgrades: u64,
    /// Ownership acquisitions requiring data (write misses).
    pub write_misses: u64,
    /// Invalidation messages the home requested — Figure 5's
    /// "Invalidations".
    pub invalidations_requested: u64,
    /// Ownership acquisitions that found the block in `Shared` state.
    pub writes_to_shared: u64,
    /// Invalidations caused by those (the paper's "≈1.4 invalidations on
    /// average per write to a shared block" uses this ratio).
    pub invals_on_shared_writes: u64,
    /// Reads answered with an exclusive grant (the optimization firing).
    pub exclusive_grants: u64,
    /// Blocks tagged (LS-bit or migratory bit set).
    pub tag_events: u64,
    /// Blocks de-tagged.
    pub detag_events: u64,
    /// `NotLS` notifications received (failed predictions).
    pub notls_events: u64,
    /// DSI tear-off grants (uncached read copies).
    pub tear_grants: u64,
}

impl DirStats {
    // ccsim-lint: allow(panic-path): read-miss class maps to one of four counter slots fixed at construction
    pub(crate) fn classify(&mut self, c: ReadMissClass) {
        let i = match c {
            ReadMissClass::Clean => 0,
            ReadMissClass::Dirty => 1,
            ReadMissClass::CleanExclusive => 2,
            ReadMissClass::DirtyExclusive => 3,
        };
        self.read_class[i] += 1;
    }

    /// Count for one read-miss class.
    pub fn read_class_count(&self, c: ReadMissClass) -> u64 {
        let i = match c {
            ReadMissClass::Clean => 0,
            ReadMissClass::Dirty => 1,
            ReadMissClass::CleanExclusive => 2,
            ReadMissClass::DirtyExclusive => 3,
        };
        self.read_class[i]
    }

    /// Total ownership acquisitions (upgrades + write misses).
    pub fn ownership_acquisitions(&self) -> u64 {
        self.upgrades + self.write_misses
    }

    /// Merge counters from another directory (multi-home aggregation).
    pub fn merge(&mut self, o: &DirStats) {
        self.global_reads += o.global_reads;
        for i in 0..4 {
            self.read_class[i] += o.read_class[i];
        }
        self.upgrades += o.upgrades;
        self.write_misses += o.write_misses;
        self.invalidations_requested += o.invalidations_requested;
        self.writes_to_shared += o.writes_to_shared;
        self.invals_on_shared_writes += o.invals_on_shared_writes;
        self.exclusive_grants += o.exclusive_grants;
        self.tag_events += o.tag_events;
        self.detag_events += o.detag_events;
        self.notls_events += o.notls_events;
        self.tear_grants += o.tear_grants;
    }
}

impl ToJson for DirStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("global_reads", self.global_reads.to_json()),
            ("read_class", self.read_class.to_json()),
            ("upgrades", self.upgrades.to_json()),
            ("write_misses", self.write_misses.to_json()),
            (
                "invalidations_requested",
                self.invalidations_requested.to_json(),
            ),
            ("writes_to_shared", self.writes_to_shared.to_json()),
            (
                "invals_on_shared_writes",
                self.invals_on_shared_writes.to_json(),
            ),
            ("exclusive_grants", self.exclusive_grants.to_json()),
            ("tag_events", self.tag_events.to_json()),
            ("detag_events", self.detag_events.to_json()),
            ("notls_events", self.notls_events.to_json()),
            ("tear_grants", self.tear_grants.to_json()),
        ])
    }
}

impl FromJson for DirStats {
    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(DirStats {
            global_reads: j.field("global_reads")?,
            read_class: j.field("read_class")?,
            upgrades: j.field("upgrades")?,
            write_misses: j.field("write_misses")?,
            invalidations_requested: j.field("invalidations_requested")?,
            writes_to_shared: j.field("writes_to_shared")?,
            invals_on_shared_writes: j.field("invals_on_shared_writes")?,
            exclusive_grants: j.field("exclusive_grants")?,
            tag_events: j.field("tag_events")?,
            detag_events: j.field("detag_events")?,
            notls_events: j.field("notls_events")?,
            tear_grants: j.field("tear_grants")?,
        })
    }
}

/// A full-map directory covering the blocks homed at one node (or, as used
/// in unit tests, any set of blocks).
pub struct Directory {
    cfg: ProtocolConfig,
    entries: FxHashMap<BlockAddr, DirEntry>,
    stats: DirStats,
}

impl Directory {
    pub fn new(cfg: ProtocolConfig) -> Self {
        Directory {
            cfg,
            entries: FxHashMap::default(),
            stats: DirStats::default(),
        }
    }

    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.kind
    }

    pub fn stats(&self) -> &DirStats {
        &self.stats
    }

    /// Inspect a block's entry (tests/diagnostics); `None` = never touched.
    pub fn entry(&self, block: BlockAddr) -> Option<&DirEntry> {
        self.entries.get(&block)
    }

    /// Figure 1 state of a block (untouched blocks are Uncached).
    pub fn fig1(&self, block: BlockAddr) -> Fig1State {
        self.entries
            .get(&block)
            .map(|e| e.fig1())
            .unwrap_or(Fig1State::Uncached)
    }

    // --- transactions (delegating to crate::rules) -------------------------

    /// A global read action from `p` arrives at the home.
    /// See [`rules::read`].
    pub fn read(&mut self, block: BlockAddr, p: NodeId) -> ReadStep {
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(block).or_insert(fresh);
        rules::read(&self.cfg, &mut self.stats, e, p)
    }

    /// Conclude a forwarded read once the owner's cache state is known.
    /// See [`rules::read_forward_result`] for the `owner_wrote` /
    /// `owner_dirty` contract.
    pub fn read_forward_result(
        &mut self,
        block: BlockAddr,
        p: NodeId,
        owner_wrote: bool,
        owner_dirty: bool,
    ) -> ReadResolution {
        let e = self
            .entries
            .get_mut(&block)
            // ccsim-lint: allow(unwrap): read() created this entry when it returned Forward
            .expect("forwarded read on unknown block");
        rules::read_forward_result(&self.cfg, &mut self.stats, e, p, owner_wrote, owner_dirty)
    }

    /// A global write action (ownership acquisition) from `p` arrives at the
    /// home. The caller must only invoke this when `p`'s cache cannot
    /// complete the store locally (state `S` or a miss).
    pub fn write(&mut self, block: BlockAddr, p: NodeId) -> WriteStep {
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(block).or_insert(fresh);
        rules::write(&self.cfg, &mut self.stats, e, p)
    }

    /// Conclude a forwarded write: the previous owner invalidates and ships
    /// data + ownership to the requester.
    pub fn write_forward_result(
        &mut self,
        block: BlockAddr,
        p: NodeId,
        owner_modified: bool,
    ) -> WriteResolution {
        let e = self
            .entries
            .get_mut(&block)
            // ccsim-lint: allow(unwrap): write() created this entry when it returned Forward
            .expect("forwarded write on unknown block");
        rules::write_forward_result(&mut self.stats, e, p, owner_modified)
    }

    /// A cache evicted its copy of `block`.
    ///
    /// For an owned block the home returns to `Uncached`. Under **LS** the
    /// LS-bit survives — §3.1 case 3: "the memory keeps the current LS-bit
    /// value"; this is the feature that lets LS exploit load-store sequences
    /// broken up by conflict/capacity replacements. Under **AD** the
    /// migratory designation is part of the block's transient sharing
    /// pattern and is lost with the exclusive copy (the paper's §2/§5.2:
    /// replacements "severely limit the amount of ownership overhead that
    /// can be removed with previous techniques").
    pub fn replacement(&mut self, block: BlockAddr, node: NodeId) {
        let Some(e) = self.entries.get_mut(&block) else {
            return;
        };
        rules::replacement(&self.cfg, &mut self.stats, e, node);
    }

    /// Test-only: deliberately break this block's entry by claiming it is
    /// merely Shared (keeping whatever sharer set it has, or fabricating a
    /// phantom sharer). If a cache actually owns the block, the directory
    /// and the caches now disagree — a seeded mutation the engine's
    /// invariant checker must catch as an SWMR or state-agreement
    /// violation. Only compiled with the `testing` feature.
    #[cfg(feature = "testing")]
    #[doc(hidden)]
    pub fn corrupt_entry_for_test(&mut self, block: BlockAddr) {
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(block).or_insert(fresh);
        e.state = crate::entry::HomeState::Shared;
        if e.sharers.is_empty() {
            e.sharers.insert(NodeId(0));
        }
    }

    /// Check every entry's internal consistency (test support).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (b, e) in &self.entries {
            e.check().map_err(|m| format!("{b}: {m}"))?;
            if self.cfg.kind == ProtocolKind::Baseline && e.tagged {
                return Err(format!("{b}: Baseline must never tag"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::HomeState;
    use crate::outcome::{GrantKind, OwnerAction};
    use ccsim_types::{Addr, LsConfig};

    fn blk(a: u64) -> BlockAddr {
        Addr(a).block(16)
    }

    fn dir(kind: ProtocolKind) -> Directory {
        Directory::new(ProtocolConfig::new(kind))
    }

    const P0: NodeId = NodeId(0);
    const P1: NodeId = NodeId(1);
    const P2: NodeId = NodeId(2);

    /// Drive a full untagged read; panics if a forward was needed.
    fn read_mem(d: &mut Directory, b: BlockAddr, p: NodeId) -> GrantKind {
        match d.read(b, p) {
            ReadStep::Memory { grant, .. } => grant,
            ReadStep::Forward { .. } => panic!("unexpected forward"),
        }
    }

    // ---------------- Baseline -------------------------------------------

    #[test]
    fn baseline_read_write_read_cycle() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        assert_eq!(read_mem(&mut d, b, P0), GrantKind::Shared);
        assert_eq!(d.fig1(b), Fig1State::Shared);
        // P0 upgrades.
        match d.write(b, P0) {
            WriteStep::Memory {
                invalidate,
                data_needed,
            } => {
                assert!(invalidate.is_empty());
                assert!(!data_needed);
            }
            _ => panic!(),
        }
        assert_eq!(d.fig1(b), Fig1State::Dirty);
        // P1 reads: forwarded to P0, downgrade + sharing writeback.
        let ReadStep::Forward { owner } = d.read(b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.read_forward_result(b, P1, true, true);
        assert_eq!(r.grant, GrantKind::Shared);
        assert_eq!(r.owner_action, OwnerAction::Downgrade);
        assert!(r.sharing_writeback);
        assert_eq!(r.class, ReadMissClass::Dirty);
        assert_eq!(d.fig1(b), Fig1State::Shared);
        d.check_invariants().unwrap();
    }

    #[test]
    fn baseline_never_grants_exclusive() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        // Full migratory pattern, twice.
        for &p in &[P0, P1, P0, P1] {
            match d.read(b, p) {
                ReadStep::Memory { grant, .. } => assert_eq!(grant, GrantKind::Shared),
                ReadStep::Forward { .. } => {
                    let r = d.read_forward_result(b, p, true, true);
                    assert_eq!(r.grant, GrantKind::Shared);
                }
            }
            match d.write(b, p) {
                WriteStep::Memory { .. } => {}
                WriteStep::Forward { .. } => {
                    d.write_forward_result(b, p, true);
                }
            }
        }
        assert_eq!(d.stats().exclusive_grants, 0);
        d.check_invariants().unwrap();
    }

    #[test]
    fn baseline_write_to_shared_invalidates_others() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        read_mem(&mut d, b, P1);
        read_mem(&mut d, b, P2);
        let WriteStep::Memory {
            invalidate,
            data_needed,
        } = d.write(b, P1)
        else {
            panic!()
        };
        assert_eq!(invalidate.iter().collect::<Vec<_>>(), vec![P0, P2]);
        assert!(!data_needed);
        assert_eq!(d.stats().invalidations_requested, 2);
        assert_eq!(d.stats().upgrades, 1);
        d.check_invariants().unwrap();
    }

    // ---------------- LS ---------------------------------------------------

    #[test]
    fn ls_tags_on_read_then_write_by_same_node() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // upgrade from the last reader -> tag
        assert!(d.entry(b).unwrap().tagged);
        assert_eq!(d.fig1(b), Fig1State::LoadStore);
        assert_eq!(d.stats().tag_events, 1);
    }

    #[test]
    fn ls_single_sequence_to_uncached_block_is_detected() {
        // §2: "migratory sharing techniques fail to detect single load-store
        // sequences to uncached memory blocks" — LS must detect them.
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0);
        // Owner evicts (capacity) — LS-bit survives.
        d.replacement(b, P0);
        assert_eq!(d.fig1(b), Fig1State::Uncached);
        assert!(d.entry(b).unwrap().tagged);
        // Next read by anyone returns an exclusive copy.
        let ReadStep::Memory { grant, class } = d.read(b, P1) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::Exclusive);
        assert_eq!(class, ReadMissClass::CleanExclusive);
        assert_eq!(d.fig1(b), Fig1State::LoadStore);
        d.check_invariants().unwrap();
    }

    #[test]
    fn ls_intervening_foreign_read_breaks_pairing() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        read_mem(&mut d, b, P1); // LR := P1
        d.write(b, P0); // not the last reader -> de-tag vote, no tag
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats().tag_events, 0);
    }

    #[test]
    fn ls_intervening_foreign_write_breaks_pairing() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0); // LR := P0
                                 // P1 writes (miss): LR invalidated by the acquisition.
        d.write(b, P1);
        // P0 writes again (forwarded): LR is None -> no tag.
        let WriteStep::Forward { owner } = d.write(b, P0) else {
            panic!()
        };
        assert_eq!(owner, P1);
        d.write_forward_result(b, P0, true);
        assert!(!d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ls_exclusive_grant_then_silent_write_then_migration() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        // Establish the tag.
        read_mem(&mut d, b, P0);
        d.write(b, P0);
        // P1 reads: forwarded, P0 modified -> exclusive dirty handoff.
        let ReadStep::Forward { owner } = d.read(b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.read_forward_result(b, P1, true, true);
        assert_eq!(r.grant, GrantKind::Exclusive);
        assert!(r.requester_dirty);
        assert_eq!(r.owner_action, OwnerAction::Invalidate);
        assert_eq!(r.class, ReadMissClass::DirtyExclusive);
        assert_eq!(d.fig1(b), Fig1State::LoadStore);
        // P2 reads while P1 wrote silently: handoff continues.
        let ReadStep::Forward { owner } = d.read(b, P2) else {
            panic!()
        };
        assert_eq!(owner, P1);
        let r = d.read_forward_result(b, P2, true, true);
        assert_eq!(r.grant, GrantKind::Exclusive);
        d.check_invariants().unwrap();
    }

    #[test]
    fn ls_failed_prediction_detags_with_notls() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0);
        d.replacement(b, P0);
        // P1 gets an exclusive grant but never writes...
        assert!(matches!(
            d.read(b, P1),
            ReadStep::Memory {
                grant: GrantKind::Exclusive,
                ..
            }
        ));
        // ...and P2's read finds an unmodified owner: de-tag + NotLS.
        let ReadStep::Forward { owner } = d.read(b, P2) else {
            panic!()
        };
        assert_eq!(owner, P1);
        let r = d.read_forward_result(b, P2, false, false);
        assert_eq!(r.grant, GrantKind::Shared);
        assert_eq!(r.owner_action, OwnerAction::Downgrade);
        assert!(!r.sharing_writeback, "memory was never stale");
        assert!(r.notls);
        assert_eq!(r.class, ReadMissClass::CleanExclusive);
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats().notls_events, 1);
        assert_eq!(d.fig1(b), Fig1State::Shared);
        d.check_invariants().unwrap();
    }

    #[test]
    fn ls_detags_on_write_miss_without_read() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // tagged
        d.replacement(b, P0);
        // P1 writes without reading first: de-tag (§3).
        d.write(b, P1);
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats().detag_events, 1);
    }

    #[test]
    fn ls_keep_heuristic_preserves_tag_on_unpaired_write() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            keep_on_unpaired_write: true,
            ..LsConfig::default()
        };
        let mut d = Directory::new(cfg);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // tagged
        d.replacement(b, P0);
        d.write(b, P1); // unpaired write: keep the bit under the heuristic
        assert!(d.entry(b).unwrap().tagged);
        assert_eq!(d.stats().detag_events, 0);
    }

    #[test]
    fn ls_default_tagged_grants_exclusive_on_cold_read() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            default_tagged: true,
            ..LsConfig::default()
        };
        let mut d = Directory::new(cfg);
        let ReadStep::Memory { grant, class } = d.read(blk(0), P0) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::Exclusive);
        assert_eq!(class, ReadMissClass::CleanExclusive);
    }

    #[test]
    fn ls_tag_hysteresis_requires_two_observations() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            tag_hysteresis: 2,
            ..LsConfig::default()
        };
        let mut d = Directory::new(cfg);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // first observation: not yet tagged
        assert!(!d.entry(b).unwrap().tagged);
        d.replacement(b, P0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // second observation: tagged
        assert!(d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ls_detag_hysteresis_requires_two_observations() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            detag_hysteresis: 2,
            ..LsConfig::default()
        };
        let mut d = Directory::new(cfg);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // tagged
        d.replacement(b, P0);
        d.write(b, P1); // first de-tag vote
        assert!(d.entry(b).unwrap().tagged);
        d.replacement(b, P1);
        d.write(b, P2); // second de-tag vote -> cleared
        assert!(!d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ls_hysteresis_votes_reset_on_opposite_event() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            tag_hysteresis: 2,
            ..LsConfig::default()
        };
        let mut d = Directory::new(cfg);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // tag vote 1
        d.replacement(b, P0);
        d.write(b, P1); // de-tag event resets tag votes
        d.replacement(b, P1);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // tag vote 1 again — still untagged
        assert!(!d.entry(b).unwrap().tagged);
    }

    // ---------------- AD ---------------------------------------------------

    /// Drive one full read (resolving forwards with `owner_modified=true`).
    fn read_any(d: &mut Directory, b: BlockAddr, p: NodeId) -> GrantKind {
        match d.read(b, p) {
            ReadStep::Memory { grant, .. } => grant,
            ReadStep::Forward { .. } => d.read_forward_result(b, p, true, true).grant,
        }
    }

    fn write_any(d: &mut Directory, b: BlockAddr, p: NodeId) {
        if let WriteStep::Forward { .. } = d.write(b, p) {
            d.write_forward_result(b, p, true);
        }
    }

    #[test]
    fn ad_detects_classical_migratory_pattern() {
        let mut d = dir(ProtocolKind::Ad);
        let b = blk(0);
        // P0 read+write establishes a dirty copy.
        read_any(&mut d, b, P0);
        write_any(&mut d, b, P0);
        assert!(!d.entry(b).unwrap().tagged);
        // P1 reads (P0 downgrades, two copies), P1 upgrades: the other
        // copyholder (P0) was the last writer -> migratory.
        assert_eq!(read_any(&mut d, b, P1), GrantKind::Shared);
        write_any(&mut d, b, P1);
        assert!(d.entry(b).unwrap().tagged);
        // Steady state: P2's read now gets a dirty-exclusive handoff.
        let ReadStep::Forward { owner } = d.read(b, P2) else {
            panic!()
        };
        assert_eq!(owner, P1);
        let r = d.read_forward_result(b, P2, true, true);
        assert_eq!(r.grant, GrantKind::Exclusive);
        assert!(r.requester_dirty);
        d.check_invariants().unwrap();
    }

    #[test]
    fn ad_misses_single_load_store_to_uncached_block() {
        // The defining weakness LS fixes (§2).
        let mut d = dir(ProtocolKind::Ad);
        let b = blk(0);
        read_any(&mut d, b, P0);
        write_any(&mut d, b, P0);
        assert!(!d.entry(b).unwrap().tagged);
        // Eviction destroys the pattern; repeat by the same node — AD never
        // tags because the two-copy migratory pattern never forms.
        for _ in 0..4 {
            d.replacement(b, P0);
            read_any(&mut d, b, P0);
            write_any(&mut d, b, P0);
        }
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats().exclusive_grants, 0);
    }

    #[test]
    fn ad_eviction_between_read_and_write_breaks_detection() {
        let mut d = dir(ProtocolKind::Ad);
        let b = blk(0);
        read_any(&mut d, b, P0);
        write_any(&mut d, b, P0);
        read_any(&mut d, b, P1);
        // P1's copy is evicted before its write: the upgrade becomes a write
        // miss and detection fails (the conflict/capacity effect of §5.1).
        d.replacement(b, P1);
        write_any(&mut d, b, P1);
        assert!(!d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ad_reverts_on_write_miss() {
        let mut d = dir(ProtocolKind::Ad);
        let b = blk(0);
        // Detect migratory.
        read_any(&mut d, b, P0);
        write_any(&mut d, b, P0);
        read_any(&mut d, b, P1);
        write_any(&mut d, b, P1);
        assert!(d.entry(b).unwrap().tagged);
        // P2 writes with no copy and no preceding read: revert.
        d.replacement(b, P1);
        d.write(b, P2);
        assert!(!d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ad_loses_migratory_designation_on_replacement() {
        // Keeping the tag across replacement is LS's §3.1-case-3 feature;
        // AD's detection state dies with the exclusive copy, which is why
        // the paper's AD removes nothing for eviction-heavy workloads.
        let mut d = dir(ProtocolKind::Ad);
        let b = blk(0);
        read_any(&mut d, b, P0);
        write_any(&mut d, b, P0);
        read_any(&mut d, b, P1);
        write_any(&mut d, b, P1);
        assert!(d.entry(b).unwrap().tagged);
        d.replacement(b, P1);
        assert!(
            !d.entry(b).unwrap().tagged,
            "AD tag must not survive replacement"
        );
        // The next read is an ordinary shared grant.
        let ReadStep::Memory { grant, .. } = d.read(b, P2) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::Shared);
    }

    #[test]
    fn ad_reverts_when_grant_goes_unwritten() {
        // Under default migratory tagging (§5.5), a cold read grants
        // exclusively; a second read before any write reveals the failed
        // prediction and reverts the designation.
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ad);
        cfg.ad.default_tagged = true;
        let mut d = Directory::new(cfg);
        let b = blk(0);
        let ReadStep::Memory { grant, .. } = d.read(b, P2) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::Exclusive);
        // P0 reads before P2 writes: failed prediction, revert.
        let ReadStep::Forward { .. } = d.read(b, P0) else {
            panic!()
        };
        let r = d.read_forward_result(b, P0, false, false);
        assert!(r.notls);
        assert!(!d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ad_three_sharers_not_migratory() {
        let mut d = dir(ProtocolKind::Ad);
        let b = blk(0);
        read_any(&mut d, b, P0);
        write_any(&mut d, b, P0);
        read_any(&mut d, b, P1);
        read_any(&mut d, b, P2);
        // Three cached copies: not the migratory pattern.
        write_any(&mut d, b, P1);
        assert!(!d.entry(b).unwrap().tagged);
    }

    // ---------------- DSI --------------------------------------------------

    #[test]
    fn dsi_tears_off_after_invalidating_write() {
        let mut d = dir(ProtocolKind::Dsi);
        let b = blk(0);
        // Read-shared by two, then written: the tear pattern.
        read_mem(&mut d, b, P0);
        read_mem(&mut d, b, P1);
        d.write(b, P0); // invalidates P1 -> tear set
        assert!(d.entry(b).unwrap().tear);
        d.replacement(b, P0);
        // Next read: tear-off grant, no sharer registered.
        let ReadStep::Memory { grant, .. } = d.read(b, P2) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::TearOff);
        assert_eq!(d.entry(b).unwrap().sharers.len(), 0);
        assert_eq!(d.stats().tear_grants, 1);
        // The subsequent write finds nobody to invalidate.
        let WriteStep::Memory { invalidate, .. } = d.write(b, P1) else {
            panic!()
        };
        assert!(invalidate.is_empty());
        d.check_invariants().unwrap();
    }

    #[test]
    fn dsi_recovers_caching_after_read_heavy_phase() {
        let mut d = dir(ProtocolKind::Dsi);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        read_mem(&mut d, b, P1);
        d.write(b, P0);
        d.replacement(b, P0);
        // Four consecutive tear-off reads exhaust the patience...
        for _ in 0..4 {
            let ReadStep::Memory { grant, .. } = d.read(b, P1) else {
                panic!()
            };
            assert_eq!(grant, GrantKind::TearOff);
        }
        assert!(
            !d.entry(b).unwrap().tear,
            "read-heavy phase clears the tear bit"
        );
        // ...and the fifth read caches normally.
        let ReadStep::Memory { grant, .. } = d.read(b, P1) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::Shared);
        d.check_invariants().unwrap();
    }

    #[test]
    fn dsi_single_sharer_upgrade_does_not_tear() {
        let mut d = dir(ProtocolKind::Dsi);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0); // sole-sharer upgrade: nothing invalidated
        assert!(!d.entry(b).unwrap().tear);
    }

    #[test]
    fn dsi_dirty_blocks_follow_the_normal_path() {
        let mut d = dir(ProtocolKind::Dsi);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        read_mem(&mut d, b, P1);
        d.write(b, P0); // tear set, P0 owns
                        // Read while dirty: must forward, not tear off (memory is stale).
        let ReadStep::Forward { owner } = d.read(b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.read_forward_result(b, P1, true, true);
        assert_eq!(r.grant, GrantKind::Shared, "DSI never grants exclusively");
        d.check_invariants().unwrap();
    }

    // ---------------- replacements & stats --------------------------------

    #[test]
    fn shared_replacements_shrink_to_uncached() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        read_mem(&mut d, b, P1);
        d.replacement(b, P0);
        assert_eq!(d.fig1(b), Fig1State::Shared);
        d.replacement(b, P1);
        assert_eq!(d.fig1(b), Fig1State::Uncached);
        d.check_invariants().unwrap();
    }

    #[test]
    fn replacement_of_unknown_block_is_ignored() {
        let mut d = dir(ProtocolKind::Baseline);
        d.replacement(blk(0x999), P0); // no-op, no panic
    }

    #[test]
    fn stale_replacement_from_non_owner_is_ignored() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0);
        d.replacement(b, P1); // P1 owns nothing here
        assert_eq!(d.fig1(b), Fig1State::Dirty);
    }

    #[test]
    fn stats_counters_add_up() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0); // global read 1 (Clean)
        d.write(b, P0); // upgrade 1
        let ReadStep::Forward { .. } = d.read(b, P1) else {
            panic!()
        }; // global read 2
        d.read_forward_result(b, P1, true, true); // DirtyExclusive
        let s = d.stats();
        assert_eq!(s.global_reads, 2);
        assert_eq!(s.upgrades, 1);
        assert_eq!(s.write_misses, 0);
        assert_eq!(s.ownership_acquisitions(), 1);
        assert_eq!(s.read_class_count(ReadMissClass::Clean), 1);
        assert_eq!(s.read_class_count(ReadMissClass::DirtyExclusive), 1);
        assert_eq!(s.exclusive_grants, 1);
    }

    #[test]
    fn stats_merge() {
        let mut a = DirStats::default();
        let mut b = DirStats::default();
        a.global_reads = 3;
        a.read_class = [1, 1, 1, 0];
        b.global_reads = 2;
        b.upgrades = 4;
        b.read_class = [0, 0, 1, 1];
        a.merge(&b);
        assert_eq!(a.global_reads, 5);
        assert_eq!(a.upgrades, 4);
        assert_eq!(a.read_class, [1, 1, 2, 1]);
    }

    #[test]
    fn write_forward_transfers_ownership() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(b, P0);
        let WriteStep::Forward { owner } = d.write(b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.write_forward_result(b, P1, true);
        assert!(r.owner_was_modified);
        assert_eq!(d.entry(b).unwrap().state, HomeState::Owned(P1));
        assert_eq!(d.stats().invalidations_requested, 1);
        d.check_invariants().unwrap();
    }
}
