//! The full-map directory and the coherence protocols' home side.
//!
//! All protocols share one transaction skeleton (it is the *same*
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
//! The transition bodies live in [`crate::rules`] as pure functions over
//! `(&ProtocolConfig, &mut DirStats, &mut DirEntry)`; [`DirTable`] owns the
//! entries and statistics and delegates every transaction, so the bounded
//! model checker (`ccsim-model`) explores exactly the rules the simulator
//! runs.
//!
//! Entries sit in a dense, lazily paged slab indexed by block index, with
//! statistics split by home node. Although every block has a unique home
//! node, entries live in one machine-wide slab: the home is a pure function
//! of the address, so per-home maps bought no sharding benefit, only
//! `nodes` separate hash tables.

use crate::entry::{DirEntry, Fig1State};
use crate::outcome::{ReadResolution, ReadStep, WriteResolution, WriteStep};
use crate::rules;
use crate::DirStats;
use ccsim_types::{BlockAddr, NodeId, ProtocolConfig, ProtocolKind};
use ccsim_util::Slab;

/// All directory entries of a machine, dense by block index, with
/// statistics split by home node.
pub struct DirTable {
    cfg: ProtocolConfig,
    block_bytes: u64,
    entries: Slab<Option<DirEntry>>,
    stats: Vec<DirStats>,
}

impl DirTable {
    pub fn new(cfg: ProtocolConfig, block_bytes: u64, homes: u16) -> Self {
        assert!(block_bytes.is_power_of_two() && block_bytes > 0);
        DirTable {
            cfg,
            block_bytes,
            entries: Slab::new(),
            stats: vec![DirStats::default(); homes.max(1) as usize],
        }
    }

    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.kind
    }

    /// Block index of `block` in the dense slab.
    #[inline]
    pub fn index(&self, block: BlockAddr) -> usize {
        (block.0 / self.block_bytes) as usize
    }

    /// Statistics accumulated for blocks homed at `home`.
    pub fn stats(&self, home: NodeId) -> &DirStats {
        &self.stats[home.idx()]
    }

    /// Machine-wide aggregate statistics.
    pub fn merged_stats(&self) -> DirStats {
        let mut total = DirStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }

    /// Inspect a block's entry (tests/diagnostics); `None` = never touched.
    pub fn entry(&self, block: BlockAddr) -> Option<&DirEntry> {
        let i = (block.0 / self.block_bytes) as usize;
        self.entries.get(i).and_then(|e| e.as_ref())
    }

    /// Figure 1 state of a block (untouched blocks are Uncached).
    pub fn fig1(&self, block: BlockAddr) -> Fig1State {
        self.entry(block)
            .map(|e| e.fig1())
            .unwrap_or(Fig1State::Uncached)
    }

    // --- transactions (delegating to crate::rules) -------------------------

    /// A global read action from `p` arrives at `home`. See [`rules::read`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn read(&mut self, home: NodeId, block: BlockAddr, p: NodeId) -> ReadStep {
        let i = self.index(block);
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(i).get_or_insert(fresh);
        rules::read(&self.cfg, &mut self.stats[home.idx()], e, p)
    }

    /// Conclude a forwarded read once the owner's cache state is known.
    /// See [`rules::read_forward_result`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn read_forward_result(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
        owner_wrote: bool,
        owner_dirty: bool,
    ) -> ReadResolution {
        let i = self.index(block);
        let e = self
            .entries
            .entry(i)
            .as_mut()
            // ccsim-lint: allow(unwrap): read() created this entry when it returned Forward
            .expect("forwarded read on unknown block");
        rules::read_forward_result(
            &self.cfg,
            &mut self.stats[home.idx()],
            e,
            p,
            owner_wrote,
            owner_dirty,
        )
    }

    /// A global write action (ownership acquisition) from `p` arrives at
    /// `home`. See [`rules::write`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn write(&mut self, home: NodeId, block: BlockAddr, p: NodeId) -> WriteStep {
        let i = self.index(block);
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(i).get_or_insert(fresh);
        rules::write(&self.cfg, &mut self.stats[home.idx()], e, p)
    }

    /// Conclude a forwarded write. See [`rules::write_forward_result`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn write_forward_result(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
        owner_modified: bool,
    ) -> WriteResolution {
        let i = self.index(block);
        let e = self
            .entries
            .entry(i)
            .as_mut()
            // ccsim-lint: allow(unwrap): write() created this entry when it returned Forward
            .expect("forwarded write on unknown block");
        rules::write_forward_result(&mut self.stats[home.idx()], e, p, owner_modified)
    }

    /// A cache evicted its copy of `block` (homed at `home`).
    /// See [`rules::replacement`].
    ///
    /// For an owned block the home returns to `Uncached`. Under **LS** the
    /// LS-bit survives — §3.1 case 3: "the memory keeps the current LS-bit
    /// value"; this is the feature that lets LS exploit load-store sequences
    /// broken up by conflict/capacity replacements. Under **AD** the
    /// migratory designation is part of the block's transient sharing
    /// pattern and is lost with the exclusive copy (the paper's §2/§5.2:
    /// replacements "severely limit the amount of ownership overhead that
    /// can be removed with previous techniques").
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn replacement(&mut self, home: NodeId, block: BlockAddr, node: NodeId) {
        let i = self.index(block);
        if self.entries.get(i).is_none_or(|s| s.is_none()) {
            return; // untouched block: nothing to evict, don't materialize
        }
        let e = self
            .entries
            .entry(i)
            .as_mut()
            // ccsim-lint: allow(unwrap): presence checked just above
            .expect("entry present");
        rules::replacement(&self.cfg, &mut self.stats[home.idx()], e, node);
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
        let i = self.index(block);
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(i).get_or_insert(fresh);
        e.state = crate::entry::HomeState::Shared;
        if e.sharers.is_empty() {
            e.sharers.insert(NodeId(0));
        }
    }

    /// Check every entry's internal consistency (test support).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, slot) in self.entries.iter() {
            let Some(e) = slot else { continue };
            let block = BlockAddr(i as u64 * self.block_bytes);
            e.check().map_err(|m| format!("{block}: {m}"))?;
            if self.cfg.kind == ProtocolKind::Baseline && e.tagged {
                return Err(format!("{block}: Baseline must never tag"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::HomeState;
    use crate::outcome::{GrantKind, OwnerAction, ReadMissClass};
    use ccsim_types::{Addr, LsConfig};

    const BLOCK: u64 = 32;

    fn blk(a: u64) -> BlockAddr {
        Addr(a).block(BLOCK)
    }

    /// A single-home table: every block is homed at `H`.
    fn dir(kind: ProtocolKind) -> DirTable {
        DirTable::new(ProtocolConfig::new(kind), BLOCK, 1)
    }

    const H: NodeId = NodeId(0);
    const P0: NodeId = NodeId(0);
    const P1: NodeId = NodeId(1);
    const P2: NodeId = NodeId(2);

    /// Drive a full untagged read; panics if a forward was needed.
    fn read_mem(d: &mut DirTable, b: BlockAddr, p: NodeId) -> GrantKind {
        match d.read(H, b, p) {
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
        match d.write(H, b, P0) {
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
        let ReadStep::Forward { owner } = d.read(H, b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.read_forward_result(H, b, P1, true, true);
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
            match d.read(H, b, p) {
                ReadStep::Memory { grant, .. } => assert_eq!(grant, GrantKind::Shared),
                ReadStep::Forward { .. } => {
                    let r = d.read_forward_result(H, b, p, true, true);
                    assert_eq!(r.grant, GrantKind::Shared);
                }
            }
            match d.write(H, b, p) {
                WriteStep::Memory { .. } => {}
                WriteStep::Forward { .. } => {
                    d.write_forward_result(H, b, p, true);
                }
            }
        }
        assert_eq!(d.stats(H).exclusive_grants, 0);
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
        } = d.write(H, b, P1)
        else {
            panic!()
        };
        assert_eq!(invalidate.iter().collect::<Vec<_>>(), vec![P0, P2]);
        assert!(!data_needed);
        assert_eq!(d.stats(H).invalidations_requested, 2);
        assert_eq!(d.stats(H).upgrades, 1);
        d.check_invariants().unwrap();
    }

    // ---------------- LS ---------------------------------------------------

    #[test]
    fn ls_tags_on_read_then_write_by_same_node() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // upgrade from the last reader -> tag
        assert!(d.entry(b).unwrap().tagged);
        assert_eq!(d.fig1(b), Fig1State::LoadStore);
        assert_eq!(d.stats(H).tag_events, 1);
    }

    #[test]
    fn ls_single_sequence_to_uncached_block_is_detected() {
        // §2: "migratory sharing techniques fail to detect single load-store
        // sequences to uncached memory blocks" — LS must detect them.
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0);
        // Owner evicts (capacity) — LS-bit survives.
        d.replacement(H, b, P0);
        assert_eq!(d.fig1(b), Fig1State::Uncached);
        assert!(d.entry(b).unwrap().tagged);
        // Next read by anyone returns an exclusive copy.
        let ReadStep::Memory { grant, class } = d.read(H, b, P1) else {
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
        d.write(H, b, P0); // not the last reader -> de-tag vote, no tag
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats(H).tag_events, 0);
    }

    #[test]
    fn ls_intervening_foreign_write_breaks_pairing() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0); // LR := P0

        // P1 writes (miss): LR invalidated by the acquisition.
        d.write(H, b, P1);
        // P0 writes again (forwarded): LR is None -> no tag.
        let WriteStep::Forward { owner } = d.write(H, b, P0) else {
            panic!()
        };
        assert_eq!(owner, P1);
        d.write_forward_result(H, b, P0, true);
        assert!(!d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ls_exclusive_grant_then_silent_write_then_migration() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        // Establish the tag.
        read_mem(&mut d, b, P0);
        d.write(H, b, P0);
        // P1 reads: forwarded, P0 modified -> exclusive dirty handoff.
        let ReadStep::Forward { owner } = d.read(H, b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.read_forward_result(H, b, P1, true, true);
        assert_eq!(r.grant, GrantKind::Exclusive);
        assert!(r.requester_dirty);
        assert_eq!(r.owner_action, OwnerAction::Invalidate);
        assert_eq!(r.class, ReadMissClass::DirtyExclusive);
        assert_eq!(d.fig1(b), Fig1State::LoadStore);
        // P2 reads while P1 wrote silently: handoff continues.
        let ReadStep::Forward { owner } = d.read(H, b, P2) else {
            panic!()
        };
        assert_eq!(owner, P1);
        let r = d.read_forward_result(H, b, P2, true, true);
        assert_eq!(r.grant, GrantKind::Exclusive);
        d.check_invariants().unwrap();
    }

    #[test]
    fn ls_failed_prediction_detags_with_notls() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0);
        d.replacement(H, b, P0);
        // P1 gets an exclusive grant but never writes...
        assert!(matches!(
            d.read(H, b, P1),
            ReadStep::Memory {
                grant: GrantKind::Exclusive,
                ..
            }
        ));
        // ...and P2's read finds an unmodified owner: de-tag + NotLS.
        let ReadStep::Forward { owner } = d.read(H, b, P2) else {
            panic!()
        };
        assert_eq!(owner, P1);
        let r = d.read_forward_result(H, b, P2, false, false);
        assert_eq!(r.grant, GrantKind::Shared);
        assert_eq!(r.owner_action, OwnerAction::Downgrade);
        assert!(!r.sharing_writeback, "memory was never stale");
        assert!(r.notls);
        assert_eq!(r.class, ReadMissClass::CleanExclusive);
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats(H).notls_events, 1);
        assert_eq!(d.fig1(b), Fig1State::Shared);
        d.check_invariants().unwrap();
    }

    #[test]
    fn ls_detags_on_write_miss_without_read() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // tagged
        d.replacement(H, b, P0);
        // P1 writes without reading first: de-tag (§3).
        d.write(H, b, P1);
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats(H).detag_events, 1);
    }

    #[test]
    fn ls_keep_heuristic_preserves_tag_on_unpaired_write() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            keep_on_unpaired_write: true,
            ..LsConfig::default()
        };
        let mut d = DirTable::new(cfg, BLOCK, 1);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // tagged
        d.replacement(H, b, P0);
        d.write(H, b, P1); // unpaired write: keep the bit under the heuristic
        assert!(d.entry(b).unwrap().tagged);
        assert_eq!(d.stats(H).detag_events, 0);
    }

    #[test]
    fn ls_default_tagged_grants_exclusive_on_cold_read() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            default_tagged: true,
            ..LsConfig::default()
        };
        let mut d = DirTable::new(cfg, BLOCK, 1);
        let ReadStep::Memory { grant, class } = d.read(H, blk(0), P0) else {
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
        let mut d = DirTable::new(cfg, BLOCK, 1);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // first observation: not yet tagged
        assert!(!d.entry(b).unwrap().tagged);
        d.replacement(H, b, P0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // second observation: tagged
        assert!(d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ls_detag_hysteresis_requires_two_observations() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            detag_hysteresis: 2,
            ..LsConfig::default()
        };
        let mut d = DirTable::new(cfg, BLOCK, 1);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // tagged
        d.replacement(H, b, P0);
        d.write(H, b, P1); // first de-tag vote
        assert!(d.entry(b).unwrap().tagged);
        d.replacement(H, b, P1);
        d.write(H, b, P2); // second de-tag vote -> cleared
        assert!(!d.entry(b).unwrap().tagged);
    }

    #[test]
    fn ls_hysteresis_votes_reset_on_opposite_event() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ls);
        cfg.ls = LsConfig {
            tag_hysteresis: 2,
            ..LsConfig::default()
        };
        let mut d = DirTable::new(cfg, BLOCK, 1);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // tag vote 1
        d.replacement(H, b, P0);
        d.write(H, b, P1); // de-tag event resets tag votes
        d.replacement(H, b, P1);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0); // tag vote 1 again — still untagged
        assert!(!d.entry(b).unwrap().tagged);
    }

    // ---------------- AD ---------------------------------------------------

    /// Drive one full read (resolving forwards with `owner_modified=true`).
    fn read_any(d: &mut DirTable, b: BlockAddr, p: NodeId) -> GrantKind {
        match d.read(H, b, p) {
            ReadStep::Memory { grant, .. } => grant,
            ReadStep::Forward { .. } => d.read_forward_result(H, b, p, true, true).grant,
        }
    }

    fn write_any(d: &mut DirTable, b: BlockAddr, p: NodeId) {
        if let WriteStep::Forward { .. } = d.write(H, b, p) {
            d.write_forward_result(H, b, p, true);
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
        let ReadStep::Forward { owner } = d.read(H, b, P2) else {
            panic!()
        };
        assert_eq!(owner, P1);
        let r = d.read_forward_result(H, b, P2, true, true);
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
            d.replacement(H, b, P0);
            read_any(&mut d, b, P0);
            write_any(&mut d, b, P0);
        }
        assert!(!d.entry(b).unwrap().tagged);
        assert_eq!(d.stats(H).exclusive_grants, 0);
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
        d.replacement(H, b, P1);
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
        d.replacement(H, b, P1);
        d.write(H, b, P2);
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
        d.replacement(H, b, P1);
        assert!(
            !d.entry(b).unwrap().tagged,
            "AD tag must not survive replacement"
        );
        // The next read is an ordinary shared grant.
        let ReadStep::Memory { grant, .. } = d.read(H, b, P2) else {
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
        let mut d = DirTable::new(cfg, BLOCK, 1);
        let b = blk(0);
        let ReadStep::Memory { grant, .. } = d.read(H, b, P2) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::Exclusive);
        // P0 reads before P2 writes: failed prediction, revert.
        let ReadStep::Forward { .. } = d.read(H, b, P0) else {
            panic!()
        };
        let r = d.read_forward_result(H, b, P0, false, false);
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
        d.write(H, b, P0); // invalidates P1 -> tear set
        assert!(d.entry(b).unwrap().tear);
        d.replacement(H, b, P0);
        // Next read: tear-off grant, no sharer registered.
        let ReadStep::Memory { grant, .. } = d.read(H, b, P2) else {
            panic!()
        };
        assert_eq!(grant, GrantKind::TearOff);
        assert_eq!(d.entry(b).unwrap().sharers.len(), 0);
        assert_eq!(d.stats(H).tear_grants, 1);
        // The subsequent write finds nobody to invalidate.
        let WriteStep::Memory { invalidate, .. } = d.write(H, b, P1) else {
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
        d.write(H, b, P0);
        d.replacement(H, b, P0);
        // Four consecutive tear-off reads exhaust the patience...
        for _ in 0..4 {
            let ReadStep::Memory { grant, .. } = d.read(H, b, P1) else {
                panic!()
            };
            assert_eq!(grant, GrantKind::TearOff);
        }
        assert!(
            !d.entry(b).unwrap().tear,
            "read-heavy phase clears the tear bit"
        );
        // ...and the fifth read caches normally.
        let ReadStep::Memory { grant, .. } = d.read(H, b, P1) else {
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
        d.write(H, b, P0); // sole-sharer upgrade: nothing invalidated
        assert!(!d.entry(b).unwrap().tear);
    }

    #[test]
    fn dsi_dirty_blocks_follow_the_normal_path() {
        let mut d = dir(ProtocolKind::Dsi);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        read_mem(&mut d, b, P1);
        d.write(H, b, P0); // tear set, P0 owns

        // Read while dirty: must forward, not tear off (memory is stale).
        let ReadStep::Forward { owner } = d.read(H, b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.read_forward_result(H, b, P1, true, true);
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
        d.replacement(H, b, P0);
        assert_eq!(d.fig1(b), Fig1State::Shared);
        d.replacement(H, b, P1);
        assert_eq!(d.fig1(b), Fig1State::Uncached);
        d.check_invariants().unwrap();
    }

    #[test]
    fn replacement_of_unknown_block_is_ignored() {
        let mut d = dir(ProtocolKind::Baseline);
        d.replacement(H, blk(0x999), P0); // no-op, no panic
    }

    #[test]
    fn stale_replacement_from_non_owner_is_ignored() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0);
        d.replacement(H, b, P1); // P1 owns nothing here
        assert_eq!(d.fig1(b), Fig1State::Dirty);
    }

    #[test]
    fn stats_counters_add_up() {
        let mut d = dir(ProtocolKind::Ls);
        let b = blk(0);
        read_mem(&mut d, b, P0); // global read 1 (Clean)
        d.write(H, b, P0); // upgrade 1
        let ReadStep::Forward { .. } = d.read(H, b, P1) else {
            panic!()
        }; // global read 2
        d.read_forward_result(H, b, P1, true, true); // DirtyExclusive
        let s = d.stats(H);
        assert_eq!(s.global_reads, 2);
        assert_eq!(s.upgrades, 1);
        assert_eq!(s.write_misses, 0);
        assert_eq!(s.ownership_acquisitions(), 1);
        assert_eq!(s.read_class_count(ReadMissClass::Clean), 1);
        assert_eq!(s.read_class_count(ReadMissClass::DirtyExclusive), 1);
        assert_eq!(s.exclusive_grants, 1);
    }

    #[test]
    fn write_forward_transfers_ownership() {
        let mut d = dir(ProtocolKind::Baseline);
        let b = blk(0);
        read_mem(&mut d, b, P0);
        d.write(H, b, P0);
        let WriteStep::Forward { owner } = d.write(H, b, P1) else {
            panic!()
        };
        assert_eq!(owner, P0);
        let r = d.write_forward_result(H, b, P1, true);
        assert!(r.owner_was_modified);
        assert_eq!(d.entry(b).unwrap().state, HomeState::Owned(P1));
        assert_eq!(d.stats(H).invalidations_requested, 1);
        d.check_invariants().unwrap();
    }

    #[test]
    fn stats_split_by_home() {
        let cfg = ProtocolConfig::new(ProtocolKind::Baseline);
        let mut tab = DirTable::new(cfg, BLOCK, 2);
        // Two blocks, attributed to different homes by the caller.
        let (h0, h1) = (NodeId(0), NodeId(1));
        assert!(matches!(
            tab.read(h0, blk(0), NodeId(1)),
            ReadStep::Memory {
                grant: GrantKind::Shared,
                ..
            }
        ));
        tab.read(h1, blk(BLOCK), NodeId(0));
        tab.read(h1, blk(BLOCK), NodeId(1));
        assert_eq!(tab.stats(h0).global_reads, 1);
        assert_eq!(tab.stats(h1).global_reads, 2);
        assert_eq!(tab.merged_stats().global_reads, 3);
    }

    #[test]
    fn replacement_on_untouched_block_is_a_noop() {
        let cfg = ProtocolConfig::new(ProtocolKind::Ls);
        let mut tab = DirTable::new(cfg, BLOCK, 1);
        tab.replacement(NodeId(0), blk(64), NodeId(0));
        assert!(tab.entry(blk(64)).is_none());
        assert_eq!(tab.merged_stats(), DirStats::default());
    }
}
