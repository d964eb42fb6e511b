//! The protocol transition table, as pure functions over directory entries.
//!
//! Both the concrete simulation engine (`ccsim-engine`, via [`crate::Directory`]'s
//! thin wrappers) and the bounded model checker (`ccsim-model`) execute
//! coherence transactions through the functions in this module, so the state
//! machine that is exhaustively explored for small configurations is
//! *provably* the one the simulator runs — there is exactly one copy of the
//! rules.
//!
//! The module also hosts:
//!
//! * [`CopyState`] — the cache-side state vocabulary (`S`/`X`/`M` plus the
//!   unwritten-dirty handoff), mirrored by `ccsim_cache::LineState`; kept
//!   here so the model does not need the concrete cache crate.
//! * [`copy_violations`] — the SWMR / state-agreement / entry-consistency
//!   safety conditions, shared by the engine's runtime invariant checker and
//!   the model's per-state checks.
//! * `check_*` transition postconditions — protocol-specific laws (LS
//!   tag/de-tag, `NotLS` reporting, AD detection, replacement tag survival)
//!   evaluated against before/after entry snapshots. These are what catch
//!   the seeded [`RuleMutation`]s.

use crate::directory::DirStats;
use crate::entry::{DirEntry, HomeState, SharerSet};
use crate::outcome::{
    GrantKind, OwnerAction, ReadMissClass, ReadResolution, ReadStep, WriteResolution, WriteStep,
};
use ccsim_types::{BlockAddr, NodeId, ProtocolConfig, ProtocolKind, RuleMutation};

/// DSI adaptivity: tear-off grants per write burst before the block
/// recovers normal caching.
pub const TEAR_PATIENCE: u8 = 4;

/// Whether fresh entries start tagged under this protocol configuration.
pub fn default_tagged(cfg: &ProtocolConfig) -> bool {
    match cfg.kind {
        ProtocolKind::Baseline | ProtocolKind::Dsi => false,
        ProtocolKind::Ad => cfg.ad.default_tagged,
        ProtocolKind::Ls => cfg.ls.default_tagged,
    }
}

/// A fresh (never accessed) entry under this configuration.
pub fn fresh_entry(cfg: &ProtocolConfig) -> DirEntry {
    DirEntry::new(default_tagged(cfg))
}

/// Hysteresis depth for tagging (always 1 outside LS).
pub fn tag_hysteresis(cfg: &ProtocolConfig) -> u8 {
    match cfg.kind {
        ProtocolKind::Ls => cfg.ls.tag_hysteresis,
        _ => 1,
    }
}

/// Hysteresis depth for de-tagging (always 1 outside LS).
pub fn detag_hysteresis(cfg: &ProtocolConfig) -> u8 {
    match cfg.kind {
        ProtocolKind::Ls => cfg.ls.detag_hysteresis,
        _ => 1,
    }
}

fn vote_tag(stats: &mut DirStats, e: &mut DirEntry, depth: u8) {
    e.detag_votes = 0;
    if e.tagged {
        return;
    }
    e.tag_votes = e.tag_votes.saturating_add(1);
    if e.tag_votes >= depth {
        e.tagged = true;
        e.tag_votes = 0;
        stats.tag_events += 1;
    }
}

fn vote_detag(stats: &mut DirStats, e: &mut DirEntry, depth: u8) {
    e.tag_votes = 0;
    if !e.tagged {
        return;
    }
    e.detag_votes = e.detag_votes.saturating_add(1);
    if e.detag_votes >= depth {
        e.tagged = false;
        e.detag_votes = 0;
        stats.detag_events += 1;
    }
}

/// Apply the protocol's tag/de-tag rule at an ownership acquisition from
/// `p`. Must run before the state transition (it inspects the pre-write
/// sharer set).
fn ownership_tag_rule(cfg: &ProtocolConfig, stats: &mut DirStats, e: &mut DirEntry, p: NodeId) {
    let tag_h = tag_hysteresis(cfg);
    let detag_h = detag_hysteresis(cfg);
    match cfg.kind {
        ProtocolKind::Baseline => {}
        ProtocolKind::Dsi => {
            // Tear-off detection: this write invalidates read-shared
            // copies ⇒ future readers receive uncached tear-off grants
            // until the pattern relaxes.
            if e.state == HomeState::Shared && e.sharers.others(p).next().is_some() {
                e.tear = true;
            }
            e.tear_reads = 0;
            e.lr = None;
        }
        ProtocolKind::Ls => {
            // §3.1: compare the request source with the LR field.
            if e.lr == Some(p) {
                vote_tag(stats, e, tag_h);
            } else if !cfg.ls.keep_on_unpaired_write
                && cfg.rule_mutation() != Some(RuleMutation::SkipLsDetag)
            {
                // Default: an ownership request not preceded by a read
                // from the same node de-tags (§3). The §5.5 "keep"
                // heuristic suppresses this.
                vote_detag(stats, e, detag_h);
            }
            // The acquisition consumes the read→write pairing.
            if cfg.rule_mutation() != Some(RuleMutation::KeepLrOnOwnership) {
                e.lr = None;
            }
        }
        ProtocolKind::Ad => {
            // Migratory detection (Stenström et al.): exactly two cached
            // copies, requester is one, the other is the previous writer.
            let detected = e.state == HomeState::Shared
                && e.sharers.len() == 2
                && e.sharers.contains(p)
                && matches!(e.last_writer, Some(w) if w != p && e.sharers.contains(w));
            if detected {
                vote_tag(stats, e, 1);
            } else if !e.sharers.contains(p) {
                // Write not preceded by a read from the writer: revert.
                vote_detag(stats, e, 1);
            }
        }
    }
}

/// A global read action from `p` arrives at the home.
// ccsim-lint: allow(panic-path): the panic marks a protocol-table hole; reaching it is a checker bug, not a recoverable input
pub fn read(cfg: &ProtocolConfig, stats: &mut DirStats, e: &mut DirEntry, p: NodeId) -> ReadStep {
    stats.global_reads += 1;
    // DSI: serve reads of torn blocks as uncached copies while the home
    // can supply current data. The requester is not registered as a
    // sharer, so the next writer sends it no invalidation — the
    // self-invalidation happened up front (Lebeck & Wood's tear-off
    // blocks, simplified).
    if cfg.kind == ProtocolKind::Dsi
        && e.tear
        && !matches!(e.state, HomeState::Owned(_))
        && !e.sharers.contains(p)
    {
        e.tear_reads = e.tear_reads.saturating_add(1);
        if e.tear_reads >= TEAR_PATIENCE {
            // Read-heavy phase: recover normal caching from here on.
            e.tear = false;
            e.tear_reads = 0;
        }
        stats.tear_grants += 1;
        stats.classify(ReadMissClass::Clean);
        return ReadStep::Memory {
            grant: GrantKind::TearOff,
            class: ReadMissClass::Clean,
        };
    }
    match e.state {
        HomeState::Uncached => {
            let grant = if e.tagged {
                GrantKind::Exclusive
            } else {
                GrantKind::Shared
            };
            let class = if e.tagged {
                ReadMissClass::CleanExclusive
            } else {
                ReadMissClass::Clean
            };
            e.lr = Some(p);
            e.sharers = SharerSet::single(p);
            e.state = match grant {
                GrantKind::Exclusive => HomeState::Owned(p),
                GrantKind::Shared => HomeState::Shared,
                GrantKind::TearOff => unreachable!("tear-off handled above"),
            };
            if grant == GrantKind::Exclusive {
                stats.exclusive_grants += 1;
            }
            stats.classify(class);
            ReadStep::Memory { grant, class }
        }
        HomeState::Shared => {
            // Reads of read-shared data always join the sharer set; an
            // exclusive grant from Shared would force invalidations on a
            // read, which none of the protocols do.
            let class = if e.tagged {
                ReadMissClass::CleanExclusive
            } else {
                ReadMissClass::Clean
            };
            e.lr = Some(p);
            e.sharers.insert(p);
            stats.classify(class);
            ReadStep::Memory {
                grant: GrantKind::Shared,
                class,
            }
        }
        HomeState::Owned(q) => {
            assert_ne!(q, p, "owner {p} issued a global read for a block it owns");
            ReadStep::Forward { owner: q }
        }
    }
}

/// Conclude a forwarded read once the owner's cache state is known.
///
/// * `owner_wrote` — the owner stored to its copy (cache state `M`):
///   the load-store prediction was fulfilled.
/// * `owner_dirty` — the copy's data differs from memory (`M`, or an
///   unwritten dirty handoff): a downgrade needs a sharing writeback.
///
/// `owner_wrote` implies `owner_dirty`.
// ccsim-lint: allow(panic-path): the panic marks a protocol-table hole; reaching it is a checker bug, not a recoverable input
pub fn read_forward_result(
    cfg: &ProtocolConfig,
    stats: &mut DirStats,
    e: &mut DirEntry,
    p: NodeId,
    owner_wrote: bool,
    owner_dirty: bool,
) -> ReadResolution {
    debug_assert!(owner_dirty || !owner_wrote);
    let detag_h = detag_hysteresis(cfg);
    let HomeState::Owned(q) = e.state else {
        panic!("read_forward_result on non-owned block");
    };
    debug_assert_ne!(q, p);
    e.lr = Some(p);
    let res = if owner_wrote {
        if e.tagged {
            // Exclusive handoff of dirty data: the classical migratory
            // transfer. The requester's line is Modified; home memory
            // stays stale; home state remains Owned with the new owner.
            e.state = HomeState::Owned(p);
            e.sharers = SharerSet::single(p);
            stats.exclusive_grants += 1;
            ReadResolution {
                grant: GrantKind::Exclusive,
                requester_dirty: true,
                owner_action: OwnerAction::Invalidate,
                sharing_writeback: false,
                notls: false,
                class: ReadMissClass::DirtyExclusive,
            }
        } else {
            // Plain read-on-dirty: owner downgrades to Shared and
            // refreshes memory with a sharing writeback.
            e.state = HomeState::Shared;
            e.sharers = SharerSet::single(q);
            e.sharers.insert(p);
            ReadResolution {
                grant: GrantKind::Shared,
                requester_dirty: false,
                owner_action: OwnerAction::Downgrade,
                sharing_writeback: true,
                notls: false,
                class: ReadMissClass::Dirty,
            }
        }
    } else {
        // The owner held an exclusive grant and never wrote: the
        // prediction failed — the block "was not accessed in a
        // load-store fashion" (§3.1 case 2). De-tag; both keep shared
        // copies; the home is refreshed with a sharing writeback only
        // if the handed-off data was dirty, and the owner sends the
        // NotLS notification.
        let dropped = cfg.rule_mutation() == Some(RuleMutation::DropNotLs);
        if !dropped {
            stats.notls_events += 1;
            if cfg.rule_mutation() != Some(RuleMutation::SkipLsDetag) {
                vote_detag(stats, e, detag_h);
            }
        }
        e.state = HomeState::Shared;
        e.sharers = SharerSet::single(q);
        e.sharers.insert(p);
        ReadResolution {
            grant: GrantKind::Shared,
            requester_dirty: false,
            owner_action: OwnerAction::Downgrade,
            sharing_writeback: owner_dirty,
            notls: !dropped,
            class: if owner_dirty {
                ReadMissClass::DirtyExclusive
            } else {
                ReadMissClass::CleanExclusive
            },
        }
    };
    stats.classify(res.class);
    res
}

/// A global write action (ownership acquisition) from `p` arrives at the
/// home. The caller must only invoke this when `p`'s cache cannot
/// complete the store locally (state `S` or a miss).
pub fn write(cfg: &ProtocolConfig, stats: &mut DirStats, e: &mut DirEntry, p: NodeId) -> WriteStep {
    ownership_tag_rule(cfg, stats, e, p);
    let step = match e.state {
        HomeState::Uncached => {
            stats.write_misses += 1;
            e.state = HomeState::Owned(p);
            e.sharers = SharerSet::single(p);
            WriteStep::Memory {
                invalidate: SharerSet::EMPTY,
                data_needed: true,
            }
        }
        HomeState::Shared => {
            let had_copy = e.sharers.contains(p);
            if had_copy {
                stats.upgrades += 1;
            } else {
                stats.write_misses += 1;
            }
            let mut invalidate = e.sharers;
            invalidate.remove(p);
            if cfg.rule_mutation() == Some(RuleMutation::DropInvalidations) {
                invalidate = SharerSet::EMPTY;
            }
            stats.invalidations_requested += invalidate.len() as u64;
            stats.writes_to_shared += 1;
            stats.invals_on_shared_writes += invalidate.len() as u64;
            e.state = HomeState::Owned(p);
            e.sharers = SharerSet::single(p);
            WriteStep::Memory {
                invalidate,
                data_needed: !had_copy,
            }
        }
        HomeState::Owned(q) => {
            assert_ne!(q, p, "owner {p} issued a global write for a block it owns");
            stats.write_misses += 1;
            WriteStep::Forward { owner: q }
        }
    };
    if !matches!(step, WriteStep::Forward { .. }) {
        e.last_writer = Some(p);
    }
    step
}

/// Conclude a forwarded write: the previous owner invalidates and ships
/// data + ownership to the requester.
// ccsim-lint: allow(panic-path): the panic marks a protocol-table hole; reaching it is a checker bug, not a recoverable input
pub fn write_forward_result(
    stats: &mut DirStats,
    e: &mut DirEntry,
    p: NodeId,
    owner_modified: bool,
) -> WriteResolution {
    let HomeState::Owned(q) = e.state else {
        panic!("write_forward_result on non-owned block");
    };
    debug_assert_ne!(q, p);
    stats.invalidations_requested += 1;
    e.state = HomeState::Owned(p);
    e.sharers = SharerSet::single(p);
    e.last_writer = Some(p);
    WriteResolution {
        owner_was_modified: owner_modified,
    }
}

/// A cache evicted its copy of `block`.
///
/// For an owned block the home returns to `Uncached`. Under **LS** the
/// LS-bit survives — §3.1 case 3: "the memory keeps the current LS-bit
/// value"; this is the feature that lets LS exploit load-store sequences
/// broken up by conflict/capacity replacements. Under **AD** the
/// migratory designation is part of the block's transient sharing
/// pattern and is lost with the exclusive copy.
pub fn replacement(cfg: &ProtocolConfig, stats: &mut DirStats, e: &mut DirEntry, node: NodeId) {
    match e.state {
        HomeState::Uncached => {}
        HomeState::Shared => {
            e.sharers.remove(node);
            if e.sharers.is_empty() {
                e.state = HomeState::Uncached;
            }
        }
        HomeState::Owned(o) => {
            if o == node {
                e.state = HomeState::Uncached;
                e.sharers = SharerSet::EMPTY;
                if cfg.kind == ProtocolKind::Ad {
                    vote_detag(stats, e, 1);
                    e.last_writer = None;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache-side vocabulary shared with the model checker
// ---------------------------------------------------------------------------

/// Cache-side coherence state of a held copy. Mirrors
/// `ccsim_cache::LineState` exactly (the engine maps between the two); kept
/// in `ccsim-core` so the abstract model shares one vocabulary with the
/// concrete caches without depending on the cache-geometry crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CopyState {
    /// Clean shared copy; stores require a global ownership acquisition.
    Shared,
    /// `LStemp`: exclusive clean grant — a silent store may upgrade it.
    Excl,
    /// Exclusively held *dirty* data the holder has not written (migratory /
    /// load-store handoff of modified data).
    ExclDirty,
    /// Written by the holder; memory is stale.
    Modified,
}

impl CopyState {
    /// Data differs from memory — eviction needs a writeback.
    pub fn is_dirty(self) -> bool {
        matches!(self, CopyState::ExclDirty | CopyState::Modified)
    }

    /// Copy confers write permission (any non-Shared state).
    pub fn is_exclusive(self) -> bool {
        self != CopyState::Shared
    }
}

/// What an owner reports when a forwarded request reaches it:
/// `(owner_wrote, owner_dirty)`. `None` when the cache holds only a Shared
/// copy — the directory's Owned view then disagrees with the cache, which
/// the engine treats as a hard error and the model as a violation.
pub fn owner_report(s: CopyState) -> Option<(bool, bool)> {
    match s {
        CopyState::Modified => Some((true, true)),
        CopyState::ExclDirty => Some((false, true)),
        CopyState::Excl => Some((false, false)),
        CopyState::Shared => None,
    }
}

/// Cache state installed by a read grant (`None` for DSI tear-off grants,
/// which are not cached).
pub fn read_fill_state(grant: GrantKind, requester_dirty: bool) -> Option<CopyState> {
    match (grant, requester_dirty) {
        (GrantKind::Shared, _) => Some(CopyState::Shared),
        (GrantKind::Exclusive, true) => Some(CopyState::ExclDirty),
        (GrantKind::Exclusive, false) => Some(CopyState::Excl),
        (GrantKind::TearOff, _) => None,
    }
}

/// Cache state the previous owner keeps after a forwarded read (`None` =
/// copy invalidated).
pub fn owner_next_state(action: OwnerAction) -> Option<CopyState> {
    match action {
        OwnerAction::Downgrade => Some(CopyState::Shared),
        OwnerAction::Invalidate => None,
    }
}

/// Why a node acquires ownership: a store that missed write permission, or
/// a read-exclusive (load-locked / prefetch-exclusive) request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquirePurpose {
    Store,
    ReadExclusive,
}

/// How a local store resolves against the cache's current copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalStore {
    /// Already Modified: plain dirty hit.
    DirtyHit,
    /// Exclusive (clean or unwritten-dirty) copy: the silent store — the
    /// ownership overhead the LS protocol exists to remove.
    Silent,
    /// Shared copy or miss: a global ownership acquisition is required.
    Acquire { has_copy: bool },
}

/// Store against the local cache state (`None` = miss).
pub fn store_probe(copy: Option<CopyState>) -> LocalStore {
    match copy {
        Some(CopyState::Modified) => LocalStore::DirtyHit,
        Some(CopyState::Excl) | Some(CopyState::ExclDirty) => LocalStore::Silent,
        Some(CopyState::Shared) => LocalStore::Acquire { has_copy: true },
        None => LocalStore::Acquire { has_copy: false },
    }
}

/// How a read-exclusive resolves against the cache's current copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalReadExcl {
    /// Already exclusive: nothing to do.
    Hit,
    /// Shared copy or miss: acquire ownership.
    Acquire { has_copy: bool },
}

/// Read-exclusive against the local cache state (`None` = miss).
// ccsim-lint: allow(panic-path): the panic marks a protocol-table hole; reaching it is a checker bug, not a recoverable input
pub fn read_exclusive_probe(copy: Option<CopyState>) -> LocalReadExcl {
    match copy {
        Some(s) if s.is_exclusive() => LocalReadExcl::Hit,
        Some(CopyState::Shared) => LocalReadExcl::Acquire { has_copy: true },
        Some(_) => unreachable!("exclusive states matched above"),
        None => LocalReadExcl::Acquire { has_copy: false },
    }
}

/// Cache state installed once an ownership acquisition completes.
///
/// `data_was_dirty` is true when the data arrived via a forward from an
/// owner whose copy was dirty. A store makes the line Modified regardless;
/// a read-exclusive of *dirty* data must install `ExclDirty`, not `Excl` —
/// installing a clean-exclusive line would let a later silent eviction drop
/// the only up-to-date copy while memory is stale.
pub fn acquire_final_state(purpose: AcquirePurpose, data_was_dirty: bool) -> CopyState {
    match purpose {
        AcquirePurpose::Store => CopyState::Modified,
        AcquirePurpose::ReadExclusive if data_was_dirty => CopyState::ExclDirty,
        AcquirePurpose::ReadExclusive => CopyState::Excl,
    }
}

// ---------------------------------------------------------------------------
// Safety conditions (shared state checks)
// ---------------------------------------------------------------------------

/// Which safety condition a violation breaks. The engine re-exports this as
/// `InvariantRule`; the model checker reports the same vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SafetyRule {
    /// More than one writable copy, or a writable copy alongside sharers.
    Swmr,
    /// Home directory state disagrees with actual cache states.
    StateAgreement,
    /// A load observed a value other than the last store's.
    DataValue,
    /// A directory entry is internally inconsistent (state vs sharer set,
    /// or protocol-illegal metadata such as a tagged Baseline block).
    DirectoryEntry,
    /// A transition broke one of the protocol-specific laws (LS tag /
    /// de-tag / LR handling, `NotLS` reporting, AD detection, replacement
    /// tag survival) checked by this module's `check_*` postconditions.
    ProtocolRule,
}

/// Source anchor for [`SafetyRule::DataValue`]. The data-value oracle
/// itself lives with its callers (the model checker's store counters, the
/// engine's golden values) — this enum is the one place the vocabulary is
/// defined, so annotations for value violations point here.
pub const DATA_VALUE_SITE: (&str, u32) = (file!(), line!());

impl SafetyRule {
    pub fn label(self) -> &'static str {
        match self {
            SafetyRule::Swmr => "SWMR",
            SafetyRule::StateAgreement => "state-agreement",
            SafetyRule::DataValue => "data-value",
            SafetyRule::DirectoryEntry => "directory-entry",
            SafetyRule::ProtocolRule => "protocol-rule",
        }
    }

    /// Where this safety condition is enforced, as a workspace-relative
    /// `(file, line)` pair — the anchor `--format github` counterexample
    /// annotations point CI failures at.
    pub fn site(self) -> (&'static str, u32) {
        match self {
            SafetyRule::Swmr => SWMR_SITE,
            SafetyRule::StateAgreement => STATE_AGREEMENT_SITE,
            SafetyRule::DataValue => DATA_VALUE_SITE,
            SafetyRule::DirectoryEntry => DIRECTORY_ENTRY_SITE,
            SafetyRule::ProtocolRule => PROTOCOL_RULE_SITE,
        }
    }
}

/// Compute the invariant violations visible for one block, given the home's
/// directory entry and the actual cache holders `(node, state)`.
///
/// Pure so it can be unit-tested without a machine; the engine feeds it the
/// real state after every protocol action, the model checker every reached
/// abstract state.
///
/// The three `*_SITE` anchors below point annotations at this function —
/// it is the single enforcement point for SWMR, directory-entry
/// consistency and directory/cache agreement.
pub const SWMR_SITE: (&str, u32) = (file!(), line!());
pub const DIRECTORY_ENTRY_SITE: (&str, u32) = (file!(), line!());
pub const STATE_AGREEMENT_SITE: (&str, u32) = (file!(), line!());
// ccsim-lint: allow(panic-path): holder indices come from enumerate over the same slice they index
pub fn copy_violations(
    protocol: ProtocolKind,
    block: BlockAddr,
    entry: Option<&DirEntry>,
    holders: &[(NodeId, CopyState)],
) -> Vec<(SafetyRule, String)> {
    let mut out = Vec::new();
    // SWMR needs only the cache states: any non-Shared copy is writable
    // (Excl is LStemp — it can absorb a store silently), so it must be the
    // sole copy in the machine.
    let writable = holders.iter().filter(|(_, s)| *s != CopyState::Shared);
    if writable.count() >= 1 && holders.len() > 1 {
        out.push((
            SafetyRule::Swmr,
            format!("{block}: writable copy coexists with other copies: {holders:?}"),
        ));
    }
    if let Some(e) = entry {
        if let Err(msg) = e.check() {
            out.push((SafetyRule::DirectoryEntry, format!("{block}: {msg}")));
        }
        if protocol == ProtocolKind::Baseline && e.tagged {
            out.push((
                SafetyRule::DirectoryEntry,
                format!("{block}: Baseline entry is tagged"),
            ));
        }
    }
    // Directory/cache agreement, including the exact sharer set: the
    // full-map directory with synchronous replacement hints never has
    // stale or missing sharers in this engine.
    match entry.map(|e| e.state) {
        None | Some(HomeState::Uncached) => {
            if !holders.is_empty() {
                out.push((
                    SafetyRule::StateAgreement,
                    format!("{block}: uncached at home but held by {holders:?}"),
                ));
            }
        }
        Some(HomeState::Shared) => {
            // ccsim-lint: allow(unwrap): the match arm just proved entry is Some
            let e = entry.expect("state implies entry");
            for (n, s) in holders {
                if *s != CopyState::Shared {
                    out.push((
                        SafetyRule::StateAgreement,
                        format!("{block}: home Shared but {n} holds {s:?}"),
                    ));
                }
                if !e.sharers.contains(*n) {
                    out.push((
                        SafetyRule::StateAgreement,
                        format!("{block}: {n} holds a copy but is not in the sharer set"),
                    ));
                }
            }
            for n in e.sharers.iter() {
                if !holders.iter().any(|(h, _)| *h == n) {
                    out.push((
                        SafetyRule::StateAgreement,
                        format!("{block}: sharer set lists {n} but its cache has no copy"),
                    ));
                }
            }
            if holders.is_empty() {
                out.push((
                    SafetyRule::StateAgreement,
                    format!("{block}: home Shared but no holders"),
                ));
            }
        }
        Some(HomeState::Owned(o)) => {
            if holders.len() != 1 || holders[0].0 != o || holders[0].1 == CopyState::Shared {
                out.push((
                    SafetyRule::StateAgreement,
                    format!("{block}: home Owned({o}) but held by {holders:?}"),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Transition postconditions ("protocol-rule" checks)
// ---------------------------------------------------------------------------
//
// Each check receives the entry as it was before the transition and as it is
// after, and re-derives the protocol law independently of the transition
// code above — deliberately duplicating the *specification* so a bug (or a
// seeded RuleMutation) in the transition table cannot also hide in the
// check. Checks that depend on hysteresis state only fire at depth 1 (the
// paper's default); deeper hysteresis makes the post-state depend on vote
// counters and is validated by the directory unit tests instead.

/// Source anchor for [`SafetyRule::ProtocolRule`]: the postcondition
/// section starting at [`check_read_step`] re-derives every
/// protocol-specific law.
pub const PROTOCOL_RULE_SITE: (&str, u32) = (file!(), line!());

/// Postconditions of a memory-served [`read`] (the [`ReadStep`] returned
/// with `pre` the entry before the call). DSI tear-off grants are exempt
/// (the tear path bypasses the Figure-1 state machine by design).
pub fn check_read_step(
    cfg: &ProtocolConfig,
    pre: &DirEntry,
    post: &DirEntry,
    p: NodeId,
    step: &ReadStep,
) -> Vec<String> {
    let mut out = Vec::new();
    match *step {
        ReadStep::Forward { owner } => {
            if pre.state != HomeState::Owned(owner) {
                out.push(format!(
                    "read forwarded to {owner} but home state was {:?}",
                    pre.state
                ));
            }
            if post != pre {
                out.push("read must not change the entry when forwarding".into());
            }
        }
        ReadStep::Memory {
            grant: GrantKind::TearOff,
            ..
        } => {
            if cfg.kind != ProtocolKind::Dsi {
                out.push("tear-off grant outside DSI".into());
            }
        }
        ReadStep::Memory { grant, .. } => {
            if post.lr != Some(p) {
                out.push(format!(
                    "read must set LR to the reader, found {:?}",
                    post.lr
                ));
            }
            if !post.sharers.contains(p) {
                out.push("reader missing from the sharer set after a read".into());
            }
            if post.tagged != pre.tagged {
                out.push("a read must not change the tag bit".into());
            }
            match pre.state {
                HomeState::Uncached => {
                    let want_excl = pre.tagged;
                    if want_excl != (grant == GrantKind::Exclusive) {
                        out.push(format!(
                            "cold read of a {} block granted {grant:?}",
                            if pre.tagged { "tagged" } else { "untagged" }
                        ));
                    }
                    let want_state = if want_excl {
                        HomeState::Owned(p)
                    } else {
                        HomeState::Shared
                    };
                    if post.state != want_state || post.sharers.len() != 1 {
                        out.push(format!(
                            "cold read must leave {{{p}}} in {want_state:?}, found {:?} {:?}",
                            post.state, post.sharers
                        ));
                    }
                }
                HomeState::Shared => {
                    if grant != GrantKind::Shared {
                        out.push(format!("read of a Shared block granted {grant:?}"));
                    }
                    if post.state != HomeState::Shared
                        || post.sharers.len() != pre.sharers.len() + !pre.sharers.contains(p) as u32
                    {
                        out.push("read of a Shared block must only add the reader".into());
                    }
                }
                HomeState::Owned(_) => {
                    out.push("memory served a read of an owned block".into());
                }
            }
        }
    }
    out
}

/// Postconditions of [`read_forward_result`].
pub fn check_read_resolution(
    cfg: &ProtocolConfig,
    pre: &DirEntry,
    post: &DirEntry,
    p: NodeId,
    owner_wrote: bool,
    owner_dirty: bool,
    res: &ReadResolution,
) -> Vec<String> {
    let mut out = Vec::new();
    let HomeState::Owned(q) = pre.state else {
        return vec![format!(
            "forwarded read resolved on a non-owned block ({:?})",
            pre.state
        )];
    };
    if post.lr != Some(p) {
        out.push(format!(
            "forwarded read must set LR to the reader, found {:?}",
            post.lr
        ));
    }
    // §3.1 case 2: an unwritten exclusive grant MUST be reported NotLS —
    // and a fulfilled prediction must not be.
    if res.notls == owner_wrote {
        out.push(format!(
            "NotLS must be reported iff the owner never wrote (owner_wrote={owner_wrote}, notls={})",
            res.notls
        ));
    }
    let want_shared_pair = |out: &mut Vec<String>| {
        if res.grant != GrantKind::Shared || res.owner_action != OwnerAction::Downgrade {
            out.push(format!(
                "downgrade path must grant Shared with a Downgrade, found {:?}/{:?}",
                res.grant, res.owner_action
            ));
        }
        let mut want = SharerSet::single(q);
        want.insert(p);
        if post.state != HomeState::Shared || post.sharers != want {
            out.push(format!(
                "downgrade must leave {{{q},{p}}} Shared, found {:?} {:?}",
                post.state, post.sharers
            ));
        }
    };
    if owner_wrote {
        if !owner_dirty {
            out.push("a written copy is necessarily dirty".into());
        }
        if post.tagged != pre.tagged {
            out.push("a fulfilled prediction must not change the tag".into());
        }
        if pre.tagged {
            // Migratory/load-store handoff.
            if res.grant != GrantKind::Exclusive
                || !res.requester_dirty
                || res.owner_action != OwnerAction::Invalidate
                || res.sharing_writeback
            {
                out.push(format!("tagged dirty handoff must move the dirty exclusive copy without a writeback, found {res:?}"));
            }
            if post.state != HomeState::Owned(p) || post.sharers != SharerSet::single(p) {
                out.push(format!(
                    "exclusive handoff must leave {{{p}}} Owned({p}), found {:?} {:?}",
                    post.state, post.sharers
                ));
            }
        } else {
            want_shared_pair(&mut out);
            if !res.sharing_writeback {
                out.push("read-on-dirty downgrade must refresh memory".into());
            }
        }
    } else {
        want_shared_pair(&mut out);
        if res.sharing_writeback != owner_dirty {
            out.push(format!(
                "sharing writeback iff the handed-off data was dirty (dirty={owner_dirty}, writeback={})",
                res.sharing_writeback
            ));
        }
        // Failed prediction: at depth 1 the tag must be gone (LS and AD both
        // revert; Baseline was never tagged).
        if detag_hysteresis(cfg) == 1 && post.tagged {
            out.push("failed prediction (NotLS) must clear the tag".into());
        }
    }
    out
}

/// Postconditions of a completed ownership acquisition from `p` — after
/// [`write`] and, if forwarded, [`write_forward_result`]. `pre` is the entry
/// before [`write`] ran.
pub fn check_write_transaction(
    cfg: &ProtocolConfig,
    pre: &DirEntry,
    post: &DirEntry,
    p: NodeId,
) -> Vec<String> {
    let mut out = Vec::new();
    if post.state != HomeState::Owned(p) || post.sharers != SharerSet::single(p) {
        out.push(format!(
            "ownership acquisition must leave {{{p}}} Owned({p}), found {:?} {:?}",
            post.state, post.sharers
        ));
    }
    if post.last_writer != Some(p) {
        out.push(format!(
            "ownership acquisition must record the writer, found {:?}",
            post.last_writer
        ));
    }
    match cfg.kind {
        ProtocolKind::Baseline => {
            if post.tagged {
                out.push("Baseline must never tag".into());
            }
        }
        ProtocolKind::Dsi => {
            if post.tagged {
                out.push("DSI must never tag".into());
            }
            if post.lr.is_some() {
                out.push("ownership acquisition must invalidate LR".into());
            }
        }
        ProtocolKind::Ls => {
            // §3: the acquisition consumes the read→write pairing.
            if post.lr.is_some() {
                out.push(format!(
                    "LS ownership acquisition must invalidate LR, found {:?}",
                    post.lr
                ));
            }
            if pre.lr == Some(p) {
                if tag_hysteresis(cfg) == 1 && !post.tagged {
                    out.push("paired read→write must set the LS-bit".into());
                }
            } else if cfg.ls.keep_on_unpaired_write {
                if post.tagged != pre.tagged {
                    out.push("the keep heuristic must preserve the tag on unpaired writes".into());
                }
            } else if detag_hysteresis(cfg) == 1 && post.tagged {
                out.push("unpaired ownership acquisition must clear the LS-bit (§3)".into());
            }
        }
        ProtocolKind::Ad => {
            let detected = pre.state == HomeState::Shared
                && pre.sharers.len() == 2
                && pre.sharers.contains(p)
                && matches!(pre.last_writer, Some(w) if w != p && pre.sharers.contains(w));
            if detected {
                if !post.tagged {
                    out.push("AD must tag on the two-copy migratory pattern".into());
                }
            } else if !pre.sharers.contains(p) {
                if post.tagged {
                    out.push("AD write miss without a preceding read must revert the tag".into());
                }
            } else if post.tagged != pre.tagged {
                out.push("AD must not change the tag outside its detection rule".into());
            }
        }
    }
    out
}

/// Postconditions of [`replacement`] by `node`. `pre`/`post` are `None` when
/// the directory had no entry for the block (never globally accessed).
pub fn check_replacement(
    cfg: &ProtocolConfig,
    pre: Option<&DirEntry>,
    post: Option<&DirEntry>,
    node: NodeId,
) -> Vec<String> {
    let mut out = Vec::new();
    let (Some(pre), Some(post)) = (pre, post) else {
        if pre.is_some() != post.is_some() {
            out.push("replacement must not create or delete entries".into());
        }
        return out;
    };
    match pre.state {
        HomeState::Owned(o) if o == node => {
            if post.state != HomeState::Uncached || !post.sharers.is_empty() {
                out.push(format!(
                    "owner eviction must return the block to Uncached, found {:?} {:?}",
                    post.state, post.sharers
                ));
            }
            match cfg.kind {
                // §3.1 case 3: "the memory keeps the current LS-bit value".
                ProtocolKind::Ls => {
                    if post.tagged != pre.tagged {
                        out.push("LS-bit must survive replacement of the owner's copy".into());
                    }
                }
                // AD's designation dies with the exclusive copy.
                ProtocolKind::Ad => {
                    if post.tagged {
                        out.push("AD tag must not survive replacement".into());
                    }
                }
                ProtocolKind::Baseline | ProtocolKind::Dsi => {
                    if post.tagged != pre.tagged {
                        out.push("replacement must not change the tag".into());
                    }
                }
            }
        }
        HomeState::Shared if pre.sharers.contains(node) => {
            let mut want = pre.sharers;
            want.remove(node);
            let want_state = if want.is_empty() {
                HomeState::Uncached
            } else {
                HomeState::Shared
            };
            if post.state != want_state || post.sharers != want {
                out.push(format!(
                    "sharer eviction must only remove {node}, found {:?} {:?}",
                    post.state, post.sharers
                ));
            }
            if post.tagged != pre.tagged {
                out.push("replacement must not change the tag".into());
            }
        }
        // Stale hint (no copy recorded): must be a no-op.
        _ => {
            if post != pre {
                out.push("stale replacement hint must not change the entry".into());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: NodeId = NodeId(0);
    const P1: NodeId = NodeId(1);
    const B: BlockAddr = BlockAddr(0x40);

    fn ls() -> ProtocolConfig {
        ProtocolConfig::new(ProtocolKind::Ls)
    }

    #[test]
    fn clean_ls_cycle_passes_all_postconditions() {
        let cfg = ls();
        let mut stats = DirStats::default();
        let mut e = fresh_entry(&cfg);

        let pre = e;
        let step = read(&cfg, &mut stats, &mut e, P0);
        assert!(check_read_step(&cfg, &pre, &e, P0, &step).is_empty());

        let pre = e;
        let step = write(&cfg, &mut stats, &mut e, P0);
        assert!(matches!(step, WriteStep::Memory { .. }));
        assert!(check_write_transaction(&cfg, &pre, &e, P0).is_empty());
        assert!(e.tagged);

        // Forwarded read of the modified copy: exclusive handoff.
        let pre = e;
        let step = read(&cfg, &mut stats, &mut e, P1);
        assert!(check_read_step(&cfg, &pre, &e, P1, &step).is_empty());
        assert!(matches!(step, ReadStep::Forward { owner } if owner == P0));
        let res = read_forward_result(&cfg, &mut stats, &mut e, P1, true, true);
        assert!(check_read_resolution(&cfg, &pre, &e, P1, true, true, &res).is_empty());

        // Owner eviction keeps the tag.
        let pre = e;
        replacement(&cfg, &mut stats, &mut e, P1);
        assert!(check_replacement(&cfg, Some(&pre), Some(&e), P1).is_empty());
        assert!(e.tagged);
    }

    #[test]
    fn postconditions_catch_a_tampered_entry() {
        let cfg = ls();
        let mut stats = DirStats::default();
        let mut e = fresh_entry(&cfg);
        read(&cfg, &mut stats, &mut e, P0);
        let pre = e;
        write(&cfg, &mut stats, &mut e, P0);
        // Tamper: pretend the LR survived the acquisition.
        e.lr = Some(P0);
        let v = check_write_transaction(&cfg, &pre, &e, P0);
        assert!(v.iter().any(|m| m.contains("invalidate LR")), "{v:?}");
    }

    #[test]
    fn copy_state_helpers_mirror_line_state_semantics() {
        assert!(CopyState::Modified.is_dirty());
        assert!(CopyState::ExclDirty.is_dirty());
        assert!(!CopyState::Excl.is_dirty());
        assert!(CopyState::Excl.is_exclusive());
        assert!(!CopyState::Shared.is_exclusive());
        assert_eq!(owner_report(CopyState::Modified), Some((true, true)));
        assert_eq!(owner_report(CopyState::ExclDirty), Some((false, true)));
        assert_eq!(owner_report(CopyState::Excl), Some((false, false)));
        assert_eq!(owner_report(CopyState::Shared), None);
        assert_eq!(
            read_fill_state(GrantKind::Exclusive, true),
            Some(CopyState::ExclDirty)
        );
        assert_eq!(read_fill_state(GrantKind::TearOff, false), None);
        assert_eq!(
            owner_next_state(OwnerAction::Downgrade),
            Some(CopyState::Shared)
        );
        assert_eq!(owner_next_state(OwnerAction::Invalidate), None);
    }

    #[test]
    fn read_exclusive_of_dirty_data_stays_dirty() {
        // The law that makes a dirty migratory handoff safe: the requester's
        // line must remember the data is memory-stale even before it writes.
        assert_eq!(
            acquire_final_state(AcquirePurpose::ReadExclusive, true),
            CopyState::ExclDirty
        );
        assert_eq!(
            acquire_final_state(AcquirePurpose::ReadExclusive, false),
            CopyState::Excl
        );
        assert_eq!(
            acquire_final_state(AcquirePurpose::Store, true),
            CopyState::Modified
        );
    }

    #[test]
    fn local_probes() {
        assert_eq!(store_probe(Some(CopyState::Modified)), LocalStore::DirtyHit);
        assert_eq!(store_probe(Some(CopyState::Excl)), LocalStore::Silent);
        assert_eq!(store_probe(Some(CopyState::ExclDirty)), LocalStore::Silent);
        assert_eq!(
            store_probe(Some(CopyState::Shared)),
            LocalStore::Acquire { has_copy: true }
        );
        assert_eq!(store_probe(None), LocalStore::Acquire { has_copy: false });
        assert_eq!(
            read_exclusive_probe(Some(CopyState::Excl)),
            LocalReadExcl::Hit
        );
        assert_eq!(
            read_exclusive_probe(Some(CopyState::Shared)),
            LocalReadExcl::Acquire { has_copy: true }
        );
        assert_eq!(
            read_exclusive_probe(None),
            LocalReadExcl::Acquire { has_copy: false }
        );
    }

    #[test]
    fn copy_violations_catch_swmr_break() {
        let holders = [(P0, CopyState::Excl), (P1, CopyState::Shared)];
        let got = copy_violations(ProtocolKind::Ls, B, None, &holders);
        assert!(got.iter().any(|(r, _)| *r == SafetyRule::Swmr));
    }

    #[cfg(feature = "testing")]
    mod mutations {
        use super::*;
        use ccsim_types::RuleMutation;

        #[test]
        fn skip_ls_detag_is_caught_by_write_postcondition() {
            let cfg = ls().with_rule_mutation(RuleMutation::SkipLsDetag);
            let mut stats = DirStats::default();
            let mut e = fresh_entry(&cfg);
            // Tag the block (paired read→write still works under the mutation).
            read(&cfg, &mut stats, &mut e, P0);
            write(&cfg, &mut stats, &mut e, P0);
            assert!(e.tagged);
            // Unpaired foreign write: the mutation keeps the tag; the
            // specification-side check flags it.
            let pre = e;
            write(&cfg, &mut stats, &mut e, P1);
            write_forward_result(&mut stats, &mut e, P1, true);
            let v = check_write_transaction(&cfg, &pre, &e, P1);
            assert!(v.iter().any(|m| m.contains("clear the LS-bit")), "{v:?}");
        }

        #[test]
        fn drop_notls_is_caught_by_read_resolution_postcondition() {
            let cfg = ls().with_rule_mutation(RuleMutation::DropNotLs);
            let mut stats = DirStats::default();
            let mut e = fresh_entry(&cfg);
            read(&cfg, &mut stats, &mut e, P0);
            write(&cfg, &mut stats, &mut e, P0);
            replacement(&cfg, &mut stats, &mut e, P0);
            // Tagged cold read: exclusive grant to P1, never written.
            read(&cfg, &mut stats, &mut e, P1);
            let pre = e;
            let res = read_forward_result(&cfg, &mut stats, &mut e, P0, false, false);
            assert!(!res.notls, "mutation drops the notification");
            let v = check_read_resolution(&cfg, &pre, &e, P0, false, false, &res);
            assert!(v.iter().any(|m| m.contains("NotLS")), "{v:?}");
        }

        #[test]
        fn keep_lr_is_caught_by_write_postcondition() {
            let cfg = ls().with_rule_mutation(RuleMutation::KeepLrOnOwnership);
            let mut stats = DirStats::default();
            let mut e = fresh_entry(&cfg);
            read(&cfg, &mut stats, &mut e, P0);
            let pre = e;
            write(&cfg, &mut stats, &mut e, P0);
            let v = check_write_transaction(&cfg, &pre, &e, P0);
            assert!(v.iter().any(|m| m.contains("invalidate LR")), "{v:?}");
        }

        #[test]
        fn drop_invalidations_leaves_stale_sharers() {
            let cfg = ProtocolConfig::new(ProtocolKind::Baseline)
                .with_rule_mutation(RuleMutation::DropInvalidations);
            let mut stats = DirStats::default();
            let mut e = fresh_entry(&cfg);
            read(&cfg, &mut stats, &mut e, P0);
            read(&cfg, &mut stats, &mut e, P1);
            let WriteStep::Memory { invalidate, .. } = write(&cfg, &mut stats, &mut e, P0) else {
                panic!("expected a memory-served upgrade");
            };
            assert!(invalidate.is_empty(), "mutation drops the invalidation");
            // P1's stale copy now violates SWMR / agreement.
            let holders = [(P0, CopyState::Modified), (P1, CopyState::Shared)];
            let got = copy_violations(cfg.kind, B, Some(&e), &holders);
            assert!(got.iter().any(|(r, _)| *r == SafetyRule::Swmr));
        }
    }
}
