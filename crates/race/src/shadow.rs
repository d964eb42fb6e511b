//! Shadow replay of the *unmutated* protocol rules over the event log.
//!
//! Works transaction by transaction (every maximal run of side-effect
//! events plus the access event that follows — see the grouping contract in
//! `ccsim_engine::events`): predict what the clean [`ccsim_core::rules`]
//! say must happen, compare against what the engine logged, then apply the
//! observed effects. Divergence is reported and the shadow directory is
//! re-seated on the observed copy set, so one seeded bug does not cascade
//! into noise for the rest of the log.
//!
//! Independently of the rules replay, the module tracks every cached copy's
//! lifetime (fill → downgrade/invalidate/evict) and checks
//!
//! * **SWMR** — an exclusive copy never coexists with any other copy;
//! * **hit legality** — cache hits require a live copy of sufficient
//!   state (silent stores need exclusive-clean, dirty hits need Modified);
//! * **staleness** — a copy that survives a foreign write is poisoned, and
//!   any later hit on it is a stale-hit violation;
//! * **the paper's §2 definition** — re-derived from scratch (last global
//!   accessor per block): a write closes a load-store sequence iff the
//!   previous global access to the block was a read by the same node, and
//!   the sequence is migratory iff the previous completed sequence came
//!   from another node. The oracle verdicts recorded in the log must agree.
//!   Because the log order is the directory serialization order, "no
//!   hb-intervening foreign access between the load and the store" is
//!   exactly "no intervening foreign global access in the log";
//! * **NotLS legality** — a `NotLS` report must come from an owner whose
//!   exclusive copy was never written, and a forwarded read from such an
//!   owner must carry the `NotLS` flag (this check needs only the tracked
//!   copies, so it survives shadow divergence — it is what catches the
//!   `drop-notls` mutation even deep into a run).

use ccsim_core::rules::{self, CopyState};
use ccsim_core::{
    DirEntry, DirStats, GrantKind, HomeState, OwnerAction, ReadStep, SharerSet, WriteStep,
};
use ccsim_engine::{CoherenceEvent, EventKind, EventLog, WriteHow};
use ccsim_types::{BlockAddr, NodeId, ProtocolConfig};
use ccsim_util::FxHashMap;

use crate::{RaceReport, ViolationKind};

/// One tracked cached copy.
#[derive(Clone, Copy)]
struct Copy {
    state: CopyState,
    /// Event that installed it (witness anchor).
    fill: u32,
    /// Set to the foreign write that this copy wrongly survived.
    stale: Option<u32>,
}

/// One block's shadow directory entry and §2 mirror. Its tracked copies
/// live in [`Blocks::copies`].
struct Block {
    entry: DirEntry,
    /// §2 mirror: last global access to the block (node, was-read, event).
    last: Option<(NodeId, bool, u32)>,
    /// §2 mirror: node of the previous completed load-store sequence.
    prev_seq: Option<NodeId>,
    /// Previous access event on this block (witness anchor).
    last_access: Option<u32>,
}

impl Block {
    fn new(cfg: &ProtocolConfig) -> Self {
        Block {
            entry: rules::fresh_entry(cfg),
            last: None,
            prev_seq: None,
            last_access: None,
        }
    }
}

/// Every block the log touches, numbered densely in first-touch order: one
/// hash lookup per block reference, then plain indexing into flat arrays.
struct Blocks {
    index: FxHashMap<BlockAddr, u32>,
    meta: Vec<Block>,
    /// `nodes` tracked-copy slots per block, block-major.
    copies: Vec<Option<Copy>>,
    nodes: usize,
}

impl Blocks {
    fn new(nodes: usize) -> Self {
        Blocks {
            index: FxHashMap::default(),
            meta: Vec::new(),
            copies: Vec::new(),
            nodes,
        }
    }

    /// The dense slot of `block`, created on first touch.
    fn slot(&mut self, cfg: &ProtocolConfig, block: BlockAddr) -> usize {
        let next = self.meta.len();
        let slot = *self.index.entry(block).or_insert(next as u32) as usize;
        if slot == next {
            self.meta.push(Block::new(cfg));
            self.copies.resize(self.copies.len() + self.nodes, None);
        }
        slot
    }

    /// The block in `slot` and its per-node copy slots.
    fn get(&mut self, slot: usize) -> (&mut Block, &mut [Option<Copy>]) {
        let n = self.nodes;
        (
            &mut self.meta[slot],
            &mut self.copies[slot * n..(slot + 1) * n],
        )
    }
}

/// The node holding a non-`Shared` copy, if any.
fn exclusive_holder(copies: &[Option<Copy>]) -> Option<(usize, Copy)> {
    copies.iter().enumerate().find_map(|(q, c)| match c {
        Some(c) if c.state != CopyState::Shared => Some((q, *c)),
        _ => None,
    })
}

pub(crate) fn analyze(protocol: &ProtocolConfig, log: &EventLog, report: &mut RaceReport) {
    // The shadow replays the *spec*: same protocol and heuristics, but any
    // seeded rule mutation stripped.
    let mut cfg = ProtocolConfig::new(protocol.kind);
    cfg.ls = protocol.ls;
    cfg.ad = protocol.ad;

    let nodes = (log.nodes() as usize).max(1);
    let bb = log.block_bytes();
    let events = log.events();
    let mut scratch = DirStats::default();
    let mut blocks = Blocks::new(nodes);
    // Per-transaction scratch, reused so a clean log is checked without
    // per-transaction allocation.
    let mut group: Vec<u32> = Vec::new();
    let mut pre: Vec<Option<Copy>> = Vec::with_capacity(nodes);
    let mut fx = GroupFx::default();
    for (id, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::Init { .. } => {}
            kind if !kind.is_access() => group.push(id as u32),
            _ => {
                check_group(
                    &cfg,
                    &mut scratch,
                    &mut blocks,
                    &mut pre,
                    &mut fx,
                    bb,
                    events,
                    &group,
                    id as u32,
                    report,
                );
                group.clear();
            }
        }
    }
    report.counts.blocks = blocks.meta.len() as u64;
}

/// Access-block side effects of one transaction group.
#[derive(Default)]
struct GroupFx {
    invals: Vec<(NodeId, u32)>,
    downgrades: Vec<(NodeId, u32)>,
    notls: Vec<(NodeId, u32)>,
    fills: Vec<(NodeId, CopyState, u32)>,
}

impl GroupFx {
    fn clear(&mut self) {
        self.invals.clear();
        self.downgrades.clear();
        self.notls.clear();
        self.fills.clear();
    }
}

/// Check one transaction: the side-effect events in `group`, then the
/// access event `aid`. `pre` (the access block's copies before the
/// transaction) and `fx` are scratch, overwritten on every call.
#[allow(clippy::too_many_arguments)]
fn check_group(
    cfg: &ProtocolConfig,
    scratch: &mut DirStats,
    blocks: &mut Blocks,
    pre: &mut Vec<Option<Copy>>,
    fx: &mut GroupFx,
    bb: u64,
    events: &[CoherenceEvent],
    group: &[u32],
    aid: u32,
    report: &mut RaceReport,
) {
    let access = &events[aid as usize];
    let p = access.proc;
    let addr = match access.kind {
        EventKind::Read { addr, .. }
        | EventKind::ReadExcl { addr, .. }
        | EventKind::Write { addr, .. } => addr,
        _ => return,
    };
    let ablock = addr.block(bb);
    let key = ablock.addr().0;

    // Evictions are replacements of *other* blocks (the fill victim);
    // apply them first so they don't entangle with the access block's
    // borrow. Replacement is a spec transition too.
    fx.clear();
    for &g in group {
        let e = &events[g as usize];
        match e.kind {
            EventKind::Evict { block } => {
                let slot = blocks.slot(cfg, block);
                let (bt, copies) = blocks.get(slot);
                copies[e.proc.idx()] = None;
                rules::replacement(cfg, scratch, &mut bt.entry, e.proc);
            }
            EventKind::Inval { block, .. } if block == ablock => {
                fx.invals.push((e.proc, g));
            }
            EventKind::Downgrade { block, .. } if block == ablock => {
                fx.downgrades.push((e.proc, g));
            }
            EventKind::NotLs { block } if block == ablock => {
                fx.notls.push((e.proc, g));
            }
            EventKind::Fill { block, state } if block == ablock => {
                fx.fills.push((e.proc, state, g));
            }
            _ => {}
        }
    }

    let slot = blocks.slot(cfg, ablock);
    let (bt, copies) = blocks.get(slot);
    pre.clear();
    pre.extend_from_slice(copies);
    let pre = &pre[..];
    let fx = &*fx;
    let mut diverged = false;
    let wit2 = |first: Option<u32>| -> Vec<u32> {
        match first {
            Some(f) => vec![f, aid],
            None => vec![aid],
        }
    };

    // --- pre-state legality + spec prediction ---------------------------
    match access.kind {
        EventKind::Read { hit: true, .. } => match pre[p.idx()] {
            None => {
                diverged = true;
                report.push(
                    ViolationKind::HitWithoutCopy,
                    key,
                    format!("{access} hit, but no tracked copy of {ablock} is live"),
                    wit2(bt.last_access),
                );
            }
            Some(c) => {
                if let Some(poison) = c.stale {
                    report.push(
                        ViolationKind::StaleHit,
                        key,
                        format!("{access} hit a copy of {ablock} that survived a foreign write"),
                        vec![c.fill, poison, aid],
                    );
                }
            }
        },
        EventKind::ReadExcl { hit: true, .. } => match pre[p.idx()] {
            Some(c) if c.state != CopyState::Shared => {
                if let Some(poison) = c.stale {
                    report.push(
                        ViolationKind::StaleHit,
                        key,
                        format!("{access} hit a copy of {ablock} that survived a foreign write"),
                        vec![c.fill, poison, aid],
                    );
                }
            }
            _ => {
                diverged = true;
                report.push(
                    ViolationKind::HitWithoutCopy,
                    key,
                    format!("{access} hit, but {ablock} is not held exclusively"),
                    wit2(bt.last_access),
                );
            }
        },
        EventKind::Write {
            how: WriteHow::DirtyHit,
            ..
        } => match pre[p.idx()] {
            Some(c) if c.state == CopyState::Modified => {
                if let Some(poison) = c.stale {
                    report.push(
                        ViolationKind::StaleHit,
                        key,
                        format!("{access} hit a copy of {ablock} that survived a foreign write"),
                        vec![c.fill, poison, aid],
                    );
                }
            }
            _ => {
                diverged = true;
                report.push(
                    ViolationKind::HitWithoutCopy,
                    key,
                    format!("{access} dirty-hit, but {ablock} is not Modified here"),
                    wit2(bt.last_access),
                );
            }
        },
        EventKind::Write {
            how: WriteHow::Silent,
            ls,
            mig,
            ..
        } => {
            match pre[p.idx()] {
                Some(c) if matches!(c.state, CopyState::Excl | CopyState::ExclDirty) => {
                    if let Some(poison) = c.stale {
                        report.push(
                            ViolationKind::StaleHit,
                            key,
                            format!(
                                "{access} silently stored to a copy of {ablock} that \
                                 survived a foreign write"
                            ),
                            vec![c.fill, poison, aid],
                        );
                    }
                }
                _ => {
                    diverged = true;
                    report.push(
                        ViolationKind::SilentStore,
                        key,
                        format!(
                            "{access} completed silently, but {ablock} is not held \
                             exclusive-clean here"
                        ),
                        wit2(bt.last_access),
                    );
                }
            }
            mirror_write(bt, p, aid, ls, mig, key, report);
        }
        EventKind::Read {
            hit: false,
            grant,
            notls,
            ..
        } => {
            if grant == GrantKind::Exclusive {
                report.counts.excl_grants_checked += 1;
            }
            predict_read(
                cfg,
                scratch,
                bt,
                pre,
                p,
                aid,
                grant,
                notls,
                fx,
                key,
                report,
                &mut diverged,
            );
            // Protocol law, independent of the shadow directory: a
            // forwarded read from an owner that never wrote its exclusive
            // grant must report NotLS (under every protocol kind).
            if let Some((q, c)) = pre.iter().enumerate().find_map(|(q, c)| match c {
                Some(c) if c.state != CopyState::Shared && q != p.idx() => Some((q, *c)),
                _ => None,
            }) {
                let owner = NodeId(q as u16);
                let acted = fx.invals.iter().any(|&(v, _)| v == owner)
                    || fx.downgrades.iter().any(|&(v, _)| v == owner);
                if acted {
                    report.counts.notls_checked += 1;
                    let expect = matches!(c.state, CopyState::Excl | CopyState::ExclDirty);
                    if notls != expect {
                        diverged = true;
                        report.push(
                            ViolationKind::NotLsMismatch,
                            key,
                            format!(
                                "{access}: owner {owner}'s copy was {}written, so NotLS \
                                 must be {expect}, but the engine recorded {notls}",
                                if expect { "never " } else { "" }
                            ),
                            vec![c.fill, aid],
                        );
                    }
                }
            }
            bt.last = Some((p, true, aid));
        }
        EventKind::ReadExcl { hit: false, .. } => {
            report.counts.excl_grants_checked += 1;
            predict_acquire(
                cfg,
                scratch,
                bt,
                pre,
                p,
                aid,
                fx,
                key,
                report,
                &mut diverged,
            );
            // The oracle records a read-exclusive as the *read* of a
            // load-store sequence (the later silent store is the write).
            bt.last = Some((p, true, aid));
        }
        EventKind::Write {
            how: WriteHow::Global,
            ls,
            mig,
            ..
        } => {
            predict_acquire(
                cfg,
                scratch,
                bt,
                pre,
                p,
                aid,
                fx,
                key,
                report,
                &mut diverged,
            );
            mirror_write(bt, p, aid, ls, mig, key, report);
        }
        _ => {}
    }

    // NotLS legality: only an owner holding an unwritten exclusive copy may
    // report NotLS.
    for &(q, g) in &fx.notls {
        let ok = matches!(
            pre[q.idx()],
            Some(c) if matches!(c.state, CopyState::Excl | CopyState::ExclDirty)
        );
        if !ok {
            diverged = true;
            report.push(
                ViolationKind::SpuriousNotLs,
                key,
                format!("{q} reported NotLS for {ablock} without an unwritten exclusive copy"),
                vec![g, aid],
            );
        }
    }

    // --- apply the observed effects in log order ------------------------
    for &g in group {
        let e = &events[g as usize];
        match e.kind {
            EventKind::Fill { block, state } if block == ablock => {
                let q = e.proc.idx();
                if state != CopyState::Shared {
                    // SWMR: an exclusive install must stand alone; any
                    // survivor is now provably stale.
                    for (r, c) in copies.iter_mut().enumerate() {
                        if r == q {
                            continue;
                        }
                        if let Some(c) = c {
                            diverged = true;
                            report.push(
                                ViolationKind::Swmr,
                                key,
                                format!(
                                    "P{r}'s copy of {ablock} coexists with {}'s exclusive \
                                     install",
                                    e.proc
                                ),
                                vec![c.fill, g],
                            );
                            if c.stale.is_none() {
                                c.stale = Some(g);
                            }
                        }
                    }
                } else if let Some((r, c)) = exclusive_holder(copies) {
                    if r != q {
                        diverged = true;
                        report.push(
                            ViolationKind::Swmr,
                            key,
                            format!(
                                "{}'s shared install of {ablock} coexists with P{r}'s \
                                 exclusive copy",
                                e.proc
                            ),
                            vec![c.fill, g],
                        );
                    }
                }
                copies[q] = Some(Copy {
                    state,
                    fill: g,
                    stale: None,
                });
            }
            EventKind::Inval { block, .. } if block == ablock => {
                copies[e.proc.idx()] = None;
            }
            EventKind::Downgrade { block, .. } if block == ablock => {
                if let Some(c) = &mut copies[e.proc.idx()] {
                    c.state = CopyState::Shared;
                }
            }
            _ => {}
        }
    }

    // Access effect + staleness poisoning after writes.
    if let EventKind::Write { how, .. } = access.kind {
        if how == WriteHow::Silent {
            if let Some(c) = &mut copies[p.idx()] {
                c.state = CopyState::Modified;
            }
        }
        for (r, c) in copies.iter_mut().enumerate() {
            if r == p.idx() {
                continue;
            }
            if let Some(c) = c {
                if c.stale.is_none() {
                    diverged = true;
                    report.push(
                        ViolationKind::Swmr,
                        key,
                        format!("P{r}'s copy of {ablock} survived {p}'s write"),
                        vec![c.fill, aid],
                    );
                    c.stale = Some(aid);
                }
            }
        }
    }

    // Re-seat the shadow directory on the observed copy set after a
    // divergence, keeping the spec's tag/LR/vote heuristics.
    if diverged {
        match exclusive_holder(copies) {
            Some((q, _)) => {
                let owner = NodeId(q as u16);
                bt.entry.state = HomeState::Owned(owner);
                bt.entry.sharers = SharerSet::single(owner);
            }
            None => {
                let mut s = SharerSet::EMPTY;
                for (q, c) in copies.iter().enumerate() {
                    if c.is_some() {
                        s.insert(NodeId(q as u16));
                    }
                }
                bt.entry.state = if s.is_empty() {
                    HomeState::Uncached
                } else {
                    HomeState::Shared
                };
                bt.entry.sharers = s;
            }
        }
    }
    bt.last_access = Some(aid);
}

/// §2 mirror: check the oracle verdicts carried on a (global or silent)
/// write, then advance the mirror.
fn mirror_write(
    bt: &mut Block,
    p: NodeId,
    aid: u32,
    ls: bool,
    mig: bool,
    key: u64,
    report: &mut RaceReport,
) {
    let expect_ls = matches!(bt.last, Some((q, true, _)) if q == p);
    let expect_mig = expect_ls && matches!(bt.prev_seq, Some(q) if q != p);
    report.counts.ls_writes_checked += 1;
    if ls != expect_ls || mig != expect_mig {
        let witness = match bt.last {
            Some((_, _, e)) => vec![e, aid],
            None => vec![aid],
        };
        report.push(
            ViolationKind::LsDefinition,
            key,
            format!(
                "write by {p} recorded (ls={ls}, mig={mig}) but the §2 definition \
                 gives (ls={expect_ls}, mig={expect_mig})"
            ),
            witness,
        );
    }
    if expect_ls {
        bt.prev_seq = Some(p);
    }
    bt.last = Some((p, false, aid));
}

/// Spec prediction for a global read.
#[allow(clippy::too_many_arguments)]
fn predict_read(
    cfg: &ProtocolConfig,
    scratch: &mut DirStats,
    bt: &mut Block,
    pre: &[Option<Copy>],
    p: NodeId,
    aid: u32,
    grant: GrantKind,
    notls: bool,
    fx: &GroupFx,
    key: u64,
    report: &mut RaceReport,
    diverged: &mut bool,
) {
    match rules::read(cfg, scratch, &mut bt.entry, p) {
        ReadStep::Memory { grant: g, .. } => {
            if g != grant {
                *diverged = true;
                report.push(
                    ViolationKind::GrantMismatch,
                    key,
                    format!(
                        "read miss by {p}: spec grants {g:?} from memory, engine \
                         granted {grant:?}"
                    ),
                    match bt.last_access {
                        Some(f) => vec![f, aid],
                        None => vec![aid],
                    },
                );
            }
            if let Some(&(_, g0)) = fx.invals.first().or_else(|| fx.downgrades.first()) {
                *diverged = true;
                report.push(
                    ViolationKind::OwnerActionMismatch,
                    key,
                    format!("read miss by {p}: owner side effects on a memory-served read"),
                    vec![g0, aid],
                );
            }
            if notls {
                *diverged = true;
                report.push(
                    ViolationKind::NotLsMismatch,
                    key,
                    format!("read miss by {p}: NotLS flag on a memory-served read"),
                    vec![aid],
                );
            }
        }
        ReadStep::Forward { owner } => {
            let rep = pre[owner.idx()].and_then(|c| rules::owner_report(c.state));
            match rep {
                None => {
                    // Shadow thinks `owner` owns the block but no exclusive
                    // copy is tracked: a divergence already reported where
                    // it arose. Skip the comparison, resync below.
                    *diverged = true;
                }
                Some((wrote, dirty)) => {
                    let res =
                        rules::read_forward_result(cfg, scratch, &mut bt.entry, p, wrote, dirty);
                    if res.grant != grant {
                        *diverged = true;
                        report.push(
                            ViolationKind::GrantMismatch,
                            key,
                            format!(
                                "forwarded read by {p}: spec grants {:?}, engine \
                                 granted {grant:?}",
                                res.grant
                            ),
                            match bt.last_access {
                                Some(f) => vec![f, aid],
                                None => vec![aid],
                            },
                        );
                    }
                    if res.notls != notls {
                        *diverged = true;
                        report.push(
                            ViolationKind::NotLsMismatch,
                            key,
                            format!(
                                "forwarded read by {p}: spec says NotLS={}, engine \
                                 recorded {notls}",
                                res.notls
                            ),
                            match pre[owner.idx()] {
                                Some(c) => vec![c.fill, aid],
                                None => vec![aid],
                            },
                        );
                    }
                    let got_down = fx.downgrades.iter().any(|&(q, _)| q == owner);
                    let got_inv = fx.invals.iter().any(|&(q, _)| q == owner);
                    let ok = match res.owner_action {
                        OwnerAction::Downgrade => got_down,
                        OwnerAction::Invalidate => got_inv,
                    };
                    if !ok {
                        *diverged = true;
                        report.push(
                            ViolationKind::OwnerActionMismatch,
                            key,
                            format!(
                                "forwarded read by {p}: spec demands owner {owner} \
                                 {:?}, the log disagrees",
                                res.owner_action
                            ),
                            match pre[owner.idx()] {
                                Some(c) => vec![c.fill, aid],
                                None => vec![aid],
                            },
                        );
                    }
                }
            }
        }
    }
}

/// Spec prediction for an ownership acquisition (global write or
/// read-exclusive miss).
#[allow(clippy::too_many_arguments)]
fn predict_acquire(
    cfg: &ProtocolConfig,
    scratch: &mut DirStats,
    bt: &mut Block,
    pre: &[Option<Copy>],
    p: NodeId,
    aid: u32,
    fx: &GroupFx,
    key: u64,
    report: &mut RaceReport,
    diverged: &mut bool,
) {
    match rules::write(cfg, scratch, &mut bt.entry, p) {
        WriteStep::Memory { invalidate, .. } => {
            for v in invalidate.iter() {
                if !fx.invals.iter().any(|&(q, _)| q == v) {
                    *diverged = true;
                    report.push(
                        ViolationKind::MissingInval,
                        key,
                        format!(
                            "acquisition by {p}: spec invalidates {v}, but the log \
                             has no invalidation"
                        ),
                        match pre[v.idx()] {
                            Some(c) => vec![c.fill, aid],
                            None => vec![aid],
                        },
                    );
                }
            }
            for &(q, g) in &fx.invals {
                if !invalidate.contains(q) {
                    *diverged = true;
                    report.push(
                        ViolationKind::SpuriousInval,
                        key,
                        format!(
                            "acquisition by {p}: engine invalidated {q}, which the \
                             spec does not name"
                        ),
                        vec![g, aid],
                    );
                }
            }
        }
        WriteStep::Forward { owner } => {
            // The machine hands the *dirty* bit to the resolution (an
            // exclusive-dirty copy writes back like a modified one).
            let dirty = matches!(
                pre[owner.idx()].map(|c| c.state),
                Some(CopyState::Modified) | Some(CopyState::ExclDirty)
            );
            let _ = rules::write_forward_result(scratch, &mut bt.entry, p, dirty);
            if !fx.invals.iter().any(|&(q, _)| q == owner) {
                *diverged = true;
                report.push(
                    ViolationKind::MissingInval,
                    key,
                    format!(
                        "acquisition by {p}: spec invalidates owner {owner}, but the \
                         log has no invalidation"
                    ),
                    match pre[owner.idx()] {
                        Some(c) => vec![c.fill, aid],
                        None => vec![aid],
                    },
                );
            }
            for &(q, g) in &fx.invals {
                if q != owner {
                    *diverged = true;
                    report.push(
                        ViolationKind::SpuriousInval,
                        key,
                        format!(
                            "acquisition by {p}: engine invalidated {q}, which the \
                             spec does not name"
                        ),
                        vec![g, aid],
                    );
                }
            }
        }
    }
}
