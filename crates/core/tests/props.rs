//! Property tests: the directory, driven by arbitrary legal operation
//! sequences, must stay consistent with a mirror of every node's cache state.
//!
//! The mirror applies transaction outcomes exactly as the simulation engine
//! would (grants fill lines, owner actions downgrade/invalidate, silent
//! writes promote `X` to `M` without telling the home) and asserts after
//! every step:
//!
//! * the directory's sharer set equals the set of nodes holding a copy;
//! * `Owned` at home ⇔ exactly one holder, in state `X` or `M`;
//! * `Shared` at home ⇔ all holders in state `S`;
//! * Baseline never tags and never grants exclusively;
//! * every entry passes its internal consistency check.

use ccsim_core::{Directory, GrantKind, HomeState, OwnerAction, ReadStep, WriteStep};
use ccsim_types::{Addr, BlockAddr, NodeId, ProtocolConfig, ProtocolKind};
use ccsim_util::check::{cases, Gen};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MirrorState {
    S,
    /// Exclusive clean grant (LStemp), unwritten.
    X,
    /// Exclusive dirty handoff, unwritten by the new owner.
    Xd,
    M,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Read { node: u16, block: u8 },
    Write { node: u16, block: u8 },
    Evict { node: u16, block: u8 },
}

fn gen_op(g: &mut Gen, nodes: u16, blocks: u8) -> Op {
    let node = g.below(nodes as u64) as u16;
    let block = g.below(blocks as u64) as u8;
    match g.below(3) {
        0 => Op::Read { node, block },
        1 => Op::Write { node, block },
        _ => Op::Evict { node, block },
    }
}

fn gen_ops(g: &mut Gen, nodes: u16, blocks: u8, max_len: usize) -> Vec<Op> {
    let n = g.urange(1, max_len);
    g.vec(n, |g| gen_op(g, nodes, blocks))
}

struct Harness {
    dir: Directory,
    /// block -> node -> cached state
    mirror: HashMap<BlockAddr, HashMap<NodeId, MirrorState>>,
    exclusive_grants_seen: u64,
}

impl Harness {
    fn new(kind: ProtocolKind) -> Self {
        Harness {
            dir: Directory::new(ProtocolConfig::new(kind)),
            mirror: HashMap::new(),
            exclusive_grants_seen: 0,
        }
    }

    fn holders(&mut self, b: BlockAddr) -> &mut HashMap<NodeId, MirrorState> {
        self.mirror.entry(b).or_default()
    }

    fn read(&mut self, b: BlockAddr, p: NodeId) {
        let held = self.holders(b).get(&p).copied();
        if held.is_some() {
            return; // cache hit: no global action
        }
        match self.dir.read(b, p) {
            ReadStep::Memory { grant, .. } => {
                match grant {
                    GrantKind::Shared => {
                        self.holders(b).insert(p, MirrorState::S);
                    }
                    GrantKind::Exclusive => {
                        self.exclusive_grants_seen += 1;
                        // An exclusive grant from memory can only happen when
                        // nobody else holds the block.
                        assert!(self.holders(b).is_empty());
                        self.holders(b).insert(p, MirrorState::X);
                    }
                    // DSI tear-off: nothing cached, nothing registered.
                    GrantKind::TearOff => {}
                }
            }
            ReadStep::Forward { owner } => {
                let owner_state = *self
                    .holders(b)
                    .get(&owner)
                    .expect("directory forwarded to a non-holder");
                assert_ne!(
                    owner_state,
                    MirrorState::S,
                    "forward target must hold X or M"
                );
                let owner_wrote = owner_state == MirrorState::M;
                let owner_dirty = matches!(owner_state, MirrorState::M | MirrorState::Xd);
                let r = self.dir.read_forward_result(b, p, owner_wrote, owner_dirty);
                if !owner_wrote {
                    assert!(r.notls, "unwritten grant must trigger NotLS/revert");
                    assert_eq!(
                        r.sharing_writeback, owner_dirty,
                        "home refresh needed exactly when the handed-off data was dirty"
                    );
                }
                match r.owner_action {
                    OwnerAction::Downgrade => {
                        self.holders(b).insert(owner, MirrorState::S);
                    }
                    OwnerAction::Invalidate => {
                        self.holders(b).remove(&owner);
                    }
                }
                let st = match (r.grant, r.requester_dirty) {
                    (GrantKind::Shared, false) => MirrorState::S,
                    (GrantKind::Exclusive, true) => MirrorState::Xd,
                    (GrantKind::Exclusive, false) => MirrorState::X,
                    (GrantKind::Shared, true) => panic!("dirty shared grant"),
                    (GrantKind::TearOff, _) => panic!("forwarded reads never grant tear-off"),
                };
                if r.grant == GrantKind::Exclusive {
                    self.exclusive_grants_seen += 1;
                    assert_eq!(r.owner_action, OwnerAction::Invalidate);
                }
                self.holders(b).insert(p, st);
            }
        }
    }

    fn write(&mut self, b: BlockAddr, p: NodeId) {
        match self.holders(b).get(&p).copied() {
            Some(MirrorState::M) => {} // silent
            Some(MirrorState::X | MirrorState::Xd) => {
                // The optimization: store completes locally.
                self.holders(b).insert(p, MirrorState::M);
            }
            Some(MirrorState::S) | None => {
                match self.dir.write(b, p) {
                    WriteStep::Memory {
                        invalidate,
                        data_needed,
                    } => {
                        assert_eq!(
                            data_needed,
                            self.holders(b).get(&p).is_none(),
                            "data needed iff requester held no copy"
                        );
                        for v in invalidate.iter() {
                            let st = self.holders(b).remove(&v);
                            assert_eq!(st, Some(MirrorState::S), "invalidated a non-sharer");
                        }
                        // Everyone else must be gone now.
                        let left: Vec<_> = self
                            .holders(b)
                            .keys()
                            .copied()
                            .filter(|&n| n != p)
                            .collect();
                        assert!(
                            left.is_empty(),
                            "sharers survived an invalidation: {left:?}"
                        );
                        self.holders(b).insert(p, MirrorState::M);
                    }
                    WriteStep::Forward { owner } => {
                        let st = *self.holders(b).get(&owner).expect("forward to non-holder");
                        assert_ne!(st, MirrorState::S);
                        let dirty = matches!(st, MirrorState::M | MirrorState::Xd);
                        self.dir.write_forward_result(b, p, dirty);
                        self.holders(b).remove(&owner);
                        self.holders(b).insert(p, MirrorState::M);
                    }
                }
            }
        }
    }

    fn evict(&mut self, b: BlockAddr, p: NodeId) {
        if self.holders(b).remove(&p).is_some() {
            self.dir.replacement(b, p);
        }
    }

    fn check(&self, b: BlockAddr) {
        self.dir.check_invariants().unwrap();
        let holders = self.mirror.get(&b).cloned().unwrap_or_default();
        match self.dir.entry(b).map(|e| e.state) {
            None | Some(HomeState::Uncached) => {
                assert!(
                    holders.is_empty(),
                    "{b}: home Uncached but holders {holders:?}"
                );
            }
            Some(HomeState::Shared) => {
                assert!(!holders.is_empty());
                let e = self.dir.entry(b).unwrap();
                assert_eq!(e.sharers.len() as usize, holders.len());
                for (n, st) in &holders {
                    assert!(
                        e.sharers.contains(*n),
                        "{b}: mirror holder {n} not in sharer set"
                    );
                    assert_eq!(*st, MirrorState::S, "{b}: Shared home but holder in {st:?}");
                }
            }
            Some(HomeState::Owned(o)) => {
                assert_eq!(holders.len(), 1, "{b}: Owned but {holders:?}");
                let (n, st) = holders.iter().next().unwrap();
                assert_eq!(*n, o);
                assert_ne!(*st, MirrorState::S, "{b}: owner holds a shared copy");
            }
        }
    }
}

fn run_ops(kind: ProtocolKind, ops: &[Op]) -> Harness {
    let mut h = Harness::new(kind);
    for op in ops {
        let (node, block) = match *op {
            Op::Read { node, block } | Op::Write { node, block } | Op::Evict { node, block } => {
                (NodeId(node), Addr(block as u64 * 64).block(64))
            }
        };
        match op {
            Op::Read { .. } => h.read(block, node),
            Op::Write { .. } => h.write(block, node),
            Op::Evict { .. } => h.evict(block, node),
        }
        h.check(block);
    }
    h
}

#[test]
fn baseline_consistent_under_random_ops() {
    cases(256, |g| {
        let ops = gen_ops(g, 4, 4, 200);
        let h = run_ops(ProtocolKind::Baseline, &ops);
        assert_eq!(h.exclusive_grants_seen, 0);
        assert_eq!(h.dir.stats().exclusive_grants, 0);
        assert_eq!(h.dir.stats().tag_events, 0);
    });
}

#[test]
fn ls_consistent_under_random_ops() {
    cases(256, |g| {
        let ops = gen_ops(g, 4, 4, 200);
        let h = run_ops(ProtocolKind::Ls, &ops);
        assert_eq!(h.exclusive_grants_seen, h.dir.stats().exclusive_grants);
    });
}

#[test]
fn ad_consistent_under_random_ops() {
    cases(256, |g| {
        let ops = gen_ops(g, 4, 4, 200);
        let h = run_ops(ProtocolKind::Ad, &ops);
        assert_eq!(h.exclusive_grants_seen, h.dir.stats().exclusive_grants);
    });
}

#[test]
fn ls_consistent_with_more_nodes() {
    cases(256, |g| {
        let ops = gen_ops(g, 32, 3, 150);
        run_ops(ProtocolKind::Ls, &ops);
    });
}

/// LS must remove at least as many ownership acquisitions as Baseline on
/// any access sequence: every ownership acquisition Baseline avoids
/// (cache-state reuse) LS avoids too, plus those removed by exclusive
/// grants. We assert the weaker, always-true form: for the identical op
/// sequence, LS performs no *more* ownership acquisitions than Baseline.
#[test]
fn ls_never_acquires_more_ownership_than_baseline() {
    cases(256, |g| {
        let ops = gen_ops(g, 4, 4, 200);
        let b = run_ops(ProtocolKind::Baseline, &ops);
        let l = run_ops(ProtocolKind::Ls, &ops);
        assert!(
            l.dir.stats().ownership_acquisitions() <= b.dir.stats().ownership_acquisitions(),
            "LS {} > Baseline {}",
            l.dir.stats().ownership_acquisitions(),
            b.dir.stats().ownership_acquisitions()
        );
    });
}

/// DSI stays consistent under random ops, and tear-off grants never
/// register sharers.
#[test]
fn dsi_consistent_under_random_ops() {
    cases(256, |g| {
        let ops = gen_ops(g, 4, 4, 200);
        let h = run_ops(ProtocolKind::Dsi, &ops);
        assert_eq!(
            h.dir.stats().exclusive_grants,
            0,
            "DSI never grants exclusively"
        );
        assert_eq!(h.dir.stats().tag_events, 0);
    });
}

/// Tag/de-tag event counters stay balanced: a block can only be de-tagged
/// after being tagged (within one less; default-tagged off).
#[test]
fn ls_detags_never_exceed_tags() {
    cases(256, |g| {
        let ops = gen_ops(g, 4, 4, 200);
        let h = run_ops(ProtocolKind::Ls, &ops);
        assert!(h.dir.stats().detag_events <= h.dir.stats().tag_events);
    });
}
