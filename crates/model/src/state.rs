//! The abstract machine state and its transition relation.
//!
//! One abstract state holds, per block, the home's [`DirEntry`] plus every
//! node's cached copy, and, per node, the remaining operation budget. A
//! transition is one *whole* coherence transaction — the concrete engine
//! executes each processor operation atomically against the directory
//! (request, forward, resolution and fill happen in one indivisible step),
//! so interleaving entire transactions explores exactly the serializations
//! the engine can produce.
//!
//! Data values are abstracted to per-block store counters: the `k`-th store
//! to a block writes the value `k`. A correct protocol must then satisfy,
//! in every reachable state:
//!
//! * every *dirty* copy holds the latest value (`golden`),
//! * every *clean* copy agrees with home memory,
//! * when no dirty copy exists, home memory holds `golden`,
//! * every load observes `golden` (the single-writer serialization makes
//!   the latest store the only legal value).
//!
//! Transition execution goes through [`ccsim_core::rules`] — the very
//! transition table the simulator runs — and every transition is checked
//! against the independent `check_*` postconditions plus the shared
//! [`copy_violations`] safety conditions.

use ccsim_core::rules::{self, AcquirePurpose, CopyState, LocalReadExcl, LocalStore, SafetyRule};
use ccsim_core::{DirEntry, DirStats, HomeState, ReadStep, SharerSet, WriteStep};
use ccsim_types::{BlockAddr, NodeId, ProtocolConfig, TransportMutation};

use crate::config::{ModelConfig, MAX_BLOCKS, MAX_NODES};

/// A cached copy: coherence state plus the abstract data value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyVal {
    pub state: CopyState,
    pub val: u8,
}

/// One block's view: home entry, all cached copies, memory value, and the
/// value of the globally latest store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockView {
    pub entry: DirEntry,
    pub copies: Vec<Option<CopyVal>>,
    pub mem: u8,
    pub golden: u8,
}

/// The operation alphabet of the abstract processors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Load a word of the block (local hit or global read).
    Load,
    /// Store to the block (dirty hit, silent store, or acquisition).
    Store,
    /// Read-exclusive (load with the static exclusive hint).
    LoadExcl,
    /// Replace the node's cached copy (enabled only while one exists).
    Evict,
    /// Ghost transport fault: the interconnect drops one message and the
    /// sender's timeout retransmits it. Because transitions are whole
    /// transactions (delivery eventually happens, in an order BFS already
    /// explores), this is a no-op on the coherence state — which is
    /// precisely the recovery-transport theorem being checked.
    Drop,
    /// Ghost transport fault: a stale duplicate of this node's completed
    /// global *read* is redelivered to the home. Receiver dedup suppresses
    /// it; under [`TransportMutation::SkipDedup`] it re-applies at the
    /// directory with no matching cache fill.
    DupLoad,
    /// Ghost transport fault: a stale duplicate of this node's completed
    /// global *write acquisition* is redelivered to the home.
    DupStore,
}

/// One transition: a node performs an operation on a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub node: NodeId,
    pub op: OpKind,
    pub block: u8,
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.op {
            OpKind::Load => "Load",
            OpKind::Store => "Store",
            OpKind::LoadExcl => "LoadExcl",
            OpKind::Evict => "Evict",
            OpKind::Drop => "Drop+retransmit",
            OpKind::DupLoad => "DupLoad",
            OpKind::DupStore => "DupStore",
        };
        write!(f, "P{} {op} B{}", self.node.0, self.block)
    }
}

/// A safety violation observed while executing one transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rule: SafetyRule,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule.label(), self.detail)
    }
}

/// The complete abstract state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsState {
    pub blocks: Vec<BlockView>,
    /// Remaining operations per node. Every transition consumes exactly
    /// one unit, so total budget strictly decreases — the explored system
    /// cannot livelock, and a state is terminal iff all budgets are zero.
    pub budget: Vec<u8>,
    /// Remaining transport faults (drops + duplicate redeliveries). Every
    /// ghost fault transition consumes one unit, keeping the space finite.
    pub faults_left: u8,
    /// Which (node, block) pairs have a completed global read whose stale
    /// duplicate could still be redelivered (bit `node * MAX_BLOCKS +
    /// block`).
    pub dup_reads: u32,
    /// Same for completed global write acquisitions.
    pub dup_writes: u32,
}

fn dup_bit(node: usize, block: u8) -> u32 {
    1 << (node as u32 * MAX_BLOCKS as u32 + block as u32)
}

/// [`CopyState`]s by their encoded byte (`state as u8`).
const COPY_STATES: [CopyState; 4] = [
    CopyState::Shared,
    CopyState::Excl,
    CopyState::ExclDirty,
    CopyState::Modified,
];

/// A cursor over one encoding, for [`AbsState::decode`].
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Nodes of the encoded state.
    nodes: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let b = *self
            .bytes
            .get(self.at)
            .unwrap_or_else(|| panic!("encoding ends at byte {}", self.at));
        self.at += 1;
        b
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes([self.byte(), self.byte(), self.byte(), self.byte()])
    }

    /// Node `n`, which must be one of the state's nodes.
    fn node(&self, n: u8) -> NodeId {
        let nodes = self.nodes;
        assert!(
            (n as usize) < nodes,
            "node {n} out of range for {nodes} nodes"
        );
        NodeId(n as u16)
    }

    /// An optional node reference: `0xFF` is `None`.
    fn opt_node(&mut self) -> Option<NodeId> {
        match self.byte() {
            0xFF => None,
            n => Some(self.node(n)),
        }
    }
}

impl AbsState {
    pub fn initial(cfg: &ModelConfig, pcfg: &ProtocolConfig) -> AbsState {
        AbsState {
            blocks: (0..cfg.blocks)
                .map(|_| BlockView {
                    entry: rules::fresh_entry(pcfg),
                    copies: vec![None; cfg.nodes as usize],
                    mem: 0,
                    golden: 0,
                })
                .collect(),
            budget: vec![cfg.max_ops; cfg.nodes as usize],
            faults_left: cfg.fault_budget,
            dup_reads: 0,
            dup_writes: 0,
        }
    }

    /// Length of every state's [`encode`](Self::encode)ing under `cfg`:
    /// per block 10 entry/value bytes plus a (state, value) pair per node,
    /// then the budgets, the fault budget and the two duplicate masks.
    pub fn encoded_len(cfg: &ModelConfig) -> usize {
        let nodes = cfg.nodes as usize;
        cfg.blocks as usize * (10 + 2 * nodes) + nodes + 9
    }

    /// Canonical byte encoding — the deduplication key of the visited set.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`encode`](Self::encode) into `out`, replacing its contents.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        for b in &self.blocks {
            let e = &b.entry;
            // DSI's tear-off fields are not encoded: the model rejects DSI,
            // so they keep their fresh values and decode restores those.
            assert!(
                !e.tear && e.tear_reads == 0,
                "tear-off state outside DSI: {e:?}"
            );
            let (tag, owner) = match e.state {
                HomeState::Uncached => (0u8, 0xFF),
                HomeState::Shared => (1, 0xFF),
                HomeState::Owned(o) => (2, o.0 as u8),
            };
            out.extend_from_slice(&[
                tag,
                owner,
                e.sharers.iter().fold(0u8, |m, n| m | (1 << n.0)),
                e.lr.map_or(0xFF, |n| n.0 as u8),
                e.tagged as u8,
                e.last_writer.map_or(0xFF, |n| n.0 as u8),
                e.tag_votes,
                e.detag_votes,
                b.mem,
                b.golden,
            ]);
            for c in &b.copies {
                match c {
                    None => out.extend_from_slice(&[0xFF, 0]),
                    Some(cv) => out.extend_from_slice(&[cv.state as u8, cv.val]),
                }
            }
        }
        out.extend_from_slice(&self.budget);
        let [r0, r1, r2, r3] = self.dup_reads.to_le_bytes();
        let [w0, w1, w2, w3] = self.dup_writes.to_le_bytes();
        out.extend_from_slice(&[self.faults_left, r0, r1, r2, r3, w0, w1, w2, w3]);
    }

    /// Overwrite `self` with the state `bytes` encodes — the exact inverse
    /// of [`encode`](Self::encode). `self` must already have the encoded
    /// state's shape (its node and block counts), as any state of the same
    /// [`ModelConfig`] does; then decoding allocates nothing. Bytes no
    /// encoding produces panic rather than decode to a guess.
    pub fn decode(&mut self, bytes: &[u8]) {
        let nodes = self.budget.len();
        let mut r = Reader {
            bytes,
            at: 0,
            nodes,
        };
        for b in &mut self.blocks {
            let (tag, owner) = (r.byte(), r.byte());
            let state = match (tag, owner) {
                (0, 0xFF) => HomeState::Uncached,
                (1, 0xFF) => HomeState::Shared,
                (2, o) => HomeState::Owned(r.node(o)),
                _ => panic!("bad home state encoding ({tag}, {owner})"),
            };
            let mask = r.byte();
            let mut sharers = SharerSet::EMPTY;
            for n in 0..u8::BITS as u8 {
                if mask & (1 << n) != 0 {
                    sharers.insert(r.node(n));
                }
            }
            let lr = r.opt_node();
            let tagged = match r.byte() {
                0 => false,
                1 => true,
                t => panic!("bad tag bit encoding {t}"),
            };
            b.entry = DirEntry {
                state,
                sharers,
                lr,
                tagged,
                last_writer: r.opt_node(),
                tag_votes: r.byte(),
                detag_votes: r.byte(),
                tear: false,
                tear_reads: 0,
            };
            b.mem = r.byte();
            b.golden = r.byte();
            assert_eq!(
                b.copies.len(),
                nodes,
                "blocks and budgets disagree on nodes"
            );
            for c in &mut b.copies {
                *c = match (r.byte(), r.byte()) {
                    (0xFF, 0) => None,
                    (s, val) => Some(CopyVal {
                        state: *COPY_STATES
                            .get(s as usize)
                            .unwrap_or_else(|| panic!("bad copy state encoding {s}")),
                        val,
                    }),
                };
            }
        }
        for left in &mut self.budget {
            *left = r.byte();
        }
        self.faults_left = r.byte();
        self.dup_reads = r.u32();
        self.dup_writes = r.u32();
        assert_eq!(r.at, bytes.len(), "encoding of another shape");
    }

    /// Overwrite `self` with `other`. Unlike `clone`, this reuses `self`'s
    /// buffers, so it allocates nothing once the two share a shape.
    pub fn copy_from(&mut self, other: &AbsState) {
        self.blocks.truncate(other.blocks.len());
        let kept = self.blocks.len();
        for (b, o) in self.blocks.iter_mut().zip(&other.blocks) {
            b.entry = o.entry;
            b.copies.clone_from(&o.copies);
            b.mem = o.mem;
            b.golden = o.golden;
        }
        self.blocks.extend_from_slice(&other.blocks[kept..]);
        self.budget.clone_from(&other.budget);
        self.faults_left = other.faults_left;
        self.dup_reads = other.dup_reads;
        self.dup_writes = other.dup_writes;
    }

    /// All transitions enabled in this state. `Load` is enabled whenever a
    /// node has budget, so a state is successor-free iff all budgets are
    /// exhausted — the explored system is deadlock-free by construction
    /// (asserted by the explorer).
    pub fn enabled_steps(&self, cfg: &ModelConfig) -> Vec<Step> {
        let mut steps = Vec::new();
        self.enabled_steps_into(cfg, &mut steps);
        steps
    }

    /// [`enabled_steps`](Self::enabled_steps) into `steps`, replacing its
    /// contents.
    pub fn enabled_steps_into(&self, cfg: &ModelConfig, steps: &mut Vec<Step>) {
        steps.clear();
        for (p, &left) in self.budget.iter().enumerate() {
            if left == 0 {
                continue;
            }
            let node = NodeId(p as u16);
            for block in 0..cfg.blocks {
                steps.push(Step {
                    node,
                    op: OpKind::Load,
                    block,
                });
                steps.push(Step {
                    node,
                    op: OpKind::Store,
                    block,
                });
                if cfg.load_excl {
                    steps.push(Step {
                        node,
                        op: OpKind::LoadExcl,
                        block,
                    });
                }
                if cfg.evictions && self.blocks[block as usize].copies[p].is_some() {
                    steps.push(Step {
                        node,
                        op: OpKind::Evict,
                        block,
                    });
                }
            }
        }
        if self.faults_left > 0 {
            // One Drop per state suffices: dropping any message and
            // retransmitting it yields the same successor regardless of
            // whose message it was.
            steps.push(Step {
                node: NodeId(0),
                op: OpKind::Drop,
                block: 0,
            });
            for p in 0..cfg.nodes as usize {
                let node = NodeId(p as u16);
                for block in 0..cfg.blocks {
                    // The directory front-end rejects (by assertion) a
                    // request from the current owner for its own block; the
                    // concrete NI holds such stale duplicates back, so the
                    // model does too.
                    let owned_by_p = matches!(
                        self.blocks[block as usize].entry.state,
                        HomeState::Owned(o) if o == node
                    );
                    if owned_by_p {
                        continue;
                    }
                    if self.dup_reads & dup_bit(p, block) != 0 {
                        steps.push(Step {
                            node,
                            op: OpKind::DupLoad,
                            block,
                        });
                    }
                    if self.dup_writes & dup_bit(p, block) != 0 {
                        steps.push(Step {
                            node,
                            op: OpKind::DupStore,
                            block,
                        });
                    }
                }
            }
        }
    }

    /// Execute one transition in place, returning every safety violation it
    /// exposes (empty = the step is clean). `stats` is a scratch counter
    /// sink for the shared rules; it is not part of the model state.
    pub fn apply(
        &mut self,
        cfg: &ModelConfig,
        pcfg: &ProtocolConfig,
        stats: &mut DirStats,
        step: Step,
    ) -> Vec<Violation> {
        let p = step.node;
        let pi = p.0 as usize;
        if matches!(step.op, OpKind::Drop | OpKind::DupLoad | OpKind::DupStore) {
            return self.apply_fault(cfg, pcfg, stats, step);
        }
        self.budget[pi] -= 1;
        let mut did_global_read = false;
        let mut did_global_write = false;
        let b = &mut self.blocks[step.block as usize];
        let mut out = Vec::new();
        let push = |out: &mut Vec<Violation>, rule: SafetyRule, detail: String| {
            out.push(Violation { rule, detail })
        };

        match step.op {
            OpKind::Load => {
                if let Some(c) = b.copies[pi] {
                    // Local hit: no directory interaction.
                    if c.val != b.golden {
                        push(
                            &mut out,
                            SafetyRule::DataValue,
                            format!(
                                "{p} load hit observed {} but the latest store wrote {}",
                                c.val, b.golden
                            ),
                        );
                    }
                } else {
                    did_global_read = true;
                    let pre = b.entry;
                    let rstep = rules::read(pcfg, stats, &mut b.entry, p);
                    match rstep {
                        ReadStep::Memory { grant, .. } => {
                            for d in rules::check_read_step(pcfg, &pre, &b.entry, p, &rstep) {
                                push(&mut out, SafetyRule::ProtocolRule, d);
                            }
                            let val = b.mem;
                            if let Some(s) = rules::read_fill_state(grant, false) {
                                b.copies[pi] = Some(CopyVal { state: s, val });
                            }
                            if val != b.golden {
                                push(
                                    &mut out,
                                    SafetyRule::DataValue,
                                    format!(
                                        "{p} read served {} from memory but the latest store wrote {}",
                                        val, b.golden
                                    ),
                                );
                            }
                        }
                        ReadStep::Forward { owner } => {
                            let oi = owner.0 as usize;
                            let report = b.copies[oi].and_then(|c| rules::owner_report(c.state));
                            let Some((wrote, dirty)) = report else {
                                push(
                                    &mut out,
                                    SafetyRule::StateAgreement,
                                    format!(
                                        "read forwarded to {owner} but its cache holds {:?}",
                                        b.copies[oi]
                                    ),
                                );
                                return out;
                            };
                            let val = b.copies[oi].unwrap().val;
                            let res = rules::read_forward_result(
                                pcfg,
                                stats,
                                &mut b.entry,
                                p,
                                wrote,
                                dirty,
                            );
                            for d in rules::check_read_resolution(
                                pcfg, &pre, &b.entry, p, wrote, dirty, &res,
                            ) {
                                push(&mut out, SafetyRule::ProtocolRule, d);
                            }
                            if res.sharing_writeback {
                                b.mem = val;
                            }
                            match rules::owner_next_state(res.owner_action) {
                                Some(s) => {
                                    if let Some(c) = &mut b.copies[oi] {
                                        c.state = s;
                                    }
                                }
                                None => b.copies[oi] = None,
                            }
                            let fill = rules::read_fill_state(res.grant, res.requester_dirty)
                                .expect("forwarded reads never grant tear-off");
                            b.copies[pi] = Some(CopyVal { state: fill, val });
                            if val != b.golden {
                                push(
                                    &mut out,
                                    SafetyRule::DataValue,
                                    format!(
                                        "{p} read served {val} from {owner} but the latest store wrote {}",
                                        b.golden
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            OpKind::Store => {
                // DirtyHit and Silent complete locally — the silent store
                // (Excl/ExclDirty promoting to Modified with no global
                // action) is the ownership overhead LS exists to remove.
                if let LocalStore::Acquire { .. } =
                    rules::store_probe(b.copies[pi].map(|c| c.state))
                {
                    did_global_write = true;
                    let pre = b.entry;
                    match global_acquire(pcfg, stats, b, p) {
                        Ok(_) => {
                            for d in rules::check_write_transaction(pcfg, &pre, &b.entry, p) {
                                push(&mut out, SafetyRule::ProtocolRule, d);
                            }
                        }
                        Err(v) => {
                            out.push(v);
                            return out;
                        }
                    }
                }
                b.golden = b.golden.wrapping_add(1);
                b.copies[pi] = Some(CopyVal {
                    state: CopyState::Modified,
                    val: b.golden,
                });
            }
            OpKind::LoadExcl => match rules::read_exclusive_probe(b.copies[pi].map(|c| c.state)) {
                LocalReadExcl::Hit => {
                    let c = b.copies[pi].expect("exclusive hit implies a copy");
                    if c.val != b.golden {
                        push(
                            &mut out,
                            SafetyRule::DataValue,
                            format!(
                                "{p} read-exclusive hit observed {} but the latest store wrote {}",
                                c.val, b.golden
                            ),
                        );
                    }
                }
                LocalReadExcl::Acquire { .. } => {
                    did_global_write = true;
                    let pre = b.entry;
                    let (val, data_dirty) = match global_acquire(pcfg, stats, b, p) {
                        Ok(v) => v,
                        Err(v) => {
                            out.push(v);
                            return out;
                        }
                    };
                    for d in rules::check_write_transaction(pcfg, &pre, &b.entry, p) {
                        push(&mut out, SafetyRule::ProtocolRule, d);
                    }
                    let state =
                        rules::acquire_final_state(AcquirePurpose::ReadExclusive, data_dirty);
                    b.copies[pi] = Some(CopyVal { state, val });
                    if val != b.golden {
                        push(
                            &mut out,
                            SafetyRule::DataValue,
                            format!(
                                "{p} read-exclusive served {val} but the latest store wrote {}",
                                b.golden
                            ),
                        );
                    }
                }
            },
            OpKind::Evict => {
                let c = b.copies[pi].expect("Evict is only enabled while a copy exists");
                if c.state.is_dirty() {
                    b.mem = c.val;
                }
                b.copies[pi] = None;
                let pre = b.entry;
                rules::replacement(pcfg, stats, &mut b.entry, p);
                for d in rules::check_replacement(pcfg, Some(&pre), Some(&b.entry), p) {
                    push(&mut out, SafetyRule::ProtocolRule, d);
                }
            }
            OpKind::Drop | OpKind::DupLoad | OpKind::DupStore => {
                unreachable!("ghost fault steps are dispatched to apply_fault")
            }
        }

        if cfg.fault_budget > 0 {
            if did_global_read {
                self.dup_reads |= dup_bit(pi, step.block);
            }
            if did_global_write {
                self.dup_writes |= dup_bit(pi, step.block);
            }
        }
        out.extend(self.global_violations(pcfg));
        out
    }

    /// Execute one ghost transport-fault transition. A [`OpKind::Drop`] is
    /// absorbed by retransmission; a duplicate redelivery is suppressed by
    /// receiver dedup unless [`TransportMutation::SkipDedup`] is seeded, in
    /// which case the home re-applies the stale request with no matching
    /// cache fill — the requester discards the response (stale transaction
    /// id), so only the directory side moves.
    fn apply_fault(
        &mut self,
        cfg: &ModelConfig,
        pcfg: &ProtocolConfig,
        stats: &mut DirStats,
        step: Step,
    ) -> Vec<Violation> {
        self.faults_left -= 1;
        if step.op == OpKind::Drop {
            return Vec::new();
        }
        let p = step.node;
        let bit = dup_bit(p.0 as usize, step.block);
        if step.op == OpKind::DupLoad {
            self.dup_reads &= !bit;
        } else {
            self.dup_writes &= !bit;
        }
        let mut out = Vec::new();
        if matches!(cfg.transport_mutation, Some(TransportMutation::SkipDedup)) {
            let b = &mut self.blocks[step.block as usize];
            if step.op == OpKind::DupLoad {
                match rules::read(pcfg, stats, &mut b.entry, p) {
                    ReadStep::Memory { .. } => {}
                    ReadStep::Forward { owner } => {
                        let report =
                            b.copies[owner.0 as usize].and_then(|c| rules::owner_report(c.state));
                        match report {
                            Some((wrote, dirty)) => {
                                let _ = rules::read_forward_result(
                                    pcfg,
                                    stats,
                                    &mut b.entry,
                                    p,
                                    wrote,
                                    dirty,
                                );
                            }
                            None => out.push(Violation {
                                rule: SafetyRule::StateAgreement,
                                detail: format!(
                                    "stale duplicate read forwarded to {owner} but its cache \
holds no ownable copy"
                                ),
                            }),
                        }
                    }
                }
            } else {
                match rules::write(pcfg, stats, &mut b.entry, p) {
                    WriteStep::Memory { .. } => {}
                    WriteStep::Forward { owner } => {
                        let modified = matches!(
                            b.copies[owner.0 as usize],
                            Some(c) if c.state == CopyState::Modified
                        );
                        rules::write_forward_result(stats, &mut b.entry, p, modified);
                    }
                }
            }
        }
        out.extend(self.global_violations(pcfg));
        out
    }

    /// The per-state safety conditions: SWMR, directory/cache agreement,
    /// entry consistency, and the data-value abstraction's laws.
    pub fn global_violations(&self, pcfg: &ProtocolConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            let baddr = BlockAddr(bi as u64 * 16);
            let mut holders = [(NodeId(0), CopyState::Shared); MAX_NODES as usize];
            let mut held = 0;
            for (n, c) in b.copies.iter().enumerate() {
                if let Some(c) = c {
                    holders[held] = (NodeId(n as u16), c.state);
                    held += 1;
                }
            }
            let holders = &holders[..held];
            for (rule, detail) in rules::copy_violations(pcfg.kind, baddr, Some(&b.entry), holders)
            {
                out.push(Violation { rule, detail });
            }
            let mut any_dirty = false;
            for (n, c) in b.copies.iter().enumerate() {
                let Some(c) = c else { continue };
                if c.state.is_dirty() {
                    any_dirty = true;
                    if c.val != b.golden {
                        out.push(Violation {
                            rule: SafetyRule::DataValue,
                            detail: format!(
                                "B{bi}: dirty copy at P{n} holds {} but the latest store wrote {}",
                                c.val, b.golden
                            ),
                        });
                    }
                } else if c.val != b.mem {
                    out.push(Violation {
                        rule: SafetyRule::DataValue,
                        detail: format!(
                            "B{bi}: clean copy at P{n} holds {} but memory holds {}",
                            c.val, b.mem
                        ),
                    });
                }
            }
            if !any_dirty && b.mem != b.golden {
                out.push(Violation {
                    rule: SafetyRule::DataValue,
                    detail: format!(
                        "B{bi}: no dirty copy anywhere but memory holds {} and the latest store wrote {}",
                        b.mem, b.golden
                    ),
                });
            }
        }
        out
    }
}

/// The shared home-side acquisition path: returns `(data_value, data_was_dirty)`
/// of the data handed to the requester, applying invalidations and owner
/// invalidation to the copies.
fn global_acquire(
    pcfg: &ProtocolConfig,
    stats: &mut DirStats,
    b: &mut BlockView,
    p: NodeId,
) -> Result<(u8, bool), Violation> {
    let pi = p.0 as usize;
    let own_val = b.copies[pi].map(|c| c.val);
    match rules::write(pcfg, stats, &mut b.entry, p) {
        WriteStep::Memory { invalidate, .. } => {
            for n in invalidate.iter() {
                b.copies[n.0 as usize] = None;
            }
            // Data comes from the requester's own shared copy on an
            // upgrade, from home memory on a miss; both are clean.
            Ok((own_val.unwrap_or(b.mem), false))
        }
        WriteStep::Forward { owner } => {
            let oi = owner.0 as usize;
            let Some(oc) = b.copies[oi] else {
                return Err(Violation {
                    rule: SafetyRule::StateAgreement,
                    detail: format!("write forwarded to {owner} but its cache has no copy"),
                });
            };
            if oc.state == CopyState::Shared {
                return Err(Violation {
                    rule: SafetyRule::StateAgreement,
                    detail: format!("write forwarded to {owner} but its copy is only Shared"),
                });
            }
            rules::write_forward_result(stats, &mut b.entry, p, oc.state == CopyState::Modified);
            b.copies[oi] = None;
            Ok((oc.val, oc.state.is_dirty()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::ProtocolKind;

    fn setup(kind: ProtocolKind) -> (ModelConfig, ProtocolConfig, AbsState, DirStats) {
        let cfg = ModelConfig::new(kind);
        let pcfg = cfg.protocol().unwrap();
        let st = AbsState::initial(&cfg, &pcfg);
        (cfg, pcfg, st, DirStats::default())
    }

    #[test]
    fn a_clean_ls_cycle_produces_no_violations() {
        let (cfg, pcfg, mut st, mut stats) = setup(ProtocolKind::Ls);
        let p0 = NodeId(0);
        let p1 = NodeId(1);
        for step in [
            Step {
                node: p0,
                op: OpKind::Load,
                block: 0,
            },
            Step {
                node: p0,
                op: OpKind::Store,
                block: 0,
            },
            Step {
                node: p1,
                op: OpKind::Load,
                block: 0,
            },
            Step {
                node: p1,
                op: OpKind::Store,
                block: 0,
            },
        ] {
            let v = st.apply(&cfg, &pcfg, &mut stats, step);
            assert!(v.is_empty(), "{step}: {v:?}");
        }
        // The migratory chain left P1 the owner with the latest value.
        assert_eq!(
            st.blocks[0].copies[1],
            Some(CopyVal {
                state: CopyState::Modified,
                val: 2
            })
        );
        assert!(st.blocks[0].entry.tagged, "read→write pairs set the LS-bit");
    }

    #[test]
    fn every_step_consumes_budget_and_load_is_always_enabled() {
        let (cfg, pcfg, mut st, mut stats) = setup(ProtocolKind::Baseline);
        let total = |s: &AbsState| s.budget.iter().map(|&b| b as u32).sum::<u32>();
        let mut left = total(&st);
        while left > 0 {
            let steps = st.enabled_steps(&cfg);
            assert!(!steps.is_empty(), "budget left but no step enabled");
            let v = st.apply(&cfg, &pcfg, &mut stats, steps[0]);
            assert!(v.is_empty());
            assert_eq!(total(&st), left - 1);
            left -= 1;
        }
        assert!(st.enabled_steps(&cfg).is_empty());
    }

    #[test]
    fn encoding_distinguishes_states_and_is_stable() {
        let (cfg, pcfg, mut st, mut stats) = setup(ProtocolKind::Ls);
        let init = st.encode();
        assert_eq!(
            init,
            AbsState::initial(&ModelConfig::new(ProtocolKind::Ls), &pcfg).encode()
        );
        st.apply(
            &cfg,
            &pcfg,
            &mut stats,
            Step {
                node: NodeId(0),
                op: OpKind::Load,
                block: 0,
            },
        );
        assert_ne!(st.encode(), init);
    }

    #[test]
    fn a_tampered_state_is_flagged() {
        let (cfg, pcfg, mut st, mut stats) = setup(ProtocolKind::Baseline);
        st.apply(
            &cfg,
            &pcfg,
            &mut stats,
            Step {
                node: NodeId(0),
                op: OpKind::Store,
                block: 0,
            },
        );
        // Inject a stale shared copy behind the directory's back.
        st.blocks[0].copies[1] = Some(CopyVal {
            state: CopyState::Shared,
            val: 0,
        });
        let v = st.global_violations(&pcfg);
        assert!(v.iter().any(|v| v.rule == SafetyRule::Swmr), "{v:?}");
    }
}
