//! Ground-truth classifiers that run alongside the protocol.
//!
//! These observe *every* access the engine executes — including stores that
//! complete silently on exclusive-clean (`LStemp`) lines, which no real
//! directory could see — and produce the denominators and numerators of
//! Tables 2 and 3 plus the false-sharing classification of Table 4.

use ccsim_types::{BlockAddr, NodeId, MAX_NODES};
use ccsim_util::{json_record, Slab};

/// Which part of the workload issued an access — the paper's Table 2 splits
/// the OLTP workload into MySQL (application), system libraries, and the
/// operating system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// The application proper (MP3D/LU/Cholesky compute, the DBMS).
    App,
    /// Library code (allocators, string/buffer utilities).
    Lib,
    /// Operating-system code (scheduler, kernel locks).
    Os,
}

impl Component {
    pub const ALL: [Component; 3] = [Component::App, Component::Lib, Component::Os];

    pub fn label(self) -> &'static str {
        match self {
            Component::App => "App",
            Component::Lib => "Lib",
            Component::Os => "OS",
        }
    }
}

/// Per-component load-store/migratory occurrence and elimination counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentCounters {
    /// Global write actions — ownership acquisitions performed, **plus**
    /// stores completed silently on an exclusive-clean grant (which would
    /// have been global under the baseline protocol). This is the "all
    /// global write actions" denominator of Table 2.
    pub global_writes: u64,
    /// ...of which were part of an uninterrupted load-store sequence
    /// (global read, then this write, same node, no intervening global
    /// access from another node).
    pub ls_writes: u64,
    /// ...of which were migratory: a load-store sequence on a block whose
    /// previous load-store sequence came from a *different* node.
    pub migratory_writes: u64,
    /// Ownership acquisitions eliminated (store hit an exclusive-clean
    /// line) — any store.
    pub eliminated: u64,
    /// Eliminated stores that were load-store-sequence writes.
    pub eliminated_ls: u64,
    /// Eliminated stores that were migratory writes.
    pub eliminated_migratory: u64,
}

json_record!(ComponentCounters {
    global_writes,
    ls_writes,
    migratory_writes,
    eliminated,
    eliminated_ls,
    eliminated_migratory
});

impl ComponentCounters {
    fn merge(&mut self, o: &ComponentCounters) {
        self.global_writes += o.global_writes;
        self.ls_writes += o.ls_writes;
        self.migratory_writes += o.migratory_writes;
        self.eliminated += o.eliminated;
        self.eliminated_ls += o.eliminated_ls;
        self.eliminated_migratory += o.eliminated_migratory;
    }
}

/// Aggregated oracle statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    pub app: ComponentCounters,
    pub lib: ComponentCounters,
    pub os: ComponentCounters,
}

json_record!(OracleStats { app, lib, os });

impl OracleStats {
    pub fn component(&self, c: Component) -> &ComponentCounters {
        match c {
            Component::App => &self.app,
            Component::Lib => &self.lib,
            Component::Os => &self.os,
        }
    }

    fn component_mut(&mut self, c: Component) -> &mut ComponentCounters {
        match c {
            Component::App => &mut self.app,
            Component::Lib => &mut self.lib,
            Component::Os => &mut self.os,
        }
    }

    /// Totals over all components (Table 2's "Total" column).
    pub fn total(&self) -> ComponentCounters {
        let mut t = ComponentCounters::default();
        t.merge(&self.app);
        t.merge(&self.lib);
        t.merge(&self.os);
        t
    }

    /// Table 2 row 1: fraction of global writes in load-store sequences.
    pub fn ls_fraction(&self, c: Option<Component>) -> f64 {
        let k = c
            .map(|c| *self.component(c))
            .unwrap_or_else(|| self.total());
        if k.global_writes == 0 {
            0.0
        } else {
            k.ls_writes as f64 / k.global_writes as f64
        }
    }

    /// Table 2 row 2: fraction of load-store writes that are migratory.
    pub fn migratory_fraction(&self, c: Option<Component>) -> f64 {
        let k = c
            .map(|c| *self.component(c))
            .unwrap_or_else(|| self.total());
        if k.ls_writes == 0 {
            0.0
        } else {
            k.migratory_writes as f64 / k.ls_writes as f64
        }
    }

    /// Table 3 column 1: fraction of load-store writes whose ownership
    /// acquisition the running protocol eliminated.
    pub fn ls_coverage(&self) -> f64 {
        let t = self.total();
        if t.ls_writes == 0 {
            0.0
        } else {
            t.eliminated_ls as f64 / t.ls_writes as f64
        }
    }

    /// Table 3 column 2: fraction of migratory writes eliminated.
    pub fn migratory_coverage(&self) -> f64 {
        let t = self.total();
        if t.migratory_writes == 0 {
            0.0
        } else {
            t.eliminated_migratory as f64 / t.migratory_writes as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BlockTrack {
    /// Last *global* action on the block: node + was-it-a-read.
    last: Option<(NodeId, bool)>,
    /// Node that performed the previous completed load-store sequence.
    prev_seq_node: Option<NodeId>,
}

/// The load-store-sequence oracle (Tables 2 & 3).
///
/// Runs on every global action, so its per-block records live in a dense
/// [`Slab`] indexed by block index rather than a hash map.
pub struct LsOracle {
    block_bytes: u64,
    blocks: Slab<BlockTrack>,
    stats: OracleStats,
}

impl LsOracle {
    pub fn new(block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two() && block_bytes > 0);
        LsOracle {
            block_bytes,
            blocks: Slab::new(),
            stats: OracleStats::default(),
        }
    }

    fn track(&mut self, b: BlockAddr) -> &mut BlockTrack {
        self.blocks.entry((b.0 / self.block_bytes) as usize)
    }

    /// A global read action by `p` reached the home.
    pub fn global_read(&mut self, b: BlockAddr, p: NodeId) {
        self.track(b).last = Some((p, true));
    }

    /// A global-write-equivalent by `p`: either an ownership acquisition
    /// (`eliminated = false`) or a silent store to an exclusive-clean line
    /// (`eliminated = true`). Returns the verdict `(is_ls, is_migratory)`
    /// so the event log can record what the oracle decided.
    pub fn global_write(
        &mut self,
        b: BlockAddr,
        p: NodeId,
        comp: Component,
        eliminated: bool,
    ) -> (bool, bool) {
        let t = self.track(b);
        let is_ls = t.last == Some((p, true));
        let is_mig = is_ls && matches!(t.prev_seq_node, Some(q) if q != p);
        if is_ls {
            t.prev_seq_node = Some(p);
        }
        t.last = Some((p, false));
        let k = self.stats.component_mut(comp);
        k.global_writes += 1;
        if is_ls {
            k.ls_writes += 1;
        }
        if is_mig {
            k.migratory_writes += 1;
        }
        if eliminated {
            k.eliminated += 1;
            if is_ls {
                k.eliminated_ls += 1;
            }
            if is_mig {
                k.eliminated_migratory += 1;
            }
        }
        (is_ls, is_mig)
    }

    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }
}

/// Classification of global misses for Table 4.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FalseSharingStats {
    /// Misses to blocks the node never held or lost to replacement.
    pub cold_or_capacity: u64,
    /// Invalidation misses where the accessed word *was* written remotely
    /// since the copy was lost.
    pub true_sharing: u64,
    /// Invalidation misses where it was not — the communication was useless
    /// (Dubois et al.'s false-sharing misses).
    pub false_sharing: u64,
}

json_record!(FalseSharingStats {
    cold_or_capacity,
    true_sharing,
    false_sharing
});

impl FalseSharingStats {
    pub fn total_misses(&self) -> u64 {
        self.cold_or_capacity + self.true_sharing + self.false_sharing
    }

    /// Table 4: fraction of all data misses that are false-sharing misses.
    pub fn false_fraction(&self) -> f64 {
        let t = self.total_misses();
        if t == 0 {
            0.0
        } else {
            self.false_sharing as f64 / t as f64
        }
    }
}

/// Word-granularity false-sharing classifier (Table 4).
///
/// Approximation of Dubois et al.'s "useless misses": a miss caused by a
/// prior invalidation is *false* iff the word being accessed was not written
/// by any other node while the copy was away. (The full definition also
/// looks ahead to words touched during the new lifetime; the first-access
/// approximation is standard in protocol studies and errs conservatively in
/// the same direction for all three protocols.)
///
/// Runs on every store, so its state is two dense [`Slab`]s of plain words
/// and a store to a block no node has lost costs one load. `foreign[n]` is
/// cleared when bit `n` of `lost` is set and read only while it stays set,
/// so a store need only reach the nodes that have lost the block.
pub struct FalseSharing {
    nodes: usize,
    block_bytes: u64,
    /// Per block: bit `n` is set iff node `n`'s copy was taken away by an
    /// invalidation (as opposed to replaced for capacity/conflict reasons,
    /// or never held).
    lost: Slab<u64>,
    /// Per block and node, at `block * nodes + n`: the words written by
    /// other nodes since `n` lost its copy (meaningless unless `n` is set
    /// in `lost`).
    foreign: Slab<u64>,
    stats: FalseSharingStats,
}

/// `n`'s bit in a `lost` mask; zero for a node beyond [`MAX_NODES`], which
/// `MachineConfig::validate` rules out.
#[inline]
fn node_bit(n: NodeId) -> u64 {
    1u64.checked_shl(u32::from(n.0)).unwrap_or(0)
}

impl FalseSharing {
    pub fn new(nodes: u16, block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two() && block_bytes > 0);
        assert!(nodes <= MAX_NODES, "the lost mask is a full map");
        FalseSharing {
            nodes: nodes as usize,
            block_bytes,
            lost: Slab::new(),
            foreign: Slab::new(),
            stats: FalseSharingStats::default(),
        }
    }

    #[inline]
    fn index(&self, b: BlockAddr) -> usize {
        (b.0 / self.block_bytes) as usize
    }

    /// Every store (global or silent) by `writer` to `addr`.
    #[inline]
    pub fn on_store(&mut self, b: BlockAddr, addr: ccsim_types::Addr, writer: NodeId) {
        let bi = self.index(b);
        let mut pending = self.lost.load(bi) & !node_bit(writer);
        if pending == 0 {
            return;
        }
        let mask = b.word_mask(addr, self.block_bytes);
        let row = bi * self.nodes;
        while pending != 0 {
            let n = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            *self.foreign.entry(row + n) |= mask;
        }
    }

    /// `node`'s cached copy was invalidated by the coherence protocol.
    pub fn on_invalidated(&mut self, b: BlockAddr, node: NodeId) {
        let bi = self.index(b);
        *self.lost.entry(bi) |= node_bit(node);
        *self.foreign.entry(bi * self.nodes + node.idx()) = 0;
    }

    /// `node` replaced its copy for capacity/conflict reasons.
    pub fn on_replaced(&mut self, b: BlockAddr, node: NodeId) {
        self.forget(self.index(b), node);
    }

    /// `node` missed globally on `addr`; classify the miss.
    pub fn on_miss(&mut self, b: BlockAddr, addr: ccsim_types::Addr, node: NodeId) {
        let bi = self.index(b);
        if self.lost.load(bi) & node_bit(node) != 0 {
            let mask = b.word_mask(addr, self.block_bytes);
            if self.foreign.load(bi * self.nodes + node.idx()) & mask != 0 {
                self.stats.true_sharing += 1;
            } else {
                self.stats.false_sharing += 1;
            }
            self.forget(bi, node);
        } else {
            self.stats.cold_or_capacity += 1;
        }
    }

    /// Clear `node`'s lost bit for block `bi`, touching the slab only when
    /// the bit was set.
    fn forget(&mut self, bi: usize, node: NodeId) {
        let bit = node_bit(node);
        if self.lost.load(bi) & bit != 0 {
            *self.lost.entry(bi) &= !bit;
        }
    }

    pub fn stats(&self) -> &FalseSharingStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::Addr;

    const P0: NodeId = NodeId(0);
    const P1: NodeId = NodeId(1);

    fn blk(a: u64) -> BlockAddr {
        Addr(a).block(32)
    }

    #[test]
    fn single_load_store_sequence_detected() {
        let mut o = LsOracle::new(32);
        let b = blk(0);
        o.global_read(b, P0);
        o.global_write(b, P0, Component::App, false);
        let t = o.stats().total();
        assert_eq!(t.global_writes, 1);
        assert_eq!(t.ls_writes, 1);
        assert_eq!(
            t.migratory_writes, 0,
            "first sequence on a block is not migratory"
        );
    }

    #[test]
    fn migratory_requires_sequences_from_two_nodes() {
        let mut o = LsOracle::new(32);
        let b = blk(0);
        o.global_read(b, P0);
        o.global_write(b, P0, Component::App, false);
        o.global_read(b, P1);
        o.global_write(b, P1, Component::App, false);
        o.global_read(b, P0);
        o.global_write(b, P0, Component::App, false);
        let t = o.stats().total();
        assert_eq!(t.ls_writes, 3);
        assert_eq!(t.migratory_writes, 2);
        assert!((o.stats().migratory_fraction(None) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_sequences_by_same_node_not_migratory() {
        let mut o = LsOracle::new(32);
        let b = blk(0);
        for _ in 0..3 {
            o.global_read(b, P0);
            o.global_write(b, P0, Component::App, false);
        }
        let t = o.stats().total();
        assert_eq!(t.ls_writes, 3);
        assert_eq!(t.migratory_writes, 0);
    }

    #[test]
    fn intervening_foreign_read_breaks_sequence() {
        let mut o = LsOracle::new(32);
        let b = blk(0);
        o.global_read(b, P0);
        o.global_read(b, P1); // intervening
        o.global_write(b, P0, Component::App, false);
        assert_eq!(o.stats().total().ls_writes, 0);
    }

    #[test]
    fn intervening_foreign_write_breaks_sequence() {
        let mut o = LsOracle::new(32);
        let b = blk(0);
        o.global_read(b, P0);
        o.global_write(b, P1, Component::App, false); // intervening write
        o.global_write(b, P0, Component::App, false);
        let t = o.stats().total();
        assert_eq!(t.global_writes, 2);
        assert_eq!(t.ls_writes, 0);
    }

    #[test]
    fn write_write_by_same_node_is_not_load_store() {
        let mut o = LsOracle::new(32);
        let b = blk(0);
        o.global_write(b, P0, Component::App, false);
        o.global_write(b, P0, Component::App, false);
        assert_eq!(o.stats().total().ls_writes, 0);
    }

    #[test]
    fn coverage_fractions() {
        let mut o = LsOracle::new(32);
        let b = blk(0);
        // Two LS sequences; one eliminated.
        o.global_read(b, P0);
        o.global_write(b, P0, Component::App, true);
        o.global_read(b, P1);
        o.global_write(b, P1, Component::App, false);
        assert!((o.stats().ls_coverage() - 0.5).abs() < 1e-12);
        // The eliminated one was not migratory (first sequence); the second
        // was migratory but not eliminated.
        assert_eq!(o.stats().migratory_coverage(), 0.0);
    }

    #[test]
    fn component_attribution() {
        let mut o = LsOracle::new(32);
        o.global_read(blk(0), P0);
        o.global_write(blk(0), P0, Component::Os, false);
        o.global_write(blk(32), P1, Component::Lib, false);
        assert_eq!(o.stats().component(Component::Os).ls_writes, 1);
        assert_eq!(o.stats().component(Component::Lib).global_writes, 1);
        assert_eq!(o.stats().component(Component::App).global_writes, 0);
        assert_eq!(o.stats().total().global_writes, 2);
    }

    // ----- false sharing ---------------------------------------------------

    #[test]
    fn cold_miss_classified_cold() {
        let mut f = FalseSharing::new(2, 32);
        f.on_miss(blk(0), Addr(0), P0);
        assert_eq!(f.stats().cold_or_capacity, 1);
    }

    #[test]
    fn true_sharing_when_remote_wrote_the_accessed_word() {
        let mut f = FalseSharing::new(2, 32);
        let b = blk(0);
        f.on_miss(b, Addr(0), P0); // P0 brings it in (cold)
        f.on_invalidated(b, P0); // P1's write invalidates P0
        f.on_store(b, Addr(0), P1); // P1 writes word 0
        f.on_miss(b, Addr(0), P0); // P0 re-reads word 0 -> true sharing
        assert_eq!(f.stats().true_sharing, 1);
        assert_eq!(f.stats().false_sharing, 0);
    }

    #[test]
    fn false_sharing_when_remote_wrote_a_different_word() {
        let mut f = FalseSharing::new(2, 32);
        let b = blk(0);
        f.on_miss(b, Addr(0), P0);
        f.on_invalidated(b, P0);
        f.on_store(b, Addr(8), P1); // P1 writes word 1
        f.on_miss(b, Addr(0), P0); // P0 re-reads word 0 -> false sharing
        assert_eq!(f.stats().false_sharing, 1);
        assert!((f.stats().false_fraction() - 0.5).abs() < 1e-12); // 1 of 2 misses
    }

    #[test]
    fn capacity_replacement_is_not_a_coherence_miss() {
        let mut f = FalseSharing::new(2, 32);
        let b = blk(0);
        f.on_miss(b, Addr(0), P0);
        f.on_replaced(b, P0); // evicted, not invalidated
        f.on_store(b, Addr(0), P1);
        f.on_miss(b, Addr(0), P0);
        assert_eq!(f.stats().cold_or_capacity, 2);
    }

    #[test]
    fn own_stores_do_not_count_against_self() {
        let mut f = FalseSharing::new(2, 32);
        let b = blk(0);
        f.on_miss(b, Addr(0), P0);
        f.on_invalidated(b, P0);
        f.on_store(b, Addr(0), P0); // own store (e.g. after re-acquiring)
        f.on_miss(b, Addr(0), P0);
        assert_eq!(f.stats().false_sharing, 1);
    }

    #[test]
    fn refetch_resets_tracking() {
        let mut f = FalseSharing::new(2, 32);
        let b = blk(0);
        f.on_miss(b, Addr(0), P0);
        f.on_invalidated(b, P0);
        f.on_store(b, Addr(0), P1);
        f.on_miss(b, Addr(0), P0); // true sharing, resets
        f.on_miss(b, Addr(0), P0); // immediately again: cold/capacity bucket
        assert_eq!(f.stats().true_sharing, 1);
        assert_eq!(f.stats().cold_or_capacity, 2);
    }

    /// The per-block-vector tracker the gated one replaced: every store
    /// ORs its word into every other node's record.
    struct RefTracker {
        nodes: usize,
        block_bytes: u64,
        /// Per block: (foreign writes, lost by invalidation), per node.
        blocks: std::collections::HashMap<u64, (Vec<u64>, Vec<bool>)>,
        stats: FalseSharingStats,
    }

    impl RefTracker {
        fn block(&mut self, b: BlockAddr) -> &mut (Vec<u64>, Vec<bool>) {
            let n = self.nodes;
            self.blocks
                .entry(b.0)
                .or_insert_with(|| (vec![0; n], vec![false; n]))
        }

        fn on_store(&mut self, b: BlockAddr, addr: Addr, writer: NodeId) {
            let mask = b.word_mask(addr, self.block_bytes);
            let (foreign, _) = self.block(b);
            for (n, f) in foreign.iter_mut().enumerate() {
                if n != writer.idx() {
                    *f |= mask;
                }
            }
        }

        fn on_invalidated(&mut self, b: BlockAddr, node: NodeId) {
            let (foreign, lost) = self.block(b);
            lost[node.idx()] = true;
            foreign[node.idx()] = 0;
        }

        fn on_replaced(&mut self, b: BlockAddr, node: NodeId) {
            self.block(b).1[node.idx()] = false;
        }

        fn on_miss(&mut self, b: BlockAddr, addr: Addr, node: NodeId) {
            let mask = b.word_mask(addr, self.block_bytes);
            let (foreign, lost) = self.block(b);
            let class = if !lost[node.idx()] {
                &mut self.stats.cold_or_capacity
            } else if foreign[node.idx()] & mask != 0 {
                &mut self.stats.true_sharing
            } else {
                &mut self.stats.false_sharing
            };
            *class += 1;
            let (foreign, lost) = self.block(b);
            lost[node.idx()] = false;
            foreign[node.idx()] = 0;
        }
    }

    /// The gated tracker classifies every miss exactly as the per-block
    /// vectors did, under random event sequences over a few blocks.
    #[test]
    fn gated_tracker_matches_the_per_block_vectors() {
        let mut seen = FalseSharingStats::default();
        for nodes in [1u16, 4, 64] {
            ccsim_util::check::cases(64, |g| {
                let mut f = FalseSharing::new(nodes, 32);
                let mut r = RefTracker {
                    nodes: nodes as usize,
                    block_bytes: 32,
                    blocks: Default::default(),
                    stats: FalseSharingStats::default(),
                };
                for _ in 0..g.urange(1, 400) {
                    let addr = Addr(g.below(4 * 32) & !7);
                    let b = addr.block(32);
                    // Half the events come from the lowest and highest
                    // node, so large machines still revisit a few nodes.
                    let node = match g.below(4) {
                        0 => NodeId(0),
                        1 => NodeId(nodes - 1),
                        _ => NodeId(g.below(u64::from(nodes)) as u16),
                    };
                    match g.below(4) {
                        0 => {
                            f.on_store(b, addr, node);
                            r.on_store(b, addr, node);
                        }
                        1 => {
                            f.on_invalidated(b, node);
                            r.on_invalidated(b, node);
                        }
                        2 => {
                            f.on_replaced(b, node);
                            r.on_replaced(b, node);
                        }
                        _ => {
                            f.on_miss(b, addr, node);
                            r.on_miss(b, addr, node);
                        }
                    }
                    assert_eq!(*f.stats(), r.stats, "{nodes} nodes");
                }
                seen.true_sharing += r.stats.true_sharing;
                seen.false_sharing += r.stats.false_sharing;
            });
        }
        assert!(seen.true_sharing > 0 && seen.false_sharing > 0, "{seen:?}");
    }
}
