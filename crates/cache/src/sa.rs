//! One level of set-associative cache (tags + states, LRU replacement).

use ccsim_types::{BlockAddr, CacheConfig};

/// Coherence state of a present cache line. Absent lines are Invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineState {
    /// Clean, possibly replicated in other caches.
    Shared,
    /// Exclusive clean: `LStemp` (LS protocol) or a migratory grant (AD).
    /// A local store silently promotes this to `Modified`. Memory is
    /// current; replacement needs no writeback.
    Excl,
    /// Exclusive *dirty* handoff: this cache received modified data
    /// directly from the previous owner (the migratory/LS transfer) and has
    /// not written it yet. Behaves like `Modified` for coherence (memory is
    /// stale, replacement writes back) but the anticipated first store is
    /// still pending — when it lands it completes silently and counts as an
    /// eliminated ownership acquisition.
    ExclDirty,
    /// Exclusive dirty, written by this processor.
    Modified,
}

impl LineState {
    /// Memory does not hold the current data; replacement must write back.
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::ExclDirty | LineState::Modified)
    }

    /// The line is held exclusively (a local store needs no global action).
    #[inline]
    pub fn is_exclusive(self) -> bool {
        !matches!(self, LineState::Shared)
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    block: BlockAddr,
    state: LineState,
    /// Tick of the last insert or touch; 0 marks an empty way (ticks start
    /// at 1). Ticks are unique, so the minimum picks one LRU victim.
    last_use: u64,
}

impl Line {
    const EMPTY: Line = Line {
        block: BlockAddr(0),
        state: LineState::Shared,
        last_use: 0,
    };

    #[inline]
    fn holds(&self, block: BlockAddr) -> bool {
        self.last_use != 0 && self.block == block
    }
}

/// A set-associative cache over block addresses.
///
/// The ways live in one fixed-stride slab, set `s` at
/// `lines[s * assoc .. (s + 1) * assoc]`, so building a cache is one
/// allocation and no operation allocates.
#[derive(Clone, Debug)]
pub struct Cache {
    lines: Box<[Line]>,
    assoc: usize,
    block_bytes: u64,
    /// `log2(block_bytes)` and `num_sets - 1`: the validated geometry is
    /// all powers of two, so the set index is a shift and a mask.
    block_shift: u32,
    set_mask: u64,
    tick: u64,
}

impl Cache {
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate().expect("invalid cache config");
        let num_sets = cfg.num_sets() as usize;
        let assoc = cfg.assoc as usize;
        Cache {
            lines: vec![Line::EMPTY; num_sets * assoc].into_boxed_slice(),
            assoc,
            block_bytes: cfg.block_bytes,
            block_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            tick: 0,
        }
    }

    /// Slab positions of the ways of `block`'s set.
    #[inline]
    fn ways(&self, block: BlockAddr) -> std::ops::Range<usize> {
        let si = ((block.0 >> self.block_shift) & self.set_mask) as usize;
        si * self.assoc..(si + 1) * self.assoc
    }

    #[inline]
    fn set(&self, block: BlockAddr) -> &[Line] {
        &self.lines[self.ways(block)]
    }

    #[inline]
    fn set_mut(&mut self, block: BlockAddr) -> &mut [Line] {
        let ways = self.ways(block);
        &mut self.lines[ways]
    }

    #[inline]
    fn find_mut(&mut self, block: BlockAddr) -> Option<&mut Line> {
        self.set_mut(block).iter_mut().find(|l| l.holds(block))
    }

    #[inline]
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// State of `block` if present; does not affect LRU order.
    pub fn peek(&self, block: BlockAddr) -> Option<LineState> {
        self.set(block)
            .iter()
            .find(|l| l.holds(block))
            .map(|l| l.state)
    }

    /// State of `block` if present, marking it most-recently-used.
    pub fn touch(&mut self, block: BlockAddr) -> Option<LineState> {
        let t = self.bump();
        self.find_mut(block).map(|l| {
            l.last_use = t;
            l.state
        })
    }

    /// Overwrite the state of a present line; returns false if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        match self.find_mut(block) {
            Some(l) => {
                l.state = state;
                true
            }
            None => false,
        }
    }

    /// Remove `block`; returns its state if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        self.find_mut(block).map(|l| {
            l.last_use = 0;
            l.state
        })
    }

    /// Insert `block` with `state`, evicting the LRU victim of the set when
    /// full. Returns the victim `(block, state)` if one was displaced.
    /// Inserting an already-present block just updates state + LRU.
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<(BlockAddr, LineState)> {
        let t = self.bump();
        let set = self.set_mut(block);
        if let Some(l) = set.iter_mut().find(|l| l.holds(block)) {
            l.state = state;
            l.last_use = t;
            return None;
        }
        // An empty way has `last_use == 0`, below every resident line, so
        // the minimum is an empty way whenever the set has one.
        let way = set
            .iter_mut()
            .min_by_key(|l| l.last_use)
            .expect("a set has at least one way");
        let victim = (way.last_use != 0).then_some((way.block, way.state));
        *way = Line {
            block,
            state,
            last_use: t,
        };
        victim
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over resident `(block, state)` pairs (test/diagnostic use).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.lines
            .iter()
            .filter(|l| l.last_use != 0)
            .map(|l| (l.block, l.state))
    }

    /// Block size this cache was built with.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::Addr;

    fn tiny() -> Cache {
        // 4 blocks total, 2-way, 16B lines -> 2 sets.
        Cache::new(&CacheConfig {
            size_bytes: 64,
            assoc: 2,
            block_bytes: 16,
            access_cycles: 1,
        })
    }

    fn blk(a: u64) -> BlockAddr {
        Addr(a).block(16)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.touch(blk(0)), None);
        assert_eq!(c.insert(blk(0), LineState::Shared), None);
        assert_eq!(c.touch(blk(0)), Some(LineState::Shared));
        assert_eq!(c.peek(blk(0)), Some(LineState::Shared));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds blocks whose (addr/16) is even: 0x00, 0x20, 0x40...
        c.insert(blk(0x00), LineState::Shared);
        c.insert(blk(0x20), LineState::Shared);
        // Touch 0x00 so 0x20 becomes LRU.
        c.touch(blk(0x00));
        let victim = c.insert(blk(0x40), LineState::Modified);
        assert_eq!(victim, Some((blk(0x20), LineState::Shared)));
        assert!(c.peek(blk(0x00)).is_some());
        assert!(c.peek(blk(0x20)).is_none());
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut c = tiny();
        c.insert(blk(0), LineState::Shared);
        assert_eq!(c.insert(blk(0), LineState::Modified), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(blk(0)), Some(LineState::Modified));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // 0x00 -> set 0; 0x10 -> set 1.
        c.insert(blk(0x00), LineState::Shared);
        c.insert(blk(0x20), LineState::Shared);
        c.insert(blk(0x10), LineState::Shared);
        c.insert(blk(0x30), LineState::Shared);
        assert_eq!(c.len(), 4);
        // Filling set 0 further does not evict set 1.
        c.insert(blk(0x40), LineState::Shared);
        assert!(c.peek(blk(0x10)).is_some());
        assert!(c.peek(blk(0x30)).is_some());
    }

    #[test]
    fn invalidate_returns_state() {
        let mut c = tiny();
        c.insert(blk(0), LineState::Modified);
        assert_eq!(c.invalidate(blk(0)), Some(LineState::Modified));
        assert_eq!(c.invalidate(blk(0)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn set_state_on_absent_line_is_false() {
        let mut c = tiny();
        assert!(!c.set_state(blk(0), LineState::Modified));
        c.insert(blk(0), LineState::Shared);
        assert!(c.set_state(blk(0), LineState::Excl));
        assert_eq!(c.peek(blk(0)), Some(LineState::Excl));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(&CacheConfig {
            size_bytes: 32,
            assoc: 1,
            block_bytes: 16,
            access_cycles: 1,
        });
        c.insert(blk(0x00), LineState::Shared);
        // 0x40 maps to the same set in a 2-set direct-mapped cache.
        let v = c.insert(blk(0x40), LineState::Shared);
        assert_eq!(v, Some((blk(0x00), LineState::Shared)));
    }

    #[test]
    fn iter_lists_residents() {
        let mut c = tiny();
        c.insert(blk(0x00), LineState::Shared);
        c.insert(blk(0x10), LineState::Excl);
        let mut got: Vec<_> = c.iter().collect();
        got.sort();
        assert_eq!(
            got,
            vec![(blk(0x00), LineState::Shared), (blk(0x10), LineState::Excl)]
        );
    }
}
