//! Property tests for the cache hierarchy (deterministic cases via
//! `ccsim_util::check`).

use ccsim_cache::{Cache, Hierarchy, LineState, Probe};
use ccsim_types::{Addr, BlockAddr, CacheConfig, MachineConfig, ProtocolKind};
use ccsim_util::check::{cases, Gen};

fn cfg(l1_blocks: u64, l2_blocks: u64, assoc: u32) -> MachineConfig {
    let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
    c.l1 = CacheConfig {
        size_bytes: l1_blocks * 16,
        assoc,
        block_bytes: 16,
        access_cycles: 1,
    };
    c.l2 = CacheConfig {
        size_bytes: l2_blocks * 16,
        assoc: 1,
        block_bytes: 16,
        access_cycles: 10,
    };
    c
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Probe(u8),
    FillS(u8),
    FillM(u8),
    FillX(u8),
    SetM(u8),
    Invalidate(u8),
}

fn op(g: &mut Gen) -> Op {
    let b = g.below(64) as u8;
    match g.below(6) {
        0 => Op::Probe(b),
        1 => Op::FillS(b),
        2 => Op::FillM(b),
        3 => Op::FillX(b),
        4 => Op::SetM(b),
        _ => Op::Invalidate(b),
    }
}

fn blk(b: u8) -> BlockAddr {
    Addr(b as u64 * 16).block(16)
}

/// Inclusion and state agreement hold under arbitrary operation sequences,
/// for several geometries including direct-mapped and set-associative L1s.
#[test]
fn hierarchy_invariants_hold() {
    cases(128, |g| {
        let c = match g.below(3) {
            0 => cfg(2, 8, 1),
            1 => cfg(4, 16, 2),
            _ => cfg(8, 8, 1), // L1 as big as L2
        };
        let n = g.urange(1, 300);
        let seq = g.vec(n, op);
        let mut h = Hierarchy::new(&c);
        for op in seq {
            match op {
                Op::Probe(b) => {
                    let before = h.state(blk(b));
                    let p = h.probe(blk(b));
                    // A probe never changes the coherence state.
                    assert_eq!(h.state(blk(b)), before);
                    assert_eq!(p.state(), before);
                }
                Op::FillS(b) => {
                    h.fill(blk(b), LineState::Shared);
                }
                Op::FillM(b) => {
                    h.fill(blk(b), LineState::Modified);
                }
                Op::FillX(b) => {
                    h.fill(blk(b), LineState::Excl);
                }
                Op::SetM(b) => {
                    let present = h.state(blk(b)).is_some();
                    assert_eq!(h.set_state(blk(b), LineState::Modified), present);
                }
                Op::Invalidate(b) => {
                    h.invalidate(blk(b));
                    assert_eq!(h.state(blk(b)), None);
                }
            }
            h.check_invariants().unwrap();
        }
    });
}

/// A filled block is immediately probeable with the state it was given, and
/// capacity never exceeds the configured number of blocks.
#[test]
fn fill_then_probe_and_capacity() {
    cases(128, |g| {
        let n = g.urange(1, 200);
        let seq = g.vec(n, |g| g.below(64) as u8);
        let c = cfg(2, 8, 1);
        let mut h = Hierarchy::new(&c);
        for b in seq {
            h.fill(blk(b), LineState::Shared);
            match h.probe(blk(b)) {
                Probe::L1(LineState::Shared) => {}
                other => panic!("expected L1 hit, got {other:?}"),
            }
            assert!(h.l2().len() <= 8);
            assert!(h.l1().len() <= 2);
        }
    });
}

/// An eviction reported by fill really is gone, and it is never the block
/// just filled.
#[test]
fn evictions_are_real() {
    cases(128, |g| {
        let n = g.urange(1, 200);
        let seq = g.vec(n, |g| (g.below(64) as u8, g.bool()));
        let c = cfg(2, 4, 1);
        let mut h = Hierarchy::new(&c);
        for (b, dirty) in seq {
            let st = if dirty {
                LineState::Modified
            } else {
                LineState::Shared
            };
            if let Some(ev) = h.fill(blk(b), st) {
                assert_ne!(ev.block, blk(b));
                assert_eq!(h.state(ev.block), None, "victim still resident");
            }
            assert_eq!(h.state(blk(b)), Some(st));
        }
    });
}

/// The cache as it stood before the ways moved into one slab: a vector per
/// set, `swap_remove` on invalidation and eviction, the victim the resident
/// line with the smallest tick.
struct RefCache {
    sets: Vec<Vec<(BlockAddr, LineState, u64)>>,
    assoc: usize,
    tick: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            assoc: cfg.assoc as usize,
            tick: 0,
        }
    }

    fn set(&mut self, b: BlockAddr) -> &mut Vec<(BlockAddr, LineState, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[((b.0 / 16) % n) as usize]
    }

    fn peek(&mut self, b: BlockAddr) -> Option<LineState> {
        self.set(b).iter().find(|l| l.0 == b).map(|l| l.1)
    }

    fn touch(&mut self, b: BlockAddr) -> Option<LineState> {
        self.tick += 1;
        let t = self.tick;
        self.set(b).iter_mut().find(|l| l.0 == b).map(|l| {
            l.2 = t;
            l.1
        })
    }

    fn set_state(&mut self, b: BlockAddr, st: LineState) -> bool {
        match self.set(b).iter_mut().find(|l| l.0 == b) {
            Some(l) => {
                l.1 = st;
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, b: BlockAddr) -> Option<LineState> {
        let set = self.set(b);
        let i = set.iter().position(|l| l.0 == b)?;
        Some(set.swap_remove(i).1)
    }

    fn insert(&mut self, b: BlockAddr, st: LineState) -> Option<(BlockAddr, LineState)> {
        self.tick += 1;
        let (t, assoc) = (self.tick, self.assoc);
        let set = self.set(b);
        if let Some(l) = set.iter_mut().find(|l| l.0 == b) {
            *l = (b, st, t);
            return None;
        }
        let victim = (set.len() == assoc).then(|| {
            let (vi, _) = set.iter().enumerate().min_by_key(|(_, l)| l.2).unwrap();
            let v = set.swap_remove(vi);
            (v.0, v.1)
        });
        set.push((b, st, t));
        victim
    }

    fn sorted(&self) -> Vec<(BlockAddr, LineState)> {
        let mut v: Vec<_> = self.sets.iter().flatten().map(|l| (l.0, l.1)).collect();
        v.sort();
        v
    }
}

const STATES: [LineState; 4] = [
    LineState::Shared,
    LineState::Excl,
    LineState::ExclDirty,
    LineState::Modified,
];

/// The slab cache returns what the per-set vectors returned, victims
/// included, and holds the same lines, under random operation sequences on
/// direct-mapped, 2-way, 4-way and fully associative geometries.
#[test]
fn slab_cache_matches_the_per_set_vectors() {
    let mut evictions = 0;
    for assoc in [1u32, 2, 4, 8] {
        // Eight 16-byte blocks; assoc 8 is one fully associative set.
        let cfg = CacheConfig {
            size_bytes: 8 * 16,
            assoc,
            block_bytes: 16,
            access_cycles: 1,
        };
        cases(128, |g| {
            let mut c = Cache::new(&cfg);
            let mut r = RefCache::new(&cfg);
            for _ in 0..g.urange(1, 400) {
                // Block 0 included: an empty way must never read as block 0.
                let b = blk(g.below(24) as u8);
                let st = *g.pick(&STATES);
                match g.below(5) {
                    0 => assert_eq!(c.peek(b), r.peek(b)),
                    1 => assert_eq!(c.touch(b), r.touch(b)),
                    2 => {
                        let (got, want) = (c.insert(b, st), r.insert(b, st));
                        evictions += u32::from(want.is_some());
                        assert_eq!(got, want, "assoc {assoc}: victim");
                    }
                    3 => assert_eq!(c.set_state(b, st), r.set_state(b, st)),
                    _ => assert_eq!(c.invalidate(b), r.invalidate(b)),
                }
                let mut got: Vec<_> = c.iter().collect();
                got.sort();
                assert_eq!(got, r.sorted(), "assoc {assoc}: residents");
                assert_eq!(c.len(), got.len());
            }
        });
    }
    assert!(evictions > 0);
}
