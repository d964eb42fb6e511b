//! Pass 2: static analysis of access traces (`ccsim analyze`).
//!
//! Two analyses share one O(events) pass over a captured [`Trace`], with no
//! timing, network, or thread machinery involved:
//!
//! 1. **Paper-taxonomy classifier** — an idealized infinite-cache pass over
//!    the access stream labels every block with its sharing pattern
//!    (private, read-shared, producer-consumer, load-store, migratory — the
//!    latter a strict subset of load-store — plus an orthogonal
//!    false-sharing-candidate label from per-node word footprints) and
//!    counts the stream's inherent global actions. These depend only on the
//!    access stream, not on cache geometry or protocol.
//!
//! 2. **Exact coherence replay** — a timing-free re-execution of the
//!    engine's coherence orchestration (same `Hierarchy`, `Directory`,
//!    `ccsim_core::rules`, `LsOracle`, and `FalseSharing`, called in the
//!    same order as `Machine::{load,write,load_exclusive}`, minus all
//!    latency/network/invariant logic). Trace events are recorded in
//!    execution order under the engine lock, so replaying them in order
//!    reproduces the exact coherence-operation sequence: the resulting
//!    LS-oracle, silent-store, and directory counters equal the capturing
//!    run's bit for bit. This is the independent cross-check of the
//!    engine's LS counters, and `ls_writes` from it is the static upper
//!    bound on ownership transactions the LS protocol can eliminate for
//!    this trace and geometry (`eliminated_ls <= ls_writes` always).
//!
//! Faults, NACKs, retries, and busy-block bounces affect only timing in the
//! engine, never coherence state or oracle counts, so omitting them keeps
//! the replay exact.

use ccsim_cache::{Hierarchy, LineState, Probe};
use ccsim_core::rules::{self, LocalReadExcl, LocalStore};
use ccsim_core::{DirStats, Directory, ReadStep, WriteStep};
use ccsim_engine::invariants::{copy_state, line_state};
use ccsim_engine::oracle::{FalseSharing, LsOracle};
use ccsim_engine::{Component, Trace, TraceOp};
use ccsim_mem::pages;
use ccsim_stats::AnalysisSummary;
use ccsim_types::{Addr, BlockAddr, MachineConfig, NodeId};
use ccsim_util::FxHashMap;

/// Why the replay asks the home for ownership (mirrors the engine's private
/// `Acquire` enum).
#[derive(Clone, Copy)]
enum Acq {
    Store(Component),
    ReadExclusive,
}

/// Timing-free mirror of the engine's coherence orchestration.
struct Replay {
    cfg: MachineConfig,
    caches: Vec<Hierarchy>,
    dirs: Vec<Directory>,
    oracle: LsOracle,
    fs: FalseSharing,
    silent_stores: u64,
}

impl Replay {
    fn new(cfg: MachineConfig) -> Replay {
        Replay {
            caches: (0..cfg.nodes).map(|_| Hierarchy::new(&cfg)).collect(),
            dirs: (0..cfg.nodes)
                .map(|_| Directory::new(cfg.protocol))
                .collect(),
            oracle: LsOracle::new(cfg.block_bytes()),
            fs: FalseSharing::new(cfg.nodes, cfg.block_bytes()),
            silent_stores: 0,
            cfg,
        }
    }

    fn home(&self, addr: Addr) -> NodeId {
        pages::home_node(addr, self.cfg.page_bytes, self.cfg.nodes)
    }

    /// Mirror of `Machine::fill`: install a block, resolve the L2 victim.
    fn fill(&mut self, p: NodeId, block: BlockAddr, state: LineState) {
        if let Some(ev) = self.caches[p.idx()].fill(block, state) {
            let vhome = self.home(ev.block.addr());
            self.dirs[vhome.idx()].replacement(ev.block, p);
            self.fs.on_replaced(ev.block, p);
        }
    }

    /// Mirror of `Machine::owner_state`.
    fn owner_state(&self, owner: NodeId, block: BlockAddr) -> (bool, bool) {
        let copy = self.caches[owner.idx()].state(block);
        copy.and_then(|s| rules::owner_report(copy_state(s)))
            .unwrap_or_else(|| {
                panic!("directory believes {owner} owns {block}, cache says {copy:?}")
            })
    }

    /// Mirror of `Machine::load` (the coherence-visible part).
    fn load(&mut self, p: NodeId, addr: Addr) {
        let block = addr.block(self.cfg.block_bytes());
        match self.caches[p.idx()].probe(block) {
            Probe::L1(_) | Probe::L2(_) => {}
            Probe::Miss => self.global_read(p, addr, block),
        }
    }

    /// Mirror of `Machine::global_read`.
    fn global_read(&mut self, p: NodeId, addr: Addr, block: BlockAddr) {
        let home = self.home(addr);
        self.oracle.global_read(block, p);
        self.fs.on_miss(block, addr, p);
        match self.dirs[home.idx()].read(block, p) {
            ReadStep::Memory { grant, .. } => {
                // Memory data is clean; `None` is the DSI tear-off grant —
                // data consumed without caching.
                if let Some(s) = rules::read_fill_state(grant, false) {
                    self.fill(p, block, line_state(s));
                }
            }
            ReadStep::Forward { owner } => {
                let (wrote, dirty) = self.owner_state(owner, block);
                let res = self.dirs[home.idx()].read_forward_result(block, p, wrote, dirty);
                match rules::owner_next_state(res.owner_action) {
                    Some(s) => {
                        self.caches[owner.idx()].set_state(block, line_state(s));
                    }
                    None => {
                        self.caches[owner.idx()].invalidate(block);
                        self.fs.on_invalidated(block, owner);
                    }
                }
                let state = rules::read_fill_state(res.grant, res.requester_dirty)
                    // ccsim-lint: allow(unwrap): same invariant the engine relies on — forwarded reads never grant tear-off
                    .expect("forwarded reads never grant tear-off");
                self.fill(p, block, line_state(state));
            }
        }
    }

    /// Mirror of `Machine::write` (the coherence-visible part).
    fn store(&mut self, p: NodeId, addr: Addr, comp: Component) {
        let block = addr.block(self.cfg.block_bytes());
        self.fs.on_store(block, addr, p);
        let copy = match self.caches[p.idx()].probe(block) {
            Probe::L1(s) | Probe::L2(s) => Some(copy_state(s)),
            Probe::Miss => None,
        };
        match rules::store_probe(copy) {
            LocalStore::DirtyHit => {}
            LocalStore::Silent => {
                self.silent_stores += 1;
                self.caches[p.idx()].set_state(block, LineState::Modified);
                self.oracle.global_write(block, p, comp, true);
            }
            LocalStore::Acquire { has_copy } => {
                self.global_acquire(p, addr, block, has_copy, Acq::Store(comp));
            }
        }
    }

    /// Mirror of `Machine::load_exclusive` (the coherence-visible part).
    fn load_exclusive(&mut self, p: NodeId, addr: Addr) {
        let block = addr.block(self.cfg.block_bytes());
        let copy = match self.caches[p.idx()].probe(block) {
            Probe::L1(s) | Probe::L2(s) => Some(copy_state(s)),
            Probe::Miss => None,
        };
        match rules::read_exclusive_probe(copy) {
            LocalReadExcl::Hit => {}
            LocalReadExcl::Acquire { has_copy } => {
                self.global_acquire(p, addr, block, has_copy, Acq::ReadExclusive);
            }
        }
    }

    /// Mirror of `Machine::global_acquire`.
    fn global_acquire(
        &mut self,
        p: NodeId,
        addr: Addr,
        block: BlockAddr,
        has_copy: bool,
        purpose: Acq,
    ) {
        let home = self.home(addr);
        match purpose {
            Acq::Store(comp) => {
                self.oracle.global_write(block, p, comp, false);
            }
            Acq::ReadExclusive => self.oracle.global_read(block, p),
        }
        let mut data_dirty = false;
        match self.dirs[home.idx()].write(block, p) {
            WriteStep::Memory {
                invalidate,
                data_needed,
            } => {
                if data_needed {
                    self.fs.on_miss(block, addr, p);
                }
                for s in invalidate.iter() {
                    self.caches[s.idx()].invalidate(block);
                    self.fs.on_invalidated(block, s);
                }
            }
            WriteStep::Forward { owner } => {
                let (_, dirty) = self.owner_state(owner, block);
                data_dirty = dirty;
                self.dirs[home.idx()].write_forward_result(block, p, dirty);
                self.caches[owner.idx()].invalidate(block);
                self.fs.on_invalidated(block, owner);
                self.fs.on_miss(block, addr, p);
            }
        }
        let acq = match purpose {
            Acq::Store(_) => rules::AcquirePurpose::Store,
            Acq::ReadExclusive => rules::AcquirePurpose::ReadExclusive,
        };
        let final_state = line_state(rules::acquire_final_state(acq, data_dirty));
        if has_copy {
            self.caches[p.idx()].set_state(block, final_state);
        } else {
            self.fill(p, block, final_state);
        }
    }

    fn dir_stats(&self) -> DirStats {
        let mut s = DirStats::default();
        for d in &self.dirs {
            s.merge(d.stats());
        }
        s
    }
}

/// Per-block observation state for the idealized (infinite-cache) pass.
struct BlockObs {
    /// Per node: word-footprint masks (stores count as accesses too).
    accessed_words: Vec<u64>,
    written_words: Vec<u64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// Idealized MESI: clean sharers + at most one owner (`dirty = false`
    /// is the exclusive-clean state a load-exclusive installs).
    sharers: Vec<bool>,
    owner: Option<(usize, bool)>,
    /// Idealized LS oracle (same update rules as `LsOracle`).
    last: Option<(usize, bool)>,
    prev_seq: Option<usize>,
    ls_writes: u64,
    migratory_writes: u64,
}

impl BlockObs {
    fn new(nodes: usize) -> BlockObs {
        BlockObs {
            accessed_words: vec![0; nodes],
            written_words: vec![0; nodes],
            reads: vec![0; nodes],
            writes: vec![0; nodes],
            sharers: vec![false; nodes],
            owner: None,
            last: None,
            prev_seq: None,
            ls_writes: 0,
            migratory_writes: 0,
        }
    }

    fn holds(&self, p: usize) -> bool {
        self.sharers[p] || matches!(self.owner, Some((q, _)) if q == p)
    }
}

/// Aggregate counters of the idealized pass.
#[derive(Default)]
struct IdealTotals {
    global_reads: u64,
    global_writes: u64,
    ls_writes: u64,
    migratory_writes: u64,
}

struct Ideal {
    nodes: usize,
    block_bytes: u64,
    blocks: FxHashMap<BlockAddr, BlockObs>,
    totals: IdealTotals,
}

impl Ideal {
    fn new(nodes: usize, block_bytes: u64) -> Ideal {
        Ideal {
            nodes,
            block_bytes,
            blocks: FxHashMap::default(),
            totals: IdealTotals::default(),
        }
    }

    /// `LsOracle::global_read` over the idealized action stream.
    fn ideal_read(obs: &mut BlockObs, totals: &mut IdealTotals, p: usize) {
        totals.global_reads += 1;
        obs.last = Some((p, true));
    }

    /// `LsOracle::global_write` over the idealized action stream.
    fn ideal_write(obs: &mut BlockObs, totals: &mut IdealTotals, p: usize) {
        let is_ls = obs.last == Some((p, true));
        let is_mig = is_ls && matches!(obs.prev_seq, Some(q) if q != p);
        if is_ls {
            obs.prev_seq = Some(p);
            obs.ls_writes += 1;
            totals.ls_writes += 1;
        }
        if is_mig {
            obs.migratory_writes += 1;
            totals.migratory_writes += 1;
        }
        obs.last = Some((p, false));
        totals.global_writes += 1;
    }

    fn load(&mut self, p: usize, addr: Addr) {
        let b = addr.block(self.block_bytes);
        let mask = b.word_mask(addr, self.block_bytes);
        let totals = &mut self.totals;
        let n = self.nodes;
        let obs = self.blocks.entry(b).or_insert_with(|| BlockObs::new(n));
        obs.accessed_words[p] |= mask;
        obs.reads[p] += 1;
        if !obs.holds(p) {
            Self::ideal_read(obs, totals, p);
            if let Some((q, _)) = obs.owner.take() {
                obs.sharers[q] = true;
            }
            obs.sharers[p] = true;
        }
    }

    fn store(&mut self, p: usize, addr: Addr) {
        let b = addr.block(self.block_bytes);
        let mask = b.word_mask(addr, self.block_bytes);
        let totals = &mut self.totals;
        let n = self.nodes;
        let obs = self.blocks.entry(b).or_insert_with(|| BlockObs::new(n));
        obs.accessed_words[p] |= mask;
        obs.written_words[p] |= mask;
        obs.writes[p] += 1;
        match obs.owner {
            Some((q, true)) if q == p => {} // local dirty hit
            _ => {
                // Exclusive-clean owner stores count as global write actions
                // too (the eliminated acquisition), like the engine oracle.
                Self::ideal_write(obs, totals, p);
                obs.sharers.iter_mut().for_each(|s| *s = false);
                obs.owner = Some((p, true));
            }
        }
    }

    fn load_exclusive(&mut self, p: usize, addr: Addr) {
        let b = addr.block(self.block_bytes);
        let mask = b.word_mask(addr, self.block_bytes);
        let totals = &mut self.totals;
        let n = self.nodes;
        let obs = self.blocks.entry(b).or_insert_with(|| BlockObs::new(n));
        obs.accessed_words[p] |= mask;
        obs.reads[p] += 1;
        match obs.owner {
            Some((q, _)) if q == p => {} // already exclusive
            _ => {
                Self::ideal_read(obs, totals, p);
                obs.sharers.iter_mut().for_each(|s| *s = false);
                obs.owner = Some((p, false));
            }
        }
    }
}

/// Pattern labels aggregated over all blocks.
#[derive(Default)]
struct PatternCounts {
    private: u64,
    read_shared: u64,
    producer_consumer: u64,
    load_store: u64,
    migratory: u64,
    irregular: u64,
    false_sharing_candidates: u64,
}

fn classify(blocks: &FxHashMap<BlockAddr, BlockObs>) -> PatternCounts {
    let mut c = PatternCounts::default();
    for obs in blocks.values() {
        let accessors: Vec<usize> = (0..obs.reads.len())
            .filter(|&n| obs.reads[n] + obs.writes[n] > 0)
            .collect();
        let writers = accessors.iter().filter(|&&n| obs.writes[n] > 0).count();
        if accessors.len() <= 1 {
            c.private += 1;
        } else if writers == 0 {
            c.read_shared += 1;
        } else if obs.ls_writes > 0 {
            // Load-store block; migratory is the strict subset whose
            // sequences move between processors.
            c.load_store += 1;
            if obs.migratory_writes > 0 {
                c.migratory += 1;
            }
        } else if writers == 1 {
            c.producer_consumer += 1;
        } else {
            c.irregular += 1;
        }
        // Orthogonal: written and foreign-accessed word footprints are
        // disjoint — all coherence on this block is per-word useless at
        // this block size.
        if accessors.len() >= 2 && writers >= 1 {
            let disjoint = accessors.iter().all(|&a| {
                accessors
                    .iter()
                    .all(|&b| a == b || obs.written_words[a] & obs.accessed_words[b] == 0)
            });
            if disjoint {
                c.false_sharing_candidates += 1;
            }
        }
    }
    c
}

/// Analyze a captured trace under a machine geometry/protocol. The exact
/// counters in the result match what the engine reports when (re)playing
/// the same trace under the same config.
pub fn analyze(cfg: &MachineConfig, trace: &Trace) -> Result<AnalysisSummary, String> {
    cfg.validate()?;
    if cfg.nodes < trace.procs() {
        return Err(format!(
            "trace uses {} processors, machine has {}",
            trace.procs(),
            cfg.nodes
        ));
    }
    let mut replay = Replay::new(*cfg);
    let mut ideal = Ideal::new(cfg.nodes as usize, cfg.block_bytes());
    let mut comp = vec![Component::App; trace.procs() as usize];
    let mut accesses = 0u64;
    for e in trace.events() {
        let p = e.proc as usize;
        let id = NodeId(e.proc);
        match e.op {
            TraceOp::Load(a) => {
                accesses += 1;
                ideal.load(p, a);
                replay.load(id, a);
            }
            TraceOp::Store(a, _) => {
                accesses += 1;
                ideal.store(p, a);
                replay.store(id, a, comp[p]);
            }
            TraceOp::LoadExclusive(a) => {
                accesses += 1;
                ideal.load_exclusive(p, a);
                replay.load_exclusive(id, a);
            }
            TraceOp::Busy(_) => {}
            TraceOp::SetComponent(c) => comp[p] = c,
        }
    }
    let patterns = classify(&ideal.blocks);
    let oracle = replay.oracle.stats().total();
    let dir = replay.dir_stats();
    Ok(AnalysisSummary {
        protocol: cfg.protocol.kind.label().to_string(),
        nodes: cfg.nodes,
        block_bytes: cfg.block_bytes(),
        events: trace.len() as u64,
        accesses,
        blocks: ideal.blocks.len() as u64,
        private_blocks: patterns.private,
        read_shared_blocks: patterns.read_shared,
        producer_consumer_blocks: patterns.producer_consumer,
        load_store_blocks: patterns.load_store,
        migratory_blocks: patterns.migratory,
        irregular_blocks: patterns.irregular,
        false_sharing_candidates: patterns.false_sharing_candidates,
        ideal_global_reads: ideal.totals.global_reads,
        ideal_global_writes: ideal.totals.global_writes,
        ideal_ls_writes: ideal.totals.ls_writes,
        ideal_migratory_writes: ideal.totals.migratory_writes,
        global_reads: dir.global_reads,
        global_writes: oracle.global_writes,
        ls_writes: oracle.ls_writes,
        migratory_writes: oracle.migratory_writes,
        eliminated: oracle.eliminated,
        eliminated_ls: oracle.eliminated_ls,
        eliminated_migratory: oracle.eliminated_migratory,
        silent_stores: replay.silent_stores,
        ls_upper_bound: oracle.ls_writes,
        false_sharing_fraction: replay.fs.stats().false_fraction(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_engine::{replay, Trace, TraceEvent};
    use ccsim_types::ProtocolKind;

    fn cfg(kind: ProtocolKind) -> MachineConfig {
        MachineConfig::splash_baseline(kind)
    }

    fn ev(proc: u16, op: TraceOp) -> TraceEvent {
        TraceEvent { proc, op }
    }

    fn trace(procs: u16, events: Vec<TraceEvent>) -> Trace {
        Trace::from_events(procs, events).expect("valid test trace")
    }

    /// Addresses far enough apart to live on distinct blocks at any of the
    /// standard geometries.
    fn a(i: u64) -> Addr {
        Addr(i * 4096)
    }

    #[test]
    fn exact_counters_match_engine_on_a_toy_trace() {
        // P0 runs two LS sequences on block 0; P1 interleaves one on the
        // same block (migratory hand-off); block 1 is read-shared.
        let t = trace(
            2,
            vec![
                ev(0, TraceOp::Load(a(0))),
                ev(0, TraceOp::Store(a(0), 1)),
                ev(1, TraceOp::Load(a(0))),
                ev(1, TraceOp::Store(a(0), 2)),
                ev(0, TraceOp::Load(a(0))),
                ev(0, TraceOp::Store(a(0), 3)),
                ev(0, TraceOp::Load(a(1))),
                ev(1, TraceOp::Load(a(1))),
            ],
        );
        for kind in [ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls] {
            let c = cfg(kind);
            let engine = replay(c, &t, &[]);
            let s = analyze(&c, &t).unwrap();
            let o = engine.oracle.total();
            assert_eq!(s.global_writes, o.global_writes, "{kind:?}");
            assert_eq!(s.ls_writes, o.ls_writes, "{kind:?}");
            assert_eq!(s.migratory_writes, o.migratory_writes, "{kind:?}");
            assert_eq!(s.eliminated, o.eliminated, "{kind:?}");
            assert_eq!(s.eliminated_ls, o.eliminated_ls, "{kind:?}");
            assert_eq!(s.silent_stores, engine.machine.silent_stores, "{kind:?}");
            assert_eq!(s.global_reads, engine.dir.global_reads, "{kind:?}");
            assert!(s.eliminated_ls <= s.ls_upper_bound, "{kind:?}");
        }
    }

    #[test]
    fn ideal_counts_see_through_finite_caches() {
        // All three sequences are LS in the stream; under the idealized
        // infinite cache nothing is ever replaced.
        let t = trace(
            2,
            vec![
                ev(0, TraceOp::Load(a(0))),
                ev(0, TraceOp::Store(a(0), 1)),
                ev(1, TraceOp::Load(a(0))),
                ev(1, TraceOp::Store(a(0), 2)),
                ev(0, TraceOp::Load(a(0))),
                ev(0, TraceOp::Store(a(0), 3)),
            ],
        );
        let s = analyze(&cfg(ProtocolKind::Ls), &t).unwrap();
        assert_eq!(s.ideal_global_writes, 3);
        assert_eq!(s.ideal_ls_writes, 3);
        assert_eq!(s.ideal_migratory_writes, 2);
        assert_eq!(s.load_store_blocks, 1);
        assert_eq!(s.migratory_blocks, 1);
    }

    #[test]
    fn block_labels_cover_the_taxonomy() {
        let t = trace(
            2,
            vec![
                // Block 0: private (only P0 touches it).
                ev(0, TraceOp::Load(a(0))),
                // Block 1: read-shared (both read, nobody writes).
                ev(0, TraceOp::Load(a(1))),
                ev(1, TraceOp::Load(a(1))),
                // Block 2: producer-consumer (P0 writes blind, P1 reads) —
                // no load before the store, so never an LS sequence.
                ev(0, TraceOp::Store(a(2), 1)),
                ev(1, TraceOp::Load(a(2))),
                ev(0, TraceOp::Store(a(2), 2)),
                ev(1, TraceOp::Load(a(2))),
                // Block 3: load-store, not migratory (only P0 sequences,
                // P1 just reads once in between).
                ev(0, TraceOp::Load(a(3))),
                ev(0, TraceOp::Store(a(3), 1)),
                ev(1, TraceOp::Load(a(3))),
                ev(0, TraceOp::Load(a(3))),
                ev(0, TraceOp::Store(a(3), 2)),
                // Block 4: irregular (both write blind — no sequences, two
                // writers).
                ev(0, TraceOp::Store(a(4), 1)),
                ev(1, TraceOp::Store(a(4), 2)),
            ],
        );
        let s = analyze(&cfg(ProtocolKind::Baseline), &t).unwrap();
        assert_eq!(s.blocks, 5);
        assert_eq!(s.private_blocks, 1);
        assert_eq!(s.read_shared_blocks, 1);
        assert_eq!(s.producer_consumer_blocks, 1);
        assert_eq!(s.load_store_blocks, 1);
        assert_eq!(s.migratory_blocks, 0);
        assert_eq!(s.irregular_blocks, 1);
    }

    #[test]
    fn false_sharing_candidate_requires_disjoint_word_footprints() {
        let block_bytes = cfg(ProtocolKind::Baseline).block_bytes();
        assert!(block_bytes >= 16, "need two distinct words");
        // Same block, different words: P0 writes word 0, P1 reads word 1.
        let t = trace(
            2,
            vec![
                ev(0, TraceOp::Store(Addr(0), 1)),
                ev(1, TraceOp::Load(Addr(8))),
            ],
        );
        let s = analyze(&cfg(ProtocolKind::Baseline), &t).unwrap();
        assert_eq!(s.false_sharing_candidates, 1);
        // Overlapping words: not a candidate.
        let t = trace(
            2,
            vec![
                ev(0, TraceOp::Store(Addr(0), 1)),
                ev(1, TraceOp::Load(Addr(0))),
            ],
        );
        let s = analyze(&cfg(ProtocolKind::Baseline), &t).unwrap();
        assert_eq!(s.false_sharing_candidates, 0);
    }

    #[test]
    fn load_exclusive_pairs_count_like_the_engine() {
        let t = trace(
            1,
            vec![
                ev(0, TraceOp::LoadExclusive(a(0))),
                ev(0, TraceOp::Store(a(0), 1)),
            ],
        );
        for kind in [ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls] {
            let c = cfg(kind);
            let engine = replay(c, &t, &[]);
            let s = analyze(&c, &t).unwrap();
            let o = engine.oracle.total();
            assert_eq!(s.global_writes, o.global_writes, "{kind:?}");
            assert_eq!(s.eliminated, o.eliminated, "{kind:?}");
            assert_eq!(s.silent_stores, engine.machine.silent_stores, "{kind:?}");
        }
    }

    #[test]
    fn analyze_rejects_too_few_nodes() {
        let t = trace(64, vec![ev(63, TraceOp::Load(a(0)))]);
        let c = cfg(ProtocolKind::Ls);
        assert!(c.nodes < 64);
        assert!(analyze(&c, &t).is_err());
    }
}
