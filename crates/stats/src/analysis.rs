//! Static analysis of access traces (`ccsim analyze`).
//!
//! One O(events) pass over a captured [`Trace`] labels every block with its
//! sharing pattern under an idealized infinite cache: private, read-shared,
//! producer-consumer, load-store (migratory as its strict subset) or
//! irregular, plus an orthogonal false-sharing-candidate label from
//! per-node word footprints. The same pass counts the stream's inherent
//! global actions. These depend only on the access stream, not on cache
//! geometry or protocol.
//!
//! The exact finite-cache counters (global reads, LS/migratory writes,
//! eliminations, silent stores, the false-sharing fraction) come from the
//! engine itself: the trace is replayed with [`ccsim_engine::replay`].
//! Trace events are recorded in execution order, so the replay reproduces
//! the capturing run's coherence-operation sequence and its counters bit
//! for bit. `ls_writes` is the static upper bound on ownership transactions
//! the LS protocol can eliminate for this trace and geometry
//! (`eliminated_ls <= ls_writes` always).

use crate::AnalysisSummary;
use ccsim_engine::{replay, Trace, TraceOp};
use ccsim_types::{Addr, BlockAddr, MachineConfig};
use ccsim_util::FxHashMap;

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
    let mut ideal = Ideal::new(cfg.nodes as usize, cfg.block_bytes());
    let mut accesses = 0u64;
    for e in trace.events() {
        let p = e.proc as usize;
        match e.op {
            TraceOp::Load(a) => {
                accesses += 1;
                ideal.load(p, a);
            }
            TraceOp::Store(a, _) => {
                accesses += 1;
                ideal.store(p, a);
            }
            TraceOp::LoadExclusive(a) => {
                accesses += 1;
                ideal.load_exclusive(p, a);
            }
            TraceOp::Busy(_) | TraceOp::SetComponent(_) => {}
        }
    }
    let patterns = classify(&ideal.blocks);
    let run = replay(*cfg, trace, &[]);
    let oracle = run.oracle.total();
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
        global_reads: run.dir.global_reads,
        global_writes: oracle.global_writes,
        ls_writes: oracle.ls_writes,
        migratory_writes: oracle.migratory_writes,
        eliminated: oracle.eliminated,
        eliminated_ls: oracle.eliminated_ls,
        eliminated_migratory: oracle.eliminated_migratory,
        silent_stores: run.machine.silent_stores,
        ls_upper_bound: oracle.ls_writes,
        false_sharing_fraction: run.false_sharing.false_fraction(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_engine::TraceEvent;
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

    /// The exact counters one analysis reports, in the order
    /// `global_reads, global_writes, ls_writes, migratory_writes,
    /// eliminated, eliminated_ls, eliminated_migratory, silent_stores`.
    fn exact(s: &AnalysisSummary) -> [u64; 8] {
        [
            s.global_reads,
            s.global_writes,
            s.ls_writes,
            s.migratory_writes,
            s.eliminated,
            s.eliminated_ls,
            s.eliminated_migratory,
            s.silent_stores,
        ]
    }

    #[test]
    fn exact_counters_on_a_toy_trace() {
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
        for (kind, counters, false_sharing) in [
            (ProtocolKind::Baseline, [5, 3, 3, 2, 0, 0, 0, 0], 0.2),
            (ProtocolKind::Ad, [5, 3, 3, 2, 1, 1, 1, 1], 0.2),
            (ProtocolKind::Ls, [5, 3, 3, 2, 2, 2, 2, 2], 0.0),
        ] {
            let s = analyze(&cfg(kind), &t).unwrap();
            assert_eq!(exact(&s), counters, "{kind:?}");
            assert_eq!(s.false_sharing_fraction, false_sharing, "{kind:?}");
            assert_eq!(s.ls_upper_bound, 3, "{kind:?}");
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
    fn load_exclusive_pairs_count_one_eliminated_write() {
        // The store after a load-exclusive completes in the exclusive copy:
        // one silent store, no global read, under every protocol.
        let t = trace(
            1,
            vec![
                ev(0, TraceOp::LoadExclusive(a(0))),
                ev(0, TraceOp::Store(a(0), 1)),
            ],
        );
        for kind in [ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls] {
            let s = analyze(&cfg(kind), &t).unwrap();
            assert_eq!(exact(&s), [0, 1, 1, 0, 1, 1, 0, 1], "{kind:?}");
            assert_eq!(s.false_sharing_fraction, 0.0, "{kind:?}");
            assert_eq!(s.ls_upper_bound, 1, "{kind:?}");
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
