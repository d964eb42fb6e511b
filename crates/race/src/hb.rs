//! Happens-before graph construction and the SC-conformance checks.
//!
//! The graph's nodes are the log's events; its edges are
//!
//! * **po** — program order: all events of one processor in log order
//!   (sound because the engine serializes whole machine calls under one
//!   lock, so the log order *is* each processor's issue order). `Init`
//!   events form a prefix chain ordered before every processor's first
//!   event.
//! * **rf** — reads-from: the write (or init) whose value a read observed.
//! * **co** — coherence order: per-word serialization order of writes,
//!   which in this machine is the log order (the directory serializes
//!   ownership, and the engine lock serializes everything else).
//! * **fr** — from-read: a read of version `k` precedes the write of
//!   version `k+1`. For reads of the *latest* version this is a forward
//!   edge to the next write; for stale reads (possible only in crafted
//!   logs — the engine's flat store always returns the newest value) it is
//!   a *backward* edge that participates in cycle detection.
//! * **ack** — invalidation acknowledgement: every side-effect event of a
//!   transaction (invalidations sent, downgrades, fills, evictions,
//!   `NotLS` reports) completes before the transaction's access event
//!   retires — the SC stall on the last `InvalAck`.
//!
//! Per event we compute a vector clock `VC(e)[p]` = number of processor-`p`
//! events happens-before-or-equal `e`, propagated forward in log order over
//! all forward edges (one `O(events × nodes)` pass). Backward fr edges
//! cannot feed this propagation; they are instead included in the global
//! topological-sort pass, whose failure to order the graph is exactly a
//! sequential-consistency violation and yields a minimal witness cycle.
//!
//! That graph is built only when a read observes an older version of its
//! word. Until then every edge points forward, and a linear pass that
//! keeps just the newest version per word gives the identical counters
//! and witness (see `analyze_latest`).
//!
//! # Axioms checked
//!
//! * **ReadValue** — every read's value matches some logged write/init of
//!   that word (golden-memory conformance).
//! * **CoWR** — a read must not observe a version older than a write that
//!   happens-before it.
//! * **CoRR** — one processor's reads of a word must observe monotonically
//!   newer versions.
//! * **CoWW / CoRW** — with co taken from the serialization (log) order
//!   and only forward hb edges, these cannot be violated *structurally*
//!   during construction; a crafted log that violates them necessarily
//!   contains a backward edge and is caught by the acyclicity pass. The
//!   predicates [`coww_violates`] and [`corw_violates`] state the axioms
//!   directly and are unit-tested on hand-built clocks.
//! * **Acyclicity** — the whole graph admits a topological order: a global
//!   SC witness, fingerprinted (FNV-1a over the order) for determinism
//!   checks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ccsim_engine::{EventKind, EventLog};
use ccsim_util::{fnv1a64, Fnv1a, FxHashMap};

use crate::{RaceReport, ViolationKind};

/// Is the event at `proc`/`seq` happens-before-or-equal an event with
/// vector clock `vc_e`? (`seq` is 1-based: the event's own clock component.)
pub fn hb_le(vc_e: &[u32], proc: usize, seq: u32) -> bool {
    vc_e.get(proc).copied().unwrap_or(0) >= seq
}

/// CoWW axiom: if coherence order puts write `w1` before `w2`, then `w2`
/// must not happen-before(-or-equal) `w1`. `vc_co_first` is `w1`'s clock;
/// `proc_second`/`seq_second` identify `w2`.
pub fn coww_violates(vc_co_first: &[u32], proc_second: usize, seq_second: u32) -> bool {
    hb_le(vc_co_first, proc_second, seq_second)
}

/// CoRW axiom: a read that observed version `read_version` must not
/// happen-before the write of any version `writer_version ≤ read_version`.
/// `vc_writer` is the writer's clock; `read_proc`/`read_seq` identify the
/// read.
pub fn corw_violates(
    vc_writer: &[u32],
    read_proc: usize,
    read_seq: u32,
    read_version: usize,
    writer_version: usize,
) -> bool {
    writer_version <= read_version && hb_le(vc_writer, read_proc, read_seq)
}

/// One logged value of a word. `writer` is `None` for the implicit initial
/// version (memory zero-fill).
struct Version {
    value: u64,
    writer: Option<u32>,
    wproc: usize,
    wseq: u32,
}

struct WordState {
    versions: Vec<Version>,
    readers_of_latest: Vec<u32>,
    /// Per processor: 1 + index of the newest version observed (0 = none).
    max_seen: Vec<u32>,
    /// The event that set `max_seen` (CoRR witness).
    max_seen_ev: Vec<u32>,
}

impl WordState {
    fn new(nodes: usize) -> Self {
        WordState {
            versions: vec![Version {
                value: 0,
                writer: None,
                wproc: 0,
                wseq: 0,
            }],
            readers_of_latest: Vec::new(),
            max_seen: vec![0; nodes],
            max_seen_ev: vec![0; nodes],
        }
    }
}

/// Linear-pass word state: just the newest version, which is all a log
/// whose every read observes the newest value ever needs.
#[derive(Clone, Copy, Default)]
struct LatestWord {
    value: u64,
    /// The newest version has a logged writer (not the implicit zero-fill).
    written: bool,
    /// Reads of the newest version awaiting their from-read edge.
    readers: u64,
}

/// The happens-before analysis: the linear path when it applies, the graph
/// path otherwise. Both produce the same report for a log the linear path
/// accepts.
pub(crate) fn analyze(log: &EventLog, report: &mut RaceReport) {
    let saved = report.counts;
    if !analyze_latest(log, report) {
        report.counts = saved;
        analyze_graph(log, report);
    }
}

/// The linear path: one pass, no per-event state, valid whenever every read
/// observes the newest version of its word — always the case for engine
/// logs, whose flat store only ever returns the newest value. Returns
/// `false`, leaving `report.counts` partially filled, as soon as a read
/// observes anything else; [`analyze_graph`] then redoes the analysis.
///
/// Why the result is exact: every hb edge [`analyze_graph`] would build then
/// points forward in log order (po, ack, co and rf come from earlier events,
/// and every fr edge goes from a read of the newest version to the next
/// write). No read is stale, so none of CoWR, CoRR or ReadValue can fire,
/// and the smallest-id-first topological order of a forward-only graph is
/// the log order itself: event `k` is always the smallest unordered event
/// and all its predecessors are smaller. The edge counters are tallied
/// without materializing the edges.
fn analyze_latest(log: &EventLog, report: &mut RaceReport) -> bool {
    let nodes = (log.nodes() as usize).max(1);
    let c = &mut report.counts;
    c.events = log.len() as u64;
    let mut seen_proc = vec![false; nodes];
    let mut seen_init = false;
    let mut group = 0u64;
    let mut words: FxHashMap<u64, LatestWord> = FxHashMap::default();
    let mut order = Fnv1a::new();

    for (id, ev) in log.events().iter().enumerate() {
        let p = ev.proc.idx();
        let is_init = matches!(ev.kind, EventKind::Init { .. });
        let is_access = ev.kind.is_access();
        if seen_proc[p] || (seen_init && !is_init) {
            c.po_edges += 1;
        }
        if is_access {
            c.ack_edges += group;
            group = 0;
        }
        match ev.kind {
            EventKind::Init { addr, value } | EventKind::Write { addr, value, .. } => {
                let w = words.entry(addr.word_index()).or_default();
                c.co_edges += w.written as u64;
                c.fr_edges += w.readers;
                *w = LatestWord {
                    value,
                    written: true,
                    readers: 0,
                };
            }
            EventKind::Read { addr, value, .. } | EventKind::ReadExcl { addr, value, .. } => {
                let w = words.entry(addr.word_index()).or_default();
                if w.value != value {
                    return false;
                }
                c.rf_edges += w.written as u64;
                w.readers += 1;
            }
            _ => {}
        }
        seen_proc[p] = true;
        seen_init |= is_init;
        if !is_access && !is_init {
            group += 1;
        }
        if is_access {
            c.accesses += 1;
            match ev.kind {
                EventKind::Write { .. } => c.writes += 1,
                _ => c.reads += 1,
            }
        }
        order.update(&(id as u32).to_le_bytes());
    }
    c.words = words.len() as u64;
    report.sc_fingerprint = Some(order.finish());
    true
}

/// The general path: materializes the happens-before graph with vector
/// clocks, checks every axiom with witnesses, and orders the graph with a
/// smallest-id-first topological sort. Only logs with a read of an older
/// version (crafted ones) reach it.
fn analyze_graph(log: &EventLog, report: &mut RaceReport) {
    let events = log.events();
    let n = events.len();
    let nodes = (log.nodes() as usize).max(1);
    report.counts.events = n as u64;

    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg: Vec<u32> = vec![0; n];
    let mut vc: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut last_of_proc: Vec<Option<u32>> = vec![None; nodes];
    let mut last_init: Option<u32> = None;
    let mut group: Vec<u32> = Vec::new();
    let mut words: FxHashMap<u64, WordState> = FxHashMap::default();
    let mut ins: Vec<u32> = Vec::new();

    for (id, ev) in events.iter().enumerate() {
        let e32 = id as u32;
        let p = ev.proc.idx();
        ins.clear();

        let is_init = matches!(ev.kind, EventKind::Init { .. });
        let is_access = ev.kind.is_access();

        // po: the per-processor chain; the last Init precedes every other
        // processor's first event (Init events run at P0, so P0's chain
        // already covers them).
        match (last_of_proc[p], last_init) {
            (Some(prev), _) => {
                ins.push(prev);
                report.counts.po_edges += 1;
            }
            (None, Some(li)) if !is_init => {
                ins.push(li);
                report.counts.po_edges += 1;
            }
            _ => {}
        }

        // ack: the transaction's side effects complete before its access
        // event retires.
        if is_access {
            for &g in &group {
                ins.push(g);
                report.counts.ack_edges += 1;
            }
            group.clear();
        }

        // (word, value, is_write) for events that touch memory.
        let touch = match ev.kind {
            EventKind::Init { addr, value } => Some((addr.word_index(), value, true)),
            EventKind::Read { addr, value, .. } => Some((addr.word_index(), value, false)),
            EventKind::ReadExcl { addr, value, .. } => Some((addr.word_index(), value, false)),
            EventKind::Write { addr, value, .. } => Some((addr.word_index(), value, true)),
            _ => None,
        };

        // rf / co / forward-fr edges into this event.
        let mut matched: Option<usize> = None;
        if let Some((word, value, is_write)) = touch {
            let w = words.entry(word).or_insert_with(|| WordState::new(nodes));
            if is_write {
                // co: this write follows the previous version's writer.
                // ccsim-lint: allow(unwrap): versions starts non-empty and only grows
                if let Some(pw) = w.versions.last().expect("versions never empty").writer {
                    ins.push(pw);
                    report.counts.co_edges += 1;
                }
                // fr: everyone who read the previous version precedes it.
                for r in w.readers_of_latest.drain(..) {
                    ins.push(r);
                    report.counts.fr_edges += 1;
                }
            } else {
                // rf: newest version whose value matches (the engine's flat
                // store always returns the newest; older matches only occur
                // in crafted logs).
                matched = (0..w.versions.len())
                    .rev()
                    .find(|&k| w.versions[k].value == value);
                if let Some(k) = matched {
                    if let Some(wr) = w.versions[k].writer {
                        ins.push(wr);
                        report.counts.rf_edges += 1;
                    }
                }
            }
        }

        // Vector clock: join of all hb-predecessors, tick own component.
        let mut v = vec![0u32; nodes];
        for &f in &ins {
            for (a, b) in v.iter_mut().zip(&vc[f as usize]) {
                if *b > *a {
                    *a = *b;
                }
            }
        }
        v[p] += 1;
        let seq_self = v[p];
        vc.push(v);

        for &f in &ins {
            out[f as usize].push(e32);
            indeg[id] += 1;
        }

        // Post-clock checks and word-state updates.
        if let Some((word, value, is_write)) = touch {
            // ccsim-lint: allow(unwrap): the entry was inserted above
            let w = words.get_mut(&word).expect("word state inserted above");
            if is_write {
                w.versions.push(Version {
                    value,
                    writer: Some(e32),
                    wproc: p,
                    wseq: seq_self,
                });
                let vi = w.versions.len() - 1;
                if w.max_seen[p] < vi as u32 + 1 {
                    w.max_seen[p] = vi as u32 + 1;
                    w.max_seen_ev[p] = e32;
                }
            } else {
                match matched {
                    None => {
                        report.push(
                            ViolationKind::ReadValue,
                            word,
                            format!(
                                "{} observed {value}, which no logged write or init ever stored",
                                ev
                            ),
                            vec![e32],
                        );
                    }
                    Some(k) => {
                        let latest = w.versions.len() - 1;
                        if k == latest {
                            w.readers_of_latest.push(e32);
                        } else {
                            // Stale read: backward fr edge into the cycle
                            // graph (not into the clocks).
                            if let Some(nw) = w.versions[k + 1].writer {
                                out[id].push(nw);
                                indeg[nw as usize] += 1;
                                report.counts.fr_edges += 1;
                            }
                            // CoWR: is a co-later write hb-before this read?
                            for m in (k + 1..=latest).rev() {
                                let ver = &w.versions[m];
                                let Some(wid) = ver.writer else { continue };
                                if hb_le(&vc[id], ver.wproc, ver.wseq) {
                                    let path = shortest_path(&out, wid, e32)
                                        .unwrap_or_else(|| vec![wid, e32]);
                                    report.push(
                                        ViolationKind::CoWr,
                                        word,
                                        format!(
                                            "{} observed stale version {k} although \
                                             version {m}'s write happens-before it",
                                            ev
                                        ),
                                        path,
                                    );
                                    break;
                                }
                            }
                        }
                        // CoRR: per-processor reads march forward in co.
                        if w.max_seen[p] > k as u32 + 1 {
                            report.push(
                                ViolationKind::CoRr,
                                word,
                                format!(
                                    "{} went back in coherence order: version {k} after \
                                     this processor already observed version {}",
                                    ev,
                                    w.max_seen[p] - 1
                                ),
                                vec![w.max_seen_ev[p], e32],
                            );
                        } else if w.max_seen[p] < k as u32 + 1 {
                            w.max_seen[p] = k as u32 + 1;
                            w.max_seen_ev[p] = e32;
                        }
                    }
                }
            }
        }

        last_of_proc[p] = Some(e32);
        if is_init {
            last_init = Some(e32);
        }
        if !is_access && !is_init {
            group.push(e32);
        }
        if is_access {
            report.counts.accesses += 1;
            match ev.kind {
                EventKind::Write { .. } => report.counts.writes += 1,
                _ => report.counts.reads += 1,
            }
        }
    }

    report.counts.words = words.len() as u64;

    // Global SC witness: deterministic (smallest-id-first) topological sort.
    let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    for (i, &d) in indeg.iter().enumerate() {
        if d == 0 {
            heap.push(Reverse(i as u32));
        }
    }
    let mut popped = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while let Some(Reverse(x)) = heap.pop() {
        popped[x as usize] = true;
        order.push(x);
        for &y in &out[x as usize] {
            indeg[y as usize] -= 1;
            if indeg[y as usize] == 0 {
                heap.push(Reverse(y));
            }
        }
    }
    if order.len() == n {
        let mut bytes = Vec::with_capacity(n * 4);
        for x in &order {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        report.sc_fingerprint = Some(fnv1a64(&bytes));
    } else {
        report.sc_fingerprint = None;
        // Minimal witness: shortest cycle through the earliest unorderable
        // event (BFS restricted to the unorderable remainder).
        for s in (0..n).filter(|&s| !popped[s]) {
            if let Some(cycle) = cycle_through(&out, &popped, s as u32) {
                report.push(
                    ViolationKind::ScCycle,
                    0,
                    format!(
                        "events form a happens-before cycle ({} events cannot be \
                         ordered): no sequentially consistent witness exists",
                        n - order.len()
                    ),
                    cycle,
                );
                break;
            }
        }
    }
}

/// Shortest hb path `from → to` by BFS (witness extraction).
fn shortest_path(out: &[Vec<u32>], from: u32, to: u32) -> Option<Vec<u32>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: FxHashMap<u32, u32> = FxHashMap::default();
    let mut q = VecDeque::new();
    q.push_back(from);
    while let Some(x) = q.pop_front() {
        for &y in &out[x as usize] {
            if y == from || parent.contains_key(&y) {
                continue;
            }
            parent.insert(y, x);
            if y == to {
                let mut rev = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = parent[&cur];
                    rev.push(cur);
                }
                rev.reverse();
                return Some(rev);
            }
            q.push_back(y);
        }
    }
    None
}

/// Shortest cycle through `s`, restricted to unpopped (unorderable) nodes.
fn cycle_through(out: &[Vec<u32>], popped: &[bool], s: u32) -> Option<Vec<u32>> {
    let mut parent: FxHashMap<u32, u32> = FxHashMap::default();
    let mut q = VecDeque::new();
    q.push_back(s);
    while let Some(x) = q.pop_front() {
        for &y in &out[x as usize] {
            if popped[y as usize] {
                continue;
            }
            if y == s {
                let mut rev = vec![x];
                let mut cur = x;
                while cur != s {
                    cur = parent[&cur];
                    rev.push(cur);
                }
                rev.reverse();
                return Some(rev);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(y) {
                e.insert(x);
                q.push_back(y);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hb_le_is_component_test() {
        // Clock of an event that has seen 3 events of P0 and 1 of P1.
        let vc = [3, 1, 0];
        assert!(hb_le(&vc, 0, 3));
        assert!(hb_le(&vc, 0, 2));
        assert!(!hb_le(&vc, 0, 4));
        assert!(hb_le(&vc, 1, 1));
        assert!(!hb_le(&vc, 2, 1));
        assert!(!hb_le(&vc, 9, 1), "out-of-range proc is never hb");
    }

    #[test]
    fn coww_predicate() {
        // w1 (clock [2,5]) is co-first. w2 = P1's event 4 is hb-before w1:
        // co and hb disagree -> violation.
        assert!(coww_violates(&[2, 5], 1, 4));
        // w2 = P1's event 6 is NOT hb-before w1: consistent.
        assert!(!coww_violates(&[2, 5], 1, 6));
    }

    /// Both paths over one log; the linear one must apply.
    fn both_paths(log: &EventLog) -> (RaceReport, RaceReport) {
        let mut linear = RaceReport::default();
        assert!(
            analyze_latest(log, &mut linear),
            "every read observes the newest value, so the linear path applies"
        );
        let mut graph = RaceReport::default();
        analyze_graph(log, &mut graph);
        (linear, graph)
    }

    #[test]
    fn linear_path_matches_the_graph_path_on_engine_logs() {
        use ccsim_types::{MachineConfig, ProtocolKind};
        use ccsim_workloads::{capture_events_spec, lu, mp3d, Spec};
        let specs = [
            Spec::Mp3d(mp3d::Mp3dParams::quick()),
            Spec::Lu(lu::LuParams::quick()),
        ];
        for kind in ProtocolKind::ALL {
            for spec in &specs {
                let (_, log) = capture_events_spec(MachineConfig::splash_baseline(kind), spec);
                let (linear, graph) = both_paths(&log);
                assert_eq!(linear.counts, graph.counts, "{kind:?} {}", spec.name());
                assert_eq!(linear.sc_fingerprint, graph.sc_fingerprint);
                assert!(graph.is_clean());
            }
        }
    }

    #[test]
    fn linear_path_matches_the_graph_path_on_random_newest_value_logs() {
        use ccsim_core::rules::CopyState;
        use ccsim_engine::{CoherenceEvent, WriteHow};
        use ccsim_types::{Addr, NodeId};
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..300 {
            let nodes = 1 + draw(4) as u16;
            let mut newest = [0u64; 6];
            let mut events = Vec::new();
            for _ in 0..draw(60) {
                let proc = NodeId(draw(nodes as u64) as u16);
                let w = draw(6) as usize;
                let addr = Addr(0x100 + 8 * w as u64);
                let value = draw(5);
                let kind = match draw(5) {
                    0 => {
                        newest[w] = value;
                        EventKind::Init { addr, value }
                    }
                    1 => {
                        newest[w] = value;
                        EventKind::Write {
                            addr,
                            value,
                            how: WriteHow::Global,
                            ls: false,
                            mig: false,
                        }
                    }
                    2 => EventKind::ReadExcl {
                        addr,
                        value: newest[w],
                        hit: false,
                    },
                    3 => EventKind::Fill {
                        block: addr.block(32),
                        state: CopyState::Shared,
                    },
                    _ => EventKind::Read {
                        addr,
                        value: newest[w],
                        hit: true,
                        grant: ccsim_core::GrantKind::Shared,
                        notls: false,
                    },
                };
                events.push(CoherenceEvent { proc, kind });
            }
            let log = EventLog::from_events(nodes, 32, events).expect("valid crafted log");
            let (linear, graph) = both_paths(&log);
            assert_eq!(linear.counts, graph.counts);
            assert_eq!(linear.sc_fingerprint, graph.sc_fingerprint);
            assert!(graph.violations.is_empty());
        }
    }

    #[test]
    fn a_stale_read_takes_the_graph_path() {
        use ccsim_engine::{CoherenceEvent, WriteHow};
        use ccsim_types::{Addr, NodeId};
        let a = Addr(0x100);
        let write = |value| EventKind::Write {
            addr: a,
            value,
            how: WriteHow::DirtyHit,
            ls: false,
            mig: false,
        };
        let events = [
            (0, write(1)),
            (0, write(2)),
            (
                1,
                EventKind::Read {
                    addr: a,
                    value: 1,
                    hit: true,
                    grant: ccsim_core::GrantKind::Shared,
                    notls: false,
                },
            ),
        ]
        .map(|(p, kind)| CoherenceEvent {
            proc: NodeId(p),
            kind,
        });
        let log = EventLog::from_events(2, 32, events.to_vec()).expect("valid crafted log");
        assert!(!analyze_latest(&log, &mut RaceReport::default()));
        let mut via_analyze = RaceReport::default();
        analyze(&log, &mut via_analyze);
        let mut graph = RaceReport::default();
        analyze_graph(&log, &mut graph);
        assert_eq!(via_analyze.counts, graph.counts);
        assert_eq!(via_analyze.sc_fingerprint, graph.sc_fingerprint);
        assert_eq!(via_analyze.violations.len(), graph.violations.len());
    }

    #[test]
    fn corw_predicate() {
        // Read by P0 (seq 3) observed version 5. A write of version 4 whose
        // clock already includes P0's event 3 is hb-after the read ->
        // violation (the read saw the co-future).
        assert!(corw_violates(&[3, 0], 0, 3, 5, 4));
        // Same write but of version 6 (co-after what was read): fine.
        assert!(!corw_violates(&[3, 0], 0, 3, 5, 6));
        // Write not hb-after the read: fine.
        assert!(!corw_violates(&[2, 0], 0, 3, 5, 4));
    }
}
