//! Point-to-point interconnection network model.
//!
//! §4.2: "The processor nodes are connected in a point-to-point network with
//! a fixed delay. Contention is accurately modeled in the network."
//!
//! Model: every node has a network interface (NI) that injects messages
//! serially. A message occupies the sender's NI for `size_bytes /
//! LINK_BYTES_PER_CYCLE` cycles (minimum 1) and then travels for the fixed
//! `net` traversal delay; the receiving controller adds its `mc` occupancy
//! (charged by the latency model at the endpoint). Contention therefore
//! appears as queueing delay at busy NIs. Intra-node "messages" (home ==
//! requester) bypass the network entirely and are not counted as traffic.
//!
//! All traffic counters live here, split by [`MsgKind`] and by the paper's
//! read/write/other [`MsgClass`] categories.

use ccsim_types::{FaultConfig, LatencyConfig, MsgClass, MsgKind, NodeId, Topology};
use ccsim_util::{json_record, FromJson, Json, ToJson, Xoshiro256pp};

/// Injection bandwidth of a network interface (bytes per cycle).
pub const LINK_BYTES_PER_CYCLE: u64 = 8;

/// Per-class message and byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    pub messages: u64,
    pub bytes: u64,
}

json_record!(ClassCounters { messages, bytes });

/// Network traffic statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    read: ClassCounters,
    write: ClassCounters,
    other: ClassCounters,
    invalidations: u64,
    /// Messages per kind, indexed by `MsgKind as usize` (see
    /// [`MsgKind::ALL`]): one add per message, no lookup.
    by_kind: [u64; MsgKind::ALL.len()],
}

impl Traffic {
    fn class_mut(&mut self, c: MsgClass) -> &mut ClassCounters {
        match c {
            MsgClass::Read => &mut self.read,
            MsgClass::Write => &mut self.write,
            MsgClass::Other => &mut self.other,
        }
    }

    /// Counters for one class.
    pub fn class(&self, c: MsgClass) -> ClassCounters {
        match c {
            MsgClass::Read => self.read,
            MsgClass::Write => self.write,
            MsgClass::Other => self.other,
        }
    }

    /// Total messages across classes.
    pub fn total_messages(&self) -> u64 {
        self.read.messages + self.write.messages + self.other.messages
    }

    /// Total bytes across classes.
    pub fn total_bytes(&self) -> u64 {
        self.read.bytes + self.write.bytes + self.other.bytes
    }

    /// Home-to-sharer invalidation messages (Figure 5's "Invalidations").
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Count of one message kind (diagnostics).
    pub fn kind_count(&self, kind: MsgKind) -> u64 {
        self.by_kind[kind as usize]
    }

    fn record(&mut self, kind: MsgKind, block_bytes: u64) {
        let c = self.class_mut(kind.class());
        c.messages += 1;
        c.bytes += kind.size_bytes(block_bytes);
        if kind.is_invalidation() {
            self.invalidations += 1;
        }
        self.by_kind[kind as usize] += 1;
    }

    /// Merge another traffic tally into this one.
    pub fn merge(&mut self, other: &Traffic) {
        for c in MsgClass::ALL {
            let o = other.class(c);
            let m = self.class_mut(c);
            m.messages += o.messages;
            m.bytes += o.bytes;
        }
        self.invalidations += other.invalidations;
        for (m, o) in self.by_kind.iter_mut().zip(other.by_kind) {
            *m += o;
        }
    }
}

impl ToJson for Traffic {
    /// `by_kind` lists the kinds that were sent, sorted by name.
    fn to_json(&self) -> Json {
        let mut by_kind: Vec<(&str, u64)> = MsgKind::ALL
            .into_iter()
            .map(|k| (kind_name(k), self.by_kind[k as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        by_kind.sort_unstable_by_key(|&(name, _)| name);
        Json::obj(vec![
            ("read", self.read.to_json()),
            ("write", self.write.to_json()),
            ("other", self.other.to_json()),
            ("invalidations", self.invalidations.to_json()),
            (
                "by_kind",
                Json::Obj(
                    by_kind
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for Traffic {
    /// An unknown kind name fails the decode rather than dropping counters.
    fn from_json(j: &Json) -> Result<Self, String> {
        let mut by_kind = [0; MsgKind::ALL.len()];
        for (k, v) in j.req("by_kind")?.as_obj()? {
            let kind = MsgKind::ALL
                .into_iter()
                .find(|&kind| kind_name(kind) == k)
                .ok_or_else(|| format!("unknown message kind `{k}` in traffic"))?;
            by_kind[kind as usize] = v.as_u64()?;
        }
        Ok(Traffic {
            read: j.field("read")?,
            write: j.field("write")?,
            other: j.field("other")?,
            invalidations: j.field("invalidations")?,
            by_kind,
        })
    }
}

fn kind_name(kind: MsgKind) -> &'static str {
    use MsgKind::*;
    match kind {
        ReadReq => "ReadReq",
        ReadReply => "ReadReply",
        ReadExclReply => "ReadExclReply",
        ReadForward => "ReadForward",
        OwnerReply => "OwnerReply",
        SharingWriteback => "SharingWriteback",
        UpgradeReq => "UpgradeReq",
        UpgradeAck => "UpgradeAck",
        WriteMissReq => "WriteMissReq",
        WriteMissReply => "WriteMissReply",
        WriteForward => "WriteForward",
        OwnerWriteReply => "OwnerWriteReply",
        Inval => "Inval",
        InvalAck => "InvalAck",
        ReplWriteback => "ReplWriteback",
        ReplHint => "ReplHint",
        NotLs => "NotLs",
        Retry => "Retry",
        Ack => "Ack",
    }
}

/// Outcome of a fallible request delivery under fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The request arrived; the value is its arrival time at the receiver.
    Delivered(u64),
    /// The receiver NACKed the request and bounced a [`MsgKind::Retry`]
    /// back; the value is the time the NACK reaches the original sender,
    /// who must re-issue (with backoff).
    Nacked(u64),
}

/// Counters describing what a fault plan actually did (diagnostics; not
/// part of serialized run statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests NACKed by the injector.
    pub nacks: u64,
    /// NACK or drop streaks cut short by the forced-delivery bound.
    pub forced_deliveries: u64,
    /// Messages hit by a delay spike.
    pub delay_spikes: u64,
    /// Total extra cycles added by delay spikes.
    pub delay_cycles: u64,
    /// Sequenced copies lost on the wire (message or its ACK).
    pub drops: u64,
    /// Copies re-injected by the timeout-and-retransmit driver.
    pub retransmits: u64,
    /// Copies suppressed by receiver-side sequence-number dedup.
    pub dups_suppressed: u64,
    /// Copies detained in the receiver's reorder buffer.
    pub reorders: u64,
    /// Transport acknowledgements delivered back to the sender.
    pub acks: u64,
}

/// Receiver-side bound on out-of-order copies parked per flow. An arrival
/// that would overflow the buffer is discarded like a wire drop; the
/// timeout-and-retransmit driver recovers it, so the bound costs latency,
/// never correctness.
pub const REORDER_BUFFER_CAP: usize = 4;

/// What the receiver did with one sequenced copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AcceptOutcome {
    /// The copy released an in-order delivery to the protocol layer at the
    /// given time (its own, or later if it had been parked behind a gap).
    Delivered(u64),
    /// Sequence number already delivered or already parked: suppressed.
    Duplicate,
    /// Arrived ahead of a gap; parked in the reorder buffer.
    Parked,
    /// Reorder buffer full; discarded (recovered by retransmission).
    Overflow,
}

/// Per-(src,dst) transport state: the sender's sequence counter, the
/// receiver's re-sequencing cursor + reorder buffer, and a private
/// randomness stream so fault rolls on one flow can never perturb another.
struct FlowState {
    rng: Xoshiro256pp,
    /// Next sequence number the sender will assign.
    next_seq: u64,
    /// Next sequence number the receiver will release to the protocol.
    next_expected: u64,
    /// Out-of-order arrivals awaiting their predecessors: `(seq, arrive)`.
    /// Bounded by [`REORDER_BUFFER_CAP`].
    reorder_buf: Vec<(u64, u64)>,
}

impl FlowState {
    fn new(stream_seed: u64) -> Self {
        FlowState {
            rng: Xoshiro256pp::seed_from_u64(stream_seed),
            next_seq: 0,
            next_expected: 0,
            reorder_buf: Vec::new(),
        }
    }

    /// Assign the next sender-side sequence number.
    fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Receiver-side exactly-once re-sequencing: accept one copy of `seq`
    /// arriving at time `at`.
    fn accept(&mut self, seq: u64, at: u64) -> AcceptOutcome {
        if seq < self.next_expected || self.reorder_buf.iter().any(|&(s, _)| s == seq) {
            return AcceptOutcome::Duplicate;
        }
        if seq > self.next_expected {
            if self.reorder_buf.len() >= REORDER_BUFFER_CAP {
                return AcceptOutcome::Overflow;
            }
            self.reorder_buf.push((seq, at));
            return AcceptOutcome::Parked;
        }
        // In order: release it, then drain any parked successors it unblocks.
        let mut release = at;
        self.next_expected += 1;
        // ccsim-lint: allow(unbounded-retry): drains at most REORDER_BUFFER_CAP parked entries
        while let Some(i) = self
            .reorder_buf
            .iter()
            .position(|&(s, _)| s == self.next_expected)
        {
            let (_, parked_at) = self.reorder_buf.swap_remove(i);
            release = release.max(parked_at);
            self.next_expected += 1;
        }
        AcceptOutcome::Delivered(release)
    }
}

/// Seeded fault injector and recovery-transport state. The NACK/delay
/// classes roll a single plan-wide xoshiro256++ stream in the deterministic
/// order the (serialized) engine calls into the network; the transport
/// classes (drop/dup/reorder) roll per-flow streams so distinct (src,dst)
/// pairs stay statistically independent. Same plan + same workload = same
/// faults. A class with rate zero never consumes randomness, so enabling
/// one class cannot shift another's stream.
struct FaultPlan {
    cfg: FaultConfig,
    rng: Xoshiro256pp,
    consecutive_nacks: u32,
    /// Per-(src,dst) flow state, dense by `src * nodes + dst`; a flow is
    /// created on its first sequenced message.
    flows: Vec<Option<FlowState>>,
    nodes: usize,
    stats: FaultStats,
}

impl FaultPlan {
    fn new(cfg: FaultConfig, nodes: usize) -> Self {
        FaultPlan {
            cfg,
            rng: Xoshiro256pp::seed_from_u64(cfg.seed),
            consecutive_nacks: 0,
            flows: std::iter::repeat_with(|| None)
                .take(nodes * nodes)
                .collect(),
            nodes,
            stats: FaultStats::default(),
        }
    }

    /// Per-flow transport state, created lazily with a stream seed derived
    /// from the plan seed and the ordered (src,dst) pair.
    fn flow_mut(&mut self, from: NodeId, to: NodeId) -> &mut FlowState {
        let seed = self.cfg.seed
            ^ (from.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (to.0 as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.flows[from.idx() * self.nodes + to.idx()].get_or_insert_with(|| FlowState::new(seed))
    }

    /// Should the next request be NACKed? Consumes randomness only when the
    /// NACK class is enabled, so a delay-only plan's stream is unaffected.
    fn roll_nack(&mut self) -> bool {
        if self.cfg.nack_per_mille == 0 {
            return false;
        }
        if self.consecutive_nacks >= self.cfg.max_consecutive_nacks {
            self.consecutive_nacks = 0;
            self.stats.forced_deliveries += 1;
            return false;
        }
        if self.rng.below(1000) < self.cfg.nack_per_mille as u64 {
            self.consecutive_nacks += 1;
            self.stats.nacks += 1;
            true
        } else {
            self.consecutive_nacks = 0;
            false
        }
    }

    /// Extra delivery delay for the next timed message (0 = no spike).
    fn roll_spike(&mut self) -> u64 {
        if self.cfg.delay_per_mille == 0 {
            return 0;
        }
        if self.rng.below(1000) < self.cfg.delay_per_mille as u64 {
            let d = 1 + self.rng.below(self.cfg.max_delay_cycles);
            self.stats.delay_spikes += 1;
            self.stats.delay_cycles += d;
            d
        } else {
            0
        }
    }

    /// Is the next sequenced copy on this flow lost on the wire?
    fn roll_drop(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.cfg.drop_per_mille == 0 {
            return false;
        }
        let rate = self.cfg.drop_per_mille as u64;
        self.flow_mut(from, to).rng.below(1000) < rate
    }

    /// Does the next sequenced copy on this flow arrive twice?
    fn roll_dup(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.cfg.dup_per_mille == 0 {
            return false;
        }
        let rate = self.cfg.dup_per_mille as u64;
        self.flow_mut(from, to).rng.below(1000) < rate
    }

    /// Is the next sequenced copy on this flow detained in the receiver's
    /// reorder buffer past its nominal arrival?
    fn roll_reorder(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.cfg.reorder_per_mille == 0 {
            return false;
        }
        let rate = self.cfg.reorder_per_mille as u64;
        self.flow_mut(from, to).rng.below(1000) < rate
    }
}

/// The interconnect: topology-routed links with per-NI and per-link
/// queueing.
pub struct Network {
    latency: LatencyConfig,
    block_bytes: u64,
    topology: Topology,
    /// Cycle until which each node's NI is busy injecting.
    ni_busy_until: Vec<u64>,
    /// Cycle until which each directed link `(a, b)` is busy (mesh
    /// contention), dense by `a * nodes + b`.
    link_busy_until: Vec<u64>,
    traffic: Traffic,
    /// Fault injector; `None` when the plan is disabled, in which case no
    /// randomness is ever consumed and timing is exactly the fault-free
    /// model.
    faults: Option<FaultPlan>,
    /// Testing-only transport mutation: the receiver skips sequence-number
    /// dedup, so a duplicated copy leaks through to the protocol layer. The
    /// leak is reported via [`Network::take_leaked_duplicate`] so the caller
    /// can model the stale re-application the dedup would have prevented.
    #[cfg(feature = "testing")]
    skip_dedup: bool,
    /// Count of duplicate copies that leaked past dedup (always zero
    /// without the skip-dedup mutation), drained by the caller.
    leaked_duplicates: u64,
}

impl Network {
    pub fn new(nodes: u16, latency: LatencyConfig, block_bytes: u64) -> Self {
        Self::with_topology(nodes, latency, block_bytes, Topology::PointToPoint)
    }

    pub fn with_topology(
        nodes: u16,
        latency: LatencyConfig,
        block_bytes: u64,
        topology: Topology,
    ) -> Self {
        Self::try_with_topology(nodes, latency, block_bytes, topology)
            .unwrap_or_else(|e| panic!("invalid topology: {e}"))
    }

    /// Fallible constructor: returns a description of the problem instead
    /// of panicking on an invalid topology, so front ends can print a clean
    /// error.
    pub fn try_with_topology(
        nodes: u16,
        latency: LatencyConfig,
        block_bytes: u64,
        topology: Topology,
    ) -> Result<Self, String> {
        topology.validate(nodes)?;
        Ok(Network {
            latency,
            block_bytes,
            topology,
            ni_busy_until: vec![0; nodes as usize],
            link_busy_until: vec![0; nodes as usize * nodes as usize],
            traffic: Traffic::default(),
            faults: None,
            #[cfg(feature = "testing")]
            skip_dedup: false,
            leaked_duplicates: 0,
        })
    }

    /// Arm deterministic fault injection. A disabled plan (all-zero rates)
    /// is ignored, keeping the fault-free fast path bit-identical.
    pub fn install_faults(&mut self, cfg: FaultConfig) {
        self.faults = if cfg.enabled() {
            Some(FaultPlan::new(cfg, self.ni_busy_until.len()))
        } else {
            None
        };
    }

    /// What the fault injector has done so far (zeroes when disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Install the skip-dedup transport mutation (testing builds only): the
    /// receiver stops suppressing duplicate sequence numbers, the seeded bug
    /// the model checker and chaos shrinker must convict.
    #[cfg(feature = "testing")]
    pub fn install_skip_dedup(&mut self) {
        self.skip_dedup = true;
    }

    #[cfg(feature = "testing")]
    fn dedup_disabled(&self) -> bool {
        self.skip_dedup
    }

    #[cfg(not(feature = "testing"))]
    fn dedup_disabled(&self) -> bool {
        false
    }

    /// Drain the count of duplicate copies that leaked past receiver dedup
    /// since the last call. Always zero unless the skip-dedup mutation is
    /// installed; the caller uses it to model the stale re-application a
    /// correct receiver would have suppressed.
    pub fn take_leaked_duplicates(&mut self) -> u64 {
        std::mem::take(&mut self.leaked_duplicates)
    }

    /// Diagnostic snapshot of per-flow transport state, deterministically
    /// ordered by (src,dst): `(src, dst, sent, delivered, reorder_depth)`.
    /// Empty when no fault plan is armed or no flow has carried traffic.
    pub fn transport_flows(&self) -> Vec<(NodeId, NodeId, u64, u64, usize)> {
        let Some(f) = &self.faults else {
            return Vec::new();
        };
        let n = f.nodes;
        f.flows
            .iter()
            .enumerate()
            .filter_map(|(i, st)| {
                let st = st.as_ref()?;
                let (a, b) = (NodeId((i / n) as u16), NodeId((i % n) as u16));
                Some((a, b, st.next_seq, st.next_expected, st.reorder_buf.len()))
            })
            .collect()
    }

    /// Send one message at simulated time `now`; returns its arrival time at
    /// the destination NI (before the receiving controller's `mc` occupancy,
    /// which the latency model charges separately).
    ///
    /// Cut-through model: the message's own serialization overlaps its
    /// traversal (arrival = injection start + `net`), but it occupies the
    /// sender's NI for its full serialization time, delaying later messages
    /// — that queueing is where contention shows up.
    ///
    /// Intra-node transfers (`from == to`) are free and uncounted.
    pub fn send(&mut self, now: u64, from: NodeId, to: NodeId, kind: MsgKind) -> u64 {
        if from == to {
            return now;
        }
        self.traffic.record(kind, self.block_bytes);
        let occupancy = (kind.size_bytes(self.block_bytes) / LINK_BYTES_PER_CYCLE).max(1);
        let ni = &mut self.ni_busy_until[from.idx()];
        let mut t = (*ni).max(now);
        *ni = t + occupancy;
        // Traverse the route, booking each link (wormhole cut-through: the
        // header advances one `net` delay per link; the body's occupancy
        // trails behind and is what later messages queue on).
        let nodes = self.ni_busy_until.len();
        for (a, b) in self.topology.route(from, to) {
            let busy = &mut self.link_busy_until[a.idx() * nodes + b.idx()];
            let start = (*busy).max(t);
            *busy = start + occupancy;
            t = start + self.latency.net;
        }
        if let Some(f) = &mut self.faults {
            t += f.roll_spike();
        }
        t
    }

    /// Send a coherence *request* that the fault injector may NACK, and
    /// that the recovery transport carries exactly once, in order, when any
    /// drop/dup/reorder class is armed.
    ///
    /// A NACKed request still travels to the receiver (and is counted as
    /// traffic) but is refused there; a [`MsgKind::Retry`] bounce is sent
    /// back, and the returned [`Delivery::Nacked`] time is when that bounce
    /// reaches the sender. Intra-node requests are never NACKed (they do
    /// not enter the network). Without an armed fault plan this is exactly
    /// [`Network::send`].
    pub fn send_request(&mut self, now: u64, from: NodeId, to: NodeId, kind: MsgKind) -> Delivery {
        if from == to {
            return Delivery::Delivered(now);
        }
        let nack = match &mut self.faults {
            Some(f) => f.roll_nack(),
            None => false,
        };
        let arrive = self.transport_send(now, from, to, kind);
        if nack {
            let back = self.send(arrive, to, from, MsgKind::Retry);
            Delivery::Nacked(back)
        } else {
            Delivery::Delivered(arrive)
        }
    }

    /// Carry one sequenced message over the lossy wire and return the time
    /// the receiver releases it — exactly once, in order — to the protocol
    /// layer.
    ///
    /// Stop-and-wait ARQ: the sender assigns a per-flow sequence number and
    /// retransmits on a deterministic timeout with capped exponential
    /// backoff; a drop streak longer than `max_consecutive_nacks` forces
    /// delivery, bounding worst-case latency. The receiver suppresses
    /// duplicate sequence numbers (load-bearing when the *ACK* is the copy
    /// that drops: the sender retransmits a message the receiver already
    /// delivered) and re-sequences detained copies through the bounded
    /// reorder buffer. When every transport class is disabled this is
    /// exactly [`Network::send`] and consumes no randomness.
    fn transport_send(&mut self, now: u64, from: NodeId, to: NodeId, kind: MsgKind) -> u64 {
        let cfg = match &self.faults {
            Some(f) if f.cfg.transport_enabled() => f.cfg,
            _ => return self.send(now, from, to, kind),
        };
        let seq = {
            // ccsim-lint: allow(unwrap): guarded by the match above — the plan is armed
            let f = self.faults.as_mut().unwrap();
            f.flow_mut(from, to).take_seq()
        };
        let mut rto = self.latency.net.max(1);
        let rto_cap = rto * 64;
        let mut t = now;
        let mut streak = 0u32;
        // ccsim-lint: allow(unbounded-retry): backoff capped at rto_cap, drop streak bounded by max_consecutive_nacks
        let arrive = loop {
            let dropped = streak < cfg.max_consecutive_nacks && {
                // ccsim-lint: allow(unwrap): plan is armed on this path
                self.faults.as_mut().unwrap().roll_drop(from, to)
            };
            if !dropped {
                if streak >= cfg.max_consecutive_nacks {
                    // ccsim-lint: allow(unwrap): plan is armed on this path
                    self.faults.as_mut().unwrap().stats.forced_deliveries += 1;
                }
                break self.send(t, from, to, kind);
            }
            // The copy is injected (occupying the NI and links like any
            // message) but never arrives; the sender times out and re-sends.
            let _ = self.send(t, from, to, kind);
            // ccsim-lint: allow(unwrap): plan is armed on this path
            let f = self.faults.as_mut().unwrap();
            f.stats.drops += 1;
            f.stats.retransmits += 1;
            streak += 1;
            t += rto;
            rto = (rto * 2).min(rto_cap);
        };
        // Duplication: a second copy of the same sequence number arrives
        // right behind the first; the receiver's dedup suppresses it.
        // ccsim-lint: allow(unwrap): plan is armed on this path
        if self.faults.as_mut().unwrap().roll_dup(from, to) {
            let _ = self.send(t, from, to, kind);
            self.suppress_duplicate();
        }
        // Reordering: the copy is detained in the receiver's reorder buffer
        // behind an out-of-order arrival for one traversal delay before the
        // re-sequencer releases it.
        // ccsim-lint: allow(unwrap): plan is armed on this path
        let detained = self.faults.as_mut().unwrap().roll_reorder(from, to);
        let mut release = arrive + if detained { self.latency.net.max(1) } else { 0 };
        {
            // ccsim-lint: allow(unwrap): plan is armed on this path
            let f = self.faults.as_mut().unwrap();
            if detained {
                f.stats.reorders += 1;
            }
            match f.flow_mut(from, to).accept(seq, release) {
                AcceptOutcome::Delivered(at) => release = at,
                // Stop-and-wait keeps one message in flight per flow, so
                // the in-order copy always releases immediately.
                other => unreachable!("stop-and-wait delivery must be in order, got {other:?}"),
            }
        }
        // The receiver acknowledges; a lost ACK makes the sender retransmit
        // a message the receiver has already delivered, and the dedup (or
        // its seeded skip-dedup mutation) decides what happens next.
        let mut ack_from = release;
        let mut ack_streak = 0u32;
        // ccsim-lint: allow(unbounded-retry): ACK-loss streaks share the max_consecutive_nacks forced-delivery bound
        loop {
            let ack_arrive = self.send(ack_from, to, from, MsgKind::Ack);
            // ccsim-lint: allow(unwrap): plan is armed on this path
            let ack_lost = ack_streak < cfg.max_consecutive_nacks
                && self.faults.as_mut().unwrap().roll_drop(from, to);
            if !ack_lost {
                // ccsim-lint: allow(unwrap): plan is armed on this path
                let f = self.faults.as_mut().unwrap();
                f.stats.acks += 1;
                if ack_streak >= cfg.max_consecutive_nacks {
                    f.stats.forced_deliveries += 1;
                }
                break;
            }
            // ccsim-lint: allow(unwrap): plan is armed on this path
            let f = self.faults.as_mut().unwrap();
            f.stats.drops += 1;
            f.stats.retransmits += 1;
            ack_streak += 1;
            // Sender's timeout fires; the retransmitted copy reaches the
            // receiver, which dedups it and acks again.
            let retx_arrive = self.send(ack_arrive + rto, from, to, kind);
            self.suppress_duplicate();
            ack_from = retx_arrive;
        }
        release
    }

    /// Receiver-side handling of a copy whose sequence number was already
    /// delivered: suppressed by dedup, or — under the seeded skip-dedup
    /// mutation — leaked through to the protocol layer.
    fn suppress_duplicate(&mut self) {
        if self.dedup_disabled() {
            self.leaked_duplicates += 1;
            return;
        }
        // ccsim-lint: allow(unwrap): only called with an armed plan
        self.faults.as_mut().unwrap().stats.dups_suppressed += 1;
    }

    /// Account a message without modeling its timing (used for messages that
    /// travel in parallel with the critical path, e.g. sharing writebacks,
    /// or fire-and-forget hints).
    pub fn send_background(&mut self, now: u64, from: NodeId, to: NodeId, kind: MsgKind) {
        if from == to {
            return;
        }
        self.traffic.record(kind, self.block_bytes);
        // Background messages still occupy the sender's NI.
        let occupancy = (kind.size_bytes(self.block_bytes) / LINK_BYTES_PER_CYCLE).max(1);
        let ni = &mut self.ni_busy_until[from.idx()];
        let start = (*ni).max(now);
        *ni = start + occupancy;
    }

    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Earliest cycle at which `node`'s NI is free (diagnostics).
    pub fn ni_free_at(&self, node: NodeId) -> u64 {
        self.ni_busy_until[node.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(4, LatencyConfig::default(), 16)
    }

    #[test]
    fn intra_node_send_is_free_and_uncounted() {
        let mut n = net();
        let t = n.send(100, NodeId(1), NodeId(1), MsgKind::ReadReq);
        assert_eq!(t, 100);
        assert_eq!(n.traffic().total_messages(), 0);
    }

    #[test]
    fn remote_send_takes_traversal_delay() {
        let mut n = net();
        // Cut-through: arrival = injection + 40-cycle traversal.
        let t = n.send(100, NodeId(0), NodeId(1), MsgKind::ReadReq);
        assert_eq!(t, 100 + 40);
        assert_eq!(n.traffic().total_messages(), 1);
        assert_eq!(n.traffic().class(MsgClass::Read).messages, 1);
        assert_eq!(n.traffic().class(MsgClass::Read).bytes, 8);
    }

    #[test]
    fn data_messages_occupy_the_ni_longer() {
        let mut n = net();
        // 8 + 16 bytes = 3 cycles occupancy; own arrival still now + net.
        let t = n.send(0, NodeId(0), NodeId(1), MsgKind::ReadReply);
        assert_eq!(t, 40);
        assert_eq!(n.ni_free_at(NodeId(0)), 3);
        assert_eq!(n.traffic().class(MsgClass::Read).bytes, 24);
    }

    #[test]
    fn contention_queues_at_the_sender_ni() {
        let mut n = net();
        let t1 = n.send(0, NodeId(0), NodeId(1), MsgKind::ReadReply); // NI busy [0,3)
        let t2 = n.send(0, NodeId(0), NodeId(2), MsgKind::ReadReq); // queued behind
        assert_eq!(t1, 40);
        assert_eq!(t2, 3 + 40);
        // A different node's NI is unaffected.
        let t3 = n.send(0, NodeId(3), NodeId(0), MsgKind::ReadReq);
        assert_eq!(t3, 40);
    }

    #[test]
    fn idle_ni_does_not_queue() {
        let mut n = net();
        n.send(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        // Much later, no queueing.
        let t = n.send(1000, NodeId(0), NodeId(1), MsgKind::ReadReq);
        assert_eq!(t, 1040);
    }

    #[test]
    fn invalidations_counted_separately() {
        let mut n = net();
        n.send(0, NodeId(0), NodeId(1), MsgKind::Inval);
        n.send(0, NodeId(0), NodeId(2), MsgKind::Inval);
        n.send(0, NodeId(1), NodeId(0), MsgKind::InvalAck);
        assert_eq!(n.traffic().invalidations(), 2);
        assert_eq!(n.traffic().class(MsgClass::Write).messages, 3);
    }

    #[test]
    fn background_sends_counted_but_untimed() {
        let mut n = net();
        n.send_background(0, NodeId(0), NodeId(1), MsgKind::SharingWriteback);
        assert_eq!(n.traffic().total_messages(), 1);
        // It still occupies the NI.
        assert!(n.ni_free_at(NodeId(0)) > 0);
        // Intra-node background is free.
        n.send_background(0, NodeId(2), NodeId(2), MsgKind::ReplHint);
        assert_eq!(n.traffic().total_messages(), 1);
    }

    #[test]
    fn mesh_distance_costs_hops() {
        // 4x1 mesh (a line): 0-1-2-3.
        let mut n = Network::with_topology(
            4,
            LatencyConfig::default(),
            16,
            Topology::Mesh2D { width: 4 },
        );
        let t1 = n.send(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        assert_eq!(t1, 40, "one hop");
        let t3 = n.send(1000, NodeId(0), NodeId(3), MsgKind::ReadReq);
        assert_eq!(t3, 1000 + 3 * 40, "three hops");
    }

    #[test]
    fn mesh_links_contend_independently() {
        let mut n = Network::with_topology(
            4,
            LatencyConfig::default(),
            16,
            Topology::Mesh2D { width: 4 },
        );
        // A long message 1->2 occupies link (1,2).
        n.send(0, NodeId(1), NodeId(2), MsgKind::ReadReply); // occupancy 3
                                                             // A message 0->3 must cross (1,2) and queues behind it there.
        let t = n.send(0, NodeId(0), NodeId(3), MsgKind::ReadReq);
        // Link (0,1): start 0, arrive 40. Link (1,2): busy until 3 but we
        // arrive at 40 anyway -> 80. Link (2,3): -> 120.
        assert_eq!(t, 120);
        // Now saturate (1,2) far into the future and observe queueing.
        for _ in 0..50 {
            n.send(200, NodeId(1), NodeId(2), MsgKind::ReadReply);
        }
        let t2 = n.send(200, NodeId(0), NodeId(3), MsgKind::ReadReq);
        assert!(t2 > 200 + 120, "congested middle link must delay the route");
    }

    #[test]
    fn traffic_json_round_trips() {
        let mut n = net();
        n.send(0, NodeId(0), NodeId(1), MsgKind::ReadReply);
        n.send(0, NodeId(0), NodeId(2), MsgKind::Inval);
        n.send_background(0, NodeId(1), NodeId(0), MsgKind::SharingWriteback);
        let t = n.traffic().clone();
        let back = Traffic::from_json(&Json::parse(&t.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, t);
        // `by_kind` lists the kinds sent, by name rather than declaration
        // order, as the canonical JSON always has.
        let json = t.to_json();
        let names: Vec<&str> = json
            .get("by_kind")
            .and_then(|j| j.as_obj().ok())
            .expect("by_kind object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["Inval", "ReadReply", "SharingWriteback"]);
        // Unknown kinds must fail the decode, not vanish.
        let mut j = t.to_json();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "by_kind" {
                    *v = Json::obj(vec![("Bogus", Json::U64(1))]);
                }
            }
        }
        assert!(Traffic::from_json(&j).is_err());
    }

    #[test]
    fn try_with_topology_reports_bad_shapes() {
        let err = Network::try_with_topology(
            5,
            LatencyConfig::default(),
            16,
            Topology::Mesh2D { width: 3 },
        );
        assert!(err.is_err(), "5 nodes cannot fill a width-3 mesh");
        assert!(Network::try_with_topology(
            4,
            LatencyConfig::default(),
            16,
            Topology::PointToPoint
        )
        .is_ok());
    }

    fn fault_cfg(nack: u16, delay: u16, max_delay: u64) -> FaultConfig {
        FaultConfig {
            nack_per_mille: nack,
            delay_per_mille: delay,
            max_delay_cycles: max_delay,
            seed: 0xFA17,
            ..FaultConfig::default()
        }
    }

    fn transport_cfg(drop: u16, dup: u16, reorder: u16) -> FaultConfig {
        FaultConfig {
            drop_per_mille: drop,
            dup_per_mille: dup,
            reorder_per_mille: reorder,
            seed: 0xFA17,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn send_request_without_faults_matches_send() {
        let mut a = net();
        let mut b = net();
        let d = a.send_request(100, NodeId(0), NodeId(1), MsgKind::ReadReq);
        let t = b.send(100, NodeId(0), NodeId(1), MsgKind::ReadReq);
        assert_eq!(d, Delivery::Delivered(t));
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.fault_stats(), FaultStats::default());
    }

    #[test]
    fn certain_nacks_bounce_with_retry_traffic() {
        let mut n = net();
        n.install_faults(fault_cfg(1000, 0, 0));
        let d = n.send_request(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        let Delivery::Nacked(back) = d else {
            panic!("rate-1000 plan must NACK, got {d:?}");
        };
        // Request hop + Retry hop, both real traversals.
        assert_eq!(back, 2 * 40);
        assert_eq!(n.traffic().kind_count(MsgKind::ReadReq), 1);
        assert_eq!(n.traffic().kind_count(MsgKind::Retry), 1);
        assert_eq!(n.fault_stats().nacks, 1);
    }

    #[test]
    fn nack_streaks_are_bounded_for_forward_progress() {
        let mut n = net();
        n.install_faults(fault_cfg(1000, 0, 0));
        let bound = FaultConfig::default().max_consecutive_nacks;
        let mut delivered = false;
        for i in 0..=bound {
            match n.send_request(0, NodeId(0), NodeId(1), MsgKind::ReadReq) {
                Delivery::Delivered(_) => {
                    assert_eq!(i, bound, "forced delivery ends the streak");
                    delivered = true;
                }
                Delivery::Nacked(_) => assert!(i < bound),
            }
        }
        assert!(delivered);
        assert_eq!(n.fault_stats().forced_deliveries, 1);
    }

    #[test]
    fn nack_streak_bound_is_configurable() {
        let mut cfg = fault_cfg(1000, 0, 0);
        cfg.max_consecutive_nacks = 2;
        let mut n = net();
        n.install_faults(cfg);
        let outcomes: Vec<_> = (0..3)
            .map(|_| n.send_request(0, NodeId(0), NodeId(1), MsgKind::ReadReq))
            .collect();
        assert!(matches!(outcomes[0], Delivery::Nacked(_)));
        assert!(matches!(outcomes[1], Delivery::Nacked(_)));
        assert!(
            matches!(outcomes[2], Delivery::Delivered(_)),
            "streak of 2 must force the third delivery"
        );
    }

    #[test]
    fn nacked_requests_never_skip_intra_node() {
        let mut n = net();
        n.install_faults(fault_cfg(1000, 0, 0));
        let d = n.send_request(7, NodeId(2), NodeId(2), MsgKind::ReadReq);
        assert_eq!(d, Delivery::Delivered(7));
        assert_eq!(n.fault_stats().nacks, 0);
    }

    #[test]
    fn delay_spikes_stretch_arrival_deterministically() {
        let mut a = net();
        a.install_faults(fault_cfg(0, 1000, 25));
        let t = a.send(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        assert!(t > 40 && t <= 40 + 25, "spiked arrival out of range: {t}");
        assert_eq!(a.fault_stats().delay_spikes, 1);
        assert_eq!(a.fault_stats().delay_cycles, t - 40);
        // Same plan, same calls => identical timing.
        let mut b = net();
        b.install_faults(fault_cfg(0, 1000, 25));
        assert_eq!(b.send(0, NodeId(0), NodeId(1), MsgKind::ReadReq), t);
    }

    #[test]
    fn disabled_plan_is_not_armed() {
        let mut n = net();
        n.install_faults(FaultConfig::default());
        let t = n.send(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        assert_eq!(t, 40);
        assert_eq!(n.fault_stats(), FaultStats::default());
    }

    #[test]
    fn drops_recover_by_retransmission() {
        let mut n = net();
        n.install_faults(transport_cfg(1000, 0, 0));
        let bound = FaultConfig::default().max_consecutive_nacks as u64;
        let d = n.send_request(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        let Delivery::Delivered(at) = d else {
            panic!("drop faults must be recovered, got {d:?}");
        };
        // Every pre-forced attempt dropped, then the ACK-loss streak forced
        // delivery too: both streaks hit the bound once.
        let s = n.fault_stats();
        assert_eq!(s.drops, 2 * bound, "message drops + ack drops");
        assert_eq!(s.retransmits, 2 * bound);
        assert_eq!(s.forced_deliveries, 2);
        assert_eq!(s.dups_suppressed, bound, "each ack-loss retransmit dedups");
        assert_eq!(s.acks, 1);
        // Retransmissions push arrival well past the fault-free 40 cycles.
        assert!(at > 40, "retransmitted delivery must be late, got {at}");
        // All copies are honest traffic: dropped+delivered requests and
        // ack-loss retransmits, plus every ACK injection.
        assert_eq!(
            n.traffic().kind_count(MsgKind::ReadReq),
            2 * bound + 1,
            "8 dropped + 1 delivered + 8 ack-loss retransmits"
        );
        assert_eq!(n.traffic().kind_count(MsgKind::Ack), bound + 1);
    }

    #[test]
    fn duplicates_are_suppressed_exactly_once() {
        let mut n = net();
        n.install_faults(transport_cfg(0, 1000, 0));
        for i in 0..3u64 {
            let d = n.send_request(i * 1000, NodeId(0), NodeId(1), MsgKind::WriteMissReq);
            assert!(matches!(d, Delivery::Delivered(_)));
        }
        let s = n.fault_stats();
        assert_eq!(
            s.dups_suppressed, 3,
            "one duplicate per message, all suppressed"
        );
        assert_eq!(s.drops, 0);
        assert_eq!(s.acks, 3);
        // The duplicate copies are real traffic: 2 copies per message.
        assert_eq!(n.traffic().kind_count(MsgKind::WriteMissReq), 6);
        // Exactly-once, in-order: sender and receiver cursors agree, and
        // nothing is parked.
        assert_eq!(n.transport_flows(), vec![(NodeId(0), NodeId(1), 3, 3, 0)]);
    }

    #[test]
    fn reordered_copies_are_detained_then_released_in_order() {
        let mut n = net();
        n.install_faults(transport_cfg(0, 0, 1000));
        let d = n.send_request(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        // Fault-free arrival is 40; detention adds one traversal delay.
        assert_eq!(d, Delivery::Delivered(80));
        assert_eq!(n.fault_stats().reorders, 1);
        assert_eq!(n.transport_flows(), vec![(NodeId(0), NodeId(1), 1, 1, 0)]);
    }

    #[test]
    fn transport_delivery_is_deterministic() {
        fn run() -> (Vec<Delivery>, FaultStats) {
            let mut n = net();
            n.install_faults(transport_cfg(200, 150, 100));
            let ds = (0..32)
                .map(|i| {
                    let from = NodeId((i % 3) as u16);
                    let to = NodeId(3);
                    n.send_request(i * 50, from, to, MsgKind::ReadReq)
                })
                .collect();
            (ds, n.fault_stats())
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn transport_flows_have_disjoint_streams() {
        // Flow (0,1) must see the same faults whether or not flow (2,3)
        // carries interleaved traffic: per-flow rngs, disjoint NIs/links.
        let mut solo = net();
        solo.install_faults(transport_cfg(300, 300, 300));
        let solo_ds: Vec<_> = (0..16)
            .map(|i| solo.send_request(i * 500, NodeId(0), NodeId(1), MsgKind::ReadReq))
            .collect();
        let mut mixed = net();
        mixed.install_faults(transport_cfg(300, 300, 300));
        let mixed_ds: Vec<_> = (0..16)
            .map(|i| {
                let _ = mixed.send_request(i * 500, NodeId(2), NodeId(3), MsgKind::WriteMissReq);
                mixed.send_request(i * 500, NodeId(0), NodeId(1), MsgKind::ReadReq)
            })
            .collect();
        assert_eq!(solo_ds, mixed_ds);
    }

    #[test]
    fn heavy_mixed_faults_still_deliver_exactly_once_in_order() {
        let mut n = net();
        n.install_faults(transport_cfg(400, 400, 400));
        for i in 0..64u64 {
            let d = n.send_request(i * 100, NodeId(0), NodeId(1), MsgKind::UpgradeReq);
            assert!(matches!(d, Delivery::Delivered(_) | Delivery::Nacked(_)));
        }
        let rows = n.transport_flows();
        assert_eq!(rows.len(), 1);
        let (from, to, sent, delivered, parked) = rows[0];
        assert_eq!((from, to), (NodeId(0), NodeId(1)));
        assert_eq!(sent, 64);
        assert_eq!(delivered, 64, "every sequence number released exactly once");
        assert_eq!(parked, 0);
        assert_eq!(n.take_leaked_duplicates(), 0, "dedup never leaks");
    }

    #[test]
    fn transport_disabled_consumes_no_randomness() {
        // A NACK-only plan must behave exactly as before the transport
        // existed: no seq state, no Ack traffic, identical timing.
        let mut n = net();
        n.install_faults(fault_cfg(0, 1000, 25));
        let t = n.send_request(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        let mut plain = net();
        plain.install_faults(fault_cfg(0, 1000, 25));
        let t2 = Delivery::Delivered(plain.send(0, NodeId(0), NodeId(1), MsgKind::ReadReq));
        assert_eq!(t, t2);
        assert_eq!(n.transport_flows(), Vec::new());
        assert_eq!(n.traffic().kind_count(MsgKind::Ack), 0);
    }

    #[cfg(feature = "testing")]
    #[test]
    fn skip_dedup_mutation_leaks_duplicates() {
        let mut n = net();
        n.install_faults(transport_cfg(0, 1000, 0));
        n.install_skip_dedup();
        let d = n.send_request(0, NodeId(0), NodeId(1), MsgKind::WriteMissReq);
        assert!(matches!(d, Delivery::Delivered(_)));
        assert_eq!(n.fault_stats().dups_suppressed, 0, "dedup is off");
        assert_eq!(n.take_leaked_duplicates(), 1, "the duplicate leaked");
        assert_eq!(n.take_leaked_duplicates(), 0, "drained");
    }

    #[test]
    fn reorder_buffer_resequences_and_bounds() {
        let mut f = FlowState::new(7);
        // Out-of-order arrival parks.
        assert_eq!(f.accept(1, 100), AcceptOutcome::Parked);
        assert_eq!(f.reorder_buf.len(), 1);
        // A duplicate of a parked copy is suppressed.
        assert_eq!(f.accept(1, 120), AcceptOutcome::Duplicate);
        // The gap fill releases both, at the later of the two times.
        assert_eq!(f.accept(0, 90), AcceptOutcome::Delivered(100));
        assert_eq!(f.next_expected, 2);
        assert!(f.reorder_buf.is_empty());
        // A stale duplicate of a delivered copy is suppressed.
        assert_eq!(f.accept(0, 200), AcceptOutcome::Duplicate);
        // The buffer is bounded: the overflowing arrival is discarded.
        for s in 0..REORDER_BUFFER_CAP as u64 {
            assert_eq!(f.accept(3 + s, 300), AcceptOutcome::Parked);
        }
        assert_eq!(
            f.accept(3 + REORDER_BUFFER_CAP as u64, 300),
            AcceptOutcome::Overflow
        );
        // Draining through a long gap releases everything in order.
        assert_eq!(
            f.accept(2, 400),
            AcceptOutcome::Delivered(400),
            "parked times are earlier, so the gap fill dominates"
        );
        assert_eq!(f.next_expected, 3 + REORDER_BUFFER_CAP as u64);
        assert!(f.reorder_buf.is_empty());
    }

    #[test]
    fn traffic_merge_adds_counters() {
        let mut a = net();
        let mut b = net();
        a.send(0, NodeId(0), NodeId(1), MsgKind::ReadReq);
        b.send(0, NodeId(0), NodeId(1), MsgKind::Inval);
        b.send(0, NodeId(0), NodeId(1), MsgKind::Retry);
        let mut t = a.traffic().clone();
        t.merge(b.traffic());
        assert_eq!(t.total_messages(), 3);
        assert_eq!(t.invalidations(), 1);
        assert_eq!(t.class(MsgClass::Other).messages, 1);
        assert_eq!(t.kind_count(MsgKind::ReadReq), 1);
        assert_eq!(t.kind_count(MsgKind::Inval), 1);
    }
}
