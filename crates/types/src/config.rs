//! Machine configuration: cache geometry, latency model, protocol selection.
//!
//! Defaults mirror Table 1 and Figure 2 of the paper:
//!
//! * L1: 1-cycle access, 4 kB direct-mapped, 16-byte blocks (OLTP uses
//!   64 kB 2-way with 32-byte blocks — see [`MachineConfig::oltp_baseline`]).
//! * L2: 10-cycle access, 64 kB direct-mapped (OLTP: 512 kB).
//! * Memory 40 cycles, memory controller 20 cycles, network traversal
//!   40 cycles; composed so that an uncontended *local* L2 miss costs 100
//!   cycles, a 2-hop *home* miss 220 cycles and a 4-hop *remote*
//!   (read-on-dirty) miss 420 cycles, exactly the derived rows of Table 1.

use ccsim_util::json_record;

/// Geometry and access time of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
    /// Block (line) size in bytes. Must be a power of two, and equal across
    /// levels (the machine has a single coherence granularity).
    pub block_bytes: u64,
    /// Hit access time in cycles.
    pub access_cycles: u64,
}

json_record!(CacheConfig {
    size_bytes,
    assoc,
    block_bytes,
    access_cycles
});

impl CacheConfig {
    /// Number of blocks the cache holds.
    pub fn num_blocks(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_blocks() / self.assoc as u64
    }

    /// Validate size/assoc/block invariants.
    pub fn validate(&self) -> Result<(), String> {
        if !self.size_bytes.is_power_of_two() {
            return Err(format!("cache size {} not a power of two", self.size_bytes));
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "block size {} not a power of two",
                self.block_bytes
            ));
        }
        if self.block_bytes < crate::WORD_BYTES {
            return Err("block smaller than one word".into());
        }
        if self.assoc == 0 || !self.assoc.is_power_of_two() {
            return Err(format!("associativity {} not a power of two", self.assoc));
        }
        if self.num_blocks() < self.assoc as u64 {
            return Err("cache smaller than one set".into());
        }
        Ok(())
    }
}

/// Component latencies of the simulated machine (cycles), per Figure 2.
///
/// Derived end-to-end costs (uncontended):
///
/// * [`LatencyConfig::local_miss`] — L2 miss served by the local memory:
///   `l1_hit + l2_hit + 2*mc + mem + node_bus` = 100 by default.
/// * [`LatencyConfig::home_miss`] — 2-hop miss served by a remote home:
///   `local_miss + 2*(net + mc)` = 220.
/// * [`LatencyConfig::remote_miss`] — 4-hop read-on-dirty miss:
///   `l1_hit + l2_hit + 3*(net + mc) + 2*mc + owner_access + node_bus` = 420.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyConfig {
    /// First-level cache hit.
    pub l1_hit: u64,
    /// Second-level cache hit (additional to the L1 lookup).
    pub l2_hit: u64,
    /// DRAM access.
    pub mem: u64,
    /// Memory-controller / directory occupancy per message handled.
    pub mc: u64,
    /// One network traversal between two nodes.
    pub net: u64,
    /// Remote owner's cache lookup + data extraction on a forwarded request.
    pub owner_access: u64,
    /// Intra-node bus and fill overhead; calibrated so the local miss path
    /// costs exactly the 100 cycles of Table 1.
    pub node_bus: u64,
}

json_record!(LatencyConfig {
    l1_hit,
    l2_hit,
    mem,
    mc,
    net,
    owner_access,
    node_bus
});

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 1,
            l2_hit: 10,
            mem: 40,
            mc: 20,
            net: 40,
            owner_access: 180,
            node_bus: 9,
        }
    }
}

impl LatencyConfig {
    /// L2-miss served from the local node's memory (home = requester).
    pub fn local_miss(&self) -> u64 {
        self.l1_hit + self.l2_hit + 2 * self.mc + self.mem + self.node_bus
    }

    /// L2-miss served by a remote home whose memory holds a clean copy
    /// (two network hops: request + data reply).
    pub fn home_miss(&self) -> u64 {
        self.local_miss() + 2 * (self.net + self.mc)
    }

    /// L2-miss to a block dirty in a third node's cache (four network hops:
    /// request, forward, owner reply — and the sharing writeback travels in
    /// parallel). Path: lookup, request hop, home controller, forward hop,
    /// owner cache access + extraction, reply hop, fill controller, bus.
    pub fn remote_miss(&self) -> u64 {
        self.l1_hit
            + self.l2_hit
            + 3 * (self.net + self.mc)
            + 2 * self.mc
            + self.owner_access
            + self.node_bus
    }

    /// One hop between distinct nodes: a traversal plus the receiving
    /// controller's occupancy. Zero-cost when `from == to`.
    pub fn hop(&self, from: crate::NodeId, to: crate::NodeId) -> u64 {
        if from == to {
            0
        } else {
            self.net + self.mc
        }
    }
}

/// Memory consistency model of the simulated processors.
///
/// §4.2 evaluates a conservative **sequential consistency** implementation:
/// the processor stalls on every L2 miss, reads and writes. §6 observes
/// that "under more relaxed memory models, this reduction of write stall
/// time is probably reduced due to these models' ability to hide remote
/// latencies ... \[the\] technique however has a potential to reduce network
/// traffic under any memory model". [`Consistency::Relaxed`] models an
/// aggressive implementation with an unbounded write buffer: ownership
/// acquisitions retire immediately from the processor's point of view
/// (values and coherence actions are unchanged — the engine still applies
/// them atomically in simulated-time order), so write stall vanishes and
/// only the traffic effect of LS/AD remains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Stall on every L2 miss, read and write (the paper's model).
    Sc,
    /// Hide write latency behind an idealized write buffer.
    Relaxed,
}

/// Which coherence protocol the directory runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// DASH-like full-map write-invalidate protocol (the paper's Baseline).
    Baseline,
    /// Adaptive migratory-sharing detection (Stenström et al., ISCA '93),
    /// the paper's "AD" comparison point.
    Ad,
    /// The paper's contribution: load-store sequence detection ("LS").
    Ls,
    /// Dynamic self-invalidation (Lebeck & Wood, ISCA '95), simplified to
    /// tear-off (uncached) read grants — the §6 related-work comparison.
    /// Not part of the paper's figures ([`ProtocolKind::ALL`] stays the
    /// evaluated trio); used by the `repro_dsi` extension experiment.
    Dsi,
}

impl ProtocolKind {
    /// All three evaluated protocols, in the order the figures present them.
    pub const ALL: [ProtocolKind; 3] = [ProtocolKind::Baseline, ProtocolKind::Ad, ProtocolKind::Ls];

    /// Short label used in figures ("Baseline", "AD", "LS", "DSI").
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Baseline => "Baseline",
            ProtocolKind::Ad => "AD",
            ProtocolKind::Ls => "LS",
            ProtocolKind::Dsi => "DSI",
        }
    }
}

/// Tuning knobs for the LS protocol (§3.1 and the variation analysis of §5.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsConfig {
    /// §5.5: treat every block as load-store by default (LS-bit starts set),
    /// so even the first cold read returns an exclusive copy.
    pub default_tagged: bool,
    /// §5.5 de-tag heuristic: keep the current LS-bit when an ownership
    /// request arrives that was *not* preceded by a read from the same
    /// processor (instead of clearing it).
    pub keep_on_unpaired_write: bool,
    /// §5.5 hysteresis depth for tagging: the load-store pattern must be
    /// observed this many times before the LS-bit is set (1 = immediate,
    /// the paper's default; 2 = "two step deep hysteresis").
    pub tag_hysteresis: u8,
    /// §5.5 hysteresis depth for de-tagging (1 = immediate).
    pub detag_hysteresis: u8,
}

json_record!(LsConfig {
    default_tagged,
    keep_on_unpaired_write,
    tag_hysteresis,
    detag_hysteresis
});

impl Default for LsConfig {
    fn default() -> Self {
        LsConfig {
            default_tagged: false,
            keep_on_unpaired_write: false,
            tag_hysteresis: 1,
            detag_hysteresis: 1,
        }
    }
}

/// Tuning knobs for the AD (adaptive migratory) protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdConfig {
    /// §5.5: treat every block as migratory by default.
    pub default_tagged: bool,
}

json_record!(AdConfig { default_tagged });

/// A deliberately broken protocol rule, used by the model checker's mutation
/// tests (and nothing else) to prove the checker actually detects bugs.
///
/// The enum itself is always available so tools can *name* mutations, but a
/// mutation can only be installed into a [`ProtocolConfig`] when the
/// `testing` cargo feature is enabled; release builds physically cannot run
/// a mutated protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleMutation {
    /// LS: skip the de-tag vote on an unpaired ownership acquisition, so a
    /// block wrongly keeps its LS-bit after the load-store pattern ends.
    SkipLsDetag,
    /// Drop the `NotLS` notification when a read finds an unwritten
    /// exclusive grant: the directory neither reports nor de-tags.
    DropNotLs,
    /// A write to a shared block acquires ownership without invalidating
    /// the other sharers (breaks SWMR directly).
    DropInvalidations,
    /// Keep the LR (last-reader) field across an ownership acquisition
    /// instead of invalidating it, corrupting future pairing decisions.
    KeepLrOnOwnership,
}

impl RuleMutation {
    /// Every seeded mutation, for exhaustive mutation-coverage tests.
    pub const ALL: [RuleMutation; 4] = [
        RuleMutation::SkipLsDetag,
        RuleMutation::DropNotLs,
        RuleMutation::DropInvalidations,
        RuleMutation::KeepLrOnOwnership,
    ];

    /// Stable CLI name of the mutation.
    pub fn label(self) -> &'static str {
        match self {
            RuleMutation::SkipLsDetag => "skip-ls-detag",
            RuleMutation::DropNotLs => "drop-notls",
            RuleMutation::DropInvalidations => "drop-invalidations",
            RuleMutation::KeepLrOnOwnership => "keep-lr-on-ownership",
        }
    }

    /// Parse a CLI name produced by [`RuleMutation::label`].
    pub fn parse(s: &str) -> Option<RuleMutation> {
        RuleMutation::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// A deliberately broken *transport* rule, the recovery-transport analogue
/// of [`RuleMutation`]: used by the model checker and chaos harness to
/// prove they convict transport bugs. Like rule mutations, one can only be
/// installed in `testing` builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransportMutation {
    /// The receiver skips sequence-number dedup, so a duplicated copy of a
    /// completed request is re-applied — the classic stale-ownership bug an
    /// exactly-once transport exists to prevent.
    SkipDedup,
}

impl TransportMutation {
    /// Every seeded transport mutation, for exhaustive coverage tests.
    pub const ALL: [TransportMutation; 1] = [TransportMutation::SkipDedup];

    /// Stable CLI name of the mutation.
    pub fn label(self) -> &'static str {
        match self {
            TransportMutation::SkipDedup => "skip-dedup",
        }
    }

    /// Parse a CLI name produced by [`TransportMutation::label`].
    pub fn parse(s: &str) -> Option<TransportMutation> {
        TransportMutation::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// Protocol selection plus variant knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolConfig {
    pub kind: ProtocolKind,
    pub ls: LsConfig,
    pub ad: AdConfig,
    /// Seeded rule mutation for checker-validation tests. Only exists under
    /// the `testing` feature; construct via [`ProtocolConfig::with_rule_mutation`]
    /// and read via [`ProtocolConfig::rule_mutation`] (which is always
    /// available and returns `None` in normal builds). Deliberately absent
    /// from the canonical JSON encoding: mutated configs are never cached.
    #[cfg(feature = "testing")]
    pub mutation: Option<RuleMutation>,
}

impl ProtocolConfig {
    pub fn new(kind: ProtocolKind) -> Self {
        ProtocolConfig {
            kind,
            ls: LsConfig::default(),
            ad: AdConfig::default(),
            #[cfg(feature = "testing")]
            mutation: None,
        }
    }

    /// The seeded rule mutation, if any. Always `None` without the
    /// `testing` feature, so protocol code can consult it unconditionally.
    pub fn rule_mutation(&self) -> Option<RuleMutation> {
        #[cfg(feature = "testing")]
        let m = self.mutation;
        #[cfg(not(feature = "testing"))]
        let m = None;
        m
    }

    /// Install a seeded rule mutation (testing builds only).
    #[cfg(feature = "testing")]
    pub fn with_rule_mutation(mut self, mutation: RuleMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }
}

/// Deterministic fault-injection plan for the interconnect.
///
/// Faults are adversarial but *honest*: a NACKed request really reaches the
/// receiver and is bounced back with a [`crate::MsgKind::Retry`] message, and
/// a delay spike really advances the arrival time. They therefore perturb
/// timing and add Retry traffic, but a correct protocol must produce the
/// same oracle counts and final memory contents regardless of the plan —
/// the end-to-end property the fault soak asserts.
///
/// All zero rates (the default) disable injection and leave the network's
/// random stream untouched, so fault-free runs are bit-for-bit identical to
/// builds without this feature.
///
/// The drop/dup/reorder classes exercise the recovery transport: a dropped
/// message really vanishes from the wire and must be retransmitted after a
/// timeout, a duplicated message really arrives twice and must be suppressed
/// by the receiver, and a reordered message really overtakes its successor
/// and must wait in the receiver's reorder buffer. The protocol layer above
/// the transport still observes an exactly-once, in-order stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Probability, in 1/1000 units, that a coherence *request* is NACKed
    /// by the receiver and must be retried by the sender.
    pub nack_per_mille: u16,
    /// Probability, in 1/1000 units, that any timed message suffers a
    /// delivery delay spike.
    pub delay_per_mille: u16,
    /// Probability, in 1/1000 units, that a transported message is lost on
    /// the wire and must be recovered by timeout-and-retransmit.
    pub drop_per_mille: u16,
    /// Probability, in 1/1000 units, that a transported message arrives a
    /// second time and must be suppressed by receiver-side dedup.
    pub dup_per_mille: u16,
    /// Probability, in 1/1000 units, that a transported message is detained
    /// past its successor and re-sequenced in the receiver's reorder buffer.
    pub reorder_per_mille: u16,
    /// Maximum extra cycles a delay spike adds (spikes are uniform in
    /// `1..=max_delay_cycles`). Must be positive when `delay_per_mille > 0`.
    pub max_delay_cycles: u64,
    /// Forced delivery after this many consecutive adversarial rolls
    /// (NACK streaks and drop streaks alike): the plan gives up and lets
    /// the message through, bounding worst-case latency and guaranteeing
    /// forward progress. Must be at least 1.
    pub max_consecutive_nacks: u32,
    /// Seed of the fault plan's private xoshiro256++ streams.
    pub seed: u64,
    /// Seeded transport mutation for checker-validation tests (e.g. skip
    /// receiver dedup). Only exists under the `testing` feature; construct
    /// via [`FaultConfig::with_transport_mutation`] and read via
    /// [`FaultConfig::transport_mutation`] (which is always available and
    /// returns `None` in normal builds). Deliberately absent from the
    /// canonical JSON encoding: mutated configs are never cached.
    #[cfg(feature = "testing")]
    pub mutation: Option<TransportMutation>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            nack_per_mille: 0,
            delay_per_mille: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            reorder_per_mille: 0,
            max_delay_cycles: 0,
            max_consecutive_nacks: 8,
            seed: 0,
            #[cfg(feature = "testing")]
            mutation: None,
        }
    }
}

impl FaultConfig {
    /// Whether any fault class is enabled.
    pub fn enabled(&self) -> bool {
        self.nack_per_mille > 0
            || self.delay_per_mille > 0
            || self.drop_per_mille > 0
            || self.dup_per_mille > 0
            || self.reorder_per_mille > 0
    }

    /// Whether any transport-level class (drop/dup/reorder) is enabled,
    /// i.e. whether the recovery transport has work to do.
    pub fn transport_enabled(&self) -> bool {
        self.drop_per_mille > 0 || self.dup_per_mille > 0 || self.reorder_per_mille > 0
    }

    /// The seeded transport mutation, if any. Always `None` without the
    /// `testing` feature, so transport code can consult it unconditionally.
    pub fn transport_mutation(&self) -> Option<TransportMutation> {
        #[cfg(feature = "testing")]
        let m = self.mutation;
        #[cfg(not(feature = "testing"))]
        let m = None;
        m
    }

    /// Install a seeded transport mutation (testing builds only).
    #[cfg(feature = "testing")]
    pub fn with_transport_mutation(mut self, mutation: TransportMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Validate rate bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.nack_per_mille > 1000 {
            return Err(format!(
                "fault NACK rate {}/1000 exceeds 1000",
                self.nack_per_mille
            ));
        }
        if self.delay_per_mille > 1000 {
            return Err(format!(
                "fault delay rate {}/1000 exceeds 1000",
                self.delay_per_mille
            ));
        }
        if self.drop_per_mille > 1000 {
            return Err(format!(
                "fault drop rate {}/1000 exceeds 1000",
                self.drop_per_mille
            ));
        }
        if self.dup_per_mille > 1000 {
            return Err(format!(
                "fault dup rate {}/1000 exceeds 1000",
                self.dup_per_mille
            ));
        }
        if self.reorder_per_mille > 1000 {
            return Err(format!(
                "fault reorder rate {}/1000 exceeds 1000",
                self.reorder_per_mille
            ));
        }
        if self.delay_per_mille > 0 && self.max_delay_cycles == 0 {
            return Err("fault delay rate set but max_delay_cycles is zero".into());
        }
        if self.max_consecutive_nacks == 0 {
            return Err("fault max_consecutive_nacks must be at least 1".into());
        }
        Ok(())
    }
}

/// Largest machine the simulator models: directory sharer sets are a
/// full map in one `u64`, one bit per node.
pub const MAX_NODES: u16 = 64;

/// Complete machine description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of nodes (processor + cache hierarchy + memory + directory),
    /// at most [`MAX_NODES`].
    pub nodes: u16,
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    pub latency: LatencyConfig,
    pub protocol: ProtocolConfig,
    /// Physical page size; pages are distributed round-robin across node
    /// memories (§4.2).
    pub page_bytes: u64,
    /// Scheduling quantum of the conservative time-sliced execution model,
    /// in cycles. 1 = strict lowest-clock-first interleaving.
    pub schedule_quantum: u64,
    /// Seed for workload-level randomness; the simulator itself is
    /// deterministic.
    pub seed: u64,
    /// Memory consistency model (the paper evaluates [`Consistency::Sc`]).
    pub consistency: Consistency,
    /// Interconnect topology (the paper evaluates the fixed-delay
    /// point-to-point network; the 2-D mesh is an extension).
    pub topology: crate::Topology,
    /// Deterministic fault-injection plan (disabled by default).
    pub faults: FaultConfig,
}

json_record!(MachineConfig {
    nodes,
    l1,
    l2,
    latency,
    protocol,
    page_bytes,
    schedule_quantum,
    seed,
    consistency,
    topology,
    faults
});

impl MachineConfig {
    /// Baseline configuration used for all applications except OLTP (§4.2):
    /// 4 nodes, direct-mapped 4 kB L1 + 64 kB L2, 16-byte blocks.
    pub fn splash_baseline(protocol: ProtocolKind) -> Self {
        MachineConfig {
            nodes: 4,
            l1: CacheConfig {
                size_bytes: 4 * 1024,
                assoc: 1,
                block_bytes: 16,
                access_cycles: 1,
            },
            l2: CacheConfig {
                size_bytes: 64 * 1024,
                assoc: 1,
                block_bytes: 16,
                access_cycles: 10,
            },
            latency: LatencyConfig::default(),
            protocol: ProtocolConfig::new(protocol),
            page_bytes: 4096,
            schedule_quantum: 1,
            seed: 0xCC51_u64,
            consistency: Consistency::Sc,
            topology: crate::Topology::PointToPoint,
            faults: FaultConfig::default(),
        }
    }

    /// OLTP configuration (§4.2): 64 kB 2-way L1, 512 kB direct-mapped L2,
    /// 32-byte blocks.
    pub fn oltp_baseline(protocol: ProtocolKind) -> Self {
        MachineConfig {
            nodes: 4,
            l1: CacheConfig {
                size_bytes: 64 * 1024,
                assoc: 2,
                block_bytes: 32,
                access_cycles: 1,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                assoc: 1,
                block_bytes: 32,
                access_cycles: 10,
            },
            latency: LatencyConfig::default(),
            protocol: ProtocolConfig::new(protocol),
            page_bytes: 4096,
            schedule_quantum: 1,
            seed: 0xCC51_u64,
            consistency: Consistency::Sc,
            topology: crate::Topology::PointToPoint,
            faults: FaultConfig::default(),
        }
    }

    /// OLTP configuration with the cache hierarchy scaled down by the same
    /// factor as the simulated database (the paper ran a ~600 MB database
    /// against the 512 kB L2 of [`MachineConfig::oltp_baseline`], a 1200:1
    /// ratio; the tractable simulated database is ~4 MB, so an L2 of 64 kB
    /// keeps the capacity/conflict-miss behaviour §5.4 depends on within an
    /// order of magnitude). Documented as a substitution in DESIGN.md.
    pub fn oltp_scaled(protocol: ProtocolKind) -> Self {
        let mut c = Self::oltp_baseline(protocol);
        c.l1 = CacheConfig {
            size_bytes: 8 * 1024,
            assoc: 2,
            block_bytes: 32,
            access_cycles: 1,
        };
        c.l2 = CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 1,
            block_bytes: 32,
            access_cycles: 10,
        };
        c
    }

    /// Change the coherence block size on both levels.
    pub fn with_block_bytes(mut self, block_bytes: u64) -> Self {
        self.l1.block_bytes = block_bytes;
        self.l2.block_bytes = block_bytes;
        self
    }

    /// Change the node count.
    pub fn with_nodes(mut self, nodes: u16) -> Self {
        self.nodes = nodes;
        self
    }

    /// Change the protocol, keeping variant knobs.
    pub fn with_protocol(mut self, kind: ProtocolKind) -> Self {
        self.protocol.kind = kind;
        self
    }

    /// Install a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Validate the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("machine needs at least one node".into());
        }
        if self.nodes > MAX_NODES {
            return Err(format!(
                "machine has {} nodes, but the full-map sharer set is {MAX_NODES} bits wide",
                self.nodes
            ));
        }
        self.l1.validate()?;
        self.l2.validate()?;
        if self.l1.block_bytes != self.l2.block_bytes {
            return Err("L1 and L2 must share one coherence block size".into());
        }
        if self.l2.size_bytes < self.l1.size_bytes {
            return Err("inclusive hierarchy requires L2 >= L1".into());
        }
        if !self.page_bytes.is_power_of_two() || self.page_bytes < self.l2.block_bytes {
            return Err("page size must be a power of two >= block size".into());
        }
        if self.schedule_quantum == 0 {
            return Err("schedule quantum must be positive".into());
        }
        if self.protocol.ls.tag_hysteresis == 0 || self.protocol.ls.detag_hysteresis == 0 {
            return Err("hysteresis depths are 1-based".into());
        }
        self.topology.validate(self.nodes)?;
        self.faults.validate()?;
        Ok(())
    }

    /// Coherence block size (identical across levels).
    pub fn block_bytes(&self) -> u64 {
        self.l2.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_derived_latencies() {
        // The derived rows of Table 1: local 100, home 220, remote 420.
        let l = LatencyConfig::default();
        assert_eq!(l.local_miss(), 100);
        assert_eq!(l.home_miss(), 220);
        assert_eq!(l.remote_miss(), 420);
    }

    #[test]
    fn hop_is_free_locally() {
        let l = LatencyConfig::default();
        assert_eq!(l.hop(crate::NodeId(1), crate::NodeId(1)), 0);
        assert_eq!(l.hop(crate::NodeId(1), crate::NodeId(2)), 60);
    }

    #[test]
    fn default_configs_validate() {
        for kind in ProtocolKind::ALL {
            MachineConfig::splash_baseline(kind).validate().unwrap();
            MachineConfig::oltp_baseline(kind).validate().unwrap();
        }
    }

    #[test]
    fn splash_baseline_matches_section_4_2() {
        let c = MachineConfig::splash_baseline(ProtocolKind::Ls);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.l1.size_bytes, 4 * 1024);
        assert_eq!(c.l1.assoc, 1);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.block_bytes(), 16);
    }

    #[test]
    fn oltp_baseline_matches_section_4_2() {
        let c = MachineConfig::oltp_baseline(ProtocolKind::Ad);
        assert_eq!(c.l1.size_bytes, 64 * 1024);
        assert_eq!(c.l1.assoc, 2);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.block_bytes(), 32);
    }

    #[test]
    fn node_count_is_bounded_by_the_full_map_width() {
        let base = MachineConfig::splash_baseline(ProtocolKind::Ls);
        base.with_nodes(MAX_NODES).validate().unwrap();
        let err = base.with_nodes(MAX_NODES + 1).validate().unwrap_err();
        assert!(err.contains("65 nodes") && err.contains("64 bits"), "{err}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.l1.block_bytes = 24; // not a power of two
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.l1.block_bytes = 32; // mismatch with L2
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.l2.size_bytes = 2 * 1024; // smaller than L1
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.schedule_quantum = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.protocol.ls.tag_hysteresis = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.faults.nack_per_mille = 1001;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.faults.delay_per_mille = 10; // rate set, but no spike magnitude
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.faults.drop_per_mille = 1001;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.faults.dup_per_mille = 1001;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.faults.reorder_per_mille = 1001;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        c.faults.max_consecutive_nacks = 0; // forced delivery bound is 1-based
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_config_defaults_to_disabled() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        assert!(!f.transport_enabled());
        assert_eq!(f.max_consecutive_nacks, 8);
        f.validate().unwrap();
        let f = FaultConfig {
            nack_per_mille: 50,
            seed: 7,
            ..FaultConfig::default()
        };
        assert!(f.enabled());
        assert!(!f.transport_enabled());
        f.validate().unwrap();
        for set in [
            |f: &mut FaultConfig| f.drop_per_mille = 5,
            |f: &mut FaultConfig| f.dup_per_mille = 5,
            |f: &mut FaultConfig| f.reorder_per_mille = 5,
        ] {
            let mut f = FaultConfig::default();
            set(&mut f);
            assert!(f.enabled());
            assert!(f.transport_enabled());
            f.validate().unwrap();
        }
    }

    #[test]
    fn cache_geometry_helpers() {
        let c = CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            block_bytes: 32,
            access_cycles: 1,
        };
        assert_eq!(c.num_blocks(), 2048);
        assert_eq!(c.num_sets(), 1024);
        c.validate().unwrap();
    }

    #[test]
    fn with_builders() {
        let c = MachineConfig::splash_baseline(ProtocolKind::Baseline)
            .with_block_bytes(64)
            .with_nodes(16)
            .with_protocol(ProtocolKind::Ls);
        assert_eq!(c.block_bytes(), 64);
        assert_eq!(c.nodes, 16);
        assert_eq!(c.protocol.kind, ProtocolKind::Ls);
        c.validate().unwrap();
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(ProtocolKind::Baseline.label(), "Baseline");
        assert_eq!(ProtocolKind::Ad.label(), "AD");
        assert_eq!(ProtocolKind::Ls.label(), "LS");
    }
}
