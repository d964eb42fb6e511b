//! One simulated machine: caches, directories, network, memory, and the
//! transaction orchestration between them.
//!
//! Every method takes and returns simulated time explicitly; the threaded
//! runner (`run`) serializes calls in simulated-time order, so `&mut self`
//! access is exact — there are no protocol races to model beyond the
//! busy-block retry mechanism (`Retry` messages, the paper's "Other"
//! traffic).

use ccsim_cache::{Hierarchy, LineState, Probe};
use ccsim_core::rules::{self, CopyState, LocalReadExcl, LocalStore};
use ccsim_core::{DirTable, GrantKind, ReadStep, WriteStep};
use ccsim_mem::{pages, Store};
use ccsim_network::{Delivery, Network};
use ccsim_types::{Addr, BlockAddr, Consistency, MachineConfig, MsgKind, NodeId};
use ccsim_util::{json_record, Slab};

use crate::events::{CoherenceEvent, EventKind, EventLog, WriteHow};
use crate::invariants::{copy_state, line_state, InvariantChecker, InvariantMode, InvariantReport};
use crate::oracle::{Component, FalseSharing, LsOracle};

/// How the time an operation took should be attributed in the execution-time
/// breakdown (Figures 3/4/6/7, left diagrams).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Cache hit: counts as busy time.
    None,
    /// Global read: the processor stalls for the whole miss (SC).
    Read,
    /// Ownership acquisition: write stall.
    Write,
}

/// Engine-level counters not covered by the directory or the network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineCounters {
    pub l1_hits: u64,
    pub l2_hits: u64,
    /// Stores completed silently on an exclusive-clean line — ownership
    /// acquisitions the optimization eliminated.
    pub silent_stores: u64,
    /// Stores that hit a Modified line (always local, all protocols).
    pub dirty_hits: u64,
    /// Transactions bounced off a busy block.
    pub retries: u64,
    /// Requests NACKed by the fault injector and re-issued after backoff.
    pub nacks: u64,
    /// Request copies re-injected by the recovery transport's
    /// timeout-and-retransmit driver (drops and lost ACKs).
    pub retransmits: u64,
}

json_record!(MachineCounters {
    l1_hits,
    l2_hits,
    silent_stores,
    dirty_hits,
    retries,
    nacks,
    retransmits
});

/// Why a processor asks the home for ownership.
#[derive(Clone, Copy, Debug)]
enum Acquire {
    /// An actual store (SC write stall, oracle global write).
    Store(Component),
    /// A static load-exclusive hint (read stall, oracle global read; the
    /// line lands exclusive-clean).
    ReadExclusive,
}

/// The simulated multiprocessor.
pub struct Machine {
    cfg: MachineConfig,
    store: Store,
    net: Network,
    /// All home directories in one dense table (statistics stay split by
    /// home; the home node is a pure function of the address).
    dir: DirTable,
    caches: Vec<Hierarchy>,
    /// Per-block home-side busy window, dense by block index: a transaction
    /// arriving before this time is bounced with a `Retry`. Untouched
    /// entries read 0 = never busy.
    block_busy: Slab<u64>,
    oracle: LsOracle,
    fs: FalseSharing,
    counters: MachineCounters,
    invariants: InvariantChecker,
    /// Coherence event capture (`Some` once enabled). Each transaction
    /// appends its side-effect events first and its access event last —
    /// see `crate::events` for the grouping contract.
    events: Option<Vec<CoherenceEvent>>,
    /// Duplicate request copies the (deliberately broken) skip-dedup
    /// transport let through, pending late delivery at the home directory.
    /// Always empty in healthy runs — the receiver suppresses duplicates.
    #[cfg(feature = "testing")]
    stale_requests: std::collections::VecDeque<(BlockAddr, NodeId, bool)>,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid machine config: {e}"))
    }

    /// Fallible constructor: reports configuration problems (including an
    /// invalid topology) instead of panicking.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, String> {
        cfg.validate()?;
        let mut net =
            Network::try_with_topology(cfg.nodes, cfg.latency, cfg.block_bytes(), cfg.topology)?;
        net.install_faults(cfg.faults);
        #[cfg(feature = "testing")]
        if cfg.faults.transport_mutation() == Some(ccsim_types::TransportMutation::SkipDedup) {
            net.install_skip_dedup();
        }
        Ok(Machine {
            store: Store::new(),
            net,
            dir: DirTable::new(cfg.protocol, cfg.block_bytes(), cfg.nodes),
            caches: (0..cfg.nodes).map(|_| Hierarchy::new(&cfg)).collect(),
            block_busy: Slab::new(),
            oracle: LsOracle::new(cfg.block_bytes()),
            fs: FalseSharing::new(cfg.nodes, cfg.block_bytes()),
            counters: MachineCounters::default(),
            invariants: InvariantChecker::new(InvariantMode::from_env()),
            events: None,
            #[cfg(feature = "testing")]
            stale_requests: std::collections::VecDeque::new(),
            cfg,
        })
    }

    /// Start capturing the coherence event log. Call before any accesses
    /// (including [`Machine::poke`]) so the log covers the whole execution.
    pub fn capture_events(&mut self) {
        if self.events.is_none() {
            self.events = Some(Vec::new());
        }
    }

    /// Take the captured event log (empties the buffer). `None` when
    /// capture was never enabled.
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        let events = self.events.take()?;
        let log = EventLog::from_events(self.cfg.nodes, self.cfg.block_bytes(), events)
            // ccsim-lint: allow(unwrap): every emitted proc is < cfg.nodes by construction
            .expect("machine-emitted events are in range");
        Some(log)
    }

    fn emit(&mut self, proc: NodeId, kind: EventKind) {
        if let Some(events) = &mut self.events {
            events.push(CoherenceEvent { proc, kind });
        }
    }

    /// Select the invariant-checking mode (overrides `CCSIM_INVARIANTS`).
    pub fn set_invariant_mode(&mut self, mode: InvariantMode) {
        self.invariants.set_mode(mode);
    }

    /// What the invariant checker observed so far.
    pub fn invariant_report(&self) -> &InvariantReport {
        self.invariants.report()
    }

    /// What the network's fault injector did so far (zeroes when disabled).
    pub fn fault_stats(&self) -> ccsim_network::FaultStats {
        self.net.fault_stats()
    }

    /// Recovery-transport flow table `(src, dst, sent, delivered,
    /// reorder-buffer depth)`, sorted by `(src, dst)`. Empty unless the
    /// fault plan enables drop/dup/reorder faults. Surfaced in the
    /// forward-progress watchdog report.
    pub fn transport_flows(&self) -> Vec<(NodeId, NodeId, u64, u64, usize)> {
        self.net.transport_flows()
    }

    /// When node `n`'s network interface frees up (watchdog diagnostics).
    pub fn ni_free_at(&self, n: NodeId) -> u64 {
        self.net.ni_free_at(n)
    }

    /// Test-only: disable duplicate suppression in the recovery transport
    /// (the seeded transport mutation). Leaked duplicates are re-delivered
    /// to the home directory at a later access, where the invariant
    /// checker must convict them. Only compiled with the `testing` feature.
    #[cfg(feature = "testing")]
    #[doc(hidden)]
    pub fn install_skip_dedup(&mut self) {
        self.net.install_skip_dedup();
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Home node of the block containing `addr` (round-robin pages, §4.2).
    pub fn home(&self, addr: Addr) -> NodeId {
        pages::home_node(addr, self.cfg.page_bytes, self.cfg.nodes)
    }

    fn block_of(&self, addr: Addr) -> BlockAddr {
        addr.block(self.cfg.block_bytes())
    }

    /// Dense index of `block` (shared by the directory table and the
    /// busy-window slab).
    #[inline]
    fn block_index(&self, block: BlockAddr) -> usize {
        (block.0 / self.cfg.block_bytes()) as usize
    }

    /// Directly read a word (no coherence action; used by the runner to
    /// return load values and by tests).
    pub fn peek(&self, addr: Addr) -> u64 {
        self.store.load(addr)
    }

    /// Directly initialize a word before simulation starts.
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.store.store(addr, value);
        self.invariants.record_golden(addr, value);
        self.emit(NodeId(0), EventKind::Init { addr, value });
    }

    // --- internals ----------------------------------------------------------

    /// One network hop: traversal plus the receiving controller's occupancy
    /// (`net + mc` remote, free intra-node) — the `hop` term of the latency
    /// model in `LatencyConfig`.
    fn hop(&mut self, t: u64, from: NodeId, to: NodeId, kind: MsgKind) -> u64 {
        let t2 = self.net.send(t, from, to, kind);
        if from == to {
            t2
        } else {
            t2 + self.cfg.latency.mc
        }
    }

    /// A request hop the fault injector may NACK: re-issue with capped
    /// exponential backoff until delivered (the `Retry` message's driver).
    /// Termination is guaranteed by the injector's bounded NACK streaks.
    fn request_hop(&mut self, t0: u64, from: NodeId, to: NodeId, kind: MsgKind) -> u64 {
        let lat = self.cfg.latency;
        let mut backoff = lat.net.max(1);
        let cap = backoff * 64;
        let mut t = t0;
        let sent_before = self.net.fault_stats().retransmits;
        // ccsim-lint: allow(unbounded-retry): backoff capped at 64x net, NACK streaks bounded by max_consecutive_nacks
        loop {
            match self.net.send_request(t, from, to, kind) {
                Delivery::Delivered(t2) => {
                    let sent_after = self.net.fault_stats().retransmits;
                    self.counters.retransmits += sent_after - sent_before;
                    return if from == to { t2 } else { t2 + lat.mc };
                }
                Delivery::Nacked(back) => {
                    self.counters.nacks += 1;
                    t = back + backoff;
                    backoff = (backoff * 2).min(cap);
                }
            }
        }
    }

    /// Test-only skip-dedup support: remember duplicate request copies the
    /// mutated receiver let through, attributed to the transaction that
    /// produced them.
    #[cfg(feature = "testing")]
    fn note_leaked_requests(&mut self, block: BlockAddr, p: NodeId, write: bool) {
        for _ in 0..self.net.take_leaked_duplicates() {
            self.stale_requests.push_back((block, p, write));
        }
    }

    /// Test-only skip-dedup support: a leaked duplicate finally reaches the
    /// home directory — during a *later* transaction, when the caches have
    /// moved on — and re-applies its stale transition. No cache is touched:
    /// exactly what an at-least-once transport without receiver dedup does.
    /// The invariant checker (SWMR / state agreement), not this code, is
    /// responsible for convicting the divergence.
    #[cfg(feature = "testing")]
    fn deliver_stale_requests(&mut self, t: u64) {
        let pending = std::mem::take(&mut self.stale_requests);
        for (block, p, write) in pending {
            // Only the interesting duplicates: once another node owns the
            // block, the replayed request steals (or shares) ownership the
            // caches know nothing about. A duplicate arriving while the
            // requester still owns the block is idempotent (the directory
            // front-end rejects same-owner requests) — hold it back until
            // ownership has migrated, like a copy stuck in a slow queue.
            let owned_elsewhere = matches!(
                self.dir.entry(block).map(|e| e.state),
                Some(ccsim_core::HomeState::Owned(o)) if o != p
            );
            if !owned_elsewhere {
                self.stale_requests.push_back((block, p, write));
                continue;
            }
            let home = self.home(block.addr());
            if write {
                if let WriteStep::Forward { .. } = self.dir.write(home, block, p) {
                    self.dir.write_forward_result(home, block, p, false);
                }
            } else if let ReadStep::Forward { .. } = self.dir.read(home, block, p) {
                let _ = self.dir.read_forward_result(home, block, p, false, false);
            }
            self.verify(block, p, t);
        }
    }

    /// Serialize transactions per block: a request arriving inside another
    /// transaction's window is retried.
    fn wait_for_block(&mut self, block: BlockAddr, t: u64, home: NodeId, p: NodeId) -> u64 {
        let busy = self.block_busy.load(self.block_index(block));
        if t < busy {
            self.counters.retries += 1;
            self.net.send_background(t, home, p, MsgKind::Retry);
            busy
        } else {
            t
        }
    }

    /// Install a block in `p`'s hierarchy, handling the L2 victim: notify
    /// the victim's home (replacement hint or writeback) and update the
    /// false-sharing tracker.
    // ccsim-lint: allow(panic-path): node and block indices are bounded by the validated machine geometry
    fn fill(&mut self, p: NodeId, block: BlockAddr, state: LineState, t: u64) {
        if let Some(ev) = self.caches[p.idx()].fill(block, state) {
            self.emit(p, EventKind::Evict { block: ev.block });
            let vhome = self.home(ev.block.addr());
            let check = self.invariants.mode() != InvariantMode::Off;
            let pre = check.then(|| self.dir.entry(ev.block).copied()).flatten();
            self.dir.replacement(vhome, ev.block, p);
            if check {
                let post = self.dir.entry(ev.block).copied();
                let v =
                    rules::check_replacement(&self.cfg.protocol, pre.as_ref(), post.as_ref(), p);
                self.invariants
                    .check_rules(v, ev.block, p, t, self.cfg.protocol.kind);
            }
            self.fs.on_replaced(ev.block, p);
            let kind = if ev.state.is_dirty() {
                MsgKind::ReplWriteback
            } else {
                MsgKind::ReplHint
            };
            self.net.send_background(t, p, vhome, kind);
        }
        self.emit(
            p,
            EventKind::Fill {
                block,
                state: copy_state(state),
            },
        );
    }

    /// Post-transaction invariant hook: re-derive SWMR and directory/cache
    /// agreement for the block the access touched. The holder list goes
    /// into the checker's scratch buffer, so a clean check allocates
    /// nothing.
    fn verify(&mut self, block: BlockAddr, p: NodeId, t: u64) {
        if self.invariants.mode() == InvariantMode::Off {
            return;
        }
        let caches = &self.caches;
        self.invariants.check_holders(
            self.cfg.protocol.kind,
            block,
            self.dir.entry(block),
            p,
            t,
            |out| holders(caches, block, out),
        );
    }

    /// (owner_wrote, owner_dirty) for a forwarded request.
    // ccsim-lint: allow(panic-path): node and block indices are bounded by the validated machine geometry
    fn owner_state(&self, owner: NodeId, block: BlockAddr) -> (bool, bool) {
        let copy = self.caches[owner.idx()].state(block);
        copy.and_then(|s| rules::owner_report(copy_state(s)))
            .unwrap_or_else(|| {
                panic!("directory believes {owner} owns {block}, cache says {copy:?}")
            })
    }

    // --- the two memory operations -------------------------------------------

    /// A load by processor `p` starting at time `t0`. Returns the loaded
    /// value, the completion time, and the stall attribution.
    // ccsim-lint: allow(panic-path): node and block indices are bounded by the validated machine geometry
    pub fn load(&mut self, p: NodeId, addr: Addr, t0: u64) -> (u64, u64, StallKind) {
        let block = self.block_of(addr);
        let lat = self.cfg.latency;
        let value = self.store.load(addr);
        let (t, stall) = match self.caches[p.idx()].probe(block) {
            Probe::L1(_) => {
                self.counters.l1_hits += 1;
                self.emit_read_hit(p, addr, value);
                (t0 + lat.l1_hit, StallKind::None)
            }
            Probe::L2(_) => {
                self.counters.l2_hits += 1;
                self.emit_read_hit(p, addr, value);
                (t0 + lat.l1_hit + lat.l2_hit, StallKind::None)
            }
            Probe::Miss => (self.global_read(p, addr, block, t0, value), StallKind::Read),
        };
        self.invariants
            .check_value(addr, value, block, p, t, self.cfg.protocol.kind);
        self.verify(block, p, t);
        (value, t, stall)
    }

    fn emit_read_hit(&mut self, p: NodeId, addr: Addr, value: u64) {
        self.emit(
            p,
            EventKind::Read {
                addr,
                value,
                hit: true,
                grant: GrantKind::Shared,
                notls: false,
            },
        );
    }

    // ccsim-lint: allow(panic-path): node and block indices are bounded by the validated machine geometry
    fn global_read(&mut self, p: NodeId, addr: Addr, block: BlockAddr, t0: u64, value: u64) -> u64 {
        let lat = self.cfg.latency;
        let home = self.home(addr);
        #[cfg(feature = "testing")]
        self.deliver_stale_requests(t0);
        let mut t = t0 + lat.l1_hit + lat.l2_hit;
        t = self.request_hop(t, p, home, MsgKind::ReadReq);
        #[cfg(feature = "testing")]
        self.note_leaked_requests(block, p, false);
        t += lat.mc;
        t = self.wait_for_block(block, t, home, p);
        self.oracle.global_read(block, p);
        self.fs.on_miss(block, addr, p);
        let check = self.invariants.mode() != InvariantMode::Off;
        let pre = check.then(|| self.dir.entry(block).copied()).flatten();
        let (grant_out, notls_out) = match self.dir.read(home, block, p) {
            step @ ReadStep::Memory { grant, .. } => {
                if check {
                    let pre = pre.unwrap_or_else(|| rules::fresh_entry(&self.cfg.protocol));
                    let post = self
                        .dir
                        .entry(block)
                        .copied()
                        // ccsim-lint: allow(unwrap): read() inserts the entry before returning
                        .expect("read created the entry");
                    let v = rules::check_read_step(&self.cfg.protocol, &pre, &post, p, &step);
                    self.invariants
                        .check_rules(v, block, p, t, self.cfg.protocol.kind);
                }
                t += lat.mem;
                let kind = match grant {
                    GrantKind::Shared | GrantKind::TearOff => MsgKind::ReadReply,
                    GrantKind::Exclusive => MsgKind::ReadExclReply,
                };
                t = self.hop(t, home, p, kind);
                t += lat.mc + lat.node_bus;
                // Memory always supplies clean data; a `None` fill state is
                // the DSI tear-off — consume the data without caching it
                // (the copy self-invalidated at grant time).
                if let Some(s) = rules::read_fill_state(grant, false) {
                    self.fill(p, block, line_state(s), t);
                }
                (grant, false)
            }
            ReadStep::Forward { owner } => {
                t = self.hop(t, home, owner, MsgKind::ReadForward);
                let (wrote, dirty) = self.owner_state(owner, block);
                let res = self.dir.read_forward_result(home, block, p, wrote, dirty);
                if check {
                    // ccsim-lint: allow(unwrap): Forward is only returned for an existing entry
                    let pre = pre.expect("forwarded read implies an entry");
                    let post = self
                        .dir
                        .entry(block)
                        .copied()
                        // ccsim-lint: allow(unwrap): same entry, still present after resolution
                        .expect("forwarded read left the entry in place");
                    let v = rules::check_read_resolution(
                        &self.cfg.protocol,
                        &pre,
                        &post,
                        p,
                        wrote,
                        dirty,
                        &res,
                    );
                    self.invariants
                        .check_rules(v, block, p, t, self.cfg.protocol.kind);
                }
                t += lat.owner_access;
                t = self.hop(t, owner, p, MsgKind::OwnerReply);
                t += lat.mc + lat.node_bus;
                match rules::owner_next_state(res.owner_action) {
                    Some(s) => {
                        self.caches[owner.idx()].set_state(block, line_state(s));
                        self.emit(owner, EventKind::Downgrade { block, by: p });
                    }
                    None => {
                        self.caches[owner.idx()].invalidate(block);
                        self.fs.on_invalidated(block, owner);
                        self.emit(owner, EventKind::Inval { block, by: p });
                    }
                }
                if res.sharing_writeback {
                    self.net
                        .send_background(t, owner, home, MsgKind::SharingWriteback);
                }
                if res.notls {
                    self.net.send_background(t, owner, home, MsgKind::NotLs);
                    self.emit(owner, EventKind::NotLs { block });
                }
                let state = rules::read_fill_state(res.grant, res.requester_dirty)
                    // ccsim-lint: allow(unwrap): DSI tear-off grants come from memory, never owners
                    .expect("forwarded reads never grant tear-off");
                self.fill(p, block, line_state(state), t);
                (res.grant, res.notls)
            }
        };
        self.emit(
            p,
            EventKind::Read {
                addr,
                value,
                hit: false,
                grant: grant_out,
                notls: notls_out,
            },
        );
        let bi = self.block_index(block);
        *self.block_busy.entry(bi) = t;
        t
    }

    /// A *load-exclusive* by processor `p`: a load carrying a static
    /// compiler hint that a store to the same address follows soon, so the
    /// read request is combined with an ownership acquisition (the
    /// instruction-centric technique of Skeppstedt & Stenström that §2.1
    /// compares LS against). The line is installed exclusive-clean (`X`),
    /// letting the upcoming store complete silently.
    ///
    /// Statistics note: at the directory this is an ownership acquisition
    /// (it invalidates sharers and is counted with the write misses /
    /// upgrades), matching what a fictive exclusive load does in hardware.
    /// The oracle records the *read* here; the later silent store is the
    /// eliminated global write.
    // ccsim-lint: allow(panic-path): node and block indices are bounded by the validated machine geometry
    pub fn load_exclusive(&mut self, p: NodeId, addr: Addr, t0: u64) -> (u64, u64, StallKind) {
        let block = self.block_of(addr);
        let lat = self.cfg.latency;
        let value = self.store.load(addr);
        let copy = match self.caches[p.idx()].probe(block) {
            Probe::L1(s) | Probe::L2(s) => Some(copy_state(s)),
            Probe::Miss => None,
        };
        let (t, stall) = match rules::read_exclusive_probe(copy) {
            LocalReadExcl::Hit => {
                self.counters.l1_hits += 1;
                self.emit(
                    p,
                    EventKind::ReadExcl {
                        addr,
                        value,
                        hit: true,
                    },
                );
                (t0 + lat.l1_hit, StallKind::None)
            }
            LocalReadExcl::Acquire { has_copy } => (
                self.global_acquire(p, addr, block, t0, has_copy, Acquire::ReadExclusive, value),
                StallKind::Read,
            ),
        };
        self.invariants
            .check_value(addr, value, block, p, t, self.cfg.protocol.kind);
        self.verify(block, p, t);
        (value, t, stall)
    }

    /// A store by processor `p` starting at time `t0`. Returns the
    /// completion time and the stall attribution.
    // ccsim-lint: allow(panic-path): node and block indices are bounded by the validated machine geometry
    pub fn write(
        &mut self,
        p: NodeId,
        addr: Addr,
        value: u64,
        t0: u64,
        comp: Component,
    ) -> (u64, StallKind) {
        let block = self.block_of(addr);
        let lat = self.cfg.latency;
        self.store.store(addr, value);
        self.invariants.record_golden(addr, value);
        self.fs.on_store(block, addr, p);
        let copy = match self.caches[p.idx()].probe(block) {
            Probe::L1(s) | Probe::L2(s) => Some(copy_state(s)),
            Probe::Miss => None,
        };
        let (t, stall) = match rules::store_probe(copy) {
            LocalStore::DirtyHit => {
                self.counters.dirty_hits += 1;
                self.emit(
                    p,
                    EventKind::Write {
                        addr,
                        value,
                        how: WriteHow::DirtyHit,
                        ls: false,
                        mig: false,
                    },
                );
                (t0 + lat.l1_hit, StallKind::None)
            }
            LocalStore::Silent => {
                // The optimization fires: the anticipated write completes
                // locally, with no ownership acquisition and no
                // invalidations (§3).
                self.counters.silent_stores += 1;
                self.caches[p.idx()].set_state(block, LineState::Modified);
                let (ls, mig) = self.oracle.global_write(block, p, comp, true);
                self.emit(
                    p,
                    EventKind::Write {
                        addr,
                        value,
                        how: WriteHow::Silent,
                        ls,
                        mig,
                    },
                );
                (t0 + lat.l1_hit, StallKind::None)
            }
            LocalStore::Acquire { has_copy } => {
                let t =
                    self.global_acquire(p, addr, block, t0, has_copy, Acquire::Store(comp), value);
                self.retire_store(t0, t)
            }
        };
        self.verify(block, p, t);
        (t, stall)
    }

    /// How a global store occupies the processor: under SC it stalls until
    /// the ownership acquisition completes (§4.2); under the relaxed model
    /// it retires into an idealized write buffer after the issue cost, and
    /// the acquisition proceeds in the background (§6's discussion — the
    /// coherence actions and traffic are identical, only the stall
    /// disappears).
    fn retire_store(&self, t0: u64, t_complete: u64) -> (u64, StallKind) {
        match self.cfg.consistency {
            Consistency::Sc => (t_complete, StallKind::Write),
            Consistency::Relaxed => (t0 + self.cfg.latency.l1_hit + 1, StallKind::None),
        }
    }

    #[allow(clippy::too_many_arguments)]
    // ccsim-lint: allow(panic-path): node and block indices are bounded by the validated machine geometry
    fn global_acquire(
        &mut self,
        p: NodeId,
        addr: Addr,
        block: BlockAddr,
        t0: u64,
        has_copy: bool,
        purpose: Acquire,
        value: u64,
    ) -> u64 {
        let lat = self.cfg.latency;
        let home = self.home(addr);
        #[cfg(feature = "testing")]
        self.deliver_stale_requests(t0);
        let mut t = t0 + lat.l1_hit + lat.l2_hit;
        let req = if has_copy {
            MsgKind::UpgradeReq
        } else {
            MsgKind::WriteMissReq
        };
        t = self.request_hop(t, p, home, req);
        #[cfg(feature = "testing")]
        self.note_leaked_requests(block, p, true);
        t += lat.mc;
        t = self.wait_for_block(block, t, home, p);
        let (ls, mig) = match purpose {
            Acquire::Store(comp) => self.oracle.global_write(block, p, comp, false),
            Acquire::ReadExclusive => {
                self.oracle.global_read(block, p);
                (false, false)
            }
        };
        let check = self.invariants.mode() != InvariantMode::Off;
        let pre = check.then(|| self.dir.entry(block).copied()).flatten();
        // Data handed over by a dirty owner stays memory-stale in the
        // requester's cache; memory-served data is clean.
        let mut data_dirty = false;
        match self.dir.write(home, block, p) {
            WriteStep::Memory {
                invalidate,
                data_needed,
            } => {
                // Spec invariant: the directory's sharer view matches the
                // cache. A seeded rule mutation (testing builds) breaks it
                // on purpose — stale survivors upgrade while the directory
                // thinks they are gone — and the conformance analyzer, not
                // this assert, is the component under test then.
                debug_assert!(
                    self.cfg.protocol.rule_mutation().is_some() || data_needed != has_copy,
                    "directory/cache copy disagreement: data_needed={data_needed}, has_copy={has_copy}"
                );
                let mut done = if data_needed {
                    self.fs.on_miss(block, addr, p);
                    let tm = t + lat.mem;
                    self.hop(tm, home, p, MsgKind::WriteMissReply) + lat.mc + lat.node_bus
                } else {
                    self.hop(t, home, p, MsgKind::UpgradeAck) + lat.mc
                };
                // Invalidations fan out from the home; acknowledgements
                // return to the requester, which stalls until the last one
                // (sequential consistency).
                for s in invalidate.iter() {
                    let ta = self.hop(t, home, s, MsgKind::Inval) + lat.mc;
                    self.caches[s.idx()].invalidate(block);
                    self.fs.on_invalidated(block, s);
                    self.emit(s, EventKind::Inval { block, by: p });
                    let ta = self.hop(ta, s, p, MsgKind::InvalAck) + lat.mc;
                    done = done.max(ta);
                }
                t = done;
            }
            WriteStep::Forward { owner } => {
                t = self.hop(t, home, owner, MsgKind::WriteForward);
                let (_, dirty) = self.owner_state(owner, block);
                data_dirty = dirty;
                self.dir.write_forward_result(home, block, p, dirty);
                t += lat.owner_access;
                self.caches[owner.idx()].invalidate(block);
                self.fs.on_invalidated(block, owner);
                self.emit(owner, EventKind::Inval { block, by: p });
                t = self.hop(t, owner, p, MsgKind::OwnerWriteReply);
                t += lat.mc + lat.node_bus;
                self.fs.on_miss(block, addr, p);
            }
        }
        if check {
            let pre = pre.unwrap_or_else(|| rules::fresh_entry(&self.cfg.protocol));
            let post = self
                .dir
                .entry(block)
                .copied()
                // ccsim-lint: allow(unwrap): write() inserts the entry before returning
                .expect("acquisition created the entry");
            let v = rules::check_write_transaction(&self.cfg.protocol, &pre, &post, p);
            self.invariants
                .check_rules(v, block, p, t, self.cfg.protocol.kind);
        }
        let acq = match purpose {
            Acquire::Store(_) => rules::AcquirePurpose::Store,
            Acquire::ReadExclusive => rules::AcquirePurpose::ReadExclusive,
        };
        let final_state = line_state(rules::acquire_final_state(acq, data_dirty));
        if has_copy {
            self.caches[p.idx()].set_state(block, final_state);
            self.emit(
                p,
                EventKind::Fill {
                    block,
                    state: copy_state(final_state),
                },
            );
        } else {
            self.fill(p, block, final_state, t);
        }
        match purpose {
            Acquire::Store(_) => self.emit(
                p,
                EventKind::Write {
                    addr,
                    value,
                    how: WriteHow::Global,
                    ls,
                    mig,
                },
            ),
            Acquire::ReadExclusive => self.emit(
                p,
                EventKind::ReadExcl {
                    addr,
                    value,
                    hit: false,
                },
            ),
        }
        let bi = self.block_index(block);
        *self.block_busy.entry(bi) = t;
        t
    }

    // --- stats ---------------------------------------------------------------

    pub fn counters(&self) -> MachineCounters {
        self.counters
    }

    pub fn traffic(&self) -> &ccsim_network::Traffic {
        self.net.traffic()
    }

    /// Merged directory statistics over all homes.
    pub fn dir_stats(&self) -> ccsim_core::DirStats {
        self.dir.merged_stats()
    }

    pub fn oracle_stats(&self) -> &crate::oracle::OracleStats {
        self.oracle.stats()
    }

    pub fn false_sharing_stats(&self) -> &crate::oracle::FalseSharingStats {
        self.fs.stats()
    }

    /// Check cache/directory cross-invariants for a block (test support).
    /// The same rules the runtime [`InvariantChecker`] applies, surfaced as
    /// a `Result` for direct assertions.
    pub fn check_block(&self, addr: Addr) -> Result<(), String> {
        let block = self.block_of(addr);
        self.dir.check_invariants()?;
        let mut found = Vec::new();
        holders(&self.caches, block, &mut found);
        match rules::copy_violations(self.cfg.protocol.kind, block, self.dir.entry(block), &found)
            .into_iter()
            .next()
        {
            Some((rule, detail)) => Err(format!("{}: {detail}", rule.label())),
            None => Ok(()),
        }
    }

    /// Test-only: corrupt the home directory entry of `addr`'s block, so the
    /// mutation tests can prove the invariant checker catches a broken
    /// directory transition rather than silently passing. Only compiled with
    /// the `testing` feature.
    #[cfg(feature = "testing")]
    #[doc(hidden)]
    pub fn corrupt_directory_for_test(&mut self, addr: Addr) {
        let block = self.block_of(addr);
        self.dir.corrupt_entry_for_test(block);
    }

    /// Test-only: desynchronize the golden memory at `addr` so the
    /// data-value rule demonstrably fires. Only compiled with the `testing`
    /// feature.
    #[cfg(feature = "testing")]
    #[doc(hidden)]
    pub fn corrupt_golden_for_test(&mut self, addr: Addr) {
        self.invariants.corrupt_golden_for_test(addr);
    }
}

/// Append every cache holding `block`, with its copy state, to `out`.
fn holders(caches: &[Hierarchy], block: BlockAddr, out: &mut Vec<(NodeId, CopyState)>) {
    for (n, cache) in caches.iter().enumerate() {
        if let Some(s) = cache.state(block) {
            out.push((NodeId(n as u16), copy_state(s)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::ProtocolKind;

    const P0: NodeId = NodeId(0);
    const P1: NodeId = NodeId(1);
    const P2: NodeId = NodeId(2);
    const APP: Component = Component::App;

    fn machine(kind: ProtocolKind) -> Machine {
        Machine::new(MachineConfig::splash_baseline(kind))
    }

    /// An address homed at node 0 (page 0 of a 4-node round-robin layout).
    const A0: Addr = Addr(0x100);
    /// An address homed at node 1.
    const A1: Addr = Addr(4096 + 0x100);

    #[test]
    fn local_read_miss_costs_100_cycles() {
        let mut m = machine(ProtocolKind::Baseline);
        let (_, t, stall) = m.load(P0, A0, 0);
        assert_eq!(t, 100, "Table 1: local access");
        assert_eq!(stall, StallKind::Read);
    }

    #[test]
    fn remote_clean_read_miss_costs_220_cycles() {
        let mut m = machine(ProtocolKind::Baseline);
        let (_, t, _) = m.load(P0, A1, 0);
        assert_eq!(t, 220, "Table 1: home access");
    }

    #[test]
    fn read_on_dirty_costs_420_cycles() {
        let mut m = machine(ProtocolKind::Baseline);
        // P1 dirties a block homed at node 0.
        m.load(P1, A0, 0);
        let (t1, _) = m.write(P1, A0, 7, 1000, APP);
        // P2 reads it: request -> home 0 -> owner 1 -> P2 (4 hops).
        let (v, t2, stall) = m.load(P2, A0, t1 + 1000);
        assert_eq!(v, 7, "load sees the dirty value");
        assert_eq!(t2 - (t1 + 1000), 420, "Table 1: remote access");
        assert_eq!(stall, StallKind::Read);
        m.check_block(A0).unwrap();
    }

    #[test]
    fn l1_hit_costs_one_cycle() {
        let mut m = machine(ProtocolKind::Baseline);
        let (_, t, _) = m.load(P0, A0, 0);
        let (_, t2, stall) = m.load(P0, A0, t);
        assert_eq!(t2 - t, 1);
        assert_eq!(stall, StallKind::None);
        assert_eq!(m.counters().l1_hits, 1);
    }

    #[test]
    fn store_then_load_round_trip_through_caches() {
        let mut m = machine(ProtocolKind::Baseline);
        let (t, _) = m.write(P0, A0, 42, 0, APP);
        let (v, _, stall) = m.load(P0, A0, t);
        assert_eq!(v, 42);
        assert_eq!(stall, StallKind::None);
    }

    #[test]
    fn upgrade_invalidates_remote_sharers() {
        let mut m = machine(ProtocolKind::Baseline);
        let (_, t, _) = m.load(P0, A0, 0);
        let (_, t, _) = m.load(P1, A0, t);
        let (_, t, _) = m.load(P2, A0, t);
        let (t, stall) = m.write(P0, A0, 1, t + 1000, APP);
        assert_eq!(stall, StallKind::Write);
        // Sharers lost their copies: their next loads miss.
        let (_, t2, s1) = m.load(P1, A0, t + 1000);
        assert_eq!(s1, StallKind::Read);
        let (_, _, s2) = m.load(P2, A0, t2 + 1000);
        assert_eq!(s2, StallKind::Read);
        assert_eq!(m.traffic().invalidations(), 2);
        m.check_block(A0).unwrap();
    }

    #[test]
    fn ls_protocol_eliminates_second_ownership_acquisition() {
        let mut m = machine(ProtocolKind::Ls);
        let mut t = 0;
        // First load-store sequence: global read + upgrade (tags the block).
        let r = m.load(P0, A0, t);
        t = r.1 + 10;
        let w = m.write(P0, A0, 1, t, APP);
        assert_eq!(w.1, StallKind::Write);
        t = w.0 + 10;
        // Simulate losing the block to a foreign reader and re-running the
        // sequence: this time the read grants exclusively and the store is
        // silent. (Use another node: migration.)
        let r = m.load(P1, A0, t);
        t = r.1 + 10;
        let w = m.write(P1, A0, 2, t, APP);
        assert_eq!(w.1, StallKind::None, "store completed silently on LStemp");
        assert_eq!(m.counters().silent_stores, 1);
        m.check_block(A0).unwrap();
    }

    #[test]
    fn baseline_never_produces_silent_stores() {
        let mut m = machine(ProtocolKind::Baseline);
        let mut t = 0;
        for i in 0..3u16 {
            let p = NodeId(i);
            let r = m.load(p, A0, t);
            t = r.1 + 5;
            let w = m.write(p, A0, i as u64, t, APP);
            assert_eq!(w.1, StallKind::Write);
            t = w.0 + 5;
        }
        assert_eq!(m.counters().silent_stores, 0);
    }

    #[test]
    fn retry_when_block_transaction_in_flight() {
        let mut m = machine(ProtocolKind::Baseline);
        let (_, t_end, _) = m.load(P0, A0, 0);
        // P1 arrives in the middle of P0's transaction window.
        let (_, t2, _) = m.load(P1, A0, 5);
        assert!(t2 > t_end, "P1 serialized after P0's transaction");
        assert_eq!(m.counters().retries, 1);
    }

    #[test]
    fn capacity_eviction_notifies_home() {
        let mut cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        // Tiny caches: 2 L1 blocks, 4 L2 blocks.
        cfg.l1.size_bytes = 32;
        cfg.l2.size_bytes = 64;
        let mut m = Machine::new(cfg);
        let mut t = 0;
        // Touch 5 blocks mapping over the 4-block L2: at least one eviction.
        for i in 0..5u64 {
            let (_, t2, _) = m.load(P0, Addr(i * 16), t);
            t = t2 + 1;
        }
        // The directory saw the replacement: no stale sharers.
        for i in 0..5u64 {
            m.check_block(Addr(i * 16)).unwrap();
        }
    }

    #[test]
    fn oracle_sees_migratory_handoffs() {
        let mut m = machine(ProtocolKind::Ls);
        let mut t = 0;
        for round in 0..4u64 {
            for i in 0..2u16 {
                let p = NodeId(i);
                let r = m.load(p, A0, t);
                t = r.1 + 5;
                let w = m.write(p, A0, round, t, APP);
                t = w.0 + 5;
            }
        }
        let o = m.oracle_stats().total();
        assert_eq!(o.global_writes, 8);
        assert_eq!(o.ls_writes, 8);
        assert_eq!(o.migratory_writes, 7, "all but the first sequence migrate");
        assert!(
            o.eliminated > 0,
            "LS eliminated some ownership acquisitions"
        );
    }

    #[test]
    fn load_exclusive_combines_read_and_ownership() {
        let mut m = machine(ProtocolKind::Baseline);
        // Even under Baseline, the static hint gets an exclusive copy.
        let (v, t, stall) = m.load_exclusive(P0, A0, 0);
        assert_eq!(v, 0);
        assert_eq!(stall, StallKind::Read);
        assert_eq!(t, 100, "one combined transaction, not read+upgrade");
        // The anticipated store completes silently.
        let (t2, stall2) = m.write(P0, A0, 5, t, APP);
        assert_eq!(stall2, StallKind::None);
        assert_eq!(t2 - t, 1);
        assert_eq!(m.counters().silent_stores, 1);
        m.check_block(A0).unwrap();
    }

    #[test]
    fn load_exclusive_invalidates_sharers() {
        let mut m = machine(ProtocolKind::Baseline);
        let (_, t, _) = m.load(P1, A0, 0);
        let (_, t, _) = m.load(P2, A0, t);
        let (_, t, _) = m.load_exclusive(P0, A0, t + 100);
        // P1/P2 lost their copies.
        let (_, _, s1) = m.load(P1, A0, t + 100);
        assert_eq!(s1, StallKind::Read);
        assert_eq!(m.traffic().invalidations(), 2);
        m.check_block(A0).unwrap();
    }

    #[test]
    fn load_exclusive_hits_are_local() {
        let mut m = machine(ProtocolKind::Baseline);
        let (_, t, _) = m.load_exclusive(P0, A0, 0);
        let (_, t2, stall) = m.load_exclusive(P0, A0, t);
        assert_eq!(stall, StallKind::None);
        assert_eq!(t2 - t, 1);
    }

    #[test]
    fn unwritten_load_exclusive_downgrades_on_foreign_read() {
        let mut m = machine(ProtocolKind::Baseline);
        // P0 hints but never stores; P1's read must still get clean data
        // and a shared copy (prediction failure handled like LStemp).
        m.poke(A0, 42);
        let (_, t, _) = m.load_exclusive(P0, A0, 0);
        let (v, _, _) = m.load(P1, A0, t + 10);
        assert_eq!(v, 42);
        m.check_block(A0).unwrap();
    }

    #[test]
    fn peek_poke_bypass_coherence() {
        let mut m = machine(ProtocolKind::Baseline);
        m.poke(A0, 99);
        assert_eq!(m.peek(A0), 99);
        assert_eq!(m.traffic().total_messages(), 0);
        let (v, _, _) = m.load(P0, A0, 0);
        assert_eq!(v, 99);
    }
}
