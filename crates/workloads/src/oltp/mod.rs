//! OLTP: a miniature in-memory DBMS running TPC-B-style transactions.
//!
//! Substitute for MySQL 3.22 + SparcLinux + glibc pthreads (§4.1), built to
//! exhibit the mechanisms the paper attributes OLTP's behaviour to:
//!
//! * a working set far beyond the L2 (account table + index), so shared
//!   data misses for capacity/conflict reasons and the migratory two-copy
//!   pattern AD needs rarely survives (§5.4);
//! * lingering read-shared copies (point queries, index scans) that make
//!   ownership acquisitions multi-invalidation writes (the paper's ≈1.4
//!   invalidations per write to a shared block) and defeat AD's
//!   exactly-two-copies detection where LS's last-reader check still fires;
//! * migratory locks and counters (branch locks, log/history tails, the OS
//!   run queue) — the part of the workload both AD and LS capture;
//! * cold, never-migrating load-store sequences (account rows touched once,
//!   connection sort buffers), the LS-only detection territory;
//! * pure-store streams (history, WAL, output marshalling) that are global
//!   writes *not* in load-store sequences, diluting the load-store fraction
//!   toward the paper's Table 2 (~42 %);
//! * three workload components — application (DBMS), libraries, OS —
//!   reported separately (Table 2).
//!
//! TPC-B money conservation (`Σbranch = Σteller = Σaccount = Σamounts`) is
//! asserted in tests under every protocol.

pub mod layout;
pub mod ops;

use ccsim_engine::{Component, Proc, SimBuilder};
use ccsim_types::{Addr, SimRng};
use ccsim_util::json_record;

pub use layout::{DbLayout, HISTORY_WORDS, RECORD_WORDS};

/// OLTP sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OltpParams {
    /// TPC-B branches (the paper uses 40).
    pub branches: u64,
    /// Account records (scaled from the paper's ~600 MB database to keep
    /// simulated-instruction counts tractable; still ≫ L2).
    pub accounts: u64,
    /// Index region blocks touched by scans (read-only, sized ≫ L2).
    pub index_words: u64,
    /// Transactions per processor.
    pub txns_per_proc: u64,
    pub procs: u16,
    pub seed: u64,
    /// Use static load-exclusive hints on the read-modify-writes a
    /// compiler's dataflow analysis would transform (the instruction-
    /// centric technique of §2.1 / \[12\]\[15\]): tight fetch-adds only —
    /// pairs separated by calls, conditionals or aliasing stay plain,
    /// which is exactly why the static approach loses coverage on OLTP.
    pub static_hints: bool,
}

json_record!(OltpParams {
    branches,
    accounts,
    index_words,
    txns_per_proc,
    procs,
    seed,
    static_hints
});

impl OltpParams {
    /// Evaluation shape: 40 branches, 64k accounts (2 MB table vs 512 kB
    /// L2), a 2 MB index, 500 transactions per processor.
    pub fn paper() -> Self {
        OltpParams {
            branches: 40,
            accounts: 65_536,
            index_words: 262_144,
            txns_per_proc: 500,
            procs: 4,
            seed: 0x7DB,
            static_hints: false,
        }
    }

    /// Scaled for unit tests — still sized so table + index exceed the
    /// 512 kB L2, preserving the capacity-miss behaviour the paper's OLTP
    /// result hinges on.
    pub fn quick() -> Self {
        OltpParams {
            branches: 16,
            accounts: 16_384,
            index_words: 65_536,
            txns_per_proc: 120,
            procs: 4,
            seed: 0x7DB,
            static_hints: false,
        }
    }
}

/// Pre-generated inputs of one transaction (host-side plan, so that
/// [`expected_total`] and the simulation share one source of truth).
#[derive(Clone, Copy, Debug)]
struct Txn {
    amount: u64,
    account: u64,
    branch: u64,
    teller_off: u64,
    queries: [u64; 2],
    teller_query: u64,
    idx: [u64; 12],
}

fn plan(params: &OltpParams, pid: u16) -> Vec<Txn> {
    let mut seeder = SimRng::seed_from_u64(params.seed);
    let mut rng = seeder.fork(pid as u64);
    let part = params.accounts / 4; // branch-affinity partition
    (0..params.txns_per_proc)
        .map(|_| {
            let mut idx = [0u64; 12];
            let amount = 1 + rng.below(100);
            // TPC-B locality: most transactions touch the connection's home
            // partition (same-processor reuse after eviction — the LS-only
            // territory); the rest roam the whole table.
            let account = if rng.chance(0.7) {
                (pid as u64 % 4) * part + rng.below(part)
            } else {
                rng.below(params.accounts)
            };
            let branch = rng.below(params.branches);
            let teller_off = rng.below(10);
            let queries = [rng.below(params.accounts), rng.below(params.accounts)];
            let teller_query = rng.below(params.branches * 10);
            for i in &mut idx {
                *i = rng.below(params.index_words / 4);
            }
            Txn {
                amount,
                account,
                branch,
                teller_off,
                queries,
                teller_query,
                idx,
            }
        })
        .collect()
}

/// Expected total of all transaction amounts (verification invariant).
pub fn expected_total(params: &OltpParams) -> u64 {
    (0..params.procs)
        .flat_map(|pid| plan(params, pid))
        .fold(0u64, |acc, t| acc.wrapping_add(t.amount))
}

/// Tight fetch-add, optionally compiled with a load-exclusive hint.
fn fadd(p: &Proc, hinted: bool, addr: Addr, delta: u64) -> u64 {
    if hinted {
        p.fetch_add_hinted(addr, delta)
    } else {
        p.fetch_add(addr, delta)
    }
}

/// One TPC-B transaction + DBMS + OS machinery.
fn transaction(p: &Proc, db: &DbLayout, index_base: Addr, t: &Txn, txn_idx: u64, hints: bool) {
    let pid = p.id().0;

    // ---- OS: scheduler dispatch (time-slice granularity: every fourth
    // transaction, not every statement) -------------------------------------
    p.set_component(Component::Os);
    if txn_idx % 4 == pid as u64 % 4 {
        db.runq_lock.with(p, || {
            let slot = Addr(db.runq_slots.0 + (txn_idx % 8) * 8);
            let v = p.load(slot);
            p.store(slot, v + 1);
            p.busy(60); // context-switch bookkeeping
        });
    }
    // My PID table entry (private load-store sequence; cold first time).
    let my_pid = Addr(db.pid_base.0 + pid as u64 * 8);
    let pv = p.load(my_pid);
    p.store(my_pid, pv + 1);
    if txn_idx.is_multiple_of(8) {
        p.fetch_add(db.tick, 1); // timer tick: migratory counter
    }

    // ---- Application: parse + plan ---------------------------------------
    p.set_component(Component::App);
    p.busy(2600); // SQL parse + protocol handling
    for k in 0..4u64 {
        let w = (t.account.wrapping_mul(31).wrapping_add(k * 17)) % db.catalog_words;
        p.load(Addr(db.catalog_base.0 + w * 8));
        p.busy(12);
    }
    // Table headers: read-shared by everyone, occasionally bumped (row
    // counters) — multi-invalidation writes.
    p.load(db.header(0));
    p.load(db.header(1 + txn_idx % 3));
    if txn_idx % 8 == pid as u64 % 8 {
        let hc = p.load(db.header(3));
        p.store(db.header(3), hc + 1);
    }
    p.busy(1400); // plan selection

    // Index traversal: read-only scan over a region far larger than the L2
    // (capacity misses on shared data, §5.4 / Maynard et al.).
    for &i in &t.idx {
        p.load(Addr(index_base.0 + i * 32));
        p.busy(110); // key comparisons per node
    }

    // Point queries: balance checks keep rows read-shared across
    // processors, so later updates are multi-invalidation writes and break
    // AD's exactly-two-copies migratory detection.
    for &q in &t.queries {
        p.load(db.account(q));
        p.load(db.bufdesc(q / 64));
        p.busy(25);
    }
    // Reporting reads of hot rows and threshold checks of the global tails
    // and server status counters (max-connections / flush checks the server
    // performs per query): the lingering shared copies these leave behind
    // defeat AD's exactly-two-copies detection at the next update and make
    // those updates multi-invalidation writes.
    p.load(db.teller(t.teller_query));
    p.load(db.branch(t.teller_query / 10));
    p.load(db.history_tail);
    p.load(db.log_tail);
    // Connection/byte quotas consulted at statement start but not updated
    // until commit — the "loads and stores farther apart" pattern (§1).
    p.load(db.status(2));
    p.load(db.status(3));
    p.busy(30);

    // Buffer-pool descriptor for the updated account page; every second
    // transaction bumps the LRU word (a write to a read-shared block).
    let desc = db.bufdesc(t.account / 64);
    p.load(desc);
    if txn_idx.is_multiple_of(2) {
        let lru = p.load(desc.offset(8));
        p.store(desc.offset(8), lru + 1);
    }

    // Account balance update (row latch is the atomic RMW; a tight pair a
    // compiler can transform into a load-exclusive).
    fadd(p, hints, db.account(t.account), t.amount);
    p.busy(45);

    // Teller balance update.
    let teller = t.branch * 10 + t.teller_off;
    fadd(p, hints, db.teller(teller), t.amount);
    p.busy(35);

    // Branch balance under the branch lock (hot: few branches).
    let lk = db.branch_lock(t.branch);
    lk.lock(p);
    let baddr = db.branch(t.branch);
    let bal = p.load(baddr);
    p.busy(4);
    p.store(baddr, bal.wrapping_add(t.amount));
    // History append inside the critical section (consistent snapshot).
    let slot = fadd(p, hints, db.history_tail, 1);
    let h = db.history(slot);
    p.store(h, t.account);
    p.store(h.offset(8), teller);
    p.store(h.offset(16), t.branch);
    p.store(h.offset(24), t.amount);
    p.busy(18);
    lk.unlock(p);
    p.busy(1800); // statement post-processing / trigger evaluation

    // Optimizer statistics: read every transaction (kept read-shared by the
    // whole machine); periodically refreshed — the multi-invalidation
    // writes behind the ≈1.4 invalidations per shared write.
    let sw = Addr(db.stats_base.0 + (txn_idx % 8) * 8);
    p.load(sw);
    if txn_idx % 2 == pid as u64 % 2 {
        let sv = p.load(sw);
        p.busy(6);
        p.store(sw, sv + 1);
    }

    // ---- Library: WAL append, sort buffer, result marshalling ------------
    p.set_component(Component::Lib);
    let lslot = fadd(p, hints, db.log_tail, 2);
    p.store(
        Addr(db.log_base.0 + (lslot % db.log_cap) * 8),
        t.amount ^ t.account,
    );
    p.store(Addr(db.log_base.0 + ((lslot + 1) % db.log_cap) * 8), teller);
    // Connection sort buffer: a cold private region swept once — half
    // read-modify-write (load-store sequences that never migrate, LS-only
    // territory), half pure output stores (global writes outside any
    // load-store sequence).
    let sort = db.scratch(pid);
    let soff = (txn_idx * 24) % db.scratch_words_per_proc;
    for k in 0..8u64 {
        let a = Addr(sort.0 + ((soff + k) % db.scratch_words_per_proc) * 8);
        let v = p.load(a);
        p.store(a, v.wrapping_add(t.amount + k));
        p.busy(4);
    }
    for k in 8..24u64 {
        let a = Addr(sort.0 + ((soff + k) % db.scratch_words_per_proc) * 8);
        p.store(a, t.amount.rotate_left(k as u32 % 63));
        p.busy(3);
    }
    p.busy(1600); // buffered I/O formatting

    // ---- Application: per-connection record/sort area ---------------------
    // A large private arena swept cyclically, one word per coherence block:
    // by the time the sweep wraps around, the intervening transaction
    // footprint has flushed these blocks from the L2. The read-modify-write
    // part re-creates the *same-processor load-store sequence broken by a
    // replacement* — detected by LS (whose LS-bit waits at the home),
    // undetectable by AD. The pure-store part is the record-output stream:
    // global writes outside any load-store sequence.
    p.set_component(Component::App);
    let stmt = db.stmt(pid);
    let blocks_per_txn = 24u64; // 8 RMW + 16 pure stores
    let arena_blocks = db.stmt_words_per_proc / 4; // 32-byte blocks
    let start = txn_idx * blocks_per_txn;
    for k in 0..8u64 {
        let a = Addr(stmt.0 + ((start + k) % arena_blocks) * 32);
        let v = p.load(a);
        p.store(a, v ^ t.account.rotate_left(k as u32));
        p.busy(6);
    }
    for k in 8..blocks_per_txn {
        let a = Addr(stmt.0 + ((start + k) % arena_blocks) * 32);
        p.store(a, t.amount.wrapping_mul(k | 1));
        p.busy(4);
    }

    // Global server status counters (queries, bytes sent, rows touched,
    // commits): per-query threshold check plus increment of hot,
    // block-isolated words — the classical migratory counters every
    // processor updates in turn. Three are tight read-increment pairs;
    // one is checked well before it is written (txn-start accounting vs
    // txn-end commit), the "loads and stores farther apart" pattern that
    // erodes prediction for both techniques (§1).
    for c in 0..2u64 {
        p.load(db.status(c));
        p.busy(4);
        fadd(p, hints, db.status(c), 1);
        p.busy(3);
    }
    // Commit the quota counters consulted at statement start.
    p.fetch_add(db.status(2), 1);
    p.busy(8);
    p.fetch_add(db.status(3), 1);

    p.busy(2400); // think time / next-statement parsing
}

/// Lay out the database and spawn one worker per processor. Returns the
/// layout for post-run verification.
pub fn build(b: &mut SimBuilder, params: &OltpParams) -> DbLayout {
    let mut db = layout::allocate(b, params.branches, params.accounts, params.procs);
    // Enlarge the per-proc scratch/statement arenas into proper cold-sweep
    // regions (sized so a full cycle exceeds any single reuse window).
    let scratch_words_per_proc = 24 * params.txns_per_proc.max(16);
    db.scratch_base = b
        .alloc()
        .alloc(params.procs as u64 * scratch_words_per_proc * 8, 64);
    db.scratch_words_per_proc = scratch_words_per_proc;
    // Connection record/sort arena: sized so the cyclic 24-block-per-txn
    // sweep wraps after ~1/3 of the run — re-touched blocks have been
    // flushed from the L2 by the intervening footprint by then.
    let stmt_arena_blocks = (24 * params.txns_per_proc / 3).max(96);
    let stmt_words_per_proc = stmt_arena_blocks * 4;
    db.stmt_base = b
        .alloc()
        .alloc(params.procs as u64 * stmt_words_per_proc * 8, 64);
    db.stmt_words_per_proc = stmt_words_per_proc;
    let index_base = b.alloc().alloc(params.index_words * 8, 64);
    for i in (0..params.index_words).step_by(64) {
        b.init(Addr(index_base.0 + i * 8), i);
    }
    for pid in 0..params.procs {
        let txns = plan(params, pid);
        let db = db;
        let hints = params.static_hints;
        b.spawn(move |p| {
            for (i, t) in txns.iter().enumerate() {
                transaction(&p, &db, index_base, t, i as u64, hints);
            }
        });
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_engine::RunStats;
    use ccsim_types::{MachineConfig, ProtocolKind};

    fn run(kind: ProtocolKind, params: &OltpParams) -> (RunStats, u64, u64, u64) {
        // `oltp_scaled`: cache hierarchy scaled with the database so the
        // capacity/conflict-miss behaviour of the paper's 600 MB-vs-512 kB
        // setup is preserved (see DESIGN.md substitutions).
        let cfg = MachineConfig::oltp_scaled(kind);
        let mut b = SimBuilder::new(cfg);
        let db = build(&mut b, params);
        let done = b.run_full();
        let bsum: u64 = (0..db.branches)
            .map(|i| done.peek(db.branch(i)))
            .fold(0, u64::wrapping_add);
        let tsum: u64 = (0..db.tellers)
            .map(|i| done.peek(db.teller(i)))
            .fold(0, u64::wrapping_add);
        let asum: u64 = (0..db.accounts)
            .map(|i| done.peek(db.account(i)))
            .fold(0, u64::wrapping_add);
        (done.stats, bsum, tsum, asum)
    }

    #[test]
    fn money_is_conserved_under_every_protocol() {
        let params = OltpParams::quick();
        let want = expected_total(&params);
        for kind in ProtocolKind::ALL {
            let (_, bsum, tsum, asum) = run(kind, &params);
            assert_eq!(bsum, want, "{kind:?}: branch total wrong");
            assert_eq!(tsum, want, "{kind:?}: teller total wrong");
            assert_eq!(asum, want, "{kind:?}: account total wrong");
        }
    }

    #[test]
    fn multi_invalidation_writes_present() {
        let (s, ..) = run(ProtocolKind::Baseline, &OltpParams::quick());
        // §5.4: "about 1.4 invalidations on average per write to a shared
        // block" — i.e. clearly more than the 0-or-1 of purely private or
        // purely migratory data. Our scaled database reaches ~0.7 at quick
        // size (reported against the paper value in EXPERIMENTS.md); the
        // test guards the mechanism: a substantial fraction of writes must
        // hit multi-reader blocks.
        assert!(
            s.invalidations_per_shared_write() > 0.5,
            "OLTP writes should hit read-shared blocks: {:.2} inv/shared-write",
            s.invalidations_per_shared_write()
        );
        assert!(
            s.dir.invals_on_shared_writes > s.dir.writes_to_shared / 2,
            "multi-invalidation writes too rare"
        );
    }

    #[test]
    fn all_three_components_produce_load_store_sequences() {
        let (s, ..) = run(ProtocolKind::Baseline, &OltpParams::quick());
        for c in Component::ALL {
            let k = s.oracle.component(c);
            assert!(k.global_writes > 0, "{c:?} produced no global writes");
            assert!(k.ls_writes > 0, "{c:?} produced no load-store sequences");
        }
        let f = s.oracle.ls_fraction(None);
        assert!(
            (0.25..0.75).contains(&f),
            "total load-store fraction {f:.2} out of range"
        );
        let m = s.oracle.migratory_fraction(None);
        assert!(
            (0.25..0.8).contains(&m),
            "migratory fraction of load-store sequences {m:.2} out of range"
        );
    }

    #[test]
    fn ls_outperforms_ad_on_oltp() {
        let params = OltpParams::quick();
        let (base, ..) = run(ProtocolKind::Baseline, &params);
        let (ad, ..) = run(ProtocolKind::Ad, &params);
        let (ls, ..) = run(ProtocolKind::Ls, &params);
        let bt = base.total_cycles() as f64;
        let ad_cut = 1.0 - ad.total_cycles() as f64 / bt;
        let ls_cut = 1.0 - ls.total_cycles() as f64 / bt;
        assert!(
            ls_cut > ad_cut,
            "LS ({:.1}%) must beat AD ({:.1}%) on OLTP",
            ls_cut * 100.0,
            ad_cut * 100.0
        );
        assert!(ls.traffic.total_bytes() < base.traffic.total_bytes());
    }

    #[test]
    fn coverage_ls_exceeds_ad() {
        let params = OltpParams::quick();
        let (ad, ..) = run(ProtocolKind::Ad, &params);
        let (ls, ..) = run(ProtocolKind::Ls, &params);
        assert!(
            ls.oracle.ls_coverage() > ad.oracle.ls_coverage(),
            "Table 3 shape: LS coverage {:.2} vs AD {:.2}",
            ls.oracle.ls_coverage(),
            ad.oracle.ls_coverage()
        );
    }

    #[test]
    fn deterministic() {
        let params = OltpParams::quick();
        let (a, ab, at, aa) = run(ProtocolKind::Ls, &params);
        let (b, bb, bt, ba) = run(ProtocolKind::Ls, &params);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!((ab, at, aa), (bb, bt, ba));
    }
}
