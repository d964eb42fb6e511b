//! Cholesky: sparse supernodal factorization (SPLASH-2, tk15.0 input).
//!
//! §5.2 is the paper's flagship result for LS: at 4 processors Cholesky
//! performs "virtually no migration of data between the processors" — yet
//! almost every write is part of a load-store sequence, because each
//! processor's working set (its panel of columns) exceeds the 64 kB L2 and
//! is evicted between successive update waves. AD never sees its two-copy
//! migratory pattern and removes nothing; LS keeps the LS-bit at the home
//! across replacements and converts every re-fetch into an exclusive grant,
//! removing ~89 % of write-related traffic.
//!
//! At 16/32 processors the per-processor panel *fits* in the L2, so the
//! ownership requests from panel work collapse, while the central task
//! queue keeps migrating — invalidations become 16 %/29 % of the ownership
//! overhead (Figure 5), and AD closes in on LS.
//!
//! Substitute for the tk15.0 matrix (documented in DESIGN.md): a synthetic
//! supernodal structure — `cols` columns of `col_words` nonzeros, owned
//! round-robin, updated over `waves` right-looking waves, with a shared
//! elimination-structure table (read-only), a global task counter (the task
//! queue), and a per-wave logarithmic accumulation tree (the supernode
//! relay, the only genuinely migratory data at small P).

use ccsim_engine::SimBuilder;
use ccsim_sync::{Barrier, BarrierSense};
use ccsim_types::{Addr, SimRng};
use ccsim_util::json_record;

/// Cholesky sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CholeskyParams {
    /// Total columns (panels are `cols / procs` columns each).
    pub cols: u64,
    /// Nonzeros (words) per column.
    pub col_words: u64,
    /// Right-looking update waves over the structure.
    pub waves: u64,
    pub procs: u16,
    pub seed: u64,
}

json_record!(CholeskyParams {
    cols,
    col_words,
    waves,
    procs,
    seed
});

impl CholeskyParams {
    /// 4-processor evaluation shape: 128 columns × 4 kB ⇒ a 128 kB panel
    /// per processor, twice the 64 kB L2 — every wave re-misses.
    pub fn paper() -> Self {
        CholeskyParams {
            cols: 128,
            col_words: 512,
            waves: 6,
            procs: 4,
            seed: 0x43484F4C,
        }
    }

    /// The Figure 5 scaling runs reuse the same total problem with more
    /// processors.
    pub fn paper_scaled(procs: u16) -> Self {
        CholeskyParams {
            procs,
            ..Self::paper()
        }
    }

    pub fn quick() -> Self {
        CholeskyParams {
            cols: 16,
            col_words: 64,
            waves: 2,
            procs: 4,
            seed: 0x43484F4C,
        }
    }
}

/// Lay out Cholesky and spawn one program per processor. Returns the column
/// data base address for verification.
pub fn build(b: &mut SimBuilder, params: &CholeskyParams) -> Addr {
    let procs = params.procs as u64;
    assert!(
        procs > 0 && params.cols.is_multiple_of(procs),
        "cols must divide evenly"
    );
    let cols = params.cols;
    let cw = params.col_words;
    let waves = params.waves;

    // Column data: cols × col_words, round-robin column ownership.
    let data = b.alloc().alloc(cols * cw * 8, 16);
    // Elimination structure (read-only after init): one word per column per
    // wave, telling the update which source column feeds it.
    let etree = b.alloc().alloc(cols * waves * 8, 16);
    // Frontal-matrix constants (read-only after init): the update sources.
    // Read-shared across processors; using a constant region keeps the
    // computation race-free, so final values are identical under every
    // protocol (asserted in tests) while the coherence traffic of reading
    // another supernode's data is preserved.
    let front = b.alloc().alloc(cols * (cw / 8).max(1) * 8, 16);
    // The central task queue: a lock-protected head pointer, as in the
    // original program. At 4 processors the lock is essentially
    // uncontended; at 16/32 processors (same total work split finer)
    // spinners pile up, and every release invalidates their cached copies —
    // the growing invalidation share of Figure 5.
    let qlock = ccsim_sync::SpinLock::new(b.alloc(), 64);
    let qhead = b.alloc().alloc_padded(8, 64);
    // Task completion stamps (one word per column; written by the owner).
    let stamps = b.alloc().alloc(cols * 8, 16);
    // Per-processor accumulators for the supernode relay tree.
    let accum = b.alloc().alloc(procs * 64, 64); // 8 words each, one block per proc
    let bar = Barrier::new(b.alloc(), 64, procs);

    let mut rng = SimRng::seed_from_u64(params.seed);
    let fw = (cw / 8).max(1);
    for j in 0..cols {
        for w in 0..waves {
            b.init(Addr(etree.0 + (w * cols + j) * 8), rng.below(cols));
        }
        for i in 0..cw {
            b.init(Addr(data.0 + (j * cw + i) * 8), rng.below(1 << 20) + 1);
        }
        for i in 0..fw {
            b.init(Addr(front.0 + (j * fw + i) * 8), rng.below(1 << 20) + 1);
        }
    }

    for pid in 0..params.procs {
        b.spawn(move |p| {
            let mut sense = BarrierSense::default();
            let my_cols: Vec<u64> = (0..cols).filter(|j| j % procs == pid as u64).collect();
            for w in 0..waves {
                for &j in &my_cols {
                    // Task-queue bookkeeping: pop under the queue lock (the
                    // migratory task-queue head plus contention at scale).
                    let _ticket = qlock.with(&p, || {
                        let t = p.load(qhead);
                        p.store(qhead, t + 1);
                        t
                    });
                    // Read the elimination structure entry (read-shared).
                    let src = p.load(Addr(etree.0 + (w * cols + j) * 8)) % cols;
                    // cmod(j, src): update every nonzero of column j using
                    // the source supernode's frontal data (read-shared).
                    let mut sv = 0u64;
                    for i in 0..cw {
                        let t = Addr(data.0 + (j * cw + i) * 8);
                        if i % 8 == 0 {
                            sv = p.load(Addr(front.0 + (src * fw + i / 8) * 8));
                        }
                        let v = p.load(t);
                        p.busy(2);
                        p.store(t, v.wrapping_add(sv ^ (w + 1)));
                    }
                    // cdiv(j) completion stamp.
                    p.store(Addr(stamps.0 + j * 8), w + 1);
                    p.busy(10);
                }
                // Supernode relay: logarithmic cross-processor combine —
                // the only genuinely migratory data at small P.
                let my_acc = Addr(accum.0 + pid as u64 * 64);
                let mut level = 1u64;
                while level < procs {
                    // Publish, synchronize, then combine: race-free.
                    if (pid as u64) % (2 * level) == level {
                        let mv = p.load(my_acc);
                        p.store(my_acc, mv.wrapping_add(w + 1));
                    }
                    bar.wait(&p, &mut sense);
                    if (pid as u64).is_multiple_of(2 * level) && (pid as u64) + level < procs {
                        let partner = Addr(accum.0 + ((pid as u64) + level) * 64);
                        let pv = p.load(partner);
                        let mv = p.load(my_acc);
                        p.busy(4);
                        p.store(my_acc, mv.wrapping_add(pv | w));
                    }
                    level *= 2;
                }
                bar.wait(&p, &mut sense);
            }
        });
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_engine::RunStats;
    use ccsim_types::{MachineConfig, ProtocolKind};

    fn run(kind: ProtocolKind, params: &CholeskyParams) -> (RunStats, Vec<u64>) {
        let cfg = MachineConfig::splash_baseline(kind).with_nodes(params.procs);
        let mut b = SimBuilder::new(cfg);
        let base = build(&mut b, params);
        let done = b.run_full();
        let vals: Vec<u64> = (0..params.cols * params.col_words)
            .map(|i| done.peek(Addr(base.0 + i * 8)))
            .collect();
        (done.stats, vals)
    }

    #[test]
    fn results_identical_across_protocols() {
        let params = CholeskyParams::quick();
        let (_, base_vals) = run(ProtocolKind::Baseline, &params);
        let (_, ad_vals) = run(ProtocolKind::Ad, &params);
        let (_, ls_vals) = run(ProtocolKind::Ls, &params);
        assert_eq!(base_vals, ad_vals, "AD changed computation results");
        assert_eq!(base_vals, ls_vals, "LS changed computation results");
    }

    #[test]
    fn load_store_heavy_but_not_migratory_at_4_procs() {
        let (s, _) = run(ProtocolKind::Baseline, &CholeskyParams::quick());
        let t = s.oracle.total();
        assert!(t.ls_writes > 0);
        assert!(
            (t.migratory_writes as f64) < 0.2 * (t.ls_writes as f64),
            "Cholesky at 4 procs should hardly migrate: {}/{}",
            t.migratory_writes,
            t.ls_writes
        );
    }

    #[test]
    fn ls_eliminates_far_more_than_ad_at_4_procs() {
        // The paper's headline: AD removes ~nothing, LS removes most
        // write-related overhead once capacity evictions separate the
        // load-store pairs. Use a capacity-stressed quick config.
        let params = CholeskyParams {
            cols: 16,
            col_words: 1024,
            waves: 3,
            ..CholeskyParams::quick()
        };
        let (base, _) = run(ProtocolKind::Baseline, &params);
        let (ad, _) = run(ProtocolKind::Ad, &params);
        let (ls, _) = run(ProtocolKind::Ls, &params);
        let base_ws = base.write_stall() as f64;
        let ad_cut = 1.0 - ad.write_stall() as f64 / base_ws;
        let ls_cut = 1.0 - ls.write_stall() as f64 / base_ws;
        assert!(
            ls_cut > 0.5,
            "LS should remove most write stall (removed {:.0}%)",
            ls_cut * 100.0
        );
        assert!(
            ls_cut > ad_cut + 0.2,
            "LS ({:.0}%) must far exceed AD ({:.0}%)",
            ls_cut * 100.0,
            ad_cut * 100.0
        );
    }

    #[test]
    fn deterministic() {
        let params = CholeskyParams::quick();
        let (a, va) = run(ProtocolKind::Ls, &params);
        let (b, vb) = run(ProtocolKind::Ls, &params);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(va, vb);
    }
}
