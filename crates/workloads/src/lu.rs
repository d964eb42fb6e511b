//! LU: dense blocked LU factorization (SPLASH-2, non-contiguous layout).
//!
//! §5.3: "LU performs decompositions of dense matrices and does not contain
//! any migratory data" — yet AD removes about half the write stall because
//! **false sharing** creates an *illusion* of migratory behaviour:
//! "Different processors in turn perform load-store sequences to individual
//! parts of a memory block."
//!
//! The non-contiguous SPLASH-2 layout reproduces that exactly: the matrix is
//! one row-major n×n array of doubles (B = 16, as in SPLASH-2), factored in
//! B×B blocks with a 2-D scatter ownership — and, like the original
//! program's `malloc`-returned array, the matrix base is 8-byte aligned but
//! *not* block aligned. Every 16-double row segment therefore straddles a
//! coherence-block boundary at one end: one line in eight holds doubles
//! from two horizontally adjacent blocks, which belong to *different*
//! processors under the 2-D scatter. Their per-owner load-store sequences
//! interleave within those blocks — the incidental false sharing behind
//! the paper's "illusion of migratory behavior".
//!
//! The factorization is numerically real (f64 stored as bits); tests verify
//! `L·U` against the original matrix.

use ccsim_engine::SimBuilder;
use ccsim_sync::{Barrier, BarrierSense};
use ccsim_types::{Addr, SimRng};
use ccsim_util::json_record;

/// LU sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LuParams {
    /// Matrix edge (the paper runs 256; `paper()` defaults to a 128 edge to
    /// keep simulated-instruction counts tractable — use `paper_full()` for
    /// the full size).
    pub n: u64,
    /// Block edge (SPLASH-2 uses 16; 9 maximizes boundary false sharing).
    pub block: u64,
    pub procs: u16,
    pub seed: u64,
}

json_record!(LuParams {
    n,
    block,
    procs,
    seed
});

impl LuParams {
    /// Default evaluation size: 128×128, B=16, 4 processors.
    pub fn paper() -> Self {
        LuParams {
            n: 128,
            block: 16,
            procs: 4,
            seed: 0x4C55,
        }
    }

    /// The paper's full 256×256 run (slower).
    pub fn paper_full() -> Self {
        LuParams {
            n: 256,
            block: 16,
            procs: 4,
            seed: 0x4C55,
        }
    }

    pub fn quick() -> Self {
        LuParams {
            n: 48,
            block: 16,
            procs: 4,
            seed: 0x4C55,
        }
    }

    fn blocks(&self) -> u64 {
        assert_eq!(
            self.n % self.block,
            0,
            "n must be a multiple of the block edge"
        );
        self.n / self.block
    }
}

fn f2u(x: f64) -> u64 {
    x.to_bits()
}
fn u2f(x: u64) -> f64 {
    f64::from_bits(x)
}

/// 2-D scatter owner of block (I,J) for P processors (pr = pc = sqrt-ish).
fn owner(i: u64, j: u64, procs: u16) -> u16 {
    let pr = (procs as f64).sqrt() as u64;
    let pr = pr.max(1);
    let pc = (procs as u64) / pr;
    ((i % pr) * pc + (j % pc)) as u16
}

/// Element address inside the row-major matrix.
fn elem(base: Addr, n: u64, r: u64, c: u64) -> Addr {
    Addr(base.0 + (r * n + c) * 8)
}

/// Build the dense matrix (diagonally dominant so no pivoting is needed,
/// like the SPLASH-2 input) and return its initial values.
pub fn make_matrix(n: u64, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut a = vec![0f64; (n * n) as usize];
    for r in 0..n {
        for c in 0..n {
            let v = (rng.below(1000) as f64) / 500.0 - 1.0;
            a[(r * n + c) as usize] = if r == c { v + 2.0 * n as f64 } else { v };
        }
    }
    a
}

/// Lay out LU and spawn one program per processor. Returns the matrix base
/// address (row-major n×n f64-bit words) for post-run verification.
pub fn build(b: &mut SimBuilder, params: &LuParams) -> Addr {
    let n = params.n;
    let nb = params.blocks();
    let bs = params.block;
    let procs = params.procs;
    // Like the original program's malloc'd array: 8-byte aligned, NOT
    // block aligned — one line in (block/8) straddles two ownership blocks.
    let base = b.alloc().alloc(n * n * 8 + 8, 16).offset(8);
    let bar = Barrier::new(b.alloc(), 64, procs as u64);

    for (idx, &v) in make_matrix(n, params.seed).iter().enumerate() {
        b.init(Addr(base.0 + idx as u64 * 8), f2u(v));
    }

    for pid in 0..procs {
        b.spawn(move |p| {
            let mut sense = BarrierSense::default();
            for k in 0..nb {
                let (kr, kc) = (k * bs, k * bs);
                // 1. Diagonal block factorization by its owner.
                if owner(k, k, procs) == pid {
                    for kk in 0..bs {
                        let piv = u2f(p.load(elem(base, n, kr + kk, kc + kk)));
                        p.busy(8);
                        for r in kk + 1..bs {
                            let a = elem(base, n, kr + r, kc + kk);
                            let l = u2f(p.load(a)) / piv;
                            p.store(a, f2u(l));
                            for c in kk + 1..bs {
                                let t = elem(base, n, kr + r, kc + c);
                                let u = u2f(p.load(elem(base, n, kr + kk, kc + c)));
                                let v = u2f(p.load(t));
                                p.busy(2);
                                p.store(t, f2u(v - l * u));
                            }
                        }
                    }
                }
                bar.wait(&p, &mut sense);

                // 2. Perimeter blocks (row k and column k) by their owners.
                for j in k + 1..nb {
                    // Row-perimeter block (k, j): solve L(k,k)·U = A.
                    if owner(k, j, procs) == pid {
                        for kk in 0..bs {
                            for r in kk + 1..bs {
                                let l = u2f(p.load(elem(base, n, kr + r, kc + kk)));
                                for c in 0..bs {
                                    let t = elem(base, n, kr + r, j * bs + c);
                                    let u = u2f(p.load(elem(base, n, kr + kk, j * bs + c)));
                                    let v = u2f(p.load(t));
                                    p.busy(2);
                                    p.store(t, f2u(v - l * u));
                                }
                            }
                        }
                    }
                    // Column-perimeter block (j, k): compute L = A·U(k,k)^-1.
                    if owner(j, k, procs) == pid {
                        for kk in 0..bs {
                            let piv = u2f(p.load(elem(base, n, kr + kk, kc + kk)));
                            for r in 0..bs {
                                let a = elem(base, n, j * bs + r, kc + kk);
                                let l = u2f(p.load(a)) / piv;
                                p.store(a, f2u(l));
                                for c in kk + 1..bs {
                                    let t = elem(base, n, j * bs + r, kc + c);
                                    let u = u2f(p.load(elem(base, n, kr + kk, kc + c)));
                                    let v = u2f(p.load(t));
                                    p.busy(2);
                                    p.store(t, f2u(v - l * u));
                                }
                            }
                        }
                    }
                }
                bar.wait(&p, &mut sense);

                // 3. Interior update: A(i,j) -= L(i,k)·U(k,j) by block owner.
                for i in k + 1..nb {
                    for j in k + 1..nb {
                        if owner(i, j, procs) != pid {
                            continue;
                        }
                        for kk in 0..bs {
                            for r in 0..bs {
                                let l = u2f(p.load(elem(base, n, i * bs + r, kc + kk)));
                                if l == 0.0 {
                                    continue;
                                }
                                for c in 0..bs {
                                    let t = elem(base, n, i * bs + r, j * bs + c);
                                    let u = u2f(p.load(elem(base, n, kr + kk, j * bs + c)));
                                    let v = u2f(p.load(t));
                                    p.busy(2);
                                    p.store(t, f2u(v - l * u));
                                }
                            }
                        }
                    }
                }
                bar.wait(&p, &mut sense);
            }
        });
    }
    base
}

/// Reference sequential blocked LU (same arithmetic) for verification.
pub fn reference_lu(a: &mut [f64], n: usize) {
    for k in 0..n {
        let piv = a[k * n + k];
        for r in k + 1..n {
            let l = a[r * n + k] / piv;
            a[r * n + k] = l;
            for c in k + 1..n {
                a[r * n + c] -= l * a[k * n + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_engine::{RunStats, SimBuilder};
    use ccsim_types::{MachineConfig, ProtocolKind};

    fn run(kind: ProtocolKind, params: &LuParams) -> (RunStats, Vec<f64>) {
        let cfg = MachineConfig::splash_baseline(kind);
        let mut b = SimBuilder::new(cfg);
        let base = build(&mut b, params);
        let done = b.run_full();
        let n = params.n;
        let m: Vec<f64> = (0..n * n)
            .map(|i| done.peek_f64(ccsim_types::Addr(base.0 + i * 8)))
            .collect();
        (done.stats, m)
    }

    #[test]
    fn factors_match_reference() {
        let params = LuParams::quick();
        let n = params.n as usize;
        let mut reference = make_matrix(params.n, params.seed);
        reference_lu(&mut reference, n);
        for kind in ProtocolKind::ALL {
            let (_, got) = run(kind, &params);
            let max_err = got
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_err < 1e-9,
                "{kind:?}: parallel factorization diverged from reference by {max_err}"
            );
        }
    }

    #[test]
    fn no_migratory_data_but_false_sharing_makes_some() {
        let (s, _) = run(ProtocolKind::Baseline, &LuParams::quick());
        let t = s.oracle.total();
        assert!(t.ls_writes > 0);
        // Genuine migration is rare; whatever appears comes from false
        // sharing and barriers. It must be well below MP3D levels.
        assert!(
            (t.migratory_writes as f64) < 0.5 * t.ls_writes as f64,
            "LU should not be migratory-dominated: {}/{}",
            t.migratory_writes,
            t.ls_writes
        );
    }

    #[test]
    fn false_sharing_present_at_16_byte_blocks() {
        let (s, _) = run(ProtocolKind::Baseline, &LuParams::quick());
        assert!(
            s.false_sharing.false_sharing > 0,
            "B=9 over 16-byte lines must false-share at block borders"
        );
    }

    #[test]
    fn ls_removes_more_write_stall_than_ad() {
        let (base, _) = run(ProtocolKind::Baseline, &LuParams::quick());
        let (ad, _) = run(ProtocolKind::Ad, &LuParams::quick());
        let (ls, _) = run(ProtocolKind::Ls, &LuParams::quick());
        assert!(ls.write_stall() < base.write_stall());
        assert!(
            ls.write_stall() <= ad.write_stall(),
            "LS {} vs AD {} write stall",
            ls.write_stall(),
            ad.write_stall()
        );
    }

    #[test]
    fn deterministic() {
        let (a, _) = run(ProtocolKind::Ad, &LuParams::quick());
        let (b, _) = run(ProtocolKind::Ad, &LuParams::quick());
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.traffic.total_messages(), b.traffic.total_messages());
    }

    #[test]
    fn owner_scatter_is_balanced_for_four_procs() {
        let mut counts = [0u32; 4];
        for i in 0..8 {
            for j in 0..8 {
                counts[owner(i, j, 4) as usize] += 1;
            }
        }
        assert_eq!(counts, [16; 4], "2-D scatter must balance block ownership");
        // Horizontally adjacent blocks always differ in owner — the false
        // sharing at straddling lines is cross-processor.
        for i in 0..8 {
            for j in 0..7 {
                assert_ne!(owner(i, j, 4), owner(i, j + 1, 4));
            }
        }
    }

    #[test]
    fn matrix_is_diagonally_dominant_and_deterministic() {
        let n = 32;
        let a = make_matrix(n, 7);
        let b = make_matrix(n, 7);
        assert_eq!(a, b);
        for r in 0..n as usize {
            let diag = a[r * n as usize + r].abs();
            let off: f64 = (0..n as usize)
                .filter(|&c| c != r)
                .map(|c| a[r * n as usize + c].abs())
                .sum();
            assert!(
                diag > off,
                "row {r} not diagonally dominant: {diag} <= {off}"
            );
        }
    }

    #[test]
    fn reference_lu_reconstructs_the_matrix() {
        let n = 24usize;
        let orig = make_matrix(n as u64, 3);
        let mut f = orig.clone();
        reference_lu(&mut f, n);
        // Rebuild A = L*U and compare.
        for r in 0..n {
            for c in 0..n {
                let mut sum = 0.0;
                for k in 0..=r.min(c) {
                    let l = if k == r { 1.0 } else { f[r * n + k] };
                    let u = f[k * n + c];
                    if k <= c && k <= r {
                        sum += if k == r { u } else { l * u };
                    }
                }
                let err = (sum - orig[r * n + c]).abs();
                assert!(err < 1e-8, "A[{r}][{c}] reconstruction error {err}");
            }
        }
    }

    #[test]
    fn matrix_base_is_misaligned_like_malloc() {
        let params = LuParams::quick();
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        let mut b = SimBuilder::new(cfg);
        let base = build(&mut b, &params);
        assert_eq!(base.0 % 8, 0, "word aligned");
        assert_ne!(
            base.0 % 16,
            0,
            "but NOT coherence-block aligned (the §5.3 false sharing)"
        );
    }
}
