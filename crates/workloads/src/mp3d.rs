//! MP3D: particle-based hypersonic wind-tunnel simulation (SPLASH).
//!
//! Gupta & Weber identified MP3D as the canonical *migratory-sharing*
//! workload: every particle move performs a read-modify-write of the space
//! cell it lands in, and because particles owned by different processors
//! stream through the same cells, cell blocks migrate processor-to-processor
//! — single-invalidation ownership traffic that both AD and LS attack.
//!
//! Faithful structural properties kept here:
//!
//! * particles are statically partitioned over processors; their state
//!   arrays are large enough to overflow the 64 kB L2 (capacity misses on
//!   "private" data, which weaken AD's two-copy detection exactly as §5.1
//!   describes);
//! * space cells are a shared array of 2-word cells (count, energy), one
//!   coherence block per cell at the 16-byte baseline block size, updated
//!   with plain unlocked read-modify-writes like the original program;
//! * a global reservoir counter absorbs boundary collisions (light
//!   contention), and a per-step barrier separates time steps.

use ccsim_engine::SimBuilder;
use ccsim_sync::{Barrier, BarrierSense};
use ccsim_types::{Addr, SimRng};
use ccsim_util::json_record;

/// MP3D sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mp3dParams {
    /// Total particles (the paper runs 10 000).
    pub particles: u64,
    /// Time steps (the paper runs 10).
    pub steps: u64,
    /// Space cells (shared array).
    pub cells: u64,
    /// Processors to use (≤ machine nodes).
    pub procs: u16,
    /// Workload RNG seed.
    pub seed: u64,
}

json_record!(Mp3dParams {
    particles,
    steps,
    cells,
    procs,
    seed
});

impl Mp3dParams {
    /// The paper's configuration: 10k particles, 10 steps.
    pub fn paper() -> Self {
        Mp3dParams {
            particles: 10_000,
            steps: 10,
            cells: 4096,
            procs: 4,
            seed: 0x4D50_3344,
        }
    }

    /// Scaled down for unit tests.
    pub fn quick() -> Self {
        Mp3dParams {
            particles: 400,
            steps: 3,
            cells: 256,
            procs: 4,
            seed: 0x4D50_3344,
        }
    }
}

/// Per-particle state: 4 words (x, v, flags, pad) — 32 bytes, two 16-byte
/// blocks, so particle sweeps stream through the private arrays.
const PARTICLE_WORDS: u64 = 4;
/// Per-cell state: 2 words (population count, energy) — one 16-byte block.
const CELL_WORDS: u64 = 2;

/// Lay out MP3D and spawn one program per processor.
pub fn build(b: &mut SimBuilder, params: &Mp3dParams) {
    let procs = params.procs;
    assert!(procs > 0);
    let bb = b.alloc().high_water(); // keep allocator borrow short
    let _ = bb;
    let block = 16u64;

    // Shared space cells (interleaved across homes by page round-robin).
    let cells_base = b.alloc().alloc(params.cells * CELL_WORDS * 8, block);
    // Global reservoir counter on its own block.
    let reservoir = b.alloc().alloc_padded(8, 64);
    // Per-processor particle slabs.
    let per_proc = params.particles / procs as u64;
    let mut slabs = Vec::new();
    for _ in 0..procs {
        slabs.push(b.alloc().alloc(per_proc * PARTICLE_WORDS * 8, block));
    }
    let bar = Barrier::new(b.alloc(), 64, procs as u64);

    // Seed particle positions.
    let mut rng = SimRng::seed_from_u64(params.seed);
    for slab in &slabs {
        for i in 0..per_proc {
            let p = Addr(slab.0 + i * PARTICLE_WORDS * 8);
            b.init(p, rng.below(params.cells)); // position = cell index
            b.init(p.offset(8), 1 + rng.below(7)); // velocity
        }
    }

    let cells = params.cells;
    let steps = params.steps;
    for pid in 0..procs {
        let slab = slabs[pid as usize];
        let mut prng = rng.fork(pid as u64);
        b.spawn(move |p| {
            let mut sense = BarrierSense::default();
            for _step in 0..steps {
                for i in 0..per_proc {
                    let part = Addr(slab.0 + i * PARTICLE_WORDS * 8);
                    // Advance the particle (private read-modify-write).
                    let pos = p.load(part);
                    let vel = p.load(part.offset(8));
                    p.busy(6); // move computation
                    let newpos = (pos + vel) % cells;
                    p.store(part, newpos);

                    // Enter the destination cell: the migratory RMW.
                    let cell = Addr(cells_base.0 + newpos * CELL_WORDS * 8);
                    let cnt = p.load(cell);
                    p.busy(2);
                    p.store(cell, cnt + 1);

                    // Occasional collision: update the cell energy word
                    // (same block — extends the load-store run) and, rarely,
                    // the global reservoir.
                    if prng.chance(0.35) {
                        let e = p.load(cell.offset(8));
                        p.busy(4); // collision physics
                        p.store(cell.offset(8), e ^ (vel << 1));
                    }
                    if prng.chance(0.02) {
                        p.fetch_add(reservoir, 1);
                    }
                    p.busy(3);
                }
                bar.wait(&p, &mut sense);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::{MachineConfig, ProtocolKind};

    fn run(kind: ProtocolKind) -> ccsim_engine::RunStats {
        let cfg = MachineConfig::splash_baseline(kind);
        let mut b = SimBuilder::new(cfg);
        build(&mut b, &Mp3dParams::quick());
        b.run()
    }

    #[test]
    fn completes_and_moves_all_particles() {
        let s = run(ProtocolKind::Baseline);
        // 400 particles * 3 steps cell RMWs at minimum.
        assert!(s.oracle.total().global_writes > 0);
        assert!(s.exec_cycles > 0);
    }

    #[test]
    fn exhibits_migratory_sharing() {
        let s = run(ProtocolKind::Baseline);
        let t = s.oracle.total();
        assert!(
            t.migratory_writes as f64 > 0.3 * t.ls_writes as f64,
            "MP3D should be migratory-heavy: {} of {} LS writes migrate",
            t.migratory_writes,
            t.ls_writes
        );
    }

    #[test]
    fn ls_and_ad_both_cut_write_stall() {
        let base = run(ProtocolKind::Baseline);
        let ad = run(ProtocolKind::Ad);
        let ls = run(ProtocolKind::Ls);
        assert!(ad.write_stall() < base.write_stall());
        assert!(ls.write_stall() < base.write_stall());
        assert!(
            ls.write_stall() <= ad.write_stall(),
            "LS at least matches AD on MP3D"
        );
    }

    #[test]
    fn deterministic() {
        let a = run(ProtocolKind::Ls);
        let b = run(ProtocolKind::Ls);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.traffic.total_bytes(), b.traffic.total_bytes());
    }
}
