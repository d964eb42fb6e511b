//! Aggregated results of one simulation run.

use ccsim_core::DirStats;
use ccsim_network::Traffic;
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_util::json_record;

use crate::machine::MachineCounters;
use crate::oracle::{FalseSharingStats, OracleStats};

/// Execution-time breakdown for one processor, in cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcTimes {
    /// Compute cycles plus cache-hit time.
    pub busy: u64,
    /// Cycles stalled on global reads.
    pub read_stall: u64,
    /// Cycles stalled on ownership acquisitions (SC write stall).
    pub write_stall: u64,
}

json_record!(ProcTimes {
    busy,
    read_stall,
    write_stall
});

impl ProcTimes {
    pub fn total(&self) -> u64 {
        self.busy + self.read_stall + self.write_stall
    }

    pub fn add(&mut self, o: &ProcTimes) {
        self.busy += o.busy;
        self.read_stall += o.read_stall;
        self.write_stall += o.write_stall;
    }
}

/// Everything a paper figure or table needs from one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunStats {
    pub protocol: ProtocolKind,
    pub config: MachineConfig,
    /// Wall-clock of the parallel execution: the largest processor clock.
    pub exec_cycles: u64,
    pub per_proc: Vec<ProcTimes>,
    pub traffic: Traffic,
    pub dir: DirStats,
    pub machine: MachineCounters,
    pub oracle: OracleStats,
    pub false_sharing: FalseSharingStats,
}

json_record!(RunStats {
    protocol,
    config,
    exec_cycles,
    per_proc,
    traffic,
    dir,
    machine,
    oracle,
    false_sharing
});

impl RunStats {
    /// Summed execution-time breakdown over all processors (the figures
    /// normalize this sum, which weights every processor's cycles equally).
    pub fn times(&self) -> ProcTimes {
        let mut t = ProcTimes::default();
        for p in &self.per_proc {
            t.add(p);
        }
        t
    }

    pub fn busy(&self) -> u64 {
        self.times().busy
    }

    pub fn read_stall(&self) -> u64 {
        self.times().read_stall
    }

    pub fn write_stall(&self) -> u64 {
        self.times().write_stall
    }

    /// Aggregate cycles (busy + stalls over all processors).
    pub fn total_cycles(&self) -> u64 {
        self.times().total()
    }

    /// Average invalidations per ownership acquisition.
    pub fn invalidations_per_write(&self) -> f64 {
        let w = self.dir.ownership_acquisitions();
        if w == 0 {
            0.0
        } else {
            self.dir.invalidations_requested as f64 / w as f64
        }
    }

    /// Average invalidations per write *to a shared block* — the paper's
    /// "about 1.4 invalidations on average per write to a shared block"
    /// metric for OLTP (§5.4).
    pub fn invalidations_per_shared_write(&self) -> f64 {
        if self.dir.writes_to_shared == 0 {
            0.0
        } else {
            self.dir.invals_on_shared_writes as f64 / self.dir.writes_to_shared as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_times_sum() {
        let a = ProcTimes {
            busy: 10,
            read_stall: 5,
            write_stall: 3,
        };
        assert_eq!(a.total(), 18);
        let mut b = ProcTimes::default();
        b.add(&a);
        b.add(&a);
        assert_eq!(b.total(), 36);
        assert_eq!(b.busy, 20);
    }

    /// The run cache stores this encoding: decoding it reconstructs an
    /// equal `RunStats`, and re-encoding reproduces the bytes exactly.
    #[test]
    fn run_stats_round_trip_is_field_identical() {
        use crate::run::SimBuilder;
        use ccsim_util::{FromJson, ToJson};
        for kind in ProtocolKind::ALL {
            let mut b = SimBuilder::new(MachineConfig::splash_baseline(kind));
            let ctr = b.alloc().alloc_words(1);
            for _ in 0..4 {
                b.spawn(move |p| {
                    for _ in 0..50 {
                        p.fetch_add(ctr, 1);
                        p.busy(11);
                    }
                });
            }
            let stats = b.run();
            let text = stats.to_json().to_string();
            let back = RunStats::from_text(&text).unwrap();
            assert_eq!(back, stats, "{kind:?} round trip");
            assert_eq!(back.to_json().to_string(), text, "{kind:?} bytes");
        }
    }
}
