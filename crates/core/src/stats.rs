//! Protocol-level event counters kept at the directory.

use crate::outcome::ReadMissClass;
use ccsim_util::json_record;

/// Logical event counters kept at the directory (message/byte counts live in
/// the network model; these are protocol-level events, counted even when the
/// requester is local to the home).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Global read actions serviced.
    pub global_reads: u64,
    /// Global read misses by home-state class (Figure 3/4/6/7, right).
    pub read_class: [u64; 4],
    /// Ownership acquisitions by a node already holding a shared copy —
    /// Figure 5's "Global Inv's".
    pub upgrades: u64,
    /// Ownership acquisitions requiring data (write misses).
    pub write_misses: u64,
    /// Invalidation messages the home requested — Figure 5's
    /// "Invalidations".
    pub invalidations_requested: u64,
    /// Ownership acquisitions that found the block in `Shared` state.
    pub writes_to_shared: u64,
    /// Invalidations caused by those (the paper's "≈1.4 invalidations on
    /// average per write to a shared block" uses this ratio).
    pub invals_on_shared_writes: u64,
    /// Reads answered with an exclusive grant (the optimization firing).
    pub exclusive_grants: u64,
    /// Blocks tagged (LS-bit or migratory bit set).
    pub tag_events: u64,
    /// Blocks de-tagged.
    pub detag_events: u64,
    /// `NotLS` notifications received (failed predictions).
    pub notls_events: u64,
    /// DSI tear-off grants (uncached read copies).
    pub tear_grants: u64,
}

json_record!(DirStats {
    global_reads,
    read_class,
    upgrades,
    write_misses,
    invalidations_requested,
    writes_to_shared,
    invals_on_shared_writes,
    exclusive_grants,
    tag_events,
    detag_events,
    notls_events,
    tear_grants
});

impl DirStats {
    // ccsim-lint: allow(panic-path): read-miss class maps to one of four counter slots fixed at construction
    pub(crate) fn classify(&mut self, c: ReadMissClass) {
        let i = match c {
            ReadMissClass::Clean => 0,
            ReadMissClass::Dirty => 1,
            ReadMissClass::CleanExclusive => 2,
            ReadMissClass::DirtyExclusive => 3,
        };
        self.read_class[i] += 1;
    }

    /// Count for one read-miss class.
    pub fn read_class_count(&self, c: ReadMissClass) -> u64 {
        let i = match c {
            ReadMissClass::Clean => 0,
            ReadMissClass::Dirty => 1,
            ReadMissClass::CleanExclusive => 2,
            ReadMissClass::DirtyExclusive => 3,
        };
        self.read_class[i]
    }

    /// Total ownership acquisitions (upgrades + write misses).
    pub fn ownership_acquisitions(&self) -> u64 {
        self.upgrades + self.write_misses
    }

    /// Merge counters from another directory (multi-home aggregation).
    pub fn merge(&mut self, o: &DirStats) {
        self.global_reads += o.global_reads;
        for i in 0..4 {
            self.read_class[i] += o.read_class[i];
        }
        self.upgrades += o.upgrades;
        self.write_misses += o.write_misses;
        self.invalidations_requested += o.invalidations_requested;
        self.writes_to_shared += o.writes_to_shared;
        self.invals_on_shared_writes += o.invals_on_shared_writes;
        self.exclusive_grants += o.exclusive_grants;
        self.tag_events += o.tag_events;
        self.detag_events += o.detag_events;
        self.notls_events += o.notls_events;
        self.tear_grants += o.tear_grants;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge() {
        let mut a = DirStats::default();
        let mut b = DirStats::default();
        a.global_reads = 3;
        a.read_class = [1, 1, 1, 0];
        b.global_reads = 2;
        b.upgrades = 4;
        b.read_class = [0, 0, 1, 1];
        a.merge(&b);
        assert_eq!(a.global_reads, 5);
        assert_eq!(a.upgrades, 4);
        assert_eq!(a.read_class, [1, 1, 2, 1]);
    }
}
