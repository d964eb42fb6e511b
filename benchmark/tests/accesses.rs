//! The access count the benchmark derives from a run's counters is the
//! number of accesses the run really made.

use ccsim_benchmark::workloads::{setup, stats_accesses, trace_accesses, Job, Scale, Workload};
use ccsim_workloads::capture_spec;

#[test]
fn counters_account_for_every_captured_access_of_every_live_splash_input() {
    let s = setup(Workload::LiveSplash, 5, Scale::Quick).unwrap();
    assert_eq!(s.cells.len(), 9);
    for cell in &s.cells {
        let Job::Live { cfg, spec } = &cell.job else {
            panic!("{} is not a live job", cell.label);
        };
        let (stats, trace) = capture_spec(*cfg, spec);
        assert!(trace_accesses(&trace) > 0, "{}", cell.label);
        assert_eq!(
            stats_accesses(&stats),
            trace_accesses(&trace),
            "{}",
            cell.label
        );
    }
}
