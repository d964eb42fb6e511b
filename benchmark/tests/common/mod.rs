use std::path::PathBuf;

use ccsim_benchmark::workloads::{Scale, Workload};
use ccsim_benchmark::Options;

/// Quick-scale options for `w`: two rounds of jobs, spans (if any) written
/// under this test target's temporary directory.
pub fn quick(w: Workload, trace: bool) -> Options {
    Options {
        workload: w,
        seed: 3,
        seconds: 0.0,
        trace,
        trace_out: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}.trace.json", w.name())),
        scale: Scale::Quick,
    }
}
