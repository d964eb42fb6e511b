//! `ccsim-benchmark`: one workload per process, a closed loop of fixed
//! jobs timed for a set number of seconds, every output checked.
//!
//! * `--trace 0` reports the end-to-end metrics: set-up time, work per
//!   second, job latency (median and 90th percentile), peak memory, and the
//!   paper's LS-versus-Baseline cuts in ownership acquisitions and write
//!   stall.
//! * `--trace 1` repeats the loop with every other job of each cell traced,
//!   then makes one layer pass ([`layers`]) and reports the per-layer
//!   metrics; the spans go to a Chrome Trace Event file.
//!
//! Host time and simulated cycles never share a metric. Host times of the
//! loop and of set-up are scaled to the reference host speed with the
//! calibration kernel in [`spans`].

mod layers;
pub mod report;
pub mod spans;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use report::{geomean, lognormal_p90, median, metric, peak_heap_mb, Metric, Report};
use spans::{now, timed, Calibration, Tracer, CALIBRATION_NOMINAL_MS};
use workloads::{model_reference_cut, paper_cut, setup, Output, Scale, Setup, Workload};

/// Measurement time when `--seconds` is not given: `BENCHMARK.json`'s
/// `run_seconds`, which its tests hold this to.
pub const RUN_SECONDS: u32 = 16;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Seconds of jobs between two host-speed calibrations.
const CALIBRATE_EVERY_S: f64 = 0.5;

/// Capacity reserved for per-job records, far above the job count of any
/// run.
const MAX_LOGGED_JOBS: usize = 1 << 16;

#[derive(Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement time. The loop always completes two jobs of every cell,
    /// so `0` runs exactly two rounds.
    pub seconds: f64,
    pub trace: bool,
    /// Where `--trace 1` writes its spans.
    pub trace_out: PathBuf,
    pub scale: Scale,
}

/// One successful timed job.
struct Sample {
    cell: usize,
    /// Position in the loop (0 = first job attempted).
    job: u64,
    /// Host ms at the reference speed.
    ms: f64,
    traced: bool,
}

/// What the measurement loop saw.
struct Measured {
    samples: Vec<Sample>,
    /// First successful output of each cell.
    first: Vec<Option<Output>>,
    attempted: u64,
    failures: Vec<String>,
    /// Median of the loop's host-speed calibrations, ms.
    calibration_ms: f64,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Cycle through the cells until `seconds` have passed and every cell has
/// run at least twice. With `trace`, every second job of each cell runs
/// with spans on. Each job's time is scaled by the mean of the two
/// calibrations that bracket it.
fn measure(
    s: &Setup,
    seconds: f64,
    trace: bool,
    cal: &mut Calibration,
    tr: &mut Tracer,
) -> Measured {
    let n = s.cells.len();
    // Sized up front: a buffer that grew with the job count would make the
    // heap, and so `peak_heap_mb`, depend on how fast the host ran.
    let mut m = Measured {
        samples: Vec::with_capacity(MAX_LOGGED_JOBS),
        first: vec![None; n],
        attempted: 0,
        failures: Vec::new(),
        calibration_ms: 0.0,
    };
    let mut runs = vec![0u64; n];
    let names: Vec<String> = s.cells.iter().map(|c| format!("job {}", c.label)).collect();
    // (jobs attempted before it, ms)
    let mut calibrations = Vec::with_capacity(MAX_LOGGED_JOBS);
    calibrations.push((0u64, cal.run_ms()));
    let mut last_calibration = now();
    let start = now();
    'rounds: loop {
        for (ci, cell) in s.cells.iter().enumerate() {
            let traced = trace && runs[ci] % 2 == 1;
            tr.set_enabled(traced);
            tr.set_job(Some(m.attempted));
            let (secs, result) = timed(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    tr.span(&names[ci], |tr| cell.job.run(tr))
                }))
            });
            tr.set_enabled(false);
            let job = m.attempted;
            runs[ci] += 1;
            m.attempted += 1;
            let outcome = match result {
                Ok(Ok(out)) => match &m.first[ci] {
                    Some(f) if f.digest != out.digest => {
                        Err("output differs from the cell's first job".to_string())
                    }
                    Some(_) => Ok(()),
                    None => {
                        m.first[ci] = Some(out);
                        Ok(())
                    }
                },
                Ok(Err(e)) => Err(e),
                Err(payload) => {
                    tr.close_abandoned();
                    Err(format!("panic: {}", panic_message(payload)))
                }
            };
            match outcome {
                Ok(()) => m.samples.push(Sample {
                    cell: ci,
                    job,
                    ms: secs * 1e3,
                    traced,
                }),
                Err(e) => m.failures.push(format!("{}: {e}", cell.label)),
            }
            let done = runs.iter().all(|&r| r >= 2) && start.elapsed().as_secs_f64() >= seconds;
            if done || last_calibration.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S {
                calibrations.push((m.attempted, cal.run_ms()));
                last_calibration = now();
            }
            if done {
                break 'rounds;
            }
        }
    }
    m.calibration_ms = median(&calibrations.iter().map(|c| c.1).collect::<Vec<_>>());
    for x in &mut m.samples {
        let before = calibrations.iter().rev().find(|c| c.0 <= x.job);
        let after = calibrations.iter().find(|c| c.0 > x.job);
        if let (Some(b), Some(a)) = (before, after) {
            x.ms *= CALIBRATION_NOMINAL_MS / ((b.1 + a.1) / 2.0);
        }
    }
    m
}

/// Per-cell median job time over the samples `keep` selects.
fn cell_medians(
    m: &Measured,
    cells: usize,
    keep: impl Fn(&Sample) -> bool,
) -> Result<Vec<f64>, String> {
    (0..cells)
        .map(|c| {
            let t: Vec<f64> = m
                .samples
                .iter()
                .filter(|s| s.cell == c && keep(s))
                .map(|s| s.ms)
                .collect();
            if t.is_empty() {
                Err(format!("cell {c} has no successful timed job"))
            } else {
                Ok(median(&t))
            }
        })
        .collect()
}

/// The end-to-end metrics. Every repeat of a cell does the same work, so
/// the spread within a cell is host noise and the spread that matters is
/// across cells. Each cell is measured by its median job time, and the job
/// latencies are the median and 90th percentile of the log-normal fitted to
/// those medians: smooth in every cell, where an order statistic over a few
/// noisy cell medians jumps from run to run.
fn end_to_end(
    o: &Options,
    s: &Setup,
    m: &Measured,
    setup_s: f64,
    peak_heap: f64,
) -> Result<Vec<Metric>, String> {
    let medians = cell_medians(m, s.cells.len(), |_| true)?;
    let work: u64 = m.first.iter().flatten().map(|o| o.work).sum();
    let cut = match o.workload {
        Workload::ModelCheck => model_reference_cut(o.scale),
        _ => paper_cut(&s.cells, &m.first)?,
    };
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "work_per_s",
            work as f64 / (medians.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        metric("job_p50_ms", geomean(&medians), "ms"),
        metric("job_p90_ms", lognormal_p90(&medians), "ms"),
        metric("peak_heap_mb", peak_heap, "MB"),
        metric("ls_ownacq_cut_pct", cut.ownacq_pct, "%"),
        metric("ls_write_stall_cut_pct", cut.write_stall_pct, "%"),
    ])
}

/// Build the inputs and run one warm-up job, so timing starts with warm
/// code and heap. Returns the set-up and its time in seconds at the
/// reference speed.
fn prepare(o: &Options, cal: &mut Calibration) -> Result<(Setup, f64), String> {
    let before = cal.run_ms();
    let (secs, s) = timed(|| -> Result<Setup, String> {
        let s = setup(o.workload, o.seed, o.scale)?;
        s.cells[0].job.run(&mut Tracer::new(false))?;
        Ok(s)
    });
    Ok((
        s?,
        secs * CALIBRATION_NOMINAL_MS / ((before + cal.run_ms()) / 2.0),
    ))
}

/// Median time of `first` and `SETUP_REPEATS - 1` more set-ups, each of
/// which must build the same inputs as `s`.
fn setup_median(o: &Options, s: &Setup, first: f64, cal: &mut Calibration) -> Result<f64, String> {
    let mut times = vec![first];
    for _ in 1..SETUP_REPEATS {
        let (again, secs) = prepare(o, cal)?;
        if again.input_digest != s.input_digest {
            return Err("set-up built different inputs from the same seed".into());
        }
        times.push(secs);
    }
    Ok(median(&times))
}

/// Run one workload and build its report.
pub fn run(o: &Options) -> Result<Report, String> {
    let mut cal = Calibration::new();
    let (s, first_setup_s) = prepare(o, &mut cal)?;
    let mut tr = Tracer::new(false);
    let m = measure(&s, o.seconds, o.trace, &mut cal, &mut tr);
    let mut notes = vec![
        format!(
            "workload {} seed {} scale {:?} trace {}",
            o.workload.name(),
            o.seed,
            o.scale,
            u8::from(o.trace)
        ),
        format!(
            "{} jobs over {} cells; {} host threads available",
            m.attempted,
            s.cells.len(),
            layers::nproc()
        ),
        format!(
            "host speed: calibration median {:.3} ms (reference {CALIBRATION_NOMINAL_MS} ms)",
            m.calibration_ms
        ),
    ];
    notes.extend(m.failures.iter().take(10).map(|f| format!("FAILED {f}")));

    let metrics = if o.trace {
        let untraced = cell_medians(&m, s.cells.len(), |x| !x.traced)?;
        let traced = cell_medians(&m, s.cells.len(), |x| x.traced)?;
        tr.set_enabled(true);
        tr.set_job(None);
        let mut metrics = tr.span("layer pass", |tr| layers::layer_pass(&s.layer, o.scale, tr))?;
        metrics.push(metric(
            "bench.trace_overhead_frac",
            geomean(&traced) / geomean(&untraced) - 1.0,
            "frac",
        ));
        if let Some(dir) = o.trace_out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&o.trace_out, tr.to_chrome_json())
            .map_err(|e| format!("{}: {e}", o.trace_out.display()))?;
        notes.push(format!(
            "trace: {} ({} spans; open in https://ui.perfetto.dev)",
            o.trace_out.display(),
            tr.spans().len()
        ));
        metrics
    } else {
        // Read before set-up is repeated: a repeat builds a second set of
        // inputs while the first is still live.
        let peak_heap = peak_heap_mb();
        let setup_s = setup_median(o, &s, first_setup_s, &mut cal)?;
        end_to_end(o, &s, &m, setup_s, peak_heap)?
    };
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    Ok(Report {
        notes,
        attempted: m.attempted,
        failed: m.failures.len() as u64,
        correct: m.failures.is_empty(),
        metrics,
    })
}
