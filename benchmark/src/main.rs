//! Command line: run one workload and print its metrics.
//!
//! ```text
//! ccsim-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>]
//! ```
//!
//! `--seconds` defaults to `BENCHMARK.json`'s `run_seconds`.
//!
//! Every metric is printed as `metric <name> <value> <unit>`; the last line
//! is the JSON result. Exit status 0 means every job's output checked out,
//! 1 a failed or malformed run, 2 bad arguments.

use std::path::PathBuf;
use std::process::exit;

use ccsim_benchmark::workloads::{Scale, Workload};
use ccsim_benchmark::{run, Options, RUN_SECONDS};

const USAGE: &str = "usage: ccsim-benchmark --workload <live_splash|replay_oltp|chaos_checked|serve_zipf|model_check> \
--seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>]";

fn bad(msg: &str) -> ! {
    eprintln!("ccsim-benchmark: {msg}\n{USAGE}");
    exit(2)
}

fn parse() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, f64::from(RUN_SECONDS), false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| bad(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(val).unwrap_or_else(|| bad(&format!("unknown workload {val}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .unwrap_or_else(|_| bad("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| bad("--seconds takes a non-negative number"))
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("--trace takes 0 or 1"),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => bad(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| bad("--workload is required"));
    let seed = seed.unwrap_or_else(|| bad("--seed is required"));
    // Spans land next to the build output, inside the checkout.
    let trace_out = trace_out.unwrap_or_else(|| {
        // ccsim-lint: allow(determinism-taint): the build directory only names the span file, never a job input
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        target
            .join("ccsim-benchmark")
            .join(format!("{}-seed{seed}.trace.json", workload.name()))
    });
    Options {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
        scale: Scale::Bench,
    }
}

/// Pin every environment knob the simulator reads, so the parent and the
/// change run the same configuration whatever the caller's shell sets:
/// serial replay, invariant checking off, the fiber backend where the
/// target has it, and no run cache.
fn pin_environment() -> &'static str {
    let backend = if ccsim_engine::fiber::supported() {
        "fiber"
    } else {
        "threads"
    };
    // The process is still single-threaded here.
    std::env::set_var("CCSIM_SIM_THREADS", "1");
    std::env::set_var("CCSIM_INVARIANTS", "off");
    std::env::set_var("CCSIM_SIM_ENGINE", backend);
    std::env::set_var("CCSIM_CACHE", "off");
    backend
}

fn main() {
    let o = parse();
    let backend = pin_environment();
    let effective = ccsim_engine::EngineKind::from_env();
    println!("# engine backend: {effective:?} (CCSIM_SIM_ENGINE={backend}, CCSIM_SIM_THREADS=1, CCSIM_INVARIANTS=off, CCSIM_CACHE=off)");
    match run(&o) {
        Ok(report) => {
            print!("{}", report.render());
            if !report.correct {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("ccsim-benchmark: {e}");
            exit(1);
        }
    }
}
