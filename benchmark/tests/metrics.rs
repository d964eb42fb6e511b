//! Every metric `BENCHMARK.json` declares is printed, with its declared
//! unit, on every workload, and nothing else is; the command's default run
//! length is the declared one.

mod common;

use ccsim_benchmark::run;
use ccsim_benchmark::workloads::Workload;
use ccsim_util::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .req(section)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| (m.field("name").unwrap(), m.field("unit").unwrap()))
        .collect()
}

fn check(w: Workload) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run(&common::quick(w, trace)).unwrap();
        assert!(
            report.correct,
            "{} trace {trace}: {:?}",
            w.name(),
            report.notes
        );
        assert_eq!(report.failed, 0);
        let want = declared(section);
        let printed: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(printed, want, "{} trace {trace}", w.name());

        let text = report.render();
        let metric_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("metric ")).collect();
        assert_eq!(metric_lines.len(), want.len());
        for (line, (name, unit)) in metric_lines.iter().zip(&want) {
            let parts: Vec<&str> = line.split(' ').collect();
            assert_eq!(
                (parts[1], parts[3]),
                (name.as_str(), unit.as_str()),
                "{line}"
            );
        }

        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = last.req("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), want.len());
        for ((name, m), (want_name, want_unit)) in metrics.iter().zip(&want) {
            assert_eq!(name, want_name);
            assert_eq!(&m.field::<String>("unit").unwrap(), want_unit);
            assert!(m.req("value").unwrap().as_f64().unwrap().is_finite());
        }
    }
}

#[test]
fn the_default_run_length_is_the_declared_run_seconds() {
    let declared = benchmark_json()
        .req("run_seconds")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(declared, u64::from(ccsim_benchmark::RUN_SECONDS));
}

#[test]
fn live_splash_prints_exactly_the_declared_metrics() {
    check(Workload::LiveSplash);
}

#[test]
fn replay_oltp_prints_exactly_the_declared_metrics() {
    check(Workload::ReplayOltp);
}

#[test]
fn chaos_checked_prints_exactly_the_declared_metrics() {
    check(Workload::ChaosChecked);
}

#[test]
fn serve_zipf_prints_exactly_the_declared_metrics() {
    check(Workload::ServeZipf);
}

#[test]
fn model_check_prints_exactly_the_declared_metrics() {
    check(Workload::ModelCheck);
}
