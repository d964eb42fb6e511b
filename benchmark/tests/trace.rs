//! `--trace 1` writes Chrome Trace Event JSON whose spans nest properly.

mod common;

use ccsim_benchmark::run;
use ccsim_benchmark::workloads::Workload;
use ccsim_util::Json;

#[test]
fn the_span_file_parses_and_every_child_lies_inside_its_parent() {
    let mut o = common::quick(Workload::ChaosChecked, true);
    o.trace_out.set_file_name("nesting.trace.json");
    let report = run(&o).unwrap();
    assert!(report.correct);
    let doc = Json::parse(&std::fs::read_to_string(&o.trace_out).unwrap()).unwrap();
    let events = doc.req("traceEvents").unwrap().as_arr().unwrap();
    // (start, end, parent) in microseconds, indexed by span id.
    let spans: Vec<(f64, f64, i64)> = events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let args = e.req("args").unwrap();
            assert_eq!(args.field::<u64>("id").unwrap(), i as u64);
            assert_eq!(e.field::<String>("ph").unwrap(), "X");
            let ts: f64 = e.field("ts").unwrap();
            let dur: f64 = e.field("dur").unwrap();
            (ts, ts + dur, args.field("parent").unwrap())
        })
        .collect();
    let names: Vec<String> = events.iter().map(|e| e.field("name").unwrap()).collect();
    for layer in [
        "job ",
        "engine.invariants",
        "engine.events",
        "race",
        "layer.engine",
        "cache.probe",
        "model.explore",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(layer)),
            "no {layer} span"
        );
    }
    let mut children = 0;
    for (i, &(start, end, parent)) in spans.iter().enumerate() {
        assert!(start <= end, "span {i} ends before it starts");
        if parent >= 0 {
            let (ps, pe, _) = spans[parent as usize];
            assert!(parent < i as i64, "span {i} opened before its parent");
            assert!(
                ps <= start && end <= pe,
                "span {i} ({}) leaks out of its parent",
                names[i]
            );
            children += 1;
        }
    }
    assert!(children > 0);
}
