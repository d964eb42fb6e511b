//! Hand-computed checks of the normalization arithmetic.
//!
//! The component statistics carry private fields, so synthetic `RunStats`
//! are built through the public JSON surface: encode a real (tiny) run,
//! overwrite the numeric fields with chosen values, decode back. Every
//! expected percentage below is computed by hand from those values.

use ccsim_engine::{RunStats, SimBuilder};
use ccsim_stats::{RunSummary, Triptych};
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_util::{FromJson, Json, ToJson};

/// Overwrite the field at `path` inside nested JSON objects.
fn set(j: &mut Json, path: &[&str], v: Json) {
    let Json::Obj(fields) = j else {
        panic!("not an object at {path:?}")
    };
    let (head, rest) = (path[0], &path[1..]);
    let slot = fields
        .iter_mut()
        .find(|(k, _)| k == head)
        .unwrap_or_else(|| panic!("no field `{head}`"));
    if rest.is_empty() {
        slot.1 = v;
    } else {
        set(&mut slot.1, rest, v);
    }
}

fn u(v: u64) -> Json {
    v.to_json()
}

/// A real run of the given protocol, used only as a valid JSON skeleton.
fn skeleton(kind: ProtocolKind) -> Json {
    let mut b = SimBuilder::new(MachineConfig::splash_baseline(kind));
    let a = b.alloc().alloc_words(1);
    b.spawn(move |p| {
        let x = p.load(a);
        p.store(a, x + 1);
    });
    b.run().to_json()
}

/// One processor with the given times; replaces the whole `per_proc` array
/// so the aggregate equals these values exactly.
fn one_proc(busy: u64, read_stall: u64, write_stall: u64) -> Json {
    Json::Arr(vec![Json::obj(vec![
        ("busy", u(busy)),
        ("read_stall", u(read_stall)),
        ("write_stall", u(write_stall)),
    ])])
}

fn synthetic(
    kind: ProtocolKind,
    times: (u64, u64, u64),
    traffic_bytes: (u64, u64, u64),
    read_class: [u64; 4],
) -> RunStats {
    let mut j = skeleton(kind);
    set(&mut j, &["per_proc"], one_proc(times.0, times.1, times.2));
    for (class, bytes) in [
        ("read", traffic_bytes.0),
        ("write", traffic_bytes.1),
        ("other", traffic_bytes.2),
    ] {
        set(&mut j, &["traffic", class, "bytes"], u(bytes));
    }
    set(
        &mut j,
        &["dir", "read_class"],
        Json::Arr(read_class.iter().map(|&x| u(x)).collect()),
    );
    set(&mut j, &["dir", "global_reads"], u(read_class.iter().sum()));
    RunStats::from_json(&j).expect("synthetic stats decode")
}

#[test]
fn triptych_percentages_match_hand_computation() {
    // Baseline totals: time 500+300+200 = 1000, traffic 600+300+100 = 1000
    // bytes, read misses 100+50+30+20 = 200.
    let base = synthetic(
        ProtocolKind::Baseline,
        (500, 300, 200),
        (600, 300, 100),
        [100, 50, 30, 20],
    );
    // Variant: time 500+250+50 = 800, traffic 500+100+50 = 650, misses 100.
    let ls = synthetic(
        ProtocolKind::Ls,
        (500, 250, 50),
        (500, 100, 50),
        [50, 25, 15, 10],
    );

    let t = Triptych::new("synthetic", &[base, ls]);
    let b = t.run(ProtocolKind::Baseline).unwrap();
    let l = t.run(ProtocolKind::Ls).unwrap();

    // Baseline normalizes to exactly 100 in every section.
    assert_eq!((b.busy, b.read_stall, b.write_stall), (50.0, 30.0, 20.0));
    assert_eq!(b.time_total(), 100.0);
    assert_eq!(
        (b.traffic_read, b.traffic_write, b.traffic_other),
        (60.0, 30.0, 10.0)
    );
    assert_eq!(b.read_class, [50.0, 25.0, 15.0, 10.0]);

    // Variant percentages, each against the *Baseline* total:
    // 500/1000, 250/1000, 50/1000 of time; 500/1000, 100/1000, 50/1000 of
    // bytes; 50/200, 25/200, 15/200, 10/200 of read misses.
    assert_eq!((l.busy, l.read_stall, l.write_stall), (50.0, 25.0, 5.0));
    assert_eq!(l.time_total(), 80.0);
    assert_eq!(
        (l.traffic_read, l.traffic_write, l.traffic_other),
        (50.0, 10.0, 5.0)
    );
    assert_eq!(l.traffic_total(), 65.0);
    assert_eq!(l.read_class, [25.0, 12.5, 7.5, 5.0]);
    assert_eq!(l.read_miss_total(), 50.0);
}

#[test]
fn zero_baseline_denominators_normalize_to_zero() {
    let base = synthetic(ProtocolKind::Baseline, (100, 0, 0), (0, 0, 0), [0, 0, 0, 0]);
    let ls = synthetic(ProtocolKind::Ls, (80, 0, 0), (10, 0, 0), [1, 0, 0, 0]);
    let t = Triptych::new("zeros", &[base, ls]);
    let l = t.run(ProtocolKind::Ls).unwrap();
    // No division by zero: zero-denominator sections report 0, time is real.
    assert_eq!(l.traffic_total(), 0.0);
    assert_eq!(l.read_miss_total(), 0.0);
    assert_eq!(l.time_total(), 80.0);
}

#[test]
fn run_summary_reflects_synthetic_values_and_round_trips() {
    let r = synthetic(
        ProtocolKind::Ad,
        (500, 300, 200),
        (600, 300, 100),
        [100, 50, 30, 20],
    );
    let s = RunSummary::from_stats(&r);
    assert_eq!(s.protocol, "AD");
    assert_eq!((s.busy, s.read_stall, s.write_stall), (500, 300, 200));
    assert_eq!(s.exec_cycles, r.exec_cycles);
    assert_eq!(
        (
            s.traffic_read_bytes,
            s.traffic_write_bytes,
            s.traffic_other_bytes
        ),
        (600, 300, 100)
    );
    assert_eq!(s.read_class, [100, 50, 30, 20]);
    assert_eq!(s.global_reads, 200);
    let back = RunSummary::from_text(&s.to_json().pretty()).unwrap();
    assert_eq!(back, s);
}
