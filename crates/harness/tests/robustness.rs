//! Fail-safe harness tests: a batch of experiments must survive its worst
//! members. One job panicking, or one cache entry rotting on disk, costs
//! exactly that job or that entry — never the batch.

use std::path::PathBuf;

use ccsim_harness::{cache, CacheMode, JobSet};
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_workloads::{mp3d, run_spec, Spec};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ccsim-robustness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tiny_spec(particles: u64) -> Spec {
    let mut p = mp3d::Mp3dParams::quick();
    p.particles = particles;
    p.steps = 1;
    Spec::Mp3d(p)
}

/// A config that passes no validation: the simulation for it panics the
/// moment it is built, exercising the `catch_unwind` isolation path.
fn poisoned_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::splash_baseline(ProtocolKind::Ad);
    cfg.schedule_quantum = 0;
    cfg
}

fn entry_path(dir: &std::path::Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

fn quarantine_path(dir: &std::path::Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json.corrupt"))
}

/// Corruption recovery, all three rot modes: a truncated entry, pure
/// garbage, and a wrong-format-version entry each read as a miss, get
/// quarantined for inspection, and are repaired by the next read-write run.
#[test]
fn cache_recovers_from_every_corruption_mode() {
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    let spec = tiny_spec(24);
    let key = cache::run_key(&cfg, &spec);
    let expected = run_spec(cfg, &spec);

    #[allow(clippy::type_complexity)]
    let corruptions: [(&str, Box<dyn Fn(&str) -> String>); 3] = [
        // Truncated mid-write (e.g. a crashed process, a full disk).
        (
            "truncated",
            Box::new(|text: &str| text[..text.len() / 2].to_string()),
        ),
        // Arbitrary garbage.
        (
            "garbage",
            Box::new(|_: &str| "not json at all \u{0}\u{1}".to_string()),
        ),
        // A valid document from a different (older) format version.
        (
            "wrong-format",
            Box::new(|text: &str| text.replace("ccsim-run-cache-v2", "ccsim-run-cache-v1")),
        ),
    ];

    for (tag, corrupt) in corruptions {
        let dir = temp_dir(&format!("rot-{tag}"));
        // Seed a healthy entry, then rot it.
        let healthy = cache::run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
        assert_eq!(healthy, expected, "{tag}: seeding run");
        let path = entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).unwrap();
        let rotted = corrupt(&text);
        assert_ne!(text, rotted, "{tag}: corruption must change the entry");
        std::fs::write(&path, rotted).unwrap();

        // The rotted entry is a miss — the run still returns correct stats —
        // and the file is quarantined, then healed by the miss's write-back.
        let recovered = cache::run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
        assert_eq!(recovered, expected, "{tag}: recovery run");
        assert!(
            quarantine_path(&dir, &key).exists(),
            "{tag}: corrupt entry must be quarantined, not deleted"
        );
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(healed, text, "{tag}: healed entry matches the original");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A hostile entry nested 100,000 levels deep would overflow the stack of
/// the recursive JSON parser and abort the whole process. The parser's
/// depth cap turns it into an ordinary decode error: the entry is
/// quarantined and the run recomputes, on a 2 MiB worker-sized stack.
#[test]
fn deeply_nested_cache_entry_is_quarantined() {
    let cfg = MachineConfig::splash_baseline(ProtocolKind::Ad);
    let spec = tiny_spec(20);
    let key = cache::run_key(&cfg, &spec);
    let expected = run_spec(cfg, &spec);
    let dir = temp_dir("deep");
    cache::run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
    let path = entry_path(&dir, &key);
    let text = std::fs::read_to_string(&path).unwrap();
    let depth = 100_000;
    let hostile = format!(
        "{{\"format\": \"ccsim-run-cache-v2\", \"stats\": {}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    std::fs::write(&path, hostile).unwrap();

    let worker_dir = dir.clone();
    let recovered = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || cache::run_cached_at(cfg, &spec, CacheMode::ReadWrite, &worker_dir))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(recovered, expected);
    assert!(quarantine_path(&dir, &key).exists());
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        text,
        "entry healed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: one panicking job in a parallel batch yields `Err` in that
/// job's slot — with index, workload, protocol and panic message — while
/// every other job completes, in submission order.
#[test]
fn one_panicking_job_does_not_poison_the_batch() {
    let good = MachineConfig::splash_baseline(ProtocolKind::Baseline);
    let mut set = JobSet::new();
    set.push(good.with_protocol(ProtocolKind::Ls), tiny_spec(24));
    set.push(poisoned_cfg(), tiny_spec(24));
    set.push(good.with_protocol(ProtocolKind::Ad), tiny_spec(24));
    set.push(good, tiny_spec(16));
    let results = set.run_checked_with(3, CacheMode::Off, cache::default_dir());

    assert_eq!(results.len(), 4);
    assert_eq!(results[0].as_ref().unwrap().protocol, ProtocolKind::Ls);
    assert_eq!(results[2].as_ref().unwrap().protocol, ProtocolKind::Ad);
    assert_eq!(
        results[3].as_ref().unwrap().protocol,
        ProtocolKind::Baseline
    );

    let err = results[1].as_ref().unwrap_err();
    assert_eq!(err.index, 1);
    assert_eq!(err.protocol, ProtocolKind::Ad);
    assert!(
        err.detail.contains("schedule quantum"),
        "panic message must reach the error: {err}"
    );
    assert!(
        err.to_string().contains("Mp3d"),
        "error must name the workload: {err}"
    );

    // The healthy results equal fresh standalone runs.
    assert_eq!(
        *results[0].as_ref().unwrap(),
        run_spec(good.with_protocol(ProtocolKind::Ls), &tiny_spec(24))
    );
}

/// The acceptance batch: a panicking job AND a corrupt cache entry in the
/// same `JobSet`. Every healthy job completes (the one whose entry rotted
/// recomputes), both failures are visible — the panic as a structured
/// `JobError`, the rot as a quarantined file — and nothing hangs.
#[test]
fn batch_survives_panic_and_corrupt_cache_together() {
    let dir = temp_dir("acceptance");
    let good = MachineConfig::splash_baseline(ProtocolKind::Baseline);
    let rotted_spec = tiny_spec(32);
    let rotted_key = cache::run_key(&good, &rotted_spec);

    // Seed the cache for one job, then rot its entry.
    let seeded = cache::run_cached_at(good, &rotted_spec, CacheMode::ReadWrite, &dir);
    let path = entry_path(&dir, &rotted_key);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 3]).unwrap();

    let mut set = JobSet::new();
    set.push(good, rotted_spec.clone());
    set.push(poisoned_cfg(), tiny_spec(24));
    set.push(good.with_protocol(ProtocolKind::Ls), tiny_spec(24));
    let results = set.run_checked_with(3, CacheMode::ReadWrite, dir.clone());

    // Healthy jobs completed with correct results, in order.
    assert_eq!(results[0].as_ref().unwrap(), &seeded);
    assert_eq!(results[2].as_ref().unwrap().protocol, ProtocolKind::Ls);
    // The panic is reported with actionable context…
    let err = results[1].as_ref().unwrap_err();
    assert_eq!(err.index, 1);
    assert!(err.detail.contains("schedule quantum"), "{err}");
    // …and so is the corruption: quarantined on disk, entry healed.
    assert!(quarantine_path(&dir, &rotted_key).exists());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run_with` (the panicking façade) still dies on a failed job — but now
/// with the job's context in the message, not a bare worker panic.
#[test]
#[should_panic(expected = "job #0")]
fn run_with_panics_with_job_context() {
    let mut set = JobSet::new();
    set.push(poisoned_cfg(), tiny_spec(16));
    set.run_with(1, CacheMode::Off, cache::default_dir());
}
