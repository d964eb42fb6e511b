//! Smoke tests for the `ccsim` command-line front end.

use std::process::Command;

use ccsim::util::Json;

fn ccsim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ccsim"))
        .args(args)
        .output()
        .expect("run ccsim binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `--json` output is exactly one canonical pretty-printed document: a
/// compact encoding, or any trailing text, fails.
fn assert_pretty_json(stdout: &str) {
    let doc = Json::parse(stdout).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    assert_eq!(stdout, doc.pretty());
}

#[test]
fn config_prints_derived_latencies() {
    let (ok, stdout, _) = ccsim(&["config"]);
    assert!(ok);
    assert!(stdout.contains("local 100 / home 220 / remote 420"));
}

#[test]
fn run_quick_mp3d_ls() {
    let (ok, stdout, _) = ccsim(&["run", "--workload", "mp3d", "--protocol", "ls"]);
    assert!(ok);
    assert!(stdout.contains("protocol        LS"));
    assert!(stdout.contains("silent stores"));
}

#[test]
fn run_json_output_parses() {
    let (ok, stdout, _) = ccsim(&[
        "run",
        "--workload",
        "mp3d",
        "--protocol",
        "baseline",
        "--json",
    ]);
    assert!(ok);
    assert!(stdout.trim_start().starts_with('{'));
    assert!(stdout.contains("\"protocol\": \"Baseline\""));
    assert_pretty_json(&stdout);
}

#[test]
fn compare_renders_triptych() {
    let (ok, stdout, _) = ccsim(&["compare", "--workload", "mp3d"]);
    assert!(ok);
    assert!(stdout.contains("Normalized execution time"));
    assert!(stdout.contains("Baseline"));
    assert!(stdout.contains("LS"));
}

#[test]
fn custom_geometry_flags() {
    let (ok, stdout, _) = ccsim(&[
        "run",
        "--workload",
        "mp3d",
        "--protocol",
        "ad",
        "--block",
        "32",
        "--l2-kb",
        "128",
        "--quantum",
        "16",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("protocol        AD"));
}

#[test]
fn relaxed_consistency_zeroes_write_stall() {
    let (ok, stdout, _) = ccsim(&[
        "run",
        "--workload",
        "mp3d",
        "--protocol",
        "baseline",
        "--relaxed",
    ]);
    assert!(ok);
    let ws: u64 = stdout
        .lines()
        .find(|l| l.starts_with("write stall"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("write stall line");
    assert_eq!(ws, 0, "relaxed model hides all write stall");
}

#[test]
fn model_subcommand_explores_all_protocols_cleanly() {
    let (ok, stdout, _) = ccsim(&["model", "--protocol", "all"]);
    assert!(ok, "stdout: {stdout}");
    for label in ["Baseline", "AD", "LS"] {
        assert!(stdout.contains(label));
    }
    assert!(stdout.contains("clean"));
    assert!(!stdout.contains("VIOLATION"));
}

#[test]
fn model_json_emits_summaries() {
    let (ok, stdout, _) = ccsim(&["model", "--protocol", "ls", "--json"]);
    assert!(ok);
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.contains("\"state_fingerprint\""));
    assert!(stdout.contains("\"violation\": \"\""));
    assert_pretty_json(&stdout);
}

#[test]
fn model_expect_violation_fails_on_a_clean_protocol() {
    let (ok, _, _) = ccsim(&["model", "--protocol", "baseline", "--expect-violation"]);
    assert!(!ok, "a clean exploration must fail --expect-violation");
}

// No negative test for `--mutation` without the `testing` feature: in a
// workspace-wide test run, cargo's feature unification enables the model
// crate's testing hooks through its own dev-dependency, so the binary
// under test accepts mutations regardless of this package's features.
#[cfg(feature = "testing")]
#[test]
fn model_mutation_is_caught_with_a_replayed_counterexample() {
    let (ok, stdout, _) = ccsim(&[
        "model",
        "--protocol",
        "ls",
        "--mutation",
        "skip-ls-detag",
        "--expect-violation",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("counterexample"));
    assert!(stdout.contains("engine replay"));
}

#[test]
fn verify_subcommand_proves_all_protocols_parametrically() {
    let (ok, stdout, _) = ccsim(&["verify", "--protocol", "all"]);
    assert!(ok, "stdout: {stdout}");
    for label in ["Baseline", "AD", "LS"] {
        assert!(stdout.contains(label));
    }
    assert_eq!(stdout.matches("proved for every node count").count(), 3);
    assert!(!stdout.contains("VIOLATION"));
}

#[test]
fn verify_json_emits_summaries() {
    let (ok, stdout, _) = ccsim(&["verify", "--protocol", "ls", "--json"]);
    assert!(ok);
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.contains("\"abstract_states\""));
    assert!(stdout.contains("\"parametric\": true"));
    assert!(stdout.contains("\"violation\": \"\""));
    assert_pretty_json(&stdout);
}

#[test]
fn verify_expect_violation_fails_on_a_clean_protocol() {
    let (ok, _, _) = ccsim(&["verify", "--protocol", "ad", "--expect-violation"]);
    assert!(!ok, "a parametric proof must fail --expect-violation");
}

#[test]
fn verify_rejects_unknown_formats() {
    let (ok, _, stderr) = ccsim(&["verify", "--format", "sarif"]);
    assert!(!ok);
    assert!(stderr.contains("unknown verify format"));
}

// See the note above `model_mutation_is_caught_with_a_replayed_counterexample`
// for why this needs the feature gate.
#[cfg(feature = "testing")]
#[test]
fn verify_convicts_a_mutation_with_github_annotations() {
    let (ok, stdout, _) = ccsim(&[
        "verify",
        "--protocol",
        "baseline",
        "--mutation",
        "drop-invalidations",
        "--expect-violation",
        "--format",
        "github",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("abstract counterexample"));
    assert!(stdout.contains("concretized at n="));
    assert!(stdout.contains("engine replay"));
    // The annotation points at the enforcement site of the violated rule.
    assert!(
        stdout.contains("::error file=crates/core/src/rules.rs,line="),
        "stdout: {stdout}"
    );
}

#[cfg(feature = "testing")]
#[test]
fn model_emits_github_annotations_for_counterexamples() {
    let (ok, stdout, _) = ccsim(&[
        "model",
        "--protocol",
        "ls",
        "--mutation",
        "skip-ls-detag",
        "--expect-violation",
        "--format",
        "github",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(
        stdout.contains("::error file=crates/core/src/rules.rs,line="),
        "stdout: {stdout}"
    );
}

#[test]
fn model_rejects_unknown_mutations_and_dsi() {
    let (ok, _, stderr) = ccsim(&["model", "--mutation", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown mutation"));
    let (ok, _, stderr) = ccsim(&["model", "--protocol", "dsi"]);
    assert!(!ok);
    assert!(stderr.contains("unknown protocol"));
}

#[test]
fn lint_deny_passes_on_this_workspace() {
    // The repo must stay clean under its own linter — the same gate CI runs.
    let (ok, stdout, _) = ccsim(&["lint", "--deny", "--root", env!("CARGO_MANIFEST_DIR")]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("0 diagnostic(s)"));
}

#[test]
fn lint_json_emits_an_array() {
    let (ok, stdout, _) = ccsim(&["lint", "--json", "--root", env!("CARGO_MANIFEST_DIR")]);
    assert!(ok);
    assert!(stdout.trim_start().starts_with('['));
}

#[test]
fn lint_explain_describes_each_rule() {
    for rule in [
        "randomstate",
        "wall-clock",
        "unwrap",
        "testing-gate",
        "lock-order",
        "guard-across-fanout",
        "lock-order-global",
        "determinism-taint",
        "panic-path",
        "unbounded-retry",
        "bad-allow",
    ] {
        let (ok, stdout, _) = ccsim(&["lint", "--explain", rule]);
        assert!(ok, "rule {rule}");
        assert!(stdout.contains(&format!("[{rule}]")), "rule {rule}");
    }
    let (ok, _, stderr) = ccsim(&["lint", "--explain", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown rule"));
}

#[test]
fn lint_github_format_emits_no_annotations_on_a_clean_tree() {
    let (ok, stdout, _) = ccsim(&[
        "lint",
        "--format",
        "github",
        "--root",
        env!("CARGO_MANIFEST_DIR"),
    ]);
    assert!(ok, "stdout: {stdout}");
    // A clean tree produces zero `::error` workflow commands.
    assert!(!stdout.contains("::error"), "stdout: {stdout}");
}

#[test]
fn lint_sarif_format_emits_a_valid_log() {
    let (ok, stdout, _) = ccsim(&[
        "lint",
        "--format",
        "sarif",
        "--root",
        env!("CARGO_MANIFEST_DIR"),
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(
        stdout.contains("\"version\": \"2.1.0\""),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("ccsim-lint"), "stdout: {stdout}");
    // The driver advertises every rule even when the tree is clean.
    assert!(stdout.contains("lock-order-global"), "stdout: {stdout}");
}

#[test]
fn lint_rejects_an_unknown_format() {
    let (ok, _, stderr) = ccsim(&["lint", "--format", "xml"]);
    assert!(!ok);
    assert!(stderr.contains("unknown lint format"));
}

#[test]
fn race_quick_run_is_conformant() {
    let (ok, stdout, _) = ccsim(&["race", "--workload", "mp3d", "--protocol", "ls"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("conformance: clean"), "stdout: {stdout}");
    assert!(
        stdout.contains("SC witness fingerprint"),
        "stdout: {stdout}"
    );
}

#[test]
fn race_json_emits_a_summary() {
    let (ok, stdout, _) = ccsim(&[
        "race",
        "--workload",
        "mp3d",
        "--protocol",
        "baseline",
        "--json",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.trim_start().starts_with('{'));
    assert!(stdout.contains("\"sc_witness\": true"), "stdout: {stdout}");
    assert!(
        stdout.contains("\"first_violation\": \"\""),
        "stdout: {stdout}"
    );
    assert_pretty_json(&stdout);
}

#[test]
fn race_expect_violation_fails_on_a_clean_run() {
    let (ok, _, _) = ccsim(&[
        "race",
        "--workload",
        "mp3d",
        "--protocol",
        "ls",
        "--expect-violation",
    ]);
    assert!(!ok, "a conformant run must fail --expect-violation");
}

// See the note above `model_mutation_is_caught_with_a_replayed_counterexample`
// for why there is no negative `--mutation without testing` test here.
#[cfg(feature = "testing")]
#[test]
fn race_mutation_is_convicted_with_a_witness() {
    let (ok, stdout, _) = ccsim(&[
        "race",
        "--workload",
        "cholesky",
        "--protocol",
        "ls",
        "--mutation",
        "drop-invalidations",
        "--expect-violation",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("violation"), "stdout: {stdout}");
    assert!(stdout.contains("witness"), "stdout: {stdout}");
}

#[test]
fn race_rejects_unknown_mutations() {
    let (ok, _, stderr) = ccsim(&["race", "--mutation", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown mutation"));
}

#[test]
fn chaos_quick_sweep_is_clean() {
    let (ok, stdout, _) = ccsim(&[
        "chaos",
        "--workload",
        "lu",
        "--protocol",
        "baseline",
        "--rates",
        "60",
        "--seeds",
        "1",
        "--no-sc",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("clean"), "stdout: {stdout}");
    assert!(
        stdout.contains("1 cell(s), 0 failure(s)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("retransmit"), "stdout: {stdout}");
}

#[test]
fn chaos_json_emits_a_summary() {
    let (ok, stdout, _) = ccsim(&[
        "chaos",
        "--workload",
        "lu",
        "--protocol",
        "ls",
        "--rates",
        "60",
        "--seeds",
        "1",
        "--json",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("\"cells\": 1"), "stdout: {stdout}");
    assert!(stdout.contains("\"failures\": 0"), "stdout: {stdout}");
    assert!(stdout.contains("\"sc_checked\": 1"), "stdout: {stdout}");
    assert!(
        stdout.contains("\"witness_accesses\": 0"),
        "stdout: {stdout}"
    );
    assert_pretty_json(&stdout);
}

#[test]
fn chaos_expect_violation_fails_on_a_clean_sweep() {
    let (ok, _, _) = ccsim(&[
        "chaos",
        "--workload",
        "lu",
        "--protocol",
        "baseline",
        "--rates",
        "30",
        "--seeds",
        "1",
        "--no-sc",
        "--expect-violation",
    ]);
    assert!(!ok, "a clean sweep must fail --expect-violation");
}

#[test]
fn chaos_rejects_unknown_transport_mutations() {
    let (ok, _, stderr) = ccsim(&["chaos", "--mutation", "nosuch"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown transport mutation"),
        "stderr: {stderr}"
    );
}

#[cfg(not(feature = "testing"))]
#[test]
fn chaos_transport_mutations_require_the_testing_feature() {
    let (ok, _, stderr) = ccsim(&["chaos", "--mutation", "skip-dedup", "--seeds", "1"]);
    assert!(!ok);
    assert!(
        stderr.contains("requires the `testing` cargo feature"),
        "stderr: {stderr}"
    );
}

#[cfg(feature = "testing")]
#[test]
fn chaos_skip_dedup_is_convicted_with_a_minimal_witness() {
    let (ok, stdout, _) = ccsim(&[
        "chaos",
        "--workload",
        "mp3d",
        "--protocol",
        "baseline",
        "--mutation",
        "skip-dedup",
        "--rates",
        "600",
        "--seeds",
        "1",
        "--no-sc",
        "--expect-violation",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("FAIL"), "stdout: {stdout}");
    assert!(stdout.contains("minimal witness"), "stdout: {stdout}");
    assert!(stdout.contains("fault plan"), "stdout: {stdout}");
    // The witness line reads "..., N access(es)"; the shrinker must get the
    // conviction below the readability bound.
    let n: usize = stdout
        .split_once("minimal witness")
        .and_then(|(_, rest)| rest.split_once(" access(es)"))
        .and_then(|(head, _)| head.rsplit(' ').next())
        .and_then(|w| w.parse().ok())
        .expect("witness access count in output");
    assert!(n <= 16, "witness has {n} accesses:\n{stdout}");
}

#[test]
fn analyze_reports_sharing_patterns() {
    let (ok, stdout, _) = ccsim(&["analyze", "--workload", "mp3d", "--protocol", "ls"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("load-store"));
    assert!(stdout.contains("ls upper bound"));
}

#[test]
fn analyze_json_round_trips_through_a_saved_trace() {
    let dir = std::env::temp_dir().join(format!("ccsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("mp3d.trace");
    let trace_s = trace.to_str().expect("utf-8 temp path");
    let (ok, live, _) = ccsim(&[
        "analyze",
        "--workload",
        "mp3d",
        "--protocol",
        "ls",
        "--json",
        "--save-trace",
        trace_s,
    ]);
    assert!(ok);
    assert!(live.contains("\"ls_writes\""));
    assert_pretty_json(&live);
    let (ok, replayed, _) = ccsim(&["analyze", "--trace", trace_s, "--protocol", "ls", "--json"]);
    assert!(ok);
    assert_eq!(
        live, replayed,
        "saved-trace analysis must match live capture"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_a_missing_trace_file() {
    let (ok, _, stderr) = ccsim(&["analyze", "--trace", "/nonexistent/ccsim.trace"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn analyze_rejects_a_trace_wider_than_the_full_map() {
    use ccsim::engine::{Trace, TraceEvent, TraceOp};
    let dir = std::env::temp_dir().join(format!("ccsim-cli-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("wide.trace");
    let event = TraceEvent {
        proc: 64,
        op: TraceOp::Load(ccsim::types::Addr(0)),
    };
    let trace = Trace::from_events(65, vec![event]).expect("valid trace");
    std::fs::write(&path, trace.to_bytes()).expect("write trace");
    let (ok, _, stderr) = ccsim(&["analyze", "--trace", path.to_str().expect("utf-8")]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(!ok);
    assert!(stderr.contains("65 nodes"), "{stderr}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let (ok, _, stderr) = ccsim(&["run", "--workload", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"));
    let (ok, _, stderr) = ccsim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

// Small serve scenario shared by the smoke tests: converges (or
// overloads) in well under a second per protocol even in debug builds.
const SERVE_QUICK: &[&str] = &["serve", "--clients", "2000", "--max-cycles", "1200000"];

fn serve_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    SERVE_QUICK.iter().chain(extra).copied().collect()
}

#[test]
fn serve_single_protocol_converges_with_percentiles() {
    let (ok, stdout, _) = ccsim(&serve_args(&["--protocol", "ls"]));
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("stop=converged"), "stdout: {stdout}");
    for class in ["point_read", "rmw", "scan", "append"] {
        assert!(stdout.contains(class), "missing class {class}: {stdout}");
    }
    assert!(stdout.contains("p99="), "stdout: {stdout}");
    assert!(stdout.contains("ownacq="), "stdout: {stdout}");
}

#[test]
fn serve_json_emits_the_serve_schema() {
    let (ok, stdout, _) = ccsim(&serve_args(&["--protocol", "ls", "--json"]));
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.trim_start().starts_with('{'));
    assert!(
        stdout.contains("\"schema\": \"ccsim-serve-v1\""),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("\"stop\": \"converged\""),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"p99\""), "stdout: {stdout}");
    assert!(
        stdout.contains("\"ownership_acquisitions\""),
        "stdout: {stdout}"
    );
    assert_pretty_json(&stdout);
}

#[test]
fn serve_json_is_byte_identical_across_reruns() {
    let (ok_a, a, _) = ccsim(&serve_args(&["--protocol", "ls", "--json"]));
    let (ok_b, b, _) = ccsim(&serve_args(&["--protocol", "ls", "--json"]));
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "same config must serve identical bytes");
}

#[test]
fn serve_expect_ward_assertions_gate_the_exit_code() {
    let (ok, _, _) = ccsim(&serve_args(&["--protocol", "ls", "--expect", "converged"]));
    assert!(ok, "a converging run must pass --expect converged");
    // A fuse too short for convergence stops by max-cycles instead.
    let (ok, _, stderr) = ccsim(&[
        "serve",
        "--clients",
        "2000",
        "--max-cycles",
        "60000",
        "--protocol",
        "ls",
        "--expect",
        "converged",
    ]);
    assert!(!ok, "max-cycles stop must fail --expect converged");
    assert!(stderr.contains("expected every run"), "stderr: {stderr}");
}

#[test]
fn serve_overload_stops_by_queue_divergence() {
    let (ok, stdout, _) = ccsim(&serve_args(&[
        "--protocol",
        "baseline",
        "--rate",
        "60000",
        "--expect",
        "queue-divergence",
    ]));
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("stop=queue-divergence"), "stdout: {stdout}");
}

#[test]
fn serve_rejects_invalid_configs_at_decode_time() {
    let (ok, _, stderr) = ccsim(&["serve", "--mix", "500:300:150:100"]);
    assert!(!ok);
    assert!(
        stderr.contains("serve: mix_per_mille must sum to 1000"),
        "stderr: {stderr}"
    );
    let (ok, _, stderr) = ccsim(&["serve", "--skew", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("serve: skew_per_mille must be > 0"),
        "stderr: {stderr}"
    );
    let (ok, _, stderr) = ccsim(&["serve", "--rate", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("serve: rate_per_mcycle must be > 0"),
        "stderr: {stderr}"
    );
}

#[test]
fn serve_rejects_malformed_flags() {
    let (ok, _, stderr) = ccsim(&["serve", "--burst", "5:5"]);
    assert!(!ok);
    assert!(stderr.contains("bad --burst"), "stderr: {stderr}");
    let (ok, _, stderr) = ccsim(&["serve", "--mix", "a:b:c:d"]);
    assert!(!ok);
    assert!(stderr.contains("bad --mix"), "stderr: {stderr}");
    let (ok, _, stderr) = ccsim(&["serve", "--expect", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown ward"), "stderr: {stderr}");
}

#[test]
fn mesh_flag_accepted() {
    let (ok, stdout, _) = ccsim(&[
        "run",
        "--workload",
        "mp3d",
        "--protocol",
        "ls",
        "--mesh",
        "2",
    ]);
    assert!(ok, "stdout: {stdout}");
}
