//! The seeded-violation fixture must produce *exactly* the expected
//! diagnostics — each rule demonstrated to fire, each suppression path
//! demonstrated to work, nothing extra.

use ccsim_lint::lexer::lex;
use ccsim_lint::parse::parse;
use ccsim_lint::resolve::Workspace;
use ccsim_lint::source::{
    lint_file, workspace_files, LintConfig, RULE_BAD_ALLOW, RULE_GUARD_FANOUT, RULE_LOCK_ORDER,
    RULE_RANDOMSTATE, RULE_TESTING_GATE, RULE_UNBOUNDED_RETRY, RULE_UNWRAP, RULE_WALL_CLOCK,
};

const FIXTURE: &str = include_str!("../fixtures/seeded.rs");

#[test]
fn fixture_produces_exactly_the_expected_diagnostics() {
    let diags = lint_file("fixtures/seeded.rs", FIXTURE, &LintConfig::all_rules());
    let got: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    let expected: Vec<(u32, &str)> = vec![
        (6, RULE_RANDOMSTATE),  // use ... HashMap
        (9, RULE_RANDOMSTATE),  // HashMap<u32, u32> annotation
        (9, RULE_RANDOMSTATE),  // HashMap::new()
        (10, RULE_RANDOMSTATE), // HashSet::new()
        (16, RULE_WALL_CLOCK),  // Instant::now()
        (17, RULE_WALL_CLOCK),  // SystemTime::now()
        (23, RULE_UNWRAP),      // x.unwrap()
        (24, RULE_UNWRAP),      // x.expect("msg")
        (30, RULE_TESTING_GATE),
        (36, RULE_BAD_ALLOW),       // allow without justification
        (37, RULE_BAD_ALLOW),       // allow(nosuch)
        (38, RULE_BAD_ALLOW),       // malformed directive
        (58, RULE_LOCK_ORDER),      // cache→stats conflicts with stats→cache (line 53)
        (63, RULE_GUARD_FANOUT),    // set.run() with `g` still live
        (80, RULE_UNBOUNDED_RETRY), // bare loop with no documented bound
    ];
    assert_eq!(
        got,
        expected,
        "diagnostics drifted from the seeded fixture:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixture_diagnostics_name_the_fixture_file() {
    let diags = lint_file("fixtures/seeded.rs", FIXTURE, &LintConfig::all_rules());
    assert!(diags.iter().all(|d| d.file == "fixtures/seeded.rs"));
    assert!(diags[0].render().starts_with("fixtures/seeded.rs:6:"));
}

#[test]
fn workspace_scoping_silences_out_of_scope_rules_on_the_fixture() {
    // Under the workspace config the fixture path is outside the unwrap
    // scope, so only the universal rules fire.
    let diags = lint_file("fixtures/seeded.rs", FIXTURE, &LintConfig::workspace());
    assert!(diags.iter().all(|d| d.rule != RULE_UNWRAP));
    assert!(diags.iter().all(|d| d.rule != RULE_UNBOUNDED_RETRY));
    assert!(diags.iter().any(|d| d.rule == RULE_RANDOMSTATE));
}

/// `panic-path` skips an entry that names no function, so a stale entry
/// would silently shrink the walk. Every configured entry must resolve to
/// at least one non-test function of the parsed workspace.
#[test]
fn every_workspace_panic_entry_resolves_to_a_function() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root");
    let files: Vec<_> = workspace_files(&root)
        .expect("workspace walk")
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).expect("read source");
            let rel = path.strip_prefix(&root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            (rel, parse(&lex(&src).tokens))
        })
        .collect();
    let ws = Workspace::build(&files);
    let cfg = LintConfig::workspace();
    assert!(!cfg.panic_entries.is_empty());
    for entry in &cfg.panic_entries {
        let ids = if entry.contains("::") {
            ws.qualified(entry)
        } else {
            ws.named(entry)
        };
        assert!(
            ids.iter().any(|&id| !ws.fns[id].test_only),
            "panic entry `{entry}` names no non-test function in the workspace"
        );
    }
}
