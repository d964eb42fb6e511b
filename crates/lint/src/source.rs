//! Pass 1: source lints over the workspace — token stream and semantic.
//!
//! Every rule here guards a project law that the run cache, the fault-soak
//! oracles, and the model checker's counterexample replay all depend on:
//! bit-for-bit determinism and fail-loud protocol paths. The token rules
//! (`randomstate`, `wall-clock`, `unwrap`, …) scan each file's lexed stream;
//! the semantic rules (`lock-order`, `guard-across-fanout`,
//! `lock-order-global`, `determinism-taint`, `panic-path`) run on the parsed
//! ASTs of *all* files at once, through the [`crate::resolve`] symbol table,
//! the [`crate::callgraph`] approximate call graph, and the [`crate::taint`]
//! dataflow pass. Comments, strings, and test code never trigger false
//! positives.
//!
//! Suppression is explicit only: a `// ccsim-lint: allow(<rule>): <why>`
//! comment on the offending line, the line directly above it, or stacked
//! with other allow comments directly above it; the justification text is
//! mandatory — a bare `allow` is itself a violation (`bad-allow`). Two
//! extensions for the interprocedural rules: an `allow(unwrap)` also covers
//! the `panic-path` finding at the same site, and an `allow(panic-path)`
//! placed on a function's attributes/header line covers every panic site in
//! that function.

use crate::ast::{Block, Expr, SourceFile, Stmt};
use crate::callgraph::{CallGraph, Event};
use crate::lexer::{lex, Allow, Lexed, Tok, Token};
use crate::parse::parse;
use crate::resolve::{FnDecl, Workspace};
use crate::taint;
use ccsim_util::{Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Rule identifiers, in reporting order.
pub const RULE_RANDOMSTATE: &str = "randomstate";
pub const RULE_WALL_CLOCK: &str = "wall-clock";
pub const RULE_UNWRAP: &str = "unwrap";
pub const RULE_TESTING_GATE: &str = "testing-gate";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_GUARD_FANOUT: &str = "guard-across-fanout";
pub const RULE_LOCK_ORDER_GLOBAL: &str = "lock-order-global";
pub const RULE_DETERMINISM_TAINT: &str = "determinism-taint";
pub const RULE_PANIC_PATH: &str = "panic-path";
pub const RULE_UNBOUNDED_RETRY: &str = "unbounded-retry";
pub const RULE_DEBUG_RESIDUE: &str = "debug-residue";
pub const RULE_BAD_ALLOW: &str = "bad-allow";

/// Static description of one rule, for `--explain`.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: RULE_RANDOMSTATE,
        summary: "no RandomState-hashed HashMap/HashSet outside tests",
        explain: "std::collections::HashMap and HashSet default to RandomState, which \
seeds SipHash from the OS at process start. Iteration order then differs \
between runs, and anything derived from it (message order, float summation \
order, cache keys) breaks bit-for-bit determinism — the property the run \
cache, fault-soak oracles, and counterexample replay all assume. Use \
ccsim_util::FxHashMap / FxHashSet (or any explicit deterministic hasher — a \
third HashMap / second HashSet type parameter is accepted), or a sorted \
structure. Test code (#[test], #[cfg(test)]) is exempt.",
    },
    RuleInfo {
        id: RULE_WALL_CLOCK,
        summary: "no Instant::now/SystemTime::now in simulator crates",
        explain: "Simulated time must come from the engine clock; reading the host's \
wall clock inside simulator code either leaks nondeterminism into results or \
silently measures the wrong thing. Bench and harness timing code is \
allowlisted (crates/bench, crates/harness measure real elapsed time on \
purpose). Anywhere else, annotate a deliberate wall-clock read (e.g. \
progress reporting) with ccsim-lint: allow(wall-clock) and a justification.",
    },
    RuleInfo {
        id: RULE_UNWRAP,
        summary: "no unwrap()/expect() on protocol paths (crates/core, crates/engine)",
        explain: "A panic inside the directory or the machine aborts a simulation with \
no structured report, which defeats the invariant checker and the fail-safe \
harness. Non-test code in crates/core and crates/engine must return \
structured errors, or — where the invariant is locally provable — use an \
expect whose message states the invariant, annotated with ccsim-lint: \
allow(unwrap) and a one-line proof sketch.",
    },
    RuleInfo {
        id: RULE_TESTING_GATE,
        summary: "corruption/mutation hooks must be behind #[cfg(feature = \"testing\")]",
        explain: "Functions that deliberately corrupt simulator state (corrupt_* / \
*_for_test) exist so mutation tests can prove the checkers have teeth. If one \
is compiled into a normal build it becomes a latent footgun callable from \
release code. Every such hook must sit behind #[cfg(feature = \"testing\")] \
(or #[cfg(test)]).",
    },
    RuleInfo {
        id: RULE_LOCK_ORDER,
        summary: "lock acquisition order must be consistent across a file",
        explain: "Two locks taken in opposite orders on two code paths can deadlock the \
moment both paths run concurrently — exactly what the JobSet worker pool and \
the per-processor simulation threads do. The rule records, within each \
function, the order in which named lock receivers are acquired (every \
`.lock()` on a dotted receiver path such as `self.stats`), and reports any \
receiver pair observed in both orders anywhere in the same file. Keep one \
global order, or narrow one guard's scope so the two locks are never held \
together.",
    },
    RuleInfo {
        id: RULE_GUARD_FANOUT,
        summary: "no lock guard held across a JobSet fan-out",
        explain: "JobSet::run / run_with / run_checked / run_checked_with (and the \
run_protocols helper) block the calling thread until a pool of worker threads \
has drained every job. A guard bound by `let g = ....lock()` that is still \
live at such a call is held for the entire fan-out: any worker touching the \
same lock deadlocks the pool, and even when none does, the guard serializes \
unrelated work behind an accident of scoping. Copy what you need out of the \
guard and release it — an explicit drop(g) or a narrower block — before \
fanning out.",
    },
    RuleInfo {
        id: RULE_LOCK_ORDER_GLOBAL,
        summary: "lock acquisitions must not form a cycle across the workspace call graph",
        explain: "The per-file `lock-order` rule only sees a conflict when both orders \
appear in one file. This rule builds the workspace-wide acquisition graph \
instead: within every function it records which locks may still be held when \
another lock is acquired — directly, or inside any function the code reaches \
through the (approximate, name-resolved) call graph — and reports every cycle \
in that graph. A cycle means two executions can each hold one lock while \
waiting for the other: a deadlock that needs nothing beyond scheduling. The \
diagnostic carries the full witness path — each edge with its file, line, and \
function, including the call hop that imported a callee's locks. Break the \
cycle by reordering acquisitions or narrowing a guard's scope. Two-lock \
cycles confined to a single file stay the per-file `lock-order` rule's \
report, not this one's.",
    },
    RuleInfo {
        id: RULE_DETERMINISM_TAINT,
        summary: "nondeterministic values must not flow into determinism sinks",
        explain: "The token rules catch nondeterminism at its source; this rule follows \
the value. A field-insensitive dataflow pass propagates taint from \
nondeterminism sources (wall-clock reads, `RandomState` construction, \
thread/process identity, environment reads whose variable name is not a \
CCSIM_-prefixed literal) through assignments, returns, and workspace call \
edges into determinism sinks: the run/serve cache keys, canonical JSON \
export, the event emitter, and the fnv1a64 hasher. A nondeterministic value \
reaching any of those breaks bit-for-bit reproducibility of run keys and \
exported results. The diagnostic sits at the source site and names the sink \
and the call path; annotate the source site with ccsim-lint: \
allow(determinism-taint) when the flow is deliberate (e.g. bench wall-time \
columns), or cut the flow. Known gap: taint routed exclusively through a \
macro body (e.g. `format!`) is invisible — macro arguments are opaque to the \
parser.",
    },
    RuleInfo {
        id: RULE_PANIC_PATH,
        summary: "no reachable panic on replay-commit or directory-mutation paths",
        explain: "`unwrap` sees one call site at a time; this rule asks what the commit \
entry points actually reach. Starting from the replay-commit entry \
(`ReplayState::apply`) and every directory mutation (`DirTable` \
`read`/`write`/`replacement`/`read_forward_result`/`write_forward_result`), \
it walks the approximate call graph and reports \
every potential panic site — `.unwrap()`, `.expect(..)`, panic-family \
macros, and `[..]` indexing — in reachable protocol-crate code, each with \
its entry → site call chain as a witness. A panic on these paths aborts a \
simulation mid-commit with no structured report. Return errors instead, or \
justify: a site-level allow(unwrap) also covers the panic-path finding at \
the same site, and an allow(panic-path) on the function's attribute/header \
lines covers every site in that function. `assert!`/`debug_assert!` are \
deliberately not flagged — they are the safety net, not an accident.",
    },
    RuleInfo {
        id: RULE_UNBOUNDED_RETRY,
        summary: "bare `loop` retries in crates/engine and crates/network need a documented bound",
        explain: "The engine's request path and the recovery transport re-issue messages \
until they get through; a retry loop whose termination argument lives only in \
the author's head is how a lossy interconnect turns into a hang. A bare \
`loop {}` has no structural bound — only `break` ends it — so inside \
crates/engine/src and crates/network/src every one must state its bound \
(capped backoff, bounded fault streaks, scheduler progress) in a ccsim-lint: \
allow(unbounded-retry) justification on the loop. `for`/`while` loops carry \
their bound in the header and are exempt.",
    },
    RuleInfo {
        id: RULE_DEBUG_RESIDUE,
        summary: "no todo!/unimplemented!/dbg!/eprintln! on protocol paths",
        explain: "The protocol crates (crates/core, crates/engine, crates/model) are the \
paths the parametric verifier, the model checker, and the engine replay all \
prove things about. A todo!() or unimplemented!() there is a reachable panic \
that a rule mutation or a rare interleaving can detonate in release builds; \
dbg!() and eprintln! are leftover print-debugging that pollutes CLI/harness \
output (several gates parse stdout/stderr) and can hide behind a hot path. \
Test code (#[test], #[cfg(test)], #[cfg(feature = \"testing\")]) is exempt. \
A deliberate operator-facing diagnostic must carry ccsim-lint: \
allow(debug-residue) with a justification.",
    },
    RuleInfo {
        id: RULE_BAD_ALLOW,
        summary: "allow directives must name a known rule and carry a justification",
        explain: "Suppressions are part of the audit trail: ccsim-lint: allow(<rule>): \
<why> must parse, reference a rule this linter knows, and include a non-empty \
justification. A malformed or bare allow is reported instead of silently \
suppressing (or silently failing to suppress) a diagnostic.",
    },
];

/// Look up the long-form explanation for a rule id.
pub fn explain(rule: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == rule)
}

fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|r| r.id == rule)
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("file", Json::Str(self.file.clone())),
            ("line", Json::U64(u64::from(self.line))),
            ("rule", Json::Str(self.rule.to_string())),
            ("message", Json::Str(self.message.clone())),
        ])
    }
}

/// Scoping knobs. `workspace()` encodes this repository's layout; tests use
/// `all_rules()` to lint fixture sources with every rule in force.
pub struct LintConfig {
    /// Path prefixes where the `unwrap` rule applies (protocol paths).
    pub unwrap_scope: Vec<String>,
    /// Path prefixes where the `wall-clock` rule is suspended (code that
    /// legitimately measures host time).
    pub wall_clock_allowlist: Vec<String>,
    /// Path prefixes where the `unbounded-retry` rule applies (retry-prone
    /// request/transport code).
    pub retry_scope: Vec<String>,
    /// Path prefixes where the `debug-residue` rule applies (protocol paths
    /// the checkers prove things about).
    pub debug_residue_scope: Vec<String>,
    /// Entry points of the `panic-path` reachability walk: `Ty::method`
    /// qualified names, or bare names for free functions.
    pub panic_entries: Vec<String>,
    /// Path prefixes where reachable panic sites are reported.
    pub panic_scope: Vec<String>,
}

impl LintConfig {
    /// The configuration `ccsim lint` runs with.
    pub fn workspace() -> Self {
        LintConfig {
            unwrap_scope: vec!["crates/core/src/".into(), "crates/engine/src/".into()],
            wall_clock_allowlist: vec!["crates/bench/".into(), "crates/harness/".into()],
            retry_scope: vec!["crates/engine/src/".into(), "crates/network/src/".into()],
            debug_residue_scope: vec![
                "crates/core/src/".into(),
                "crates/engine/src/".into(),
                "crates/model/src/".into(),
            ],
            panic_entries: [
                "ReplayState::apply",
                "DirTable::read",
                "DirTable::write",
                "DirTable::replacement",
                "DirTable::read_forward_result",
                "DirTable::write_forward_result",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            panic_scope: vec!["crates/core/src/".into(), "crates/engine/src/".into()],
        }
    }

    /// Every rule applies to every file — used to exercise fixtures. The
    /// `panic-path` walk starts from any function named `commit_frame`, the
    /// fixture stand-in for the replay-commit entry.
    pub fn all_rules() -> Self {
        LintConfig {
            unwrap_scope: vec![String::new()],
            wall_clock_allowlist: Vec::new(),
            retry_scope: vec![String::new()],
            debug_residue_scope: vec![String::new()],
            panic_entries: vec!["commit_frame".into()],
            panic_scope: vec![String::new()],
        }
    }

    fn unwrap_applies(&self, file: &str) -> bool {
        self.unwrap_scope
            .iter()
            .any(|p| file.starts_with(p.as_str()))
    }

    fn wall_clock_applies(&self, file: &str) -> bool {
        !self
            .wall_clock_allowlist
            .iter()
            .any(|p| file.starts_with(p.as_str()))
    }

    fn retry_applies(&self, file: &str) -> bool {
        self.retry_scope
            .iter()
            .any(|p| file.starts_with(p.as_str()))
    }

    fn debug_residue_applies(&self, file: &str) -> bool {
        self.debug_residue_scope
            .iter()
            .any(|p| file.starts_with(p.as_str()))
    }

    fn panic_applies(&self, file: &str) -> bool {
        self.panic_scope
            .iter()
            .any(|p| file.starts_with(p.as_str()))
    }
}

/// Lint one file's source text. `file` is the workspace-relative path used
/// both for scoping decisions and in diagnostics. Interprocedural rules see
/// only this one file — use [`lint_sources`] for cross-file analysis.
pub fn lint_file(file: &str, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    lint_sources(&[(file.to_string(), src.to_string())], cfg)
}

/// A justified, known-rule allow with its resolved coverage. `target` is the
/// first non-allow line at or below the comment: a stack of allow comments
/// directly above a statement all cover that statement.
struct AllowTarget<'a> {
    allow: &'a Allow,
    target: u32,
}

fn resolve_allow_targets(allows: &[Allow]) -> Vec<AllowTarget<'_>> {
    let lines: BTreeSet<u32> = allows.iter().map(|a| a.line).collect();
    allows
        .iter()
        .filter(|a| known_rule(&a.rule) && !a.justification.is_empty())
        .map(|a| {
            let mut target = a.line + 1;
            while lines.contains(&target) {
                target += 1;
            }
            AllowTarget { allow: a, target }
        })
        .collect()
}

/// Does an allow for `allow_rule` suppress a diagnostic of `diag_rule` at
/// the same site? Identity, plus: `unwrap` allows carry over to `panic-path`
/// (same site, same justification — the reachability finding adds the chain,
/// not a new obligation).
fn allow_covers_rule(allow_rule: &str, diag_rule: &str) -> bool {
    allow_rule == diag_rule || (diag_rule == RULE_PANIC_PATH && allow_rule == RULE_UNWRAP)
}

/// Lint a set of sources as one workspace: per-file token rules, then the
/// semantic rules (AST + symbol table + call graph + taint) across all
/// files together. `files` holds `(workspace-relative path, source text)`;
/// diagnostics come back grouped in input file order, sorted by line.
pub fn lint_sources(files: &[(String, String)], cfg: &LintConfig) -> Vec<Diagnostic> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let asts: Vec<(String, SourceFile)> = files
        .iter()
        .zip(&lexed)
        .map(|((path, _), lx)| (path.clone(), parse(&lx.tokens)))
        .collect();
    let mut diags = Vec::new();

    // Layer 1: token rules, file by file.
    for ((file, _), lx) in files.iter().zip(&lexed) {
        let toks = &lx.tokens;
        let exempt = exempt_mask(toks);
        rule_randomstate(file, toks, &exempt, &mut diags);
        if cfg.wall_clock_applies(file) {
            rule_wall_clock(file, toks, &exempt, &mut diags);
        }
        if cfg.unwrap_applies(file) {
            rule_unwrap(file, toks, &exempt, &mut diags);
        }
        rule_testing_gate(file, toks, &exempt, &mut diags);
        if cfg.retry_applies(file) {
            rule_unbounded_retry(file, toks, &exempt, &mut diags);
        }
        if cfg.debug_residue_applies(file) {
            rule_debug_residue(file, toks, &exempt, &mut diags);
        }
    }

    // Layers 2+3: the semantic rules over the whole input set.
    let ws = Workspace::build(&asts);
    let cg = CallGraph::build(&ws);
    let allow_targets: BTreeMap<&str, Vec<AllowTarget>> = files
        .iter()
        .zip(&lexed)
        .map(|((file, _), lx)| (file.as_str(), resolve_allow_targets(&lx.allows)))
        .collect();
    rule_lock_order(&ws, &cg, &mut diags);
    rule_guard_fanout(&ws, &cg, &mut diags);
    rule_lock_order_global(&ws, &cg, &mut diags);
    rule_determinism_taint(&ws, cfg, &mut diags);
    rule_panic_path(&ws, &cg, cfg, &allow_targets, &mut diags);

    // Suppression: a justified allow for a covering rule on the diagnostic's
    // line, or targeting it from (a stack of) comment lines directly above.
    diags.retain(|d| {
        let Some(allows) = allow_targets.get(d.file.as_str()) else {
            return true;
        };
        !allows.iter().any(|a| {
            allow_covers_rule(&a.allow.rule, d.rule)
                && (a.allow.line == d.line || a.target == d.line)
        })
    });

    // Malformed / unknown / unjustified allows are findings themselves.
    for ((file, _), lx) in files.iter().zip(&lexed) {
        for a in &lx.allows {
            if a.rule.is_empty() {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: a.line,
                    rule: RULE_BAD_ALLOW,
                    message: "malformed directive — expected `ccsim-lint: allow(<rule>): <why>`"
                        .to_string(),
                });
            } else if !known_rule(&a.rule) {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: a.line,
                    rule: RULE_BAD_ALLOW,
                    message: format!("unknown rule `{}` in allow directive", a.rule),
                });
            } else if a.justification.is_empty() {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: a.line,
                    rule: RULE_BAD_ALLOW,
                    message: format!(
                        "allow({}) without a justification — state why the suppression is sound",
                        a.rule
                    ),
                });
            }
        }
    }

    let rank: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (p, _))| (p.as_str(), i))
        .collect();
    diags.sort_by(|a, b| {
        (rank.get(a.file.as_str()), a.line, a.rule).cmp(&(
            rank.get(b.file.as_str()),
            b.line,
            b.rule,
        ))
    });
    diags
}

/// Enumerate the Rust sources `ccsim lint` covers: `src/**/*.rs` of the root
/// package and `crates/*/src/**/*.rs`, sorted for deterministic output.
/// Test directories (`tests/`, `benches/`, `examples/`) are intentionally
/// outside the walk — the rules only bind library/binary code.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        collect_rs(&member.join("src"), &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint every workspace source file under `root` as one unit, so the
/// interprocedural rules see cross-crate call edges.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Vec<Diagnostic>> {
    let mut sources = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(lint_sources(&sources, cfg))
}

// ---------------------------------------------------------------------------
// Exempt regions: #[test] / #[cfg(test)] / #[cfg(feature = "testing")] items.
// ---------------------------------------------------------------------------

fn is_sym(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(Token { tok: Tok::Sym(s), .. }) if *s == c)
}

fn is_ident(toks: &[Token], i: usize, name: &str) -> bool {
    matches!(toks.get(i), Some(Token { tok: Tok::Ident(s), .. }) if s == name)
}

/// Index of the matching close bracket for the open bracket at `open`,
/// counting only that bracket pair (token streams are balanced per kind).
fn match_bracket(toks: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if let Tok::Sym(s) = toks[i].tok {
            if s == oc {
                depth += 1;
            } else if s == cc {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    toks.len() - 1
}

/// Does an attribute body mark test-only code? True for a standalone `test`
/// ident (covers `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`, and
/// attr macros like `#[tokio::test]`) unless wrapped in `not(...)`, and for
/// `feature = "testing"`.
pub(crate) fn attr_is_testish(toks: &[Token]) -> bool {
    for k in 0..toks.len() {
        if let Tok::Ident(name) = &toks[k].tok {
            if name == "test" {
                let negated = k >= 2
                    && matches!(&toks[k - 2].tok, Tok::Ident(n) if n == "not")
                    && matches!(toks[k - 1].tok, Tok::Sym('('));
                if !negated {
                    return true;
                }
            }
            if name == "feature"
                && matches!(
                    toks.get(k + 1),
                    Some(Token {
                        tok: Tok::Sym('='),
                        ..
                    })
                )
                && matches!(toks.get(k + 2), Some(Token { tok: Tok::Str(s), .. }) if s == "testing")
            {
                return true;
            }
        }
    }
    false
}

/// Find the end of the item starting at `from` (past its attributes): the
/// matching `}` of the first top-level brace, or the first top-level `;`.
fn item_end(toks: &[Token], from: usize) -> usize {
    let mut i = from;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Sym('#') => {
                // A further attribute on the same item: jump past it.
                let open = if is_sym(toks, i + 1, '!') {
                    i + 2
                } else {
                    i + 1
                };
                if is_sym(toks, open, '[') {
                    i = match_bracket(toks, open, '[', ']') + 1;
                } else {
                    i += 1;
                }
            }
            Tok::Sym(';') => return i,
            Tok::Sym('{') => return match_bracket(toks, i, '{', '}'),
            Tok::Sym('(') => i = match_bracket(toks, i, '(', ')') + 1,
            Tok::Sym('[') => i = match_bracket(toks, i, '[', ']') + 1,
            _ => i += 1,
        }
    }
    toks.len().saturating_sub(1)
}

/// Per-token mask: true where the token belongs to a test-exempt item.
fn exempt_mask(toks: &[Token]) -> Vec<bool> {
    let n = toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if is_sym(toks, i, '#') {
            let inner = is_sym(toks, i + 1, '!');
            let open = if inner { i + 2 } else { i + 1 };
            if is_sym(toks, open, '[') {
                let close = match_bracket(toks, open, '[', ']');
                if attr_is_testish(&toks[open + 1..close]) {
                    if inner {
                        // `#![cfg(test)]`: the whole file is test-only.
                        mask.iter_mut().for_each(|m| *m = true);
                        return mask;
                    }
                    let end = item_end(toks, close + 1).min(n - 1);
                    mask[i..=end].iter_mut().for_each(|m| *m = true);
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

/// After `HashMap`/`HashSet` at `i`, does a generic-argument list supply a
/// custom hasher (3rd param for maps, 2nd for sets)? Handles turbofish and
/// skips `->` so `Fn() -> T` inside a parameter never closes the list early.
fn names_custom_hasher(toks: &[Token], i: usize, is_map: bool) -> bool {
    let mut j = i + 1;
    if is_sym(toks, j, ':') && is_sym(toks, j + 1, ':') && is_sym(toks, j + 2, '<') {
        j += 2; // turbofish `HashMap::<...>`
    }
    if !is_sym(toks, j, '<') {
        return false;
    }
    let mut depth = 0i32;
    let mut top_commas = 0u32;
    let mut k = j;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Sym('<') => depth += 1,
            // `->` return-type arrows are not closing angle brackets.
            Tok::Sym('>') if !(k > 0 && matches!(toks[k - 1].tok, Tok::Sym('-'))) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Sym('(') => {
                k = match_bracket(toks, k, '(', ')');
            }
            Tok::Sym('[') => {
                k = match_bracket(toks, k, '[', ']');
            }
            Tok::Sym(',') if depth == 1 => top_commas += 1,
            _ => {}
        }
        k += 1;
    }
    let needed = if is_map { 2 } else { 1 };
    top_commas >= needed
}

fn rule_randomstate(file: &str, toks: &[Token], exempt: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if exempt[i] {
            continue;
        }
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        let is_map = name == "HashMap";
        if !is_map && name != "HashSet" {
            continue;
        }
        if names_custom_hasher(toks, i, is_map) {
            continue;
        }
        // `HashMap::with_hasher(..)` / `with_capacity_and_hasher(..)` name a
        // hasher explicitly even without generics spelled out.
        if is_sym(toks, i + 1, ':')
            && is_sym(toks, i + 2, ':')
            && matches!(toks.get(i + 3), Some(Token { tok: Tok::Ident(m), .. }) if m.contains("hasher"))
        {
            continue;
        }
        out.push(Diagnostic {
            file: file.to_string(),
            line: toks[i].line,
            rule: RULE_RANDOMSTATE,
            message: format!(
                "`{name}` defaults to RandomState — use `ccsim_util::Fx{name}` or name a \
deterministic hasher"
            ),
        });
    }
}

fn rule_wall_clock(file: &str, toks: &[Token], exempt: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if exempt[i] {
            continue;
        }
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        if is_sym(toks, i + 1, ':') && is_sym(toks, i + 2, ':') && is_ident(toks, i + 3, "now") {
            out.push(Diagnostic {
                file: file.to_string(),
                line: toks[i].line,
                rule: RULE_WALL_CLOCK,
                message: format!(
                    "`{name}::now()` reads the host wall clock — simulated time must come \
from the engine clock"
                ),
            });
        }
    }
}

fn rule_debug_residue(file: &str, toks: &[Token], exempt: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if exempt[i] {
            continue;
        }
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if !matches!(name.as_str(), "todo" | "unimplemented" | "dbg" | "eprintln") {
            continue;
        }
        // A macro invocation is ident `!` followed by a delimiter — this
        // keeps `a != b` with an unlucky identifier from matching.
        if !is_sym(toks, i + 1, '!') {
            continue;
        }
        let delim =
            is_sym(toks, i + 2, '(') || is_sym(toks, i + 2, '[') || is_sym(toks, i + 2, '{');
        if !delim {
            continue;
        }
        let what = match name.as_str() {
            "todo" | "unimplemented" => "is a reachable panic on a protocol path",
            _ => "is leftover print-debugging on a protocol path",
        };
        out.push(Diagnostic {
            file: file.to_string(),
            line: toks[i].line,
            rule: RULE_DEBUG_RESIDUE,
            message: format!("`{name}!` {what} — remove it or justify with an allow"),
        });
    }
}

fn rule_unwrap(file: &str, toks: &[Token], exempt: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if !is_sym(toks, i, '.') {
            continue;
        }
        let Some(Token {
            tok: Tok::Ident(name),
            line,
            ..
        }) = toks.get(i + 1)
        else {
            continue;
        };
        if i + 1 < exempt.len() && exempt[i + 1] {
            continue;
        }
        let is_unwrap = name == "unwrap";
        if (is_unwrap || name == "expect") && is_sym(toks, i + 2, '(') {
            let call = if is_unwrap {
                ".unwrap()"
            } else {
                ".expect(..)"
            };
            out.push(Diagnostic {
                file: file.to_string(),
                line: *line,
                rule: RULE_UNWRAP,
                message: format!(
                    "`{call}` on a protocol path — return a structured error, or justify an \
invariant-message expect with an allow comment"
                ),
            });
        }
    }
}

fn rule_testing_gate(file: &str, toks: &[Token], exempt: &[bool], out: &mut Vec<Diagnostic>) {
    for (i, ex) in exempt.iter().enumerate() {
        if *ex || !is_ident(toks, i, "fn") {
            continue;
        }
        let Some(Token {
            tok: Tok::Ident(name),
            line,
            ..
        }) = toks.get(i + 1)
        else {
            continue;
        };
        if name.starts_with("corrupt_") || name.ends_with("_for_test") {
            out.push(Diagnostic {
                file: file.to_string(),
                line: *line,
                rule: RULE_TESTING_GATE,
                message: format!(
                    "corruption hook `fn {name}` must be gated behind \
`#[cfg(feature = \"testing\")]`"
                ),
            });
        }
    }
}

/// Locks with no stable cross-site identity — receivers that go through a
/// call result (`s.get().lock()`) name a fresh object each time, so they
/// carry no ordering information.
fn nameable_lock(lock: &str) -> bool {
    !lock.contains("()") && !lock.contains('?')
}

/// Per-file lock acquisition order, rebuilt on the call-graph's per-function
/// event streams. Within each function the [`Event::Acquire`] sequence (in
/// AST pre-order, closures folded in) is the acquisition order; any receiver
/// pair observed in both orders anywhere in the same file is a conflict.
fn rule_lock_order(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    // Per file: (first, second) → line where that order was first seen.
    let mut seen: BTreeMap<(&str, String, String), u32> = BTreeMap::new();
    let mut flagged: BTreeSet<(&str, String, String)> = BTreeSet::new();
    for f in &ws.fns {
        if f.test_only {
            continue;
        }
        let seq: Vec<(&String, u32)> = cg.facts[f.id]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { line, lock } if nameable_lock(lock) => Some((lock, *line)),
                _ => None,
            })
            .collect();
        // Every ordered pair of distinct receivers is an observation that the
        // first is (possibly) held while the second is acquired.
        for a in 0..seq.len() {
            for b in (a + 1)..seq.len() {
                let (first, _) = &seq[a];
                let (second, line2) = &seq[b];
                if first == second {
                    continue;
                }
                let fwd = (f.file.as_str(), (*first).clone(), (*second).clone());
                let rev = (f.file.as_str(), (*second).clone(), (*first).clone());
                if let Some(&prev_line) = seen.get(&rev) {
                    if flagged.insert(rev.clone()) {
                        out.push(Diagnostic {
                            file: f.file.clone(),
                            line: *line2,
                            rule: RULE_LOCK_ORDER,
                            message: format!(
                                "`{first}` then `{second}` conflicts with the \
`{second}` → `{first}` acquisition order established on line {prev_line} — \
keep one global lock order to rule out deadlock"
                            ),
                        });
                    }
                } else {
                    seen.entry(fwd).or_insert(*line2);
                }
            }
        }
    }
}

/// Blocking fan-out entry points: `JobSet` methods plus the free
/// `run_protocols` helper. Bare `run` only counts as a method call
/// (`.run(..)`) so free functions named `run` elsewhere stay quiet.
const FANOUT_CALLS: &[&str] = &["run", "run_with", "run_checked", "run_checked_with"];

/// Does evaluating this expression yield a live lock guard? `m.lock()` does,
/// as does `.unwrap()`/`.expect(..)` chained onto one, a call to a function
/// that returns one (workspace fixpoint in `guard_fns`), and a block/if/match
/// whose value position yields one. A deref (`*m.lock()`) copies data out —
/// the temporary guard dies at the statement's end, so it does not.
fn yields_guard(e: &Expr, ws: &Workspace, guard_fns: &BTreeSet<usize>) -> bool {
    match e {
        Expr::MethodCall {
            recv, method, args, ..
        } => match method.as_str() {
            "lock" if args.is_empty() => true,
            "unwrap" | "expect" => yields_guard(recv, ws, guard_fns),
            _ => ws
                .named(method)
                .iter()
                .any(|id| guard_fns.contains(id) && ws.fns[*id].has_self()),
        },
        Expr::Call { callee, .. } => match callee.as_ref() {
            Expr::Path { segs, .. } => segs
                .last()
                .map(|name| ws.named(name).iter().any(|id| guard_fns.contains(id)))
                .unwrap_or(false),
            _ => false,
        },
        Expr::Try { expr, .. } => yields_guard(expr, ws, guard_fns),
        Expr::Block(b) => block_tail(b).is_some_and(|t| yields_guard(t, ws, guard_fns)),
        Expr::If { then, els, .. } => {
            block_tail(then).is_some_and(|t| yields_guard(t, ws, guard_fns))
                || els.as_ref().is_some_and(|e| yields_guard(e, ws, guard_fns))
        }
        Expr::Match { arms, .. } => arms.iter().any(|a| yields_guard(&a.body, ws, guard_fns)),
        _ => false,
    }
}

fn block_tail(b: &Block) -> Option<&Expr> {
    match b.stmts.last() {
        Some(Stmt::Expr { expr, semi: false }) => Some(expr),
        _ => None,
    }
}

/// Workspace functions whose return value is (or contains) a lock guard —
/// the helper-escape channel the token-based rule missed. Bounded fixpoint:
/// a function joins the set when its tail expression or any `return` yields
/// a guard given the current set.
fn guard_returning_fns(ws: &Workspace) -> BTreeSet<usize> {
    let mut guard_fns = BTreeSet::new();
    for _ in 0..8 {
        let mut changed = false;
        for f in &ws.fns {
            if guard_fns.contains(&f.id) {
                continue;
            }
            let Some(body) = &f.body else { continue };
            let mut returns_guard =
                block_tail(body).is_some_and(|t| yields_guard(t, ws, &guard_fns));
            if !returns_guard {
                crate::ast::walk_block(body, &mut |e| {
                    if let Expr::Return { expr: Some(r), .. } = e {
                        if yields_guard(r, ws, &guard_fns) {
                            returns_guard = true;
                        }
                    }
                });
            }
            if returns_guard {
                guard_fns.insert(f.id);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    guard_fns
}

/// What the post-guard scan is looking for, in source order.
enum GuardEvent {
    /// `drop(<name>)` — the guard is explicitly released.
    Drop,
    /// A blocking fan-out call: line and callee label.
    Fanout(u32, String),
}

/// Collect guard-relevant events from an expression tree in pre-order
/// (approximating evaluation order).
fn guard_events(e: &Expr, name: &str, out: &mut Vec<GuardEvent>) {
    if let Expr::Call { callee, args, .. } = e {
        if let Expr::Path { segs, .. } = callee.as_ref() {
            let f = segs.last().map(String::as_str).unwrap_or("");
            if f == "drop"
                && matches!(args.as_slice(), [Expr::Path { segs, .. }] if segs.len() == 1 && segs[0] == name)
            {
                out.push(GuardEvent::Drop);
                return;
            }
            if f == "run_protocols" {
                out.push(GuardEvent::Fanout(e.line(), "run_protocols".to_string()));
            }
        }
    }
    if let Expr::MethodCall { line, method, .. } = e {
        if FANOUT_CALLS.contains(&method.as_str()) {
            out.push(GuardEvent::Fanout(*line, method.clone()));
        }
    }
    each_child(e, &mut |c| guard_events(c, name, out));
}

/// Visit the direct child expressions of `e` in source order, entering
/// nested blocks (but not nested `fn` items — those are their own
/// functions).
fn each_child<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    let block = |b: &'a Block, f: &mut dyn FnMut(&'a Expr)| {
        for s in &b.stmts {
            match s {
                Stmt::Let { init, .. } => {
                    if let Some(i) = init {
                        f(i);
                    }
                }
                Stmt::Expr { expr, .. } => f(expr),
                Stmt::Item(_) => {}
            }
        }
    };
    match e {
        Expr::Call { callee, args, .. } => {
            f(callee);
            args.iter().for_each(f);
        }
        Expr::MethodCall { recv, args, .. } => {
            f(recv);
            args.iter().for_each(f);
        }
        Expr::Field { base, .. } => f(base),
        Expr::Index { base, index, .. } => {
            f(base);
            f(index);
        }
        Expr::StructLit { fields, rest, .. } => {
            fields.iter().for_each(|(_, v)| f(v));
            if let Some(r) = rest {
                f(r);
            }
        }
        Expr::Closure { body, .. } => f(body),
        Expr::Block(b) => block(b, f),
        Expr::If {
            cond, then, els, ..
        } => {
            f(cond);
            block(then, f);
            if let Some(e) = els {
                f(e);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            f(scrutinee);
            for a in arms {
                if let Some(g) = &a.guard {
                    f(g);
                }
                f(&a.body);
            }
        }
        Expr::While { cond, body, .. } => {
            f(cond);
            block(body, f);
        }
        Expr::Loop { body, .. } => block(body, f),
        Expr::For { iter, body, .. } => {
            f(iter);
            block(body, f);
        }
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => f(expr),
        Expr::Range { lo, hi, .. } => {
            if let Some(e) = lo {
                f(e);
            }
            if let Some(e) = hi {
                f(e);
            }
        }
        Expr::Return { expr, .. } | Expr::Break { expr, .. } => {
            if let Some(e) = expr {
                f(e);
            }
        }
        Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => elems.iter().for_each(f),
        Expr::Path { .. }
        | Expr::Lit { .. }
        | Expr::MacroCall { .. }
        | Expr::Continue { .. }
        | Expr::Unknown { .. } => {}
    }
}

/// Nested blocks directly inside an expression, without descending into the
/// blocks themselves (the caller recurses).
fn expr_blocks<'a>(e: &'a Expr, out: &mut Vec<&'a Block>) {
    match e {
        Expr::Block(b) | Expr::Loop { body: b, .. } => out.push(b),
        Expr::If {
            cond, then, els, ..
        } => {
            expr_blocks(cond, out);
            out.push(then);
            if let Some(e) = els {
                expr_blocks(e, out);
            }
        }
        Expr::While { cond, body, .. } => {
            expr_blocks(cond, out);
            out.push(body);
        }
        Expr::For { iter, body, .. } => {
            expr_blocks(iter, out);
            out.push(body);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            expr_blocks(scrutinee, out);
            for a in arms {
                expr_blocks(&a.body, out);
            }
        }
        Expr::Closure { body, .. } => expr_blocks(body, out),
        _ => each_child(e, &mut |c| expr_blocks(c, out)),
    }
}

/// Guard-across-fan-out, rebuilt on the AST. A guard is a single-name `let`
/// whose initializer yields a lock guard — including through a
/// guard-returning helper function, the escape the token scan could not see.
/// The guard is live to the end of its enclosing block unless `drop(name)`
/// releases it; any fan-out call in that window is a report.
fn rule_guard_fanout(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    let _ = cg;
    let guard_fns = guard_returning_fns(ws);
    for f in &ws.fns {
        if f.test_only {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let mut blocks: Vec<&Block> = vec![body];
        while let Some(b) = blocks.pop() {
            for (i, s) in b.stmts.iter().enumerate() {
                // Queue nested blocks for their own guard scans.
                match s {
                    Stmt::Let {
                        init, else_block, ..
                    } => {
                        if let Some(e) = init {
                            expr_blocks(e, &mut blocks);
                        }
                        if let Some(eb) = else_block {
                            blocks.push(eb);
                        }
                    }
                    Stmt::Expr { expr, .. } => expr_blocks(expr, &mut blocks),
                    Stmt::Item(_) => {}
                }
                let Stmt::Let {
                    line: let_line,
                    binds,
                    init: Some(init),
                    ..
                } = s
                else {
                    continue;
                };
                let [name] = binds.as_slice() else { continue };
                if !yields_guard(init, ws, &guard_fns) {
                    continue;
                }
                // Scan the rest of the enclosing block in source order.
                let mut events = Vec::new();
                'scan: for later in &b.stmts[i + 1..] {
                    match later {
                        Stmt::Let { init, .. } => {
                            if let Some(e) = init {
                                guard_events(e, name, &mut events);
                            }
                        }
                        Stmt::Expr { expr, .. } => guard_events(expr, name, &mut events),
                        Stmt::Item(_) => {}
                    }
                    // The first drop or fan-out decides the guard's fate —
                    // one report per guard is enough.
                    if let Some(ev) = events.first() {
                        if let GuardEvent::Fanout(line, call) = ev {
                            out.push(Diagnostic {
                                file: f.file.clone(),
                                line: *line,
                                rule: RULE_GUARD_FANOUT,
                                message: format!(
                                    "lock guard `{name}` (acquired on line {let_line}) is \
still held across `{call}(..)` — the fan-out blocks on worker threads, so \
drop the guard first"
                                ),
                            });
                        }
                        break 'scan;
                    }
                }
            }
        }
    }
}

/// One edge of the workspace lock graph: `held` is still held when `then` is
/// acquired, at `file:line` inside `in_fn` (possibly through a call into
/// `via`).
#[derive(Clone, Debug)]
struct LockEdge {
    file: String,
    line: u32,
    in_fn: String,
    via: Option<String>,
}

/// Workspace-wide lock-order cycles. Edges come from two observations per
/// function: a lock acquired while an earlier-acquired lock is still
/// (conservatively) held, and a call made under a held lock into a function
/// whose transitive closure acquires further locks. Any cycle in the
/// resulting graph is a potential deadlock; cycles confined to one file with
/// only two locks are left to the per-file `lock-order` rule.
fn rule_lock_order_global(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    let closure = cg.locks_closure(ws);
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for f in &ws.fns {
        if f.test_only {
            continue;
        }
        let mut held: Vec<&String> = Vec::new();
        for ev in &cg.facts[f.id].events {
            match ev {
                Event::Acquire { line, lock } => {
                    if nameable_lock(lock) {
                        for h in &held {
                            if *h != lock {
                                edges
                                    .entry(((*h).clone(), lock.clone()))
                                    .or_insert_with(|| LockEdge {
                                        file: f.file.clone(),
                                        line: *line,
                                        in_fn: f.qual_name(),
                                        via: None,
                                    });
                            }
                        }
                        if !held.contains(&lock) {
                            held.push(lock);
                        }
                    }
                }
                Event::Call { line, callees } => {
                    if held.is_empty() {
                        continue;
                    }
                    for &c in callees {
                        if ws.fns[c].test_only {
                            continue;
                        }
                        for l in &closure[c] {
                            if !nameable_lock(l) {
                                continue;
                            }
                            for h in &held {
                                if *h != l {
                                    edges.entry(((*h).clone(), l.clone())).or_insert_with(|| {
                                        LockEdge {
                                            file: f.file.clone(),
                                            line: *line,
                                            in_fn: f.qual_name(),
                                            via: Some(ws.fns[c].qual_name()),
                                        }
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Successor map, then one shortest witness cycle per distinct cycle,
    // anchored at its lexicographically smallest lock.
    let mut succ: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (from, to) in edges.keys().map(|(a, b)| (a, b)) {
        succ.entry(from).or_default().push(to);
    }
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in &nodes {
        // BFS from `start` back to itself.
        let mut prev: BTreeMap<&String, &String> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([start]);
        let mut cycle: Option<Vec<&String>> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in succ.get(u).map_or(&[][..], |s| s.as_slice()) {
                if v == start {
                    let mut path = vec![u];
                    while let Some(&p) = prev.get(path.last().unwrap()) {
                        path.push(p);
                    }
                    path.reverse();
                    cycle = Some(path); // start, ..., u
                    break 'bfs;
                }
                if v != start && !prev.contains_key(v) && u != v {
                    prev.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
        let Some(cycle) = cycle else { continue };
        // Anchor: only report each cycle once, from its smallest lock.
        if cycle.iter().any(|n| *n < start) {
            continue;
        }
        let key: Vec<String> = {
            let mut k: Vec<String> = cycle.iter().map(|s| (*s).clone()).collect();
            k.sort();
            k
        };
        if !reported.insert(key) {
            continue;
        }
        let edge_infos: Vec<(&String, &String, &LockEdge)> = (0..cycle.len())
            .map(|i| {
                let from = cycle[i];
                let to = cycle[(i + 1) % cycle.len()];
                (from, to, &edges[&(from.clone(), to.clone())])
            })
            .collect();
        let files: BTreeSet<&str> = edge_infos.iter().map(|(_, _, e)| e.file.as_str()).collect();
        if cycle.len() == 2 && files.len() == 1 {
            continue; // the per-file lock-order rule owns this one
        }
        let witness: Vec<String> = edge_infos
            .iter()
            .map(|(from, to, e)| match &e.via {
                Some(callee) => format!(
                    "`{from}` → `{to}` at {}:{} (in `{}`, via call to `{}`)",
                    e.file, e.line, e.in_fn, callee
                ),
                None => format!(
                    "`{from}` → `{to}` at {}:{} (in `{}`)",
                    e.file, e.line, e.in_fn
                ),
            })
            .collect();
        let (_, first_to, first_edge) = &edge_infos[0];
        out.push(Diagnostic {
            file: first_edge.file.clone(),
            line: first_edge.line,
            rule: RULE_LOCK_ORDER_GLOBAL,
            message: format!(
                "acquiring `{first_to}` while holding `{start}` completes a workspace-wide \
lock cycle: {} — keep one global acquisition order to rule out deadlock",
                witness.join("; ")
            ),
        });
    }
}

/// Nondeterminism-taint flows, one diagnostic per (source site, sink name)
/// pair with the shortest witness chain found. Sources inside the wall-clock
/// allowlist (bench/harness measure host time on purpose) are skipped when
/// the source *is* the wall clock; other source kinds there still count.
fn rule_determinism_taint(ws: &Workspace, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let ta = taint::analyze(ws);
    // (source site, sink name) → index of the shortest-chain flow. The
    // fixpoint records one flow per distinct chain and sink site, so the
    // same pair can appear many times.
    let mut best: BTreeMap<(usize, u32, &str), usize> = BTreeMap::new();
    for (i, flow) in ta.flows.iter().enumerate() {
        let src = &ta.sources[flow.src];
        let key = (src.fn_id, src.line, ta.sinks[flow.sink].name.as_str());
        best.entry(key)
            .and_modify(|b| {
                if flow.chain.len() < ta.flows[*b].chain.len() {
                    *b = i;
                }
            })
            .or_insert(i);
    }
    for &i in best.values() {
        let flow = &ta.flows[i];
        let src = &ta.sources[flow.src];
        let sink = &ta.sinks[flow.sink];
        let src_fn = &ws.fns[src.fn_id];
        let sink_fn = &ws.fns[sink.fn_id];
        if src.kind.contains("wall clock") && !cfg.wall_clock_applies(&src_fn.file) {
            continue;
        }
        let path = if flow.chain.len() > 1 {
            format!(" via `{}`", flow.chain.join("` → `"))
        } else {
            String::new()
        };
        out.push(Diagnostic {
            file: src_fn.file.clone(),
            line: src.line,
            rule: RULE_DETERMINISM_TAINT,
            message: format!(
                "{} flows into determinism sink `{}` ({}:{}){path} — nondeterminism here \
breaks bit-for-bit reproducibility of keys and exported results",
                src.kind, sink.name, sink_fn.file, sink.line
            ),
        });
    }
}

/// Is a panic-path diagnostic inside `f` covered by a fn-level allow — one
/// whose comment stack targets the function's attribute/header lines?
fn fn_level_panic_allow(allows: &[AllowTarget], f: &FnDecl) -> bool {
    allows
        .iter()
        .any(|a| a.allow.rule == RULE_PANIC_PATH && a.target >= f.span_start && a.target <= f.line)
}

/// Every potential panic site reachable from the configured entry points,
/// reported with its call chain. Test-only code is outside the walk, and
/// only files in `panic_scope` are reported (the walk itself crosses any
/// file).
fn rule_panic_path(
    ws: &Workspace,
    cg: &CallGraph,
    cfg: &LintConfig,
    allow_targets: &BTreeMap<&str, Vec<AllowTarget>>,
    out: &mut Vec<Diagnostic>,
) {
    let mut entries: Vec<usize> = Vec::new();
    for e in &cfg.panic_entries {
        let ids = if e.contains("::") {
            ws.qualified(e)
        } else {
            ws.named(e)
        };
        entries.extend(ids.iter().copied().filter(|&id| !ws.fns[id].test_only));
    }
    if entries.is_empty() {
        return;
    }
    let parent = cg.reach(ws, &entries);
    for f in &ws.fns {
        if f.test_only || parent[f.id].is_none() || !cfg.panic_applies(&f.file) {
            continue;
        }
        if cg.facts[f.id].panics.is_empty() {
            continue;
        }
        let no_allows = Vec::new();
        let allows = allow_targets.get(f.file.as_str()).unwrap_or(&no_allows);
        if fn_level_panic_allow(allows, f) {
            continue;
        }
        let chain = cg.chain(ws, &parent, f.id);
        let entry = chain.first().cloned().unwrap_or_else(|| f.qual_name());
        let path = chain.join("` → `");
        let mut sites: Vec<_> = cg.facts[f.id].panics.iter().collect();
        sites.dedup_by_key(|s| s.line); // e.g. nested indexing on one line
        for site in sites {
            out.push(Diagnostic {
                file: f.file.clone(),
                line: site.line,
                rule: RULE_PANIC_PATH,
                message: format!(
                    "{} can panic and is reachable from commit entry `{entry}` \
(call chain `{path}`) — return a structured error or justify with an allow",
                    site.kind.describe()
                ),
            });
        }
    }
}

fn rule_unbounded_retry(file: &str, toks: &[Token], exempt: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if exempt[i] || !is_ident(toks, i, "loop") {
            continue;
        }
        // Only the statement form `loop {` — `loop` as an identifier (a
        // field or variable named loop is not even legal Rust, but labels
        // like `'retry: loop` still hit this arm via the following `{`).
        if !is_sym(toks, i + 1, '{') {
            continue;
        }
        out.push(Diagnostic {
            file: file.to_string(),
            line: toks[i].line,
            rule: RULE_UNBOUNDED_RETRY,
            message: "bare `loop` on a retry-prone path has no structural bound — cap the \
retries (bounded streaks, capped backoff) and state the bound in an allow \
comment"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn randomstate_flags_default_hasher_only() {
        let cfg = LintConfig::all_rules();
        let src = "
            use std::collections::HashMap;
            fn f() {
                let a: HashMap<u32, u32> = HashMap::new();
                let b: FxHashMap<u32, u32> = FxHashMap::default();
                let c: HashMap<u32, u32, BuildHasherDefault<FxHasher>> = HashMap::with_hasher(h);
                let d = HashSet::<(u32, u32)>::new();
            }
        ";
        let diags = lint_file("x.rs", src, &cfg);
        // `use ... HashMap`, annotation `HashMap<u32,u32>`, `HashMap::new`,
        // and the HashSet with only one generic param (the tuple is nested in
        // parens, so it is a single top-level param).
        assert!(
            diags.iter().all(|d| d.rule == RULE_RANDOMSTATE),
            "{diags:?}"
        );
        assert_eq!(diags.len(), 4, "{diags:?}");
    }

    #[test]
    fn randomstate_accepts_type_aliases_with_custom_hashers() {
        let cfg = LintConfig::all_rules();
        let src = "pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn fn_arrows_inside_generics_do_not_close_the_list() {
        let cfg = LintConfig::all_rules();
        let src = "fn f(m: HashMap<K, Box<dyn Fn(u8) -> u8>, S>) {}";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let cfg = LintConfig::all_rules();
        let src = "
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let m = HashMap::new(); m.get(&1).unwrap(); }
            }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let cfg = LintConfig::all_rules();
        let src = "
            #[cfg(not(test))]
            fn f() { let m = std::collections::HashMap::new(); }
        ";
        assert_eq!(rules_of(&lint_file("x.rs", src, &cfg)), [RULE_RANDOMSTATE]);
    }

    #[test]
    fn debug_residue_flags_macros_with_exact_locations() {
        let cfg = LintConfig::workspace();
        let src = "fn f() {
    todo!();
    dbg!(x);
}
fn g(a: u8, b: u8) -> bool { eprintln!(\"g\"); a != b }
fn h() { unimplemented!() }
";
        let diags = lint_file("crates/core/src/x.rs", src, &cfg);
        let got: Vec<(&str, u32, &'static str)> = diags
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.rule))
            .collect();
        // `a != b` is ident-`!`-ident, not a macro — it must not match.
        assert_eq!(
            got,
            [
                ("crates/core/src/x.rs", 2, RULE_DEBUG_RESIDUE),
                ("crates/core/src/x.rs", 3, RULE_DEBUG_RESIDUE),
                ("crates/core/src/x.rs", 5, RULE_DEBUG_RESIDUE),
                ("crates/core/src/x.rs", 6, RULE_DEBUG_RESIDUE),
            ],
            "{diags:?}"
        );
        assert!(diags[0].message.contains("todo!"));
        assert!(diags[2].message.contains("eprintln!"));
    }

    #[test]
    fn debug_residue_is_scoped_to_protocol_crates() {
        let cfg = LintConfig::workspace();
        let src = "fn f() { eprintln!(\"progress\"); }";
        assert_eq!(
            rules_of(&lint_file("crates/model/src/x.rs", src, &cfg)),
            [RULE_DEBUG_RESIDUE]
        );
        assert_eq!(
            rules_of(&lint_file("crates/engine/src/x.rs", src, &cfg)),
            [RULE_DEBUG_RESIDUE]
        );
        // Non-protocol crates and the CLI may print to stderr freely.
        assert!(lint_file("crates/stats/src/x.rs", src, &cfg).is_empty());
        assert!(lint_file("src/bin/ccsim.rs", src, &cfg).is_empty());
    }

    #[test]
    fn debug_residue_exempts_tests_and_honors_allows() {
        let cfg = LintConfig::all_rules();
        let test_src = "
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { dbg!(1); eprintln!(\"x\"); }
            }
        ";
        assert!(lint_file("x.rs", test_src, &cfg).is_empty());

        let allowed = "fn f() {
    // ccsim-lint: allow(debug-residue): one-shot operator warning, not debug residue
    eprintln!(\"warning: bad env var\");
}";
        assert!(lint_file("x.rs", allowed, &cfg).is_empty());

        let bare = "fn f() {
    // ccsim-lint: allow(debug-residue)
    eprintln!(\"warning\");
}";
        let diags = lint_file("x.rs", bare, &cfg);
        assert_eq!(rules_of(&diags), [RULE_BAD_ALLOW, RULE_DEBUG_RESIDUE]);
    }

    #[test]
    fn wall_clock_flags_now_calls_and_respects_allowlist() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let cfg = LintConfig::workspace();
        assert_eq!(
            rules_of(&lint_file("crates/model/src/x.rs", src, &cfg)),
            [RULE_WALL_CLOCK]
        );
        assert!(lint_file("crates/bench/src/x.rs", src, &cfg).is_empty());
        assert!(lint_file("crates/harness/src/x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unwrap_rule_is_scoped_to_protocol_crates() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let cfg = LintConfig::workspace();
        assert_eq!(
            rules_of(&lint_file("crates/core/src/directory.rs", src, &cfg)),
            [RULE_UNWRAP]
        );
        assert!(lint_file("crates/stats/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unwrap_rule_ignores_unwrap_or_variants() {
        let cfg = LintConfig::all_rules();
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_default().min(x.unwrap_or(3)) }";
        assert!(lint_file("crates/core/src/x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unbounded_retry_flags_bare_loops_in_scope_only() {
        let src = "fn f() { loop { step(); } }";
        let cfg = LintConfig::workspace();
        assert_eq!(
            rules_of(&lint_file("crates/engine/src/machine.rs", src, &cfg)),
            [RULE_UNBOUNDED_RETRY]
        );
        assert_eq!(
            rules_of(&lint_file("crates/network/src/lib.rs", src, &cfg)),
            [RULE_UNBOUNDED_RETRY]
        );
        assert!(lint_file("crates/stats/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unbounded_retry_accepts_header_bounded_loops() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn f(n: u32) {
                for i in 0..n { step(i); }
                while n > 0 { step(n); }
            }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unbounded_retry_is_suppressed_by_a_justified_allow() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn f() {
                // ccsim-lint: allow(unbounded-retry): backoff capped at 64 cycles
                loop { if step() { break; } }
            }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unbounded_retry_exempts_test_code() {
        let cfg = LintConfig::all_rules();
        let src = "
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { loop { break; } }
            }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn testing_gate_flags_ungated_hooks_and_accepts_gated_ones() {
        let cfg = LintConfig::all_rules();
        let bad = "impl T { pub fn corrupt_entry_for_test(&mut self) {} }";
        assert_eq!(rules_of(&lint_file("x.rs", bad, &cfg)), [RULE_TESTING_GATE]);
        let good = "impl T {
            #[cfg(feature = \"testing\")]
            pub fn corrupt_entry_for_test(&mut self) {}
        }";
        assert!(lint_file("x.rs", good, &cfg).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_line_and_next_line() {
        let cfg = LintConfig::all_rules();
        let trailing = "fn f() { let t = Instant::now(); } // ccsim-lint: allow(wall-clock): progress display only";
        assert!(lint_file("x.rs", trailing, &cfg).is_empty());
        let above = "// ccsim-lint: allow(wall-clock): progress display only\nfn f() { let t = Instant::now(); }";
        assert!(lint_file("x.rs", above, &cfg).is_empty());
    }

    #[test]
    fn bare_or_unknown_allow_is_reported_and_does_not_suppress() {
        let cfg = LintConfig::all_rules();
        let bare = "fn f() { let t = Instant::now(); } // ccsim-lint: allow(wall-clock)";
        let mut rules = rules_of(&lint_file("x.rs", bare, &cfg));
        rules.sort_unstable();
        assert_eq!(rules, [RULE_BAD_ALLOW, RULE_WALL_CLOCK]);
        let unknown = "// ccsim-lint: allow(nosuch): whatever\n";
        assert_eq!(
            rules_of(&lint_file("x.rs", unknown, &cfg)),
            [RULE_BAD_ALLOW]
        );
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let cfg = LintConfig::all_rules();
        let src = "fn f() { let t = Instant::now(); } // ccsim-lint: allow(unwrap): wrong rule";
        assert!(lint_file("x.rs", src, &cfg)
            .iter()
            .any(|d| d.rule == RULE_WALL_CLOCK));
    }

    #[test]
    fn lock_order_conflict_across_functions_is_flagged_once() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn a(s: &S) { let x = s.stats.lock(); let y = s.cache.lock(); }
            fn b(s: &S) { let y = s.cache.lock(); let x = s.stats.lock(); }
            fn c(s: &S) { let y = s.cache.lock(); let x = s.stats.lock(); }
        ";
        let diags = lint_file("x.rs", src, &cfg);
        // The conflicting pair is reported exactly once, at its first
        // out-of-order occurrence, even though `c` repeats it.
        assert_eq!(rules_of(&diags), [RULE_LOCK_ORDER], "{diags:?}");
        assert!(diags[0].message.contains("s.stats"), "{diags:?}");
        assert!(diags[0].message.contains("s.cache"), "{diags:?}");
    }

    #[test]
    fn lock_order_consistent_across_functions_is_clean() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn a(s: &S) { let x = s.stats.lock(); let y = s.cache.lock(); }
            fn b(s: &S) { let x = s.stats.lock(); let y = s.cache.lock(); }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn lock_order_ignores_unnameable_receivers_and_test_code() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn a(s: &S) { let x = s.get().lock(); let y = s.cache.lock(); }
            #[cfg(test)]
            fn b(s: &S) { let y = s.cache.lock(); let x = s.stats.lock(); }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn guard_held_across_fanout_is_flagged() {
        let cfg = LintConfig::all_rules();
        let src = "fn f(set: JobSet, m: &Mutex<u64>) { let g = m.lock(); set.run(); }";
        let diags = lint_file("x.rs", src, &cfg);
        assert_eq!(rules_of(&diags), [RULE_GUARD_FANOUT], "{diags:?}");
        assert!(diags[0].message.contains('g'), "{diags:?}");
    }

    #[test]
    fn guard_released_before_fanout_is_clean() {
        let cfg = LintConfig::all_rules();
        let dropped = "fn f(set: JobSet, m: &Mutex<u64>) { let g = m.lock(); drop(g); set.run(); }";
        assert!(lint_file("x.rs", dropped, &cfg).is_empty());
        let scoped =
            "fn f(set: JobSet, m: &Mutex<u64>) { { let g = m.lock(); } set.run_checked(); }";
        assert!(lint_file("x.rs", scoped, &cfg).is_empty());
    }

    #[test]
    fn free_run_protocols_counts_as_a_fanout() {
        let cfg = LintConfig::all_rules();
        let src = "fn f(m: &Mutex<u64>) { let g = m.lock(); let r = run_protocols(cfg, &s, ks); }";
        assert_eq!(rules_of(&lint_file("x.rs", src, &cfg)), [RULE_GUARD_FANOUT]);
    }

    #[test]
    fn bare_run_idents_are_not_fanouts() {
        let cfg = LintConfig::all_rules();
        // `run` as a variable, and `run(..)` as a free function, are fine —
        // only `.run(..)` method calls and `run_protocols(..)` fan out.
        let src = "fn f(m: &Mutex<u64>) { let g = m.lock(); let run = 3; run_sim(run); run(); }";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn typed_guard_bindings_are_still_tracked() {
        let cfg = LintConfig::all_rules();
        let src = "fn f(set: JobSet, m: &Mutex<u64>) { let g: MutexGuard<u64> = m.lock(); set.run_with(2, mode, dir); }";
        assert_eq!(rules_of(&lint_file("x.rs", src, &cfg)), [RULE_GUARD_FANOUT]);
    }

    #[test]
    fn guard_escaping_through_a_helper_is_flagged() {
        let cfg = LintConfig::all_rules();
        // The token-based scan could not see this: the guard is acquired by
        // `hold`, not by a literal `.lock()` in `f`.
        let src = "
            fn hold(m: &Mutex<u64>) -> MutexGuard<u64> { m.lock() }
            fn f(set: JobSet, m: &Mutex<u64>) { let g = hold(m); set.run(); }
        ";
        let diags = lint_file("x.rs", src, &cfg);
        assert_eq!(rules_of(&diags), [RULE_GUARD_FANOUT], "{diags:?}");
        assert!(diags[0].message.contains("`g`"), "{diags:?}");
    }

    #[test]
    fn deref_of_a_lock_is_not_a_live_guard() {
        let cfg = LintConfig::all_rules();
        // `*m.lock()` copies the value out; the temporary guard dies at the
        // end of the statement, so the fan-out does not run under it.
        let src = "fn f(set: JobSet, m: &Mutex<u64>) { let v = *m.lock(); set.run(); }";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn panic_path_reports_the_call_chain_from_the_entry() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn commit_frame(v: &[u64], i: usize) -> u64 { step(v, i) }
            fn step(v: &[u64], i: usize) -> u64 { v[i] }
        ";
        let diags = lint_file("crates/core/src/x.rs", src, &cfg);
        assert_eq!(rules_of(&diags), [RULE_PANIC_PATH], "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(
            diags[0].message.contains("`commit_frame` → `step`"),
            "{diags:?}"
        );
    }

    #[test]
    fn panic_path_is_covered_by_an_unwrap_allow_at_the_site() {
        let cfg = LintConfig::all_rules();
        // An existing allow(unwrap) also covers the reachability finding at
        // the same site — it adds a chain, not a new obligation.
        let src = "
            fn commit_frame(v: &[u64]) -> u64 {
                // ccsim-lint: allow(unwrap): the slot was populated two lines up
                v.first().unwrap() + 1
            }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn fn_level_panic_path_allow_covers_the_whole_function() {
        let cfg = LintConfig::all_rules();
        let src = "
            // ccsim-lint: allow(panic-path): indices are bounded by construction
            fn commit_frame(v: &[u64], i: usize) -> u64 { v[i] + v[i + 1] }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
        // ...but only that function: a second reachable site still reports.
        let two = "
            // ccsim-lint: allow(panic-path): indices are bounded by construction
            fn commit_frame(v: &[u64], i: usize) -> u64 { helper(v, i) + v[i] }
            fn helper(v: &[u64], i: usize) -> u64 { v[i] }
        ";
        let diags = lint_file("x.rs", two, &cfg);
        assert_eq!(rules_of(&diags), [RULE_PANIC_PATH], "{diags:?}");
        assert_eq!(diags[0].line, 4, "{diags:?}");
    }

    #[test]
    fn stacked_allows_all_target_the_first_code_line_below() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn f() {
                // ccsim-lint: allow(wall-clock): reporting only
                // ccsim-lint: allow(randomstate): fixture exercises both rules
                let (t, m) = (Instant::now(), HashMap::new());
            }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn determinism_taint_is_suppressed_at_the_source_site() {
        let cfg = LintConfig::all_rules();
        let src = "
            fn f() -> String {
                // ccsim-lint: allow(wall-clock): reporting only
                // ccsim-lint: allow(determinism-taint): lands in a comment field
                let t = Instant::now();
                to_json(t)
            }
        ";
        assert!(lint_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for r in RULES {
            assert!(explain(r.id).is_some());
            assert!(!r.explain.is_empty());
        }
    }
}
