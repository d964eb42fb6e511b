//! `ccsim-lint`: zero-dependency static analysis for the workspace,
//! surfaced as the `ccsim lint` subcommand.
//!
//! [`source`] lints the workspace's Rust sources for determinism and
//! race-hazard laws. It is a three-layer semantic analyzer: a hand-rolled
//! token scanner ([`lexer`]), a lossy recursive-descent parser ([`parse`] →
//! [`ast`]) that recovers item structure and full expression trees, and a
//! workspace pass ([`resolve`] → [`callgraph`] → [`taint`]) that builds a
//! symbol table and approximate call graph to run interprocedural rules:
//! global lock-order cycle detection, nondeterminism taint tracking from
//! sources (wall clock, `RandomState`, unvetted env reads) into determinism
//! sinks (canonical JSON, cache keys, event logs), and panic-path
//! reachability from the commit and directory-mutation entry
//! points. Violations are suppressible only via justified
//! `// ccsim-lint: allow(<rule>): <why>` comments. [`sarif`] renders
//! diagnostics as SARIF 2.1.0 for code-scanning UIs.

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod resolve;
pub mod sarif;
pub mod source;
pub mod taint;

pub use source::{explain, lint_file, lint_sources, lint_workspace, Diagnostic, LintConfig, RULES};
