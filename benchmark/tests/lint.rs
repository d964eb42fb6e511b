//! The benchmark's sources pass the rules `ccsim lint --deny` enforces on
//! the workspace (the workspace walk covers `crates/*/src` and `src`, not
//! this package, so the check runs here).

use ccsim_lint::{lint_sources, LintConfig};

#[test]
fn benchmark_sources_are_clean_under_the_workspace_lint_rules() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            (
                format!("benchmark/src/{name}"),
                std::fs::read_to_string(p).unwrap(),
            )
        })
        .collect();
    assert!(sources.len() >= 5);
    let diags = lint_sources(&sources, &LintConfig::workspace());
    let rendered: Vec<String> = diags.iter().map(|d| d.render()).collect();
    assert!(diags.is_empty(), "{}", rendered.join("\n"));
}
