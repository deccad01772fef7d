//! `rina-lint`: the repo-specific protocol-invariant static analysis
//! for the netipc workspace — the rules no general-purpose tool can
//! express.
//!
//! Three rule families, all running on a hand-rolled token stream (no
//! external dependencies, in the spirit of the JSON reader in
//! `crates/bench/src/compare.rs`):
//!
//! | rule | invariant |
//! |------|-----------|
//! | D2 | no hash-order iteration feeding wire/report/digest output |
//! | W1 | encode/decode symmetry per enum variant in paired codec fns |
//! | C1 | every `DifConfig`/`ConnParams` field documented in DESIGN.md |
//!
//! Any finding fails the run: there is no allow-list. The two rules
//! clippy can type-check are clippy's — D1 (no wall clocks, OS threads
//! or OS randomness) is `disallowed-types` / `disallowed-methods` in the
//! root `clippy.toml`, and R1 (no panic sites in the per-PDU protocol
//! paths) is `#![deny(clippy::indexing_slicing, …)]` at the top of the
//! five hot-path files — and their accepted exceptions are
//! `#[expect(clippy::…, reason = "…")]` attributes next to the code,
//! which `cargo clippy -D warnings` fails once nothing fulfils them.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parse;
pub mod rules;

use std::path::Path;

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (`"D2"`, `"W1"` or `"C1"`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the (first) offending token.
    pub line: u32,
    /// Stable identity of the finding (rule, file, item — no line
    /// numbers, so it survives unrelated edits).
    pub key: String,
    /// Human-readable diagnosis.
    pub msg: String,
}

/// Collect the workspace's lintable sources: `crates/*/src/**/*.rs`
/// excluding the vendored `compat` shims, plus the root package's
/// `src/`. Returns `(relative path, contents)` sorted by path.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut roots: Vec<(String, std::path::PathBuf)> = Vec::new();
    let crates = root.join("crates");
    let entries =
        std::fs::read_dir(&crates).map_err(|e| format!("cannot read {}: {e}", crates.display()))?;
    for ent in entries {
        let ent = ent.map_err(|e| e.to_string())?;
        let name = ent.file_name().to_string_lossy().to_string();
        if name == "compat" || !ent.path().is_dir() {
            continue;
        }
        let src = ent.path().join("src");
        if src.is_dir() {
            roots.push((format!("crates/{name}/src"), src));
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        roots.push(("src".to_string(), root_src));
    }
    let mut out = Vec::new();
    for (rel, dir) in roots {
        walk_rs(&dir, &rel, &mut out)?;
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk_rs(dir: &Path, rel: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| (e.file_name().to_string_lossy().to_string(), e.path()))
        .collect();
    names.sort();
    for (name, path) in names {
        if path.is_dir() {
            walk_rs(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push((format!("{rel}/{name}"), text));
        }
    }
    Ok(())
}

/// Run every rule over the workspace at `root`. Findings are sorted by
/// `(rule, file, line)`.
pub fn run_all(root: &Path) -> Result<Vec<Finding>, String> {
    let sources = collect_sources(root)?;
    let lexed: Vec<(String, Vec<lexer::Token>)> =
        sources.iter().map(|(p, s)| (p.clone(), lexer::strip_test_items(&lexer::lex(s)))).collect();
    let mut out = Vec::new();
    for (path, toks) in &lexed {
        out.extend(rules::determinism::check_d2(path, toks));
        out.extend(rules::wire::check_w1(path, toks));
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    out.extend(rules::config::check_c1(&design, &lexed));
    out.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    Ok(out)
}
