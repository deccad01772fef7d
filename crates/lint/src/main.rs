//! `rina-lint` CLI: scan the workspace, print clickable `file:line`
//! diagnostics grouped by rule, and gate CI.
//!
//! Exit codes (mirroring `bench-compare`): `0` clean, `1` findings,
//! `2` bad input.

#![forbid(unsafe_code)]

use rina_lint::{run_all, Finding};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const RULES: [(&str, &str); 3] = [
    ("D2", "hash-order iteration reaching output"),
    ("W1", "wire-codec encode/decode asymmetry"),
    ("C1", "undocumented policy-config fields"),
];

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root
        .or_else(|| {
            // `cargo run -p rina-lint` runs with the manifest dir set to
            // crates/lint; the workspace root is two levels up.
            std::env::var_os("CARGO_MANIFEST_DIR").map(|d| PathBuf::from(d).join("../.."))
        })
        .unwrap_or_else(|| PathBuf::from("."));

    let findings = match run_all(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("rina-lint: {e}");
            return ExitCode::from(2);
        }
    };
    report(&findings);
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn report(findings: &[Finding]) {
    let mut md = String::from("## rina-lint\n\n| rule | findings |\n|---|---|\n");
    for (rule, title) in RULES {
        let of_rule: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
        md.push_str(&format!("| {rule} | {} |\n", of_rule.len()));
        if !of_rule.is_empty() {
            eprintln!("{rule}: {title}");
            for f in of_rule {
                eprintln!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.msg);
            }
            eprintln!();
        }
    }
    if findings.is_empty() {
        md.push_str("\n**PASS** — workspace is lint-clean\n");
    } else {
        md.push_str(&format!("\n**FAIL** — {} finding(s)\n", findings.len()));
        md.push_str("\n| finding | where |\n|---|---|\n");
        for f in findings.iter().take(50) {
            md.push_str(&format!("| `{}` | `{}:{}` |\n", f.key, f.file, f.line));
        }
    }
    println!("{md}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&summary) {
            let _ = writeln!(f, "{md}");
        }
    }
}

const USAGE: &str = "\
rina-lint: workspace protocol-invariant static analysis (D2, W1, C1)

USAGE: rina-lint [--root DIR]

  --root DIR   workspace root (default: two levels above the crate)

Any finding fails the run. D1 and R1 are clippy's: see clippy.toml.
";
