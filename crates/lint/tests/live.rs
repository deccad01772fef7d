//! The lint run against the real workspace: the tree must carry no
//! finding at all (there is no allow-list), and a seeded codec mutation
//! must trip W1 — proving the gate would catch a real encode/decode
//! drift, not just fixture toys.

use rina_lint::lexer::{lex, strip_test_items};
use rina_lint::rules::wire;
use rina_lint::run_all;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_findings() {
    let findings = run_all(&workspace_root()).expect("scan workspace");
    let listed: Vec<String> =
        findings.iter().map(|f| format!("{}:{} {}", f.file, f.line, f.key)).collect();
    assert!(listed.is_empty(), "findings:\n{}", listed.join("\n"));
}

#[test]
fn w1_catches_a_seeded_decode_mutation_in_the_real_codec() {
    let root = workspace_root();
    let path = root.join("crates/core/src/msg.rs");
    let src = std::fs::read_to_string(&path).expect("read msg.rs");

    // The pristine codec must be symmetric.
    let clean = wire::check_w1("msg.rs", &strip_test_items(&lex(&src)));
    assert!(clean.is_empty(), "real codec flagged before mutation: {clean:?}");

    // Delete one field read from `MgmtBody::from_cdap` (the joiner's
    // proposed address in EnrollRequest) and re-lint: W1 must fire.
    let needle = "let proposed_addr = r.varint()?;";
    assert!(src.contains(needle), "mutation anchor vanished from msg.rs; update this test");
    let mutated = src.replacen(needle, "let proposed_addr = 0;", 1);
    let fs = wire::check_w1("msg.rs", &strip_test_items(&lex(&mutated)));
    assert!(
        fs.iter().any(|f| f.key.contains("EnrollRequest")),
        "dropped decode read not caught: {fs:?}"
    );
}
