//! C1 (DESIGN.md §9): the policy surface is documented. Every top-level
//! field of the two policy structs, [`DifConfig`] and [`ConnParams`], is
//! named in DESIGN.md's policy tables — one mechanism parameterized by
//! *visible* policy is the paper's whole point, so an undocumented knob
//! is a spec violation. The field names are read off the derived `Debug`,
//! so there is no list here to keep in step with the structs.

use rina::dif::DifConfig;
use rina_efcp::ConnParams;

fn design_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The top-level field names of `v`: in pretty `Debug`, the lines at one
/// indent that read `name: …`.
fn field_names(v: &impl std::fmt::Debug) -> Vec<String> {
    format!("{v:#?}")
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter_map(|l| l.split_once(": ").map(|(name, _)| name))
        .filter(|name| name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_policy_field_is_documented() {
    let md = design_md();
    for (ty, fields) in [
        ("DifConfig", field_names(&DifConfig::new("x"))),
        ("ConnParams", field_names(&ConnParams::reliable())),
    ] {
        assert!(fields.len() >= 5, "{ty}: field names not read off Debug: {fields:?}");
        for f in fields {
            assert!(md.contains(&format!("`{f}`")), "`{ty}.{f}` is not named in DESIGN.md §9");
        }
    }
}

#[test]
fn constants_paragraph_names_the_fixed_policies() {
    let md = design_md();
    for (sec, next, constants) in [
        ("9.1", "### 9.2", &["HELLO_MISSES", "MAX_SDU", "FLOOD_BATCH"][..]),
        ("9.2", "\n## ", &["MAX_PDU_PAYLOAD", "RTX_MAX_TIMEOUT", "MAX_RTX", "ACK_DELAY"][..]),
    ] {
        let start = md.find(&format!("### {sec}")).unwrap_or_else(|| panic!("no §{sec}"));
        let end = md[start..].find(next).map_or(md.len(), |i| start + i);
        let para = md[start..end]
            .split("\n\n")
            .find(|p| p.contains("constant"))
            .unwrap_or_else(|| panic!("§{sec} has no constants paragraph"));
        for c in constants {
            assert!(para.contains(&format!("`{c}`")), "§{sec}'s constants paragraph lacks `{c}`");
        }
    }
}
