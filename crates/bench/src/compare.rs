//! The perf-regression gate: parse two `BENCH_SWEEP.json` documents
//! (a checked-in baseline and a fresh run) and diff them cell by cell.
//!
//! The gate derives from the documents, not from a list: **every**
//! member of a cell except `wall_s` — virtual-time makespan, PDU counts,
//! reachability, whatever column is added next — is compared
//! **exactly**: under a fixed seed they are pure functions of the code,
//! so any drift is a behaviour change that either is a regression or
//! deserves a deliberate baseline refresh (see EXPERIMENTS.md), and a
//! member present on one side only is a structural error. `wall_s`
//! alone is machine-dependent, so it is compared **relatively**: fresh
//! wall clocks are first normalized by
//! the **median** per-cell speed ratio between the two runs (factoring
//! out how fast the machine is — and, unlike a ratio of totals, robust
//! to a few cells legitimately changing speed), then a cell fails only
//! if it regressed more than the tolerance *relative to the rest of the
//! run*. A uniform slowdown therefore never fails the gate — but one
//! cell getting slower than its peers (a scaling regression) does.
//!
//! The document parser is a ~100-line recursive-descent JSON reader:
//! the build environment is offline (no serde), and the sweep documents
//! are flat objects of scalars, which this covers completely.

use crate::report::{markdown, Col};
use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (sweep counts stay far below 2^53, so f64 is exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry the byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key is not a string at byte {pos}")),
                };
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            while *pos < b.len() {
                match b[*pos] {
                    b'"' => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    b'\\' => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or(format!("bad \\u escape at byte {pos}"))?;
                                out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    _ => {
                        // Multi-byte UTF-8 passes through unharmed: copy
                        // the full code point.
                        let s = std::str::from_utf8(&b[*pos..])
                            .map_err(|_| format!("invalid utf-8 at byte {pos}"))?;
                        let c = s.chars().next().expect("non-empty");
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
            Err("unterminated string".into())
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or(format!("bad number at byte {start}"))
        }
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

/// The one machine-dependent member of a sweep row.
const WALL: &str = "wall_s";

/// One compared metric of one cell.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The cell id.
    pub cell: String,
    /// The metric name.
    pub metric: String,
    /// Rendered baseline value.
    pub base: String,
    /// Rendered fresh value (normalized, for wall clock).
    pub fresh: String,
    /// Whether this finding fails the gate.
    pub regressed: bool,
    /// Human-readable status for the table.
    pub status: String,
}

/// The outcome of a baseline comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Everything that differed (regressions and tolerated drift).
    pub findings: Vec<Finding>,
    /// Cells compared.
    pub cells: usize,
    /// The machine-speed scale applied to fresh wall clocks.
    pub wall_scale: f64,
    /// Structural problems (cells or members on one side only).
    pub errors: Vec<String>,
    /// One of the documents is not a sweep document at all (no `cells`
    /// array, non-string ids, duplicate ids) — a usage error, not a
    /// regression: callers should report "bad input", not "refresh the
    /// baseline".
    pub bad_input: bool,
    /// Wall-clock gating was skipped because the two documents were
    /// generated at different worker counts (`meta.threads`), so their
    /// per-cell wall clocks carry different pool-contention profiles
    /// and are not comparable. Deterministic metrics are still gated.
    pub wall_skipped: Option<String>,
}

/// The diff table: one line per metric that differed.
const FINDINGS: &[Col<Finding>] = &[
    ("cell", |f| f.cell.clone()),
    ("metric", |f| f.metric.clone()),
    ("baseline", |f| f.base.clone()),
    ("current", |f| f.fresh.clone()),
    ("status", |f| f.status.clone()),
];

/// One row of the drift roll-up: an exact metric, the cells it moved
/// in, how many of them it rose and fell in (numeric values only, a
/// zero baseline included), and current ÷ baseline over those of them
/// with a non-zero numeric baseline, ascending.
struct Moved {
    metric: String,
    cells: usize,
    up: usize,
    down: usize,
    ratios: Vec<f64>,
}

/// The median of ascending `sorted`, `None` when it is empty.
fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A ratio cell: three decimals, or a dash when there is none.
fn times(r: Option<f64>) -> String {
    r.map_or("—".into(), |r| format!("{r:.3}"))
}

/// The roll-up table: one line per exact metric that moved.
const MOVED: &[Col<Moved>] = &[
    ("metric", |m| m.metric.clone()),
    ("cells", |m| m.cells.to_string()),
    ("up", |m| m.up.to_string()),
    ("down", |m| m.down.to_string()),
    ("min ×", |m| times(m.ratios.first().copied())),
    ("median ×", |m| times(median(&m.ratios))),
    ("max ×", |m| times(m.ratios.last().copied())),
];

impl Comparison {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        !self.bad_input && self.errors.is_empty() && self.findings.iter().all(|f| !f.regressed)
    }

    /// Render the markdown diff table (what CI writes to the step
    /// summary). Always includes the verdict line; the table lists only
    /// metrics that differed.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let verdict = if self.ok() { "✅ no perf regression" } else { "❌ PERF REGRESSION" };
        out.push_str(&format!(
            "## Bench gate: {verdict}\n\n{} cells compared, wall-clock scale ×{:.3}\n\n",
            self.cells, self.wall_scale
        ));
        for e in &self.errors {
            out.push_str(&format!("- **error:** {e}\n"));
        }
        if !self.errors.is_empty() {
            out.push('\n');
        }
        if let Some(why) = &self.wall_skipped {
            out.push_str(&format!("_Wall-clock gate skipped: {why}_\n\n"));
        }
        if self.findings.is_empty() {
            out.push_str("No metric drift.\n");
            return out;
        }
        out.push_str(&markdown(FINDINGS, &self.findings));
        let moved = self.moved();
        if !moved.is_empty() {
            out.push_str("\n### Moved columns (current ÷ baseline)\n\n");
            out.push_str(&markdown(MOVED, &moved));
        }
        out
    }

    /// The exact-metric findings rolled up per metric, in name order.
    fn moved(&self) -> Vec<Moved> {
        let mut by_metric: BTreeMap<&str, Moved> = BTreeMap::new();
        for f in self.findings.iter().filter(|f| f.metric != WALL) {
            let m = by_metric.entry(&f.metric).or_insert_with(|| Moved {
                metric: f.metric.clone(),
                cells: 0,
                up: 0,
                down: 0,
                ratios: Vec::new(),
            });
            m.cells += 1;
            if let (Ok(b), Ok(c)) = (f.base.parse::<f64>(), f.fresh.parse::<f64>()) {
                m.up += usize::from(c > b);
                m.down += usize::from(c < b);
                if b != 0.0 {
                    m.ratios.push(c / b);
                }
            }
        }
        let mut moved: Vec<Moved> = by_metric.into_values().collect();
        for m in &mut moved {
            m.ratios.sort_by(f64::total_cmp);
        }
        moved
    }
}

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(x) => x.to_string(),
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        _ => "…".into(),
    }
}

fn cells_by_id(doc: &Json) -> Result<BTreeMap<String, &Json>, String> {
    let arr = doc
        .get("cells")
        .and_then(|c| c.as_arr())
        .ok_or("document has no \"cells\" array — not a bench-sweep file?")?;
    let mut map = BTreeMap::new();
    for row in arr {
        let id =
            row.get("id").and_then(|i| i.as_str()).ok_or("cell without string \"id\"")?.to_string();
        if map.insert(id.clone(), row).is_some() {
            return Err(format!("duplicate cell id {id}"));
        }
    }
    Ok(map)
}

fn wall_of(row: &Json) -> f64 {
    row.get(WALL).and_then(|w| w.as_num()).unwrap_or(0.0)
}

fn members(row: &Json) -> &[(String, Json)] {
    match row {
        Json::Obj(fields) => fields,
        _ => &[],
    }
}

fn meta_threads(doc: &Json) -> Option<f64> {
    doc.get("meta").and_then(|m| m.get("threads")).and_then(Json::as_num)
}

/// Compare a fresh sweep document against the baseline: every member
/// of every shared cell exactly, `wall_s` alone relatively (a cell
/// fails when its normalized wall clock regressed by more than
/// `wall_tol`, e.g. 0.25 = 25 %; getting faster always passes).
/// Structural mismatches — a cell or a member on one side only — are
/// errors: the grid or the row changed, so the baseline needs a
/// deliberate refresh. The wall-clock gate only engages when both
/// documents were generated at the same `meta.threads` (identical
/// contention profile); otherwise it is skipped and noted.
pub fn compare(base: &Json, fresh: &Json, wall_tol: f64) -> Comparison {
    let mut cmp = Comparison { wall_scale: 1.0, ..Comparison::default() };
    let (base_cells, fresh_cells) = match (cells_by_id(base), cells_by_id(fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            if let Err(e) = b {
                cmp.errors.push(format!("baseline: {e}"));
            }
            if let Err(e) = f {
                cmp.errors.push(format!("current: {e}"));
            }
            cmp.bad_input = true;
            return cmp;
        }
    };
    let (bt, ft) = (meta_threads(base), meta_threads(fresh));
    let wall_comparable = match (bt, ft) {
        (Some(b), Some(f)) => b == f,
        // Documents without provenance (hand-built fixtures) are
        // assumed comparable — exact gates carry the burden anyway.
        _ => true,
    };
    if !wall_comparable {
        cmp.wall_skipped = Some(format!(
            "baseline ran at {} worker(s), current at {} — per-cell wall clocks carry \
             different pool-contention profiles (rerun sweep with --threads matching \
             the baseline to gate wall clock)",
            bt.unwrap_or(0.0),
            ft.unwrap_or(0.0)
        ));
    }
    for id in base_cells.keys() {
        if !fresh_cells.contains_key(id) {
            cmp.errors.push(format!(
                "cell {id} is in the baseline but missing from the current run — \
                 grid changed? refresh BENCH_BASELINE.json"
            ));
        }
    }
    for id in fresh_cells.keys() {
        if !base_cells.contains_key(id) {
            cmp.errors.push(format!(
                "cell {id} is new (not in the baseline) — refresh BENCH_BASELINE.json"
            ));
        }
    }
    // Machine-speed normalization over the cells both documents share:
    // the median per-cell baseline/fresh speed ratio. The median (not a
    // ratio of totals) keeps one cell's legitimate speedup or blowup
    // from shifting the scale applied to every other cell.
    let shared: Vec<&String> =
        base_cells.keys().filter(|id| fresh_cells.contains_key(*id)).collect();
    let mut ratios: Vec<f64> = shared
        .iter()
        .filter_map(|id| {
            let (bw, fw) = (wall_of(base_cells[*id]), wall_of(fresh_cells[*id]));
            (bw.max(fw) >= 0.05 && bw > 0.0 && fw > 0.0).then_some(bw / fw)
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    cmp.wall_scale = median(&ratios).unwrap_or(1.0);
    cmp.cells = shared.len();
    for id in shared {
        let (b, f) = (base_cells[id], fresh_cells[id]);
        for (key, _) in members(f) {
            if b.get(key).is_none() {
                cmp.errors.push(format!(
                    "cell {id}: member {key} is new (not in the baseline) — refresh \
                     BENCH_BASELINE.json"
                ));
            }
        }
        for (key, bv) in members(b) {
            let Some(fv) = f.get(key) else {
                cmp.errors.push(format!(
                    "cell {id}: member {key} is in the baseline but missing from the current run"
                ));
                continue;
            };
            if key != WALL {
                if bv != fv {
                    cmp.findings.push(Finding {
                        cell: id.clone(),
                        metric: key.clone(),
                        base: render(bv),
                        fresh: render(fv),
                        regressed: true,
                        status: "❌ drift on exact metric".into(),
                    });
                }
                continue;
            }
            if cmp.wall_skipped.is_some() {
                continue;
            }
            let (Some(bw), Some(fw)) = (bv.as_num(), fv.as_num()) else {
                cmp.errors.push(format!("cell {id}: {WALL} is not a number"));
                continue;
            };
            let fw_norm = fw * cmp.wall_scale;
            // Tiny cells are all noise; only gate cells that cost at
            // least 50 ms of normalized wall clock.
            let gated = bw.max(fw_norm) >= 0.05;
            let regressed = gated && fw_norm > bw * (1.0 + wall_tol);
            let drifted = gated && (fw_norm - bw).abs() > bw * wall_tol * 0.5;
            if regressed || drifted {
                cmp.findings.push(Finding {
                    cell: id.clone(),
                    metric: key.clone(),
                    base: format!("{bw:.3}s"),
                    fresh: format!("{fw_norm:.3}s (norm)"),
                    regressed,
                    status: if regressed {
                        format!(
                            "❌ +{:.0}% > {:.0}% budget",
                            (fw_norm / bw - 1.0) * 100.0,
                            wall_tol * 100.0
                        )
                    } else {
                        format!("{:+.0}% (tolerated)", (fw_norm / bw - 1.0) * 100.0)
                    },
                });
            }
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sweep_shaped_documents() {
        let doc = parse(
            r#"{ "meta": {"schema": "bench-sweep-v1", "threads": 4},
                "cells": [ {"id": "a", "wall_s": 1.5, "mgmt_pdus": 12, "reachable": true},
                           {"id": "b", "wall_s": 0.5, "mgmt_pdus": 7, "reachable": false} ] }"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("meta").unwrap().get("schema").unwrap().as_str(),
            Some("bench-sweep-v1")
        );
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("mgmt_pdus").unwrap().as_num(), Some(12.0));
        assert_eq!(cells[1].get("reachable"), Some(&Json::Bool(false)));
    }

    #[test]
    fn parser_handles_escapes_null_and_negatives() {
        let doc = parse(r#"{"s": "a\"b\nc", "x": null, "n": -1.5e2, "u": "A"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a\"b\nc"));
        assert_eq!(doc.get("x"), Some(&Json::Null));
        assert_eq!(doc.get("n").unwrap().as_num(), Some(-150.0));
        assert_eq!(doc.get("u").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn parser_roundtrips_report_output() {
        // The emitter in report.rs and this parser must agree.
        crate::row! {
            /// A string and a float.
            pub struct R {
                name: &'static str,
                x: f64,
            }
        }
        use crate::report::Row;
        let json = R { name: "cell \"q\"", x: 2.5 }.to_json();
        let doc = parse(&json).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("cell \"q\""));
        assert_eq!(doc.get("x").unwrap().as_num(), Some(2.5));
    }

    fn sweep(cells: &[(&str, f64, f64)]) -> Json {
        // (id, wall_s, mgmt_pdus)
        Json::Obj(vec![(
            "cells".into(),
            Json::Arr(
                cells
                    .iter()
                    .map(|&(id, w, m)| {
                        Json::Obj(vec![
                            ("id".into(), Json::Str(id.into())),
                            ("makespan_s".into(), Json::Num(1.0)),
                            ("mgmt_pdus".into(), Json::Num(m)),
                            ("rib_pdus".into(), Json::Num(5.0)),
                            ("flood_suppressed".into(), Json::Num(0.0)),
                            ("flood_throttled".into(), Json::Num(0.0)),
                            ("spf_full".into(), Json::Num(3.0)),
                            ("spf_incremental".into(), Json::Num(7.0)),
                            ("ft_delta".into(), Json::Num(11.0)),
                            ("reachable".into(), Json::Bool(true)),
                            ("agg_len".into(), Json::Num(40.0)),
                            ("stale_rib".into(), Json::Num(0.0)),
                            ("half_open".into(), Json::Num(0.0)),
                            ("churn_reach".into(), Json::Num(1.0)),
                            ("rib_objects_max".into(), Json::Num(9.0)),
                            ("rib_bytes_max".into(), Json::Num(300.0)),
                            ("flow_allocs".into(), Json::Num(6.0)),
                            ("flow_alloc_fail".into(), Json::Num(0.0)),
                            ("flow_sdus".into(), Json::Num(60.0)),
                            ("flow_recv".into(), Json::Num(60.0)),
                            ("rmt_drops".into(), Json::Num(0.0)),
                            ("rmt_deq_bytes".into(), Json::Num(4096.0)),
                            ("relay_fast".into(), Json::Num(30.0)),
                            ("wall_s".into(), Json::Num(w)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn identical_documents_pass() {
        let a = sweep(&[("a", 1.0, 10.0), ("b", 2.0, 20.0)]);
        let cmp = compare(&a, &a, 0.25);
        assert!(cmp.ok(), "{:?}", cmp.findings);
        assert_eq!(cmp.cells, 2);
    }

    #[test]
    fn exact_metric_drift_fails() {
        let base = sweep(&[("a", 1.0, 10.0)]);
        let fresh = sweep(&[("a", 1.0, 11.0)]);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.ok());
        assert!(cmp.findings.iter().any(|f| f.metric == "mgmt_pdus" && f.regressed));
    }

    /// The fixture with member `key` of its first cell set to `v`
    /// (appended if absent) or, with `None`, removed.
    fn with_member(doc: &Json, key: &str, v: Option<Json>) -> Json {
        let mut doc = doc.clone();
        let Json::Obj(fields) = &mut doc else { panic!("fixture is an object") };
        let Some((_, Json::Arr(cells))) = fields.iter_mut().find(|(k, _)| k == "cells") else {
            panic!("fixture has cells")
        };
        let Some(Json::Obj(row)) = cells.first_mut() else { panic!("fixture has a cell") };
        row.retain(|(k, _)| k != key);
        if let Some(v) = v {
            row.push((key.into(), v));
        }
        doc
    }

    /// The churn invariants are gated exactly: a leaked stale object or
    /// a post-heal reachability dip fails even when every other metric
    /// matches.
    #[test]
    fn churn_metric_drift_fails() {
        let base = sweep(&[("ba2-n16-waves-l0-f0-churn", 1.0, 10.0)]);
        let fresh = with_member(&base, "stale_rib", Some(Json::Num(3.0)));
        let fresh = with_member(&fresh, "churn_reach", Some(Json::Num(0.9)));
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.ok());
        assert!(cmp.findings.iter().any(|f| f.metric == "stale_rib" && f.regressed));
        assert!(cmp.findings.iter().any(|f| f.metric == "churn_reach" && f.regressed));
    }

    /// The data-plane counters are gated exactly: a changed allocation
    /// count or RMT byte flow fails even when every other metric holds.
    #[test]
    fn data_plane_metric_drift_fails() {
        let base = sweep(&[("ba2-n16-waves-l0-f0-flow", 1.0, 10.0)]);
        let fresh = with_member(&base, "flow_allocs", Some(Json::Num(5.0)));
        let fresh = with_member(&fresh, "rmt_deq_bytes", Some(Json::Num(5000.0)));
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.ok());
        assert!(cmp.findings.iter().any(|f| f.metric == "flow_allocs" && f.regressed));
        assert!(cmp.findings.iter().any(|f| f.metric == "rmt_deq_bytes" && f.regressed));
    }

    /// The gate covers what the documents carry, not what a list named:
    /// a member no gate list ever mentioned is exact-gated all the same.
    #[test]
    fn unlisted_field_drift_fails() {
        let base = with_member(&sweep(&[("a", 1.0, 10.0)]), "hello_tx", Some(Json::Num(7.0)));
        assert!(compare(&base, &base, 0.25).ok());
        let fresh = with_member(&base, "hello_tx", Some(Json::Num(8.0)));
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.ok());
        assert!(cmp.findings.iter().any(|f| f.metric == "hello_tx" && f.regressed));
    }

    /// A member on one side only — a column added without refreshing the
    /// baseline, or dropped from the row — is a structural error either
    /// way round, not a silent pass.
    #[test]
    fn field_on_one_side_only_is_structural() {
        let plain = sweep(&[("a", 1.0, 10.0)]);
        let extra = with_member(&plain, "hello_tx", Some(Json::Num(7.0)));
        for (base, fresh) in [(&plain, &extra), (&extra, &plain)] {
            let cmp = compare(base, fresh, 0.25);
            assert!(!cmp.ok());
            assert!(!cmp.bad_input, "row drift is a regression, not a usage error");
            assert!(cmp.findings.is_empty(), "{:?}", cmp.findings);
            assert_eq!(cmp.errors.len(), 1, "{:?}", cmp.errors);
            assert!(cmp.errors[0].contains("hello_tx"), "{:?}", cmp.errors);
        }
        let no_wall = with_member(&plain, "wall_s", None);
        assert!(!compare(&plain, &no_wall, 0.25).ok(), "wall_s is a member like any other");
    }

    #[test]
    fn uniform_slowdown_is_normalized_away() {
        let base = sweep(&[("a", 1.0, 10.0), ("b", 2.0, 20.0)]);
        // Everything 3× slower — a slower machine, not a regression.
        let fresh = sweep(&[("a", 3.0, 10.0), ("b", 6.0, 20.0)]);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(cmp.ok(), "{:?}", cmp.findings);
        assert!((cmp.wall_scale - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn relative_wall_regression_fails() {
        let base = sweep(&[("a", 1.0, 10.0), ("b", 1.0, 20.0), ("c", 1.0, 30.0)]);
        // Cell b alone blows up 5× — a scaling regression, not machine
        // speed (the median normalization only absorbs shared factors).
        let fresh = sweep(&[("a", 1.0, 10.0), ("b", 5.0, 20.0), ("c", 1.0, 30.0)]);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.ok());
        assert!(cmp.findings.iter().any(|f| f.cell == "b" && f.regressed));
        assert!((cmp.wall_scale - 1.0).abs() < 1e-9, "median ignores the outlier");
    }

    #[test]
    fn getting_faster_passes_without_penalizing_peers() {
        let base = sweep(&[("a", 2.0, 10.0), ("b", 2.0, 20.0), ("c", 2.0, 30.0)]);
        // Cell b alone gets 4× faster; a and c are unchanged and must
        // not be dragged into a fake regression by the normalization.
        let fresh = sweep(&[("a", 2.0, 10.0), ("b", 0.5, 20.0), ("c", 2.0, 30.0)]);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(cmp.ok(), "{:?}", cmp.findings);
    }

    #[test]
    fn missing_and_extra_cells_are_structural_errors() {
        let base = sweep(&[("a", 1.0, 10.0), ("gone", 1.0, 10.0)]);
        let fresh = sweep(&[("a", 1.0, 10.0), ("new", 1.0, 10.0)]);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.ok());
        assert!(!cmp.bad_input, "grid drift is a regression, not a usage error");
        assert_eq!(cmp.errors.len(), 2, "{:?}", cmp.errors);
        assert!(cmp.errors.iter().any(|e| e.contains("gone")));
        assert!(cmp.errors.iter().any(|e| e.contains("new")));
    }

    #[test]
    fn non_sweep_document_is_bad_input() {
        let base = sweep(&[("a", 1.0, 10.0)]);
        // A results.json-shaped document: valid JSON, no cells array.
        let not_sweep = Json::Obj(vec![("e1_fig1".into(), Json::Arr(vec![]))]);
        let cmp = compare(&base, &not_sweep, 0.25);
        assert!(cmp.bad_input, "must be classed as bad input, not a regression");
        assert!(!cmp.ok());
        assert!(cmp.errors.iter().any(|e| e.contains("cells")));
    }

    fn with_threads(doc: &Json, threads: f64) -> Json {
        let Json::Obj(fields) = doc else { panic!("fixture is an object") };
        let mut fields = fields.clone();
        fields.insert(0, ("meta".into(), Json::Obj(vec![("threads".into(), Json::Num(threads))])));
        Json::Obj(fields)
    }

    #[test]
    fn wall_gate_skipped_on_thread_count_mismatch() {
        let base = with_threads(&sweep(&[("a", 1.0, 10.0), ("b", 1.0, 20.0)]), 1.0);
        // Cell b 5× slower — but the runs used different worker counts,
        // so wall clocks are not comparable and must not gate…
        let fresh = with_threads(&sweep(&[("a", 1.0, 10.0), ("b", 5.0, 20.0)]), 4.0);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(cmp.wall_skipped.is_some());
        assert!(cmp.ok(), "{:?}", cmp.findings);
        assert!(cmp.to_markdown().contains("Wall-clock gate skipped"));
        // …while the same drift at matching counts still fails.
        let fresh_matched = with_threads(&sweep(&[("a", 1.0, 10.0), ("b", 5.0, 20.0)]), 1.0);
        let cmp = compare(&base, &fresh_matched, 0.25);
        assert!(cmp.wall_skipped.is_none());
        assert!(!cmp.ok());
    }

    #[test]
    fn exact_gates_still_fire_when_wall_is_skipped() {
        let base = with_threads(&sweep(&[("a", 1.0, 10.0)]), 1.0);
        let fresh = with_threads(&sweep(&[("a", 1.0, 12.0)]), 8.0);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(cmp.wall_skipped.is_some());
        assert!(!cmp.ok(), "PDU drift fails regardless of wall skipping");
    }

    #[test]
    fn markdown_has_verdict_and_table() {
        let base = sweep(&[("a", 1.0, 10.0)]);
        let fresh = sweep(&[("a", 1.0, 12.0)]);
        let cmp = compare(&base, &fresh, 0.25);
        let md = cmp.to_markdown();
        assert!(md.contains("PERF REGRESSION"));
        assert!(md.contains("| a | mgmt_pdus | 10 | 12 |"));
        let ok = compare(&base, &base, 0.25);
        assert!(ok.to_markdown().contains("no perf regression"));
    }

    /// Exact drift ends with one roll-up line per moved metric: the cells
    /// it moved in, how many it rose and fell in, and the spread of
    /// current ÷ baseline; a move off a zero baseline counts its
    /// direction but has no ratio; wall clock stays out of it.
    #[test]
    fn markdown_rolls_up_the_moved_columns() {
        let base = sweep(&[("a", 1.0, 10.0), ("b", 1.0, 20.0), ("c", 1.0, 40.0), ("d", 1.0, 8.0)]);
        let fresh = sweep(&[("a", 1.0, 12.0), ("b", 1.0, 20.0), ("c", 1.0, 20.0), ("d", 3.0, 6.0)]);
        let fresh = with_member(&fresh, "reachable", Some(Json::Bool(false)));
        let fresh = with_member(&fresh, "stale_rib", Some(Json::Num(1.0)));
        let md = compare(&base, &fresh, 0.25).to_markdown();
        let (_, rollup) = md.split_once("### Moved columns").expect("a roll-up");
        assert!(
            rollup.contains("| metric | cells | up | down | min × | median × | max × |"),
            "{md}"
        );
        assert!(rollup.contains("| mgmt_pdus | 3 | 1 | 2 | 0.500 | 0.750 | 1.200 |"), "{md}");
        assert!(rollup.contains("| reachable | 1 | 0 | 0 | — | — | — |"), "{md}");
        assert!(rollup.contains("| stale_rib | 1 | 1 | 0 | — | — | — |"), "{md}");
        assert!(!rollup.contains("wall_s"), "{md}");
        let wall_only =
            sweep(&[("a", 1.0, 10.0), ("b", 1.0, 20.0), ("c", 1.0, 40.0), ("d", 3.0, 8.0)]);
        assert!(!compare(&base, &wall_only, 0.25).to_markdown().contains("Moved columns"));
    }
}
