//! W1 — wire-codec symmetry. For every paired `encode`/`decode` (also
//! `encode_into`/`decode_from`, `into_cdap`/`from_cdap`) on one impl, the
//! multiset of codec operations written per enum variant must equal the
//! multiset read back. This catches the classic drift bug — a field added
//! to `encode` without its `decode` read — before any proptest runs.
//!
//! The comparison is structural, not positional:
//!
//! * Ops are bucketed by the **outermost** `match` arm they occur in
//!   (nested matches flatten into their parent arm), keyed by the enum
//!   variant the arm encodes/constructs; ops outside any match form the
//!   `(preamble)` bucket.
//! * `raw` writes, `rest` reads, and helper calls handed the bare
//!   writer/reader variable all count as one `tail` op.
//! * `.encode(..)`/`.encode_into(..)` writes pair with
//!   `::decode(..)`/`::decode_from(..)` reads as one `nested` op.
//! * Type/version *tags* cancel out: a `u8` write of an ALL_CAPS constant
//!   on the encode side, and on the decode side a `u8` read consumed by a
//!   `match` scrutinee or bound to a name that is only compared/matched.
//! * Ops inside a loop are tracked as `op@loop` so a looped field can't
//!   pair with a straight-line one.
//!
//! Besides the pairwise comparison, W1 polices the *read-side surface*:
//! a fn with a recognized read name (`decode`, `decode_from`,
//! `from_cdap`) and no write-side counterpart on the same impl is
//! flagged — a one-sided walker silently drifts from the encoder. The
//! one sanctioned shape of unpaired reader is the **read-only peek**: a
//! fn named `peek` on a `*View` type (e.g. `PduView::peek`), which by
//! contract reads a strict subset of the frame and is pinned to the
//! paired `decode` by proptest instead of by this rule. A `peek` on any
//! other type, or a `*View::peek` that grows `Writer` ops, is flagged.
//!
//! A **borrowed decoder** is not one-sided: a read fn on a `*Ref` type
//! (e.g. `RibObjectRef::decode`, the copy-free twin of
//! `RibObject::decode`) answers to the write fn of the type it is a
//! view of — the same name without the suffix — and is compared with it
//! op for op, exactly like the owned decoder beside it.

use crate::lexer::{Tok, Token};
use crate::parse::{find_fns, find_matches, matching_close, FnItem};
use crate::Finding;

/// Fixed-shape codec primitives shared by `Writer` and `Reader`.
const PRIMS: &[&str] = &["u8", "u16", "u32", "u64", "varint", "bytes", "string", "boolean"];

/// Method names that delegate to a nested codec, either side.
const NESTED: &[&str] = &["encode", "encode_into", "decode", "decode_from"];

/// The recognized encode/decode fn-name pairs.
const PAIRS: &[(&str, &str)] =
    &[("encode", "decode"), ("encode_into", "decode_from"), ("into_cdap", "from_cdap")];

const KEYWORDS: &[&str] =
    &["if", "else", "while", "for", "in", "match", "return", "loop", "let", "break", "continue"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Write,
    Read,
}

/// One codec operation: its canonical signature atom and source line.
struct Op {
    sig: String,
    idx: usize,
    line: u32,
}

/// Check one file for codec-symmetry violations.
pub fn check_w1(file: &str, toks: &[Token]) -> Vec<Finding> {
    let fns = find_fns(toks);
    let mut out = Vec::new();
    for (ename, dname) in PAIRS {
        for ef in fns.iter().filter(|f| f.name == *ename && !f.impl_type.is_empty()) {
            for df in
                fns.iter().filter(|f| f.name == *dname && writer_of(&f.impl_type) == ef.impl_type)
            {
                compare_pair(file, toks, ef, df, &mut out);
            }
        }
        // Read-side surface: a recognized read name with no write-side
        // counterpart on the same impl is a one-sided walker.
        for df in fns.iter().filter(|f| f.name == *dname && !f.impl_type.is_empty()) {
            if fns.iter().any(|f| f.name == *ename && f.impl_type == writer_of(&df.impl_type)) {
                continue;
            }
            out.push(Finding {
                rule: "W1",
                file: file.to_string(),
                line: df.line,
                key: format!("W1|{file}|{}::{}|unpaired-read", df.impl_type, df.name),
                msg: format!(
                    "{}::{} reads the wire format with no paired {} on the same impl — \
                     one-sided walkers drift silently from the encoder",
                    df.impl_type, df.name, ename
                ),
            });
        }
    }
    check_peeks(file, toks, &fns, &mut out);
    out
}

/// The type whose write fn a read fn on `impl_type` answers to: the type
/// itself, or, for a borrowed `*Ref` view, the owned type it views.
fn writer_of(impl_type: &str) -> &str {
    impl_type.strip_suffix("Ref").filter(|owned| !owned.is_empty()).unwrap_or(impl_type)
}

/// The sanctioned unpaired reader: `peek` on a `*View` type is a
/// declared read-only walk (pinned to the paired `decode` by proptest),
/// so it needs no write-side counterpart — but it must *stay* read-only,
/// and the shape is reserved for `*View` types so the contract is
/// visible at the call site.
fn check_peeks(file: &str, toks: &[Token], fns: &[FnItem], out: &mut Vec<Finding>) {
    for f in fns.iter().filter(|f| f.name == "peek" && !f.impl_type.is_empty()) {
        if !f.impl_type.ends_with("View") {
            out.push(Finding {
                rule: "W1",
                file: file.to_string(),
                line: f.line,
                key: format!("W1|{file}|{}::peek|peek-on-non-view", f.impl_type),
                msg: format!(
                    "{}::peek walks the wire format on a type not named *View — either pair \
                     it with an encoder or move it to a read-only view type",
                    f.impl_type
                ),
            });
            continue;
        }
        if (f.body.0..f.body.1).any(|i| toks[i].is_ident("Writer")) {
            out.push(Finding {
                rule: "W1",
                file: file.to_string(),
                line: f.line,
                key: format!("W1|{file}|{}::peek|peek-writes", f.impl_type),
                msg: format!(
                    "{}::peek constructs a Writer — a peek is read-only by contract; a \
                     read/write walker needs the paired encode/decode treatment",
                    f.impl_type
                ),
            });
        }
    }
}

fn compare_pair(file: &str, toks: &[Token], ef: &FnItem, df: &FnItem, out: &mut Vec<Finding>) {
    let eb = buckets(toks, ef, Side::Write);
    let db = buckets(toks, df, Side::Read);
    let mut labels: Vec<&str> = eb.iter().chain(db.iter()).map(|(l, _)| l.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    for label in labels {
        let e = bucket_ops(&eb, label);
        let d = bucket_ops(&db, label);
        let esig = sig_of(e);
        let dsig = sig_of(d);
        if esig == dsig {
            continue;
        }
        let line = e
            .and_then(|v| v.first())
            .or(d.and_then(|v| v.first()))
            .map(|o| o.line)
            .unwrap_or(ef.line);
        let pair = format!("{}::{}/{}", ef.impl_type, ef.name, df.name);
        out.push(Finding {
            rule: "W1",
            file: file.to_string(),
            line,
            key: format!("W1|{file}|{pair}|{label}|{esig}/{dsig}"),
            msg: format!(
                "codec asymmetry in {pair}, variant {label}: encode writes [{esig}] but \
                 decode reads [{dsig}]"
            ),
        });
    }
}

fn bucket_ops<'a>(b: &'a [(String, Vec<Op>)], label: &str) -> Option<&'a Vec<Op>> {
    b.iter().find(|(l, _)| l == label).map(|(_, v)| v)
}

/// Canonical multiset signature: sorted op atoms joined with `+`, or `-`
/// for an absent/empty bucket.
fn sig_of(ops: Option<&Vec<Op>>) -> String {
    let mut atoms: Vec<&str> = match ops {
        Some(v) => v.iter().map(|o| o.sig.as_str()).collect(),
        None => Vec::new(),
    };
    if atoms.is_empty() {
        return "-".to_string();
    }
    atoms.sort_unstable();
    atoms.join("+")
}

/// Extract this side's ops and group them into `(variant bucket, ops)`.
fn buckets(toks: &[Token], f: &FnItem, side: Side) -> Vec<(String, Vec<Op>)> {
    let ops = extract_ops(toks, f, side);
    let ms = find_matches(toks, f.body);
    let mut out: Vec<(String, Vec<Op>)> = Vec::new();
    let mut push = |label: String, op: Op| match out.iter_mut().find(|(l, _)| *l == label) {
        Some((_, v)) => v.push(op),
        None => out.push((label, vec![op])),
    };
    'ops: for op in ops {
        for m in &ms {
            if op.idx >= m.block.0 && op.idx <= m.block.1 {
                for arm in &m.arms {
                    if op.idx >= arm.body.0 && op.idx < arm.body.1 {
                        let label =
                            arm_label(toks, arm.pat, arm.body).unwrap_or_else(|| "(arm)".into());
                        push(label, op);
                        continue 'ops;
                    }
                }
                // In the match header or an arm pattern: preamble.
                push("(preamble)".into(), op);
                continue 'ops;
            }
        }
        push("(preamble)".into(), op);
    }
    out
}

/// The enum variant an arm is about: the single `A::B` path in its
/// pattern if unambiguous, else the last uppercase-initial `A::B`
/// immediately followed by `{`/`(` in its body (the variant being
/// constructed on the decode side).
fn arm_label(toks: &[Token], pat: (usize, usize), body: (usize, usize)) -> Option<String> {
    let mut pat_paths: Vec<String> = Vec::new();
    let mut p = pat.0;
    while p < pat.1 {
        if toks[p].ident().is_some() && matches!(toks.get(p + 1).map(|t| &t.tok), Some(Tok::Colon2))
        {
            // Consume the whole path chain, keep the last segment.
            let mut last = p;
            while matches!(toks.get(last + 1).map(|t| &t.tok), Some(Tok::Colon2))
                && toks.get(last + 2).is_some_and(|t| t.ident().is_some())
            {
                last += 2;
            }
            if let Some(seg) = toks[last].ident() {
                if seg.starts_with(char::is_uppercase) && !pat_paths.iter().any(|s| s == seg) {
                    pat_paths.push(seg.to_string());
                }
            }
            p = last + 1;
        } else {
            p += 1;
        }
    }
    if pat_paths.len() == 1 {
        return pat_paths.pop();
    }
    let mut label = None;
    for i in body.0..body.1 {
        if i >= 2
            && toks[i - 1].tok == Tok::Colon2
            && toks[i - 2].ident().is_some()
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Open('{') | Tok::Open('(')))
        {
            if let Some(seg) = toks[i].ident() {
                if seg.starts_with(char::is_uppercase) {
                    label = Some(seg.to_string());
                }
            }
        }
    }
    label
}

fn extract_ops(toks: &[Token], f: &FnItem, side: Side) -> Vec<Op> {
    let io_vars = io_vars(toks, f);
    let loops = loop_ranges(toks, f.body);
    let scruts = scrutinee_ranges(toks, f.body);
    let in_any = |ranges: &[(usize, usize)], i: usize| ranges.iter().any(|&(a, b)| i >= a && i < b);
    let mut ops = Vec::new();
    for i in f.body.0..f.body.1 {
        let Some(m) = toks[i].ident() else { continue };
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Open('('))) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let prev_path = i > 0 && toks[i - 1].tok == Tok::Colon2;
        let atom = if prev_dot && PRIMS.contains(&m) {
            if side == Side::Write && m == "u8" && is_allcaps_tag_write(toks, i + 1) {
                continue; // type/version tag byte, cancelled by decode's selector read
            }
            if side == Side::Read && m == "u8" && is_tag_read(toks, f, &scruts, i) {
                continue; // selector read, cancelled by encode's tag writes
            }
            Some(m.to_string())
        } else if prev_dot
            && ((side == Side::Write && m == "raw") || (side == Side::Read && m == "rest"))
        {
            Some("tail".to_string())
        } else if (prev_dot || prev_path) && NESTED.contains(&m) {
            Some("nested".to_string())
        } else if !KEYWORDS.contains(&m) {
            let close = matching_close(toks, i + 1);
            if has_bare_io_var(toks, i + 1, close, &io_vars) {
                Some("tail".to_string())
            } else {
                None
            }
        } else {
            None
        };
        if let Some(mut sig) = atom {
            if in_any(&loops, i) {
                sig.push_str("@loop");
            }
            ops.push(Op { sig, idx: i, line: toks[i].line });
        }
    }
    ops
}

/// Writer/reader variable names in scope: codec-op receivers, params
/// typed `Writer`/`Reader`, and `Writer::`/`Reader::` ctor bindings.
fn io_vars(toks: &[Token], f: &FnItem) -> Vec<String> {
    let mut vars = Vec::new();
    let mut add = |v: &str| {
        if !vars.iter().any(|x| x == v) {
            vars.push(v.to_string());
        }
    };
    for i in f.body.0..f.body.1 {
        if let Some(v) = toks[i].ident() {
            let recv_of_op = toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 2).is_some_and(|t| {
                    t.ident().is_some_and(|m| PRIMS.contains(&m) || m == "raw" || m == "rest")
                })
                && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Open('(')));
            if recv_of_op {
                add(v);
            }
            if (v == "Writer" || v == "Reader")
                && i >= 2
                && toks[i - 1].is_punct('=')
                && toks[i - 2].ident().is_some()
            {
                add(toks[i - 2].ident().unwrap_or_default());
            }
        }
    }
    for i in f.sig.0..f.sig.1 {
        if toks[i].is_ident("Writer") || toks[i].is_ident("Reader") {
            // Walk back over the type expression to the param's `:`.
            let mut j = i;
            while j > f.sig.0 {
                j -= 1;
                match &toks[j].tok {
                    Tok::Ident(_) | Tok::Colon2 | Tok::Punct('&') | Tok::Punct('<') => continue,
                    _ => break,
                }
            }
            if toks[j].is_punct(':') && j > f.sig.0 {
                if let Some(v) = toks[j - 1].ident() {
                    add(v);
                }
            }
        }
    }
    vars
}

/// Ranges (token indices of `{`..`}`) of `for`/`while`/`loop` bodies.
fn loop_ranges(toks: &[Token], body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in body.0..body.1 {
        if !(toks[i].is_ident("for") || toks[i].is_ident("while") || toks[i].is_ident("loop")) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < body.1 {
            match toks[j].tok {
                Tok::Open('{') if depth == 0 => {
                    out.push((j, matching_close(toks, j)));
                    break;
                }
                Tok::Open(_) => depth += 1,
                Tok::Close(_) => depth -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// Scrutinee token ranges of every `match` in the body, nested included.
fn scrutinee_ranges(toks: &[Token], body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in body.0..body.1 {
        if !toks[i].is_ident("match") {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < body.1 {
            match toks[j].tok {
                Tok::Open('{') if depth == 0 => break,
                Tok::Open(_) => depth += 1,
                Tok::Close(_) => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        out.push((i + 1, j));
    }
    out
}

fn is_allcaps(s: &str) -> bool {
    s.len() > 1
        && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && s.chars().any(|c| c.is_ascii_uppercase())
}

/// `w.u8(SOME_TAG)` — the whole argument list is one ALL_CAPS constant.
fn is_allcaps_tag_write(toks: &[Token], open: usize) -> bool {
    let close = matching_close(toks, open);
    close == open + 2 && toks[open + 1].ident().is_some_and(is_allcaps)
}

/// A `u8` read whose value only selects a branch: lexically inside a
/// `match` scrutinee, or bound via `let name = r.u8()...` to a name that
/// is later only matched on or compared.
fn is_tag_read(toks: &[Token], f: &FnItem, scruts: &[(usize, usize)], i: usize) -> bool {
    if scruts.iter().any(|&(a, b)| i >= a && i < b) {
        return true;
    }
    // `let name = recv . u8 ( ...` — op ident at i, recv at i-2, `=` at i-3.
    if i < 4
        || !toks[i - 1].is_punct('.')
        || toks[i - 2].ident().is_none()
        || !toks[i - 3].is_punct('=')
    {
        return false;
    }
    let Some(name) = toks[i - 4].ident() else { return false };
    let has_let = (i.saturating_sub(7)..i - 4).any(|k| toks[k].is_ident("let"));
    if !has_let {
        return false;
    }
    for p in f.body.0..f.body.1 {
        if p == i - 4 || !toks[p].is_ident(name) {
            continue;
        }
        if scruts.iter().any(|&(a, b)| p >= a && p < b) {
            return true; // `match name { .. }`
        }
        let eq_after = toks.get(p + 1).is_some_and(|t| t.is_punct('=') || t.is_punct('!'))
            && toks.get(p + 2).is_some_and(|t| t.is_punct('='));
        let eq_before = p >= 2
            && toks[p - 1].is_punct('=')
            && (toks[p - 2].is_punct('=') || toks[p - 2].is_punct('!'));
        if eq_after || eq_before {
            return true; // compared against a constant
        }
    }
    false
}

/// True if the argument list `open..close` hands a writer/reader variable
/// to an uninterpreted helper (a hidden tail read/write). Arguments that
/// belong to a *recognized* nested-codec call are skipped — those are
/// already counted as `nested`.
fn has_bare_io_var(toks: &[Token], open: usize, close: usize, io_vars: &[String]) -> bool {
    let mut p = open + 1;
    while p < close {
        if let Some(id) = toks[p].ident() {
            if NESTED.contains(&id)
                && matches!(toks.get(p + 1).map(|t| &t.tok), Some(Tok::Open('(')))
                && p > 0
                && (toks[p - 1].is_punct('.') || toks[p - 1].tok == Tok::Colon2)
            {
                p = matching_close(toks, p + 1) + 1;
                continue;
            }
            if io_vars.iter().any(|v| v == id) && !toks.get(p + 1).is_some_and(|t| t.is_punct('.'))
            {
                return true;
            }
        }
        p += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_items};

    fn w1(src: &str) -> Vec<Finding> {
        check_w1("x.rs", &strip_test_items(&lex(src)))
    }

    #[test]
    fn symmetric_linear_codec_is_clean() {
        let src = r#"
            impl Msg {
                pub fn encode(&self) -> Bytes {
                    let mut w = Writer::new();
                    w.u8(self.kind).varint(self.id).string(&self.name);
                    w.finish()
                }
                pub fn decode(buf: &[u8]) -> Result<Msg, E> {
                    let mut r = Reader::new(buf);
                    let kind = r.u8()?;
                    let id = r.varint()?;
                    let name = r.string()?.to_string();
                    Ok(Msg { kind, id, name })
                }
            }
        "#;
        assert!(w1(src).is_empty());
    }

    #[test]
    fn missing_decode_read_fires() {
        let src = r#"
            impl Msg {
                pub fn encode(&self) -> Bytes {
                    let mut w = Writer::new();
                    w.varint(self.id).varint(self.extra);
                    w.finish()
                }
                pub fn decode(buf: &[u8]) -> Result<Msg, E> {
                    let mut r = Reader::new(buf);
                    let id = r.varint()?;
                    Ok(Msg { id, extra: 0 })
                }
            }
        "#;
        let fs = w1(src);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].key.contains("varint+varint/varint"), "{}", fs[0].key);
    }

    #[test]
    fn variant_tags_and_match_arms_pair_up() {
        let src = r#"
            impl Pk {
                fn encode(&self) -> Bytes {
                    let mut w = Writer::new();
                    w.u8(VERSION);
                    match self {
                        Pk::A(p) => { w.u8(T_A).varint(p.x).raw(&p.body); }
                        Pk::B { y } => { w.u8(T_B).u16(*y); }
                    }
                    w.finish()
                }
                fn decode(buf: &[u8]) -> Result<Pk, E> {
                    let mut r = Reader::new(buf);
                    let v = r.u8()?;
                    if v != VERSION { return Err(E::Version); }
                    match r.u8()? {
                        T_A => {
                            let x = r.varint()?;
                            let body = rest_of(buf, &mut r);
                            Ok(Pk::A(Inner { x, body }))
                        }
                        T_B => Ok(Pk::B { y: r.u16()? }),
                        _ => Err(E::Tag),
                    }
                }
            }
            fn rest_of(buf: &[u8], r: &mut Reader) -> Bytes { b(r.rest()) }
        "#;
        assert!(w1(src).is_empty());
    }

    #[test]
    fn missing_field_in_one_arm_fires() {
        let src = r#"
            impl Pk {
                fn encode(&self) -> Bytes {
                    let mut w = Writer::new();
                    match self {
                        Pk::A { x, y } => { w.u8(T_A).varint(*x).varint(*y); }
                    }
                    w.finish()
                }
                fn decode(buf: &[u8]) -> Result<Pk, E> {
                    let mut r = Reader::new(buf);
                    match r.u8()? {
                        T_A => Ok(Pk::A { x: r.varint()?, y: 0 }),
                        _ => Err(E::Tag),
                    }
                }
            }
        "#;
        let fs = w1(src);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].key.contains("|A|"), "{}", fs[0].key);
    }

    #[test]
    fn loops_and_nested_codecs_pair_up() {
        let src = r#"
            impl Batch {
                fn encode_into(&self, w: &mut Writer) {
                    w.varint(self.items.len() as u64);
                    for it in &self.items {
                        it.encode_into(w);
                    }
                }
                fn decode_from(r: &mut Reader) -> Result<Batch, E> {
                    let n = r.varint()? as usize;
                    let mut items = Vec::new();
                    for _ in 0..n {
                        items.push(Item::decode_from(r)?);
                    }
                    Ok(Batch { items })
                }
            }
        "#;
        assert!(w1(src).is_empty());
    }

    #[test]
    fn loop_read_does_not_pair_with_straightline_write() {
        let src = r#"
            impl Batch {
                fn encode_into(&self, w: &mut Writer) {
                    w.varint(self.a).varint(self.b);
                }
                fn decode_from(r: &mut Reader) -> Result<Batch, E> {
                    let mut v = Vec::new();
                    for _ in 0..2 {
                        v.push(r.varint()?);
                    }
                    Ok(Batch { v })
                }
            }
        "#;
        assert_eq!(w1(src).len(), 1);
    }

    #[test]
    fn unpaired_fns_are_skipped() {
        let src = r#"
            impl OnlyEnc {
                fn encode(&self) -> Bytes {
                    let mut w = Writer::new();
                    w.varint(self.id);
                    w.finish()
                }
            }
        "#;
        assert!(w1(src).is_empty());
    }

    #[test]
    fn unpaired_decode_fires() {
        let src = r#"
            impl OnlyDec {
                fn decode(buf: &[u8]) -> Result<OnlyDec, E> {
                    let mut r = Reader::new(buf);
                    Ok(OnlyDec { id: r.varint()? })
                }
            }
        "#;
        let fs = w1(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].key.contains("unpaired-read"), "{}", fs[0].key);
    }

    #[test]
    fn borrowed_ref_decoder_answers_to_the_owned_encoder() {
        let codec = |ref_reads: &str| {
            format!(
                r#"
            impl Obj {{
                pub fn encode(&self) -> Bytes {{
                    let mut w = Writer::new();
                    w.string(&self.name).varint(self.version);
                    w.finish()
                }}
                pub fn decode(buf: &[u8]) -> Result<Obj, E> {{
                    let mut r = Reader::new(buf);
                    Ok(Obj {{ name: r.string()?.to_string(), version: r.varint()? }})
                }}
            }}
            impl<'a> ObjRef<'a> {{
                pub fn decode(buf: &'a [u8]) -> Result<Self, E> {{
                    let mut r = Reader::new(buf);
                    {ref_reads}
                }}
            }}
        "#
            )
        };
        let ok = w1(&codec("Ok(ObjRef { name: r.string()?, version: r.varint()? })"));
        assert!(ok.is_empty(), "{ok:?}");
        // The view drops a field the owned type writes: W1 must fire,
        // on the view's pairing and nowhere else.
        let fs = w1(&codec("Ok(ObjRef { name: r.string()?, version: 0 })"));
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].key.contains("Obj::encode/decode") && fs[0].msg.contains("varint"));
        // A `*Ref` with no owned encoder behind it is still one-sided.
        let lone = w1(r#"
            impl<'a> LoneRef<'a> {
                pub fn decode(buf: &'a [u8]) -> Result<Self, E> {
                    let mut r = Reader::new(buf);
                    Ok(LoneRef { id: r.varint()? })
                }
            }
        "#);
        assert_eq!(lone.len(), 1, "{lone:?}");
        assert!(lone[0].key.contains("LoneRef::decode|unpaired-read"), "{}", lone[0].key);
    }

    #[test]
    fn view_peek_is_a_sanctioned_unpaired_reader() {
        let src = r#"
            impl FrameView {
                pub fn peek(frame: &[u8]) -> Option<FrameView> {
                    let mut r = Reader::new(frame);
                    let kind = r.u8().ok()?;
                    let dest = r.varint().ok()?;
                    Some(FrameView { kind, dest })
                }
            }
        "#;
        assert!(w1(src).is_empty(), "{:?}", w1(src));
    }

    #[test]
    fn peek_on_non_view_type_fires() {
        let src = r#"
            impl Frame {
                pub fn peek(frame: &[u8]) -> Option<u8> {
                    let mut r = Reader::new(frame);
                    r.u8().ok()
                }
            }
        "#;
        let fs = w1(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].key.contains("peek-on-non-view"), "{}", fs[0].key);
    }

    #[test]
    fn writing_peek_fires() {
        let src = r#"
            impl FrameView {
                pub fn peek(frame: &[u8]) -> Bytes {
                    let mut r = Reader::new(frame);
                    let mut w = Writer::new();
                    w.u8(r.u8().unwrap_or(0));
                    w.finish()
                }
            }
        "#;
        let fs = w1(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].key.contains("peek-writes"), "{}", fs[0].key);
    }
}
