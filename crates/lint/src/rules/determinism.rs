//! D2 — hash-order iteration that can leak into output.
//!
//! Every performance and protocol claim in this repo rests on runs being
//! byte-identical given a seed; this rule defends that statically. (Its
//! sibling D1 — no wall clocks, OS threads or OS randomness — is
//! enforced by clippy's `disallowed-types` / `disallowed-methods` from
//! the root `clippy.toml`.)

use crate::lexer::{Tok, Token};
use crate::Finding;

/// Methods that enumerate a hash container in hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers that mark an iteration as order-insensitive or explicitly
/// re-ordered within its statement window (`sort*`, commutative folds,
/// ordered collections as the sink).
fn is_suppressor(id: &str) -> bool {
    id.starts_with("sort")
        || matches!(
            id,
            "BTreeMap"
                | "BTreeSet"
                | "BinaryHeap"
                | "count"
                | "sum"
                | "min"
                | "max"
                | "min_by_key"
                | "max_by_key"
                | "all"
                | "any"
                | "fold"
        )
}

/// D2: flag iteration over bindings declared as `HashMap`/`HashSet`
/// unless the surrounding statement window shows the order being fixed
/// (sorted) or erased (commutative aggregation, ordered sink). Bindings
/// behind `type` aliases (the routing crate's seeded `IntMap`) are out of
/// scope by design: their hasher is deterministic across runs.
pub fn check_d2(file: &str, toks: &[Token]) -> Vec<Finding> {
    let bindings = hash_bindings(toks);
    if bindings.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<Finding> = Vec::new();
    let mut hit = |name: &str, idx: usize, line: u32| {
        if suppressed(toks, idx) {
            return;
        }
        let key = format!("D2|{file}|{name}");
        if out.iter().any(|f| f.key == key) {
            return;
        }
        out.push(Finding {
            rule: "D2",
            file: file.to_string(),
            line,
            key,
            msg: format!(
                "iteration over hash-ordered `{name}`; sort before iterating, switch \
                 to BTreeMap/BTreeSet"
            ),
        });
    };
    for (i, t) in toks.iter().enumerate() {
        // `binding.iter()` style (also matches `self.binding.keys()`).
        if let Some(name) = t.ident() {
            if bindings.iter().any(|b| b == name)
                && i + 2 < toks.len()
                && toks[i + 1].is_punct('.')
                && toks[i + 2].ident().is_some_and(|m| ITER_METHODS.contains(&m))
                && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Open('(')))
            {
                hit(name, i, t.line);
            }
        }
        // `for pat in <expr mentioning binding> {` style.
        if t.is_ident("for") {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut in_kw = None;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Open('{') if depth == 0 => break,
                    Tok::Open(_) => depth += 1,
                    Tok::Close(_) => depth -= 1,
                    Tok::Ident(ref s) if s == "in" && depth == 0 && in_kw.is_none() => {
                        in_kw = Some(j)
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(k) = in_kw {
                for e in k + 1..j {
                    if let Some(name) = toks[e].ident() {
                        if bindings.iter().any(|b| b == name) {
                            hit(name, i, toks[i].line);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Names declared (or initialized) as `HashMap`/`HashSet` anywhere in the
/// file: `name: HashMap<..>` fields/params and `name = HashMap::new()`
/// style initializations. `type` aliases are skipped.
fn hash_bindings(toks: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over path segments and type sigils to the `:` of a
        // declaration or the `=` of an initialization.
        let mut j = k;
        while j > 0 {
            j -= 1;
            match &toks[j].tok {
                Tok::Ident(_) | Tok::Colon2 | Tok::Punct('&') | Tok::Punct('<') => continue,
                _ => break,
            }
        }
        let name = match toks[j].tok {
            Tok::Punct(':') | Tok::Punct('=') => {
                match toks.get(j.wrapping_sub(1)).map(|t| &t.tok) {
                    Some(Tok::Ident(n)) => {
                        // `type Alias = HashMap<..>` is not a binding.
                        if j >= 2 && toks[j - 2].is_ident("type") {
                            None
                        } else {
                            Some(n.clone())
                        }
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(n) = name {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    names
}

/// True if the statement window starting at the hit (through the next two
/// `;`, or a bounded lookahead) mentions a suppressor.
fn suppressed(toks: &[Token], idx: usize) -> bool {
    let mut semis = 0;
    for t in toks.iter().skip(idx).take(200) {
        if let Some(id) = t.ident() {
            if is_suppressor(id) {
                return true;
            }
        }
        if t.is_punct(';') {
            semis += 1;
            if semis == 2 {
                break;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn d2_flags_unsorted_iteration() {
        let src =
            "struct S { m: HashMap<u32, u8> }\nfn f(s: &S) { for (k, v) in &s.m { emit(k, v); } }";
        let fs = check_d2("x.rs", &lex(src));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].key, "D2|x.rs|m");
    }

    #[test]
    fn d2_method_iteration_flagged() {
        let src = "fn f() { let m = HashMap::new(); out.extend(m.keys()); }";
        assert_eq!(check_d2("x.rs", &lex(src)).len(), 1);
    }

    #[test]
    fn d2_sorted_window_suppresses() {
        let src = "fn f(m: &HashMap<u32, u8>) { let mut v: Vec<_> = m.iter().collect(); v.sort_unstable(); }";
        assert!(check_d2("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn d2_commutative_sink_suppresses() {
        let src = "fn f(m: &HashMap<u32, u8>) -> u64 { m.values().map(|v| *v as u64).sum() }";
        assert!(check_d2("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn d2_type_alias_and_btreemap_exempt() {
        let src = "type IntMap<K, V> = std::collections::HashMap<K, V, H>;\n\
                   fn f(m: &BTreeMap<u32, u8>) { for x in m.iter() { emit(x); } }";
        assert!(check_d2("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn d2_retain_is_not_iteration() {
        let src = "fn f(m: &mut HashMap<u32, u8>) { m.retain(|_, v| *v > 0); }";
        assert!(check_d2("x.rs", &lex(src)).is_empty());
    }
}
