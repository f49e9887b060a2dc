//! The dsa-lint rule engine.
//!
//! Each rule walks the token stream produced by [`crate::lexer`] and emits
//! [`Violation`]s. Rules are scoped by workspace-relative path (e.g. the
//! float-cast rule only applies to the `timeline-math` scope), and
//! violations inside `#[cfg(test)]` / `#[test]` regions are masked, since
//! every rule governs production code only.
//!
//! See `crates/lint/RULES.md` for the rationale behind each rule.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// Canonical rule names, in severity-agnostic display order.
pub const RULES: &[&str] = &[
    "float-cast",       // R3
    "hot-alloc",        // R5
    "unit-consistency", // R7
    "shard-isolation",  // R8
    "pragma",           // pragma hygiene
];

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Canonical rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Maps a pragma's rule argument (canonical name or `rN` shorthand) to the
/// canonical name, or `None` if unknown.
fn canonical_rule(name: &str) -> Option<&'static str> {
    match name {
        "r3" | "float-cast" => Some("float-cast"),
        "r5" | "hot-alloc" => Some("hot-alloc"),
        "r7" | "unit-consistency" => Some("unit-consistency"),
        "r8" | "shard-isolation" => Some("shard-isolation"),
        "pragma" => Some("pragma"),
        _ => None,
    }
}

/// True if a pragma in `pragmas` suppresses `rule` at `line` (a pragma
/// covers its own line and the line directly below).
fn suppressed(pragmas: &[crate::lexer::Pragma], rule: &'static str, line: u32) -> bool {
    pragmas
        .iter()
        .any(|p| canonical_rule(&p.rule) == Some(rule) && (p.line == line || p.line + 1 == line))
}

/// True for files doing integer-picosecond timeline arithmetic, where R3
/// (float-cast) and R7 (unit-consistency) apply. It includes
/// `crates/mem/src`, whose link math converts bytes to picoseconds. `sim/src/time.rs` is carved out — it is the sanctioned
/// home for conversions. See `[timeline-math]` in `crates/lint/scopes.toml`.
fn in_timeline_math(path: &str) -> bool {
    crate::scopes::Scopes::builtin().in_scope("timeline-math", path)
}

/// True for the designated hot-path modules, where steady-state heap
/// allocation is banned (R5). These are the files the zero-allocation
/// audits (`crates/{core,svc}/tests/zero_alloc.rs`) measure. The list is
/// explicit (not directory-based) because sibling modules in the same
/// crates allocate by design; it lives in `crates/lint/scopes.toml`
/// (`[hot-alloc]`).
fn in_hot_path(path: &str) -> bool {
    crate::scopes::Scopes::builtin().in_scope("hot-alloc", path)
}

/// True for the modules the fleet runs one-per-shard-thread,
/// where R8 bans shared-mutable-state constructs. See `[shard-isolation]`
/// in `crates/lint/scopes.toml`.
fn in_shard_scope(path: &str) -> bool {
    crate::scopes::Scopes::builtin().in_scope("shard-isolation", path)
}

/// Lints one file given its workspace-relative path and source text.
pub fn check_file(path: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    let test_lines = test_line_set(tokens);
    let mut raw: Vec<Violation> = Vec::new();

    if in_timeline_math(path) {
        rule_float_cast(path, tokens, &test_lines, &mut raw);
        rule_unit_consistency(path, tokens, &test_lines, &mut raw);
    }
    if in_hot_path(path) {
        rule_hot_alloc(path, tokens, &test_lines, &mut raw);
    }
    if in_shard_scope(path) {
        rule_shard_isolation(path, tokens, &test_lines, &mut raw);
    }

    // Pragma hygiene: every allow() needs a known rule and a reason.
    for p in &lexed.pragmas {
        match canonical_rule(&p.rule) {
            None => raw.push(Violation {
                file: path.to_string(),
                line: p.line,
                rule: "pragma",
                message: format!(
                    "pragma references unknown rule `{}` (known: {})",
                    p.rule,
                    RULES.join(", ")
                ),
            }),
            Some(_) if p.reason.is_empty() => raw.push(Violation {
                file: path.to_string(),
                line: p.line,
                rule: "pragma",
                message: "pragma has no reason; write `// dsa-lint: allow(rule, reason)`"
                    .to_string(),
            }),
            Some(_) => {}
        }
    }

    // Apply suppressions: a pragma on the violation's line or the line above
    // silences that rule there. Pragma-hygiene findings are never silenced.
    raw.retain(|v| v.rule == "pragma" || !suppressed(&lexed.pragmas, v.rule, v.line));
    raw
}

/// Computes the set of source lines covered by `#[cfg(test)]` / `#[test]`
/// items, by brace-matching the item that follows the attribute.
fn test_line_set(tokens: &[Token]) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        // Scan the attribute body for `test` (but back off for `not(test)`).
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut has_test = false;
        let mut has_not = false;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct("[") {
                depth += 1;
            } else if tokens[j].is_punct("]") {
                depth -= 1;
            } else if tokens[j].is_ident("test") {
                has_test = true;
            } else if tokens[j].is_ident("not") {
                has_not = true;
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Find the item body: first `{` (brace-match it) or `;` (one item).
        let start_line = tokens[i].line;
        let mut k = j;
        while k < tokens.len() && !tokens[k].is_punct("{") && !tokens[k].is_punct(";") {
            k += 1;
        }
        if k < tokens.len() && tokens[k].is_punct("{") {
            let mut bd = 1usize;
            let mut m = k + 1;
            while m < tokens.len() && bd > 0 {
                if tokens[m].is_punct("{") {
                    bd += 1;
                } else if tokens[m].is_punct("}") {
                    bd -= 1;
                }
                m += 1;
            }
            let end_line = tokens[m.saturating_sub(1)].line;
            for l in start_line..=end_line {
                set.insert(l);
            }
            i = j;
        } else if k < tokens.len() {
            for l in start_line..=tokens[k].line {
                set.insert(l);
            }
            i = k + 1;
        } else {
            i = j;
        }
    }
    set
}

fn flag(
    out: &mut Vec<Violation>,
    path: &str,
    line: u32,
    rule: &'static str,
    message: impl Into<String>,
) {
    out.push(Violation { file: path.to_string(), line, rule, message: message.into() });
}

const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// R3: float↔int `as` casts in timeline arithmetic. Heuristic: a statement
/// that casts to an integer type *and* shows float involvement (an `as
/// f32/f64` cast, a float-typed ident, or a float literal) is doing lossy
/// time math by hand — it must go through the `sim::time` helpers.
fn rule_float_cast(
    path: &str,
    tokens: &[Token],
    test_lines: &BTreeSet<u32>,
    out: &mut Vec<Violation>,
) {
    let mut start = 0usize;
    for i in 0..=tokens.len() {
        let boundary = i == tokens.len()
            || tokens[i].is_punct(";")
            || tokens[i].is_punct("{")
            || tokens[i].is_punct("}");
        if !boundary {
            continue;
        }
        let stmt = &tokens[start..i];
        start = i + 1;

        // Float evidence must *precede* the int cast within the statement:
        // the pattern under fire is `(<float expr>) as u64`. An integer
        // cast followed by unrelated float math later in the same
        // statement (e.g. two arguments of one call) is fine.
        let mut int_cast_line: Option<u32> = None;
        let mut float_seen = false;
        for (k, t) in stmt.iter().enumerate() {
            if t.is_ident("as") {
                if let Some(ty) = stmt.get(k + 1) {
                    if INT_TYPES.contains(&ty.text.as_str()) {
                        if float_seen {
                            int_cast_line.get_or_insert(ty.line);
                        }
                    } else if ty.text == "f32" || ty.text == "f64" {
                        float_seen = true;
                    }
                }
            } else if (t.kind == TokenKind::Ident
                && (t.text.contains("f64") || t.text.contains("f32")))
                || (t.kind == TokenKind::Number && t.text.contains('.'))
            {
                float_seen = true;
            }
        }
        if let Some(line) = int_cast_line {
            if !test_lines.contains(&line) {
                flag(
                    out,
                    path,
                    line,
                    "float-cast",
                    "float↔int `as` cast in timeline arithmetic; use \
                     sim::time helpers (SimDuration::from_ns_f64 / scale_bytes)",
                );
            }
        }
    }
}

/// R5: no heap allocation in the designated hot-path modules (see
/// [`in_hot_path`]). The service's action queue and the per-descriptor
/// kernels must run out of storage acquired up front — the queue's half of
/// that is what the counting-allocator test pins at runtime, and this rule
/// keeps allocating constructs from creeping in between audit runs.
/// Flagged: `Box::new`, `Vec::new`, `vec![..]`, `.to_vec()`, `.clone()`.
/// Sanctioned alternatives: `Vec::with_capacity` at construction,
/// `clear()` + reuse, `Copy` types on the wire. One-time construction
/// sites carry a pragma naming the invariant ("built once per queue"),
/// which doubles as documentation of where allocation *is* legal.
fn rule_hot_alloc(
    path: &str,
    tokens: &[Token],
    test_lines: &BTreeSet<u32>,
    out: &mut Vec<Violation>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || test_lines.contains(&t.line) {
            continue;
        }
        let prev_is = |offset: usize, s: &str| i >= offset && tokens[i - offset].text == s;
        let next_is = |offset: usize, s: &str| tokens.get(i + offset).is_some_and(|t| t.text == s);
        match t.text.as_str() {
            "new" if prev_is(1, "::") && (prev_is(2, "Box") || prev_is(2, "Vec")) => flag(
                out,
                path,
                t.line,
                "hot-alloc",
                format!(
                    "{}::new allocates on the hot path; pre-size with with_capacity \
                     and reuse (or document one-time construction with a pragma)",
                    tokens[i - 2].text
                ),
            ),
            "vec" if next_is(1, "!") => flag(
                out,
                path,
                t.line,
                "hot-alloc",
                "vec![..] allocates on the hot path; pre-size and reuse \
                 (or document one-time construction with a pragma)",
            ),
            "to_vec" | "clone" if prev_is(1, ".") && next_is(1, "(") => flag(
                out,
                path,
                t.line,
                "hot-alloc",
                format!(
                    ".{}() copies into a fresh heap allocation; hot-path data \
                     must be Copy or borrowed (or document with a pragma)",
                    t.text
                ),
            ),
            _ => {}
        }
    }
}

/// True if the (lowercased) identifier names a picosecond-typed value:
/// the workspace convention is a `_ps` suffix (`interval_ps`, `GAP_PS`)
/// or the `as_ps()` accessor.
fn is_ps_ident(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    l.ends_with("_ps") || l == "as_ps"
}

/// True if the identifier names a byte-count value: `len()`, a `_len`
/// suffix, or anything spelled with `bytes`.
fn is_bytes_ident(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    l.contains("bytes") || l == "len" || l.ends_with("_len") || l == "nbytes"
}

/// Punct tokens a term walk stops at (additive/comparison/statement
/// boundaries). Multiplicative operators continue the walk: in
/// `bytes * PS_PER_BYTE` the factors form *one* term, so a named
/// conversion constant neutralizes the byte operand.
fn is_term_boundary(text: &str) -> bool {
    matches!(text, "+" | "-" | ";" | "," | "{" | "}" | "=" | "<" | ">" | "&" | "|" | "?" | "..")
}

/// Collects identifier texts of the term starting at `k` (walking right).
fn term_idents_fwd(tokens: &[Token], mut k: usize, out: &mut Vec<String>) {
    let mut depth = 0usize;
    for _ in 0..16 {
        let Some(t) = tokens.get(k) else { return };
        match t.kind {
            TokenKind::Ident => out.push(t.text.clone()),
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" if depth == 0 => return,
                ")" | "]" => depth -= 1,
                "." | "::" | "*" | "/" => {}
                other if depth == 0 && is_term_boundary(other) => return,
                _ => {}
            },
            _ => {}
        }
        k += 1;
    }
}

/// Collects identifier texts of the term ending at `k` (walking left).
fn term_idents_back(tokens: &[Token], mut k: usize, out: &mut Vec<String>) {
    let mut depth = 0usize;
    for _ in 0..16 {
        let t = &tokens[k];
        match t.kind {
            TokenKind::Ident => out.push(t.text.clone()),
            TokenKind::Punct => match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" if depth == 0 => return,
                "(" | "[" => depth -= 1,
                "." | "::" | "*" | "/" => {}
                other if depth == 0 && is_term_boundary(other) => return,
                _ => {}
            },
            _ => {}
        }
        if k == 0 {
            return;
        }
        k -= 1;
    }
}

/// True if the statement containing token `i` is a `const`/`static` item —
/// the sanctioned home for raw ps literals (naming the constant *is* the
/// fix R7 asks for).
fn stmt_is_const_item(tokens: &[Token], i: usize) -> bool {
    let mut start = i;
    while start > 0 {
        let t = &tokens[start - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        start -= 1;
    }
    tokens[start..(start + 3).min(tokens.len())]
        .iter()
        .any(|t| t.is_ident("const") || t.is_ident("static"))
}

/// R7: unit consistency in timeline math. Two heuristics over the `u64`
/// ps/bytes convention:
///
/// 1. An additive expression with a picosecond term on one side and a
///    byte-count term on the other (`deadline_ps + frame.len()`). Terms
///    extend across `*`//`, so a conversion factor (`bytes *
///    PS_PER_BYTE`) makes the term ps-typed and is not flagged.
/// 2. A bare integer literal crossing a ps API boundary — `from_ps(5_000)`
///    or `timeout_ps = 2_500_000` — outside a `const`/`static` item. The
///    magic number's unit lives only in the author's head; naming it
///    (`const LINK_GAP_PS`) or deriving it (`SimDuration::from_ns`) keeps
///    the unit in the source.
fn rule_unit_consistency(
    path: &str,
    tokens: &[Token],
    test_lines: &BTreeSet<u32>,
    out: &mut Vec<Violation>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if test_lines.contains(&t.line) {
            continue;
        }
        // (1) ps ± bytes mixes.
        if t.kind == TokenKind::Punct && (t.text == "+" || t.text == "-") && i > 0 {
            let prev = &tokens[i - 1];
            let binary = matches!(prev.kind, TokenKind::Ident | TokenKind::Number)
                || prev.is_punct(")")
                || prev.is_punct("]");
            if !binary {
                continue;
            }
            let rhs =
                if tokens.get(i + 1).is_some_and(|e| e.is_punct("=")) { i + 2 } else { i + 1 };
            let mut left = Vec::new();
            let mut right = Vec::new();
            term_idents_back(tokens, i - 1, &mut left);
            term_idents_fwd(tokens, rhs, &mut right);
            let class = |ids: &[String]| {
                (ids.iter().any(|n| is_ps_ident(n)), ids.iter().any(|n| is_bytes_ident(n)))
            };
            let (lp, lb) = class(&left);
            let (rp, rb) = class(&right);
            if (lp && !lb && rb && !rp) || (rp && !rb && lb && !lp) {
                flag(
                    out,
                    path,
                    t.line,
                    "unit-consistency",
                    "arithmetic mixes picosecond and byte-count terms; convert \
                     explicitly (scale_bytes / SimDuration arithmetic) before combining",
                );
            }
        }
        // (2) raw literals crossing a ps boundary.
        if t.kind == TokenKind::Ident && is_ps_ident(&t.text) && !stmt_is_const_item(tokens, i) {
            let lit = match (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3)) {
                (Some(open), Some(n), Some(close))
                    if open.is_punct("(") && n.kind == TokenKind::Number && close.is_punct(")") =>
                {
                    Some(n)
                }
                (Some(eq), Some(n), _)
                    if (eq.is_punct("=") || eq.is_punct(":")) && n.kind == TokenKind::Number =>
                {
                    Some(n)
                }
                _ => None,
            };
            if let Some(n) = lit {
                let digits: String = n.text.chars().filter(|c| c.is_ascii_digit()).collect();
                let trivial = digits.chars().all(|c| c == '0')
                    || digits.trim_start_matches('0').parse::<u64>() == Ok(1);
                if !trivial {
                    flag(
                        out,
                        path,
                        n.line,
                        "unit-consistency",
                        format!(
                            "raw literal `{}` crosses a picosecond boundary; name it \
                             (`const .._PS`) or derive it (SimDuration::from_ns/from_us)",
                            n.text
                        ),
                    );
                }
            }
        }
    }
}

/// R8 (lexical half): shared-mutable-state constructs banned in the
/// shard modules. Each shard thread owns its service slice (action queue
/// included) outright; `Rc`/`RefCell` make the
/// types `!Send`, interior mutability hides writes from the
/// one-owner-per-shard story, and `static mut` / `thread_local!` /
/// atomics are process-global by construction.
fn rule_shard_isolation(
    path: &str,
    tokens: &[Token],
    test_lines: &BTreeSet<u32>,
    out: &mut Vec<Violation>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || test_lines.contains(&t.line) {
            continue;
        }
        let next_is = |offset: usize, s: &str| tokens.get(i + offset).is_some_and(|t| t.text == s);
        match t.text.as_str() {
            "Rc" | "RefCell" | "Cell" | "UnsafeCell" | "OnceCell" | "OnceLock" | "Mutex"
            | "RwLock" => flag(
                out,
                path,
                t.line,
                "shard-isolation",
                format!(
                    "`{}` breaks Send-per-shard partitioning; shard modules own their \
                     state outright (or document the invariant with a pragma)",
                    t.text
                ),
            ),
            "static" if next_is(1, "mut") => flag(
                out,
                path,
                t.line,
                "shard-isolation",
                "`static mut` is process-global state; shard modules must not share \
                 mutable state",
            ),
            "thread_local" if next_is(1, "!") => flag(
                out,
                path,
                t.line,
                "shard-isolation",
                "`thread_local!` pins state to OS threads; shard state must live in \
                 the shard's own struct",
            ),
            name if name.starts_with("Atomic") && name.len() > "Atomic".len() => flag(
                out,
                path,
                t.line,
                "shard-isolation",
                format!(
                    "`{name}` implies cross-thread shared state; shards communicate \
                     only through the merge step"
                ),
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, src)
    }

    #[test]
    fn r3_flags_round_trip_casts() {
        let src = "fn f(b: u64) -> u64 { (b as f64 * 1.5) as u64 }\n";
        let v = lint("crates/device/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "float-cast").count(), 1);
    }

    #[test]
    fn r3_allows_pure_integer_casts_and_time_rs() {
        let int_only = "fn f(b: u32) -> u64 { b as u64 * 3 }\n";
        assert!(lint("crates/device/src/x.rs", int_only).is_empty());
        let float = "fn f(b: u64) -> u64 { (b as f64 * 1.5) as u64 }\n";
        assert!(lint("crates/sim/src/time.rs", float).is_empty());
        assert!(lint("crates/workloads/src/x.rs", float).is_empty());
    }

    #[test]
    fn r3_ignores_int_cast_before_unrelated_float() {
        // An integer cast as one argument and float math as a later
        // argument of the same call is not a float->int round trip.
        let src = "fn f(w: u16, n: u64) { push(w as u16, n as f64); }\n";
        assert!(lint("crates/device/src/x.rs", src).is_empty());
    }

    #[test]
    fn r5_flags_alloc_in_hot_modules_only() {
        let src = "fn f(xs: &[u64]) -> u64 { let v = xs.to_vec(); let b = Box::new(v.clone()); \
                   let mut w = Vec::new(); w.push(b.len() as u64); vec![0u64].len() as u64 }\n";
        let v = lint("crates/svc/src/actionq.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "hot-alloc").count(), 5, "{v:?}");
        // The same code one module over (not a designated hot path) is legal.
        assert!(lint("crates/core/src/dispatch.rs", src).is_empty());
        assert!(lint("crates/ops/src/delta.rs", src).is_empty());
    }

    #[test]
    fn r5_exempts_tests_and_allows_with_capacity() {
        let src = "fn f(n: usize) -> Vec<u64> { Vec::with_capacity(n) }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() -> Vec<u64> { vec![1, 2].to_vec() }\n}\n";
        assert!(lint("crates/svc/src/actionq.rs", src).is_empty());
    }

    #[test]
    fn r5_pragma_documents_one_time_construction() {
        let src = "fn f() -> Vec<u64> { Vec::new() } \
                   // dsa-lint: allow(hot-alloc, stamp table built once per queue)\n";
        assert!(lint("crates/svc/src/actionq.rs", src).is_empty());
    }

    #[test]
    fn pragmas_suppress_with_reason_and_flag_without() {
        let with = "// dsa-lint: allow(float-cast, a rank, not a time)\n\
                    fn f(n: u64) -> u64 { (n as f64 * 0.99) as u64 }\n";
        assert!(lint("crates/core/src/x.rs", with).is_empty());
        let without = "// dsa-lint: allow(float-cast)\n\
                       fn f(n: u64) -> u64 { (n as f64 * 0.99) as u64 }\n";
        let v = lint("crates/core/src/x.rs", without);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "pragma");
    }

    #[test]
    fn unknown_pragma_rule_is_flagged() {
        // Rules that clippy and rustc now enforce are unknown here too.
        for rule in ["fancy-rule", "unwrap", "nondeterminism", "det-taint"] {
            let src = format!("// dsa-lint: allow({rule}, because)\nfn f() {{}}\n");
            let v = lint("crates/core/src/x.rs", &src);
            assert_eq!(v.len(), 1, "{rule}: {v:?}");
            assert_eq!(v[0].rule, "pragma");
        }
    }

    #[test]
    fn r7_flags_ps_byte_mixes() {
        let src = "fn f(now_ps: u64, frame: &[u8]) -> u64 { now_ps + frame.len() as u64 }\n";
        let v = lint("crates/sim/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "unit-consistency").count(), 1, "{v:?}");
        // The mem crate's link math is in the timeline-math scope too.
        let v = lint("crates/mem/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "unit-consistency").count(), 1, "{v:?}");
        // Outside the scope the same code is legal.
        assert!(lint("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn r7_allows_pure_ps_sums_and_conversions() {
        // Both sides ps-typed, including through method calls and factors.
        let a = "fn f(t: SimTime, earned: u64, interval_ps: u64) -> u64 {\n\
                 t.as_ps() + earned * interval_ps }\n";
        assert!(lint("crates/svc/src/x.rs", a).is_empty(), "pure ps sum");
        // A named conversion constant makes the byte factor a ps term.
        let b = "fn f(now_ps: u64, bytes: u64) -> u64 { now_ps + bytes * LINK_PS_PER_BYTE_PS }\n";
        assert!(lint("crates/sim/src/x.rs", b).is_empty(), "converted term");
        // Pure byte math never fires.
        let c = "fn f(a_bytes: u64, chunk: &[u8]) -> u64 { a_bytes + chunk.len() as u64 }\n";
        assert!(lint("crates/sim/src/x.rs", c).is_empty(), "pure bytes");
    }

    #[test]
    fn r7_flags_raw_literals_crossing_ps_boundaries() {
        let call = "fn f() -> SimTime { SimTime::from_ps(2_500_000) }\n";
        let v = lint("crates/sim/src/x.rs", call);
        assert_eq!(v.iter().filter(|v| v.rule == "unit-consistency").count(), 1, "{v:?}");
        let assign = "fn f(mut j: Job) { j.deadline_ps = 5_000_000; }\n";
        let v = lint("crates/svc/src/x.rs", assign);
        assert_eq!(v.iter().filter(|v| v.rule == "unit-consistency").count(), 1, "{v:?}");
    }

    #[test]
    fn r7_named_consts_and_trivial_literals_are_sanctioned() {
        let named = "const LINK_GAP_PS: u64 = 1_500;\nfn f() -> SimTime { \
                     SimTime::from_ps(LINK_GAP_PS) }\n";
        assert!(lint("crates/sim/src/x.rs", named).is_empty());
        let trivial = "fn f() -> SimTime { SimTime::from_ps(0).max(SimTime::from_ps(1)) }\n";
        assert!(lint("crates/sim/src/x.rs", trivial).is_empty());
        // Expressions (not bare literals) are the normal path and legal.
        let expr = "fn f(n: u64, mhz: u64) -> SimTime { SimTime::from_ps(n * 1_000_000 / mhz) }\n";
        assert!(lint("crates/sim/src/x.rs", expr).is_empty());
    }

    #[test]
    fn r8_flags_shared_state_constructs_in_shard_modules() {
        let src = "use std::rc::Rc;\nstruct S { c: RefCell<u64> }\n\
                   static mut HITS: u64 = 0;\nthread_local! { static TL: u64 = 0; }\n\
                   fn f() -> u64 { AtomicU64::new(0).into_inner() }\n";
        let v = lint("crates/svc/src/actionq.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "shard-isolation").count(), 5, "{v:?}");
        // The same constructs outside the shard scope are not R8's business.
        let v = lint("crates/telemetry/src/hub.rs", src);
        assert!(v.iter().all(|v| v.rule != "shard-isolation"), "{v:?}");
    }

    #[test]
    fn r8_exempts_tests_and_honors_pragmas() {
        let test_only = "#[cfg(test)]\nmod tests {\n  use std::rc::Rc;\n  \
                         fn g() -> Rc<u64> { Rc::new(1) }\n}\n";
        assert!(lint("crates/svc/src/shard.rs", test_only).is_empty());
        let with_pragma = "// dsa-lint: allow(shard-isolation, read-only after init)\n\
                           struct S { c: OnceLock<u64> }\n";
        assert!(lint("crates/svc/src/service.rs", with_pragma).is_empty());
    }
}
