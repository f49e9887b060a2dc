//! Symbol resolution: the per-file half of the workspace call graph.
//!
//! For each library source file this pass extracts, from the same token
//! stream the lexical rules run on:
//!
//! * every `fn` declaration — free functions, inherent/trait-impl methods,
//!   and trait default methods — with its body's token range, its module
//!   path, and whether it lives in test code;
//! * the file's `use` imports, flattened to `binding name -> full path`
//!   (nested groups and `as` aliases included), so call sites written as
//!   `scale_bytes(..)` or `time::scale_bytes(..)` can be resolved back to
//!   the declaring module;
//! * names of locals/fields declared with `HashMap`/`HashSet` types, so
//!   the R6 source detector can recognize *iteration over* those bindings
//!   (declaring a map is fine; iterating it is a nondeterminism source);
//! * `static mut` items and `thread_local!` statics — the process-global
//!   mutable state R8 forbids shard modules from reaching.
//!
//! This is deliberately an approximation, not rustc name resolution: it
//! has no type inference and treats method names workspace-wide (the call
//! graph does CHA-style resolution by method name). The approximation is
//! conservative in the direction the rules need — extra edges can only
//! cause a finding that a reasoned pragma documents away, while missing
//! edges are bounded to constructs the workspace style already avoids
//! (macro-generated functions, function pointers passed as values).

use crate::lexer::{Lexed, Token, TokenKind};
use crate::rules::test_line_set;
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` declaration.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// The function's name.
    pub name: String,
    /// The type or trait name owning it (`impl X`/`impl T for X` → `X`,
    /// trait default method → the trait's name), `None` for free functions.
    pub owner: Option<String>,
    /// Module path, e.g. `sim::engine` (inline `mod`s appended).
    pub module: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range `[start, end)` of the body (inside the braces).
    pub body: (usize, usize),
    /// True if the declaration sits under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
}

/// Everything the call-graph builder needs from one file.
#[derive(Debug, Default)]
pub struct FileSyms {
    /// Workspace-relative file path.
    pub file: String,
    /// Module path of the file root, `None` if the file is outside the
    /// graph (tests, benches, examples, bins' fixture data).
    pub module: Option<String>,
    /// `use` imports: binding name → full normalized path segments.
    pub uses: BTreeMap<String, Vec<String>>,
    /// Function declarations, in source order.
    pub fns: Vec<FnDecl>,
    /// Names of bindings/fields declared with a `HashMap`/`HashSet` type.
    pub hash_names: BTreeSet<String>,
    /// Names of `static mut` items and `thread_local!` statics.
    pub mut_statics: Vec<String>,
}

/// Maps a workspace-relative path to its module path, or `None` for files
/// that stay out of the call graph (integration tests, benches, examples,
/// fixtures — they are not part of any library's reachability story).
pub fn module_path_of(path: &str) -> Option<String> {
    if path.contains("/tests/")
        || path.starts_with("tests/")
        || path.contains("/benches/")
        || path.starts_with("benches/")
        || path.contains("/examples/")
        || path.starts_with("examples/")
        || path.contains("/fixtures/")
    {
        return None;
    }
    let (crate_name, rest) = if let Some(rest) = path.strip_prefix("crates/") {
        let (dir, rest) = rest.split_once("/src/")?;
        (dir.replace('-', "_"), rest)
    } else if let Some(rest) = path.strip_prefix("src/") {
        ("repro".to_string(), rest)
    } else {
        return None;
    };
    let rest = rest.strip_suffix(".rs")?;
    let mut segs = vec![crate_name];
    if rest != "lib" && rest != "main" {
        for seg in rest.split('/') {
            if seg != "mod" {
                segs.push(seg.to_string());
            }
        }
    }
    Some(segs.join("::"))
}

/// Normalizes a path's leading crate segment: the workspace's lib names
/// (`dsa_sim`, `dsa_core`, …, `dsa_repro`) map onto the module space
/// [`module_path_of`] builds from directory names (`sim`, `core`, `repro`).
pub fn normalize_crate_seg(seg: &str) -> String {
    match seg.strip_prefix("dsa_") {
        Some(rest) => rest.to_string(),
        None => seg.to_string(),
    }
}

/// Extracts symbols from one lexed file.
pub fn resolve_file(path: &str, lexed: &Lexed) -> FileSyms {
    let tokens = &lexed.tokens;
    let test_lines = test_line_set(tokens);
    let mut syms =
        FileSyms { file: path.to_string(), module: module_path_of(path), ..FileSyms::default() };

    // Pass 1: linear scan with local scan-aheads, recording which `{`
    // token opens what (fn body, impl/trait block, inline mod) plus the
    // file's imports and nondeterminism-relevant declarations.
    let mut fn_open: BTreeMap<usize, (String, u32)> = BTreeMap::new();
    let mut owner_open: BTreeMap<usize, String> = BTreeMap::new();
    let mut mod_open: BTreeMap<usize, String> = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    if let Some(open) = find_body_open(tokens, i + 2) {
                        fn_open.insert(open, (name.text.clone(), t.line));
                    }
                }
            }
            "impl" => {
                if let Some((open, owner)) = parse_impl_header(tokens, i) {
                    owner_open.insert(open, owner);
                }
            }
            "trait" => {
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    if let Some(open) = find_body_open(tokens, i + 2) {
                        owner_open.insert(open, name.text.clone());
                    }
                }
            }
            "mod" => {
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    if tokens.get(i + 2).is_some_and(|b| b.is_punct("{")) {
                        mod_open.insert(i + 2, name.text.clone());
                    }
                }
            }
            "use" => {
                i = parse_use(tokens, i + 1, &mut syms.uses);
                continue;
            }
            "static" if tokens.get(i + 1).is_some_and(|m| m.is_ident("mut")) => {
                if let Some(name) = tokens.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                    syms.mut_statics.push(name.text.clone());
                }
            }
            "thread_local" if tokens.get(i + 1).is_some_and(|b| b.is_punct("!")) => {
                collect_thread_local_statics(tokens, i + 2, &mut syms.mut_statics);
            }
            "HashMap" | "HashSet" => {
                if let Some(name) = declared_binding_name(tokens, i) {
                    syms.hash_names.insert(name);
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Pass 2: brace-stack walk assigning each fn its module path (base +
    // inline mods), its owner (innermost impl/trait frame), and its body's
    // closing token index.
    let base = syms.module.clone().unwrap_or_else(|| "?".to_string());
    enum Frame {
        Fn { decl_idx: usize },
        Owner,
        Mod,
        Plain,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut mods: Vec<String> = Vec::new();
    let mut owners: Vec<String> = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if t.is_punct("{") {
            if let Some((name, line)) = fn_open.get(&idx) {
                let module = if mods.is_empty() {
                    base.clone()
                } else {
                    format!("{base}::{}", mods.join("::"))
                };
                syms.fns.push(FnDecl {
                    name: name.clone(),
                    owner: owners.last().cloned(),
                    module,
                    file: path.to_string(),
                    line: *line,
                    body: (idx + 1, idx + 1), // end patched on pop
                    is_test: test_lines.contains(line),
                });
                stack.push(Frame::Fn { decl_idx: syms.fns.len() - 1 });
            } else if let Some(owner) = owner_open.get(&idx) {
                owners.push(owner.clone());
                stack.push(Frame::Owner);
            } else if let Some(m) = mod_open.get(&idx) {
                mods.push(m.clone());
                stack.push(Frame::Mod);
            } else {
                stack.push(Frame::Plain);
            }
        } else if t.is_punct("}") {
            match stack.pop() {
                Some(Frame::Fn { decl_idx }) => syms.fns[decl_idx].body.1 = idx,
                Some(Frame::Owner) => {
                    owners.pop();
                }
                Some(Frame::Mod) => {
                    mods.pop();
                }
                _ => {}
            }
        }
    }
    syms
}

/// From just past `fn name`, finds the token index of the body's `{`,
/// skipping the whole signature (generics, parameters, return type,
/// `where` clause). Returns `None` for bodyless declarations (`;`).
fn find_body_open(tokens: &[Token], mut i: usize) -> Option<usize> {
    let mut parens = 0usize;
    let mut angles = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => parens += 1,
                ")" | "]" => parens = parens.saturating_sub(1),
                "<" => angles += 1,
                ">" => angles = angles.saturating_sub(1),
                "{" if parens == 0 && angles == 0 => return Some(i),
                ";" if parens == 0 && angles == 0 => return None,
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses an `impl` header starting at the `impl` keyword. Returns the
/// body's `{` token index and the implementing type's name — the last
/// depth-0 path ident before the brace (so `impl<T> Sched for Cal<T>` and
/// `impl fmt::Display for Violation` both yield the type after `for`).
fn parse_impl_header(tokens: &[Token], impl_idx: usize) -> Option<(usize, String)> {
    let mut angles = 0usize;
    let mut parens = 0usize;
    let mut owner: Option<String> = None;
    let mut i = impl_idx + 1;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" => angles += 1,
                ">" => angles = angles.saturating_sub(1),
                "(" | "[" => parens += 1,
                ")" | "]" => parens = parens.saturating_sub(1),
                "{" if angles == 0 && parens == 0 => {
                    return owner.map(|o| (i, o));
                }
                ";" if angles == 0 && parens == 0 => return None,
                _ => {}
            },
            TokenKind::Ident if angles == 0 && parens == 0 => match t.text.as_str() {
                "where" => {
                    // Owner is settled; scan on to the brace only.
                    let open = find_body_open(tokens, i + 1)?;
                    return owner.map(|o| (open, o));
                }
                "for" | "dyn" | "mut" | "const" | "unsafe" => {}
                name => owner = Some(name.to_string()),
            },
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses a `use` tree starting just past the `use` keyword; inserts each
/// flattened binding into `uses` with its crate segment normalized.
/// Returns the index just past the terminating `;`.
fn parse_use(tokens: &[Token], start: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
    // `pub use` re-exports arrive here too (the `use` keyword is what we
    // keyed on); `pub` was consumed as a plain ident before it.
    let mut i = start;
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(tokens, &mut i, &mut prefix, uses)
}

/// Recursive worker: parses one use-tree at `*i` under `prefix`.
fn parse_use_tree(
    tokens: &[Token],
    i: &mut usize,
    prefix: &mut Vec<String>,
    uses: &mut BTreeMap<String, Vec<String>>,
) -> usize {
    let depth_at_entry = prefix.len();
    let mut glob = false;
    while *i < tokens.len() {
        let t = &tokens[*i];
        if t.kind == TokenKind::Ident {
            if t.text == "as" {
                if let Some(alias) = tokens.get(*i + 1).filter(|a| a.kind == TokenKind::Ident) {
                    uses.insert(alias.text.clone(), normalized(prefix));
                    prefix.truncate(depth_at_entry);
                    *i += 2;
                    continue;
                }
            }
            prefix.push(t.text.clone());
            *i += 1;
        } else if t.is_punct("::") {
            *i += 1;
        } else if t.is_punct("*") {
            glob = true;
            *i += 1;
        } else if t.is_punct("{") {
            *i += 1;
            loop {
                parse_use_tree(tokens, i, prefix, uses);
                match tokens.get(*i) {
                    Some(t) if t.is_punct(",") => {
                        *i += 1;
                    }
                    Some(t) if t.is_punct("}") => {
                        *i += 1;
                        break;
                    }
                    _ => break,
                }
            }
            prefix.truncate(depth_at_entry);
        } else if t.is_punct(",") || t.is_punct("}") {
            // End of this branch: bind what we accumulated (if anything).
            if prefix.len() > depth_at_entry && !glob {
                let name = prefix.last().cloned().unwrap_or_default();
                uses.insert(name, normalized(prefix));
            }
            prefix.truncate(depth_at_entry);
            return *i;
        } else if t.is_punct(";") {
            if prefix.len() > depth_at_entry && !glob {
                let name = prefix.last().cloned().unwrap_or_default();
                uses.insert(name, normalized(prefix));
            }
            prefix.truncate(depth_at_entry);
            return *i + 1;
        } else {
            *i += 1;
        }
    }
    *i
}

/// Clones a use path with its crate segment normalized.
fn normalized(segs: &[String]) -> Vec<String> {
    let mut out: Vec<String> = segs.to_vec();
    if let Some(first) = out.first_mut() {
        *first = normalize_crate_seg(first);
    }
    out
}

/// Inside `thread_local! { ... }`, collects each `static NAME`.
fn collect_thread_local_statics(tokens: &[Token], mut i: usize, out: &mut Vec<String>) {
    while i < tokens.len() && !tokens[i].is_punct("{") {
        i += 1;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return;
            }
        } else if t.is_ident("static") {
            if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                out.push(name.text.clone());
            }
        }
        i += 1;
    }
}

/// For a `HashMap`/`HashSet` type token, back-walks over its path prefix
/// (`std :: collections :: HashMap`) to the `:` or `=` that introduced it,
/// and returns the binding/field name before that — `let m: HashMap<..>`,
/// `entries: HashMap<..>` (struct field), `let m = HashMap::new()`.
fn declared_binding_name(tokens: &[Token], at: usize) -> Option<String> {
    let mut p = at;
    while p >= 2 && tokens[p - 1].is_punct("::") && tokens[p - 2].kind == TokenKind::Ident {
        p -= 2;
    }
    if p == 0 {
        return None;
    }
    let intro = &tokens[p - 1];
    if !(intro.is_punct(":") || intro.is_punct("=")) {
        return None;
    }
    let name = tokens.get(p.checked_sub(2)?)?;
    (name.kind == TokenKind::Ident && name.text != "mut").then(|| name.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn module_paths_map_crates_and_skip_tests() {
        assert_eq!(module_path_of("crates/sim/src/lib.rs").as_deref(), Some("sim"));
        assert_eq!(module_path_of("crates/sim/src/engine.rs").as_deref(), Some("sim::engine"));
        assert_eq!(module_path_of("crates/mem/src/sub/mod.rs").as_deref(), Some("mem::sub"));
        assert_eq!(module_path_of("src/lib.rs").as_deref(), Some("repro"));
        assert_eq!(module_path_of("crates/sim/tests/it.rs"), None);
        assert_eq!(module_path_of("crates/bench/benches/fleet_scale.rs"), None);
        assert_eq!(module_path_of("examples/demo.rs"), None);
    }

    #[test]
    fn fns_get_modules_owners_and_test_flags() {
        let src = "impl Engine { fn step(&mut self) { self.tick(); } }\n\
                   fn free() {}\n\
                   mod inner { fn nested() {} }\n\
                   #[cfg(test)]\nmod tests { fn helper() {} }\n";
        let syms = resolve_file("crates/sim/src/engine.rs", &lex(src));
        let by_name: BTreeMap<&str, &FnDecl> =
            syms.fns.iter().map(|f| (f.name.as_str(), f)).collect();
        assert_eq!(by_name["step"].owner.as_deref(), Some("Engine"));
        assert_eq!(by_name["step"].module, "sim::engine");
        assert_eq!(by_name["free"].owner, None);
        assert_eq!(by_name["nested"].module, "sim::engine::inner");
        assert!(by_name["helper"].is_test);
        assert!(!by_name["step"].is_test);
    }

    #[test]
    fn impl_trait_for_type_owns_by_type() {
        let src = "impl<T: Ord> Scheduler for Calendar<T> { fn pop(&mut self) {} }\n\
                   impl fmt::Display for Violation { fn fmt(&self) {} }\n\
                   trait Backend { fn submit(&self) { self.poll(); } }\n";
        let syms = resolve_file("crates/sim/src/sched.rs", &lex(src));
        let owners: Vec<_> = syms.fns.iter().map(|f| f.owner.as_deref().unwrap()).collect();
        assert_eq!(owners, vec!["Calendar", "Violation", "Backend"]);
    }

    #[test]
    fn impl_trait_in_signature_does_not_confuse_bodies() {
        let src = "impl Store { fn iter_jobs(&self) -> impl Iterator<Item = u64> + '_ {\n\
                   (0..4) } fn after(&self) {} }\n";
        let syms = resolve_file("crates/sim/src/store.rs", &lex(src));
        let names: Vec<_> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["iter_jobs", "after"]);
        assert_eq!(syms.fns[1].owner.as_deref(), Some("Store"));
    }

    #[test]
    fn use_trees_flatten_with_aliases_and_groups() {
        let src = "use dsa_sim::time::{scale_bytes, SimTime as T};\n\
                   use std::collections::BTreeMap;\n\
                   use dsa_mem::memsys::*;\n";
        let syms = resolve_file("crates/svc/src/service.rs", &lex(src));
        assert_eq!(
            syms.uses.get("scale_bytes").map(|p| p.join("::")).as_deref(),
            Some("sim::time::scale_bytes")
        );
        assert_eq!(syms.uses.get("T").map(|p| p.join("::")).as_deref(), Some("sim::time::SimTime"));
        assert_eq!(
            syms.uses.get("BTreeMap").map(|p| p.join("::")).as_deref(),
            Some("std::collections::BTreeMap")
        );
        assert!(!syms.uses.contains_key("*"), "globs are not bindings");
    }

    #[test]
    fn hash_bindings_and_global_state_are_collected() {
        let src = "struct C { entries: std::collections::HashMap<u64, u64> }\n\
                   fn f() { let mut seen = HashMap::new(); seen.insert(1, 2); }\n\
                   static mut COUNTER: u64 = 0;\n\
                   thread_local! { static SLOT: u64 = 0; }\n";
        let syms = resolve_file("crates/workloads/src/x.rs", &lex(src));
        assert!(syms.hash_names.contains("entries"));
        assert!(syms.hash_names.contains("seen"));
        assert_eq!(syms.mut_statics, vec!["COUNTER", "SLOT"]);
    }
}
