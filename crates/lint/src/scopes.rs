//! Rule-scope data, loaded from `crates/lint/scopes.toml`.
//!
//! Scope lists used to be hard-coded `match`es in `rules.rs`; extending a
//! rule to a new module meant patching the linter. They are now data: a
//! checked-in TOML file mapping scope names to `dirs` (path prefixes),
//! `files` (exact paths), and `exempt` (exact paths carved back out).
//! PRs widen or narrow a rule by editing the data file, and the scope
//! regression tests in `crates/lint/tests/fixtures.rs` pin the result.
//!
//! The workspace is dependency-free, so the file is read by a hand-rolled
//! parser for exactly the TOML subset the data uses: `[section]` headers,
//! `key = ["a", "b"]` string arrays (single-line or multi-line), and `#`
//! comments. Anything outside that subset is a hard parse error — better
//! to fail loudly than silently drop a scope entry.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The scope table embedded at compile time. Using `include_str!` (rather
/// than reading from disk at runtime) keeps the rule engine usable on
/// synthetic paths — fixture tests lint in-memory sources against
/// made-up workspace paths with no filesystem underneath.
const SCOPES_TOML: &str = include_str!("../scopes.toml");

/// One named scope: which workspace-relative paths a rule applies to.
#[derive(Debug, Default, Clone)]
pub struct Scope {
    /// Directory prefixes; a file is in scope if it lives under one.
    pub dirs: Vec<String>,
    /// Exact file paths pulled in individually.
    pub files: Vec<String>,
    /// Exact file paths carved back out (beats `dirs` and `files`).
    pub exempt: Vec<String>,
}

impl Scope {
    /// True if `path` (workspace-relative, `/`-separated) is in this scope.
    pub fn contains(&self, path: &str) -> bool {
        if self.exempt.iter().any(|e| e == path) {
            return false;
        }
        self.files.iter().any(|f| f == path)
            || self
                .dirs
                .iter()
                .any(|d| path.starts_with(d) && path.as_bytes().get(d.len()) == Some(&b'/'))
    }
}

/// The full scope table parsed from `scopes.toml`.
#[derive(Debug, Default)]
pub struct Scopes {
    sections: BTreeMap<String, Scope>,
}

impl Scopes {
    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Scopes, String> {
        let mut scopes = Scopes::default();
        let mut current: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().to_string();
                if scopes.sections.contains_key(&name) {
                    return Err(format!("line {}: duplicate section [{name}]", idx + 1));
                }
                scopes.sections.insert(name.clone(), Scope::default());
                current = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = [..]` or `[section]`", idx + 1));
            };
            let Some(section) = current.as_ref() else {
                return Err(format!("line {}: key before any [section]", idx + 1));
            };
            // Collect the array text, consuming continuation lines until the
            // closing bracket (arrays may span lines, as rustfmt writes them).
            let mut array = value.trim().to_string();
            while !array.ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(format!(
                        "line {}: unterminated array for `{}`",
                        idx + 1,
                        key.trim()
                    ));
                };
                array.push(' ');
                array.push_str(strip_comment(next).trim());
            }
            let items = parse_string_array(&array)
                .map_err(|e| format!("line {}: key `{}`: {e}", idx + 1, key.trim()))?;
            let scope = scopes.sections.entry(section.clone()).or_default();
            match key.trim() {
                "dirs" => scope.dirs = items,
                "files" => scope.files = items,
                "exempt" => scope.exempt = items,
                other => {
                    return Err(format!(
                        "line {}: unknown key `{other}` (expected dirs/files/exempt)",
                        idx + 1
                    ))
                }
            }
        }
        Ok(scopes)
    }

    /// The compiled-in workspace scope table. Panics at first use if
    /// `scopes.toml` fails to parse — a broken scope file must never
    /// silently lint nothing (a unit test also pins parseability).
    pub fn builtin() -> &'static Scopes {
        static BUILTIN: OnceLock<Scopes> = OnceLock::new();
        BUILTIN.get_or_init(|| match Scopes::parse(SCOPES_TOML) {
            Ok(s) => s,
            Err(e) => panic!("crates/lint/scopes.toml is invalid: {e}"),
        })
    }

    /// Looks up a scope by name.
    pub fn get(&self, name: &str) -> Option<&Scope> {
        self.sections.get(name)
    }

    /// True if `path` is inside the named scope. Unknown scope names are
    /// `false` (and the `builtin_table_has_expected_sections` test keeps
    /// the known names from drifting).
    pub fn in_scope(&self, name: &str, path: &str) -> bool {
        self.get(name).is_some_and(|s| s.contains(path))
    }
}

/// Strips a `#` comment, respecting `"` string boundaries.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b", "c"]` (trailing comma allowed) into its items.
fn parse_string_array(text: &str) -> Result<Vec<String>, String> {
    let inner = text
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [..] array, got `{text}`"))?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let item = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| format!("expected a quoted string, got `{part}`"))?;
        items.push(item.to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_table_parses_and_has_expected_sections() {
        let s = Scopes::builtin();
        for name in ["timeline-math", "hot-alloc", "shard-isolation"] {
            assert!(s.get(name).is_some(), "scopes.toml lost section [{name}]");
        }
    }

    #[test]
    fn dirs_are_prefixes_files_exact_exempt_wins() {
        let s = Scopes::parse(
            "[t]\ndirs = [\"crates/sim/src\"]\nfiles = [\"crates/x/src/y.rs\"]\n\
             exempt = [\"crates/sim/src/time.rs\"]\n",
        )
        .expect("parse");
        assert!(s.in_scope("t", "crates/sim/src/engine.rs"));
        assert!(s.in_scope("t", "crates/sim/src/deep/mod.rs"));
        assert!(s.in_scope("t", "crates/x/src/y.rs"));
        assert!(!s.in_scope("t", "crates/sim/src/time.rs"), "exempt beats dirs");
        assert!(!s.in_scope("t", "crates/simx/src/a.rs"), "prefix must stop at a slash");
        assert!(!s.in_scope("t", "crates/x/src/z.rs"));
        assert!(!s.in_scope("nope", "crates/sim/src/engine.rs"), "unknown scope is empty");
    }

    #[test]
    fn multiline_arrays_and_comments() {
        let s = Scopes::parse("# header\n[a]\ndirs = [\n  \"p/q\", # inline\n  \"r/s\",\n]\n")
            .expect("parse");
        assert!(s.in_scope("a", "p/q/f.rs"));
        assert!(s.in_scope("a", "r/s/f.rs"));
    }

    #[test]
    fn parse_errors_are_loud() {
        assert!(Scopes::parse("dirs = [\"x\"]\n").is_err(), "key before section");
        assert!(Scopes::parse("[a]\nwhat = [\"x\"]\n").is_err(), "unknown key");
        assert!(Scopes::parse("[a]\ndirs = [\"x\"\n").is_err(), "unterminated array");
        assert!(Scopes::parse("[a]\ndirs = [x]\n").is_err(), "unquoted item");
        assert!(Scopes::parse("[a]\n[a]\n").is_err(), "duplicate section");
    }
}
