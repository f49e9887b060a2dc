//! # dsa-lint
//!
//! A dependency-free, per-file lexical checker for the rules of this
//! workspace that rustc and clippy cannot state:
//!
//! | rule | name | checks |
//! |------|------|--------|
//! | R3 | `float-cast` | no float↔int `as` casts in timeline arithmetic outside `sim::time` |
//! | R5 | `hot-alloc` | no `Box::new`/`Vec::new`/`vec![..]`/`.to_vec()`/`.clone()` in the designated hot-path modules |
//! | R7 | `unit-consistency` | no ps/byte mixing and no raw literals across ps boundaries in timeline math |
//! | R8 | `shard-isolation` | no shared-mutable-state constructs in the fleet's shard modules |
//!
//! Each rule is a token scan over one file ([`rules`]). Rule scopes are
//! data, not code: `crates/lint/scopes.toml`, parsed by [`scopes`].
//!
//! The other rules are stated where the compiler checks them:
//!
//! * R1 `nondeterminism` and R6 `det-taint`: `crates/clippy.toml` bans
//!   wall clocks, hash containers, `RandomState` and `thread::spawn` in
//!   every crate, so no simulation function can reach one;
//! * R2 `unwrap`: `#![deny(clippy::unwrap_used, clippy::expect_used)]` on
//!   every library and binary root, with reasoned `#[expect]`s;
//! * R4 `raw-descriptor`: `Descriptor`'s fields are private to
//!   `dsa-device`, so a literal or a field edit elsewhere does not compile;
//! * R8's reach into global state: `#![forbid(unsafe_code)]` on every crate
//!   root (a `static mut` needs `unsafe`) and `disallowed-macros` for
//!   `thread_local!`.
//!
//! Exceptions are documented inline with `// dsa-lint: allow(rule, reason)`.
//! See `crates/lint/RULES.md` for the full rationale.
//!
//! The crate deliberately has **zero dependencies** (the workspace's
//! Cargo.lock stays dependency-free), so parsing is done by a hand-rolled
//! lexer in [`lexer`] rather than `syn`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod lexer;
pub mod rules;
pub mod scopes;

pub use rules::{check_file, Violation, RULES};

use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into during the workspace walk. `dsa-e2e`
/// is a cargo workspace of its own, checked by its own clippy step.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "dsa-e2e"];

/// Lints every `.rs` file under `root` (skipping `target/`, hidden
/// directories, lint fixture corpora and `dsa-e2e/`). Returns violations
/// sorted by file and line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut paths = Vec::new();
    collect_rs(root, Path::new(""), &mut paths)?;
    paths.sort();
    let mut out = Vec::new();
    for rel in paths {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        out.extend(check_file(&rel_str, &source));
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then(a.rule.cmp(b.rule)));
    Ok(out)
}

fn collect_rs(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(root.join(rel))? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let file_type = entry.file_type()?;
        if file_type.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs(root, &rel.join(&name), out)?;
        } else if file_type.is_file() && name.ends_with(".rs") {
            out.push(rel.join(&name));
        }
    }
    Ok(())
}

/// Walks upward from `start` looking for the workspace root (a directory
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_workspace_root_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }
}
