//! The real workspace must lint clean, and the attributes and clippy
//! config that replaced dsa-lint's determinism, unwrap and global-state
//! rules must stay in place. The lint half is the same check CI runs via
//! `cargo run -p dsa-lint -- --deny`; the rest makes a new crate, or a
//! deleted attribute or config entry, fail `cargo test --workspace` rather
//! than silently drop a rule.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    dsa_lint::find_workspace_root(here).expect("workspace root above crates/lint")
}

fn read(root: &Path, rel: &str) -> String {
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

#[test]
fn workspace_lints_clean() {
    let violations = dsa_lint::lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        violations.is_empty(),
        "dsa-lint found {} violation(s):\n{}",
        violations.len(),
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// Every library and binary root: `crates/*/src/{lib,main}.rs`,
/// `src/lib.rs` and `src/bin/*.rs`, found by walking the tree so that a
/// new crate or binary is covered the moment it exists.
fn crate_roots(root: &Path) -> Vec<String> {
    let mut roots = vec!["src/lib.rs".to_string()];
    let entries = |dir: &str| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("list {dir}: {e}"))
            .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    for name in entries("src/bin") {
        if name.ends_with(".rs") {
            roots.push(format!("src/bin/{name}"));
        }
    }
    for krate in entries("crates") {
        for file in ["lib.rs", "main.rs"] {
            let rel = format!("crates/{krate}/src/{file}");
            if root.join(&rel).is_file() {
                roots.push(rel);
            }
        }
    }
    roots
}

/// R2 `unwrap` and R8's reach into `static mut` are crate attributes now:
/// every root denies `unwrap`/`expect` (tests stay exempt through
/// `crates/clippy.toml`) and forbids `unsafe_code`, since a `static mut`
/// cannot be read or written without it. `dsa-ops` denies instead, so its
/// SSE4.2 CRC kernel can carry a reasoned `#[expect(unsafe_code)]`.
#[test]
fn every_crate_root_denies_unwrap_and_unsafe_code() {
    let root = workspace_root();
    let roots = crate_roots(&root);
    assert!(roots.len() >= 13, "crate-root walk found too little: {roots:?}");
    for rel in &roots {
        let text = read(&root, rel);
        assert!(
            text.contains("#![deny(clippy::unwrap_used, clippy::expect_used)]"),
            "{rel} lacks #![deny(clippy::unwrap_used, clippy::expect_used)]"
        );
        let unsafe_attr = if rel == "crates/ops/src/lib.rs" {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(text.contains(unsafe_attr), "{rel} lacks {unsafe_attr}");
    }
}

/// R1 `nondeterminism` and R6 `det-taint` are `crates/clippy.toml`: no
/// crate may name a wall clock, a hash container, a random hash seed, an
/// unscoped thread or thread-local state.
#[test]
fn clippy_config_bans_every_nondeterminism_source() {
    let root = workspace_root();
    let toml = read(&root, "crates/clippy.toml");
    for banned in [
        "std::time::Instant",
        "std::time::SystemTime",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::thread::spawn",
        "std::thread_local",
    ] {
        assert!(
            toml.contains(&format!("\"{banned}\"")),
            "crates/clippy.toml no longer bans {banned}"
        );
    }
    for setting in ["allow-unwrap-in-tests = true", "allow-expect-in-tests = true"] {
        assert!(toml.contains(setting), "crates/clippy.toml lost `{setting}`");
    }
}

/// R8's lexical half: the shard modules (service, action queue, shard
/// plan, and the fleet layer that runs them one per thread) contain no
/// shared-mutable-state construct, so each shard thread can own its
/// service slice outright. Reaching global state through a call is
/// covered crate-wide by `every_crate_root_denies_unwrap_and_unsafe_code`
/// and `clippy_config_bans_every_nondeterminism_source`.
///
/// Unlike `workspace_lints_clean` (which would also fail on, say, a float
/// cast in the simulator), this test pins the specific guarantee: if it
/// fails, someone introduced shared mutable state into a shard module.
#[test]
fn shard_modules_carry_zero_shared_state_findings() {
    let root = workspace_root();

    // The scope list is data (scopes.toml); assert the files it names
    // actually exist so a rename can't silently hollow out the guarantee.
    let scope = dsa_lint::scopes::Scopes::builtin()
        .get("shard-isolation")
        .expect("scopes.toml has a [shard-isolation] section");
    assert!(!scope.files.is_empty(), "the shard-isolation scope names no file");
    for shard in scope.files.iter().chain(&scope.dirs) {
        assert!(root.join(shard).exists(), "shard module {shard} missing from workspace");
    }
    for shard in [
        "crates/svc/src/service.rs",
        "crates/svc/src/actionq.rs",
        "crates/svc/src/shard.rs",
        "crates/svc/src/fleet.rs",
    ] {
        assert!(
            dsa_lint::scopes::Scopes::builtin().in_scope("shard-isolation", shard),
            "{shard} fell out of the shard-isolation scope"
        );
    }

    let violations = dsa_lint::lint_workspace(&root).expect("workspace walk");
    let shard_findings: Vec<_> =
        violations.iter().filter(|v| v.rule == "shard-isolation").collect();
    assert!(
        shard_findings.is_empty(),
        "shard modules must own their state; found:\n{}",
        shard_findings.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}
