//! Tier-1 gate: the real workspace must lint clean. This is the same check
//! CI runs via `cargo run -p dsa-lint -- --deny`, embedded as a test so a
//! plain `cargo test` catches regressions too.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = dsa_lint::find_workspace_root(here).expect("workspace root above crates/lint");
    let violations = dsa_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        violations.is_empty(),
        "dsa-lint found {} violation(s):\n{}",
        violations.len(),
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// The R8 sweep report: the shard modules — service, action queue, shard
/// plan, and the fleet layer that runs them one-per-thread — carry zero
/// shared-mutable-state findings, lexical or transitive. This is the
/// static precondition for running shards on threads: each shard can
/// own its service slice outright.
///
/// Unlike `workspace_lints_clean` (which would also fail on, say, an
/// unwrap in telemetry), this test pins the specific guarantee: if it
/// fails, someone introduced shared mutable state into a shard module.
#[test]
fn shard_modules_carry_zero_shared_state_findings() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = dsa_lint::find_workspace_root(here).expect("workspace root above crates/lint");

    // The scope list is data (scopes.toml); assert the files it names
    // actually exist so a rename can't silently hollow out the guarantee.
    for shard in [
        "crates/svc/src/service.rs",
        "crates/svc/src/actionq.rs",
        "crates/svc/src/shard.rs",
        "crates/svc/src/fleet.rs",
    ] {
        assert!(root.join(shard).is_file(), "shard module {shard} missing from workspace");
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
