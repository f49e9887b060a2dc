//! Fixture corpus: known-bad snippets the linter must flag, known-good it
//! must pass. Fixtures live under `crates/lint/fixtures/` (excluded from
//! the workspace walk) and are linted under synthetic workspace paths so
//! the path-scoped rules apply. The fixtures of the rules clippy and rustc
//! now enforce belong to the clippy fixture package in the same directory.

use dsa_lint::{check_file, Violation};
use std::path::Path;

fn read_fixture(kind: &str, file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(kind).join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Lints a fixture file as if it lived at `synthetic_path` in the workspace.
fn lint_fixture(kind: &str, file: &str, synthetic_path: &str) -> Vec<Violation> {
    check_file(synthetic_path, &read_fixture(kind, file))
}

fn rules_of(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn bad_r3_float_casts_are_flagged() {
    let v = lint_fixture("bad", "r3_floatcast.rs", "crates/sim/src/fixture.rs");
    assert_eq!(rules_of(&v), vec!["float-cast", "float-cast"], "{v:?}");

    // The sim::time helpers themselves are the one sanctioned home for this.
    let exempt = lint_fixture("bad", "r3_floatcast.rs", "crates/sim/src/time.rs");
    assert!(exempt.is_empty(), "{exempt:?}");
}

#[test]
fn bad_r5_hot_alloc_is_flagged_in_hot_modules_only() {
    let v = lint_fixture("bad", "r5_hotalloc.rs", "crates/svc/src/actionq.rs");
    assert_eq!(
        rules_of(&v),
        vec!["hot-alloc", "hot-alloc", "hot-alloc", "hot-alloc", "hot-alloc"],
        "{v:?}"
    );

    // The same code outside the designated hot-path modules is legal:
    // allocation policy is per-module, not per-crate.
    for outside in
        ["crates/sim/src/timeline.rs", "crates/core/src/dispatch.rs", "crates/ops/src/delta.rs"]
    {
        let v = lint_fixture("bad", "r5_hotalloc.rs", outside);
        assert!(v.is_empty(), "{outside}: {v:?}");
    }
}

#[test]
fn good_r5_pooled_shapes_pass_inside_the_hot_scope() {
    for hot in ["crates/svc/src/actionq.rs", "crates/ops/src/memops.rs", "crates/ops/src/crc32.rs"]
    {
        let v = lint_fixture("good", "r5_pooled.rs", hot);
        assert!(v.is_empty(), "{hot}: {v:?}");
    }
}

#[test]
fn bad_reasonless_pragma_suppresses_but_is_itself_flagged() {
    let v = lint_fixture("bad", "pragma_no_reason.rs", "crates/sim/src/fixture.rs");
    assert_eq!(rules_of(&v), vec!["pragma"], "{v:?}");
}

#[test]
fn every_rule_class_fires_across_the_bad_corpus() {
    let mut seen = std::collections::BTreeSet::new();
    for (file, path) in [
        ("r3_floatcast.rs", "crates/sim/src/fixture.rs"),
        ("r5_hotalloc.rs", "crates/svc/src/actionq.rs"),
        ("r7_units.rs", "crates/mem/src/link_fixture.rs"),
        ("r8_shared_state.rs", "crates/svc/src/actionq.rs"),
        ("pragma_no_reason.rs", "crates/sim/src/fixture.rs"),
    ] {
        for v in lint_fixture("bad", file, path) {
            seen.insert(v.rule);
        }
    }
    for rule in dsa_lint::RULES {
        assert!(seen.contains(rule), "rule {rule} never fired; saw {seen:?}");
    }
}

#[test]
fn scheduler_module_sits_inside_the_timeline_math_scope() {
    // The service's action queue (`crates/svc/src/actionq.rs`) decides the
    // merged timeline's step order. Its correctness rests on integer
    // picosecond instants, so R3 float-cast findings fire when bad code is
    // placed at that path.
    let float = lint_fixture("bad", "r3_floatcast.rs", "crates/svc/src/actionq.rs");
    assert!(float.iter().any(|v| v.rule == "float-cast"), "{float:?}");
}

#[test]
fn causal_module_sits_inside_the_timeline_math_scope() {
    // `crates/telemetry/src/causal.rs` is the critical-path attribution
    // module. Its segment arithmetic feeds replay digests and a ps-exact
    // partition invariant, so the timeline-math scope must cover exactly
    // that file, and nothing else in the telemetry crate.
    let causal = "crates/telemetry/src/causal.rs";
    let float = lint_fixture("bad", "r3_floatcast.rs", causal);
    assert!(float.iter().any(|v| v.rule == "float-cast"), "{float:?}");
    // Sibling telemetry files are presentation code and stay exempt.
    for exempt in ["crates/telemetry/src/hub.rs", "crates/telemetry/src/export.rs"] {
        let float = lint_fixture("bad", "r3_floatcast.rs", exempt);
        assert!(float.is_empty(), "{exempt}: {float:?}");
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for file in ["clean.rs", "pragma_ok.rs"] {
        let v = lint_fixture("good", file, "crates/core/src/fixture.rs");
        assert!(v.is_empty(), "{file}: {v:?}");
    }
}

#[test]
fn bad_r7_units_fixture_fires_once_per_confusion() {
    // Three marked-BAD sites: ps+bytes addition, literal into from_ps,
    // literal assigned to a _ps field.
    let v = lint_fixture("bad", "r7_units.rs", "crates/mem/src/link_fixture.rs");
    assert_eq!(
        rules_of(&v),
        vec!["unit-consistency", "unit-consistency", "unit-consistency"],
        "{v:?}"
    );
    assert!(v.iter().any(|v| v.message.contains("picosecond and byte-count")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("5_000")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("7_500_000")), "{v:?}");

    // Outside the timeline-math scope the same code is legal: unit
    // discipline is enforced where ps arithmetic feeds the timeline.
    let outside = lint_fixture("bad", "r7_units.rs", "crates/workloads/src/fixture.rs");
    assert!(outside.is_empty(), "{outside:?}");
}

#[test]
fn good_r7_units_fixture_passes() {
    let v = lint_fixture("good", "r7_units.rs", "crates/mem/src/link_fixture.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn bad_r8_shared_state_is_flagged_in_shard_modules_only() {
    let v = lint_fixture("bad", "r8_shared_state.rs", "crates/svc/src/actionq.rs");
    let n = v.iter().filter(|v| v.rule == "shard-isolation").count();
    // Rc (use + field), AtomicU64 (use + field), static mut, thread_local!
    assert!(n >= 5, "expected >=5 shard-isolation findings, got {v:?}");
    assert!(v.iter().all(|v| v.rule == "shard-isolation"), "{v:?}");

    // The same constructs outside the shard modules are legal — e.g. the
    // telemetry hub deliberately uses Rc<RefCell> for its sink registry.
    let outside = lint_fixture("bad", "r8_shared_state.rs", "crates/telemetry/src/hub.rs");
    assert!(outside.is_empty(), "{outside:?}");
}

#[test]
fn good_r8_owned_state_passes_with_test_only_rc() {
    // Owned-by-value shard state passes; the Rc under #[cfg(test)] is
    // exempt because R8 skips test code.
    let v = lint_fixture("good", "r8_owned.rs", "crates/svc/src/service.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn all_five_rule_ids_are_registered() {
    let ids = dsa_lint::rules::RULES;
    for id in ["float-cast", "hot-alloc", "unit-consistency", "shard-isolation", "pragma"] {
        assert!(ids.contains(&id), "rule {id} missing from registry {ids:?}");
    }
}
