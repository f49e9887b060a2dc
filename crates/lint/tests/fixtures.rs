//! Fixture corpus: known-bad snippets the linter must flag, known-good it
//! must pass. Fixtures live under `crates/lint/fixtures/` (excluded from
//! the workspace walk) and are linted under synthetic workspace paths so
//! the path-scoped rules apply.

use dsa_lint::{check_file, check_files, Violation};
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

/// Lints a *set* of fixtures as one synthetic workspace, so the
/// interprocedural rules (R6, R8-transitive) see the whole call graph.
fn lint_fixture_set(files: &[(&str, &str, &str)]) -> Vec<Violation> {
    let set: Vec<(String, String)> = files
        .iter()
        .map(|&(kind, file, synthetic)| (synthetic.to_string(), read_fixture(kind, file)))
        .collect();
    check_files(&set)
}

fn rules_of(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn bad_r1_wallclock_is_flagged() {
    let v = lint_fixture("bad", "r1_wallclock.rs", "crates/sim/src/fixture.rs");
    let n = v.iter().filter(|v| v.rule == "nondeterminism").count();
    // use Instant, use SystemTime, Instant::now, SystemTime::now, thread::spawn
    assert!(n >= 4, "expected >=4 nondeterminism findings, got {v:?}");
    assert!(v.iter().all(|v| v.rule == "nondeterminism"), "{v:?}");
}

#[test]
fn bad_r1_hash_containers_are_flagged_in_det_core_only() {
    let v = lint_fixture("bad", "r1_hashmap.rs", "crates/core/src/fixture.rs");
    let n = v.iter().filter(|v| v.rule == "nondeterminism").count();
    assert!(n >= 2, "expected HashMap+HashSet findings, got {v:?}");

    // The same file outside the deterministic core is legal.
    let outside = lint_fixture("bad", "r1_hashmap.rs", "crates/telemetry/src/fixture.rs");
    assert!(outside.is_empty(), "{outside:?}");
}

#[test]
fn bad_r2_unwrap_is_flagged() {
    let v = lint_fixture("bad", "r2_unwrap.rs", "crates/device/src/fixture.rs");
    assert_eq!(rules_of(&v), vec!["unwrap", "unwrap"], "{v:?}");
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
fn bad_r4_raw_descriptor_literals_are_flagged() {
    let v = lint_fixture("bad", "r4_raw_descriptor.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&v), vec!["raw-descriptor", "raw-descriptor"], "{v:?}");
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
    let v = lint_fixture("bad", "pragma_no_reason.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&v), vec!["pragma"], "{v:?}");
}

#[test]
fn all_five_rule_classes_fire_across_the_bad_corpus() {
    let mut seen = std::collections::BTreeSet::new();
    for (file, path) in [
        ("r1_wallclock.rs", "crates/sim/src/fixture.rs"),
        ("r1_hashmap.rs", "crates/core/src/fixture.rs"),
        ("r2_unwrap.rs", "crates/device/src/fixture.rs"),
        ("r3_floatcast.rs", "crates/sim/src/fixture.rs"),
        ("r4_raw_descriptor.rs", "crates/core/src/fixture.rs"),
        ("r5_hotalloc.rs", "crates/svc/src/actionq.rs"),
    ] {
        for v in lint_fixture("bad", file, path) {
            seen.insert(v.rule);
        }
    }
    for rule in ["nondeterminism", "unwrap", "float-cast", "raw-descriptor", "hot-alloc"] {
        assert!(seen.contains(rule), "rule {rule} never fired; saw {seen:?}");
    }
}

#[test]
fn scheduler_module_sits_inside_the_det_core_scope() {
    // The service's action queue (`crates/svc/src/actionq.rs`) decides the
    // merged timeline's step order. Its correctness rests on integer
    // picosecond instants and deterministic pop order, so the strictest
    // scopes must cover it: R1 wall-clock/hash-container findings and R3
    // float-cast findings all fire when bad code is placed at that path.
    let wall = lint_fixture("bad", "r1_wallclock.rs", "crates/svc/src/actionq.rs");
    assert!(wall.iter().any(|v| v.rule == "nondeterminism"), "{wall:?}");
    let hash = lint_fixture("bad", "r1_hashmap.rs", "crates/svc/src/actionq.rs");
    assert!(hash.iter().any(|v| v.rule == "nondeterminism"), "{hash:?}");
    let float = lint_fixture("bad", "r3_floatcast.rs", "crates/svc/src/actionq.rs");
    assert!(float.iter().any(|v| v.rule == "float-cast"), "{float:?}");
}

#[test]
fn causal_module_sits_inside_the_det_core_scope() {
    // PR 6 added `crates/telemetry/src/causal.rs`, the critical-path
    // attribution module. Its segment arithmetic feeds replay digests and
    // a ps-exact partition invariant, so the det-core scopes must cover
    // exactly that file — and nothing else in the telemetry crate.
    let causal = "crates/telemetry/src/causal.rs";
    let hash = lint_fixture("bad", "r1_hashmap.rs", causal);
    assert!(hash.iter().any(|v| v.rule == "nondeterminism"), "{hash:?}");
    let float = lint_fixture("bad", "r3_floatcast.rs", causal);
    assert!(float.iter().any(|v| v.rule == "float-cast"), "{float:?}");
    // Sibling telemetry files stay exempt from the det-core-only rules.
    for exempt in ["crates/telemetry/src/hub.rs", "crates/telemetry/src/export.rs"] {
        let hash = lint_fixture("bad", "r1_hashmap.rs", exempt);
        assert!(hash.is_empty(), "{exempt}: {hash:?}");
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

/// The three-file chain the two-hop R6 tests lint together: a det-core
/// entry point, a workloads relay, and a telemetry leaf.
const R6_CHAIN: [(&str, &str); 3] = [
    ("det_fixture.rs", "crates/sim/src/det_fixture.rs"),
    ("relay_fixture.rs", "crates/workloads/src/relay_fixture.rs"),
    ("leaf_hash.rs", "crates/telemetry/src/leaf_hash.rs"),
];

#[test]
fn r6_catches_two_hop_laundering_that_lexical_r1_provably_misses() {
    // First the "provably misses" half: linted file-by-file, the lexical
    // rules find NOTHING. The det-core entry point is spotless, the relay
    // is spotless, and the hash-iterating leaf sits in a telemetry path
    // that the R1 hash-container scope deliberately exempts.
    for (file, synthetic) in R6_CHAIN {
        let v = lint_fixture("bad/r6_two_hop", file, synthetic);
        assert!(v.is_empty(), "lexical pass should be silent on {file}, got {v:?}");
    }

    // Then the call-graph half: linted as a set, R6 walks
    // schedule_next -> relay_delay -> coarse_stamp and pins exactly one
    // det-taint finding on the det-core entry point, naming the chain and
    // the true source location.
    let v = lint_fixture_set(&R6_CHAIN.map(|(f, s)| ("bad/r6_two_hop", f, s)));
    assert_eq!(v.len(), 1, "expected exactly one finding, got {v:?}");
    let f = &v[0];
    assert_eq!(f.rule, "det-taint", "{f:?}");
    assert_eq!(f.file, "crates/sim/src/det_fixture.rs", "{f:?}");
    assert!(f.message.contains("schedule_next"), "{f:?}");
    assert!(f.message.contains("relay_delay"), "chain hop 1 missing: {f:?}");
    assert!(f.message.contains("coarse_stamp"), "chain hop 2 missing: {f:?}");
    assert!(f.message.contains("leaf_hash.rs"), "source location missing: {f:?}");
    assert!(f.message.contains("hash container"), "source kind missing: {f:?}");
}

#[test]
fn good_r6_chain_with_ordered_leaf_is_clean() {
    // Identical call shape, BTreeMap leaf: no source, so no taint anywhere.
    let v = lint_fixture_set(&R6_CHAIN.map(|(f, s)| ("good/r6_two_hop", f, s)));
    assert!(v.is_empty(), "{v:?}");
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
fn r8_reaches_global_state_through_a_helper_crate() {
    // The shard file is lexically clean; the global counter lives in a
    // workloads helper. Only the call-graph pass connects them.
    let shard = lint_fixture("bad/r8_reach", "shard_fixture.rs", "crates/svc/src/actionq.rs");
    assert!(shard.is_empty(), "lexical pass should be silent, got {shard:?}");

    let v = lint_fixture_set(&[
        ("bad/r8_reach", "shard_fixture.rs", "crates/svc/src/actionq.rs"),
        ("bad/r8_reach", "counter_fixture.rs", "crates/workloads/src/counter_fixture.rs"),
    ]);
    assert_eq!(v.len(), 1, "expected exactly one finding, got {v:?}");
    let f = &v[0];
    assert_eq!(f.rule, "shard-isolation", "{f:?}");
    assert_eq!(f.file, "crates/svc/src/actionq.rs", "{f:?}");
    assert!(f.message.contains("CALLS"), "{f:?}");
    assert!(f.message.contains("bump_global"), "{f:?}");
    assert!(f.message.contains("shard modules must own their state"), "{f:?}");
}

#[test]
fn all_nine_rule_ids_are_registered() {
    let ids = dsa_lint::rules::RULES;
    for id in [
        "nondeterminism",
        "unwrap",
        "float-cast",
        "raw-descriptor",
        "hot-alloc",
        "det-taint",
        "unit-consistency",
        "shard-isolation",
        "pragma",
    ] {
        assert!(ids.contains(&id), "rule {id} missing from registry {ids:?}");
    }
}
