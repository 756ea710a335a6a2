//! Fixture-driven tests: each rule proves it fires on the bad forms and
//! stays quiet on the good ones, plus the workspace-is-clean gate.

use lint::model::FileKind;
use lint::{lint_sources, SourceFile};

fn src(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.into(),
        rel_path: rel_path.into(),
        kind: FileKind::Lib,
        text: text.into(),
    }
}

#[test]
fn determinism_rule_fires_on_each_trigger() {
    let v = lint_sources(&[src(
        "tpcw",
        "crates/tpcw/src/fix.rs",
        include_str!("fixtures/determinism.rs"),
    )]);
    let det: Vec<_> = v.iter().filter(|x| x.rule == "determinism").collect();
    assert!(det.iter().any(|x| x.message.contains("Instant::now")), "{det:?}");
    assert!(det.iter().any(|x| x.message.contains("SystemTime")));
    assert!(det.iter().any(|x| x.message.contains("thread_rng")));
    assert!(det.iter().any(|x| x.message.contains("`HashMap`")));
    // Suppressed HashMap/HashSet lines and the #[cfg(test)] module stay
    // quiet; strings never count.
    assert!(!det.iter().any(|x| x.message.contains("`HashSet`")));
    assert_eq!(det.iter().filter(|x| x.message.contains("`HashMap`")).count(), 1);
    assert!(v.iter().all(|x| x.rule != "pragma"), "fixture pragmas are well-formed");
}

#[test]
fn determinism_rule_ignores_non_sim_crates_and_test_files() {
    let text = include_str!("fixtures/determinism.rs");
    let other_crate = lint_sources(&[src("bench", "crates/bench/src/fix.rs", text)]);
    assert!(other_crate.iter().all(|x| x.rule != "determinism"));
    let test_file = lint_sources(&[SourceFile {
        crate_name: "tpcw".into(),
        rel_path: "crates/tpcw/tests/fix.rs".into(),
        kind: FileKind::Test,
        text: text.into(),
    }]);
    assert!(test_file.iter().all(|x| x.rule != "determinism"));
}

#[test]
fn panic_freedom_rule_fires_on_each_trigger() {
    let v = lint_sources(&[src(
        "nosql-store",
        "crates/nosql-store/src/fix.rs",
        include_str!("fixtures/panic.rs"),
    )]);
    let pf: Vec<_> = v.iter().filter(|x| x.rule == "panic-freedom").collect();
    for needle in [
        "`.unwrap()`", "`.expect()`", "`panic!`", "`unreachable!`", "`todo!`", "`unimplemented!`",
        "`assert!`", "`assert_eq!`", "`assert_ne!`",
    ] {
        assert!(pf.iter().any(|x| x.message.contains(needle)), "missing {needle}: {pf:?}");
    }
    // `debug_assert*` compiles out of release builds and never fires.
    assert!(pf.iter().all(|x| !x.message.contains("debug_assert")), "{pf:?}");
    assert_eq!(pf.iter().filter(|x| x.message.contains("`assert")).count(), 3);
    // One unwrap and one expect in library code, none from: the pragma'd
    // line, unwrap_or* variants, the free fn named unwrap, or test code.
    assert_eq!(pf.iter().filter(|x| x.message.contains("`.unwrap()`")).count(), 1);
    assert_eq!(pf.iter().filter(|x| x.message.contains("`.expect()`")).count(), 1);
    assert_eq!(pf.iter().filter(|x| x.message.contains("`panic!`")).count(), 1);
}

#[test]
fn cost_accounting_rule_keys_on_cluster_methods() {
    let text = include_str!("fixtures/cost.rs");
    // The rule follows `impl Cluster` into whichever library file of the
    // store holds it — a method moved out of `cluster.rs` stays covered.
    for file in ["cluster.rs", "recovery.rs"] {
        let v = lint_sources(&[src("nosql-store", &format!("crates/nosql-store/src/{file}"), text)]);
        let cost: Vec<_> = v.iter().filter(|x| x.rule == "cost-accounting").collect();
        assert_eq!(cost.len(), 1, "{file}: {cost:?}");
        assert!(cost[0].message.contains("uncharged_touch"));
    }
    // Another crate's `Cluster`, and the store's own test files, are out of
    // the rule's scope.
    let elsewhere = lint_sources(&[src("synergy", "crates/synergy/src/cluster.rs", text)]);
    assert!(elsewhere.iter().all(|x| x.rule != "cost-accounting"));
    let test_file = lint_sources(&[SourceFile {
        kind: FileKind::Test,
        ..src("nosql-store", "crates/nosql-store/tests/cluster.rs", text)
    }]);
    assert!(test_file.iter().all(|x| x.rule != "cost-accounting"));
}

#[test]
fn lock_discipline_rule_finds_cycles() {
    let v = lint_sources(&[src(
        "fixturecrate",
        "crates/fixturecrate/src/cycle.rs",
        include_str!("fixtures/locks_cycle.rs"),
    )]);
    let locks: Vec<_> = v.iter().filter(|x| x.rule == "lock-discipline").collect();
    assert_eq!(locks.len(), 1, "{locks:?}");
    assert!(locks[0].message.contains("lock-order cycle"));
    assert!(locks[0].message.contains("tables") && locks[0].message.contains("wal"));
}

#[test]
fn lock_discipline_rule_finds_direct_violations() {
    let v = lint_sources(&[src(
        "fixturecrate",
        "crates/fixturecrate/src/bad.rs",
        include_str!("fixtures/locks_bad.rs"),
    )]);
    let msgs: Vec<&str> = v
        .iter()
        .filter(|x| x.rule == "lock-discipline")
        .map(|x| x.message.as_str())
        .collect();
    assert!(
        msgs.iter().filter(|m| m.contains("re-acquired")).count() >= 2,
        "direct re-entry and the for-header re-entry: {msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("held across a pool fan-out")));
    assert!(
        msgs.iter().any(|m| m.contains("held across call to `helper_that_fans_out`")),
        "interprocedural fan-out: {msgs:?}"
    );
}

#[test]
fn lock_discipline_rule_accepts_disciplined_code() {
    let v = lint_sources(&[src(
        "fixturecrate",
        "crates/fixturecrate/src/ok.rs",
        include_str!("fixtures/locks_ok.rs"),
    )]);
    let locks: Vec<_> = v.iter().filter(|x| x.rule == "lock-discipline").collect();
    assert!(locks.is_empty(), "{locks:?}");
}

#[test]
fn pragma_hygiene_rejects_unknown_rules_and_missing_reasons() {
    let text = "pub fn f() {} // lint-allow(determinsim): typo'd rule\n\
                pub fn g(x: Option<u8>) -> u8 { x.unwrap() } // lint-allow(panic-freedom)\n";
    let v = lint_sources(&[src("nosql-store", "crates/nosql-store/src/fix.rs", text)]);
    assert!(v.iter().any(|x| x.rule == "pragma" && x.message.contains("unknown rule")));
    assert!(v.iter().any(|x| x.rule == "pragma" && x.message.contains("missing its reason")));
    // The reasonless pragma does not suppress: the unwrap still fires.
    assert!(v.iter().any(|x| x.rule == "panic-freedom" && x.line == 2));
}

/// The gate itself: the workspace must lint clean.  A violation introduced
/// anywhere in the tree fails this test (and the dedicated CI job) until it
/// is fixed or justified inline with a `lint-allow` pragma.
#[test]
fn workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf();
    let violations = lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "lint violations:\n{}",
        violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
