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
    // `thread::spawn` and `thread::scope` fire once each; `s.spawn` on a
    // scope handle and `thread::yield_now` stay legal.
    assert_eq!(det.iter().filter(|x| x.message.contains("`thread::")).count(), 2, "{det:?}");
    // Suppressed HashMap/HashSet lines and the #[cfg(test)] module stay
    // quiet; strings never count.
    assert!(!det.iter().any(|x| x.message.contains("`HashSet`")));
    assert_eq!(det.iter().filter(|x| x.message.contains("`HashMap`")).count(), 1);
    assert!(v.iter().all(|x| x.rule != "pragma"), "fixture pragmas are well-formed");
    // `bench` builds the figures: a figure function that reads the wall
    // clock fires too.
    let figure = "pub fn fig() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }";
    let bench = lint_sources(&[src("bench", "crates/bench/src/lib.rs", figure)]);
    assert!(bench.iter().any(|x| x.rule == "determinism" && x.message.contains("Instant::now")));
}

#[test]
fn determinism_rule_ignores_non_sim_crates_and_test_files() {
    let text = include_str!("fixtures/determinism.rs");
    let other_crate = lint_sources(&[src("relational", "crates/relational/src/fix.rs", text)]);
    assert!(other_crate.iter().all(|x| x.rule != "determinism"));
    // Test files, and the `report` / `bench_diff` binaries that time and
    // diff the figures, are exempt.
    for (crate_name, rel_path, kind) in [
        ("tpcw", "crates/tpcw/tests/fix.rs", FileKind::Test),
        ("bench", "crates/bench/src/bin/report.rs", FileKind::Bin),
    ] {
        let file = SourceFile {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            kind,
            text: text.into(),
        };
        assert!(lint_sources(&[file]).iter().all(|x| x.rule != "determinism"), "{rel_path}");
    }
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
    assert!(msgs.iter().any(|m| m.contains("held across a thread fan-out")));
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

/// The reachability fixture's library file plus the files that name its
/// items: a test file, a `pub use`, an example, a binary and the
/// benchmark package.
fn reachability_sources() -> Vec<SourceFile> {
    let file = |crate_name: &str, rel_path: &str, kind, text: &str| SourceFile {
        crate_name: crate_name.into(),
        rel_path: rel_path.into(),
        kind,
        text: text.into(),
    };
    vec![
        src("fix", "crates/fix/src/lib.rs", include_str!("fixtures/reachability.rs")),
        src("fix", "crates/fix/src/reexport.rs", "pub use crate::named_only_by_a_pub_use;\n"),
        file(
            "fix",
            "crates/fix/tests/t.rs",
            FileKind::Test,
            "#[test]\nfn t() { fix::named_only_in_a_tests_file(); }\n",
        ),
        file("fix", "crates/fix/examples/e.rs", FileKind::Example, "fn main() { fix::named_by_an_example(); }\n"),
        file("fix", "crates/fix/src/main.rs", FileKind::Bin, "fn main() { fix::named_by_a_binary(); }\n"),
        file(
            lint::loc::BENCHMARK,
            "benchmark/src/main.rs",
            FileKind::Bin,
            "fn main() { fix::named_by_the_benchmark(); }\n",
        ),
    ]
}

#[test]
fn reachability_flags_pub_fns_no_non_test_file_names() {
    let v = lint_sources(&reachability_sources());
    let mut flagged: Vec<&str> = v
        .iter()
        .filter(|x| x.rule == "reachability")
        .map(|x| x.message.split('`').nth(1).unwrap_or(""))
        .collect();
    flagged.sort_unstable();
    assert_eq!(
        flagged,
        [
            "pub fn dead",
            "pub fn named_only_by_a_pub_use",
            "pub fn named_only_by_itself",
            "pub fn named_only_in_a_tests_file",
            "pub fn named_only_in_cfg_test",
        ],
        "{v:?}"
    );
    // A benchmark, example or binary reference keeps an item; `pub(crate)`
    // items and trait methods are out of scope; a reasoned pragma
    // suppresses.  Every violation sits in the library file.
    assert!(v.iter().all(|x| x.file == "crates/fix/src/lib.rs"), "{v:?}");
}

/// Uses are matched by name alone: another crate's call of a same-named
/// function keeps an item alive, while another `fn` definition of the name
/// does not count as a use.
#[test]
fn reachability_matches_names_not_paths() {
    let v = lint_sources(&[
        src("a", "crates/a/src/lib.rs", "pub fn stats() {}\npub fn render() {}\n"),
        src("b", "crates/b/src/lib.rs", "pub fn stats() {}\nfn render() {}\nfn go() { x.stats(); }\n"),
    ]);
    let mut flagged: Vec<(&str, usize)> = v
        .iter()
        .filter(|x| x.rule == "reachability")
        .map(|x| (x.file.as_str(), x.line))
        .collect();
    flagged.sort_unstable();
    assert_eq!(flagged, [("crates/a/src/lib.rs", 2)], "{v:?}");
}

#[test]
fn benchmark_files_are_references_never_linted() {
    let text = include_str!("fixtures/locks_bad.rs");
    let as_crate = lint_sources(&[src("fixturecrate", "crates/fixturecrate/src/bad.rs", text)]);
    assert!(as_crate.iter().any(|x| x.rule == "lock-discipline"));
    let as_benchmark = lint_sources(&[src(lint::loc::BENCHMARK, "benchmark/src/bad.rs", text)]);
    assert!(as_benchmark.is_empty(), "{as_benchmark:?}");
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
    let run = lint::lint_workspace(&root).expect("workspace scan");
    // The benchmark package is read, as references, in this gate exactly
    // as in `cargo run -p lint`.
    assert!(run.loc.crates.contains_key(lint::loc::BENCHMARK));
    let violations = run.violations;
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
