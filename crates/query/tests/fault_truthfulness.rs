//! Faults may fail a statement, never falsify it.
//!
//! Every stored row a plan reads comes through one reader whose failure
//! travels in-band, so a failed page can only ever turn an answer into an
//! error.  This suite drives each access path — point Get, key-prefix scan,
//! covered and uncovered index scan, key-range scan, full scan at 1 and 4
//! threads over a multi-region table — against a fault-free twin holding the
//! same data, under every way a read can fail: all pages timing out, a later
//! page timing out (a seeded rate over ≥ 3 pages), a cluster crashed before
//! the first pull, and the only region server going down between pages.  The
//! statement must return `Err(QueryError::Store(_))` or exactly the twin's
//! rows — never a short `Ok`.

use nosql_store::{Cluster, ClusterConfig, FaultPlan, RetryPolicy, StoreError};
use query::{baseline, ColumnType, Executor, QueryError};
use relational::{Index, Relation, Row, Schema};
use simclock::SimDuration;
use sql::parse_statement;

/// One access path under test.
struct Case {
    /// The label the plan tree must render for the statement's scan.
    access: &'static str,
    sql: &'static str,
    threads: usize,
    /// Rows the clean twin answers.
    rows: usize,
    /// True when the statement pulls at least three store pages, so a fault
    /// "between pages" has pages to land between.
    paged: bool,
}

const CASES: &[Case] = &[
    Case { access: "access=get", sql: "SELECT * FROM Item WHERE i_id = 1007", threads: 1, rows: 1, paged: false },
    Case { access: "access=key-prefix", sql: "SELECT * FROM Line WHERE l_o_id = 1", threads: 1, rows: 700, paged: true },
    Case { access: "access=index:Item_by_group", sql: "SELECT * FROM Item WHERE i_group = 'g0'", threads: 1, rows: 600, paged: true },
    Case { access: "access=index:Item_by_tag", sql: "SELECT * FROM Item WHERE i_tag = 't0'", threads: 1, rows: 600, paged: true },
    Case { access: "access=key-range", sql: "SELECT * FROM Item WHERE i_id >= 1100 AND i_id <= 1999", threads: 1, rows: 900, paged: true },
    Case { access: "access=full", sql: "SELECT * FROM Item", threads: 1, rows: 1_200, paged: true },
    Case { access: "access=full parallel=x4", sql: "SELECT * FROM Item", threads: 4, rows: 1_200, paged: true },
];

/// `Item` (1 200 rows over several regions, a covered index on `i_group` and
/// an index on `i_tag` that covers nothing else) and `Line` (composite key;
/// 700 lines under order 1), bulk-loaded — never faulted — into a one-server
/// cluster under the given fault plan and retry policy.
fn deployment(fault_plan: Option<FaultPlan>, retry: Option<RetryPolicy>) -> Executor {
    let schema = Schema::new()
        .with_relation(
            Relation::new("Item")
                .attributes(["i_id", "i_group", "i_tag", "i_title"])
                .primary_key(["i_id"])
                .build(),
        )
        .with_relation(
            Relation::new("Line")
                .attributes(["l_o_id", "l_id", "l_qty"])
                .primary_key(["l_o_id", "l_id"])
                .build(),
        )
        .with_index(Index::new(
            "Item_by_group",
            "Item",
            ["i_group"],
            ["i_id", "i_group", "i_tag", "i_title"],
        ))
        .with_index(Index::new("Item_by_tag", "Item", ["i_tag"], ["i_tag"]));
    let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| match column {
        "i_id" | "l_o_id" | "l_id" | "l_qty" => Some(ColumnType::Int),
        _ => Some(ColumnType::Str),
    });
    let cluster = Cluster::new(ClusterConfig {
        region_servers: 1,
        region_split_bytes: 8_000,
        fault_plan,
        retry,
        ..ClusterConfig::default()
    });
    baseline::create_tables(&cluster, &catalog).unwrap();
    let exec = Executor::new(cluster, catalog);
    let items: Vec<Row> = (1_000..2_200i64)
        .map(|i| {
            Row::new()
                .with("i_id", i)
                .with("i_group", format!("g{}", i % 2))
                .with("i_tag", format!("t{}", i % 2))
                .with("i_title", format!("Title of item {i}"))
        })
        .collect();
    exec.bulk_load_rows("Item", &items).unwrap();
    let lines: Vec<Row> = (1..=2i64)
        .flat_map(|order| (0..700i64).map(move |line| (order, line)))
        .map(|(order, line)| Row::new().with("l_o_id", order).with("l_id", line).with("l_qty", line % 5))
        .collect();
    exec.bulk_load_rows("Line", &lines).unwrap();
    exec
}

/// Runs `case` on `exec`'s cluster at the case's width.
fn run(exec: &Executor, case: &Case) -> Result<Vec<Row>, QueryError> {
    let stmt = parse_statement(case.sql).unwrap();
    let exec = exec.clone().with_threads(case.threads);
    exec.execute(&stmt, &[]).map(|result| result.rows)
}

/// The one property: a store error or exactly the twin's rows.  Returns
/// whether the statement failed.
fn truthful(case: &Case, scenario: &str, got: Result<Vec<Row>, QueryError>, twin: &[Row]) -> bool {
    match got {
        Err(QueryError::Store(_)) => true,
        Err(other) => panic!("{} under {scenario}: unexpected error {other}", case.access),
        Ok(rows) => {
            assert!(
                rows == twin,
                "{} under {scenario}: a short Ok — {} of {} rows",
                case.access,
                rows.len(),
                twin.len()
            );
            false
        }
    }
}

#[test]
fn a_fault_fails_a_statement_or_leaves_its_answer_exact() {
    // The clean twin's answers, and how long each statement runs from a
    // freshly loaded deployment's clock.
    let mut twins = Vec::new();
    for case in CASES {
        let exec = deployment(None, None).with_threads(case.threads);
        let stmt = parse_statement(case.sql).unwrap();
        let plan_text = exec.explain_statement(&stmt).unwrap();
        assert!(plan_text.contains(case.access), "{}: planned as\n{plan_text}", case.sql);
        assert!(exec.cluster().metrics().tables["Item"].regions > 1, "Item must span regions");
        let clock = exec.cluster().clock().clone();
        let started = clock.now();
        let rows = run(&exec, case).unwrap();
        assert_eq!(rows.len(), case.rows, "{}", case.access);
        twins.push((rows, started, clock.now() - started));
    }

    // Every page (and every Get) times out: nothing can be answered.
    let exec = deployment(Some(FaultPlan::new(1).with_timeouts(1.0)), None);
    for (case, (twin, ..)) in CASES.iter().zip(&twins) {
        let failed = truthful(case, "all timeouts", run(&exec, case), twin);
        assert!(failed, "{}: answered with every op timing out", case.access);
    }

    // A later page times out: a 30 % rate over each statement's pages.
    let mut failed = [0usize; CASES.len()];
    for seed in 0..16 {
        let exec = deployment(Some(FaultPlan::new(seed).with_timeouts(0.3)), None);
        for (i, (case, (twin, ..))) in CASES.iter().zip(&twins).enumerate() {
            failed[i] += usize::from(truthful(case, "30% timeouts", run(&exec, case), twin));
        }
    }
    for (case, failed) in CASES.iter().zip(failed) {
        assert!(failed > 0, "{}: 16 seeds at 30% never faulted", case.access);
        assert!(!case.paged || failed > 4, "{}: only {failed}/16 paged runs faulted", case.access);
    }

    // Under the default retry policy a moderate rate is absorbed: every
    // answer is the twin's.
    for seed in 0..4 {
        let plan = FaultPlan::new(seed).with_timeouts(0.1).with_transients(0.05);
        let exec = deployment(Some(plan), Some(RetryPolicy::default()));
        for (case, (twin, ..)) in CASES.iter().zip(&twins) {
            assert_eq!(run(&exec, case).as_deref(), Ok(&twin[..]), "{} seed {seed}", case.access);
        }
    }

    // The cluster is down before the first pull: refused at the open,
    // nothing charged.
    let exec = deployment(None, None);
    exec.cluster().crash();
    let before = exec.cluster().clock().now();
    for case in CASES {
        let down = Err(QueryError::Store(StoreError::ClusterDown));
        assert_eq!(run(&exec, case), down, "{}", case.access);
    }
    assert_eq!(exec.cluster().clock().now(), before, "a refused read charged");

    // The only region server goes down halfway through the statement's
    // simulated run — between two of its pages — and stays down.
    for (case, (twin, started, elapsed)) in CASES.iter().zip(&twins) {
        let halfway = SimDuration::from_nanos(started.as_nanos() + elapsed.as_nanos() / 2);
        let outage = FaultPlan::new(1).with_crashes(vec![halfway], SimDuration::from_secs(3_600));
        let exec = deployment(Some(outage), None);
        let down = truthful(case, "server down mid-statement", run(&exec, case), twin);
        assert_eq!(down, case.paged, "{}: an outage between pages must fail it", case.access);
    }
}
