//! Integration tests of the [`Session`] API: prepared statements, the plan
//! cache (hit/miss counters and its bound), the refusal of writes, and
//! `EXPLAIN` handling.

use nosql_store::{Cluster, ClusterConfig};
use query::{baseline, ColumnType, Executor, QueryError, Session};
use relational::{Relation, Row, Schema, Value};
use std::error::Error;

fn schema() -> Schema {
    Schema::new()
        .with_relation(
            Relation::new("Customer")
                .attributes(["c_id", "c_name", "c_group"])
                .primary_key(["c_id"])
                .build(),
        )
        .with_relation(
            Relation::new("Orders")
                .attributes(["o_id", "o_c_id", "o_total"])
                .primary_key(["o_id"])
                .foreign_key("o_c_id", "Customer", "c_id")
                .build(),
        )
}

fn build_executor() -> Executor {
    let schema = schema();
    let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| match column {
        "c_id" | "o_id" | "o_c_id" | "o_total" => Some(ColumnType::Int),
        _ => Some(ColumnType::Str),
    });
    let cluster = Cluster::new(ClusterConfig::default());
    baseline::create_tables(&cluster, &catalog).unwrap();
    let exec = Executor::new(cluster, catalog);
    for c_id in 1..=10i64 {
        exec.insert_row(
            "Customer",
            &Row::new()
                .with("c_id", c_id)
                .with("c_name", format!("C{c_id}"))
                .with("c_group", format!("g{}", c_id % 3)),
        )
        .unwrap();
    }
    exec
}

#[test]
fn prepared_statement_reexecutes_with_fresh_params() {
    let session = Session::new(build_executor());
    let stmt = session.prepare("SELECT c_name FROM Customer WHERE c_id = ?").unwrap();
    let one = stmt.execute(&[Value::Int(1)]).unwrap();
    let two = stmt.execute(&[Value::Int(2)]).unwrap();
    assert_eq!(one.rows[0].get("c_name").unwrap(), &Value::str("C1"));
    assert_eq!(two.rows[0].get("c_name").unwrap(), &Value::str("C2"));
    // Parameters are validated per execution, not at prepare time.
    assert!(matches!(stmt.execute(&[]), Err(QueryError::MissingParameter(0))));
}

#[test]
fn plan_cache_counts_hits_misses_and_entries() {
    let session = Session::new(build_executor());
    session.execute_sql("SELECT * FROM Customer", &[]).unwrap();
    session.execute_sql("SELECT * FROM Customer", &[]).unwrap();
    session.execute_sql("SELECT * FROM Customer WHERE c_id = 1", &[]).unwrap();
    let stats = session.plan_cache_stats();
    assert_eq!(stats.misses, 2, "two distinct statements compiled");
    assert_eq!(stats.hits, 1, "repeat served from cache");
    assert_eq!(stats.entries, 2);

    // prepare_uncached never reads or populates the cache.
    session.prepare_uncached("SELECT * FROM Customer").unwrap();
    let after = session.plan_cache_stats();
    assert_eq!((after.hits, after.misses), (stats.hits, stats.misses));
}

#[test]
fn explain_via_sql_returns_plan_rows() {
    let session = Session::new(build_executor());
    let result = session
        .execute_sql("EXPLAIN SELECT * FROM Customer WHERE c_id = ?", &[])
        .unwrap();
    assert_eq!(result.rows.len(), 1);
    let line = result.rows[0].get("plan").unwrap();
    assert_eq!(line, &Value::str("Scan Customer access=get filter=[c_id = ?0]"));

    // Join plans render one operator per line, children indented.
    let join = session
        .execute_sql(
            "EXPLAIN SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id",
            &[],
        )
        .unwrap();
    let lines: Vec<String> = join
        .rows
        .iter()
        .map(|r| r.get("plan").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].starts_with("HashJoin on [c.c_id = o.o_c_id]"));
    assert!(lines[1].starts_with("  Scan "));
    assert!(lines[2].starts_with("  Scan "));
}

/// Every session is a read path: a write is refused at prepare, before any
/// store op, and runs through the executor instead.
#[test]
fn a_session_refuses_writes_and_the_executor_runs_them() {
    const INSERT: &str = "INSERT INTO Customer (c_id, c_name, c_group) VALUES (99, 'New', 'g9')";
    let session = Session::new(build_executor());
    let ops = session.executor().cluster().metrics().ops;
    for refusal in [
        session.prepare(INSERT).map(drop),
        session.prepare_uncached(INSERT).map(drop),
        session.execute_sql(INSERT, &[]).map(drop),
    ] {
        assert!(
            matches!(&refusal, Err(QueryError::Unsupported(m)) if m.contains("read path")),
            "{refusal:?}"
        );
    }
    assert_eq!(session.executor().cluster().metrics().ops, ops, "a refused write reached the store");
    assert_eq!(session.explain(INSERT).unwrap(), "Insert Customer\n");

    session.executor().execute_sql(INSERT, &[]).unwrap();
    let read = session
        .execute_sql("SELECT c_name FROM Customer WHERE c_id = 99", &[])
        .unwrap();
    assert_eq!(read.rows[0].get("c_name").unwrap(), &Value::str("New"));
}

/// Satellite: `QueryError` travels through `Box<dyn Error>` via `?` and
/// exposes a useful `Display`.
#[test]
fn query_error_is_a_std_error() {
    fn run() -> Result<(), Box<dyn Error>> {
        let session = Session::new(build_executor());
        session.execute_sql("SELECT * FROM Nonexistent", &[])?;
        Ok(())
    }
    let err = run().unwrap_err();
    assert_eq!(err.to_string(), "unknown table Nonexistent");
}

/// A toy rewriter that rewrites every SELECT to `LIMIT 1`, for isolation
/// tests (the real rule — Synergy's view substitution — lives upstream).
struct LimitOneRewriter;

impl query::PlanRewriter for LimitOneRewriter {
    fn rule_name(&self) -> &str {
        "limit-one"
    }

    fn rewrite_select(
        &self,
        select: &sql::SelectStatement,
    ) -> Option<(sql::SelectStatement, String)> {
        let mut rewritten = select.clone();
        rewritten.limit = Some(1);
        Some((rewritten, "forced LIMIT 1".to_string()))
    }
}

#[test]
fn with_rewriter_does_not_share_the_ancestor_plan_cache() {
    let plain = Session::new(build_executor());
    let sql = "SELECT * FROM Customer";
    // Warm the plain session's cache with the un-rewritten plan.
    assert_eq!(plain.execute_sql(sql, &[]).unwrap().len(), 10);

    // A rewriting clone must not serve (or poison) the ancestor's cache.
    let rewriting = plain.clone().with_rewriter(std::sync::Arc::new(LimitOneRewriter));
    assert_eq!(rewriting.execute_sql(sql, &[]).unwrap().len(), 1, "rewrite applies");
    assert_eq!(plain.execute_sql(sql, &[]).unwrap().len(), 10, "ancestor unaffected");
    assert_eq!(rewriting.plan_cache_stats().entries, 1);
    assert_eq!(plain.plan_cache_stats().entries, 1);
    assert!(rewriting.explain(sql).unwrap().starts_with("Rewrite [limit-one] forced LIMIT 1"));
}

#[test]
fn plan_cache_is_bounded() {
    let session = Session::new(build_executor());
    // Distinct statement texts (inlined literals) each take one entry; the
    // cache must stay bounded instead of growing with the workload.
    for i in 0..1_200 {
        session
            .execute_sql(&format!("SELECT * FROM Customer WHERE c_id = {i}"), &[])
            .unwrap();
    }
    let stats = session.plan_cache_stats();
    assert!(
        stats.entries <= 1_024,
        "cache must be capped, got {} entries",
        stats.entries
    );
    assert_eq!(stats.misses, 1_200, "every distinct text compiles once");
}
