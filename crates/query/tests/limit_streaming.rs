//! Streaming-pipeline guarantees: a `LIMIT k` statement must touch a
//! store-row count bounded by `k` plus the cursor page size — independent
//! of the table's row count — and the executor's peak-rows-resident
//! instrumentation must reflect the bounded buffers.

use nosql_store::{Cluster, ClusterConfig, SCAN_PAGE_ROWS};
use query::{baseline, ColumnType, Executor};
use relational::{Relation, Row, Schema, Value};

fn orders_executor(rows: i64) -> Executor {
    let schema = Schema::new().with_relation(
        Relation::new("Orders")
            .attributes(["o_id", "o_total", "o_status"])
            .primary_key(["o_id"])
            .build(),
    );
    let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| match column {
        "o_id" => Some(ColumnType::Int),
        "o_total" => Some(ColumnType::Float),
        _ => Some(ColumnType::Str),
    });
    let cluster = Cluster::new(ClusterConfig::default());
    baseline::create_tables(&cluster, &catalog).unwrap();
    let exec = Executor::new(cluster, catalog);
    let batch: Vec<Row> = (1..=rows)
        .map(|o_id| {
            Row::new()
                .with("o_id", o_id)
                .with("o_total", (o_id % 500) as f64)
                .with("o_status", if o_id % 2 == 0 { "shipped" } else { "open" })
        })
        .collect();
    exec.bulk_load_rows("Orders", &batch).unwrap();
    exec
}

fn scanned_rows(exec: &Executor, sql: &str) -> u64 {
    let before = exec.cluster().metrics().ops;
    let result = exec.execute_sql(sql, &[]).unwrap();
    assert!(!result.rows.is_empty());
    exec.cluster().metrics().ops.delta_since(&before).scanned_rows
}

#[test]
fn bare_limit_pushes_the_row_limit_into_the_store() {
    let exec = orders_executor(2_000);
    let scanned = scanned_rows(&exec, "SELECT * FROM Orders LIMIT 5");
    assert_eq!(scanned, 5, "store scans exactly the limited rows");
}

#[test]
fn limit_store_rows_are_row_count_independent() {
    let small = orders_executor(500);
    let large = orders_executor(4_000);
    let q = "SELECT * FROM Orders LIMIT 25";
    assert_eq!(scanned_rows(&small, q), scanned_rows(&large, q));
}

#[test]
fn filtered_limit_scans_at_most_k_plus_one_page() {
    let exec = orders_executor(3_000);
    // The filter keeps every row but cannot be pushed to the store, so the
    // pipeline pulls lazily: at most one cursor page beyond the limit.
    let scanned = scanned_rows(&exec, "SELECT * FROM Orders WHERE o_total >= 0 LIMIT 5");
    assert!(
        scanned <= 5 + SCAN_PAGE_ROWS as u64,
        "scanned {scanned} rows for LIMIT 5"
    );
}

#[test]
fn page_boundary_limit_does_not_pull_an_extra_page() {
    let exec = orders_executor(3_000);
    // A limit landing exactly on the cursor page size: the consumer must
    // not pull one row past the limit, or a whole extra page gets fetched.
    let scanned = scanned_rows(
        &exec,
        &format!("SELECT * FROM Orders WHERE o_total >= 0 LIMIT {SCAN_PAGE_ROWS}"),
    );
    assert_eq!(scanned, SCAN_PAGE_ROWS as u64);
}

#[test]
fn limit_query_result_matches_unlimited_prefix() {
    let exec = orders_executor(600);
    let limited = exec.execute_sql("SELECT * FROM Orders LIMIT 10", &[]).unwrap();
    let full = exec.execute_sql("SELECT * FROM Orders", &[]).unwrap();
    assert_eq!(limited.rows, full.rows[..10]);
}

#[test]
fn order_by_limit_uses_a_bounded_buffer() {
    let exec = orders_executor(2_000);
    let top = exec
        .execute_sql("SELECT o_id FROM Orders ORDER BY o_id DESC LIMIT 3", &[])
        .unwrap();
    let ids: Vec<i64> = top
        .rows
        .iter()
        .filter_map(|r| match r.get("o_id") {
            Some(Value::Int(id)) => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(ids, vec![2_000, 1_999, 1_998]);
    assert!(
        top.peak_rows_resident <= 16,
        "top-k held {} rows resident",
        top.peak_rows_resident
    );

    let full = exec.execute_sql("SELECT o_id FROM Orders ORDER BY o_id DESC", &[]).unwrap();
    assert!(
        full.peak_rows_resident >= 2_000,
        "full sort must hold the whole input ({})",
        full.peak_rows_resident
    );
    assert_eq!(&full.rows[..3], &top.rows[..]);
}

#[test]
fn peak_rows_resident_is_reported_for_plain_limits() {
    let exec = orders_executor(2_000);
    let limited = exec.execute_sql("SELECT * FROM Orders LIMIT 7", &[]).unwrap();
    assert!(limited.peak_rows_resident >= 7);
    assert!(
        limited.peak_rows_resident <= 7 + SCAN_PAGE_ROWS,
        "LIMIT 7 held {} rows",
        limited.peak_rows_resident
    );
}
