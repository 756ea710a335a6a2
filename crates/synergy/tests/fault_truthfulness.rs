//! Faults may fail a Synergy operation, never falsify it — the deployment
//! twin of `crates/query/tests/fault_truthfulness.rs`.
//!
//! A deployment whose store times out 3–5 % of its operations (no retry
//! policy: the first fault fails the operation) runs beside a fault-free twin
//! holding the same data, over 200 seeds:
//!
//! * `materialize_views` fails or materializes every view row;
//! * after every **acked** `UPDATE Orders` / `UPDATE Customer`, each stored
//!   view equals `recompute_view_rows` — an acked transaction rewrote every
//!   view row it owed;
//! * under a view budget, every `Ok` answer to Q1K / Q2K is the twin's, on
//!   the read that fills the key and on three later reads — a key is absent
//!   or complete, never resident with a subset of its rows — and no reader
//!   pin outlives its read; a resident key stays so when a maintenance write
//!   to it fails halfway, its view row stored and its index row not.
//!
//! Each of these used to come back short when a scan lost a page, because a
//! cursor's failure was an early end-of-stream.

use nosql_store::ops::Scan;
use nosql_store::{Cluster, ClusterConfig, FaultPlan, StoreError};
use query::{baseline, ColumnType, Executor, QueryError, RowWrite};
use relational::{Index, Relation, Row, Schema, Value};
use sql::{parse_statement, Statement};
use synergy::{SynergyConfig, SynergySystem, TxnError, ViewResidency};

const CUSTOMERS: i64 = 6;
const ORDERS: i64 = 120;
/// Enough lines that `Order_line` spans three store pages.
const LINES_PER_ORDER: i64 = 5;
/// Rows of `V_Customer_Orders` plus rows of `V_Customer_Orders_Order_line`.
const VIEW_ROWS: usize = (ORDERS + ORDERS * LINES_PER_ORDER) as usize;
const SEEDS: u64 = 200;

fn micro_schema() -> Schema {
    let customer = Relation::new("Customer")
        .attributes(["c_id", "c_uname", "c_discount"])
        .primary_key(["c_id"])
        .build();
    let orders = Relation::new("Orders")
        .attributes(["o_id", "o_c_id", "o_total"])
        .primary_key(["o_id"])
        .foreign_key("o_c_id", "Customer", "c_id")
        .build();
    let order_line = Relation::new("Order_line")
        .attributes(["ol_o_id", "ol_id", "ol_qty"])
        .primary_key(["ol_o_id", "ol_id"])
        .foreign_key("ol_o_id", "Orders", "o_id")
        .build();
    Schema::new()
        .with_relation(customer)
        .with_relation(orders)
        .with_relation(order_line)
}

fn micro_types(_relation: &str, column: &str) -> Option<ColumnType> {
    match column {
        "c_id" | "o_id" | "o_c_id" | "ol_o_id" | "ol_id" | "ol_qty" => Some(ColumnType::Int),
        "c_discount" | "o_total" => Some(ColumnType::Float),
        _ => Some(ColumnType::Str),
    }
}

/// Q1/Q2 plus their keyed variants Q1K/Q2K.
fn workload() -> Vec<Statement> {
    [
        "SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id",
        "SELECT * FROM Customer AS c, Orders AS o, Order_line AS ol \
         WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id",
        "SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id AND o.o_id = ?",
        "SELECT * FROM Customer AS c, Orders AS o, Order_line AS ol \
         WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id AND ol.ol_o_id = ?",
    ]
    .iter()
    .map(|q| parse_statement(q).unwrap())
    .collect()
}

/// Customer 1 owns order 1 alone — an `UPDATE Customer` a 3–5 % fault rate
/// can let through (6 view rows) — and customers 2–6 share the rest.
fn customer_of(o_id: i64) -> i64 {
    if o_id == 1 {
        1
    } else {
        2 + o_id % (CUSTOMERS - 1)
    }
}

/// A deployment over the micro schema with its base tables bulk-loaded
/// (never faulted) and its views not yet materialized.
fn deployment(plan: Option<FaultPlan>, view_budget: Option<u64>) -> SynergySystem {
    let mut config = SynergyConfig::new(
        micro_schema(),
        workload(),
        vec!["Customer".to_string()],
        &micro_types,
    );
    if let Some(budget) = view_budget {
        config = config.with_view_budget(budget);
    }
    let cluster = Cluster::new(ClusterConfig {
        fault_plan: plan,
        ..ClusterConfig::default()
    });
    let system = SynergySystem::build(cluster, config).unwrap();
    let customers: Vec<Row> = (1..=CUSTOMERS)
        .map(|c_id| {
            Row::new()
                .with("c_id", c_id)
                .with("c_uname", format!("UNAME{c_id:04}"))
                .with("c_discount", (c_id % 5) as f64 / 100.0)
        })
        .collect();
    system.bulk_load("Customer", &customers).unwrap();
    let mut orders = Vec::new();
    let mut lines = Vec::new();
    for o_id in 1..=ORDERS {
        orders.push(
            Row::new()
                .with("o_id", o_id)
                .with("o_c_id", customer_of(o_id))
                .with("o_total", 100.0 + (o_id % 50) as f64),
        );
        for ol_id in 1..=LINES_PER_ORDER {
            let qty = (ol_id % 3) + 1;
            lines.push(Row::new().with("ol_o_id", o_id).with("ol_id", ol_id).with("ol_qty", qty));
        }
    }
    system.bulk_load("Orders", &orders).unwrap();
    system.bulk_load("Order_line", &lines).unwrap();
    system
}

/// 3, 4 or 5 % timeouts, by seed.
fn timeouts(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_timeouts(0.03 + 0.01 * (seed % 3) as f64)
}

/// Retries a faulted operation until it succeeds.
fn until_ok<T, E: std::fmt::Debug>(mut op: impl FnMut() -> Result<T, E>) -> T {
    let mut last = None;
    for _ in 0..10_000 {
        match op() {
            Ok(value) => return value,
            Err(error) => last = Some(error),
        }
    }
    panic!("no success in 10000 attempts; last error {last:?}");
}

/// Canonical multiset form of a row set: per-row sorted (column, value)
/// pairs, rows sorted.
fn canonical(rows: &[Row]) -> Vec<Vec<(String, String)>> {
    let mut out: Vec<Vec<(String, String)>> = rows
        .iter()
        .map(|r| {
            let mut cols: Vec<(String, String)> =
                r.iter().map(|(k, v)| (k.to_string(), format!("{v:?}"))).collect();
            cols.sort();
            cols
        })
        .collect();
    out.sort();
    out
}

/// Asserts every stored view equals its defining join, recomputed — both
/// read around the faults.  No view row may carry a set dirty marker.
fn assert_views_equal_their_joins(system: &SynergySystem, at: &str) {
    for view in &system.selection().views {
        let table = view.table_name();
        let def = system.catalog().table(&table).unwrap();
        let stored = until_ok(|| system.cluster().scan(&table, Scan::all()));
        let dirty = stored
            .iter()
            .filter(|row| row.value(query::FAMILY, query::DIRTY_MARKER) == Some(b"1".as_slice()))
            .count();
        assert_eq!(dirty, 0, "{at}: {table} left dirty markers");
        let stored: Vec<Row> = stored.iter().map(|row| def.decode_row(row)).collect();
        let expected = until_ok(|| system.recompute_view_rows(view));
        assert!(
            canonical(&stored) == canonical(&expected),
            "{at}: {table} holds {} rows that differ from its join's {}",
            stored.len(),
            expected.len()
        );
    }
}

#[test]
fn materialization_is_complete_or_fails_and_acked_updates_keep_views_equal_to_joins() {
    let update_orders = parse_statement("UPDATE Orders SET o_total = ? WHERE o_id = ?").unwrap();
    let update_customer =
        parse_statement("UPDATE Customer SET c_discount = ? WHERE c_id = ?").unwrap();
    let (mut refused, mut acked) = (0, 0);
    for seed in 0..SEEDS {
        let system = deployment(Some(timeouts(seed)), None);
        match system.materialize_views() {
            Ok(done) => assert_eq!(done.rows, VIEW_ROWS, "seed {seed}: a short materialization"),
            Err(TxnError::Query(QueryError::Store(_))) => {
                refused += 1;
                let done = until_ok(|| system.materialize_views());
                assert_eq!(done.rows, VIEW_ROWS, "seed {seed}");
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }

        // Updates until the first one a fault fails: a failed transaction
        // may stop anywhere, an acked one owes every view row.
        for i in 0..8i64 {
            let (statement, id) = match i % 4 {
                3 => (&update_customer, 1),
                _ => (&update_orders, (seed as i64 * 7 + i) % ORDERS + 1),
            };
            let value = Value::Float(i as f64 + seed as f64 / 1_000.0);
            match system.execute(statement, &[value, Value::Int(id)]) {
                Ok(result) => {
                    assert_eq!(result.rows_affected, 1, "seed {seed} update {i}");
                    acked += 1;
                    assert_views_equal_their_joins(&system, &format!("seed {seed}, acked update {i}"));
                }
                Err(TxnError::Query(QueryError::Store(_))) => break,
                Err(other) => panic!("seed {seed} update {i}: unexpected error {other}"),
            }
        }
    }
    assert!(refused > 20, "only {refused} of {SEEDS} materializations met a fault");
    assert!(acked > 60, "only {acked} updates were acked — too few to judge");
}

#[test]
fn a_key_under_a_view_budget_is_absent_or_complete() {
    let [_, _, q1k, q2k]: [Statement; 4] = workload().try_into().unwrap();
    let twin = deployment(None, None);
    twin.materialize_views().unwrap();
    let answer = |system: &SynergySystem, statement: &Statement, key: i64| {
        system
            .execute(statement, &[Value::Int(key)])
            .map(|result| canonical(&result.rows))
    };
    let (mut failed, mut answered) = (0, 0);
    for seed in 0..SEEDS {
        // A budget of a few keys' rows, so fills evict under faults too.
        let system = deployment(Some(timeouts(seed)), Some(3_000));
        let residency = system.residency().unwrap().clone();
        for i in 0..6 {
            let key = (seed as i64 * 13 + i * 7) % ORDERS + 1;
            for statement in [&q1k, &q2k] {
                let expected = answer(&twin, statement, key).unwrap();
                // The filling read, then three reads of the (maybe) resident key.
                for read in 0..4 {
                    match answer(&system, statement, key) {
                        Ok(rows) => {
                            answered += 1;
                            assert!(
                                rows == expected,
                                "seed {seed} key {key} read {read}: {} rows for the twin's {}",
                                rows.len(),
                                expected.len()
                            );
                        }
                        Err(TxnError::Query(QueryError::Store(error))) => {
                            assert!(matches!(error, StoreError::RpcTimeout { .. }), "{error}");
                            failed += 1;
                        }
                        Err(other) => panic!("seed {seed} key {key}: unexpected error {other}"),
                    }
                    assert_eq!(residency.pins_held(), 0, "seed {seed} key {key} read {read}");
                }
            }
        }
    }
    assert!(failed > 100, "only {failed} reads met a fault");
    assert!(answered > 1_000, "only {answered} reads were answered");
}

/// A maintenance batch whose view rows are stored but whose index batch
/// times out fails — and leaves its key absent, not resident short of the
/// stored row that eviction would then never delete.
#[test]
fn a_view_write_that_fails_after_its_rows_are_stored_leaves_its_key_absent_or_complete() {
    let schema = Schema::new()
        .with_relation(
            Relation::new("V").attributes(["v_k", "v_n", "v_tag"]).primary_key(["v_k", "v_n"]).build(),
        )
        .with_index(Index::new("V_by_tag", "V", ["v_tag"], ["v_tag"]));
    let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| match column {
        "v_k" | "v_n" => Some(ColumnType::Int),
        _ => Some(ColumnType::Str),
    });
    // Every row shares the one residency key `v_k = 1`.
    let row = |n: i64| Row::new().with("v_k", 1i64).with("v_n", n).with("v_tag", format!("t{n}"));
    let mut torn = 0;
    for seed in 0..SEEDS {
        let cluster = Cluster::new(ClusterConfig {
            fault_plan: Some(FaultPlan::new(seed).with_timeouts(0.3)),
            ..ClusterConfig::default()
        });
        baseline::create_tables(&cluster, &catalog).unwrap();
        let exec = Executor::new(cluster, catalog.clone());
        let def = exec.catalog().table("V").unwrap().clone();
        let residency = ViewResidency::new(u64::MAX);
        let prefix = ViewResidency::prefix_of(&def, &row(0));
        let filled: Vec<Row> = (0..3).map(row).collect();
        until_ok(|| {
            residency.lookup("V", &prefix);
            residency.complete_fill(&exec, &def, &prefix, &filled)
        });
        residency.unpin("V", &prefix);
        let stored = || until_ok(|| exec.cluster().scan("V", Scan::all())).len();
        for n in 10..18 {
            let before = stored();
            let write = vec![RowWrite::Upsert(row(n))];
            let failed = residency.apply_view_writes(&exec, &def, write).is_err();
            let after = stored();
            torn += usize::from(failed && after > before);
            if residency.snapshot().resident_keys == 0 {
                break;
            }
            assert_eq!(residency.snapshot().resident_rows as usize, after, "seed {seed} write {n}");
        }
    }
    assert!(torn > 20, "only {torn} writes failed after storing their view row");
}

/// The write pipeline's step 6 under a failed probe: the transaction fails
/// before its first write and the hierarchical lock is free again, so the
/// next write under the same root is refused by its own probe, not as locked.
#[test]
fn a_failed_delta_probe_fails_the_update_before_its_first_write_and_frees_the_lock() {
    let system = deployment(None, None);
    system.materialize_views().unwrap();
    // The probe of an Orders delta prefix-scans Order_line: take it away.
    system.cluster().drop_table("Order_line").unwrap();
    let writes_before = system.cluster().metrics().ops.puts;
    for sql_text in [
        "UPDATE Orders SET o_total = 1.5 WHERE o_id = 7",
        "UPDATE Customer SET c_discount = 0.5 WHERE c_id = 1",
    ] {
        let error = system.execute_sql(sql_text, &[]).unwrap_err();
        assert_eq!(
            error,
            TxnError::Query(QueryError::Store(StoreError::TableNotFound("Order_line".into()))),
            "{sql_text}"
        );
        assert!(!system.locks().is_held("Customer", "1").unwrap(), "{sql_text}: lock leaked");
    }
    assert_eq!(system.cluster().metrics().ops.puts, writes_before, "a failed probe wrote");
}
