//! Property test: the executor's hash join (shared-segment rows, interned
//! join keys, residual-condition elision) must agree with a naive
//! nested-loop reference join computed directly from the generated data, on
//! randomized schemas (payload width) and row sets.

use nosql_store::{Cluster, ClusterConfig, TableSchema};
use proptest::prelude::*;
use query::{Catalog, ColumnType, Executor, TableDef, TableKind};
use relational::{Row, Value};

/// One generated left row: key, join value, payload seed.
type GenRow = (i64, i64, i64);

/// The integer `column` of `row`.
fn int(row: &Row, column: &str) -> i64 {
    match row.get(column) {
        Some(Value::Int(v)) => *v,
        other => panic!("{column} is not an integer: {other:?}"),
    }
}

fn build_executor(payload_cols: usize) -> Executor {
    let mut left_columns = vec![
        ("l_id".to_string(), ColumnType::Int),
        ("l_k".to_string(), ColumnType::Int),
    ];
    let mut right_columns = vec![
        ("r_id".to_string(), ColumnType::Int),
        ("r_k".to_string(), ColumnType::Int),
    ];
    for p in 0..payload_cols {
        left_columns.push((format!("l_p{p}"), ColumnType::Str));
        right_columns.push((format!("r_p{p}"), ColumnType::Str));
    }
    let mut catalog = Catalog::new();
    catalog.add_table(TableDef::new(
        "JoinLeft",
        left_columns,
        vec!["l_id".to_string()],
        TableKind::Base,
    ));
    catalog.add_table(TableDef::new(
        "JoinRight",
        right_columns,
        vec!["r_id".to_string()],
        TableKind::Base,
    ));
    let cluster = Cluster::new(ClusterConfig::default());
    cluster
        .create_table(TableSchema::new("JoinLeft").with_family("cf"))
        .unwrap();
    cluster
        .create_table(TableSchema::new("JoinRight").with_family("cf"))
        .unwrap();
    Executor::new(cluster, catalog)
}

fn load(executor: &Executor, table: &str, prefix: &str, rows: &[GenRow], payload_cols: usize) {
    for (id, k, seed) in rows {
        let mut row = Row::new()
            .with(format!("{prefix}_id"), *id)
            .with(format!("{prefix}_k"), *k);
        for p in 0..payload_cols {
            row.set(format!("{prefix}_p{p}"), format!("v{seed}_{p}"));
        }
        executor.insert_row(table, &row).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `SELECT * FROM JoinLeft AS l, JoinRight AS r WHERE l.l_k = r.r_k`
    /// must return exactly the id pairs a nested loop over the generated
    /// data produces, with every output row carrying both sides' attributes.
    #[test]
    fn hash_join_matches_nested_loop_reference(
        payload_cols in 0usize..3,
        left in proptest::collection::vec((0i64..40, 0i64..6, 0i64..1000), 0..25),
        right in proptest::collection::vec((100i64..140, 0i64..6, 0i64..1000), 0..25),
    ) {
        // De-duplicate primary keys (last wins, matching store semantics).
        let dedup = |rows: &[GenRow]| -> Vec<GenRow> {
            let mut out: Vec<GenRow> = Vec::new();
            for row in rows {
                out.retain(|(id, _, _)| id != &row.0);
                out.push(*row);
            }
            out
        };
        let left = dedup(&left);
        let right = dedup(&right);

        let executor = build_executor(payload_cols);
        load(&executor, "JoinLeft", "l", &left, payload_cols);
        load(&executor, "JoinRight", "r", &right, payload_cols);

        let result = executor
            .execute_sql(
                "SELECT * FROM JoinLeft AS l, JoinRight AS r WHERE l.l_k = r.r_k",
                &[],
            )
            .unwrap();

        // Reference: nested loop over the generated data.
        let mut expected: Vec<(i64, i64)> = Vec::new();
        for (lid, lk, _) in &left {
            for (rid, rk, _) in &right {
                if lk == rk {
                    expected.push((*lid, *rid));
                }
            }
        }
        expected.sort_unstable();

        let mut actual: Vec<(i64, i64)> = result
            .rows
            .iter()
            .map(|row| {
                (
                    int(row, "l.l_id"),
                    int(row, "r.r_id"),
                )
            })
            .collect();
        actual.sort_unstable();
        prop_assert_eq!(actual, expected);

        // Spot-check full row content: every output row must carry both
        // halves' attributes consistent with its id pair.
        for row in &result.rows {
            let lid = int(row, "l.l_id");
            let rid = int(row, "r.r_id");
            let (_, lk, lseed) = left.iter().find(|(id, _, _)| *id == lid).unwrap();
            let (_, rk, rseed) = right.iter().find(|(id, _, _)| *id == rid).unwrap();
            prop_assert_eq!(int(row, "l.l_k"), *lk);
            prop_assert_eq!(int(row, "r.r_k"), *rk);
            prop_assert_eq!(row.len(), 2 * (2 + payload_cols));
            for p in 0..payload_cols {
                prop_assert_eq!(
                    row.get(&format!("l.l_p{p}")).unwrap().as_str().unwrap(),
                    format!("v{lseed}_{p}")
                );
                prop_assert_eq!(
                    row.get(&format!("r.r_p{p}")).unwrap().as_str().unwrap(),
                    format!("v{rseed}_{p}")
                );
            }
        }
    }
}
