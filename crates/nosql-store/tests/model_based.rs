//! Model-based property tests: the cluster must behave exactly like a simple
//! in-memory map of `row key → (column → value)` under arbitrary sequences
//! of puts, deletes, column deletes, increments, check-and-puts, the
//! before-image (`*_fetch`) write variants, gets and scans — with and
//! without region splits happening underneath.

use nosql_store::ops::{CheckAndPut, Delete, Expectation, Get, Increment, Put, Scan};
use nosql_store::{Cluster, ClusterConfig, ResultRow, TableSchema};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, column: u8, value: u8 },
    PutFetch { key: u8, column: u8, value: u8 },
    DeleteRow { key: u8 },
    DeleteFetch { key: u8 },
    DeleteColumn { key: u8, column: u8 },
    Increment { key: u8, amount: i8 },
    /// `expect`: `None` = the cell must be absent, `Some(v)` = must equal `v`.
    CheckAndPut { key: u8, column: u8, expect: Option<u8>, value: u8 },
    Get { key: u8 },
    ScanRange { start: u8, len: u8 },
}

/// Keys are drawn from a small space so check-and-puts, fetches and deletes
/// regularly hit rows earlier ops wrote.
fn key() -> impl Strategy<Value = u8> {
    0u8..48
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key(), 0u8..4, any::<u8>()).prop_map(|(key, column, value)| Op::Put {
            key,
            column,
            value
        }),
        (key(), 0u8..4, any::<u8>()).prop_map(|(key, column, value)| Op::PutFetch {
            key,
            column,
            value
        }),
        key().prop_map(|key| Op::DeleteRow { key }),
        key().prop_map(|key| Op::DeleteFetch { key }),
        (key(), 0u8..4).prop_map(|(key, column)| Op::DeleteColumn { key, column }),
        (key(), any::<i8>()).prop_map(|(key, amount)| Op::Increment { key, amount }),
        (key(), 0u8..4, proptest::option::of(0u8..4), 0u8..4).prop_map(
            |(key, column, expect, value)| Op::CheckAndPut {
                key,
                column,
                expect,
                value
            }
        ),
        key().prop_map(|key| Op::Get { key }),
        (key(), any::<u8>()).prop_map(|(start, len)| Op::ScanRange { start, len }),
    ]
}

fn key_str(key: u8) -> String {
    format!("row{key:03}")
}

fn col_str(column: u8) -> String {
    format!("c{column}")
}

/// Counters live in their own column so an increment never meets a 1-byte
/// put value (which the store rightly rejects as not-a-counter).
const COUNTER: &str = "n";

type ModelRow = BTreeMap<String, Vec<u8>>;

/// A stored row (or before-image) must equal the model's row, cell for cell.
fn assert_row_matches(
    stored: Option<&ResultRow>,
    expected: Option<&ModelRow>,
) -> Result<(), TestCaseError> {
    match expected {
        None => prop_assert!(stored.is_none()),
        Some(expected) => {
            let stored = stored.expect("row must exist");
            prop_assert_eq!(stored.cells.len(), expected.len());
            for (column, value) in expected {
                prop_assert_eq!(stored.value("cf", column), Some(&value[..]));
            }
        }
    }
    Ok(())
}

fn check_against_model(ops: &[Op], region_split_bytes: usize) -> Result<(), TestCaseError> {
    let cluster = Cluster::new(ClusterConfig {
        region_split_bytes,
        ..ClusterConfig::default()
    });
    cluster.create_table(TableSchema::new("t").with_family("cf")).unwrap();
    let mut model: BTreeMap<String, ModelRow> = BTreeMap::new();

    for op in ops.iter().cloned() {
        match op {
            Op::Put { key, column, value } => {
                cluster
                    .put("t", Put::new(key_str(key)).with("cf", col_str(column), vec![value]))
                    .unwrap();
                model.entry(key_str(key)).or_default().insert(col_str(column), vec![value]);
            }
            Op::PutFetch { key, column, value } => {
                let before = cluster
                    .put_fetch("t", Put::new(key_str(key)).with("cf", col_str(column), vec![value]))
                    .unwrap();
                assert_row_matches(before.as_ref(), model.get(&key_str(key)))?;
                model.entry(key_str(key)).or_default().insert(col_str(column), vec![value]);
            }
            Op::DeleteRow { key } => {
                let removed = cluster.delete("t", Delete::row(key_str(key))).unwrap();
                prop_assert_eq!(removed, model.remove(&key_str(key)).is_some());
            }
            Op::DeleteFetch { key } => {
                let before = cluster.delete_fetch("t", Delete::row(key_str(key))).unwrap();
                assert_row_matches(before.as_ref(), model.remove(&key_str(key)).as_ref())?;
            }
            Op::DeleteColumn { key, column } => {
                cluster
                    .delete("t", Delete::column(key_str(key), "cf", col_str(column)))
                    .unwrap();
                if let Some(row) = model.get_mut(&key_str(key)) {
                    row.remove(&col_str(column));
                    if row.is_empty() {
                        model.remove(&key_str(key));
                    }
                }
            }
            Op::Increment { key, amount } => {
                let value = cluster
                    .increment("t", Increment::new(key_str(key), "cf", COUNTER, amount.into()))
                    .unwrap();
                let cell = model.entry(key_str(key)).or_default().entry(COUNTER.into()).or_default();
                let current = cell.as_slice().try_into().map_or(0, i64::from_be_bytes);
                prop_assert_eq!(value, current + i64::from(amount));
                *cell = value.to_be_bytes().to_vec();
            }
            Op::CheckAndPut { key, column, expect, value } => {
                let expectation = match expect {
                    None => Expectation::Absent,
                    Some(v) => Expectation::Equals(vec![v]),
                };
                let applied = cluster
                    .check_and_put(
                        "t",
                        CheckAndPut::new(
                            key_str(key),
                            "cf",
                            col_str(column),
                            expectation,
                            Put::new(key_str(key)).with("cf", col_str(column), vec![value]),
                        ),
                    )
                    .unwrap();
                let current = model.get(&key_str(key)).and_then(|row| row.get(&col_str(column)));
                prop_assert_eq!(applied, current.cloned() == expect.map(|v| vec![v]));
                if applied {
                    model.entry(key_str(key)).or_default().insert(col_str(column), vec![value]);
                }
            }
            Op::Get { key } => {
                let stored = cluster.get("t", Get::new(key_str(key))).unwrap();
                assert_row_matches(stored.as_ref(), model.get(&key_str(key)))?;
            }
            Op::ScanRange { start, len } => {
                let stop = start.saturating_add(len);
                let rows = cluster
                    .scan("t", Scan::range(key_str(start), key_str(stop)))
                    .unwrap();
                let expected: Vec<&String> = model
                    .range(key_str(start)..key_str(stop))
                    .map(|(k, _)| k)
                    .collect();
                let actual: Vec<String> = rows.iter().map(|r| r.key_str()).collect();
                prop_assert_eq!(actual, expected.into_iter().cloned().collect::<Vec<_>>());
            }
        }
    }

    // Final full-scan comparison: same rows, in order, cell for cell.
    let rows = cluster.scan("t", Scan::all()).unwrap();
    prop_assert_eq!(rows.len(), model.len());
    for (row, (key, columns)) in rows.iter().zip(model.iter()) {
        prop_assert_eq!(&row.key_str(), key);
        assert_row_matches(Some(row), Some(columns))?;
    }
    // Storage accounting never goes negative / inconsistent.
    let metrics = cluster.metrics();
    prop_assert_eq!(metrics.tables["t"].rows as usize, model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cluster_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        // Once at the default threshold (one region throughout) and once at
        // a threshold a few rows wide, so every op kind also runs across
        // region splits it triggered itself.
        check_against_model(&ops, ClusterConfig::default().region_split_bytes)?;
        check_against_model(&ops, 256)?;
    }
}
