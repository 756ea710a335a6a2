//! Model-based property tests: the cluster must behave exactly like a simple
//! in-memory map of `row key → column → timestamp → value` under arbitrary
//! sequences of puts (cluster-stamped and at explicit older timestamps),
//! deletes, column deletes, increments, check-and-puts, the before-image
//! (`*_fetch`) write variants, multi-version and time-bounded gets, scans
//! and major compactions — with and without region splits happening
//! underneath.  Value lengths straddle the inline capacity of `Val`, so
//! both of its arms are stored, read back and replaced.

use nosql_store::ops::{CheckAndPut, Delete, Expectation, Get, Increment, Put, Scan};
use nosql_store::{Cluster, ClusterConfig, ResultRow, TableSchema, Timestamp, Val};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// Versions a column keeps through a major compaction.
const MAX_VERSIONS: usize = 3;

/// Value lengths: empty, one byte, the longest inline value, the shortest
/// heap value, and a long one.
const LENGTHS: [usize; 5] = [0, 1, Val::INLINE_CAP, Val::INLINE_CAP + 1, 200];

#[derive(Debug, Clone)]
enum Expect {
    Absent,
    /// Whatever the model says the cell holds now (so the put applies
    /// whenever the cell exists).
    Current,
    /// A value the cell held at most by coincidence.
    Stale(u8),
}

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, column: u8, value: (u8, usize) },
    /// A put pinned `back` ticks below the column's newest version (or
    /// below the clock, for a column that does not exist yet).
    PutOlder { key: u8, column: u8, value: (u8, usize), back: u64 },
    PutFetch { key: u8, column: u8, value: (u8, usize) },
    DeleteRow { key: u8 },
    DeleteFetch { key: u8 },
    DeleteColumn { key: u8, column: u8 },
    Increment { key: u8, amount: i8 },
    CheckAndPut { key: u8, column: u8, expect: Expect, value: (u8, usize) },
    /// `up_to`: `None` = unbounded, `Some(pct)` = at or before that share
    /// of the timestamps handed out so far.
    Get { key: u8, versions: usize, up_to: Option<u64> },
    ScanRange { start: u8, len: u8 },
    MajorCompact,
}

/// Keys (and columns) are drawn from a small space so check-and-puts,
/// fetches, deletes and — above all — repeated and back-dated puts
/// regularly hit cells earlier ops wrote: a cell needs three or four
/// writes before the order of its older versions can go wrong.
fn key() -> impl Strategy<Value = u8> {
    0u8..16
}

fn column() -> impl Strategy<Value = u8> {
    0u8..3
}

fn value() -> impl Strategy<Value = (u8, usize)> {
    (any::<u8>(), 0usize..LENGTHS.len())
}

fn expect() -> impl Strategy<Value = Expect> {
    prop_oneof![
        Just(Expect::Absent),
        Just(Expect::Current),
        any::<u8>().prop_map(Expect::Stale),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key(), column(), value()).prop_map(|(key, column, value)| Op::Put { key, column, value }),
        (key(), column(), value()).prop_map(|(key, column, value)| Op::Put { key, column, value }),
        (key(), column(), value(), 1u64..8)
            .prop_map(|(key, column, value, back)| Op::PutOlder { key, column, value, back }),
        (key(), column(), value())
            .prop_map(|(key, column, value)| Op::PutFetch { key, column, value }),
        key().prop_map(|key| Op::DeleteRow { key }),
        key().prop_map(|key| Op::DeleteFetch { key }),
        (key(), column()).prop_map(|(key, column)| Op::DeleteColumn { key, column }),
        (key(), any::<i8>()).prop_map(|(key, amount)| Op::Increment { key, amount }),
        (key(), column(), expect(), value()).prop_map(|(key, column, expect, value)| {
            Op::CheckAndPut { key, column, expect, value }
        }),
        (key(), 1usize..4, proptest::option::of(0u64..101))
            .prop_map(|(key, versions, up_to)| Op::Get { key, versions, up_to }),
        (key(), 1usize..4, proptest::option::of(0u64..101))
            .prop_map(|(key, versions, up_to)| Op::Get { key, versions, up_to }),
        (key(), any::<u8>()).prop_map(|(start, len)| Op::ScanRange { start, len }),
        Just(Op::MajorCompact),
    ]
}

fn key_str(key: u8) -> String {
    format!("row{key:03}")
}

fn col_str(column: u8) -> String {
    format!("c{column}")
}

fn bytes((byte, length): (u8, usize)) -> Vec<u8> {
    vec![byte; LENGTHS[length]]
}

/// Counters live in their own column so an increment never meets a put
/// value (which the store rightly rejects as not-a-counter).
const COUNTER: &str = "n";

type Versions = BTreeMap<Timestamp, Vec<u8>>;
type ModelRow = BTreeMap<String, Versions>;

/// The shadow store.  Rows with no columns and columns with no versions
/// are never kept.
#[derive(Default)]
struct Model {
    rows: BTreeMap<String, ModelRow>,
}

impl Model {
    fn put(&mut self, key: &str, column: &str, ts: Timestamp, value: Vec<u8>) {
        self.rows
            .entry(key.to_string())
            .or_default()
            .entry(column.to_string())
            .or_default()
            .insert(ts, value);
    }

    fn newest(&self, key: &str, column: &str) -> Option<(Timestamp, &Vec<u8>)> {
        let (ts, value) = self.rows.get(key)?.get(column)?.last_key_value()?;
        Some((*ts, value))
    }

    /// What a read of `key` returns: per column in name order, its newest
    /// `versions` versions at or before `up_to`, newest first.
    fn read(
        &self,
        key: &str,
        versions: usize,
        up_to: Option<Timestamp>,
    ) -> Vec<(String, Timestamp, Vec<u8>)> {
        let Some(row) = self.rows.get(key) else {
            return Vec::new();
        };
        row.iter()
            .flat_map(|(column, history)| {
                history
                    .iter()
                    .rev()
                    .filter(|(ts, _)| up_to.is_none_or(|bound| **ts <= bound))
                    .take(versions)
                    .map(|(ts, value)| (column.clone(), *ts, value.clone()))
            })
            .collect()
    }

    fn delete_column(&mut self, key: &str, column: &str) {
        if let Some(row) = self.rows.get_mut(key) {
            row.remove(column);
            if row.is_empty() {
                self.rows.remove(key);
            }
        }
    }

    fn compact(&mut self) {
        for history in self.rows.values_mut().flat_map(BTreeMap::values_mut) {
            while history.len() > MAX_VERSIONS {
                history.pop_first();
            }
        }
    }
}

fn cells_of(stored: Option<&ResultRow>) -> Vec<(String, Timestamp, Vec<u8>)> {
    stored
        .map(|row| {
            row.cells
                .iter()
                .map(|c| (c.qualifier.to_string(), c.timestamp, c.value.to_vec()))
                .collect()
        })
        .unwrap_or_default()
}

fn check_against_model(ops: &[Op], region_split_bytes: usize) -> Result<(), TestCaseError> {
    let cluster = Cluster::new(ClusterConfig {
        region_split_bytes,
        ..ClusterConfig::default()
    });
    cluster
        .create_table(TableSchema::new("t").with_versioned_family("cf", MAX_VERSIONS))
        .unwrap();
    let mut model = Model::default();
    // Every write the cluster stamps itself takes the one timestamp handed
    // out right before this probe.
    let stamped = |cluster: &Cluster| cluster.next_timestamp() - 1;

    for op in ops.iter().cloned() {
        match op {
            Op::Put { key, column, value } => {
                let (key, column, value) = (key_str(key), col_str(column), bytes(value));
                cluster.put("t", Put::new(&*key).with("cf", &*column, value.clone())).unwrap();
                model.put(&key, &column, stamped(&cluster), value);
            }
            Op::PutOlder { key, column, value, back } => {
                let (key, column, value) = (key_str(key), col_str(column), bytes(value));
                let newest = model.newest(&key, &column).map(|(ts, _)| ts);
                let ts = newest.unwrap_or_else(|| cluster.next_timestamp()).saturating_sub(back);
                cluster
                    .put("t", Put::new(&*key).with("cf", &*column, value.clone()).at(ts))
                    .unwrap();
                model.put(&key, &column, ts, value);
            }
            Op::PutFetch { key, column, value } => {
                let (key, column, value) = (key_str(key), col_str(column), bytes(value));
                let before = cluster
                    .put_fetch("t", Put::new(&*key).with("cf", &*column, value.clone()))
                    .unwrap();
                prop_assert_eq!(cells_of(before.as_ref()), model.read(&key, 1, None));
                model.put(&key, &column, stamped(&cluster), value);
            }
            Op::DeleteRow { key } => {
                let removed = cluster.delete("t", Delete::row(key_str(key))).unwrap();
                prop_assert_eq!(removed, model.rows.remove(&key_str(key)).is_some());
            }
            Op::DeleteFetch { key } => {
                let before = cluster.delete_fetch("t", Delete::row(key_str(key))).unwrap();
                prop_assert_eq!(cells_of(before.as_ref()), model.read(&key_str(key), 1, None));
                model.rows.remove(&key_str(key));
            }
            Op::DeleteColumn { key, column } => {
                cluster
                    .delete("t", Delete::column(key_str(key), "cf", col_str(column)))
                    .unwrap();
                model.delete_column(&key_str(key), &col_str(column));
            }
            Op::Increment { key, amount } => {
                let key = key_str(key);
                let value = cluster
                    .increment("t", Increment::new(&*key, "cf", COUNTER, amount.into()))
                    .unwrap();
                let current = model
                    .newest(&key, COUNTER)
                    .map_or(0, |(_, v)| i64::from_be_bytes(v.as_slice().try_into().unwrap()));
                prop_assert_eq!(value, current + i64::from(amount));
                model.put(&key, COUNTER, stamped(&cluster), value.to_be_bytes().to_vec());
            }
            Op::CheckAndPut { key, column, expect, value } => {
                let (key, column, value) = (key_str(key), col_str(column), bytes(value));
                let current = model.newest(&key, &column).map(|(_, v)| v.clone());
                let expectation = match (&expect, &current) {
                    (Expect::Current, Some(current)) => Expectation::Equals(current.clone()),
                    (Expect::Stale(byte), _) => Expectation::Equals(vec![*byte]),
                    (Expect::Absent, _) | (Expect::Current, None) => Expectation::Absent,
                };
                let should_apply = match &expectation {
                    Expectation::Absent => current.is_none(),
                    Expectation::Equals(expected) => current.as_ref() == Some(expected),
                };
                let applied = cluster
                    .check_and_put(
                        "t",
                        CheckAndPut::new(
                            &*key,
                            "cf",
                            &*column,
                            expectation,
                            Put::new(&*key).with("cf", &*column, value.clone()),
                        ),
                    )
                    .unwrap();
                prop_assert_eq!(applied, should_apply);
                if applied {
                    model.put(&key, &column, stamped(&cluster), value);
                }
            }
            Op::Get { key, versions, up_to } => {
                let key = key_str(key);
                let bound = up_to.map(|pct| cluster.next_timestamp() * pct / 100);
                let mut get = Get::new(&*key).versions(versions);
                if let Some(bound) = bound {
                    get = get.up_to(bound);
                }
                let stored = cluster.get("t", get).unwrap();
                let expected = model.read(&key, versions, bound);
                prop_assert_eq!(stored.is_some(), !expected.is_empty());
                prop_assert_eq!(cells_of(stored.as_ref()), expected);
            }
            Op::ScanRange { start, len } => {
                let stop = start.saturating_add(len);
                let rows = cluster
                    .scan("t", Scan::range(key_str(start), key_str(stop)))
                    .unwrap();
                let expected: Vec<&String> = model
                    .rows
                    .range(key_str(start)..key_str(stop))
                    .map(|(k, _)| k)
                    .collect();
                let actual: Vec<String> = rows.iter().map(|r| r.key_str()).collect();
                prop_assert_eq!(actual, expected.into_iter().cloned().collect::<Vec<_>>());
            }
            Op::MajorCompact => {
                cluster.major_compact("t").unwrap();
                model.compact();
            }
        }
    }

    // Final full-scan comparison: same rows, in order, cell for cell, and
    // every surviving version of every row.
    let rows = cluster.scan("t", Scan::all()).unwrap();
    prop_assert_eq!(rows.len(), model.rows.len());
    for (row, key) in rows.iter().zip(model.rows.keys()) {
        prop_assert_eq!(&row.key_str(), key);
        prop_assert_eq!(cells_of(Some(row)), model.read(key, 1, None));
        let history = cluster.get("t", Get::new(&**key).versions(usize::MAX)).unwrap();
        prop_assert_eq!(cells_of(history.as_ref()), model.read(key, usize::MAX, None));
    }
    // Storage accounting never goes negative / inconsistent: it is the
    // modelled size of exactly the versions the model holds.
    let metrics = cluster.metrics();
    prop_assert_eq!(metrics.tables["t"].rows as usize, model.rows.len());
    let modelled: usize = model
        .rows
        .iter()
        .flat_map(|(key, row)| {
            row.iter().flat_map(move |(column, history)| {
                history.values().map(move |v| key.len() + 2 + column.len() + v.len() + 24)
            })
        })
        .sum();
    prop_assert_eq!(metrics.tables["t"].bytes as usize, modelled);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cluster_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        // Once at the default threshold (one region throughout) and once at
        // a threshold a few rows wide, so every op kind also runs across
        // region splits it triggered itself.
        check_against_model(&ops, ClusterConfig::default().region_split_bytes)?;
        check_against_model(&ops, 256)?;
    }
}
