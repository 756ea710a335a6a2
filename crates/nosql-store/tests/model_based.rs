//! Model-based property tests: the cluster must behave exactly like a simple
//! in-memory map of `row key → column → timestamp → value` under arbitrary
//! sequences of puts (cluster-stamped and at explicit older timestamps),
//! row deletes, check-and-puts, one-row `batch_fetch` writes (whose
//! before-images are checked), gets, scans and major compactions — with and
//! without region splits happening underneath.  Reads return only each
//! column's newest version; the versions the store retains are observed
//! through its storage accounting, checked after every op against the
//! modelled size of every version the model holds.  Value lengths straddle
//! the inline capacity of `Val`, so both of its arms are stored, read back
//! and replaced.

use nosql_store::ops::{CheckAndPut, Delete, Expectation, Get, Mutation, Put, Scan};
use nosql_store::{Cluster, ClusterConfig, ResultRow, TableSchema, Timestamp, Val};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

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
    CheckAndPut { key: u8, column: u8, expect: Expect, value: (u8, usize) },
    Get { key: u8 },
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
        (key(), column(), expect(), value()).prop_map(|(key, column, expect, value)| {
            Op::CheckAndPut { key, column, expect, value }
        }),
        key().prop_map(|key| Op::Get { key }),
        key().prop_map(|key| Op::Get { key }),
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

    /// What a read of `key` returns: the newest version of every column,
    /// in name order.
    fn read(&self, key: &str) -> Vec<(String, Timestamp, Vec<u8>)> {
        let Some(row) = self.rows.get(key) else {
            return Vec::new();
        };
        row.iter()
            .filter_map(|(column, history)| {
                let (ts, value) = history.last_key_value()?;
                Some((column.clone(), *ts, value.clone()))
            })
            .collect()
    }

    /// A major compaction keeps only the newest version of every column.
    fn compact(&mut self) {
        for history in self.rows.values_mut().flat_map(BTreeMap::values_mut) {
            while history.len() > 1 {
                history.pop_first();
            }
        }
    }

    /// The modelled storage size of every version held: names, value, 24
    /// bytes of per-cell overhead and the row key, per version.
    fn bytes(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|(key, row)| {
                row.iter().flat_map(move |(column, history)| {
                    history.values().map(move |v| key.len() + 2 + column.len() + v.len() + 24)
                })
            })
            .sum()
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
        .create_table(TableSchema::new("t").with_family("cf"))
        .unwrap();
    let mut model = Model::default();
    // Every write the cluster stamps itself takes the one timestamp handed
    // out right before this probe.
    let stamped = |cluster: &Cluster| cluster.next_timestamp() - 1;
    // A one-row batch that returns its row's before-image.
    let fetch = |row: Mutation| -> Option<ResultRow> {
        cluster.batch_fetch("t", &[row]).unwrap().pop().flatten()
    };

    for op in ops {
        match op.clone() {
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
                let before = fetch(Mutation::Put(Put::new(&*key).with("cf", &*column, value.clone())));
                prop_assert_eq!(cells_of(before.as_ref()), model.read(&key));
                model.put(&key, &column, stamped(&cluster), value);
            }
            Op::DeleteRow { key } => {
                let removed = cluster.delete("t", Delete::row(key_str(key))).unwrap();
                prop_assert_eq!(removed, model.rows.remove(&key_str(key)).is_some());
            }
            Op::DeleteFetch { key } => {
                let before = fetch(Mutation::Delete(Delete::row(key_str(key))));
                prop_assert_eq!(cells_of(before.as_ref()), model.read(&key_str(key)));
                model.rows.remove(&key_str(key));
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
            Op::Get { key } => {
                let key = key_str(key);
                let stored = cluster.get("t", Get::new(&*key)).unwrap();
                let expected = model.read(&key);
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
        // Version retention, op by op: the stored bytes are the modelled
        // size of exactly the versions the model holds, so a version kept
        // or dropped wrongly shows at the op that did it.
        let stats = cluster.table_stats("t").unwrap();
        prop_assert_eq!(stats.bytes as usize, model.bytes(), "after {:?}", op);
        prop_assert_eq!(stats.rows as usize, model.rows.len(), "after {:?}", op);
    }

    // Final full-scan comparison: same rows, in order, cell for cell.
    let rows = cluster.scan("t", Scan::all()).unwrap();
    prop_assert_eq!(rows.len(), model.rows.len());
    for (row, key) in rows.iter().zip(model.rows.keys()) {
        prop_assert_eq!(&row.key_str(), key);
        prop_assert_eq!(cells_of(Some(row)), model.read(key));
    }
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
