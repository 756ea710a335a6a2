//! Crash-at-every-WAL-position property tests.
//!
//! The durability contract under group commit: after `Cluster::crash` +
//! `Cluster::recover`, the store holds exactly the last checkpoint baseline
//! plus every *synced* WAL record — acked-but-unsynced writes are lost, and
//! nothing else is.  These tests pin that contract by crashing after **every
//! op position** of a generated workload and comparing the recovered state
//! against an independent `BTreeMap` shadow model of the acked-synced
//! writes.
//!
//! The model never looks at WAL entry payloads.  It only observes what
//! defines the ack/sync contract (which server log each record of an op was
//! appended to, and `unsynced_len`, the tail a crash drops) and recomputes
//! the expected state from the op semantics alone.  A multi-row
//! `Cluster::batch` appends one record per row, one group per region it
//! spans, possibly to several logs, so group commit can sync some of a
//! batch and a crash drop the rest: the model attributes a batch's records
//! to its rows by their stamps (a batch's rows are in key order, so its
//! regions — written in key order — stamp them in row order).  Region
//! splits can migrate a key range to another server mid-run, so the synced
//! rows are replayed in global (timestamp) order, exactly the order
//! `Cluster::recover` reconstructs across server logs.

use nosql_store::ops::{Delete, Get, Mutation, Put, Scan};
use nosql_store::{Cluster, ClusterConfig, TableSchema};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `row key → (column → value)`, the reference durable state.
type Model = BTreeMap<String, BTreeMap<String, u8>>;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, column: u8, value: u8 },
    DeleteRow { key: u8 },
    /// One `Cluster::batch` of single-row ops, in key order.
    Batch(Vec<Op>),
}

impl Op {
    fn key(&self) -> u8 {
        match self {
            Op::Put { key, .. } | Op::DeleteRow { key } => *key,
            Op::Batch(rows) => rows[0].key(),
        }
    }

    /// The single-row ops this op applies, in the order it stamps them.
    fn rows(&self) -> &[Op] {
        match self {
            Op::Batch(rows) => rows,
            single => std::slice::from_ref(single),
        }
    }
}

/// A batch of `rows` sorted by key, so its stamps follow its rows.
fn batch_of(mut rows: Vec<Op>) -> Op {
    rows.sort_by_key(Op::key);
    Op::Batch(rows)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        single_op_strategy(),
        single_op_strategy(),
        proptest::collection::vec(single_op_strategy(), 2..8).prop_map(batch_of),
    ]
}

fn single_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u8..4, any::<u8>()).prop_map(|(key, column, value)| Op::Put {
            key,
            column,
            value
        }),
        (any::<u8>(), 0u8..4, any::<u8>()).prop_map(|(key, column, value)| Op::Put {
            key,
            column,
            value
        }),
        any::<u8>().prop_map(|key| Op::DeleteRow { key }),
        any::<u8>().prop_map(|key| Op::DeleteRow { key }),
    ]
}

fn key_str(key: u8) -> String {
    format!("row{key:03}")
}

fn col_str(column: u8) -> String {
    format!("c{column}")
}

/// The store mutation of one single-row op.
fn mutation(op: &Op) -> Mutation {
    match op {
        Op::Put { key, column, value } => {
            Mutation::Put(Put::new(key_str(*key)).with("cf", col_str(*column), vec![*value]))
        }
        Op::DeleteRow { key } => Mutation::Delete(Delete::row(key_str(*key))),
        Op::Batch(_) => unreachable!("a batch is not one row"),
    }
}

fn apply_to_cluster(cluster: &Cluster, op: &Op) {
    match op {
        Op::Batch(rows) => {
            let rows: Vec<Mutation> = rows.iter().map(mutation).collect();
            cluster.batch("t", &rows).unwrap();
        }
        single => match mutation(single) {
            Mutation::Put(put) => cluster.put("t", put).unwrap(),
            Mutation::Delete(delete) => drop(cluster.delete("t", delete).unwrap()),
            other => unreachable!("no op maps to {other:?}"),
        },
    }
}

fn apply_to_model(model: &mut Model, op: &Op) {
    match op {
        Op::Batch(rows) => rows.iter().for_each(|row| apply_to_model(model, row)),
        Op::Put { key, column, value } => {
            model
                .entry(key_str(*key))
                .or_default()
                .insert(col_str(*column), *value);
        }
        Op::DeleteRow { key } => {
            model.remove(&key_str(*key));
        }
    }
}

/// Builds a cluster, bulk-populates 16 baseline rows and checkpoints them
/// (the memstore-flush durability boundary — bulk loads are volatile until
/// then).  Returns the cluster and the model of the checkpointed baseline.
fn populated_cluster(servers: usize, interval: usize) -> (Cluster, Model) {
    let cluster = Cluster::new(ClusterConfig {
        region_servers: servers,
        // Tiny split threshold so splits (and the key-range migration they
        // cause) happen during the op stream and are covered by the sweep.
        region_split_bytes: 512,
        wal_sync_interval: interval,
        ..ClusterConfig::default()
    });
    cluster
        .create_table(TableSchema::new("t").with_family("cf"))
        .unwrap();
    let mut baseline = Model::new();
    for key in (0u8..=255).step_by(16) {
        cluster
            .put(
                "t",
                Put::new(key_str(key)).with("cf", "c0", vec![b'b'; 48]),
            )
            .unwrap();
        // The model stores one-byte values; baseline cells are only ever
        // compared by presence + first byte below.
        baseline.entry(key_str(key)).or_default().insert(col_str(0), b'b');
    }
    cluster.checkpoint();
    (cluster, baseline)
}

fn assert_state_matches(cluster: &Cluster, model: &Model, context: &str) {
    let rows = cluster.scan("t", Scan::all()).unwrap();
    let actual_keys: Vec<String> = rows.iter().map(|r| r.key_str()).collect();
    let expected_keys: Vec<String> = model.keys().cloned().collect();
    assert_eq!(actual_keys, expected_keys, "{context}: surviving row keys");
    for row in &rows {
        let expected = &model[&row.key_str()];
        assert_eq!(
            row.cells.len(),
            expected.len(),
            "{context}: cell count of {}",
            row.key_str()
        );
        for (column, value) in expected {
            let stored = row
                .value("cf", column)
                .unwrap_or_else(|| panic!("{context}: missing {}/{column}", row.key_str()));
            assert_eq!(stored[0], *value, "{context}: value of {}/{column}", row.key_str());
        }
    }
}

/// Runs `ops[..crash_at]` on a fresh cluster, crashes, recovers, and checks
/// the recovered state against the shadow model of acked-synced writes.
/// Returns how many batches the crash cut: some rows kept, some lost.
fn crash_at_position(ops: &[Op], crash_at: usize, servers: usize, interval: usize) -> usize {
    let (cluster, baseline) = populated_cluster(servers, interval);
    let context = format!("servers={servers} interval={interval} crash_at={crash_at}");

    // Which (op index, row) landed in which server's log, in append order.
    let mut assigned: Vec<Vec<(usize, usize)>> = vec![Vec::new(); servers];
    let mut lens: Vec<usize> = (0..servers).map(|s| cluster.wal(s).len()).collect();
    for (index, op) in ops[..crash_at].iter().enumerate() {
        apply_to_cluster(&cluster, op);
        // The op's records across every log, in stamp order: its rows.
        let mut records = Vec::new();
        for (server, len) in lens.iter_mut().enumerate() {
            let entries = cluster.wal(server).entries();
            records.extend(entries[*len..].iter().map(|e| (e.op.timestamp().unwrap(), server)));
            *len = entries.len();
        }
        assert_eq!(records.len(), op.rows().len(), "{context}: op {index} logged one record per row");
        records.sort();
        for (row, (_, server)) in records.into_iter().enumerate() {
            assigned[server].push((index, row));
        }
    }

    // The crash drops each server's unsynced tail: the *last*
    // `unsynced_len` rows appended to that log — for a batch, possibly
    // some of its rows and not others.
    let mut lost: Vec<Vec<bool>> = ops[..crash_at].iter().map(|op| vec![false; op.rows().len()]).collect();
    let mut expect_dropped = 0;
    for server in 0..servers {
        let unsynced = cluster.wal(server).unsynced_len();
        assert!(unsynced <= assigned[server].len(), "{context}: unsynced tail bound");
        expect_dropped += unsynced;
        for &(index, row) in &assigned[server][assigned[server].len() - unsynced..] {
            lost[index][row] = true;
        }
    }

    // Per-server loss predictions, checked against the crash report.
    let expect_per_server: Vec<usize> =
        (0..servers).map(|s| cluster.wal(s).unsynced_len()).collect();
    let dropped = cluster.crash();
    assert_eq!(dropped.total(), expect_dropped, "{context}: dropped unsynced count");
    assert_eq!(
        dropped.lost_per_server, expect_per_server,
        "{context}: per-server loss attribution"
    );
    let report = cluster.recover();
    let records: usize = ops[..crash_at].iter().map(|op| op.rows().len()).sum();
    assert_eq!(
        report.replayed_entries as usize,
        records - expect_dropped,
        "{context}: replayed exactly the synced post-checkpoint records"
    );

    // Synced rows replay over the baseline in global (timestamp) order —
    // which, in this single-threaded sweep, is submission order.
    let mut model = baseline;
    for (index, op) in ops[..crash_at].iter().enumerate() {
        for (row, single) in op.rows().iter().enumerate() {
            if !lost[index][row] {
                apply_to_model(&mut model, single);
            }
        }
    }
    assert_state_matches(&cluster, &model, &context);
    lost.iter().filter(|rows| rows.contains(&true) && rows.contains(&false)).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline sweep: for a generated workload of single-row ops and
    /// multi-region batches and a group-commit interval, crash after
    /// **every** op — so at every WAL position a group-commit sync can cut
    /// a batch — at 1 and at 4 region servers, and check replay against the
    /// shadow model each time.
    #[test]
    fn recovery_matches_model_at_every_crash_position(
        ops in proptest::collection::vec(op_strategy(), 1..20),
        interval in 1usize..6,
    ) {
        for servers in [1usize, 4] {
            for crash_at in 0..=ops.len() {
                crash_at_position(&ops, crash_at, servers, interval);
            }
        }
    }
}

/// Group commit decides once per region, so a crash can keep some rows of
/// one batch and drop the rest; the sweep meets such cuts and replays them.
#[test]
fn a_crash_can_cut_a_batch_between_its_regions() {
    let ops: Vec<Op> = (0u8..6)
        .map(|i| batch_of((0u8..6).map(|r| Op::Put { key: r * 40 + i, column: 0, value: i }).collect()))
        .collect();
    let cuts: usize = (0..=ops.len()).map(|crash_at| crash_at_position(&ops, crash_at, 4, 3)).sum();
    assert!(cuts > 0, "no crash position cut a batch");
}

/// With `wal_sync_interval = 1` every write syncs before acking, so **no
/// acked write is ever lost**: the recovered state equals the full applied
/// state at every crash position, and the cluster stays writable afterwards.
#[test]
fn interval_one_loses_nothing_at_any_crash_position() {
    let ops: Vec<Op> = (0u8..24)
        .map(|i| match i % 5 {
            0 | 1 => Op::Put { key: i % 8, column: i % 4, value: i },
            2 => Op::DeleteRow { key: (i + 2) % 8 },
            3 => Op::DeleteRow { key: i % 8 },
            // A batch spanning the table's regions.
            _ => batch_of(vec![
                Op::Put { key: i.wrapping_mul(37), column: 1, value: i },
                Op::DeleteRow { key: i % 8 },
                Op::Put { key: 240 - i, column: 2, value: i },
            ]),
        })
        .collect();
    for servers in [1usize, 4] {
        for crash_at in 0..=ops.len() {
            let (cluster, mut model) = populated_cluster(servers, 1);
            for op in &ops[..crash_at] {
                apply_to_cluster(&cluster, op);
                apply_to_model(&mut model, op);
            }
            assert_eq!(cluster.crash().total(), 0, "interval=1 never has an unsynced tail");
            cluster.recover();
            let context = format!("interval=1 servers={servers} crash_at={crash_at}");
            assert_state_matches(&cluster, &model, &context);
            // The recovered cluster accepts and persists new writes.
            cluster
                .put("t", Put::new("post-recovery").with("cf", "c0", vec![1u8]))
                .unwrap();
            assert!(cluster.get("t", Get::new("post-recovery")).unwrap().is_some());
        }
    }
}

/// Recovery is idempotent: a second crash immediately after recovery (which
/// ends in a checkpoint) loses nothing and replays nothing.
#[test]
fn recovery_is_idempotent() {
    let (cluster, mut model) = populated_cluster(4, 3);
    for i in 0..10u8 {
        let op = Op::Put { key: i, column: 0, value: i };
        apply_to_cluster(&cluster, &op);
        apply_to_model(&mut model, &op);
    }
    cluster.wal(0).sync();
    cluster.checkpoint();
    cluster.crash();
    let first = cluster.recover();
    assert_eq!(first.replayed_entries, 0, "checkpoint covered the whole log");
    assert_state_matches(&cluster, &model, "after first recovery");
    assert_eq!(cluster.crash().total(), 0);
    let second = cluster.recover();
    assert_eq!(second.replayed_entries, 0);
    assert_state_matches(&cluster, &model, "after second recovery");
}

/// `recover()` called twice in a row — with **no crash in between** — is
/// idempotent.  `recover()` on a live cluster restores durable state
/// (baseline + synced log); since the first call ends in a checkpoint, the
/// second has nothing to replay and leaves the state untouched.
#[test]
fn recover_twice_in_a_row_without_a_crash_is_idempotent() {
    let (cluster, mut model) = populated_cluster(4, 3);
    for i in 0..9u8 {
        let op = Op::Put { key: i, column: 1, value: i };
        apply_to_cluster(&cluster, &op);
        apply_to_model(&mut model, &op);
    }
    // Checkpoint flushes the acked-unsynced tail, so the durable state the
    // recoveries below restore is exactly the fully-applied model.
    cluster.checkpoint();
    // A few post-checkpoint ops, force-synced across every log, give the
    // first recover() real work: 3 synced records to replay over baseline.
    for i in 9..12u8 {
        let op = Op::Put { key: i, column: 1, value: i };
        apply_to_cluster(&cluster, &op);
        apply_to_model(&mut model, &op);
    }
    for server in 0..4 {
        cluster.wal(server).sync();
    }
    let first = cluster.recover();
    assert_eq!(first.replayed_entries, 3, "the post-checkpoint batch replays");
    assert_state_matches(&cluster, &model, "after first recovery");
    let second = cluster.recover();
    assert_eq!(second.replayed_entries, 0, "first recovery checkpointed everything");
    assert_state_matches(&cluster, &model, "after back-to-back second recovery");
    let third = cluster.recover();
    assert_eq!(third.replayed_entries, 0);
    assert_state_matches(&cluster, &model, "recover() is idempotent at any arity");
}

/// Two full crash→recover cycles with op batches (driving region splits) in
/// between, checked against the shadow model after each recovery.  Interval
/// 1 keeps every acked write durable, so the model tracks all applied ops;
/// the tiny split threshold in `populated_cluster` makes the second batch
/// run against a different region map than the first.
#[test]
fn double_crash_recover_cycle_with_splits_matches_model() {
    let (cluster, mut model) = populated_cluster(4, 1);
    let regions_at = |c: &Cluster| c.table_stats("t").unwrap().regions;
    let batch = |offset: u8| -> Vec<Op> {
        (0u8..32)
            .map(|i| match i % 5 {
                0..=2 => Op::Put {
                    key: i.wrapping_mul(7).wrapping_add(offset),
                    column: i % 4,
                    value: i,
                },
                3 => Op::DeleteRow { key: i.wrapping_add(offset) },
                _ => Op::DeleteRow { key: i.wrapping_mul(3) },
            })
            .collect()
    };
    // Cycle 1.
    for op in &batch(40) {
        apply_to_cluster(&cluster, op);
        apply_to_model(&mut model, op);
    }
    assert_eq!(cluster.crash().total(), 0, "interval=1 leaves no unsynced tail");
    cluster.recover();
    assert_state_matches(&cluster, &model, "after crash/recover cycle 1");
    // Splits in between: wide filler rows push a region past the split
    // threshold, so cycle 2 runs against a changed region map.  (Recovery
    // restores the checkpoint's region boundaries, so the split is checked
    // here, before the second crash rolls the map back.)
    let before_fill = regions_at(&cluster);
    for j in 0..20u8 {
        let key = format!("fill{j:02}");
        cluster
            .put("t", Put::new(key.clone()).with("cf", "c0", vec![b'f'; 64]))
            .unwrap();
        model.entry(key).or_default().insert(col_str(0), b'f');
    }
    assert!(
        regions_at(&cluster) > before_fill,
        "the filler rows drove a split between the cycles"
    );
    // Cycle 2, against the split map.
    for op in &batch(90) {
        apply_to_cluster(&cluster, op);
        apply_to_model(&mut model, op);
    }
    assert_eq!(cluster.crash().total(), 0);
    cluster.recover();
    assert_state_matches(&cluster, &model, "after crash/recover cycle 2");
    // Still writable after the double cycle.
    cluster
        .put("t", Put::new("after-two-cycles").with("cf", "c0", vec![5u8]))
        .unwrap();
    assert!(cluster.get("t", Get::new("after-two-cycles")).unwrap().is_some());
}
