//! Replication-equivalence property tests.
//!
//! Region replication is pure redundancy: it must never change *what* the
//! store returns, only how available it stays through region-server crash
//! windows.  These tests pin the equivalence from both directions:
//!
//! 1. **Durability equivalence** — with no server faults, an RF ≥ 2 cluster
//!    crashed (whole-cluster) at *every* WAL position recovers to exactly
//!    the state of an RF = 1 shadow cluster fed the same ops.  Shipping is
//!    registry bookkeeping, so even the per-server loss profile matches.
//! 2. **Availability equivalence** — under a scheduled region-server crash
//!    plan, an RF ≥ 2 cluster serves every op through the windows (failing
//!    over, fencing the victim, catching it back up) and ends query-for-query
//!    equal to an RF = 1 shadow that never saw a fault.
//! 3. **Fencing** — after a failover, every stale epoch a zombie writer
//!    could present is refused with a non-retryable error.

use nosql_store::ops::{Delete, Get, Put, Scan};
use nosql_store::{Cluster, ClusterConfig, FaultPlan, RetryPolicy, StoreError, TableSchema};
use proptest::prelude::*;
use simclock::SimDuration;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, column: u8, value: u8 },
    DeleteRow { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
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

fn apply(cluster: &Cluster, op: &Op) {
    match op {
        Op::Put { key, column, value } => cluster
            .put(
                "t",
                Put::new(key_str(*key)).with("cf", col_str(*column), vec![*value]),
            )
            .unwrap(),
        Op::DeleteRow { key } => {
            cluster.delete("t", Delete::row(key_str(*key))).unwrap();
        }
    }
}

/// Builds a cluster with 8 checkpointed baseline rows, so whole-cluster
/// recovery has a non-trivial snapshot to restore under.
fn populated(servers: usize, interval: usize, rf: usize, plan: Option<FaultPlan>) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        region_servers: servers,
        // Tiny split threshold so region splits (and the key-range migration
        // they cause) are exercised by the generated workloads.
        region_split_bytes: 512,
        wal_sync_interval: interval,
        replication_factor: rf,
        fault_plan: plan,
        retry: Some(RetryPolicy::default()),
    });
    cluster
        .create_table(TableSchema::new("t").with_family("cf"))
        .unwrap();
    for key in (0u8..=255).step_by(32) {
        cluster
            .put("t", Put::new(key_str(key)).with("cf", "c0", vec![b'b'; 48]))
            .unwrap();
    }
    cluster.checkpoint();
    cluster
}

/// Logical table contents: `row key → column → newest value`.  Canonical
/// form for comparing two clusters that may have drawn different internal
/// timestamps (e.g. when one side retried through a fault).
fn canonical(cluster: &Cluster) -> BTreeMap<String, BTreeMap<String, Vec<u8>>> {
    cluster
        .scan("t", Scan::all())
        .unwrap()
        .into_iter()
        .map(|row| {
            let columns = row
                .cells
                .iter()
                .map(|c| (format!("{}:{}", c.family, c.qualifier), c.value.to_vec()))
                .collect();
            (row.key_str(), columns)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash the whole cluster after every op position and compare the
    /// recovered RF ≥ 2 cluster to an RF = 1 shadow fed the same prefix.
    /// Both the per-server loss report and the recovered rows (including
    /// cell timestamps — replication draws none of its own) must match.
    #[test]
    fn rf_cluster_recovers_identically_to_rf1_shadow_at_every_wal_position(
        ops in proptest::collection::vec(op_strategy(), 1..14),
        interval in 1usize..4,
        rf in 2usize..4,
    ) {
        for crash_at in 0..=ops.len() {
            let replicated = populated(3, interval, rf, None);
            let shadow = populated(3, interval, 1, None);
            for op in &ops[..crash_at] {
                apply(&replicated, op);
                apply(&shadow, op);
            }
            let lost_rf = replicated.crash();
            let lost_shadow = shadow.crash();
            prop_assert_eq!(
                &lost_rf.lost_per_server, &lost_shadow.lost_per_server,
                "replication must not change which acked-unsynced writes a crash drops"
            );
            replicated.recover();
            shadow.recover();
            prop_assert_eq!(
                replicated.scan("t", Scan::all()).unwrap(),
                shadow.scan("t", Scan::all()).unwrap(),
                "recovered state diverged at crash position {}", crash_at
            );
            prop_assert_eq!(
                replicated.row_count("t").unwrap(),
                shadow.row_count("t").unwrap()
            );
        }
    }
}

/// A scheduled two-crash run: every op must succeed through the windows, at
/// least one failover must fire, the rejoined victims must catch up, and the
/// final state must equal a fault-free RF = 1 shadow's — zero acked loss.
#[test]
fn failover_run_matches_fault_free_shadow_with_zero_acked_loss() {
    for rf in [2usize, 3] {
        let plan = FaultPlan::new(0xFA11).with_crashes(
            vec![SimDuration::from_millis(3), SimDuration::from_millis(25)],
            SimDuration::from_millis(8),
        );
        let replicated = populated(3, 1, rf, Some(plan));
        let shadow = populated(3, 1, 1, None);

        let ops: Vec<Op> = (0..60u8)
            .map(|i| match i % 5 {
                0..=2 => Op::Put {
                    key: i % 16,
                    column: i % 3,
                    value: i,
                },
                3 => Op::DeleteRow { key: i % 16 },
                _ => Op::Put {
                    key: 200 + i % 16,
                    column: 0,
                    value: i,
                },
            })
            .collect();
        for op in &ops {
            apply(&replicated, op);
            apply(&shadow, op);
        }

        let stats = replicated.replication_stats();
        assert!(stats.failovers >= 1, "rf={rf}: no failover fired: {stats:?}");
        assert!(
            stats.catchup_replays >= 1 && stats.catchup_records >= 1,
            "rf={rf}: rejoined victim never caught up: {stats:?}"
        );
        assert_eq!(
            stats.replica_lag, 0,
            "rf={rf}: all replicas should be in sync once every victim rejoined"
        );
        assert_eq!(
            canonical(&replicated),
            canonical(&shadow),
            "rf={rf}: replicated run diverged from fault-free shadow"
        );

        // With wal_sync_interval = 1 every acked write is synced, so even a
        // whole-cluster crash right now loses nothing.
        let lost = replicated.crash();
        assert_eq!(lost.total(), 0, "rf={rf}: acked-synced writes were lost");
        replicated.recover();
        assert_eq!(canonical(&replicated), canonical(&shadow), "rf={rf}: post-recovery");
    }
}

/// After a failover bumps a region's epoch, every stale epoch a zombie
/// primary could still hold is fenced with a non-retryable error, while the
/// current epoch keeps writing.
#[test]
fn every_stale_epoch_is_fenced_after_failover() {
    let plan = FaultPlan::new(7).with_crashes(
        vec![SimDuration::from_nanos(1)],
        SimDuration::from_millis(500),
    );
    let cluster = populated(2, 1, 2, Some(plan));

    // Any op advances faults past the crash time and fails the victim over.
    cluster.get("t", Get::new(key_str(0))).unwrap();
    let (region, epoch) = cluster.region_epoch_for("t", key_str(0).as_bytes()).unwrap();
    assert!(epoch >= 1, "failover should have bumped the epoch");

    for stale in 0..epoch {
        let put = Put::new(key_str(0)).with("cf", "c0", vec![b'z']);
        let err = cluster.put_fenced("t", put, stale).unwrap_err();
        assert_eq!(
            err,
            StoreError::StaleRegionEpoch {
                region,
                current: epoch,
                presented: stale
            }
        );
        assert!(!err.retryable(), "fencing must not be retried away");
    }
    let put = Put::new(key_str(0)).with("cf", "c0", vec![b'w']);
    cluster.put_fenced("t", put, epoch).unwrap();
    assert_eq!(
        cluster
            .get("t", Get::new(key_str(0)))
            .unwrap()
            .unwrap()
            .value("cf", "c0"),
        Some(&[b'w'][..])
    );
}
