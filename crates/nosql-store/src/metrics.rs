//! Cluster metrics: operation counters and storage accounting.
//!
//! Storage accounting underlies the reproduction of the paper's Table III
//! (database sizes across evaluated systems); operation counters are used by
//! tests and the benchmark harness to explain *why* one system is slower
//! than another (e.g. how many RPCs a join issued).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts of each API operation executed by the cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// Number of Get operations.
    pub gets: u64,
    /// Number of Put operations.
    pub puts: u64,
    /// Number of Delete operations.
    pub deletes: u64,
    /// Always 0: the store has no increment operation.  The field stays
    /// for callers that still sum it.
    pub increments: u64,
    /// Number of CheckAndPut operations.
    pub check_and_puts: u64,
    /// Number of Scan operations.
    pub scans: u64,
    /// Total rows returned by scans.
    pub scanned_rows: u64,
    /// Total bytes returned by scans.
    pub scanned_bytes: u64,
}

impl OpCounters {
    /// Per-field difference `self - earlier`, useful for measuring one
    /// statement's footprint.
    pub fn delta_since(&self, earlier: &OpCounters) -> OpCounters {
        OpCounters {
            gets: self.gets - earlier.gets,
            puts: self.puts - earlier.puts,
            deletes: self.deletes - earlier.deletes,
            increments: self.increments - earlier.increments,
            check_and_puts: self.check_and_puts - earlier.check_and_puts,
            scans: self.scans - earlier.scans,
            scanned_rows: self.scanned_rows - earlier.scanned_rows,
            scanned_bytes: self.scanned_bytes - earlier.scanned_bytes,
        }
    }
}

/// The cluster's live operation counters: one [`AtomicU64`] per field so
/// parallel scan workers (and any other concurrent clients) bump metrics
/// without serializing on a mutex.  [`AtomicOpCounters::snapshot`] produces
/// the plain [`OpCounters`] the public [`ClusterMetrics`] API exposes —
/// counter *sums* are the half of the parallel merge rule that is additive
/// (elapsed sim time merges as a max; see `simclock::merge_elapsed`).
#[derive(Debug, Default)]
pub(crate) struct AtomicOpCounters {
    pub(crate) gets: AtomicU64,
    pub(crate) puts: AtomicU64,
    pub(crate) deletes: AtomicU64,
    pub(crate) check_and_puts: AtomicU64,
    pub(crate) scans: AtomicU64,
    pub(crate) scanned_rows: AtomicU64,
    pub(crate) scanned_bytes: AtomicU64,
}

impl AtomicOpCounters {
    /// Bumps one counter.  Relaxed ordering suffices: counters are
    /// monotonic tallies, never used to synchronize other memory.
    pub(crate) fn bump(field: &AtomicU64, by: u64) {
        field.fetch_add(by, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub(crate) fn snapshot(&self) -> OpCounters {
        OpCounters {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            increments: 0,
            check_and_puts: self.check_and_puts.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            scanned_rows: self.scanned_rows.load(Ordering::Relaxed),
            scanned_bytes: self.scanned_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Region-replication counters, exposed by
/// [`crate::Cluster::replication_stats`].  All zero (and
/// `replicated_regions == 0`) when `replication_factor <= 1` — replication
/// off is the byte-identical legacy configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationStats {
    /// Configured `ClusterConfig::replication_factor`.
    pub replication_factor: usize,
    /// Regions currently tracked by the replication registry.
    pub replicated_regions: usize,
    /// Synced WAL records shipped to followers (one count per record per
    /// follower that acknowledged it in-sync).
    pub records_shipped: u64,
    /// Region failovers performed (a follower promoted to primary).
    pub failovers: u64,
    /// Catch-up replays performed by rejoining replicas (one per region a
    /// rejoining server had fallen behind on).
    pub catchup_replays: u64,
    /// Total shipped records replayed during catch-ups.
    pub catchup_records: u64,
    /// Current total follower lag: Σ (shipped − acked) over every follower
    /// of every region.  Zero when all replicas are in sync.
    pub replica_lag: u64,
}

/// Storage statistics for one table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableMetrics {
    /// Number of stored rows.
    pub rows: u64,
    /// Approximate stored bytes.
    pub bytes: u64,
    /// Number of regions the table is split into.
    pub regions: usize,
}

/// A snapshot of the whole cluster's metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterMetrics {
    /// Operation counters since cluster creation.
    pub ops: OpCounters,
    /// Per-table storage statistics.
    pub tables: BTreeMap<String, TableMetrics>,
}

impl ClusterMetrics {
    /// Total stored bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.bytes).sum()
    }

    /// Total stored rows across all tables.
    pub fn total_rows(&self) -> u64 {
        self.tables.values().map(|t| t.rows).sum()
    }

    /// Resident rows of one table (0 when the table is unknown).  Under
    /// partial view materialization the stored slice of a view *is* its
    /// resident slice, so for `V_*` tables this reports exactly the rows a
    /// residency budget bounds.
    pub fn resident_rows(&self, table: &str) -> u64 {
        self.tables.get(table).map(|t| t.rows).unwrap_or(0)
    }

    /// Resident bytes of one table (0 when the table is unknown; same
    /// residency reading as [`ClusterMetrics::resident_rows`]).
    pub fn resident_bytes(&self, table: &str) -> u64 {
        self.tables.get(table).map(|t| t.bytes).unwrap_or(0)
    }

    /// Per-table `(resident rows, resident bytes)` for tables whose names
    /// satisfy `pred`, in name order — the report prints this for `V_*`
    /// tables next to the residency counters.
    pub fn resident_where(&self, pred: impl Fn(&str) -> bool) -> Vec<(String, u64, u64)> {
        self.tables
            .iter()
            .filter(|(name, _)| pred(name))
            .map(|(name, t)| (name.clone(), t.rows, t.bytes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_tables() {
        let mut m = ClusterMetrics::default();
        m.tables.insert(
            "a".into(),
            TableMetrics {
                rows: 10,
                bytes: 100,
                regions: 1,
            },
        );
        m.tables.insert(
            "view_a".into(),
            TableMetrics {
                rows: 5,
                bytes: 50,
                regions: 1,
            },
        );
        assert_eq!(m.total_bytes(), 150);
        assert_eq!(m.total_rows(), 15);
        assert_eq!(m.resident_rows("view_a"), 5);
        assert_eq!(m.resident_bytes("view_a"), 50);
        assert_eq!(m.resident_rows("missing"), 0);
        assert_eq!(
            m.resident_where(|n| n.starts_with("view_")),
            vec![("view_a".to_string(), 5, 50)]
        );
    }

    #[test]
    fn atomic_counters_snapshot_matches_bumps() {
        let counters = AtomicOpCounters::default();
        AtomicOpCounters::bump(&counters.gets, 3);
        AtomicOpCounters::bump(&counters.scans, 1);
        AtomicOpCounters::bump(&counters.scanned_rows, 100);
        let snap = counters.snapshot();
        let expected = OpCounters { gets: 3, scans: 1, scanned_rows: 100, ..OpCounters::default() };
        assert_eq!(snap, expected, "no other counter moves");
    }

    #[test]
    fn op_counter_delta() {
        let earlier = OpCounters {
            gets: 5,
            puts: 2,
            ..OpCounters::default()
        };
        let now = OpCounters {
            gets: 9,
            puts: 2,
            scans: 1,
            scanned_rows: 100,
            ..OpCounters::default()
        };
        let delta = now.delta_since(&earlier);
        assert_eq!(delta.gets, 4);
        assert_eq!(delta.puts, 0);
        assert_eq!(delta.scans, 1);
    }
}
