//! The cluster cost model.
//!
//! Each field is the simulated cost of one primitive in the storage,
//! transaction or execution layer.  The defaults are calibrated so that the
//! *structural* results of the paper hold:
//!
//! * joins in the NoSQL store are slow because every participating table is
//!   scanned, shipped and re-shuffled between executor stages
//!   (`join_shuffle_row`, `join_probe`), while a materialized-view scan
//!   streams a single pre-computed table (`scan_next_row`, `scan_byte`);
//! * MVCC transactions (Phoenix + Tephra in the paper) pay two transaction
//!   server round trips plus conflict detection, a fixed ~0.85 s per
//!   statement overhead (`mvcc_begin`, `mvcc_commit`), matching the 800–900
//!   ms the paper reports in §IX-D4;
//! * acquiring a row lock is a `checkAndPut` RPC, so many-lock transactions
//!   are dominated by lock traffic (Fig. 11);
//! * the NewSQL engine executes partition-local work in memory on a single
//!   thread with no per-row RPC, making it the fastest but least expressive
//!   system (Fig. 12 / Fig. 14).

use crate::clock::SimDuration;

/// Simulated cost of every primitive used by the reproduction.
///
/// All costs are deterministic.  See the module documentation for the
/// calibration rationale; see `EXPERIMENTS.md` for the measured outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Client ⇄ region-server round-trip latency charged once per RPC
    /// (Get/Put/Delete/CheckAndPut, one per region of a multi-row batch,
    /// and per scan batch).
    pub rpc_latency: SimDuration,
    /// Cost of opening a scanner on one region.
    pub scan_open: SimDuration,
    /// Per-row cost of streaming rows out of a scanner.
    pub scan_next_row: SimDuration,
    /// Per-byte cost of streaming scan results to the client.
    pub scan_byte_ns: u64,
    /// Number of rows returned per scan RPC batch.
    pub scan_batch_rows: u64,
    /// Server-side work for a point Get.
    pub get_server_work: SimDuration,
    /// Server-side work for a Put (memstore insert).
    pub put_server_work: SimDuration,
    /// Durability (WAL sync) cost charged per write RPC (the paper's
    /// cluster logged to EBS SSD volumes).
    pub wal_sync: SimDuration,
    /// Server-side work for an atomic CheckAndPut (used by lock tables).
    pub check_and_put_work: SimDuration,
    /// Server-side work for a Delete.
    pub delete_server_work: SimDuration,
    /// Per-row cost of moving an intermediate row between join stages
    /// (the "data transfer latency" the paper blames for slow joins).
    pub join_shuffle_row: SimDuration,
    /// Per-probe cost into the build side of a hash join.
    pub join_probe: SimDuration,
    /// Per-cell cost of MVCC version visibility filtering.
    pub version_check: SimDuration,
    /// Transaction-server round trip to begin an MVCC transaction.
    pub mvcc_begin: SimDuration,
    /// Transaction-server round trip to commit an MVCC transaction
    /// (conflict detection + commit record persistence).
    pub mvcc_commit: SimDuration,
    /// NewSQL (VoltDB-class) per-statement dispatch to the owning partition.
    pub newsql_dispatch: SimDuration,
    /// NewSQL per-row operator cost (in-memory, single threaded).
    pub newsql_row_op: SimDuration,
    /// NewSQL cost of broadcasting a write to a replicated table.
    pub newsql_broadcast: SimDuration,
    /// NewSQL per-write durability cost (synchronous intra-cluster
    /// replication / command logging).
    pub newsql_write_durability: SimDuration,
    /// Client-side per-result-row processing cost.
    pub client_row_process: SimDuration,
    /// Fixed cost of bringing a crashed cluster back (region reassignment,
    /// lease and metadata recovery) before WAL replay starts.
    pub recovery_base: SimDuration,
    /// Per-entry cost of replaying a synced WAL record during recovery.
    pub wal_replay_entry: SimDuration,
    /// Cost of shipping one synced WAL record to one follower replica
    /// (region replication, `ClusterConfig::replication_factor > 1`).
    /// Shipping rides the group-commit flush, so a batch of `n` records to
    /// `f` followers charges `n * f` of this on the batch-closing write.
    /// Never charged when replication is off.
    pub replica_ship: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rpc_latency: SimDuration::from_micros(900),
            scan_open: SimDuration::from_micros(1_200),
            scan_next_row: SimDuration::from_nanos(1_500),
            scan_byte_ns: 2,
            scan_batch_rows: 1_000,
            get_server_work: SimDuration::from_micros(120),
            put_server_work: SimDuration::from_micros(150),
            wal_sync: SimDuration::from_micros(6_000),
            check_and_put_work: SimDuration::from_micros(350),
            delete_server_work: SimDuration::from_micros(140),
            join_shuffle_row: SimDuration::from_nanos(12_000),
            join_probe: SimDuration::from_nanos(3_500),
            version_check: SimDuration::from_nanos(900),
            mvcc_begin: SimDuration::from_millis(260),
            mvcc_commit: SimDuration::from_millis(590),
            newsql_dispatch: SimDuration::from_micros(450),
            newsql_row_op: SimDuration::from_nanos(650),
            newsql_broadcast: SimDuration::from_micros(1_800),
            newsql_write_durability: SimDuration::from_micros(9_000),
            client_row_process: SimDuration::from_nanos(250),
            recovery_base: SimDuration::from_millis(50),
            wal_replay_entry: SimDuration::from_micros(20),
            replica_ship: SimDuration::from_micros(400),
        }
    }
}

impl CostModel {
    /// Cost of a single client ⇄ server RPC round trip.
    pub fn rpc_round_trip(&self) -> SimDuration {
        self.rpc_latency
    }

    /// Total cost of a point Get.
    pub fn get_cost(&self) -> SimDuration {
        self.rpc_latency + self.get_server_work
    }

    /// Server-side work of one put row carrying `cells` cell values.
    pub fn put_work(&self, cells: usize) -> SimDuration {
        self.put_server_work + SimDuration::from_nanos(200 * cells as u64)
    }

    /// Total cost of one mutation RPC to one region whose rows need `work`
    /// server work in total: one round trip and one WAL sync however many
    /// rows it carries.
    pub fn batch_cost(&self, work: SimDuration) -> SimDuration {
        self.rpc_latency + work + self.wal_sync
    }

    /// Total cost of scanning `rows` rows totalling `bytes` bytes.
    ///
    /// A scan pays one scanner-open, one RPC per `scan_batch_rows` batch and
    /// per-row / per-byte streaming costs.  The store charges a scan page
    /// by page; this closed form is the reference its tests sum against.
    // lint-allow(reachability): reference formula of the store's cursor_charges_the_closed_form_scan_cost test
    pub fn scan_cost(&self, rows: u64, bytes: u64) -> SimDuration {
        let batches = rows.div_ceil(self.scan_batch_rows).max(1);
        self.scan_open
            + self.rpc_latency * batches
            + self.scan_next_row * rows
            + SimDuration::from_nanos(self.scan_byte_ns * bytes)
    }

    /// Cost of shuffling `rows` intermediate rows between join stages.
    pub fn shuffle_cost(&self, rows: u64) -> SimDuration {
        self.join_shuffle_row * rows
    }

    /// Cost of `probes` probes into a hash-join build table.
    pub fn probe_cost(&self, probes: u64) -> SimDuration {
        self.join_probe * probes
    }

    /// Cost of MVCC visibility filtering over `cells` cell versions.
    pub fn mvcc_filter_cost(&self, cells: u64) -> SimDuration {
        self.version_check * cells
    }

    /// Cost of a partition-local NewSQL statement touching `rows` rows.
    pub fn newsql_statement_cost(&self, rows: u64, replicated_write: bool) -> SimDuration {
        let broadcast = if replicated_write {
            self.newsql_broadcast
        } else {
            SimDuration::ZERO
        };
        self.newsql_dispatch + self.newsql_row_op * rows + broadcast
    }

    /// Cost of one NewSQL write statement touching `rows` rows: the
    /// partition-local work plus synchronous replication / command logging.
    pub fn newsql_write_cost(&self, rows: u64, replicated_write: bool) -> SimDuration {
        self.newsql_statement_cost(rows, replicated_write) + self.newsql_write_durability
    }

    /// Client-side cost of materializing `rows` result rows.
    pub fn client_result_cost(&self, rows: u64) -> SimDuration {
        self.client_row_process * rows
    }

    /// Cost of recovering a crashed cluster by replaying `entries` synced
    /// WAL records over the last durable checkpoint.
    pub fn recovery_cost(&self, entries: u64) -> SimDuration {
        self.recovery_base + self.wal_replay_entry * entries
    }

    /// Cost of shipping synced WAL records to follower replicas:
    /// `ship_events` is records × reachable followers (each record/follower
    /// pair is one intra-cluster transfer + follower memstore apply).
    pub fn replication_ship_cost(&self, ship_events: u64) -> SimDuration {
        self.replica_ship * ship_events
    }

    /// Cost of a rejoining replica catching up by replaying `records`
    /// shipped-log records it missed while it was down.
    pub fn catchup_replay_cost(&self, records: u64) -> SimDuration {
        self.wal_replay_entry * records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_structural_ordering() {
        let m = CostModel::default();
        // One MVCC round trip dwarfs a locked write's lock traffic: this is
        // the core reason Synergy writes beat the MVCC systems (Fig. 14).
        assert!(m.mvcc_begin + m.mvcc_commit > m.batch_cost(m.check_and_put_work) * 20);
        // Scanning a row out of a view is cheaper than shuffling and probing
        // the same row through a join: the reason views win (Fig. 10).
        assert!(m.scan_next_row < m.join_shuffle_row + m.join_probe);
        // NewSQL partition-local execution beats any RPC-per-op system.
        assert!(m.newsql_statement_cost(10, false) < m.get_cost());
    }

    #[test]
    fn a_batch_of_one_costs_its_single_row_op_and_n_rows_share_one_rpc_and_sync() {
        let m = CostModel::default();
        let closed_put = |cells: u64| {
            m.rpc_latency
                + m.put_server_work
                + SimDuration::from_nanos(200 * cells)
                + m.wal_sync
        };
        for cells in [1usize, 4, 37] {
            assert_eq!(m.batch_cost(m.put_work(cells)), closed_put(cells as u64));
        }
        let closed_delete = m.rpc_latency + m.delete_server_work + m.wal_sync;
        assert_eq!(m.batch_cost(m.delete_server_work), closed_delete);
        // n rows: one round trip, one sync, n rows of server work.
        let n = 110u64;
        let rows = m.put_work(2) * n;
        assert_eq!(
            m.batch_cost(rows),
            m.rpc_latency + m.wal_sync + m.put_work(2) * n
        );
        assert_eq!(
            m.batch_cost(m.put_work(2)) * n - m.batch_cost(rows),
            (m.rpc_latency + m.wal_sync) * (n - 1),
            "a batch saves n - 1 round trips and syncs"
        );
    }

    #[test]
    fn scan_cost_scales_with_rows_and_bytes() {
        let m = CostModel::default();
        let small = m.scan_cost(100, 100 * 64);
        let large = m.scan_cost(100_000, 100_000 * 64);
        assert!(large > small * 50);
    }

    #[test]
    fn replication_costs_scale_with_ship_events() {
        let m = CostModel::default();
        assert_eq!(m.replication_ship_cost(0), SimDuration::ZERO);
        assert_eq!(m.replication_ship_cost(10), m.replica_ship * 10);
        // Shipping one record is cheaper than a client RPC: followers sit on
        // the cluster fabric, not behind the client round trip.
        assert!(m.replica_ship < m.rpc_latency);
        assert_eq!(m.catchup_replay_cost(5), m.wal_replay_entry * 5);
    }

    #[test]
    fn scan_cost_charges_per_batch_rpc() {
        let m = CostModel::default();
        let one_batch = m.scan_cost(10, 0);
        let three_batches = m.scan_cost(2_500, 0);
        // 2500 rows => 3 batches => at least 2 extra RPC latencies.
        assert!(three_batches > one_batch + m.rpc_latency * 2);
    }
}
