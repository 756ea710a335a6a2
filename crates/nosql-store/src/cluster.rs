//! The simulated cluster: table administration, request routing, cost
//! charging, fault injection and storage accounting.
//!
//! A [`Cluster`] plays the role of the paper's HBase layer (HBase + HDFS +
//! ZooKeeper on eight EC2 nodes).  Tables are split into [`Region`]s hosted
//! by a configurable number of region servers; every client-visible
//! operation charges its simulated cost (RPC round trip, server work, WAL
//! sync, scan streaming) into the shared [`SimClock`].
//!
//! # The mutation pipeline
//!
//! Every client write — put, fenced put, delete, check-and-put, and the
//! multi-row [`Cluster::batch`] / [`Cluster::batch_fetch`] — is one call of
//! `Cluster::mutate` over a list of rows (a single-row op is a batch of
//! one), which runs these steps in this order:
//!
//! 1. table lookup (so `TableNotFound` beats `ClusterDown`);
//! 2. `precheck`: the crashed flag, then any due crash / rejoin events; then
//!    every put row's cells are checked against the schema, so a malformed
//!    row refuses the batch before anything is drawn or charged;
//! 3. take the table's region **write** lock;
//! 4. route every row key to its region; the rows of one region form one
//!    group (one RPC), groups in region key order, rows in batch order;
//! 5. `inject_faults` once per group against its region's server, every
//!    group before any applies — a faulted attempt charges its penalty,
//!    draws no timestamp, applies and logs nothing and counts nothing;
//! 6. for a fenced put, the epoch check — a stale writer is charged one RPC
//!    round trip, refused, and bumps nothing;
//!
//! then per group, in order:
//!
//! 7. draw one mutation timestamp per row — under the region lock, so
//!    versions written to one row order like lock acquisitions; deletes
//!    draw one too, so replay can sequence them against puts from other
//!    server logs;
//! 8. apply — each row builds its [`WalOp`], applies it through
//!    [`Region::apply_op`] and appends it to the server's WAL, or declines
//!    (a failed check-and-put);
//! 9. one group-commit decision for the group's records — under group
//!    commit the batch-closing write pays the sync and, with replication
//!    on, the ship cost of the whole batch; a group that logged nothing
//!    pays full cost, skips step 10;
//! 10. split check on the mutated region, once after its rows; count the
//!     group as one op, on its first row's counter;
//!
//! 11. unlock; charge each group `CostModel::batch_cost` of its rows'
//!     server work (one round trip, one WAL sync).
//!
//! The order is a contract, not an implementation detail: the fault
//! figures' sim identity depends on the exact sequence of clock reads, RNG
//! draws, timestamp draws and charges.  Reads (`get`, scan pages) share
//! steps 1–2 and 4–5 under the region *read* lock, then charge and read.
//! Opening a scan runs step 1 and the crashed-flag half of step 2 — so a
//! missing table, then a crashed cluster, refuse the open before anything is
//! charged — and leaves the crash schedule to its first page's `precheck`.
//!
//! # Failure model
//!
//! Three layers, all deterministic:
//!
//! * **Injected op faults** ([`FaultPlan`]): every charged op first advances
//!   the crash schedule (region servers go down at fixed sim instants for
//!   their MTTR) and then draws from a seeded RNG for RPC timeouts,
//!   transient errors and slow-region spikes.  Failed attempts charge their
//!   penalty and return a [`StoreError::retryable`] error.
//! * **Client retries** ([`RetryPolicy`]): public ops wrap their one-attempt
//!   bodies in capped exponential backoff charged to the sim clock, so a
//!   down server's MTTR window passes *during* the backoff.
//! * **Durability** (WAL + checkpoint): writes append full-payload
//!   [`WalOp`]s to their server's log; with `wal_sync_interval > 1` the sync
//!   is deferred (group commit) and only the syncing write pays
//!   `effective_wal_sync`.  The durable state is the last
//!   [`Cluster::checkpoint`] snapshot plus all *synced* WAL records;
//!   [`Cluster::crash`] drops everything else and [`Cluster::recover`]
//!   rebuilds exactly that state by timestamp-ordered replay (both in
//!   `recovery.rs`).  Replica placement, failover and fencing epochs live
//!   in `replication.rs`.
//!
//! With no fault plan and no retry policy configured (the default), the hot
//! path adds a single branch per op: no RNG draws, no extra charges, and
//! figures are byte-identical to a build without this module.

use crate::error::{StoreError, StoreResult};
use crate::fault::{FaultDraw, FaultPlan, FaultState, FaultStats};
use crate::metrics::{AtomicOpCounters, ClusterMetrics, ReplicationStats, TableMetrics};
use crate::ops::{CheckAndPut, Delete, Get, Mutation, Put, Scan};
use crate::region::{check_cells, Region, RegionId, RegionServerId};
use crate::replication::Replication;
use crate::retry::{RetryPolicy, RetryRuntime};
use crate::table::{ResultRow, TableSchema};
use crate::wal::{WalOp, WriteAheadLog};
use crate::{Name, Timestamp};
use parking_lot::RwLock;
use simclock::{CostModel, SimClock, SimDuration, SimInstant};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of region servers (the paper uses five slave nodes).  Changed
    /// by `fig_availability`.
    pub region_servers: usize,
    /// A region is split once it exceeds this many bytes.  No figure or
    /// benchmark workload changes it; the split, scan-stream, parallel-scan
    /// and crash-replay suites shrink it to force multi-region tables.
    pub region_split_bytes: usize,
    /// Group-commit interval: a write syncs its server's WAL once the
    /// unsynced batch reaches this many records.  `1` (the default) syncs
    /// every write — full durability, and cost accounting identical to a
    /// store without group commit.  Larger intervals defer the sync cost to
    /// the batch-closing write but leave acked writes vulnerable to a crash.
    /// Raised by the benchmark's `tpcw_order` workload.
    pub wal_sync_interval: usize,
    /// Deterministic fault schedule; `None` (the default) injects nothing
    /// and adds no RNG draws or charges to any op.  Set by `fig_faults`,
    /// `fault_matrix` and `fig_availability`.
    pub fault_plan: Option<FaultPlan>,
    /// Client-side retry policy wrapped around every public op; `None` (the
    /// default) fails ops on the first fault.  Set by `fig_faults`,
    /// `fault_matrix` and `fig_availability`.
    pub retry: Option<RetryPolicy>,
    /// Copies of each region: a primary plus `replication_factor - 1`
    /// followers on deterministically chosen servers.  With a factor > 1,
    /// every group-commit flush ships the newly synced records to the
    /// region's followers (cost: `CostModel::replica_ship` per record per
    /// follower), and a scheduled server crash **fails over** the victim's
    /// regions to their most-caught-up live follower instead of stalling
    /// them for the MTTR window.  The default of `1` disables replication
    /// entirely: no registry, no extra charges, figures byte-identical to a
    /// build without this feature.  Raised by `fig_availability`,
    /// `fault_matrix` (RF 2 and 3) and the benchmark's `tpcw_order`.
    pub replication_factor: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            region_servers: 5,
            region_split_bytes: 8 * 1024 * 1024,
            wal_sync_interval: 1,
            fault_plan: None,
            retry: None,
            replication_factor: 1,
        }
    }
}

/// One table: its schema and its region lock, which every op on the table
/// takes from every client.  Aligned to 128 bytes (two cache lines, the
/// unit adjacent-line prefetch moves) so the lock never shares a line with
/// another table's state or with a neighbouring allocation another thread
/// writes.  Measured with two clients on a 2-core x86-64 box: without the
/// alignment, which table state happened to sit next to what moved
/// `tpcw_browse`'s `read_p50_us` by 20 %.
#[repr(align(128))]
pub(crate) struct TableState {
    pub(crate) schema: TableSchema,
    /// The table's name as every WAL record of the table carries it.
    log_name: Name,
    pub(crate) regions: RwLock<Vec<Region>>,
}

impl TableState {
    /// Row / byte / region counts.  Reads region metadata only and is
    /// uncharged by design — no simulated cost, no operation counter — so
    /// planners can consult statistics freely (e.g. the query optimizer's
    /// cardinality estimates) without perturbing measured figures.
    fn stats(&self) -> TableMetrics {
        let regions = self.regions.read();
        TableMetrics {
            rows: regions.iter().map(|r| r.row_count() as u64).sum(),
            bytes: regions.iter().map(|r| r.byte_size() as u64).sum(),
            regions: regions.len(),
        }
    }
}

/// The simulated HBase-class cluster.
///
/// Cheap to clone; clones share all state (tables, clock, metrics), mirroring
/// multiple clients holding connections to the same cluster.
///
/// Each handle carries its own **charge sink** clock: ordinarily the shared
/// cluster clock, but region-parallel scans rebind their modelled workers'
/// handles to private clocks (see [`Cluster::par_scan_stream`]) so
/// per-worker sim deltas can be merged deterministically (max for elapsed,
/// sum for counters).
#[derive(Clone)]
pub struct Cluster {
    pub(crate) inner: Arc<ClusterInner>,
    clock: SimClock,
}

pub(crate) struct ClusterInner {
    config: ClusterConfig,
    /// The cost model charged for every operation.
    cost_model: CostModel,
    pub(crate) tables: RwLock<BTreeMap<String, Arc<TableState>>>,
    counters: AtomicOpCounters,
    pub(crate) wals: Vec<WriteAheadLog>,
    next_timestamp: AtomicU64,
    next_region_id: AtomicU64,
    next_server: AtomicU64,
    /// Set by [`Cluster::crash`]; every op fails with `ClusterDown` until
    /// [`Cluster::recover`] clears it.
    pub(crate) crashed: AtomicBool,
    /// Last durable checkpoint: per table, the region snapshot recovery
    /// replays the WAL over.  Empty until the first [`Cluster::checkpoint`].
    pub(crate) baseline: RwLock<BTreeMap<String, Vec<Region>>>,
    faults: Option<FaultState>,
    retry: Option<RetryRuntime>,
    /// Replication registry; `None` (and so never reached on any op path)
    /// unless `replication_factor > 1` on more than one server.
    pub(crate) replication: Option<Replication>,
}

impl Cluster {
    /// Creates a cluster with its own fresh [`SimClock`].
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_clock(config, SimClock::new())
    }

    /// Creates a cluster charging costs into an existing clock (so higher
    /// layers, e.g. the MVCC transaction server, share the same timeline).
    pub fn with_clock(config: ClusterConfig, clock: SimClock) -> Self {
        let servers = config.region_servers.max(1);
        Cluster {
            inner: Arc::new(ClusterInner {
                wals: (0..servers).map(|_| WriteAheadLog::new()).collect(),
                faults: config
                    .fault_plan
                    .clone()
                    .map(|plan| FaultState::new(plan, servers)),
                retry: config.retry.clone().map(RetryRuntime::new),
                replication: Replication::new(config.replication_factor, config.region_servers),
                config,
                cost_model: CostModel::default(),
                tables: RwLock::new(BTreeMap::new()),
                counters: AtomicOpCounters::default(),
                next_timestamp: AtomicU64::new(1),
                next_region_id: AtomicU64::new(1),
                next_server: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
                baseline: RwLock::new(BTreeMap::new()),
            }),
            clock,
        }
    }

    /// The clock this handle charges costs into (the shared cluster clock,
    /// unless this is a parallel worker's rebound handle).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// A handle over the same cluster state whose charges land on `clock`
    /// instead of the shared timeline.  Parallel scan workers use this so
    /// their sim-cost deltas can be merged (`max` of workers) once drained
    /// rather than summing serially on the shared clock.
    pub(crate) fn with_charge_sink(&self, clock: SimClock) -> Cluster {
        Cluster {
            inner: Arc::clone(&self.inner),
            clock,
        }
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost_model
    }

    /// Next logical cell timestamp (monotonically increasing).  Timestamps
    /// are globally unique across ops and servers, which is what lets
    /// recovery order replayed WAL records from different server logs.
    pub fn next_timestamp(&self) -> Timestamp {
        self.inner.next_timestamp.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn charge(&self, cost: SimDuration) {
        self.clock.charge(cost);
    }

    /// Records one page of streamed scan rows in the operation counters
    /// (the per-scan `scans` count is bumped once, at cursor creation).
    pub(crate) fn record_scan_page(&self, rows: u64, bytes: u64) {
        AtomicOpCounters::bump(&self.inner.counters.scanned_rows, rows);
        AtomicOpCounters::bump(&self.inner.counters.scanned_bytes, bytes);
    }

    /// Bumps the scan counter (one per opened cursor — a parallel scan
    /// counts as one logical scan regardless of worker count).
    pub(crate) fn record_scan_open(&self) {
        AtomicOpCounters::bump(&self.inner.counters.scans, 1);
    }

    fn pick_server(&self) -> RegionServerId {
        let servers = self.inner.config.region_servers.max(1);
        RegionServerId(
            (self.inner.next_server.fetch_add(1, Ordering::Relaxed) as usize) % servers,
        )
    }

    fn next_region_id(&self) -> RegionId {
        RegionId(self.inner.next_region_id.fetch_add(1, Ordering::Relaxed))
    }

    // ----- fault machinery -------------------------------------------------

    /// Entry gate of every charged op: rejects when the cluster is crashed,
    /// then fires any scheduled region-server crashes that are due on the
    /// sim clock.  Called before any region lock is taken.
    pub(crate) fn precheck(&self) -> StoreResult<()> {
        if self.is_crashed() {
            return Err(StoreError::ClusterDown);
        }
        if let Some(faults) = &self.inner.faults {
            self.advance_faults(faults);
        }
        Ok(())
    }

    /// Draws the per-op fault outcome for an op routed to `server`.  On a
    /// fault the attempt's penalty is charged here and the error returned;
    /// on success any slow-region spike is charged and the op proceeds.
    pub(crate) fn inject_faults(&self, server: RegionServerId) -> StoreResult<()> {
        let Some(faults) = &self.inner.faults else {
            return Ok(());
        };
        match faults.draw(server.0, self.clock.now(), self.cost_model().rpc_round_trip()) {
            FaultDraw::Proceed { extra } => {
                if extra > SimDuration::ZERO {
                    self.charge(extra);
                }
                Ok(())
            }
            FaultDraw::Fail { error, charge } => {
                self.charge(charge);
                Err(error)
            }
        }
    }

    /// Runs `op` under the configured retry policy (or once, when none is
    /// configured — the no-retry path adds a single branch).
    pub(crate) fn with_retry<T>(&self, mut op: impl FnMut() -> StoreResult<T>) -> StoreResult<T> {
        match &self.inner.retry {
            None => op(),
            Some(runtime) => runtime.run(&self.clock, op),
        }
    }

    /// Snapshot of fault-injection and retry counters.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.inner.faults.as_ref().map(FaultState::stats).unwrap_or_default();
        if let Some(r) = &self.inner.retry {
            stats.retries = r.retries.load(Ordering::Relaxed);
            stats.giveups = r.giveups.load(Ordering::Relaxed);
        }
        stats
    }

    // ----- region replication ----------------------------------------------

    /// True when region replication is active: a factor above 1 and more
    /// than one server to place copies on.
    pub fn replication_enabled(&self) -> bool {
        self.inner.replication.is_some()
    }

    /// True if `server` is inside a crash window at `now`.
    fn server_down(&self, server: usize, now: SimInstant) -> bool {
        self.inner.faults.as_ref().is_some_and(|f| f.is_down(server, now))
    }

    /// Registers a region (at creation or split) in the replication
    /// registry.  No-op with replication off.
    fn register_region(&self, id: RegionId, primary: RegionServerId) {
        if let Some(rep) = &self.inner.replication {
            rep.register(id.0, primary.0);
        }
    }

    /// The region owning `key` in `table` and that region's current fencing
    /// epoch.  A metadata read (like [`Cluster::table_stats`]): charges
    /// nothing and moves no counter.  Epoch is always 0 with replication
    /// off.
    // lint-allow(cost-accounting): epoch metadata probe (fencing tests), no data movement to charge
    pub fn region_epoch_for(&self, table: &str, key: &[u8]) -> StoreResult<(u64, u64)> {
        let state = self.table(table)?;
        let regions = state.regions.read();
        let id = regions[Self::region_index_for(&regions, key)].id.0;
        drop(regions);
        Ok((id, self.current_epoch(id)))
    }

    /// Current fencing epoch of a region (0 with replication off or for an
    /// untracked region).
    pub fn current_epoch(&self, region: u64) -> u64 {
        self.inner.replication.as_ref().map_or(0, |rep| rep.epoch(region))
    }

    /// Snapshot of the replication registry's counters.
    pub fn replication_stats(&self) -> ReplicationStats {
        let registry = self.inner.replication.as_ref();
        let mut stats = registry.map(Replication::stats).unwrap_or_default();
        stats.replication_factor = self.inner.config.replication_factor.max(1);
        stats
    }

    // ----- table administration --------------------------------------------

    /// Creates a table; fails if it already exists or declares no families.
    pub fn create_table(&self, schema: TableSchema) -> StoreResult<()> {
        if schema.families.is_empty() {
            return Err(StoreError::NoColumnFamilies(schema.name));
        }
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(StoreError::TableExists(schema.name));
        }
        let id = self.next_region_id();
        let server = self.pick_server();
        let region = Region::new(id, server, Vec::new(), Vec::new());
        tables.insert(
            schema.name.clone(),
            Arc::new(TableState {
                log_name: Name::from(schema.name.as_str()),
                schema,
                regions: RwLock::new(vec![region]),
            }),
        );
        self.register_region(id, server);
        Ok(())
    }

    /// Drops a table and all its data (including its checkpoint snapshot and
    /// its regions' replication-registry entries).
    // lint-allow(cost-accounting): DDL; reads the dropped table's region ids only to prune the registry
    pub fn drop_table(&self, name: &str) -> StoreResult<()> {
        self.inner.baseline.write().remove(name);
        let dropped = self
            .inner
            .tables
            .write()
            .remove(name)
            .ok_or_else(|| StoreError::TableNotFound(name.to_string()))?;
        if let Some(rep) = &self.inner.replication {
            let regions = dropped.regions.read();
            rep.prune(|id| !regions.iter().any(|r| r.id.0 == id));
        }
        Ok(())
    }

    /// True if the named table exists.
    pub fn table_exists(&self, name: &str) -> bool {
        self.inner.tables.read().contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn list_tables(&self) -> Vec<String> {
        self.inner.tables.read().keys().cloned().collect()
    }

    pub(crate) fn table(&self, name: &str) -> StoreResult<Arc<TableState>> {
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::TableNotFound(name.to_string()))
    }

    /// The write-ahead log of one region server.
    pub fn wal(&self, server: usize) -> &WriteAheadLog {
        &self.inner.wals[server % self.inner.wals.len()]
    }

    pub(crate) fn region_index_for(regions: &[Region], key: &[u8]) -> usize {
        regions
            .iter()
            .position(|r| r.contains(key))
            .unwrap_or(regions.len().saturating_sub(1))
    }

    /// Splits `regions[idx]` when it outgrew the split threshold; true when
    /// a new region was inserted at `idx + 1`.
    fn maybe_split(&self, regions: &mut Vec<Region>, idx: usize) -> bool {
        if regions[idx].byte_size() <= self.inner.config.region_split_bytes {
            return false;
        }
        let new_id = self.next_region_id();
        let new_server = self.pick_server();
        let Some(upper) = regions[idx].split(new_id, new_server) else {
            return false;
        };
        regions.insert(idx + 1, upper);
        self.register_region(new_id, new_server);
        true
    }

    /// Step 9's group-commit decision, once a region's records are
    /// appended to `wal`: returns the cost to charge.  A write that leaves
    /// the unsynced batch below `wal_sync_interval` defers the sync and
    /// charges `effective_wal_sync` less; the batch-closing write syncs,
    /// pays in full and — with replication on — ships the newly synced
    /// records to their regions' followers and pays for that too.  Charges
    /// therefore sum to exactly `interval - 1` syncs per batch fewer than at
    /// interval 1.
    fn commit(&self, wal: &WriteAheadLog, cost: SimDuration) -> SimDuration {
        if wal.unsynced_len() < self.inner.config.wal_sync_interval.max(1) {
            return cost.saturating_sub(self.cost_model().effective_wal_sync());
        }
        let Some(rep) = &self.inner.replication else {
            wal.sync();
            return cost;
        };
        let now = self.clock.now();
        let ship_events = rep.ship(&wal.sync_take_new(), |s| self.server_down(s, now));
        cost + self.cost_model().replication_ship_cost(ship_events)
    }

    // ----- data operations -------------------------------------------------

    /// Steps 1–2 of every charged op: resolve the table, then the entry
    /// gate.
    fn open(&self, table: &str) -> StoreResult<Arc<TableState>> {
        let state = self.table(table)?;
        self.precheck()?;
        Ok(state)
    }

    /// Steps 4–5 of every keyed op, under the region lock: route `key` to
    /// its region, then draw the attempt's fault outcome against that
    /// region's server.
    fn route(&self, regions: &[Region], key: &[u8]) -> StoreResult<usize> {
        let idx = Self::region_index_for(regions, key);
        self.inject_faults(regions[idx].server)?;
        Ok(idx)
    }

    /// One attempt of a client mutation — the single write pipeline (see
    /// the module docs for the step order, which is a contract).  `rows`
    /// supply what differs per row (key, server work, counter, record); an
    /// optional fencing epoch applies to every region; `fetch` reads each
    /// row's before-image under the same lock.  Returns one [`Applied`] per
    /// row, in `rows` order.
    fn mutate(
        &self,
        table: &str,
        rows: &[Mutation],
        fence: Option<u64>,
        fetch: bool,
    ) -> StoreResult<Vec<Applied>> {
        let state = self.open(table)?;
        rows.iter().try_for_each(|row| row.check(&state.schema))?;
        let mut regions = state.regions.write();
        // Each row with its region, in region key order, rows in batch
        // order: a run of one region is one group.
        let mut routes: Vec<(usize, usize)> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| (Self::region_index_for(&regions, row.key()), i))
            .collect();
        routes.sort_unstable();
        let groups = || routes.chunk_by(|a, b| a.0 == b.0);
        for group in groups() {
            let idx = group[0].0;
            self.inject_faults(regions[idx].server)?;
            let Some(presented) = fence else { continue };
            // Zombie fencing: the epoch check happens server-side after
            // routing, so a stale writer burns a round trip and is refused.
            let region = regions[idx].id.0;
            let current = self.current_epoch(region);
            if presented != current {
                drop(regions);
                self.charge(self.cost_model().rpc_round_trip());
                return Err(StoreError::StaleRegionEpoch {
                    region,
                    current,
                    presented,
                });
            }
        }
        let model = self.cost_model();
        let mut applied: Vec<Applied> = rows.iter().map(|_| Applied::default()).collect();
        let (mut charge, mut splits) = (SimDuration::ZERO, 0);
        for group in groups() {
            let idx = group[0].0 + splits;
            let (wal, region) = (self.wal(regions[idx].server.0), regions[idx].id.0);
            let (mut work, mut logged) = (SimDuration::ZERO, false);
            for &(_, i) in group {
                let ts = self.next_timestamp();
                let (row, record) = rows[i].apply_to(&mut regions[idx], &state.schema, ts, fetch)?;
                work += rows[i].work(model);
                applied[i] = row;
                if let Some(op) = record {
                    wal.append_region(state.log_name, region, op);
                    logged = true;
                }
            }
            let cost = model.batch_cost(work);
            // A group that applied nothing (a failed check-and-put) still
            // pays the full RPC: the server did the read-compare and synced
            // nothing new.
            charge += if logged {
                let cost = self.commit(wal, cost);
                splits += usize::from(self.maybe_split(&mut regions, idx));
                cost
            } else {
                cost
            };
            AtomicOpCounters::bump(rows[group[0].1].counter(&self.inner.counters), 1);
        }
        drop(regions);
        self.charge(charge);
        Ok(applied)
    }

    /// A batch of one under the retry policy: every single-row entry point.
    /// Returns the row's [`Applied::outcome`].
    fn write_one(&self, table: &str, row: Mutation, fence: Option<u64>) -> StoreResult<Option<i64>> {
        let rows = std::slice::from_ref(&row);
        let mut applied = self.with_retry(|| self.mutate(table, rows, fence, false))?;
        Ok(applied.pop().and_then(|row| row.outcome))
    }

    /// Writes many rows of one table: one RPC per region the rows route to,
    /// each charged one round trip, one WAL sync (deferred under group
    /// commit) and every row's server work, and counted as one op on its
    /// first row's counter.  Rows of one region apply in batch order.
    /// Retries injected faults per the configured policy; a faulted attempt
    /// applies no row.  An empty batch does nothing.  Returns how many rows
    /// changed stored data: every delete that removed something and every
    /// other row that applied.
    pub fn batch(&self, table: &str, rows: &[Mutation]) -> StoreResult<usize> {
        let applied = self.batch_rows(table, rows, false)?;
        Ok(rows.iter().zip(&applied).filter(|(row, a)| row.changed(a.outcome)).count())
    }

    /// Like [`Cluster::batch`], and returns each row's **before-image**: its
    /// prior contents, read under the same region write lock, atomically
    /// with its mutation, in batch order.  Charges exactly like
    /// [`Cluster::batch`] — the read shares the write's RPC and row
    /// positioning (a server-side read-modify-write), so no extra round trip
    /// is modelled and no `gets` counter moves.
    pub fn batch_fetch(&self, table: &str, rows: &[Mutation]) -> StoreResult<Vec<Option<ResultRow>>> {
        let applied = self.batch_rows(table, rows, true)?;
        Ok(applied.into_iter().map(|row| row.before).collect())
    }

    /// The batch family's pipeline call.
    fn batch_rows(&self, table: &str, rows: &[Mutation], fetch: bool) -> StoreResult<Vec<Applied>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        self.with_retry(|| self.mutate(table, rows, None, fetch))
    }

    /// Writes one row.  Charges one RPC + server work + WAL sync (deferred
    /// under group commit).  Retries injected faults per the configured
    /// policy.
    pub fn put(&self, table: &str, put: Put) -> StoreResult<()> {
        self.write_one(table, Mutation::Put(put), None).map(drop)
    }

    /// Fenced write: like [`Cluster::put`], but the caller presents the
    /// region epoch it captured (via [`Cluster::region_epoch_for`]) when it
    /// took ownership of the key.  If the region failed over since — its
    /// epoch advanced — the write is refused with
    /// [`StoreError::StaleRegionEpoch`] after charging one RPC round trip:
    /// this is how a zombie ex-primary's writes are fenced off.  The error
    /// is **not** retryable; the caller must re-read the epoch first.
    pub fn put_fenced(&self, table: &str, put: Put, epoch: u64) -> StoreResult<()> {
        self.write_one(table, Mutation::Put(put), Some(epoch)).map(drop)
    }

    /// Bulk-loads rows without charging simulated cost or writing the WAL.
    ///
    /// This models the paper's offline database-population phase (which is
    /// followed by a major compaction and is not part of any measured
    /// response time).  Bulk-loaded rows become **durable at the next
    /// [`Cluster::checkpoint`]**; a crash before one loses them, exactly
    /// like un-flushed memstore contents with no log.  Fault-injection
    /// harnesses therefore checkpoint once population finishes.
    // lint-allow(cost-accounting): offline population step; the paper loads before measuring
    pub fn bulk_load(&self, table: &str, puts: impl IntoIterator<Item = Put>) -> StoreResult<usize> {
        if self.is_crashed() {
            return Err(StoreError::ClusterDown);
        }
        let state = self.table(table)?;
        let mut regions = state.regions.write();
        let mut loaded = 0;
        for put in puts {
            let ts = self.next_timestamp();
            let idx = Self::region_index_for(&regions, &put.row);
            regions[idx].put(&state.schema, &put, ts)?;
            self.maybe_split(&mut regions, idx);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Reads one row.  Charges one RPC + server work.
    pub fn get(&self, table: &str, get: Get) -> StoreResult<Option<ResultRow>> {
        self.with_retry(|| self.get_once(table, &get))
    }

    fn get_once(&self, table: &str, get: &Get) -> StoreResult<Option<ResultRow>> {
        let state = self.open(table)?;
        let regions = state.regions.read();
        let idx = self.route(&regions, &get.row)?;
        self.charge(self.cost_model().get_cost());
        AtomicOpCounters::bump(&self.inner.counters.gets, 1);
        Ok(regions[idx].get(get))
    }

    /// Deletes a row; true if it existed.  Charges one RPC + WAL sync.
    pub fn delete(&self, table: &str, delete: Delete) -> StoreResult<bool> {
        let outcome = self.write_one(table, Mutation::Delete(delete), None)?;
        Ok(outcome.is_some_and(|removed| removed != 0))
    }

    /// Atomic compare-and-set.  Charges one RPC + server work + WAL sync.
    pub fn check_and_put(&self, table: &str, cap: CheckAndPut) -> StoreResult<bool> {
        Ok(self.write_one(table, Mutation::CheckAndPut(cap), None)?.is_some())
    }

    /// Scans rows in key order across all regions intersecting the range.
    /// Charges scanner-open per region plus per-batch/per-row/per-byte
    /// streaming costs.
    ///
    /// This is a collect over [`Cluster::scan_stream`]'s fallible pull;
    /// callers that do not need the whole result materialized should pull
    /// the cursor directly.  Like an HBase scanner, the stream is row-atomic
    /// but pages through the table without holding a table-wide lock.  A
    /// page that fails after exhausting the retry policy fails the scan.
    pub fn scan(&self, table: &str, scan: Scan) -> StoreResult<Vec<ResultRow>> {
        let mut cursor = self.scan_stream(table, scan)?;
        std::iter::from_fn(|| cursor.try_next().transpose()).collect()
    }

    /// Number of rows currently stored in a table.
    pub fn row_count(&self, table: &str) -> StoreResult<u64> {
        Ok(self.table(table)?.stats().rows)
    }

    /// Storage statistics (row / byte / region counts) for one table, or
    /// `None` when the table does not exist.  Free to call: no simulated
    /// cost is charged and no operation counter moves.
    pub fn table_stats(&self, table: &str) -> Option<TableMetrics> {
        Some(self.table(table).ok()?.stats())
    }

    /// Major-compacts one table (drops excess cell versions, reclaims space).
    // lint-allow(cost-accounting): offline maintenance between runs, outside measured ops
    pub fn major_compact(&self, table: &str) -> StoreResult<()> {
        let state = self.table(table)?;
        let mut regions = state.regions.write();
        for region in regions.iter_mut() {
            region.major_compact();
        }
        Ok(())
    }

    /// Major-compacts every table, as the paper does after each database
    /// population.
    pub fn major_compact_all(&self) {
        for table in self.list_tables() {
            let _ = self.major_compact(&table);
        }
    }

    /// Snapshot of operation counters and per-table storage statistics.
    pub fn metrics(&self) -> ClusterMetrics {
        let tables = self.inner.tables.read();
        ClusterMetrics {
            ops: self.inner.counters.snapshot(),
            tables: tables
                .iter()
                .map(|(name, state)| (name.clone(), state.stats()))
                .collect(),
        }
    }
}

/// The WAL record of `put` applied at `ts` (an explicit put timestamp wins).
fn put_record(put: &Put, ts: Timestamp) -> WalOp {
    WalOp::Put {
        row: put.row.clone(),
        cells: put.cells.clone(),
        timestamp: put.timestamp.unwrap_or(ts),
    }
}

/// What one row of a mutation did: its before-image (when fetched) and the
/// [`Region::apply_op`] outcome, `None` when nothing applied (a failed
/// check-and-put).
#[derive(Default)]
struct Applied {
    before: Option<ResultRow>,
    outcome: Option<i64>,
}

/// What the pipeline needs of one row: what differs per entry point is its
/// routing key, server work, counter and record.
impl Mutation {
    fn key(&self) -> &[u8] {
        match self {
            Mutation::Put(put) => &put.row,
            Mutation::Delete(delete) => &delete.row,
            Mutation::CheckAndPut(cap) => &cap.row,
        }
    }

    /// Step 2's schema check of a row's cells.
    fn check(&self, schema: &TableSchema) -> StoreResult<()> {
        match self {
            Mutation::Put(put) | Mutation::CheckAndPut(CheckAndPut { put, .. }) => {
                check_cells(schema, &put.cells)
            }
            Mutation::Delete(_) => Ok(()),
        }
    }

    /// The row's share of its RPC's server work.
    fn work(&self, model: &CostModel) -> SimDuration {
        match self {
            Mutation::Put(put) => model.put_work(put.cell_count()),
            Mutation::Delete(_) => model.delete_server_work,
            Mutation::CheckAndPut(_) => model.check_and_put_work,
        }
    }

    fn counter<'c>(&self, counters: &'c AtomicOpCounters) -> &'c AtomicU64 {
        match self {
            Mutation::Put(_) => &counters.puts,
            Mutation::Delete(_) => &counters.deletes,
            Mutation::CheckAndPut(_) => &counters.check_and_puts,
        }
    }

    /// True when the row, with this [`Applied::outcome`], changed stored
    /// data: a delete that removed something, any other row that applied.
    fn changed(&self, outcome: Option<i64>) -> bool {
        match self {
            Mutation::Delete(_) => outcome.is_some_and(|removed| removed != 0),
            _ => outcome.is_some(),
        }
    }

    /// Step 8: builds the row's record at `ts` and applies it to `region`,
    /// or declines (a failed check-and-put).  A delete is logged even when
    /// it removed nothing.
    fn apply_to(
        &self,
        region: &mut Region,
        schema: &TableSchema,
        ts: Timestamp,
        fetch: bool,
    ) -> StoreResult<(Applied, Option<WalOp>)> {
        let before = fetch.then(|| region.get(&Get::new(self.key()))).flatten();
        let op = match self {
            Mutation::Put(put) => put_record(put, ts),
            Mutation::Delete(delete) => WalOp::Delete { row: delete.row.clone(), timestamp: ts },
            Mutation::CheckAndPut(cap) => {
                if !region.matches(&cap.put.row, cap.family, cap.qualifier, &cap.expect) {
                    return Ok((Applied { before, outcome: None }, None));
                }
                put_record(&cap.put, ts)
            }
        };
        let outcome = Some(region.apply_op(schema, &op)?);
        Ok((Applied { before, outcome }, Some(op)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpCounters;
    use crate::ops::Expectation;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::default())
    }

    fn orders_schema() -> TableSchema {
        TableSchema::new("orders").with_family("cf")
    }

    #[test]
    fn create_and_drop_tables() {
        let c = cluster();
        c.create_table(orders_schema()).unwrap();
        assert!(c.table_exists("orders"));
        assert!(matches!(
            c.create_table(orders_schema()),
            Err(StoreError::TableExists(_))
        ));
        assert_eq!(
            c.create_table(TableSchema::new("bare")),
            Err(StoreError::NoColumnFamilies("bare".into())),
            "a schema without families is an error, not a panic"
        );
        assert!(!c.table_exists("bare"));
        c.drop_table("orders").unwrap();
        assert!(!c.table_exists("orders"));
        assert!(matches!(
            c.drop_table("orders"),
            Err(StoreError::TableNotFound(_))
        ));
    }

    /// One client entry point into `Cluster::mutate`, as the
    /// pipeline-contract table sees it.
    struct EntryPoint {
        name: &'static str,
        /// Runs the op once against `table`; `i` makes the row key fresh.
        run: fn(&Cluster, &str, usize) -> StoreResult<()>,
        /// The op's full cost in the cost model's closed form.
        cost: fn(&CostModel) -> SimDuration,
        /// The one counter the op bumps.
        counter: fn(&OpCounters) -> u64,
        /// Recognizes the WAL record an applied run logs; `None` for the
        /// entry that applies nothing (the failed check-and-put).
        logs: Option<fn(&WalOp) -> bool>,
        /// Regions one run writes to: its RPCs, fault draws, group-commit
        /// decisions and counted ops.
        regions: usize,
        /// Rows (records) per region.
        rows: usize,
    }

    fn row(i: usize) -> Put {
        Put::new(format!("o{i:04}")).with("cf", "v", "1")
    }

    fn is_put(op: &WalOp) -> bool {
        matches!(op, WalOp::Put { cells, .. } if cells.len() == 1)
    }

    fn is_delete(op: &WalOp) -> bool {
        matches!(op, WalOp::Delete { .. })
    }

    fn cas(i: usize, expect: Expectation) -> CheckAndPut {
        CheckAndPut::new(format!("o{i:04}"), "cf", "v", expect, row(i))
    }

    const ENTRY_POINTS: &[EntryPoint] = &[
        EntryPoint {
            name: "put",
            run: |c, t, i| c.put(t, row(i)),
            cost: |m| m.put_cost(1),
            counter: |ops| ops.puts,
            logs: Some(is_put),
            regions: 1,
            rows: 1,
        },
        EntryPoint {
            name: "put_fenced",
            run: |c, t, i| c.put_fenced(t, row(i), 0),
            cost: |m| m.put_cost(1),
            counter: |ops| ops.puts,
            logs: Some(is_put),
            regions: 1,
            rows: 1,
        },
        EntryPoint {
            // Deleting an absent row is still an applied, logged mutation.
            name: "delete",
            run: |c, t, i| c.delete(t, Delete::row(format!("o{i:04}"))).map(drop),
            cost: |m| m.delete_cost(),
            counter: |ops| ops.deletes,
            logs: Some(is_delete),
            regions: 1,
            rows: 1,
        },
        EntryPoint {
            name: "check_and_put (applied)",
            run: |c, t, i| c.check_and_put(t, cas(i, Expectation::Absent)).map(|applied| assert!(applied)),
            cost: |m| m.check_and_put_cost(),
            counter: |ops| ops.check_and_puts,
            logs: Some(is_put),
            regions: 1,
            rows: 1,
        },
        EntryPoint {
            // A failed condition pays the full cost and logs nothing.
            name: "check_and_put (failed)",
            run: |c, t, i| {
                c.check_and_put(t, cas(i, Expectation::Equals(b"other".to_vec())))
                    .map(|applied| assert!(!applied))
            },
            cost: |m| m.check_and_put_cost(),
            counter: |ops| ops.check_and_puts,
            logs: None,
            regions: 1,
            rows: 1,
        },
        EntryPoint {
            // Two rows in each of three regions: three RPCs.
            name: "batch",
            run: |c, t, i| c.batch(t, &spread_batch(i)).map(|changed| assert_eq!(changed, 6)),
            cost: |m| m.batch_cost(m.put_work(1) * 2),
            counter: |ops| ops.puts,
            logs: Some(is_put),
            regions: 3,
            rows: 2,
        },
        EntryPoint {
            name: "batch_fetch",
            run: |c, t, i| c.batch_fetch(t, &spread_batch(i)).map(|before| assert_eq!(before.len(), 6)),
            cost: |m| m.batch_cost(m.put_work(1) * 2),
            counter: |ops| ops.puts,
            logs: Some(is_put),
            regions: 3,
            rows: 2,
        },
    ];

    /// Rows of [`contract_cluster`]'s bulk load: wide enough that the table
    /// spans many regions.
    const LOADED: usize = 200;

    /// The `orders` table, split into many regions (every single-row entry
    /// point writes to the last).
    fn contract_cluster(config: ClusterConfig) -> Cluster {
        let c = Cluster::new(ClusterConfig {
            region_split_bytes: 2_000,
            ..config
        });
        c.create_table(orders_schema()).unwrap();
        let wide = |j| Put::new(format!("k{j:03}")).with("cf", "v", vec![b'x'; 64]);
        c.bulk_load("orders", (0..LOADED).map(wide)).unwrap();
        c
    }

    /// Two fresh rows beside each of `k000`, `k100` and `k199`: three
    /// regions of [`contract_cluster`]'s table.
    fn spread_batch(i: usize) -> Vec<Mutation> {
        let rows = ["k000", "k100", "k199"].into_iter().flat_map(|k| (0..2).map(move |r| (k, r)));
        rows.map(|(k, r)| Mutation::Put(Put::new(format!("{k}-{i}-{r}")).with("cf", "v", "1")))
            .collect()
    }

    /// The pipeline contract, op for op: every entry point draws one fault
    /// outcome, takes one group-commit decision and counts one op per region
    /// it writes; charges each region its closed-form cost (group commit
    /// moving exactly the sync share onto the batch-closing write); logs one
    /// WAL record per row iff it applied, stamped in strictly increasing
    /// order; bumps only its own counter; applies, logs and counts nothing
    /// and draws no timestamp on a faulted attempt, whichever region faults;
    /// and reports a missing table before a crashed cluster.
    #[test]
    fn every_entry_point_obeys_the_pipeline_contract() {
        let slow = SimDuration::from_micros(50);
        for entry in ENTRY_POINTS {
            let name = entry.name;
            for interval in [1usize, 8] {
                let c = contract_cluster(ClusterConfig {
                    region_servers: 1,
                    wal_sync_interval: interval,
                    // Every draw proceeds slowly: one spike per fault draw.
                    fault_plan: Some(FaultPlan::new(7).with_slow_regions(1.0, slow)),
                    ..ClusterConfig::default()
                });
                let full = (entry.cost)(c.cost_model());
                let sync = c.cost_model().effective_wal_sync();
                let (mut last_stamp, mut pending) = (0, 0);
                for i in 0..8 {
                    let ops_before = c.metrics().ops;
                    let (wal_before, draws) = (c.wal(0).len(), c.fault_stats().slowdowns);
                    let (result, charged) = c.clock().measure(|| (entry.run)(&c, "orders", i));
                    result.unwrap();
                    assert_eq!(c.fault_stats().slowdowns - draws, entry.regions as u64, "{name}: draws");
                    let mut expected = slow * entry.regions as u64;
                    for _ in 0..entry.regions {
                        pending += entry.rows * usize::from(entry.logs.is_some());
                        let closes_batch = pending >= interval || entry.logs.is_none();
                        expected += if closes_batch { full } else { full - sync };
                        pending = if closes_batch { 0 } else { pending };
                    }
                    assert_eq!(charged, expected, "{name}: charge of op {i} at interval {interval}");
                    let delta = c.metrics().ops.delta_since(&ops_before);
                    let ops = entry.regions as u64;
                    assert_eq!((entry.counter)(&delta), ops, "{name}: own counter, once per region");
                    assert_eq!(delta.total_ops(), ops, "{name}: no other counter moves");
                    let logged = &c.wal(0).entries()[wal_before..];
                    let Some(kind) = entry.logs else {
                        assert!(logged.is_empty(), "{name}: nothing applied, nothing logged");
                        continue;
                    };
                    assert_eq!(logged.len(), entry.regions * entry.rows, "{name}: one record per row");
                    for record in logged {
                        assert!(kind(&record.op), "{name}: logged {:?}", record.op);
                        let stamp = record.op.timestamp().unwrap();
                        assert!(stamp > last_stamp, "{name}: strictly increasing stamps");
                        last_stamp = stamp;
                    }
                    assert_eq!(c.wal(0).unsynced_len(), pending, "{name}");
                }
            }

            // A faulted attempt consumes no timestamp, applies, logs and
            // bumps nothing — also when an earlier region's draw proceeded.
            let (mut faulted, mut late_faults) = (0, 0);
            for seed in 0..32 {
                let c = contract_cluster(ClusterConfig {
                    region_servers: 1,
                    fault_plan: Some(
                        FaultPlan::new(seed).with_timeouts(0.5).with_slow_regions(0.5, slow),
                    ),
                    ..ClusterConfig::default()
                });
                let stamp = c.next_timestamp();
                let Err(err) = (entry.run)(&c, "orders", 0) else {
                    assert_eq!(c.fault_stats().slowdowns, entry.regions as u64, "{name}");
                    continue;
                };
                assert_eq!(err, StoreError::RpcTimeout { server: 0 }, "{name}");
                faulted += 1;
                late_faults += c.fault_stats().slowdowns.min(1);
                assert_eq!(c.next_timestamp(), stamp + 1, "{name}: faulted attempt drew a timestamp");
                assert!(c.wal(0).is_empty(), "{name}: faulted attempt logged");
                assert_eq!(c.metrics().ops.total_ops(), 0, "{name}: faulted attempt counted");
                assert_eq!(c.row_count("orders").unwrap(), LOADED as u64, "{name}: applied");
            }
            assert!(faulted > 0, "{name}: no seed faulted");
            assert_eq!(late_faults > 0, entry.regions > 1, "{name}: a later region faulted");

            // `TableNotFound` beats `ClusterDown`.
            let c = contract_cluster(ClusterConfig::default());
            c.crash();
            assert_eq!(
                (entry.run)(&c, "nope", 0),
                Err(StoreError::TableNotFound("nope".into())),
                "{name}"
            );
            assert_eq!((entry.run)(&c, "orders", 0), Err(StoreError::ClusterDown), "{name}");
        }
        // Reads share the prelude.
        let c = cluster();
        c.create_table(orders_schema()).unwrap();
        c.crash();
        assert_eq!(c.get("nope", Get::new("r")), Err(StoreError::TableNotFound("nope".into())));
        assert_eq!(c.get("orders", Get::new("r")), Err(StoreError::ClusterDown));
        // So does opening a scan, which refuses before charging the open.
        type Open = fn(&Cluster, &str) -> StoreResult<()>;
        let opens: [(&str, Open); 3] = [
            ("scan_stream", |c, t| c.scan_stream(t, Scan::all()).map(drop)),
            ("par_scan_stream", |c, t| c.par_scan_stream(t, Scan::all(), 4).map(drop)),
            ("scan", |c, t| c.scan(t, Scan::all()).map(drop)),
        ];
        for (name, open) in opens {
            let (clock, scans) = (c.clock().now(), c.metrics().ops.scans);
            assert_eq!(open(&c, "nope"), Err(StoreError::TableNotFound("nope".into())), "{name}");
            assert_eq!(open(&c, "orders"), Err(StoreError::ClusterDown), "{name}");
            assert_eq!(c.clock().now(), clock, "{name}: a refused open charged");
            assert_eq!(c.metrics().ops.scans, scans, "{name}: a refused open counted");
        }
    }

    #[test]
    fn writes_round_trip_and_fetch_variants_return_before_images() {
        let c = cluster();
        c.create_table(orders_schema()).unwrap();
        let fetch = |row: Mutation| c.batch_fetch("orders", &[row]).unwrap().pop().unwrap();
        let put = |value: &str| Mutation::Put(Put::new("o1").with("cf", "v", value));
        assert!(fetch(put("1")).is_none());
        let before = fetch(put("2")).unwrap();
        assert_eq!(before.value_str("cf", "v").unwrap(), "1");
        let row = c.get("orders", Get::new("o1")).unwrap().unwrap();
        assert_eq!(row.value_str("cf", "v").unwrap(), "2");
        let removed = fetch(Mutation::Delete(Delete::row("o1"))).unwrap();
        assert_eq!(removed.value_str("cf", "v").unwrap(), "2");
        assert!(fetch(Mutation::Delete(Delete::row("o1"))).is_none());
        assert!(c.get("orders", Get::new("o1")).unwrap().is_none());
        c.put("orders", Put::new("o2").with("cf", "v", "3")).unwrap();
        assert!(c.delete("orders", Delete::row("o2")).unwrap());
        assert!(!c.delete("orders", Delete::row("o2")).unwrap());
        assert_eq!(c.metrics().ops.gets, 2, "before-images never count as gets");
    }

    /// The split check runs after every *applied* mutation, whichever entry
    /// point applied it: a table loaded through check-and-put or one-row
    /// batches splits exactly like one loaded through put.
    #[test]
    fn regions_grown_by_any_mutation_kind_split() {
        let load = |ops: usize, write: fn(&Cluster, usize)| {
            let c = Cluster::new(ClusterConfig {
                region_split_bytes: 2_000,
                ..ClusterConfig::default()
            });
            c.create_table(orders_schema()).unwrap();
            (0..ops).for_each(|i| write(&c, i));
            c.table_stats("orders").unwrap()
        };
        fn wide(i: usize) -> Put {
            Put::new(format!("o{i:04}")).with("cf", "v", vec![b'x'; 64])
        }
        let by_put = load(200, |c, i| c.put("orders", wide(i)).unwrap());
        assert!(by_put.regions > 1, "the put-loaded table must have split");
        let by_cas = load(200, |c, i| {
            let cap = CheckAndPut::new(format!("o{i:04}"), "cf", "v", Expectation::Absent, wide(i));
            assert!(c.check_and_put("orders", cap).unwrap());
        });
        assert_eq!(by_cas, by_put, "same rows, same splits");
        let by_batch = load(200, |c, i| {
            assert_eq!(c.batch("orders", &[Mutation::Put(wide(i))]).unwrap(), 1);
        });
        assert_eq!(by_batch, by_put, "same rows, same splits");
    }

    #[test]
    fn scan_spans_region_splits() {
        let config = ClusterConfig {
            region_split_bytes: 2_000,
            ..ClusterConfig::default()
        };
        let c = Cluster::new(config);
        c.create_table(orders_schema()).unwrap();
        for i in 0..200 {
            c.bulk_load(
                "orders",
                [Put::new(format!("o{i:04}")).with("cf", "v", vec![b'x'; 64])],
            )
            .unwrap();
        }
        let metrics = c.metrics();
        assert!(metrics.tables["orders"].regions > 1, "table should have split");
        let rows = c.scan("orders", Scan::all()).unwrap();
        assert_eq!(rows.len(), 200);
        // Rows come back in global key order even across regions.
        let keys: Vec<String> = rows.iter().map(ResultRow::key_str).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let ranged = c.scan("orders", Scan::range("o0010", "o0020")).unwrap();
        assert_eq!(ranged.len(), 10);
    }

    #[test]
    fn bulk_load_is_free_but_accounted_in_storage() {
        let c = cluster();
        c.create_table(orders_schema()).unwrap();
        let before = c.clock().now();
        c.bulk_load(
            "orders",
            (0..50).map(|i| Put::new(format!("o{i}")).with("cf", "v", "1")),
        )
        .unwrap();
        assert_eq!(c.clock().now(), before, "bulk load must not charge time");
        assert_eq!(c.row_count("orders").unwrap(), 50);
        assert!(c.metrics().tables["orders"].bytes > 0);
    }

    #[test]
    fn check_and_put_behaves_like_a_lock() {
        let c = cluster();
        c.create_table(TableSchema::new("locks").with_family("l")).unwrap();
        let acquire = |c: &Cluster| {
            c.check_and_put(
                "locks",
                CheckAndPut::new(
                    "root#42",
                    "l",
                    "held",
                    Expectation::Absent,
                    Put::new("root#42").with("l", "held", "1"),
                ),
            )
            .unwrap()
        };
        assert!(acquire(&c));
        assert!(!acquire(&c));
        // Release.
        assert!(c
            .check_and_put(
                "locks",
                CheckAndPut::new(
                    "root#42",
                    "l",
                    "held",
                    Expectation::Equals(b"1".to_vec()),
                    Put::new("root#42").with("l", "held", ""),
                ),
            )
            .unwrap());
    }

    #[test]
    fn major_compaction_reclaims_old_versions() {
        let c = cluster();
        c.create_table(orders_schema()).unwrap();
        for _ in 0..10 {
            c.put("orders", Put::new("o1").with("cf", "v", vec![b'x'; 500])).unwrap();
        }
        let before = c.metrics().tables["orders"].bytes;
        c.major_compact_all();
        let after = c.metrics().tables["orders"].bytes;
        assert!(after < before);
    }

    #[test]
    fn scan_cost_grows_with_result_size() {
        let c = cluster();
        c.create_table(orders_schema()).unwrap();
        c.bulk_load(
            "orders",
            (0..2_000).map(|i| Put::new(format!("o{i:05}")).with("cf", "v", vec![b'x'; 64])),
        )
        .unwrap();
        let (_, small) = c.clock().measure(|| c.scan("orders", Scan::all().with_limit(10)).unwrap());
        let (_, large) = c.clock().measure(|| c.scan("orders", Scan::all()).unwrap());
        assert!(large > small * 2, "large={large} small={small}");
    }

    #[test]
    fn injected_timeouts_surface_without_retry_and_heal_with_it() {
        let plan = FaultPlan::new(7).with_timeouts(1.0);
        let base = ClusterConfig {
            region_servers: 1,
            fault_plan: Some(plan.clone()),
            ..ClusterConfig::default()
        };
        // No retry policy: the first op fails.
        let c = Cluster::new(base.clone());
        c.create_table(orders_schema()).unwrap();
        assert!(matches!(
            c.put("orders", Put::new("o1").with("cf", "v", "1")),
            Err(StoreError::RpcTimeout { server: 0 })
        ));
        assert_eq!(c.fault_stats().timeouts, 1);
        // Always-timeout plan + retries: exhaustion with a source chain.
        let c = Cluster::new(ClusterConfig {
            retry: Some(RetryPolicy::default().with_max_attempts(3)),
            ..base
        });
        c.create_table(orders_schema()).unwrap();
        match c.put("orders", Put::new("o1").with("cf", "v", "1")) {
            Err(StoreError::RetriesExhausted { attempts: 3, last }) => {
                assert_eq!(*last, StoreError::RpcTimeout { server: 0 });
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        let stats = c.fault_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.giveups, 1);
        // Moderate fault rate + retries: everything lands.
        let c = Cluster::new(ClusterConfig {
            region_servers: 1,
            fault_plan: Some(FaultPlan::new(7).with_timeouts(0.2).with_transients(0.1)),
            retry: Some(RetryPolicy::default()),
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        for i in 0..200 {
            c.put("orders", Put::new(format!("o{i}")).with("cf", "v", "1")).unwrap();
        }
        assert_eq!(c.row_count("orders").unwrap(), 200);
        let stats = c.fault_stats();
        assert!(stats.injected_op_faults() > 0, "faults were injected");
        assert!(stats.retries >= stats.injected_op_faults());
        assert_eq!(stats.giveups, 0);
    }
}
