//! Crash and recovery: what the cluster loses when servers die and how it
//! gets the durable state back.
//!
//! What this module hides: the definition of *durable state* — the last
//! [`Cluster::checkpoint`] snapshot plus every **synced** WAL record, replayed
//! across all server logs in global timestamp order — and the two ways it is
//! rebuilt: wholesale after a cluster-wide [`Cluster::crash`]
//! ([`Cluster::recover`]), and region by region when a scheduled
//! region-server crash drops one server's unsynced tail mid-run.  The op
//! pipeline in `cluster.rs` only ever asks "are we up?"; replay re-applies
//! records through [`Region::apply_op`], the same function the live write path
//! applied them with.

use crate::cluster::Cluster;
use crate::fault::FaultState;
use crate::region::{Region, RegionServerId};
use crate::table::TableSchema;
use crate::wal::{WalEntry, WalOp, WriteAheadLog};
use simclock::SimDuration;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// What [`Cluster::recover`] did: how much WAL it replayed and what the
/// recovery cost on the simulated clock was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Synced WAL records replayed over the checkpoint baseline.
    pub replayed_entries: u64,
    /// Tables whose state was restored (baseline or cleared + replayed).
    pub restored_tables: usize,
    /// Simulated time charged for the recovery (`CostModel::recovery_cost`).
    pub recovery_sim: SimDuration,
}

/// What [`Cluster::crash`] lost: the acked-but-unsynced WAL tail dropped
/// from each region server's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// Unsynced records lost per server, indexed by region-server id.
    pub lost_per_server: Vec<usize>,
}

impl CrashReport {
    /// Total unsynced records lost across every server.
    pub fn total(&self) -> usize {
        self.lost_per_server.iter().sum()
    }
}

/// Replays one synced record onto the region that owns its row, if `wanted`
/// accepts that region.  Errors are ignored: the mutation was validated when
/// it was first applied, and replay repeats it in the original global order.
fn replay(
    schema: &TableSchema,
    regions: &mut [Region],
    op: &WalOp,
    wanted: impl Fn(&Region) -> bool,
) {
    let Some(row) = op.row() else { return };
    let region = &mut regions[Cluster::region_index_for(regions, row)];
    if wanted(region) {
        let _ = region.apply_op(schema, op);
    }
}

impl Cluster {
    /// Fires every crash event whose scheduled instant has passed: the
    /// victim loses its unsynced WAL tail (and the affected region state is
    /// rebuilt from durable state), then stays down for its MTTR.  With
    /// replication on, rejoins whose MTTR has elapsed are processed first
    /// (catch-up replay, charged per record), and each fresh victim's
    /// regions fail over to their most-caught-up live follower before any
    /// rebuild.
    pub(crate) fn advance_faults(&self, faults: &FaultState) {
        let now = self.clock().now();
        let replication = self.inner.replication.as_ref();
        if let Some(rep) = replication {
            let lag = rep.rejoin(now);
            if lag > 0 {
                self.charge(self.cost_model().catchup_replay_cost(lag));
            }
        }
        for victim in faults.due_crashes(now) {
            faults.server_crashes.fetch_add(1, Ordering::Relaxed);
            let dropped = self.wal(victim).drop_unsynced();
            if dropped > 0 {
                faults
                    .wal_records_lost
                    .fetch_add(dropped as u64, Ordering::Relaxed);
            }
            // Down *before* the failover decision: the victim must fail the
            // liveness check and cannot be chosen as anyone's new primary.
            let back_at = now + faults.plan.crash_mttr;
            faults.mark_down(victim, back_at);
            let moved = match replication {
                Some(rep) => rep.fail_over(victim, back_at, |s| faults.is_down(s, now)),
                None => BTreeMap::new(),
            };
            self.reroute(&moved);
            if dropped > 0 {
                self.rebuild_regions(victim, &moved);
            }
        }
    }

    /// Points every region named in `routing` at its new primary server.
    /// Called with the registry released (lock order: region → registry).
    fn reroute(&self, routing: &BTreeMap<u64, usize>) {
        if routing.is_empty() {
            return;
        }
        for state in self.inner.tables.read().values() {
            for region in state.regions.write().iter_mut() {
                if let Some(&primary) = routing.get(&region.id.0) {
                    region.server = RegionServerId(primary);
                }
            }
        }
    }

    /// Crashes the whole cluster: every server's acked-but-unsynced WAL tail
    /// is lost, all volatile region state (memstores) is wiped, and every op
    /// fails with [`crate::StoreError::ClusterDown`] until
    /// [`Cluster::recover`].  Table metadata (schemas, region boundaries)
    /// survives — it lives in the simulated ZooKeeper/HDFS layer, as does
    /// the replication registry.  Returns what was lost, per server.
    // lint-allow(cost-accounting): fault-injection hook, not a client op
    pub fn crash(&self) -> CrashReport {
        self.inner.crashed.store(true, Ordering::Release);
        let lost_per_server: Vec<usize> = self
            .inner
            .wals
            .iter()
            .map(WriteAheadLog::drop_unsynced)
            .collect();
        for state in self.inner.tables.read().values() {
            state.regions.write().iter_mut().for_each(Region::clear_rows);
        }
        CrashReport { lost_per_server }
    }

    /// True between [`Cluster::crash`] and [`Cluster::recover`].
    pub fn is_crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::Acquire)
    }

    /// Recovers a crashed cluster to the durable state: the last
    /// [`Cluster::checkpoint`] snapshot plus every *synced* WAL record,
    /// replayed across all server logs in global timestamp order.  Charges
    /// `CostModel::recovery_cost` for the replay, clears the crashed flag
    /// and finishes with a fresh checkpoint (so the replayed WAL prefix is
    /// truncated rather than replayed again next time).
    ///
    /// With replication on, routing is then re-derived from the registry:
    /// failover decisions live there — the simulated
    /// ZooKeeper layer — so they survive the baseline restore, while the
    /// restored region snapshots may predate them.
    pub fn recover(&self) -> RecoveryReport {
        let tables = self.inner.tables.read();
        {
            let baseline = self.inner.baseline.read();
            for (name, state) in tables.iter() {
                let mut regions = state.regions.write();
                match baseline.get(name) {
                    Some(snapshot) => *regions = snapshot.clone(),
                    None => regions.iter_mut().for_each(Region::clear_rows),
                }
            }
        }
        let mut replayed = 0u64;
        for entry in &self.synced_physical_entries() {
            if let Some(state) = tables.get(entry.table.as_str()) {
                replay(&state.schema, &mut state.regions.write(), &entry.op, |_| true);
                replayed += 1;
            }
        }
        let restored_tables = tables.len();
        drop(tables);
        self.inner.crashed.store(false, Ordering::Release);
        let recovery_sim = self.cost_model().recovery_cost(replayed);
        self.charge(recovery_sim);
        if let Some(rep) = &self.inner.replication {
            // (region id → restored server) of every live region, for the
            // registry to reconcile against.
            let mut live = BTreeMap::new();
            for state in self.inner.tables.read().values() {
                for region in state.regions.read().iter() {
                    live.insert(region.id.0, region.server.0);
                }
            }
            self.reroute(&rep.realign(&live));
        }
        self.checkpoint();
        RecoveryReport {
            replayed_entries: replayed,
            restored_tables,
            recovery_sim,
        }
    }

    /// Makes the current state durable: snapshots every table's regions as
    /// the new recovery baseline, then syncs and truncates every WAL (the
    /// snapshot covers all of it — the memstore-flush that lets HBase
    /// archive logs).  Charges one `wal_sync` per server log that
    /// had an unsynced tail (the forced flush); a cluster whose logs are
    /// clean checkpoints for free.  Call only at quiescent points: the
    /// snapshot is per-table atomic, not cluster-atomic.  Returns the number
    /// of WAL records truncated.
    pub fn checkpoint(&self) -> u64 {
        {
            let tables = self.inner.tables.read();
            let mut baseline = self.inner.baseline.write();
            baseline.clear();
            for (name, state) in tables.iter() {
                baseline.insert(name.clone(), state.regions.read().clone());
            }
        }
        let mut truncated = 0u64;
        let mut flush_cost = SimDuration::ZERO;
        for wal in &self.inner.wals {
            if wal.unsynced_len() > 0 {
                flush_cost += self.cost_model().wal_sync;
                wal.sync();
            }
            truncated += wal.len() as u64;
            wal.truncate_before(wal.next_sequence());
        }
        if flush_cost > SimDuration::ZERO {
            self.charge(flush_cost);
        }
        // Registry bookkeeping only; no extra charge (the flush above
        // already paid).
        if let Some(rep) = &self.inner.replication {
            rep.mark_all_synced();
        }
        truncated
    }

    /// All synced physical (non-`Logical`) records across every server log,
    /// in cluster-wide mutation order: mutation timestamps are globally
    /// unique and monotone, so sorting by timestamp reconstructs it.
    fn synced_physical_entries(&self) -> Vec<WalEntry> {
        let mut entries: Vec<WalEntry> = self
            .inner
            .wals
            .iter()
            .flat_map(WriteAheadLog::entries)
            .filter(|e| e.synced && e.op.timestamp().is_some())
            .collect();
        entries.sort_by_key(|e| e.op.timestamp());
        entries
    }

    /// Rebuilds the regions a server crash dirtied, from durable state
    /// (checkpoint baseline + synced records from *all* logs — a key's
    /// mutations may sit in another server's log if its region split and
    /// moved since the checkpoint).  Affected regions are those still
    /// hosted on the victim plus those in `moved` (regions that just failed
    /// over: their memstores hold the victim's lost acked-unsynced writes,
    /// and the promoted follower's copy is exactly baseline + synced log).
    /// Regions the new primary *already* hosted are untouched — their
    /// acked-unsynced writes are healthy and must survive.
    fn rebuild_regions(&self, victim: usize, moved: &BTreeMap<u64, usize>) {
        let affected =
            |region: &Region| region.server.0 == victim || moved.contains_key(&region.id.0);
        let tables = self.inner.tables.read();
        let baseline = self.inner.baseline.read();
        let entries = self.synced_physical_entries();
        for (name, state) in tables.iter() {
            let mut regions = state.regions.write();
            if !regions.iter().any(affected) {
                continue;
            }
            regions.iter_mut().filter(|r| affected(r)).for_each(Region::clear_rows);
            for (key, row) in baseline.get(name).into_iter().flatten().flat_map(Region::rows) {
                let idx = Self::region_index_for(&regions, key);
                if affected(&regions[idx]) {
                    regions[idx].insert_row(key.clone(), row.clone());
                }
            }
            for entry in entries.iter().filter(|e| *e.table == **name) {
                replay(&state.schema, &mut regions, &entry.op, affected);
            }
            regions.iter_mut().filter(|r| affected(r)).for_each(Region::recompute_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::error::StoreError;
    use crate::fault::FaultPlan;
    use crate::ops::{Delete, Get, Put, Scan};
    use crate::retry::RetryPolicy;
    use crate::table::{ResultRow, TableSchema};
    use crate::wal::WalOp;
    use simclock::SimDuration;

    fn orders_schema() -> TableSchema {
        TableSchema::new("orders").with_family("cf")
    }

    #[test]
    fn crash_loses_unsynced_tail_and_recover_replays_synced_state() {
        let c = Cluster::new(ClusterConfig {
            region_servers: 2,
            wal_sync_interval: 4,
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        for i in 0..18 {
            c.put("orders", Put::new(format!("o{i:02}")).with("cf", "v", format!("{i}"))).unwrap();
        }
        // Some writes are acked but not yet synced.
        let unsynced: usize = (0..2).map(|s| c.wal(s).unsynced_len()).sum();
        assert!(unsynced > 0, "interval 4 must leave an unsynced tail");
        let synced_rows: Vec<String> = {
            let mut rows = Vec::new();
            for s in 0..2 {
                for e in c.wal(s).entries() {
                    if e.synced {
                        if let WalOp::Put { row, .. } = &e.op {
                            rows.push(String::from_utf8(row.clone()).unwrap());
                        }
                    }
                }
            }
            rows.sort();
            rows
        };
        let lost = c.crash();
        assert_eq!(lost.total(), unsynced);
        assert_eq!(lost.lost_per_server.len(), 2, "one slot per server");
        assert!(c.is_crashed());
        assert!(matches!(
            c.get("orders", Get::new("o00")),
            Err(StoreError::ClusterDown)
        ));
        let report = c.recover();
        assert!(!c.is_crashed());
        assert_eq!(report.replayed_entries, synced_rows.len() as u64);
        assert!(report.recovery_sim > SimDuration::ZERO);
        let mut recovered: Vec<String> = c
            .scan("orders", Scan::all())
            .unwrap()
            .iter()
            .map(ResultRow::key_str)
            .collect();
        recovered.sort();
        assert_eq!(recovered, synced_rows, "exactly the synced writes survive");
        // recover() checkpointed: the replayed prefix is truncated.
        assert_eq!(c.wal(0).len() + c.wal(1).len(), 0);
    }

    #[test]
    fn checkpoint_makes_bulk_loads_durable_and_truncates_wal() {
        let c = Cluster::new(ClusterConfig {
            region_servers: 1,
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        c.bulk_load(
            "orders",
            (0..20).map(|i| Put::new(format!("o{i:02}")).with("cf", "v", "x")),
        )
        .unwrap();
        c.checkpoint();
        c.put("orders", Put::new("extra").with("cf", "v", "y")).unwrap();
        assert_eq!(c.wal(0).len(), 1);
        c.crash();
        c.recover();
        assert_eq!(c.row_count("orders").unwrap(), 21, "baseline + synced WAL");
        assert_eq!(c.wal(0).len(), 0, "recovery re-checkpointed");
        // Without a checkpoint, bulk loads are volatile.
        let c2 = Cluster::new(ClusterConfig { region_servers: 1, ..ClusterConfig::default() });
        c2.create_table(orders_schema()).unwrap();
        c2.bulk_load("orders", [Put::new("o1").with("cf", "v", "x")]).unwrap();
        c2.crash();
        c2.recover();
        assert_eq!(c2.row_count("orders").unwrap(), 0);
    }

    #[test]
    fn recovery_replays_deletes_and_overwrites_in_order() {
        let c = Cluster::new(ClusterConfig {
            region_servers: 3,
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        c.put("orders", Put::new("a").with("cf", "v", "1")).unwrap();
        c.put("orders", Put::new("n").with("cf", "count", "5")).unwrap();
        c.put("orders", Put::new("b").with("cf", "v", "2")).unwrap();
        c.delete("orders", Delete::row("a")).unwrap();
        c.delete("orders", Delete::row("b")).unwrap();
        c.put("orders", Put::new("n").with("cf", "count", "3")).unwrap();
        c.put("orders", Put::new("b").with("cf", "v", "4")).unwrap();
        c.crash();
        c.recover();
        assert!(c.get("orders", Get::new("a")).unwrap().is_none(), "delete replayed");
        let value = |key: &str, column: &str| {
            c.get("orders", Get::new(key)).unwrap().unwrap().value("cf", column).unwrap().to_vec()
        };
        assert_eq!(value("b", "v"), b"4", "a put after a delete replays after it");
        assert_eq!(value("n", "count"), b"3", "overwrites replay to the newest value");
    }

    #[test]
    fn scheduled_server_crash_downs_the_victim_until_mttr_elapses() {
        // Server 0 crashes as soon as any sim time has been charged.
        let plan = FaultPlan::new(1).with_crashes(
            vec![SimDuration::from_nanos(1)],
            SimDuration::from_millis(20),
        );
        let c = Cluster::new(ClusterConfig {
            region_servers: 1,
            fault_plan: Some(plan.clone()),
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        c.put("orders", Put::new("o1").with("cf", "v", "1")).unwrap();
        // The crash event fires at the next op; server 0 is down.
        assert!(matches!(
            c.get("orders", Get::new("o1")),
            Err(StoreError::RegionUnavailable { server: 0 })
        ));
        assert_eq!(c.fault_stats().server_crashes, 1);
        // Burn past the MTTR window; the server is back.
        c.clock().charge(SimDuration::from_millis(25));
        assert!(c.get("orders", Get::new("o1")).unwrap().is_some());
        // With retries, the same outage is invisible to the caller: backoff
        // burns sim time until the MTTR window passes.
        let c = Cluster::new(ClusterConfig {
            region_servers: 1,
            fault_plan: Some(FaultPlan::new(1).with_crashes(
                vec![SimDuration::from_nanos(1)],
                SimDuration::from_millis(20),
            )),
            retry: Some(RetryPolicy { max_attempts: 16 }),
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        c.put("orders", Put::new("o1").with("cf", "v", "1")).unwrap();
        assert!(c.get("orders", Get::new("o1")).unwrap().is_some());
        let stats = c.fault_stats();
        assert_eq!(stats.server_crashes, 1);
        assert!(stats.retries > 0, "the outage was ridden out by retries");
    }

    #[test]
    fn server_crash_with_unsynced_tail_loses_only_the_victims_writes() {
        // Group commit leaves an unsynced tail; the scheduled crash must
        // drop it and rebuild the victim's regions from durable state.
        let c = Cluster::new(ClusterConfig {
            region_servers: 1,
            wal_sync_interval: 100,
            fault_plan: Some(FaultPlan::new(1).with_crashes(
                vec![SimDuration::from_millis(20)],
                SimDuration::from_nanos(1),
            )),
            retry: Some(RetryPolicy::default()),
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        c.bulk_load("orders", (0..10).map(|i| Put::new(format!("base{i}")).with("cf", "v", "x")))
            .unwrap();
        c.checkpoint();
        // Non-syncing puts charge ~1ms each (RPC + server work, sync
        // deferred), so the 20ms crash fires mid-stream with an unsynced
        // tail in the log.
        for i in 0..40 {
            c.put("orders", Put::new(format!("live{i:02}")).with("cf", "v", "y")).unwrap();
        }
        let stats = c.fault_stats();
        assert_eq!(stats.server_crashes, 1);
        assert!(stats.wal_records_lost > 0, "acked-unsynced records were lost");
        let rows = c.row_count("orders").unwrap();
        // Baseline survived; exactly the lost tail is missing.
        assert!(rows >= 10, "checkpointed rows survive");
        assert_eq!(rows, 10 + 40 - stats.wal_records_lost);
    }
}
