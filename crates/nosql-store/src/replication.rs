//! The replication registry: replica placement and log-shipping offsets for
//! every region.
//!
//! Models the metadata a real deployment keeps in ZooKeeper.  It lives
//! *outside* the region structs on purpose, so failover decisions survive
//! checkpoint-baseline restores.
//!
//! What this module hides: the registry's mutex and everything behind it —
//! how followers are placed, what "caught up" means, how a promotion is
//! chosen and what a rejoin replays.  [`Replication`] answers questions about
//! region *ids* and server *indexes* only; it never sees a table, a region
//! lock, the clock or the cost model.  The cluster tells it which servers are
//! down, charges what it reports (ship events, catch-up lag) and applies the
//! routing changes it returns.
//!
//! Lock order: a thread holding a table's region lock may call in here (the
//! ship path runs under it), so **region lock → registry** is the only legal
//! order.  The registry mutex is never held across a call back into the
//! cluster: every method returns plain data and releases first.

use crate::metrics::ReplicationStats;
use parking_lot::Mutex;
use simclock::SimInstant;
use std::collections::BTreeMap;

/// One region's registry entry: who owns it, who follows it, and how far
/// each follower's shipped-log copy reaches.
///
/// `shipped` counts this region's records made durable through the group
/// commit (the shipped stream); a follower whose `acked` position equals
/// `shipped` holds a full in-sync copy and is promotable.  Shipping is
/// *synchronous* bookkeeping — a live, in-sync follower acknowledges each
/// flushed batch within the write's charge — so a follower only falls
/// behind while it is down, and catches up by replaying the stream from its
/// acked position when it rejoins.
#[derive(Debug)]
struct ReplicaSet {
    /// Server currently owning the region (serves reads and writes).
    primary: usize,
    /// Follower servers, in placement order (the failover tie-break).
    followers: Vec<usize>,
    /// Records of this region shipped (synced) so far.
    shipped: u64,
    /// Per-follower acknowledged position in the shipped stream.
    acked: BTreeMap<usize, u64>,
}

#[derive(Debug, Default)]
struct Registry {
    /// Per-region replica sets, keyed by region id.
    regions: BTreeMap<u64, ReplicaSet>,
    /// Crashed servers pending rejoin, and when their MTTR elapses.
    rejoin_at: BTreeMap<usize, SimInstant>,
    /// Ship events (record × follower acknowledgements) so far.
    records_shipped: u64,
    failovers: u64,
    /// Catch-up replays by rejoining followers (one per lagging region per
    /// rejoin) and the records they replayed.
    catchup_replays: u64,
    catchup_records: u64,
}

impl Registry {
    /// Forgets every region `keep` rejects.
    fn prune(&mut self, keep: impl Fn(u64) -> bool) {
        self.regions.retain(|id, _| keep(*id));
    }
}

/// The registry behind its mutex.  Exists only when replication is on
/// (`replication_factor > 1` on more than one server); with it off the
/// cluster holds `None` and no op path ever reaches this module.
#[derive(Debug)]
pub(crate) struct Replication {
    /// Copies per region, capped at the server count.
    factor: usize,
    servers: usize,
    registry: Mutex<Registry>,
}

impl Replication {
    /// `None` unless there is a second copy to keep and a second server to
    /// keep it on.
    pub(crate) fn new(factor: usize, servers: usize) -> Option<Self> {
        (factor > 1 && servers > 1).then(|| Replication {
            factor: factor.min(servers),
            servers,
            registry: Mutex::new(Registry::default()),
        })
    }

    /// A fresh replica set for a region owned by `primary`.  Placement is
    /// deterministic: the followers are the next `factor - 1` servers in
    /// ring order, and placement-order position doubles as the failover
    /// tie-break among equally-caught-up candidates.
    fn place(&self, primary: usize) -> ReplicaSet {
        let followers: Vec<usize> =
            (1..self.factor).map(|k| (primary + k) % self.servers).collect();
        ReplicaSet {
            primary,
            acked: followers.iter().map(|&f| (f, 0)).collect(),
            followers,
            shipped: 0,
        }
    }

    /// Registers a region (at creation or split); idempotent.
    pub(crate) fn register(&self, region: u64, primary: usize) {
        let set = self.place(primary);
        self.registry.lock().regions.entry(region).or_insert(set);
    }

    /// Forgets every region `keep` rejects (a dropped table's regions).
    pub(crate) fn prune(&self, keep: impl Fn(u64) -> bool) {
        self.registry.lock().prune(keep);
    }

    /// Ships a freshly synced group-commit batch — the `(sequence, region)`
    /// of each record, as [`crate::WriteAheadLog::sync_take_new`] returns
    /// them — to the followers of the regions it touched and returns the
    /// number of ship events (record × acknowledging follower) for the
    /// batch-closing write to pay.  A live follower that was in sync
    /// acknowledges the record; a follower inside a crash window falls
    /// behind and catches up on rejoin.
    pub(crate) fn ship(&self, newly: &[(u64, Option<u64>)], is_down: impl Fn(usize) -> bool) -> u64 {
        let mut ship_events = 0u64;
        let mut registry = self.registry.lock();
        for &(_, region) in newly {
            let Some(set) = region.and_then(|id| registry.regions.get_mut(&id)) else {
                continue;
            };
            set.shipped += 1;
            for follower in &set.followers {
                if is_down(*follower) {
                    continue;
                }
                let acked = set.acked.entry(*follower).or_insert(0);
                if *acked + 1 == set.shipped {
                    *acked = set.shipped;
                    ship_events += 1;
                }
            }
        }
        registry.records_shipped += ship_events;
        ship_events
    }

    /// Fails over every region whose primary is `victim` to its
    /// most-caught-up **live** follower.  Because shipping is synchronous, any live follower
    /// whose acked position equals `shipped` is fully caught up; candidates
    /// are tried in placement order (the deterministic tie-break).  The
    /// victim is demoted to follower — its synced log copy survives the
    /// crash, so it is immediately in sync and becomes promotable again
    /// after catch-up (due at `rejoin_at`).  A region with no eligible
    /// follower stays on the victim and stalls for the MTTR window, exactly
    /// like RF=1.  Returns the new primary of every region that moved, for
    /// the caller to re-route once the registry is released.
    pub(crate) fn fail_over(
        &self,
        victim: usize,
        rejoin_at: SimInstant,
        is_down: impl Fn(usize) -> bool,
    ) -> BTreeMap<u64, usize> {
        let mut promotions = BTreeMap::new();
        let mut registry = self.registry.lock();
        let due = registry.rejoin_at.entry(victim).or_insert(rejoin_at);
        *due = (*due).max(rejoin_at);
        for (id, set) in registry.regions.iter_mut() {
            if set.primary != victim {
                continue;
            }
            let candidate = set.followers.iter().copied().find(|&f| {
                f != victim && !is_down(f) && set.acked.get(&f).copied().unwrap_or(0) == set.shipped
            });
            let Some(new_primary) = candidate else { continue };
            set.followers.retain(|&f| f != new_primary);
            set.followers.push(victim);
            set.acked.insert(victim, set.shipped);
            set.acked.remove(&new_primary);
            set.primary = new_primary;
            promotions.insert(*id, new_primary);
        }
        registry.failovers += promotions.len() as u64;
        promotions
    }

    /// Rejoins every crashed server whose MTTR has elapsed at `now`: for
    /// each region it follows, the server replays the shipped log from its
    /// last acked position, after which it is in sync and promotable again.
    /// A region the rejoiner still *owns* (it never failed over) needs no
    /// catch-up — its own log is the authority.  Returns the records
    /// replayed, for the caller to charge.
    pub(crate) fn rejoin(&self, now: SimInstant) -> u64 {
        let mut registry = self.registry.lock();
        let due: Vec<usize> = registry
            .rejoin_at
            .iter()
            .filter(|(_, &at)| now >= at)
            .map(|(&server, _)| server)
            .collect();
        let mut replays = 0u64;
        let mut records = 0u64;
        for server in due {
            registry.rejoin_at.remove(&server);
            for set in registry.regions.values_mut() {
                if set.primary == server || !set.followers.contains(&server) {
                    continue;
                }
                let acked = set.acked.entry(server).or_insert(0);
                let lag = set.shipped - *acked;
                if lag > 0 {
                    *acked = set.shipped;
                    replays += 1;
                    records += lag;
                }
            }
        }
        registry.catchup_replays += replays;
        registry.catchup_records += records;
        records
    }

    /// Marks every replica — including a currently-down follower, which
    /// would rebuild from the same baseline on restart — in sync: a
    /// checkpoint is a cluster-wide durability point whose baseline covers
    /// everything shipped.  Promotion still requires liveness, so marking a
    /// down follower in sync cannot hand it a region.
    pub(crate) fn mark_all_synced(&self) {
        for set in self.registry.lock().regions.values_mut() {
            let shipped = set.shipped;
            set.acked.values_mut().for_each(|acked| *acked = shipped);
        }
    }

    /// Reconciles the registry with the regions that actually exist after a
    /// cluster-wide recovery (`live`: region id → the server its restored
    /// snapshot names).  Entries for vanished regions are pruned, regions
    /// missing an entry are registered, and the return value lists every
    /// region whose registry primary differs from its restored server — the
    /// registry wins, because failover decisions postdate the snapshot.
    pub(crate) fn realign(&self, live: &BTreeMap<u64, usize>) -> BTreeMap<u64, usize> {
        let mut routing = BTreeMap::new();
        let mut registry = self.registry.lock();
        registry.prune(|id| live.contains_key(&id));
        for (&id, &server) in live {
            let set = registry.regions.entry(id).or_insert_with(|| self.place(server));
            if set.primary != server {
                routing.insert(id, set.primary);
            }
        }
        routing
    }

    /// Snapshot of the registry's counters (`replication_factor` is the
    /// caller's to fill: it is configuration, not registry state).
    pub(crate) fn stats(&self) -> ReplicationStats {
        let registry = self.registry.lock();
        ReplicationStats {
            replicated_regions: registry.regions.len(),
            records_shipped: registry.records_shipped,
            failovers: registry.failovers,
            catchup_replays: registry.catchup_replays,
            catchup_records: registry.catchup_records,
            replica_lag: registry
                .regions
                .values()
                .flat_map(|set| {
                    set.followers
                        .iter()
                        .map(|f| set.shipped - set.acked.get(f).copied().unwrap_or(0))
                })
                .sum(),
            ..ReplicationStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::fault::FaultPlan;
    use crate::ops::{Get, Put};
    use crate::table::TableSchema;
    use simclock::{SimDuration, SimInstant};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::default())
    }

    fn orders_schema() -> TableSchema {
        TableSchema::new("orders").with_family("cf")
    }

    #[test]
    fn replication_off_keeps_the_registry_empty() {
        let c = cluster();
        c.create_table(orders_schema()).unwrap();
        assert!(!c.replication_enabled());
        c.put("orders", Put::new("o1").with("cf", "v", "1")).unwrap();
        let stats = c.replication_stats();
        assert_eq!(stats.replication_factor, 1);
        assert_eq!(stats.replicated_regions, 0);
        assert_eq!(stats.records_shipped, 0);
    }

    #[test]
    fn replication_ships_synced_records_and_charges_for_it() {
        let run = |rf: usize| {
            let c = Cluster::new(ClusterConfig {
                region_servers: 3,
                replication_factor: rf,
                ..ClusterConfig::default()
            });
            c.create_table(orders_schema()).unwrap();
            let (_, cost) = c.clock().measure(|| {
                for i in 0..10 {
                    c.put("orders", Put::new(format!("o{i}")).with("cf", "v", "1")).unwrap();
                }
            });
            (c, cost)
        };
        let (c1, cost1) = run(1);
        let (c3, cost3) = run(3);
        assert_eq!(c1.replication_stats().records_shipped, 0);
        // RF=3: every synced record acknowledged by 2 live followers.
        assert_eq!(c3.replication_stats().records_shipped, 20);
        assert_eq!(c3.replication_stats().replica_lag, 0);
        let ship = c3.cost_model().replication_ship_cost(20);
        assert_eq!(cost3, cost1 + ship, "replication charges exactly the ship cost");
    }

    #[test]
    fn failover_keeps_the_region_available_through_the_crash_window() {
        // Server 0 (the region's primary) crashes at 3ms for a 50ms MTTR.
        // With RF=2 the region fails over to server 1 and every op inside
        // the window succeeds without any retry policy at all.
        let c = Cluster::new(ClusterConfig {
            region_servers: 2,
            replication_factor: 2,
            fault_plan: Some(FaultPlan::new(1).with_crashes(
                vec![SimDuration::from_millis(3)],
                SimDuration::from_millis(50),
            )),
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        for i in 0..20 {
            c.put("orders", Put::new(format!("o{i:02}")).with("cf", "v", format!("{i}")))
                .unwrap();
            let row = c.get("orders", Get::new(format!("o{i:02}"))).unwrap().unwrap();
            assert_eq!(row.value("cf", "v").unwrap(), format!("{i}").as_bytes());
        }
        let stats = c.replication_stats();
        assert!(stats.failovers >= 1, "the crash must have triggered a failover");
        assert_eq!(c.fault_stats().server_crashes, 1);
        assert_eq!(c.fault_stats().unavailable_rejections, 0, "no op saw the outage");
        assert_eq!(c.row_count("orders").unwrap(), 20, "zero acked-synced loss");
    }

    #[test]
    fn rejoined_victim_catches_up_and_is_promotable_again() {
        // Crash 0: server 0 at 3ms (10ms MTTR) → fail over to server 1,
        // follower 0 falls behind while down, catches up on rejoin at 13ms.
        // Crash 1: server 1 at 40ms → fail back over to the caught-up 0.
        let c = Cluster::new(ClusterConfig {
            region_servers: 2,
            replication_factor: 2,
            fault_plan: Some(FaultPlan::new(1).with_crashes(
                vec![SimDuration::from_millis(3), SimDuration::from_millis(40)],
                SimDuration::from_millis(10),
            )),
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        for i in 0..40 {
            c.put("orders", Put::new(format!("o{i:02}")).with("cf", "v", "x")).unwrap();
        }
        assert!(c.clock().now() > SimInstant::EPOCH + SimDuration::from_millis(50));
        let stats = c.replication_stats();
        assert_eq!(stats.failovers, 2, "second crash promoted the rejoined victim");
        assert!(stats.catchup_replays >= 1, "the rejoin replayed the shipped log");
        assert!(stats.catchup_records > 0);
        assert_eq!(c.fault_stats().unavailable_rejections, 0);
        assert_eq!(c.row_count("orders").unwrap(), 40);
    }

    #[test]
    fn recover_realigns_routing_with_the_replication_registry() {
        // A failover moves the region to server 1; a full-cluster crash and
        // recovery must keep routing it to server 1 (the registry, i.e. the
        // ZooKeeper layer, survives).
        let c = Cluster::new(ClusterConfig {
            region_servers: 2,
            replication_factor: 2,
            fault_plan: Some(FaultPlan::new(1).with_crashes(
                vec![SimDuration::from_nanos(1)],
                SimDuration::from_millis(500),
            )),
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        c.put("orders", Put::new("a").with("cf", "v", "1")).unwrap();
        c.put("orders", Put::new("b").with("cf", "v", "2")).unwrap(); // fires failover
        assert_eq!(c.replication_stats().failovers, 1);
        c.crash();
        c.recover();
        // Server 0 is still inside its MTTR window: if routing had reverted
        // to it, this op would be rejected as unavailable.
        c.put("orders", Put::new("c").with("cf", "v", "3")).unwrap();
        assert_eq!(c.fault_stats().unavailable_rejections, 0);
        assert_eq!(c.row_count("orders").unwrap(), 3);
    }

    #[test]
    fn drop_table_prunes_its_regions_from_the_registry() {
        let c = Cluster::new(ClusterConfig {
            region_servers: 2,
            replication_factor: 2,
            ..ClusterConfig::default()
        });
        c.create_table(orders_schema()).unwrap();
        c.create_table(TableSchema::new("carts").with_family("cf")).unwrap();
        assert_eq!(c.replication_stats().replicated_regions, 2);
        c.drop_table("carts").unwrap();
        assert_eq!(c.replication_stats().replicated_regions, 1);
        c.put("orders", Put::new("o1").with("cf", "v", "1")).unwrap();
        assert_eq!(c.replication_stats().records_shipped, 1, "the orders region still ships");
    }
}
