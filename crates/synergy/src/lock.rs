//! The hierarchical locking mechanism (paper §VIII-A), with lock *leases*
//! for crash recovery.
//!
//! One lock table is created per root relation.  The lock-table row key has
//! the same attributes as the root relation's key, and a single boolean
//! column records whether the lock is held.  To update a row of any relation
//! in a rooted tree, the transaction acquires the lock on the key of the
//! associated row of the *root* relation — and because every relation
//! belongs to at most one rooted tree, a single lock suffices per write
//! transaction.  Locks are implemented with HBase `checkAndPut`, exactly as
//! in the paper's §IX-C locking-overhead experiment.
//!
//! Every acquisition additionally records a **lease expiry** (simulated
//! time).  A client that crashes mid-transaction leaves its lock row at
//! `held = 1` forever; the lease bounds the damage.  Contending writers
//! never steal a held lock — with a single shared simulated clock, their
//! own spinning advances time and could expire a perfectly live holder —
//! so the lease is purely a *recovery fencing* mechanism:
//! [`LockManager::reclaim_expired`], run by Synergy crash recovery, first
//! waits out the latest outstanding lease (charging the simulated clock,
//! the fencing interval that guarantees no zombie holder can still act)
//! and then force-releases every expired lock in one sweep.

use nosql_store::ops::{CheckAndPut, Expectation, Put, Scan};
use nosql_store::{Cluster, Name, StoreResult, TableSchema};
use simclock::SimDuration;
use std::sync::OnceLock;

/// Column family used by lock tables.
pub const LOCK_FAMILY: &str = "l";
/// Column storing the boolean "lock in use" flag.
pub const LOCK_COLUMN: &str = "held";
/// Column storing the lease expiry (simulated nanoseconds since the epoch,
/// decimal).  Present on every row written by [`LockManager::acquire`].
pub const LOCK_EXPIRY_COLUMN: &str = "exp";

/// Default lock-lease length.  Healthy transactions hold their lock for
/// milliseconds of simulated time (a handful of store round trips, plus at
/// worst the retry policy's total fault backoff), so one simulated second
/// comfortably bounds any live holder; recovery waits it out (the fencing
/// interval) before reclaiming a crashed holder's lock.
pub const DEFAULT_LOCK_LEASE: SimDuration = SimDuration::from_secs(1);

/// Acquisition attempts [`LockManager::acquire`] makes before giving up (a
/// failed transaction).  Each contended attempt charges 200 µs of simulated
/// backoff, so a writer waits about two simulated seconds — longer than
/// [`DEFAULT_LOCK_LEASE`] — before it gives up.
pub const MAX_LOCK_ATTEMPTS: usize = 10_000;

/// [`LOCK_FAMILY`], [`LOCK_COLUMN`] and [`LOCK_EXPIRY_COLUMN`] as the store
/// interned them, resolved once: every acquire and release writes them, and
/// a resolved `Name` goes into a put without a trip through the interner.
pub(crate) fn lock_names() -> (Name, Name, Name) {
    static NAMES: OnceLock<(Name, Name, Name)> = OnceLock::new();
    *NAMES.get_or_init(|| (LOCK_FAMILY.into(), LOCK_COLUMN.into(), LOCK_EXPIRY_COLUMN.into()))
}

/// Name of the lock table for a root relation, e.g. `L_Customer`.
pub fn lock_table_name(root: &str) -> String {
    format!("L_{root}")
}

/// Manages the per-root lock tables.
///
/// The lock *lease* fences in time: a crashed holder's lock becomes
/// reclaimable once its lease has been waited out.  A held lock survives a
/// failover of its row's region: the `checkAndPut` release simply lands on
/// the new primary.
#[derive(Clone)]
pub struct LockManager {
    cluster: Cluster,
}

/// A held hierarchical lock.  Release it with [`LockManager::release`]; the
/// guard also releases on drop as a safety net (best effort).
pub struct LockGuard {
    cluster: Cluster,
    table: String,
    key: String,
    released: bool,
}

impl LockGuard {
    /// The lock-table row key this guard holds.
    pub fn key(&self) -> &str {
        &self.key
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        if !self.released {
            let _ = release_row(&self.cluster, &self.table, &self.key);
        }
    }
}

/// Releases lock row `key` of `table` if it is held: the `checkAndPut` that
/// flips `held` from 1 to 0 and clears the lease expiry.  `Ok(false)` when
/// the lock was not held.
fn release_row(cluster: &Cluster, table: &str, key: &str) -> StoreResult<bool> {
    let (family, held, expiry) = lock_names();
    let release = Put::new(key.to_string()).with(family, held, "0").with(family, expiry, "0");
    cluster.check_and_put(
        table,
        CheckAndPut::new(key.to_string(), family, held, Expectation::Equals(b"1".to_vec()), release),
    )
}

impl LockManager {
    /// Creates a lock manager over `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        LockManager { cluster }
    }

    /// Creates the lock table for a root relation (idempotent).
    pub fn create_lock_table(&self, root: &str) -> StoreResult<()> {
        let name = lock_table_name(root);
        if !self.cluster.table_exists(&name) {
            self.cluster
                .create_table(TableSchema::new(name).with_family(LOCK_FAMILY))?;
        }
        Ok(())
    }

    /// Creates a lock-table entry for a root row ("a lock table entry is
    /// created when a tuple is inserted into the root table", §VIII-A).
    pub fn ensure_entry(&self, root: &str, key: &str) -> StoreResult<()> {
        let table = lock_table_name(root);
        let (family, held, _) = lock_names();
        self.cluster.put(&table, Put::new(key.to_string()).with(family, held, "0"))
    }

    /// The `held = 1` put for an acquisition at the current simulated time,
    /// stamping the lease expiry.
    fn held_put(&self, key: &str) -> Put {
        let (family, held, expiry_column) = lock_names();
        let expiry = self.cluster.clock().now() + DEFAULT_LOCK_LEASE;
        Put::new(key.to_string())
            .with(family, held, "1")
            .with(family, expiry_column, expiry.as_nanos().to_string())
    }

    /// Acquires the hierarchical lock for root row `key`, spinning (with a
    /// simulated backoff charge) until it succeeds or [`MAX_LOCK_ATTEMPTS`]
    /// are exhausted.  A held lock is never stolen, whatever its lease says —
    /// only [`LockManager::reclaim_expired`] (crash recovery) breaks one.
    pub fn acquire(&self, root: &str, key: &str) -> StoreResult<Option<LockGuard>> {
        let table = lock_table_name(root);
        let (family, held, _) = lock_names();
        for attempt in 0..MAX_LOCK_ATTEMPTS {
            let put = self.held_put(key);
            // Fast path: the entry exists and is free.
            let acquired = self.cluster.check_and_put(
                &table,
                CheckAndPut::new(
                    key.to_string(),
                    family,
                    held,
                    Expectation::Equals(b"0".to_vec()),
                    put.clone(),
                ),
            )?;
            if acquired {
                return Ok(Some(self.guard(&table, key)));
            }
            // The entry may not exist yet (root row never inserted through
            // Synergy); create-and-acquire atomically.
            let acquired = self.cluster.check_and_put(
                &table,
                CheckAndPut::new(key.to_string(), family, held, Expectation::Absent, put),
            )?;
            if acquired {
                return Ok(Some(self.guard(&table, key)));
            }
            // Contended: back off.  The charge models the client-side wait;
            // the yield lets the holder (another thread) make progress.
            self.cluster.clock().charge(SimDuration::from_micros(200));
            if attempt % 16 == 15 {
                std::thread::yield_now();
            }
        }
        Ok(None)
    }

    /// Releases a previously acquired lock.  If the lock row's region failed
    /// over while the lock was held, the release still succeeds:
    /// `checkAndPut` routes to the new primary.
    pub fn release(&self, mut guard: LockGuard) -> StoreResult<()> {
        release_row(&self.cluster, &guard.table, &guard.key)?;
        guard.released = true;
        Ok(())
    }

    /// Force-releases every held lock in `root`'s lock table, first
    /// *waiting out* the latest outstanding lease by charging the simulated
    /// clock — the fencing interval after which no holder, dead or alive,
    /// can still act on its lock.  Run by Synergy crash recovery, where
    /// every pre-crash holder is known dead; the wait makes the sweep safe
    /// even against a holder that somehow survived.  Returns the number of
    /// locks reclaimed.
    pub fn reclaim_expired(&self, root: &str) -> StoreResult<usize> {
        let table = lock_table_name(root);
        if !self.cluster.table_exists(&table) {
            return Ok(0);
        }
        // Collect the held lock rows and the latest lease expiry among them.
        let mut held: Vec<String> = Vec::new();
        let mut latest_expiry: u64 = 0;
        for row in self.cluster.scan(&table, Scan::all())? {
            if row.value(LOCK_FAMILY, LOCK_COLUMN) != Some(b"1".as_slice()) {
                continue;
            }
            let expiry = row
                .value(LOCK_FAMILY, LOCK_EXPIRY_COLUMN)
                .and_then(|bytes| std::str::from_utf8(bytes).ok())
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
            latest_expiry = latest_expiry.max(expiry);
            held.push(row.key_str());
        }
        if held.is_empty() {
            return Ok(0);
        }
        // Fencing: wait until every outstanding lease is expired.
        let now = self.cluster.clock().now().as_nanos();
        if latest_expiry > now {
            self.cluster
                .clock()
                .charge(SimDuration::from_nanos(latest_expiry - now));
        }
        let mut reclaimed = 0;
        for key in held {
            if release_row(&self.cluster, &table, &key)? {
                reclaimed += 1;
            }
        }
        Ok(reclaimed)
    }

    fn guard(&self, table: &str, key: &str) -> LockGuard {
        LockGuard {
            cluster: self.cluster.clone(),
            table: table.to_string(),
            key: key.to_string(),
            released: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosql_store::ops::Get;
    use nosql_store::ClusterConfig;

    fn manager() -> LockManager {
        let cluster = Cluster::new(ClusterConfig::default());
        let m = LockManager::new(cluster);
        m.create_lock_table("Customer").unwrap();
        m
    }

    /// True if the lock for root row `key` of `root` is held.
    fn is_held(m: &LockManager, root: &str, key: &str) -> bool {
        let row = m.cluster.get(&lock_table_name(root), Get::new(key.to_string())).unwrap();
        row.is_some_and(|row| row.value(LOCK_FAMILY, LOCK_COLUMN) == Some(b"1".as_slice()))
    }

    #[test]
    fn acquire_and_release_round_trip() {
        let m = manager();
        m.ensure_entry("Customer", "42").unwrap();
        let guard = m.acquire("Customer", "42").unwrap().unwrap();
        assert!(is_held(&m, "Customer", "42"));
        m.release(guard).unwrap();
        assert!(!is_held(&m, "Customer", "42"));
    }

    #[test]
    fn acquire_creates_missing_entries() {
        let m = manager();
        let guard = m.acquire("Customer", "never-inserted").unwrap().unwrap();
        assert!(is_held(&m, "Customer", "never-inserted"));
        m.release(guard).unwrap();
    }

    #[test]
    fn contended_lock_times_out_after_max_attempts() {
        let m = manager();
        let _held = m.acquire("Customer", "7").unwrap().unwrap();
        let before = m.cluster.clock().now();
        let second = m.acquire("Customer", "7").unwrap();
        assert!(second.is_none());
        // Every attempt failed and backed off.
        let backoff = SimDuration::from_micros(200) * MAX_LOCK_ATTEMPTS as u64;
        assert!(m.cluster.clock().now() - before > backoff);
    }

    #[test]
    fn dropping_a_guard_releases_the_lock() {
        let m = manager();
        {
            let _guard = m.acquire("Customer", "9").unwrap().unwrap();
            assert!(is_held(&m, "Customer", "9"));
        }
        assert!(!is_held(&m, "Customer", "9"));
    }

    #[test]
    fn concurrent_writers_serialize_on_the_same_root_key() {
        let m = manager();
        m.ensure_entry("Customer", "1").unwrap();
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        let guard = m.acquire("Customer", "1").unwrap().unwrap();
                        // Critical section: read-modify-write a shared counter
                        // non-atomically; correctness requires mutual exclusion.
                        let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                        std::thread::yield_now();
                        counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                        m.release(guard).unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 80);
    }

    #[test]
    fn distinct_root_keys_do_not_contend() {
        let m = manager();
        let g1 = m.acquire("Customer", "1").unwrap().unwrap();
        let g2 = m.acquire("Customer", "2").unwrap().unwrap();
        m.release(g1).unwrap();
        m.release(g2).unwrap();
    }

    #[test]
    fn orphaned_locks_block_contenders_but_are_never_stolen() {
        let m = manager();
        let orphan = m.acquire("Customer", "12").unwrap().unwrap();
        // Simulate the holder crashing: the guard is forgotten, the lock
        // row stays held.
        std::mem::forget(orphan);
        assert!(is_held(&m, "Customer", "12"));
        // Contenders spin out without stealing, however long they wait.
        let blocked = m.acquire("Customer", "12").unwrap();
        assert!(blocked.is_none());
        assert!(is_held(&m, "Customer", "12"));
    }

    #[test]
    fn reclaim_waits_out_the_lease_and_frees_orphaned_locks() {
        let m = manager();
        let orphan = m.acquire("Customer", "a").unwrap().unwrap();
        std::mem::forget(orphan);
        let before = m.cluster.clock().now();
        assert_eq!(m.reclaim_expired("Customer").unwrap(), 1);
        // The sweep charged the fencing wait: most of the orphan's lease
        // was still outstanding (acquisition itself costs only a few
        // simulated milliseconds).
        let outstanding = DEFAULT_LOCK_LEASE - SimDuration::from_millis(50);
        assert!(m.cluster.clock().now() - before >= outstanding);
        assert!(!is_held(&m, "Customer", "a"));
        // The lock is usable again, and an empty sweep is a no-op.
        let again = m.acquire("Customer", "a").unwrap().unwrap();
        m.release(again).unwrap();
        assert_eq!(m.reclaim_expired("Customer").unwrap(), 0);
    }

    #[test]
    fn lock_survives_region_failover() {
        use nosql_store::FaultPlan;
        // Lock table's region lands on server 0 (first table created);
        // the first scheduled crash also hits server 0, so the lock row's
        // region fails over to server 1 while the lock is held.
        let cluster = Cluster::new(ClusterConfig {
            region_servers: 2,
            replication_factor: 2,
            fault_plan: Some(FaultPlan::new(11).with_crashes(
                vec![SimDuration::from_millis(30)],
                SimDuration::from_millis(50),
            )),
            ..ClusterConfig::default()
        });
        let m = LockManager::new(cluster);
        m.create_lock_table("Customer").unwrap();
        m.ensure_entry("Customer", "42").unwrap();

        let guard = m.acquire("Customer", "42").unwrap().unwrap();
        assert_eq!(m.cluster.replication_stats().failovers, 0, "acquired before any failover");
        // Hold the lock across the scheduled crash; the release's
        // checkAndPut advances faults, fails the region over to server 1,
        // and still lands: the lease does not invalidate a healthy holder.
        m.cluster.clock().charge(SimDuration::from_millis(40));
        m.release(guard).unwrap();

        let stats = m.cluster.replication_stats();
        assert!(stats.failovers >= 1, "no failover fired: {stats:?}");
        assert_eq!(m.cluster.fault_stats().unavailable_rejections, 0, "no op saw the outage");
        assert!(!is_held(&m, "Customer", "42"), "released on the new primary");
        // The lock is free to take again on the new primary.
        let again = m.acquire("Customer", "42").unwrap().unwrap();
        assert!(is_held(&m, "Customer", "42"));
        m.release(again).unwrap();
    }

    #[test]
    fn lock_acquisition_charges_simulated_time() {
        let m = manager();
        let clock = {
            // Reach the clock through a fresh cluster handle used by the
            // manager itself.
            let guard = m.acquire("Customer", "5").unwrap().unwrap();
            let clock = guard.cluster.clock().clone();
            m.release(guard).unwrap();
            clock
        };
        let before = clock.now();
        let guard = m.acquire("Customer", "5").unwrap().unwrap();
        m.release(guard).unwrap();
        let elapsed = clock.now() - before;
        assert!(elapsed > SimDuration::ZERO);
    }
}
