//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *when* and *how* the simulated cluster fails:
//! per-operation probabilistic faults (RPC timeout, transient server error,
//! slow-region latency spike) drawn from a seeded RNG, and region-server
//! crashes scheduled at fixed points on the **simulated** clock.  Because
//! both the schedule and the RNG are deterministic, the same seed and the
//! same fault plan reproduce the same fault sequence — and therefore the
//! same figures — on every run of a single-threaded workload (the
//! determinism contract; see README "Fault tolerance").
//!
//! Faults surface as [`StoreError`] variants whose
//! [`StoreError::retryable`] taxonomy drives the client-side
//! [`crate::RetryPolicy`].  With no plan configured the injection hook is a
//! single `Option` check — the no-fault path draws no randomness and
//! charges no extra cost.

use crate::error::StoreError;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simclock::{SimDuration, SimInstant};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A deterministic, seeded fault schedule for one cluster.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the per-operation fault RNG.
    pub seed: u64,
    /// Probability that a charged operation times out (retryable; the op is
    /// not applied).
    pub timeout_prob: f64,
    /// Probability of a transient server-side error (retryable; the op is
    /// not applied).
    pub transient_prob: f64,
    /// Probability of a slow-region latency spike (the op succeeds but
    /// charges [`FaultPlan::slow_penalty`] extra).
    pub slow_prob: f64,
    /// Simulated time burned by a timed-out RPC before the client gives up
    /// on the attempt.
    pub timeout_penalty: SimDuration,
    /// Extra latency charged by a slow-region hit.
    pub slow_penalty: SimDuration,
    /// Simulated instants (nanos since the epoch) at which a region server
    /// crashes.  The i-th crash takes down server `i % region_servers`; its
    /// acked-but-unsynced WAL tail is lost and the server stays down for
    /// [`FaultPlan::crash_mttr`].
    pub crash_times: Vec<SimDuration>,
    /// How long a crashed region server stays down before it restarts.
    pub crash_mttr: SimDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA_0175,
            timeout_prob: 0.0,
            transient_prob: 0.0,
            slow_prob: 0.0,
            timeout_penalty: SimDuration::from_millis(30),
            slow_penalty: SimDuration::from_millis(10),
            crash_times: Vec::new(),
            crash_mttr: SimDuration::from_millis(50),
        }
    }
}

impl FaultPlan {
    /// A plan with no faults (useful as a builder starting point).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the RPC-timeout probability.
    pub fn with_timeouts(mut self, prob: f64) -> Self {
        self.timeout_prob = prob;
        self
    }

    /// Sets the transient-error probability.
    pub fn with_transients(mut self, prob: f64) -> Self {
        self.transient_prob = prob;
        self
    }

    /// Sets the slow-region probability and per-hit latency penalty.
    pub fn with_slow_regions(mut self, prob: f64, penalty: SimDuration) -> Self {
        self.slow_prob = prob;
        self.slow_penalty = penalty;
        self
    }

    /// Schedules region-server crashes at the given simulated instants.
    pub fn with_crashes(mut self, times: Vec<SimDuration>, mttr: SimDuration) -> Self {
        self.crash_times = times;
        self.crash_mttr = mttr;
        self
    }

    /// Total probability that a charged op draws *any* probabilistic fault.
    pub fn fault_prob(&self) -> f64 {
        self.timeout_prob + self.transient_prob + self.slow_prob
    }
}

/// Per-region-server slice of the injected-fault counters: every op-level
/// fault is attributed to the server the faulted RPC was addressed to (the
/// same index [`StoreError::RegionUnavailable`], [`StoreError::RpcTimeout`]
/// and [`StoreError::TransientOp`] carry), so the fault matrix can show
/// *where* a plan's faults landed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerFaultStats {
    /// Injected RPC timeouts addressed to this server.
    pub timeouts: u64,
    /// Injected transient op errors raised by this server.
    pub transient_errors: u64,
    /// Injected slow-region latency spikes on this server.
    pub slowdowns: u64,
    /// Operations rejected because this server was inside an outage window.
    pub unavailable_rejections: u64,
}

/// Counts of every injected fault and the retry layer's reactions, exposed
/// by [`crate::Cluster::fault_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Region-server crashes fired from the schedule.
    pub server_crashes: u64,
    /// Acked-but-unsynced WAL records lost to server crashes.
    pub wal_records_lost: u64,
    /// Injected RPC timeouts.
    pub timeouts: u64,
    /// Injected transient op errors.
    pub transient_errors: u64,
    /// Injected slow-region latency spikes.
    pub slowdowns: u64,
    /// Operations rejected because the addressed server was down.
    pub unavailable_rejections: u64,
    /// Retry attempts made by the configured [`crate::RetryPolicy`].
    pub retries: u64,
    /// Operations the retry policy gave up on.
    pub giveups: u64,
    /// Per-server attribution of the op-level fault counters, indexed by
    /// region-server id.  Empty when no fault plan is configured.  The
    /// per-server columns always sum to the cluster-wide counters above.
    pub per_server: Vec<ServerFaultStats>,
}

impl FaultStats {
    /// Total injected op-level faults (timeouts + transients + rejections).
    pub fn injected_op_faults(&self) -> u64 {
        self.timeouts + self.transient_errors + self.unavailable_rejections
    }
}

/// The outcome of one per-operation fault draw.
pub(crate) enum FaultDraw {
    /// No fault: proceed, charging `extra` on top of the op's normal cost
    /// (zero unless a slow-region spike fired).
    Proceed { extra: SimDuration },
    /// The op fails with `error` after burning `charge` of simulated time.
    Fail {
        error: StoreError,
        charge: SimDuration,
    },
}

/// Per-server fault counters, atomic so `draw` can attribute each injected
/// fault without taking a lock.
#[derive(Debug, Default)]
pub(crate) struct ServerFaultCounters {
    timeouts: AtomicU64,
    transients: AtomicU64,
    slowdowns: AtomicU64,
    unavailable: AtomicU64,
}

impl ServerFaultCounters {
    fn snapshot(&self) -> ServerFaultStats {
        ServerFaultStats {
            timeouts: self.timeouts.load(Ordering::Relaxed),
            transient_errors: self.transients.load(Ordering::Relaxed),
            slowdowns: self.slowdowns.load(Ordering::Relaxed),
            unavailable_rejections: self.unavailable.load(Ordering::Relaxed),
        }
    }
}

/// Live injection state for one cluster (plan + RNG + per-server outage
/// windows + counters).
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    rng: Mutex<StdRng>,
    /// Index of the next unfired entry of `plan.crash_times`.
    next_crash: AtomicUsize,
    /// Per server: simulated nanos until which it is down (0 = up).
    down_until: Vec<AtomicU64>,
    pub(crate) server_crashes: AtomicU64,
    pub(crate) wal_records_lost: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) transients: AtomicU64,
    pub(crate) slowdowns: AtomicU64,
    pub(crate) unavailable: AtomicU64,
    per_server: Vec<ServerFaultCounters>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, servers: usize) -> Self {
        FaultState {
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            next_crash: AtomicUsize::new(0),
            down_until: (0..servers).map(|_| AtomicU64::new(0)).collect(),
            plan,
            server_crashes: AtomicU64::new(0),
            wal_records_lost: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            slowdowns: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            per_server: (0..servers).map(|_| ServerFaultCounters::default()).collect(),
        }
    }

    /// Snapshot of the injection counters, with the per-server attribution
    /// columns (retry counters are the retry runtime's to fill).
    pub(crate) fn stats(&self) -> FaultStats {
        FaultStats {
            server_crashes: self.server_crashes.load(Ordering::Relaxed),
            wal_records_lost: self.wal_records_lost.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            transient_errors: self.transients.load(Ordering::Relaxed),
            slowdowns: self.slowdowns.load(Ordering::Relaxed),
            unavailable_rejections: self.unavailable.load(Ordering::Relaxed),
            per_server: self.per_server.iter().map(ServerFaultCounters::snapshot).collect(),
            ..FaultStats::default()
        }
    }

    /// Claims every crash event whose scheduled instant has passed and
    /// returns the victims (`event index % servers`).  Each event is claimed
    /// by exactly one caller even under concurrency.
    pub(crate) fn due_crashes(&self, now: SimInstant) -> Vec<usize> {
        let servers = self.down_until.len().max(1);
        let mut victims = Vec::new();
        loop {
            let i = self.next_crash.load(Ordering::Acquire);
            if i >= self.plan.crash_times.len()
                || now.as_nanos() < self.plan.crash_times[i].as_nanos()
            {
                break;
            }
            if self
                .next_crash
                .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                victims.push(i % servers);
            }
        }
        victims
    }

    /// Marks a server down until `until`.
    pub(crate) fn mark_down(&self, server: usize, until: SimInstant) {
        if let Some(slot) = self.down_until.get(server) {
            slot.store(until.as_nanos(), Ordering::Release);
        }
    }

    /// True if `server` is inside an outage window at `now`.
    pub(crate) fn is_down(&self, server: usize, now: SimInstant) -> bool {
        self.down_until
            .get(server)
            .is_some_and(|slot| now.as_nanos() < slot.load(Ordering::Acquire))
    }

    /// Draws the per-operation fault outcome for an op addressed at
    /// `server`.  `rpc` is the cost model's RPC latency (what a fast
    /// connection-refused rejection burns).
    pub(crate) fn draw(&self, server: usize, now: SimInstant, rpc: SimDuration) -> FaultDraw {
        if self.is_down(server, now) {
            self.unavailable.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = self.per_server.get(server) {
                s.unavailable.fetch_add(1, Ordering::Relaxed);
            }
            return FaultDraw::Fail {
                error: StoreError::RegionUnavailable { server },
                charge: rpc,
            };
        }
        if self.plan.fault_prob() <= 0.0 {
            return FaultDraw::Proceed {
                extra: SimDuration::ZERO,
            };
        }
        let u: f64 = self.rng.lock().random_range(0.0..1.0);
        if u < self.plan.timeout_prob {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = self.per_server.get(server) {
                s.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            FaultDraw::Fail {
                error: StoreError::RpcTimeout { server },
                charge: self.plan.timeout_penalty,
            }
        } else if u < self.plan.timeout_prob + self.plan.transient_prob {
            self.transients.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = self.per_server.get(server) {
                s.transients.fetch_add(1, Ordering::Relaxed);
            }
            FaultDraw::Fail {
                error: StoreError::TransientOp { server },
                charge: rpc,
            }
        } else if u < self.plan.fault_prob() {
            self.slowdowns.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = self.per_server.get(server) {
                s.slowdowns.fetch_add(1, Ordering::Relaxed);
            }
            FaultDraw::Proceed {
                extra: self.plan.slow_penalty,
            }
        } else {
            FaultDraw::Proceed {
                extra: SimDuration::ZERO,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_events_fire_once_in_schedule_order() {
        let plan = FaultPlan::new(1).with_crashes(
            vec![SimDuration::from_millis(10), SimDuration::from_millis(20)],
            SimDuration::from_millis(5),
        );
        let state = FaultState::new(plan, 3);
        let t5 = SimInstant::EPOCH + SimDuration::from_millis(5);
        assert!(state.due_crashes(t5).is_empty());
        let t25 = SimInstant::EPOCH + SimDuration::from_millis(25);
        assert_eq!(state.due_crashes(t25), vec![0, 1]);
        assert!(state.due_crashes(t25).is_empty(), "events fire once");
    }

    #[test]
    fn outage_windows_expire() {
        let state = FaultState::new(FaultPlan::default(), 2);
        let until = SimInstant::EPOCH + SimDuration::from_millis(10);
        state.mark_down(1, until);
        assert!(state.is_down(1, SimInstant::EPOCH + SimDuration::from_millis(9)));
        assert!(!state.is_down(1, until));
        assert!(!state.is_down(0, SimInstant::EPOCH));
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed() {
        let draw_seq = |seed: u64| {
            let plan = FaultPlan::new(seed).with_timeouts(0.3).with_transients(0.3);
            let state = FaultState::new(plan, 1);
            (0..64)
                .map(|_| {
                    match state.draw(0, SimInstant::EPOCH, SimDuration::from_micros(900)) {
                        FaultDraw::Proceed { .. } => 0u8,
                        FaultDraw::Fail { error: StoreError::RpcTimeout { .. }, .. } => 1,
                        FaultDraw::Fail { .. } => 2,
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_seq(7), draw_seq(7));
        assert_ne!(draw_seq(7), draw_seq(8), "different seeds fault differently");
    }

    #[test]
    fn per_server_counters_attribute_faults_to_the_addressed_server() {
        let plan = FaultPlan::new(11).with_timeouts(0.5).with_transients(0.5);
        let state = FaultState::new(plan, 3);
        for i in 0..30 {
            let _ = state.draw(i % 2, SimInstant::EPOCH, SimDuration::from_micros(900));
        }
        state.mark_down(2, SimInstant::EPOCH + SimDuration::from_millis(1));
        let _ = state.draw(2, SimInstant::EPOCH, SimDuration::from_micros(900));
        let per = state.stats().per_server;
        assert_eq!(per.len(), 3);
        let sum = |f: fn(&ServerFaultStats) -> u64| per.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.timeouts), state.timeouts.load(Ordering::Relaxed));
        assert_eq!(sum(|s| s.transient_errors), state.transients.load(Ordering::Relaxed));
        assert_eq!(sum(|s| s.unavailable_rejections), 1);
        assert_eq!(per[2].unavailable_rejections, 1, "rejection lands on server 2");
        assert!(per[0].timeouts + per[0].transient_errors > 0);
        assert!(per[1].timeouts + per[1].transient_errors > 0);
    }

    #[test]
    fn down_server_rejects_before_any_rng_draw() {
        let plan = FaultPlan::new(3).with_timeouts(1.0);
        let state = FaultState::new(plan, 1);
        state.mark_down(0, SimInstant::EPOCH + SimDuration::from_millis(1));
        match state.draw(0, SimInstant::EPOCH, SimDuration::from_micros(900)) {
            FaultDraw::Fail { error: StoreError::RegionUnavailable { server: 0 }, .. } => {}
            other => panic!("expected unavailability, got {:?}", matches!(other, FaultDraw::Proceed { .. })),
        }
    }
}
