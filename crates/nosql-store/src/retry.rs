//! Client-side retry with capped exponential backoff.
//!
//! A [`RetryPolicy`] wraps every public `Cluster` operation: when an op
//! fails with a [`StoreError::retryable`] fault, the client charges a
//! backoff to the **simulated** clock and tries again, up to
//! `max_attempts`.  Because backoff burns simulated time, a server that is
//! down for its MTTR window naturally comes back within a few attempts —
//! retries convert injected faults into latency instead of errors, which is
//! what the `fig_faults` goodput sweep measures.
//!
//! Jitter is drawn from a dedicated seeded RNG so the retry schedule is
//! deterministic per seed and independent of the fault-injection RNG.

use crate::error::{StoreError, StoreResult};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simclock::{SimClock, SimDuration};
use std::sync::atomic::{AtomicU64, Ordering};

/// A capped exponential backoff + jitter retry policy.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum total attempts (including the first). 1 disables retries.
    pub max_attempts: u32,
    /// Backoff charged before the first retry; doubles on each subsequent
    /// retry.
    pub base_backoff: SimDuration,
    /// Cap on a single backoff step.
    pub max_backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: each backoff is perturbed uniformly in
    /// `[-jitter, +jitter]` of its nominal value.
    pub jitter: f64,
    /// Seed of the jitter RNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(64),
            jitter: 0.2,
            seed: 0x8E_784,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (ops fail on the first fault).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Sets the attempt budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Nominal (pre-jitter) backoff before retry number `retry` (0-based).
    pub fn nominal_backoff(&self, retry: u32) -> SimDuration {
        let shift = retry.min(32);
        let nanos = self
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
            .min(self.max_backoff.as_nanos());
        SimDuration::from_nanos(nanos)
    }
}

/// Live retry state for one cluster: policy + jitter RNG + counters.
#[derive(Debug)]
pub(crate) struct RetryRuntime {
    pub(crate) policy: RetryPolicy,
    rng: Mutex<StdRng>,
    pub(crate) retries: AtomicU64,
    pub(crate) giveups: AtomicU64,
}

impl RetryRuntime {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        RetryRuntime {
            rng: Mutex::new(StdRng::seed_from_u64(policy.seed)),
            policy,
            retries: AtomicU64::new(0),
            giveups: AtomicU64::new(0),
        }
    }

    /// Backoff for retry number `retry`, with jitter applied.
    fn backoff(&self, retry: u32) -> SimDuration {
        let nominal = self.policy.nominal_backoff(retry).as_nanos();
        if self.policy.jitter <= 0.0 || nominal == 0 {
            return SimDuration::from_nanos(nominal);
        }
        let spread = (nominal as f64 * self.policy.jitter) as u64;
        if spread == 0 {
            return SimDuration::from_nanos(nominal);
        }
        // Uniform in [nominal - spread, nominal + spread].
        let offset = self.rng.lock().random_range(0..=2 * spread);
        SimDuration::from_nanos(nominal - spread + offset)
    }

    /// Runs `op` under the policy: retryable failures back off on the sim
    /// clock and re-attempt; exhaustion wraps the last error in
    /// [`StoreError::RetriesExhausted`]; non-retryable errors pass through.
    pub(crate) fn run<T>(
        &self,
        clock: &SimClock,
        mut op: impl FnMut() -> StoreResult<T>,
    ) -> StoreResult<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(err) if err.retryable() => {
                    attempt += 1;
                    if attempt >= self.policy.max_attempts {
                        self.giveups.fetch_add(1, Ordering::Relaxed);
                        return Err(StoreError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(err),
                        });
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    clock.charge(self.backoff(attempt - 1));
                }
                Err(err) => return Err(err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(10),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.nominal_backoff(0), SimDuration::from_millis(2));
        assert_eq!(policy.nominal_backoff(1), SimDuration::from_millis(4));
        assert_eq!(policy.nominal_backoff(2), SimDuration::from_millis(8));
        assert_eq!(policy.nominal_backoff(3), SimDuration::from_millis(10));
        assert_eq!(policy.nominal_backoff(40), SimDuration::from_millis(10));
    }

    #[test]
    fn run_retries_until_success_charging_the_clock() {
        let runtime = RetryRuntime::new(RetryPolicy::default());
        let clock = SimClock::new();
        let mut failures_left = 3;
        let result = runtime.run(&clock, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(StoreError::RpcTimeout { server: 0 })
            } else {
                Ok(42)
            }
        });
        assert_eq!(result, Ok(42));
        assert_eq!(runtime.retries.load(Ordering::Relaxed), 3);
        assert_eq!(runtime.giveups.load(Ordering::Relaxed), 0);
        // Three backoffs were charged to simulated time.
        assert!(clock.now().as_nanos() > 0);
    }

    #[test]
    fn run_exhausts_into_retries_exhausted_with_source() {
        let runtime = RetryRuntime::new(RetryPolicy::default().with_max_attempts(3));
        let clock = SimClock::new();
        let result: StoreResult<()> =
            runtime.run(&clock, || Err(StoreError::TransientOp { server: 0 }));
        match result {
            Err(StoreError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert_eq!(*last, StoreError::TransientOp { server: 0 });
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(runtime.giveups.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn non_retryable_errors_pass_through_without_backoff() {
        let runtime = RetryRuntime::new(RetryPolicy::default());
        let clock = SimClock::new();
        let result: StoreResult<()> =
            runtime.run(&clock, || Err(StoreError::TableNotFound("t".into())));
        assert_eq!(result, Err(StoreError::TableNotFound("t".into())));
        assert_eq!(clock.now().as_nanos(), 0, "no backoff charged");
        assert_eq!(runtime.retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let seq = |seed: u64| {
            let runtime = RetryRuntime::new(RetryPolicy { seed, ..Default::default() });
            (0..32).map(|i| runtime.backoff(i % 6).as_nanos()).collect::<Vec<_>>()
        };
        assert_eq!(seq(11), seq(11));
        assert_ne!(seq(11), seq(12));
        let policy = RetryPolicy::default();
        let runtime = RetryRuntime::new(policy.clone());
        for retry in 0..8 {
            let nominal = policy.nominal_backoff(retry).as_nanos() as f64;
            let b = runtime.backoff(retry).as_nanos() as f64;
            assert!(b >= nominal * (1.0 - policy.jitter) - 1.0);
            assert!(b <= nominal * (1.0 + policy.jitter) + 1.0);
        }
    }
}
