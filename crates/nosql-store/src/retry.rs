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
//! Jitter is drawn from a dedicated RNG with a fixed seed, so the retry
//! schedule is deterministic and independent of the fault-injection RNG.
//! The attempt budget is the one setting; the backoff curve and the jitter
//! are constants.

use crate::error::{StoreError, StoreResult};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simclock::{SimClock, SimDuration};
use std::sync::atomic::{AtomicU64, Ordering};

/// Backoff charged before the first retry; doubles on each subsequent
/// retry.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(2);
/// Cap on a single backoff step.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(64);
/// Jitter fraction: each backoff is perturbed uniformly in
/// `[-JITTER, +JITTER]` of its nominal value.
const JITTER: f64 = 0.2;
/// Seed of the jitter RNG.
const JITTER_SEED: u64 = 0x8E_784;

/// A capped exponential backoff + jitter retry policy.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum total attempts (including the first). 1 disables retries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 8 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (ops fail on the first fault).
    pub fn no_retries() -> Self {
        RetryPolicy { max_attempts: 1 }
    }
}

/// Nominal (pre-jitter) backoff before retry number `retry` (0-based).
fn nominal_backoff(retry: u32) -> SimDuration {
    let shift = retry.min(32);
    let nanos = BASE_BACKOFF
        .as_nanos()
        .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
        .min(MAX_BACKOFF.as_nanos());
    SimDuration::from_nanos(nanos)
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
            rng: Mutex::new(StdRng::seed_from_u64(JITTER_SEED)),
            policy,
            retries: AtomicU64::new(0),
            giveups: AtomicU64::new(0),
        }
    }

    /// Backoff for retry number `retry`, with jitter applied.
    fn backoff(&self, retry: u32) -> SimDuration {
        let nominal = nominal_backoff(retry).as_nanos();
        let spread = (nominal as f64 * JITTER) as u64;
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
        assert_eq!(nominal_backoff(0), SimDuration::from_millis(2));
        assert_eq!(nominal_backoff(1), SimDuration::from_millis(4));
        assert_eq!(nominal_backoff(2), SimDuration::from_millis(8));
        assert_eq!(nominal_backoff(5), SimDuration::from_millis(64));
        assert_eq!(nominal_backoff(6), SimDuration::from_millis(64));
        assert_eq!(nominal_backoff(40), SimDuration::from_millis(64));
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
        let runtime = RetryRuntime::new(RetryPolicy { max_attempts: 3 });
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
        let seq = || {
            let runtime = RetryRuntime::new(RetryPolicy::default());
            (0..32).map(|i| runtime.backoff(i % 6).as_nanos()).collect::<Vec<_>>()
        };
        let first = seq();
        assert_eq!(first, seq(), "one seed, one schedule");
        let nominal: Vec<u64> = (0..32).map(|i| nominal_backoff(i % 6).as_nanos()).collect();
        assert_ne!(first, nominal, "jitter moves the schedule off its nominal values");
        for (&b, &n) in first.iter().zip(&nominal) {
            let (b, n) = (b as f64, n as f64);
            assert!(b >= n * (1.0 - JITTER) - 1.0);
            assert!(b <= n * (1.0 + JITTER) + 1.0);
        }
    }
}
