//! Merge rules for modelled parallel workers charging private clocks.
//!
//! Region parallelism is a cost model: a statement runs on one OS thread,
//! and each of its modelled workers (a region-parallel scan's sub-range, a
//! partitioned join's probe chunk) charges a **fresh, private** [`SimClock`]
//! in turn.  When the workers are done, their deltas are merged under two
//! rules, applied by every parallel layer in the workspace:
//!
//! * **elapsed time is the max** of the per-worker deltas — on the modelled
//!   cluster the workers run concurrently, so the simulated wall time of the
//!   fan-out is the slowest worker's time ([`merge_elapsed`]);
//! * **cost counters are the sum** — every RPC, scanned row and shipped byte
//!   still happened, on some node; resource accounting (the
//!   `nosql_store::OpCounters` fields) is therefore additive across workers.
//!
//! Because each worker's delta is a pure function of its assigned partition,
//! merged figures are deterministic at every worker count, and a single
//! worker (`threads = 1`) degenerates to the serial charge sequence exactly.

use crate::clock::{SimClock, SimDuration, SimInstant};

/// A private per-worker clock plus the helpers to read its delta.
///
/// Workers charge into [`WorkerClock::clock`]; once they are done the caller
/// merges the deltas with [`merge_elapsed`] and charges the result into the
/// shared timeline once.
#[derive(Debug, Clone, Default)]
pub struct WorkerClock {
    clock: SimClock,
}

impl WorkerClock {
    /// A fresh worker clock starting at the simulated epoch.
    pub fn new() -> Self {
        WorkerClock { clock: SimClock::new() }
    }

    /// The clock to hand to the worker.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Everything the worker has charged so far.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now() - SimInstant::EPOCH
    }
}

/// The elapsed simulated time of a parallel fan-out: the **max** of the
/// per-worker deltas (on the modelled cluster, workers run concurrently).  Zero for no workers.
pub fn merge_elapsed(deltas: impl IntoIterator<Item = SimDuration>) -> SimDuration {
    deltas.into_iter().max().unwrap_or(SimDuration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_merges_as_max() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(7);
        let c = SimDuration::from_millis(5);
        assert_eq!(merge_elapsed([a, b, c]), b);
        assert_eq!(merge_elapsed([]), SimDuration::ZERO);
    }

    #[test]
    fn worker_clock_reports_its_own_delta_only() {
        let shared = SimClock::new();
        let worker = WorkerClock::new();
        shared.charge(SimDuration::from_millis(10));
        worker.clock().charge(SimDuration::from_millis(2));
        assert_eq!(worker.elapsed(), SimDuration::from_millis(2));
        // Merging back: the shared timeline advances by the worker max once.
        shared.charge(merge_elapsed([worker.elapsed()]));
        assert_eq!(shared.now().as_nanos(), 12_000_000);
    }
}
