//! Deterministic virtual time and cluster cost model.
//!
//! The original Synergy evaluation (Tapdiya et al., CLUSTER 2017) ran on an
//! eight node Amazon EC2 cluster with HBase/HDFS/ZooKeeper as the storage
//! substrate.  This reproduction replaces the physical cluster with a
//! simulated one: every storage, network and transaction primitive charges a
//! deterministic cost into a [`SimClock`], and all reported "response times"
//! are simulated durations.
//!
//! The cost model is intentionally simple and structural: it captures the
//! *causes* of the paper's performance results (per-RPC network latency,
//! sequential scan throughput, MVCC transaction-server round trips, lock
//! acquisition RPCs, single-threaded partition execution) rather than any
//! absolute hardware numbers.  The shape of each figure — which system wins,
//! by roughly what factor, and where crossovers fall — is therefore a
//! consequence of the same mechanisms the paper identifies.
//!
//! # Example
//!
//! ```
//! use simclock::{CostModel, SimClock, SimDuration};
//!
//! let clock = SimClock::new();
//! let model = CostModel::default();
//! let start = clock.now();
//! clock.charge(model.get_cost());                 // one point Get
//! clock.charge(model.shuffle_cost(1_000));        // shuffle 1000 join rows
//! let elapsed = clock.now() - start;
//! assert!(elapsed > SimDuration::ZERO);
//! ```

mod clock;
mod cost;
mod parallel;
mod stats;

pub use clock::{SimClock, SimDuration, SimInstant};
pub use cost::CostModel;
pub use parallel::{merge_elapsed, WorkerClock};
pub use stats::mean;
