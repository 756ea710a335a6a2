//! An HBase-class, column-family oriented, sorted key-value store with a
//! simulated multi-node cluster.
//!
//! The Synergy paper (Tapdiya et al., CLUSTER 2017) uses HBase as its storage
//! substrate.  This crate reproduces the parts of HBase the paper depends on:
//!
//! * tables of rows sorted by row key, grouped into column families;
//! * multi-versioned cells (`(row, family, qualifier, timestamp) → value`);
//! * the five-primitive data-manipulation API — [`ops::Get`], [`ops::Put`],
//!   [`ops::Scan`], [`ops::Delete`], [`ops::Increment`] — plus the atomic
//!   [`ops::CheckAndPut`] used by Synergy's lock tables;
//! * single-row atomicity and read-committed visibility for row operations;
//! * horizontal partitioning of each table into regions hosted by region
//!   servers, with a write-ahead log per server and major compaction;
//! * per-table storage accounting (used for the paper's Table III).
//!
//! Instead of a physical cluster, every operation charges a deterministic
//! cost from [`simclock::CostModel`] into a shared [`simclock::SimClock`]
//! (network round trips, WAL syncs, scan streaming).  The cost model's
//! module doc ([`simclock::CostModel`]) says why this substitution preserves
//! the paper's results.
//!
//! # Quick start
//!
//! ```
//! use nosql_store::{Cluster, ClusterConfig, ops::{Put, Get, Scan}, TableSchema};
//!
//! let cluster = Cluster::new(ClusterConfig::default());
//! cluster.create_table(TableSchema::new("greetings").with_family("cf")).unwrap();
//!
//! let mut put = Put::new("row1");
//! put.add("cf", "msg", "hello world");
//! cluster.put("greetings", put).unwrap();
//!
//! let row = cluster.get("greetings", Get::new("row1")).unwrap().unwrap();
//! assert_eq!(row.value("cf", "msg").unwrap(), b"hello world");
//!
//! let rows = cluster.scan("greetings", Scan::all()).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

// Library code of this crate must not panic on fault paths (the lint
// crate's panic-freedom rule is the authority; clippy backs it up in CI).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
mod cell;
mod cluster;
mod cursor;
mod error;
mod fault;
pub mod intern;
mod metrics;
pub mod ops;
mod par_scan;
mod recovery;
mod region;
mod replication;
mod retry;
mod table;
mod wal;

pub use cell::{Bytes, Cell, CellCoord, Timestamp, Val};
pub use cluster::{Cluster, ClusterConfig};
pub use cursor::{ScanCursor, SCAN_PAGE_ROWS};
pub use fault::{FaultPlan, FaultStats, ServerFaultStats};
pub use intern::Name;
pub use par_scan::ParScanCursor;
pub use recovery::{CrashReport, RecoveryReport};
pub use retry::RetryPolicy;
pub use error::{StoreError, StoreResult};
pub use metrics::{ClusterMetrics, OpCounters, ReplicationStats, TableMetrics};
pub use region::{Region, RegionId, RegionServerId};
pub use table::{ColumnFamily, ResultRow, TableSchema};
pub use wal::{WalEntry, WalOp, WriteAheadLog};
