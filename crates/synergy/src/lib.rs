//! **Synergy**: schema-based, workload-driven materialized-view selection and
//! single-lock hierarchical concurrency control on top of a NoSQL store.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Tapdiya, Xue, Fabbri — *A Comparative Analysis of Materialized Views
//! Selection and Concurrency Control Mechanisms in NoSQL Databases*, IEEE
//! CLUSTER 2017).  The pipeline mirrors Figure 3 of the paper:
//!
//! 1. **Baseline transformation** (provided by the `query` crate): the
//!    relational schema and workload are mapped onto NoSQL tables.
//! 2. **Candidate view generation** ([`viewgen`]): the schema graph is turned
//!    into a DAG, relations are assigned to roots in topological order, and
//!    each rooted graph is reduced to a rooted tree; every path in a rooted
//!    tree is a candidate view (§V).
//! 3. **View selection** ([`selection`]): a workload-driven marking procedure
//!    picks views for every equi-join query (§VI-A).
//! 4. **Query rewriting** ([`rewrite`]) and **view-indexes** ([`selection`]):
//!    queries are rewritten over the selected views and supplemented with
//!    covered view-indexes for their filter columns (§VI-B, §VI-C).
//! 5. **View maintenance** ([`maintenance`]): each view's defining join is
//!    compiled into an incremental delta plan; every write propagates its
//!    signed row-deltas through it inside its own transaction, keeping views
//!    consistent under inserts, deletes and updates (§VII).
//! 6. **Concurrency control** ([`lock`], [`txn`]): one lock table per root
//!    relation, a single hierarchical lock per write transaction, dirty-row
//!    marking with scan restart for read-committed isolation (§VIII).
//!
//! [`SynergySystem`] assembles the whole stack; [`advisor`] implements the
//! schema-oblivious, purely workload-based view selector used as the
//! MVCC-UA comparison system.

// Library code of this crate must not panic on fault paths (the lint
// crate's panic-freedom rule is the authority; clippy backs it up in CI).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod advisor;
pub mod lock;
pub mod maintenance;
pub mod partial;
pub mod rewrite;
pub mod selection;
pub mod system;
pub mod txn;
pub mod viewgen;

pub use lock::{LockGuard, LockManager};
pub use maintenance::{MaintenanceEngine, MaintenanceStatsSnapshot};
pub use partial::{ResidencySnapshot, ViewResidency};
pub use rewrite::SynergyRewriter;
pub use selection::{SelectionOutcome, ViewIndexDefinition};
pub use system::{Materialization, SynergyConfig, SynergyRecovery, SynergySystem};
pub use txn::{TransactionLayer, TxnError, WritePlan};
pub use viewgen::{CandidateViews, RootedTree, ViewDefinition};
