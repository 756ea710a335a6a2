//! The SQL skin: planner and executor over the NoSQL store.
//!
//! This crate plays the role Apache Phoenix plays in the paper (§II-D): it
//! maps a relational schema onto NoSQL tables (the *baseline schema
//! transformation*), compiles SQL statements into sequences of Get / Scan /
//! Put / Delete operations against [`nosql_store::Cluster`], and executes
//! joins client-side with hash joins over table scans — which is precisely
//! why joins are slow on the NoSQL store and why Synergy materializes them.
//!
//! Statement evaluation is an explicit pipeline — **parse → bind → plan →
//! execute** — around one plan tree: the optimizer writes every planning
//! decision (predicate placement, access paths, join order, pushdowns,
//! operator parallelism) onto the tree's nodes, the executor walks the same
//! nodes, and `EXPLAIN` renders them, so the tree `EXPLAIN` prints is the
//! tree that runs.  Binding refuses a column no FROM entry declares.
//!
//! The main types are:
//!
//! * [`Catalog`] / [`TableDef`] — metadata describing how relations, indexes,
//!   views and lock tables are laid out as NoSQL tables (row-key composition,
//!   column types);
//! * [`Executor`] — executes parsed [`sql::Statement`]s with positional
//!   parameters and returns [`QueryResult`]s (the one-shot path: all four
//!   phases per call);
//! * [`Session`] / [`PreparedStatement`] — the read path: prepared SELECTs
//!   over a plan cache keyed by statement text (the catalog is fixed when
//!   the executor is built, so a cached plan never goes stale), plus
//!   `EXPLAIN`; [`PlanRewriter`] lets higher layers (Synergy) plug
//!   statement rewrites into the planner as visible rules;
//! * [`PhysicalPlan`] — a compiled SELECT: the plan tree plus its
//!   condition templates with parameter slots open, re-executable via
//!   [`Executor::execute_plan`] and compiled for view maintenance by
//!   [`DeltaPlan::compile`];
//! * [`baseline`] — the paper's §II-D baseline schema and workload
//!   transformation.
//!
//! ```
//! use nosql_store::{Cluster, ClusterConfig};
//! use query::{baseline, ColumnType, Executor};
//! use relational::{company, Row, Value};
//! use sql::parse_statement;
//!
//! let schema = company::company_schema();
//! let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| {
//!     (column == "DNo").then_some(ColumnType::Int)
//! });
//! let cluster = Cluster::new(ClusterConfig::default());
//! baseline::create_tables(&cluster, &catalog).unwrap();
//!
//! let exec = Executor::new(cluster, catalog);
//! exec.insert_row("Department", &Row::new().with("DNo", 1).with("DName", "Research")).unwrap();
//!
//! let result = exec
//!     .execute(&parse_statement("SELECT * FROM Department WHERE DNo = 1").unwrap(), &[])
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert_eq!(result.rows[0].get("DName").unwrap(), &Value::str("Research"));
//! ```

// Library code of this crate must not panic on fault paths (the lint
// crate's panic-freedom rule is the authority; clippy backs it up in CI).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod baseline;
mod bind;
mod catalog;
mod delta;
mod executor;
mod optimize;
mod physical;
mod plan;
mod result;
mod session;
mod stream;
mod writes;

pub use catalog::{Catalog, ColumnType, TableDef, TableKind, FAMILY};
pub use delta::{overlay, DeltaPlan, DeltaSign, RowDelta};
pub use executor::{dirty_marker_names, AccessPath, Executor, DIRTY_MARKER, DIRTY_RETRY_LIMIT};
pub use optimize::select_probe_access;
pub use physical::PhysicalPlan;
pub use result::{QueryError, QueryResult};
pub use session::{PlanCacheStats, PlanRewriter, PreparedStatement, Session};
pub use writes::{bind_write, BoundWrite, RowWrite, WriteChange};
