//! The Synergy transaction layer (paper §VIII): write-ahead logging, the
//! plan generator, and **the** write transaction procedure that atomically
//! updates base tables, views and indexes under a single hierarchical lock.
//!
//! # The write pipeline — a contract
//!
//! Every write — INSERT, UPDATE or DELETE, with or without hierarchical
//! locking — is one pass through [`TransactionLayer::execute_write`], whose
//! steps run in this order:
//!
//! 1. **Log.**  The statement is appended to the slave's statement WAL and
//!    synced; one RPC + one WAL sync are charged.  No store operation.
//! 2. **Bind.**  [`query::bind_write`] — the binder [`query::Executor`]
//!    runs too — resolves the table, rejects unknown columns, substitutes
//!    parameters and extracts the full primary key.  Catalog only: reads
//!    nothing, charges nothing.  An incomplete key surfaces as
//!    [`TxnError::Unsupported`] (§IV excludes such writes); an UPDATE that
//!    assigns a key column is refused with [`QueryError::Unsupported`].
//! 3. **Before-image.**  An UPDATE or DELETE reads the row it names (one
//!    charged `get`); an INSERT reads nothing.  An absent row ends the
//!    transaction with `affected(0)`: no lock taken, no view touched.
//!    **Known gap:** this read happens *before* the lock, so two writers of
//!    one row can both read the same before-image and the second base write
//!    loses the first's update.  Moving the read under the lock moves a
//!    charged `get` past the acquire and with it the sim figures, so it is
//!    left to the composed-correctness work (ROADMAP item 1).
//! 4. **Acquire.**  The root row above the written row is resolved (at
//!    most one charged `get` per tree level between the relation and its
//!    root) and its lock acquired — once, in `acquire`, the only function
//!    that takes the hierarchical lock.  Skipped when locking is disabled
//!    or the row hangs under no root.
//! 5. **Apply**, one `match` on the row's (before, after) images holding
//!    the three bodies, each in its own order of charged store operations.
//!    Every body maintains the views itself, under the lock, before the
//!    write is acknowledged:
//!    * **insert** — base row → lock-table entry (root relations) → views;
//!    * **delete** — views → base row, so no view row ever outlives its
//!      base row;
//!    * **update** — the §VIII-B procedure: stage the view effects by delta
//!      propagation (reads only) → mark the affected view rows dirty → base
//!      row → apply the staged view writes → unmark.  Each of mark, apply
//!      and unmark writes a view's rows as one store batch — one RPC per
//!      region they span, however many rows — so a fat update pays per
//!      (view, region) per phase, not per row; the phase order, and with
//!      it what readers see of the dirty markers, is unchanged.  The
//!      injected interrupt ([`TransactionLayer::inject_interrupt_after_step`])
//!      fires between whole phases: after the mark (3), the base write (4)
//!      or the apply (5).
//! 6. **Release** — at one site.  Whether step 5 completed or failed, the
//!    lock is released; only [`TxnError::Interrupted`] — a simulated client
//!    crash — leaks the guard, leaving the lock row held and the markers
//!    set for [`crate::SynergySystem::recover`].
//!
//! Steps 1–2 never touch the store; step 3 only reads; steps 4–6 are the
//! only ones that write.  View rows are written by the maintenance engine's
//! single write site (see [`crate::maintenance`]).

use crate::lock::{LockGuard, LockManager};
use crate::maintenance::MaintenanceEngine;
use crate::viewgen::CandidateViews;
use nosql_store::{WalOp, WriteAheadLog};
use query::{
    bind_write, overlay, BoundWrite, Executor, QueryError, QueryResult, TableDef, WriteChange,
};
use relational::{encode_key, Row, Schema, Value};
use sql::Statement;
use std::fmt;
use std::sync::{Arc, PoisonError};

/// Errors raised by the transaction layer.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnError {
    /// The underlying query/store layer failed.
    Query(QueryError),
    /// The hierarchical lock could not be acquired (contention timeout).
    LockTimeout {
        /// Root relation whose lock was requested.
        root: String,
        /// Root-row key.
        key: String,
    },
    /// The statement shape is not supported by the Synergy system (§IV).
    Unsupported(String),
    /// The transaction was aborted by an injected interrupt (test hook
    /// [`TransactionLayer::inject_interrupt_after_step`], simulating a
    /// client crash mid-transaction: the lock stays held, dirty markers
    /// stay set).
    Interrupted {
        /// The last completed step of the §VIII-B update procedure.
        step: u8,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Query(e) => write!(f, "{e}"),
            TxnError::LockTimeout { root, key } => {
                write!(f, "could not acquire lock on {root}/{key}")
            }
            TxnError::Unsupported(s) => write!(f, "unsupported statement: {s}"),
            TxnError::Interrupted { step } => {
                write!(f, "transaction interrupted after step {step} (injected crash)")
            }
        }
    }
}

impl std::error::Error for TxnError {
    /// Exposes the query-layer error as the source, so callers walking a
    /// `Box<dyn Error>` chain (via `?`) reach the underlying cause.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxnError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for TxnError {
    fn from(e: QueryError) -> Self {
        TxnError::Query(e)
    }
}

impl From<nosql_store::StoreError> for TxnError {
    fn from(e: nosql_store::StoreError) -> Self {
        // Keep the structured store error: `source()` walks
        // TxnError → QueryError → StoreError → (the exhausted fault).
        TxnError::Query(QueryError::Store(e))
    }
}

/// The execution plan the plan generator produces for one write transaction
/// (paper Figure 7, "Plan Generator").  Exposed for inspection in tests and
/// examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// Base relation being written.
    pub relation: String,
    /// The root relation whose lock is taken, if the relation belongs to a
    /// rooted tree.
    pub lock_root: Option<String>,
    /// Views that must be maintained by this transaction.
    pub affected_views: Vec<String>,
    /// Whether the update path (mark → update → unmark) is needed.
    pub uses_dirty_marking: bool,
}

/// The table tag of every record in the statement WAL.  The log's own
/// sequence numbers order the records, so one constant tag serves them all.
const STATEMENT_LOG: &str = "statements";

/// The Synergy transaction layer: one logical slave node with its
/// write-ahead log, plus the plan generator and transaction procedures.
#[derive(Clone)]
pub struct TransactionLayer {
    executor: Executor,
    schema: Schema,
    candidates: CandidateViews,
    locks: LockManager,
    maintainer: MaintenanceEngine,
    wal: WriteAheadLog,
    locking_enabled: bool,
    /// One-shot fault-injection hook: abort the next update transaction
    /// after the given §VIII-B step completes (see
    /// [`TransactionLayer::inject_interrupt_after_step`]).
    interrupt_after: Arc<std::sync::Mutex<Option<u8>>>,
}

impl TransactionLayer {
    /// Assembles the transaction layer.
    pub fn new(
        executor: Executor,
        schema: Schema,
        candidates: CandidateViews,
        locks: LockManager,
        maintainer: MaintenanceEngine,
    ) -> Self {
        TransactionLayer {
            executor,
            schema,
            candidates,
            locks,
            maintainer,
            wal: WriteAheadLog::new(),
            locking_enabled: true,
            interrupt_after: Arc::new(std::sync::Mutex::new(None)),
        }
    }

    /// Arms a one-shot interrupt that aborts the next *update* transaction
    /// right after the given step of the §VIII-B procedure completes,
    /// simulating a client crash at that point: the hierarchical lock is
    /// **not** released (its guard is leaked, exactly as a dead client's
    /// would be) and any dirty markers already set stay set.  Steps:
    ///
    /// * `3` — view rows are marked dirty; base row and views unchanged;
    /// * `4` — the base row is written, the staged view updates are **not**
    ///   applied (mid-step-4: the window where views lag their base table);
    /// * `5` — base and views are written, the dirty markers are **not**
    ///   cleared (a permanently dirty view, absent recovery).
    ///
    /// Used by the crash-recovery tests and the fault benchmarks; the hook
    /// disarms after firing once.
    pub fn inject_interrupt_after_step(&self, step: u8) {
        *self.interrupt_after.lock().unwrap_or_else(PoisonError::into_inner) = Some(step);
    }

    /// Fires (and disarms) the injected interrupt if it is armed for `step`.
    fn maybe_interrupt(&self, step: u8) -> Result<(), TxnError> {
        let mut armed = self.interrupt_after.lock().unwrap_or_else(PoisonError::into_inner);
        if *armed == Some(step) {
            *armed = None;
            return Err(TxnError::Interrupted { step });
        }
        Ok(())
    }

    /// Enables or disables the hierarchical single-lock protocol.  The MVCC
    /// comparison systems disable it; Synergy keeps it on.
    pub fn with_hierarchical_locking(mut self, enabled: bool) -> Self {
        self.locking_enabled = enabled;
        self
    }

    /// The statement-level write-ahead log (stored in HDFS in the paper).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// The relational schema the transaction layer operates over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The view-maintenance engine (delta plans, counters).
    pub fn maintainer(&self) -> &MaintenanceEngine {
        &self.maintainer
    }

    /// Generates the execution plan for a write statement.
    pub fn plan(&self, statement: &Statement) -> Result<WritePlan, TxnError> {
        let relation = statement
            .write_target()
            .ok_or_else(|| TxnError::Unsupported("read statements are executed directly".into()))?
            .to_string();
        let lock_root = self
            .candidates
            .tree_containing(&relation)
            .map(|t| t.root.clone());
        let (affected_views, uses_dirty_marking) = match statement {
            Statement::Insert(_) | Statement::Delete(_) => (
                self.maintainer
                    .views_for_insert(&relation)
                    .map(|v| v.display_name())
                    .collect(),
                false,
            ),
            Statement::Update(_) => (
                self.maintainer
                    .views_for_update(&relation)
                    .map(|v| v.display_name())
                    .collect(),
                true,
            ),
            Statement::Select(_) => (Vec::new(), false),
        };
        Ok(WritePlan {
            relation,
            lock_root,
            affected_views,
            uses_dirty_marking,
        })
    }

    /// Executes a write statement as a Synergy transaction — the one write
    /// pipeline; the module docs state its numbered steps as a contract.
    pub fn execute_write(
        &self,
        statement: &Statement,
        params: &[Value],
    ) -> Result<QueryResult, TxnError> {
        // Step 1 — log: the slave's transaction manager appends the
        // statement to its WAL (one durable append per transaction) before
        // executing it.
        self.wal.append(
            STATEMENT_LOG,
            WalOp::Logical {
                payload: statement.to_string(),
            },
        );
        self.wal.sync();
        let model = self.executor.cluster().cost_model().clone();
        self.executor
            .cluster()
            .clock()
            .charge(model.rpc_latency + model.wal_sync);

        // Step 2 — bind (catalog only, nothing charged).
        let BoundWrite { table, change } = bind_write(self.executor.catalog(), statement, params)
            .map_err(|e| match e {
            QueryError::IncompleteKey { missing, .. } => TxnError::Unsupported(format!(
                "write statement must specify key attribute {missing}"
            )),
            other => other.into(),
        })?;

        // Step 3 — the row's images: an UPDATE or DELETE reads its
        // before-image (pre-lock, see the module docs); an absent row ends
        // the transaction here, lock never taken.
        let read = |key: &Row| self.executor.get_row_by_key(&table.name, key);
        let (before, after) = match change {
            WriteChange::Insert(row) => (None, Some(row)),
            WriteChange::Delete { key } => (read(&key)?, None),
            WriteChange::Update { key, assignments } => {
                let before = read(&key)?;
                let after = before.as_ref().map(|row| overlay(row, &assignments));
                (before, after)
            }
        };
        let Some(locked_by) = before.as_ref().or(after.as_ref()) else {
            return Ok(QueryResult::affected(0));
        };

        // Step 4 — the single hierarchical lock.
        let guard = self.acquire(&table.name, locked_by)?;

        // Step 5 — the kind's body.
        let result = self.apply(&table, before, after);

        // Step 6 — release.  A simulated client crash cannot release its
        // lock: leak the guard so the lock row stays held (recovery
        // reclaims it once the lease expires).
        match (guard, &result) {
            (Some(guard), Err(TxnError::Interrupted { .. })) => std::mem::forget(guard),
            (Some(guard), _) => self.locks.release(guard)?,
            (None, _) => {}
        }
        result
    }

    /// Step 5 of the write pipeline: base table, views and indexes of one
    /// row change, each kind in its own order of charged store operations
    /// (see the module docs).  Runs under the root's lock.
    fn apply(
        &self,
        table: &TableDef,
        before: Option<Row>,
        after: Option<Row>,
    ) -> Result<QueryResult, TxnError> {
        let relation = table.name.as_str();
        match (before, after) {
            (None, Some(row)) => {
                self.executor.insert_row(relation, &row)?;
                // Inserting into a root relation creates its lock-table entry
                // (the lock table itself is created at build).
                if self.locking_enabled && self.candidates.tree_for_root(relation).is_some() {
                    self.locks
                        .ensure_entry(relation, &table.encode_row_key(&row))?;
                }
                self.maintainer.apply_insert(relation, &row)?;
                Ok(QueryResult::affected(1))
            }
            (Some(old), None) => {
                // Views first, so no view row outlives its base row.
                self.maintainer.apply_delete(relation, &old)?;
                let removed = self.executor.delete_row_by_key(relation, &old)?;
                Ok(QueryResult::affected(usize::from(removed)))
            }
            (Some(old), Some(new)) => {
                // §VIII-B step 2: compute the view effects by propagating
                // the update through each view's delta plan (read-only
                // base-table probes, no view scanning).
                let staged = self.maintainer.stage_update(relation, &old, &new)?;
                // Step 3: mark the affected view rows dirty.
                self.maintainer.mark_staged(&staged)?;
                self.maybe_interrupt(3)?;
                // Step 4: issue the updates (base row first, then views).
                self.executor.update_row(relation, &new)?;
                self.maybe_interrupt(4)?;
                self.maintainer.apply_staged(&staged)?;
                self.maybe_interrupt(5)?;
                // Step 5: un-mark the rewritten rows.
                self.maintainer.unmark_staged(&staged)?;
                Ok(QueryResult::affected(1))
            }
            // No row before and none after (ruled out before the lock).
            (None, None) => Ok(QueryResult::affected(0)),
        }
    }

    /// Step 4 of the write pipeline — the only place the hierarchical lock
    /// is taken: resolves the root row above `row` and acquires its lock.
    /// `None` when locking is disabled or nothing is lockable above the row.
    fn acquire(&self, relation: &str, row: &Row) -> Result<Option<LockGuard>, TxnError> {
        if !self.locking_enabled {
            return Ok(None);
        }
        let Some((root, key)) = self.resolve_root_key(relation, row)? else {
            return Ok(None);
        };
        match self.locks.acquire(&root, &key)? {
            Some(guard) => Ok(Some(guard)),
            None => Err(TxnError::LockTimeout { root, key }),
        }
    }

    /// Resolves the root-row key associated with a row of `relation` by
    /// walking the rooted-tree path upwards through foreign keys, reading at
    /// most one ancestor row per level (the plan generator's lookups).
    fn resolve_root_key(&self, relation: &str, row: &Row) -> Result<Option<(String, String)>, TxnError> {
        let Some(tree) = self.candidates.tree_containing(relation) else {
            return Ok(None);
        };
        let root = tree.root.clone();
        if root.eq_ignore_ascii_case(relation) {
            let def = self
                .executor
                .catalog()
                .table_ci(relation)
                .ok_or_else(|| QueryError::UnknownTable(relation.to_string()))?;
            return Ok(Some((root, def.encode_row_key(row))));
        }
        let path = tree
            .path_from_root(relation)
            .ok_or_else(|| TxnError::Unsupported(format!("{relation} not reachable from {root}")))?;
        // Walk from the relation up to the root.
        let mut current = row.clone();
        for edge in path.iter().rev() {
            let parent_key_values: Vec<Value> = edge
                .fk
                .iter()
                .map(|fk| current.get(fk).cloned().unwrap_or(Value::Null))
                .collect();
            if parent_key_values.iter().any(Value::is_null) {
                return Ok(None); // dangling reference: nothing to lock above
            }
            if edge.from.eq_ignore_ascii_case(&root) {
                return Ok(Some((root, encode_key(parent_key_values.iter()))));
            }
            let mut parent_key = Row::new();
            for (pk, value) in edge.pk.iter().zip(parent_key_values.iter()) {
                parent_key.set(pk.clone(), value.clone());
            }
            match self.executor.get_row_by_key(&edge.from, &parent_key)? {
                Some(parent) => current = parent,
                None => return Ok(None),
            }
        }
        Ok(None)
    }
}
