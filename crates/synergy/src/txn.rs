//! The Synergy transaction layer (paper §VIII): write-ahead logging, the
//! plan generator, and the write transaction procedures that atomically
//! update base tables, views and indexes under a single hierarchical lock.

use crate::lock::LockManager;
use crate::maintenance::MaintenanceEngine;
use crate::viewgen::CandidateViews;
use nosql_store::{WalOp, WriteAheadLog};
use query::{Executor, QueryError, QueryResult};
use relational::{encode_key, Row, Schema, Value};
use sql::Statement;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
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
    next_txn: Arc<AtomicU64>,
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
            next_txn: Arc::new(AtomicU64::new(1)),
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

    /// The view-maintenance engine (delta plans, write batch, counters).
    pub fn maintainer(&self) -> &MaintenanceEngine {
        &self.maintainer
    }

    /// Flushes any writes coalescing in the maintenance batch.  Returns the
    /// number of view rows touched.
    pub fn flush_maintenance(&self) -> Result<usize, TxnError> {
        Ok(self.maintainer.flush()?)
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

    /// Executes a write statement as a Synergy transaction: assign an id,
    /// log it, acquire the single hierarchical lock, update base table +
    /// views + indexes, release the lock.
    pub fn execute_write(
        &self,
        statement: &Statement,
        params: &[Value],
    ) -> Result<QueryResult, TxnError> {
        let txn_id = self.next_txn.fetch_add(1, Ordering::SeqCst);
        // The slave's transaction manager appends the statement to its WAL
        // (one durable append per transaction) before executing it.
        self.wal.append(
            format!("txn-{txn_id}"),
            WalOp::Logical {
                payload: statement.to_string(),
            },
        );
        self.wal.sync();
        let model = self.executor.cluster().cost_model().clone();
        self.executor
            .cluster()
            .clock()
            .charge(model.rpc_latency + model.effective_wal_sync());

        match statement {
            Statement::Insert(insert) => self.run_insert(insert, params),
            Statement::Delete(delete) => self.run_delete(delete, params),
            Statement::Update(update) => self.run_update(update, params),
            Statement::Select(_) => Err(TxnError::Unsupported(
                "SELECT statements are executed outside the transaction layer".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Root-key resolution
    // ------------------------------------------------------------------

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

    fn acquire(&self, root_key: &Option<(String, String)>) -> Result<Option<crate::lock::LockGuard>, TxnError> {
        if !self.locking_enabled {
            return Ok(None);
        }
        match root_key {
            None => Ok(None),
            Some((root, key)) => match self.locks.acquire(root, key)? {
                Some(guard) => Ok(Some(guard)),
                None => Err(TxnError::LockTimeout {
                    root: root.clone(),
                    key: key.clone(),
                }),
            },
        }
    }

    fn release(&self, guard: Option<crate::lock::LockGuard>) -> Result<(), TxnError> {
        if let Some(guard) = guard {
            self.locks.release(guard)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transaction procedures (§VIII-B)
    // ------------------------------------------------------------------

    fn run_insert(
        &self,
        insert: &sql::InsertStatement,
        params: &[Value],
    ) -> Result<QueryResult, TxnError> {
        let def = self
            .executor
            .catalog()
            .table_ci(&insert.table)
            .ok_or_else(|| QueryError::UnknownTable(insert.table.clone()))?
            .clone();
        let mut row = Row::new();
        for (column, expr) in insert.columns.iter().zip(&insert.values) {
            row.set(column.clone(), bind(expr, params)?);
        }
        let root_key = if self.locking_enabled {
            self.resolve_root_key(&def.name, &row)?
        } else {
            None
        };
        let guard = self.acquire(&root_key)?;

        let result = (|| -> Result<QueryResult, TxnError> {
            self.executor.insert_row(&def.name, &row)?;
            // Inserting into a root relation creates its lock-table entry.
            if self.locking_enabled && self.candidates.tree_for_root(&def.name).is_some() {
                self.locks.create_lock_table(&def.name)?;
                self.locks.ensure_entry(&def.name, &def.encode_row_key(&row))?;
            }
            if self.maintainer.buffering() {
                self.maintainer.enqueue_insert(&def.name, &row)?;
            } else {
                self.maintainer.apply_insert(&def.name, &row)?;
            }
            Ok(QueryResult::affected(1))
        })();
        self.release(guard)?;
        result
    }

    fn run_delete(
        &self,
        delete: &sql::DeleteStatement,
        params: &[Value],
    ) -> Result<QueryResult, TxnError> {
        let def = self
            .executor
            .catalog()
            .table_ci(&delete.table)
            .ok_or_else(|| QueryError::UnknownTable(delete.table.clone()))?
            .clone();
        let key = key_from_eq_filters(&def.key, &delete.conditions, params)?;
        let Some(existing) = self.executor.get_row_by_key(&def.name, &key)? else {
            return Ok(QueryResult::affected(0));
        };
        let root_key = if self.locking_enabled {
            self.resolve_root_key(&def.name, &existing)?
        } else {
            None
        };
        let guard = self.acquire(&root_key)?;
        let result = (|| -> Result<QueryResult, TxnError> {
            if self.maintainer.buffering() {
                // Deferred maintenance: delete the base row now, coalesce
                // the retraction into the batch (an earlier buffered insert
                // of the same key annihilates with it).
                let removed = self.executor.delete_row_by_key(&def.name, &key)?;
                self.maintainer.enqueue_delete(&def.name, &existing)?;
                return Ok(QueryResult::affected(usize::from(removed)));
            }
            self.maintainer.apply_delete(&def.name, &key)?;
            let removed = self.executor.delete_row_by_key(&def.name, &key)?;
            Ok(QueryResult::affected(usize::from(removed)))
        })();
        self.release(guard)?;
        result
    }

    fn run_update(
        &self,
        update: &sql::UpdateStatement,
        params: &[Value],
    ) -> Result<QueryResult, TxnError> {
        let def = self
            .executor
            .catalog()
            .table_ci(&update.table)
            .ok_or_else(|| QueryError::UnknownTable(update.table.clone()))?
            .clone();
        let key = key_from_eq_filters(&def.key, &update.conditions, params)?;
        let Some(existing) = self.executor.get_row_by_key(&def.name, &key)? else {
            return Ok(QueryResult::affected(0));
        };
        let mut updated = existing.clone();
        for (column, expr) in &update.assignments {
            updated.set(column.clone(), bind(expr, params)?);
        }

        // Step 1: acquire the single hierarchical lock.
        let root_key = if self.locking_enabled {
            self.resolve_root_key(&def.name, &existing)?
        } else {
            None
        };
        let guard = self.acquire(&root_key)?;

        let result = (|| -> Result<QueryResult, TxnError> {
            if self.maintainer.buffering() {
                // Deferred maintenance: write the base row now (the
                // before-image rides the write), coalesce the delta into
                // the batch; propagation happens at flush.
                self.executor.update_row(&def.name, &updated)?;
                self.maintainer.enqueue_update(&def.name, &existing, &updated)?;
                return Ok(QueryResult::affected(1));
            }
            // Step 2: compute the view effects by propagating the update
            // through each view's delta plan (read-only base-table probes,
            // no view scanning).
            let staged = self
                .maintainer
                .stage_update(&def.name, &existing, &updated)?;
            // Step 3: mark the affected view rows dirty.
            self.maintainer.mark_staged(&staged)?;
            self.maybe_interrupt(3)?;
            // Step 4: issue the updates (base row first, then views).
            self.executor.update_row(&def.name, &updated)?;
            self.maybe_interrupt(4)?;
            self.maintainer.apply_staged(&staged)?;
            self.maybe_interrupt(5)?;
            // Step 5: un-mark the rewritten rows.
            self.maintainer.unmark_staged(&staged)?;
            Ok(QueryResult::affected(1))
        })();
        if let Err(TxnError::Interrupted { .. }) = result {
            // Simulated client crash: the dead client cannot release its
            // lock — leak the guard so the lock row stays held (recovery
            // reclaims it once the lease expires).
            if let Some(guard) = guard {
                std::mem::forget(guard);
            }
            return result;
        }
        // Step 6: release the lock.
        self.release(guard)?;
        result
    }
}

fn bind(expr: &sql::Expr, params: &[Value]) -> Result<Value, QueryError> {
    match expr {
        sql::Expr::Literal(v) => Ok(v.clone()),
        sql::Expr::Parameter(i) => params
            .get(*i)
            .cloned()
            .ok_or(QueryError::MissingParameter(*i)),
        sql::Expr::Column(c) => Err(QueryError::Unsupported(format!(
            "column {c} cannot be used as a scalar value"
        ))),
    }
}

/// Extracts the primary-key row from the equality filters of a write
/// statement (Synergy requires writes to specify every key attribute, §IV).
fn key_from_eq_filters(
    key_attributes: &[String],
    conditions: &[sql::Condition],
    params: &[Value],
) -> Result<Row, TxnError> {
    let mut key = Row::new();
    for attribute in key_attributes {
        let value = conditions
            .iter()
            .find(|c| {
                c.op == sql::Comparison::Eq && c.is_filter() && c.left.column == *attribute
            })
            .map(|c| bind(&c.right, params))
            .transpose()?;
        match value {
            Some(v) => {
                key.set(attribute.clone(), v);
            }
            None => {
                return Err(TxnError::Unsupported(format!(
                    "write statement must specify key attribute {attribute}"
                )))
            }
        }
    }
    Ok(key)
}
