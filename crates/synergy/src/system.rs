//! The assembled Synergy system (paper Figure 3 and Figure 7).
//!
//! [`SynergySystem::build`] runs the whole offline pipeline — baseline
//! transformation, candidate view generation, view selection, query
//! rewriting, view-index addition, table and lock-table creation — and the
//! resulting object executes the online workload: writes go through the
//! transaction layer's single-lock procedure (`crate::txn`), reads through
//! the one read pipeline below.
//!
//! # The read pipeline: a step contract
//!
//! [`SynergySystem::execute`] is the only read procedure — the twin of
//! `TransactionLayer::execute_write` and the store's `Cluster::mutate`.
//! Every SELECT takes these steps, in this order:
//!
//! 1. **plan** — one lookup in the one [`Session`]'s plan cache, keyed by
//!    the statement's text (rendered once, here).  A miss runs rewrite
//!    (§VI-B, as a planner rule) → bind → optimize once and caches the
//!    result.  Catalog only: no store operation, nothing charged.
//! 2. **admit** — only under a view budget.  For each view table the
//!    *compiled plan* reads, in FROM order: take the leading-key equality
//!    from the plan's own bound filters ([`query::PhysicalPlan::eq_binding`]),
//!    make that key resident — hit, wait for another reader's fill, or fill
//!    it by an upquery (charged: the upquery's reads, the install's writes,
//!    any eviction's deletes) — and pin it.  The pins live in one
//!    `ReaderPins` guard from here to the end of step 3 and drop on every
//!    way out, errors included.  A view with no key binding cannot be
//!    admitted (the demand-filled view holds only the hot slice): the
//!    statement is a **bypass** — counted once, pins taken so far dropped —
//!    and takes the view-free plan instead of steps 3–4.
//! 3. **run** — [`Executor::execute_plan`] under the §VIII-C dirty-restart
//!    loop: a scanned row carrying a dirty marker restarts the statement,
//!    up to [`query::DIRTY_RETRY_LIMIT`] times.  Charged like any plan.
//! 4. **degrade** — only when step 3 exhausts its restarts (a view left
//!    permanently dirty by a crashed transaction): run the view-free plan —
//!    base tables never carry markers — and report `dirty_fallbacks = 1`.
//!
//! **The view-free plan** is the statement planned over exactly the tables
//! it names: the same session, the same plan cache, the rewrite rule
//! skipped for that lookup ([`Session::select_plan`] with `rewrite = false`;
//! the two key spaces are disjoint, so a rewritten statement can never be
//! served a view-free plan or vice versa).  It has three callers and no
//! others: the upquery of step 2 (the view's defining join must not be
//! routed back onto the view being filled), the bypass of step 2, and the
//! degrade of step 4.  Each compiles once per statement text.

use crate::lock::LockManager;
use crate::maintenance::{MaintenanceEngine, MaintenanceStatsSnapshot};
use crate::partial::{Lookup, ResidencySnapshot, ViewResidency};
use crate::rewrite::SynergyRewriter;
use crate::selection::{select_views, SelectionOutcome, ViewIndexDefinition};
use crate::txn::{TransactionLayer, TxnError, WritePlan};
use crate::viewgen::{generate_candidate_views, CandidateViews, ViewDefinition};
use nosql_store::Cluster;
use query::baseline::{baseline_catalog_with_types, create_tables, TypeHint};
use query::{
    Catalog, ColumnType, Executor, PhysicalPlan, PlanCacheStats, PlanRewriter, QueryError,
    QueryResult, Session, TableDef, TableKind,
};
use relational::{Row, Schema, Value};
use sql::Statement;
use std::collections::{BTreeMap, HashMap}; // lint-allow(determinism): HashMap only for the probe-only FK table below
use std::sync::Arc;

/// Configuration for building a [`SynergySystem`].
pub struct SynergyConfig<'a> {
    /// The relational schema.
    pub schema: Schema,
    /// The workload (used to drive view selection and query rewriting).
    pub workload: Vec<Statement>,
    /// The roots set Q (provided by the database designer, §V-A).
    pub roots: Vec<String>,
    /// Column-type hints for the baseline transformation.
    pub types: TypeHint<'a>,
    /// Overrides the candidate views (skipping §V's generation mechanism).
    /// Set by `tpcw::systems` to build the comparison systems: Baseline
    /// passes an empty candidate set (no views) and MVCC-UA the advisor's
    /// schema-oblivious views.
    pub candidate_override: Option<CandidateViews>,
    /// When false, write transactions skip the hierarchical lock.  Cleared
    /// by `tpcw::systems` for MVCC-A / MVCC-UA, whose concurrency control is
    /// the MVCC transaction server, not Synergy's locks.
    pub hierarchical_locking: bool,
    /// Modelled region-parallel worker count for reads and whole-view
    /// recomputation (1 = fully serial, the default).  The workers are a
    /// cost model — charged on the sim clock as the slowest one, run in
    /// order on the statement's own thread.  Raised by `fig_par`,
    /// `fig10 --threads` and the benchmark's `micro_scan` (`q2_join_par2`).
    pub threads: usize,
    /// Resident-byte budget for **partial view materialization** (`None`,
    /// the default, keeps the classic fully-materialized behavior).  With a
    /// budget set, views start empty and fill on demand through upqueries;
    /// a CLOCK sweep evicts cold keys to keep total resident view bytes
    /// under the budget (see [`crate::partial::ViewResidency`]).  Set by
    /// `fig_partial` and the benchmark's `micro_partial`.
    pub view_budget: Option<u64>,
}

impl<'a> SynergyConfig<'a> {
    /// A standard Synergy configuration (candidate generation from `roots`,
    /// hierarchical locking enabled).
    pub fn new(
        schema: Schema,
        workload: Vec<Statement>,
        roots: Vec<String>,
        types: TypeHint<'a>,
    ) -> Self {
        SynergyConfig {
            schema,
            workload,
            roots,
            types,
            candidate_override: None,
            hierarchical_locking: true,
            threads: 1,
            view_budget: None,
        }
    }

    /// Enables partial view materialization with the given resident-byte
    /// budget (`u64::MAX` = demand-filled but never evicted).  Views are no
    /// longer pre-filled by [`SynergySystem::materialize_views`]; reads fill
    /// them key-by-key through upqueries and a CLOCK sweep evicts cold keys
    /// to stay under the budget.
    pub fn with_view_budget(mut self, bytes: u64) -> Self {
        self.view_budget = Some(bytes);
        self
    }

    /// Models reads and whole-view recomputation with up to `threads`
    /// region-parallel workers (see [`query::Executor::with_threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Uses the given candidate views instead of running §V's generation.
    pub fn with_candidate_override(mut self, candidates: CandidateViews) -> Self {
        self.candidate_override = Some(candidates);
        self
    }

    /// Disables the hierarchical single-lock protocol (the MVCC comparison
    /// systems rely on their transaction server instead).
    pub fn without_hierarchical_locking(mut self) -> Self {
        self.hierarchical_locking = false;
        self
    }
}

/// A fully assembled Synergy deployment over a NoSQL cluster.
#[derive(Clone)]
pub struct SynergySystem {
    schema: Schema,
    workload: Vec<Statement>,
    candidates: CandidateViews,
    selection: SelectionOutcome,
    executor: Executor,
    /// The read path's one planner session: its rewrite rule substitutes
    /// the selected views, and its plan cache holds each statement's
    /// rewritten plan and — once an upquery, bypass or degraded read asked
    /// for it — its view-free plan (see the module doc).
    session: Session,
    /// The view-substitution rule the session plans through (also answers
    /// [`SynergySystem::rewrite`] directly).
    rewriter: Arc<SynergyRewriter>,
    txn: TransactionLayer,
    locks: LockManager,
    hierarchical_locking: bool,
    /// Reads answered by falling back to the baseline (view-free) plan
    /// because the rewritten plan exhausted its dirty-scan restarts.
    dirty_fallbacks: Arc<std::sync::atomic::AtomicU64>,
    /// Partial-materialization residency map (`None` without a view budget:
    /// views are fully materialized and every read is a hit by construction).
    residency: Option<Arc<ViewResidency>>,
}

/// What the offline view-population step wrote (see
/// [`SynergySystem::materialize_views`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Materialization {
    /// View rows materialized across all selected views.
    pub rows: usize,
    /// Estimated bytes of those rows (the catalog's storage-size model).
    pub bytes: u64,
}

/// The reader pins one statement holds on the view keys it was routed to
/// (see [`ViewResidency::lookup`]).  Dropping the guard releases them — on
/// every way out of the read, including a later view's failed upquery.
struct ReaderPins<'a> {
    residency: &'a ViewResidency,
    /// `(view table, leading-key prefix)` of each pinned entry.
    held: Vec<(Arc<TableDef>, String)>,
}

impl Drop for ReaderPins<'_> {
    fn drop(&mut self) {
        for (view, prefix) in &self.held {
            self.residency.unpin(&view.name, prefix);
        }
    }
}

/// What [`SynergySystem::recover`] did to bring the deployment back to a
/// consistent state after a cluster crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynergyRecovery {
    /// The store-level WAL replay report.
    pub cluster: nosql_store::RecoveryReport,
    /// Hierarchical locks whose leases had expired (held by transactions
    /// killed by the crash) that were force-released.
    pub locks_reclaimed: usize,
    /// Dirty view rows recomputed from their surviving base row (the
    /// interrupted transaction is rolled forward).
    pub view_rows_rolled_forward: usize,
    /// Dirty view rows whose base row did not survive, deleted (the
    /// interrupted transaction is rolled back).
    pub view_rows_removed: usize,
}

impl SynergySystem {
    /// Runs the offline pipeline and creates every table (base, index, view,
    /// view-index, lock) in the cluster.
    pub fn build(cluster: Cluster, config: SynergyConfig<'_>) -> Result<Self, QueryError> {
        let SynergyConfig {
            schema,
            workload,
            roots,
            types,
            candidate_override,
            hierarchical_locking,
            threads,
            view_budget,
        } = config;

        // 1. Baseline schema transformation.
        let mut catalog = baseline_catalog_with_types(&schema, types);

        // 2–3. Candidate view generation + workload-driven selection.
        let candidates = candidate_override
            .unwrap_or_else(|| generate_candidate_views(&schema, &workload, &roots));
        let selection = select_views(&schema, &candidates, &workload);

        // 4. Extend the catalog with views and view-indexes.
        for view in &selection.views {
            catalog.add_table(view_table_def(view, &schema, &catalog));
        }
        for index in &selection.view_indexes {
            catalog.add_table(view_index_table_def(index, &selection, &schema, &catalog));
        }

        // 4b. Maintenance indexes for delta join probes: for every view
        // edge whose child-side FK probe would otherwise be a full base-
        // table scan, add a covered index keyed `fk ++ child pk`.  The
        // catalog marks them maintenance-only, so the read optimizer never
        // selects them and read plans stay exactly as without them; every
        // write path maintains them like any other index.
        for view in &selection.views {
            for edge in &view.edges {
                let Some(child) = catalog.table_ci(&edge.to).cloned() else {
                    continue;
                };
                if query::select_probe_access(&catalog, &child, &edge.fk)
                    != query::AccessPath::FullScan
                {
                    continue;
                }
                let name = format!("MI_{}__{}", child.name, edge.fk.join("_"));
                if catalog.table(&name).is_some() {
                    continue;
                }
                let mut key = edge.fk.clone();
                for k in &child.key {
                    if !key.contains(k) {
                        key.push(k.clone());
                    }
                }
                catalog.add_table(TableDef::new(
                    name.clone(),
                    child.columns.clone(),
                    key,
                    TableKind::Index {
                        of: child.name.clone(),
                    },
                ));
                catalog.mark_maintenance_index(&name);
            }
        }

        // 5. Create all physical tables, plus one lock table per rooted tree.
        create_tables(&cluster, &catalog)?;
        let locks = LockManager::new(cluster.clone());
        if hierarchical_locking {
            for tree in &candidates.trees {
                locks.create_lock_table(&tree.root)?;
            }
        }

        let executor = Executor::new(cluster, catalog).with_threads(threads);
        let residency = view_budget.map(|budget| Arc::new(ViewResidency::new(budget)));
        let mut maintainer = MaintenanceEngine::new(executor.clone(), selection.views.clone());
        if let Some(residency) = &residency {
            maintainer = maintainer.with_residency(residency.clone());
        }
        let txn = TransactionLayer::new(
            executor.clone(),
            schema.clone(),
            candidates.clone(),
            locks.clone(),
            maintainer,
        )
        .with_hierarchical_locking(hierarchical_locking);

        // 6. The read path: the one planner session, whose rewrite rule
        // substitutes the selected views per workload statement (ad-hoc
        // statements run the marking procedure on the fly).  The rewrite
        // fires at plan-compile time — once per plan-cache miss — and is
        // visible in `EXPLAIN` as a `Rewrite` node.
        let rewriter = Arc::new(SynergyRewriter::new(
            candidates.clone(),
            workload.clone(),
            &selection,
        ));
        let session =
            Session::new(executor.clone()).with_rewriter(rewriter.clone() as Arc<dyn PlanRewriter>);

        Ok(SynergySystem {
            schema,
            workload,
            candidates,
            selection,
            executor,
            session,
            rewriter,
            txn,
            locks,
            hierarchical_locking,
            dirty_fallbacks: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            residency,
        })
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        self.executor.cluster()
    }

    /// The relational schema this deployment was built from.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The workload the views were selected for.
    pub fn workload(&self) -> &[Statement] {
        &self.workload
    }

    /// The catalog (base tables, indexes, views, view-indexes).
    pub fn catalog(&self) -> &Catalog {
        self.executor.catalog()
    }

    /// The executor used for reads (a read that meets a dirty view row
    /// restarts, §VIII-C).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The rooted trees produced by candidate view generation.
    pub fn candidates(&self) -> &CandidateViews {
        &self.candidates
    }

    /// The selected views and view-indexes.
    pub fn selection(&self) -> &SelectionOutcome {
        &self.selection
    }

    /// The hierarchical lock manager.
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The transaction layer (exposed for plan inspection).
    pub fn transaction_layer(&self) -> &TransactionLayer {
        &self.txn
    }

    /// The planner session serving reads: view-rewrite rule installed,
    /// plan cache keyed by statement text.  Exposed so callers can prepare
    /// SELECTs against the Synergy read path or inspect cache counters; it
    /// refuses write statements, which must run through
    /// [`SynergySystem::execute`] (log, lock, view maintenance).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// A snapshot of the read path's plan-cache counters: every step-1
    /// lookup, plus the view-free lookups of upqueries, bypasses and
    /// degraded reads (one session, one set of counters).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.session.plan_cache_stats()
    }

    /// Renders the plan tree of a statement as Synergy executes it (view
    /// rewrite applied; the substitution appears as a `Rewrite` node).
    pub fn explain(&self, statement: &Statement) -> Result<String, QueryError> {
        self.session.explain_statement(statement)
    }

    /// Rewrites a statement over the selected views: the precomputed
    /// workload selection for workload statements, the per-query marking
    /// procedure on the fly otherwise.
    pub fn rewrite(&self, statement: &Statement) -> Statement {
        match statement {
            Statement::Select(select) => match self.rewriter.rewrite_select(select) {
                Some((rewritten, _)) => Statement::Select(rewritten),
                None => statement.clone(),
            },
            other => other.clone(),
        }
    }

    /// The plan the transaction layer would execute for a write statement.
    pub fn plan_write(&self, statement: &Statement) -> Result<WritePlan, TxnError> {
        self.txn.plan(statement)
    }

    /// Executes one workload statement: writes run as single-lock
    /// transactions in the transaction layer, reads take the four steps of
    /// the module doc's contract (plan → admit → run → degrade).
    pub fn execute(&self, statement: &Statement, params: &[Value]) -> Result<QueryResult, TxnError> {
        if !statement.is_read() {
            return self.txn.execute_write(statement, params);
        }
        // 1 plan
        let text = statement.to_string();
        let plan = self.session.select_plan(&text, Some(statement), true)?;
        // 2 admit: the pins are held until the read has run.
        let _pins = match &self.residency {
            None => None,
            Some(residency) => match self.admit(residency, &plan, params)? {
                Some(pins) => Some(pins),
                None => return self.run_view_free(&text, Some(statement), params),
            },
        };
        // 3 run
        match self.executor.execute_plan(&plan, params) {
            // 4 degrade
            Err(QueryError::DirtyReadRetriesExhausted) => {
                let mut result = self.run_view_free(&text, Some(statement), params)?;
                result.dirty_fallbacks = 1;
                self.dirty_fallbacks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(result)
            }
            other => Ok(other?),
        }
    }

    /// Runs a SELECT's view-free plan (see the module doc): the session's
    /// rewrite rule skipped, so it reads exactly the tables it names.
    fn run_view_free(
        &self,
        text: &str,
        parsed: Option<&Statement>,
        params: &[Value],
    ) -> Result<QueryResult, TxnError> {
        let plan = self.session.select_plan(text, parsed, false)?;
        Ok(self.executor.execute_plan(&plan, params)?)
    }

    /// Step 2, partial-materialization admission: makes the key each view
    /// table of `plan` is read at resident (issuing upqueries for misses)
    /// with a reader pin held.  Returns the pins, held until the guard
    /// drops, or `None` — bypass — when a view has no key binding.
    fn admit<'a>(
        &self,
        residency: &'a ViewResidency,
        plan: &PhysicalPlan,
        params: &[Value],
    ) -> Result<Option<ReaderPins<'a>>, TxnError> {
        let mut pins = ReaderPins {
            residency,
            held: Vec::new(),
        };
        for (alias, def) in plan.tables().enumerate() {
            if def.kind != TableKind::View {
                continue;
            }
            let Some(key) = plan.eq_binding(alias, &def.key[0], params) else {
                residency.count_bypass();
                return Ok(None);
            };
            let prefix = ViewResidency::prefix_of_value(&key);
            self.ensure_resident(residency, def, &prefix, &key)?;
            pins.held.push((def.clone(), prefix));
        }
        Ok(Some(pins))
    }

    /// Spins until `prefix` is resident in the view table `def`, filling it
    /// with an upquery if this caller wins the fill race.  On return a
    /// reader pin is held on the entry.
    fn ensure_resident(
        &self,
        residency: &ViewResidency,
        def: &TableDef,
        prefix: &str,
        key: &Value,
    ) -> Result<(), TxnError> {
        loop {
            match residency.lookup(&def.name, prefix) {
                Lookup::Hit => return Ok(()),
                // Another reader is mid-fill on this key: its install is a
                // short critical section, so spin rather than queueing.
                Lookup::Wait => std::thread::yield_now(),
                Lookup::Fill => {
                    let rows = self
                        .upquery(def, key)
                        .inspect_err(|_| residency.abort_fill(&def.name, prefix))?;
                    residency.complete_fill(&self.executor, def, prefix, &rows)?;
                    return Ok(());
                }
            }
        }
    }

    /// The upquery recomputing one missing key of the view table `def`: the
    /// view's defining join, constrained to the missing leading-key range
    /// (both parameters bind the same value for a single-key fill), through
    /// its view-free plan.  The planner serves the range with a `key-range`
    /// access path on the view's last relation; the plan is cached like any
    /// other, so repeated misses replan nothing.
    fn upquery(&self, def: &TableDef, key: &Value) -> Result<Vec<Row>, TxnError> {
        let view = self
            .selection
            .view_by_table_name(&def.name)
            .ok_or_else(|| QueryError::UnknownTable(def.name.clone()))?;
        let sql_text = format!(
            "{} AND {rel}.{col} >= ? AND {rel}.{col} <= ?",
            view.defining_select(),
            rel = view.last_relation(),
            col = def.key[0],
        );
        let result = self.run_view_free(&sql_text, None, &[key.clone(), key.clone()])?;
        Ok(result.rows.iter().map(Row::unqualified).collect())
    }

    /// Total reads answered through the baseline-plan fallback since this
    /// system was built (see [`SynergySystem::execute`]).
    pub fn dirty_fallbacks(&self) -> u64 {
        self.dirty_fallbacks.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The partial-materialization residency map (`None` without a view
    /// budget).
    pub fn residency(&self) -> Option<&Arc<ViewResidency>> {
        self.residency.as_ref()
    }

    /// A snapshot of the partial-materialization counters and residency
    /// totals (`None` without a view budget).
    pub fn residency_snapshot(&self) -> Option<ResidencySnapshot> {
        self.residency.as_ref().map(|r| r.snapshot())
    }

    /// Always `Ok(0)`: every write maintains its views inside its own
    /// transaction, so nothing is ever pending.  Kept because the benchmark
    /// package's view check calls it before comparing views.
    pub fn flush_maintenance(&self) -> Result<usize, TxnError> {
        Ok(0)
    }

    /// A snapshot of the maintenance counters (view rows touched, deltas
    /// propagated).
    pub fn maintenance_stats(&self) -> MaintenanceStatsSnapshot {
        self.txn.maintainer().stats()
    }

    /// Recovers the deployment after a cluster crash
    /// ([`nosql_store::Cluster::crash`]):
    ///
    /// 1. replays the store's WAL back to the acked-synced state
    ///    ([`nosql_store::Cluster::recover`]);
    /// 2. force-releases hierarchical locks whose leases expired — every
    ///    lock held by a transaction the crash killed, since recovery
    ///    charges more simulated time than a live holder's remaining lease;
    /// 3. repairs the `_dirty` markers of interrupted update transactions:
    ///    a dirty view row whose base row survived is **rolled forward**
    ///    (recomputed from the base tables and unmarked); one whose base
    ///    row is gone is **rolled back** (deleted).  Either way no view row
    ///    outlives its base row and no view stays permanently dirty.
    pub fn recover(&self) -> Result<SynergyRecovery, TxnError> {
        let cluster_report = self.cluster().recover();

        let mut locks_reclaimed = 0;
        if self.hierarchical_locking {
            for tree in &self.candidates.trees {
                locks_reclaimed += self
                    .locks
                    .reclaim_expired(&tree.root)
                    .map_err(QueryError::from)?;
            }
        }

        let mut view_rows_rolled_forward = 0;
        let mut view_rows_removed = 0;

        // Partial mode restarts cold: a crash can leave a key's view rows
        // half-synced (some rows' WAL records acked, others lost), and
        // unlike the dirty-marker protocol there is no per-row marker to
        // say which keys were mid-fill.  Wipe every view and view-index
        // row raw and clear residency — the hot set refills on demand.
        if let Some(residency) = &self.residency {
            for view in &self.selection.views {
                view_rows_removed += self.wipe_table_raw(&view.table_name())?;
            }
            for index in &self.selection.view_indexes {
                self.wipe_table_raw(&index.name)?;
            }
            residency.clear();
            return Ok(SynergyRecovery {
                cluster: cluster_report,
                locks_reclaimed,
                view_rows_rolled_forward,
                view_rows_removed,
            });
        }

        for view in &self.selection.views {
            let table = view.table_name();
            let def = self
                .executor
                .catalog()
                .table(&table)
                .ok_or_else(|| QueryError::UnknownTable(table.clone()))?
                .clone();
            let stored = self
                .cluster()
                .scan(&table, nosql_store::ops::Scan::all())
                .map_err(QueryError::from)?;
            for row in stored {
                if row.value(query::FAMILY, query::DIRTY_MARKER) != Some(b"1".as_slice()) {
                    continue;
                }
                let view_row = def.decode_row(&row);
                // The view key is the last relation's primary key: project
                // it out to locate the base row.
                let mut base_key = Row::new();
                let mut complete = true;
                for attribute in &def.key {
                    match view_row.get(attribute) {
                        Some(value) => {
                            base_key.set(attribute.clone(), value.clone());
                        }
                        None => complete = false,
                    }
                }
                if !complete {
                    // A marker-only remnant: the row's data cells did not
                    // survive the crash (only the synced dirty marker did).
                    // It cannot be decoded, so drop it by its raw key.
                    self.cluster()
                        .delete(&table, nosql_store::ops::Delete::row(row.key.to_vec()))
                        .map_err(QueryError::from)?;
                    view_rows_removed += 1;
                    continue;
                }
                let rolled_forward = match self
                    .executor
                    .get_row_by_key(view.last_relation(), &base_key)?
                {
                    // Base row survived: recompute the view row through the
                    // view's delta plan (k−1 ancestor reads) and unmark it —
                    // unless an ancestor row is missing and the join no
                    // longer produces it.
                    Some(base_row) => self.txn.maintainer().roll_forward(view, &base_row)?,
                    // Base row gone: the interrupted transaction rolls back.
                    None => false,
                };
                if rolled_forward {
                    view_rows_rolled_forward += 1;
                } else {
                    self.executor.delete_row_by_key(&table, &base_key)?;
                    view_rows_removed += 1;
                }
            }
        }

        Ok(SynergyRecovery {
            cluster: cluster_report,
            locks_reclaimed,
            view_rows_rolled_forward,
            view_rows_removed,
        })
    }

    /// Deletes every stored row of `table` by its raw key (markers and
    /// undecodable remnants included); returns the rows removed.
    fn wipe_table_raw(&self, table: &str) -> Result<usize, TxnError> {
        let stored = self
            .cluster()
            .scan(table, nosql_store::ops::Scan::all())
            .map_err(QueryError::from)?;
        let mut removed = 0;
        for row in stored {
            self.cluster()
                .delete(table, nosql_store::ops::Delete::row(row.key.to_vec()))
                .map_err(QueryError::from)?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Renders the delta-operator tree maintaining `view` (EXPLAIN-style,
    /// see [`query::DeltaPlan::render`]).
    pub fn explain_delta_plan(&self, view: &ViewDefinition) -> Result<String, TxnError> {
        Ok(self.txn.maintainer().explain_delta_plan(view)?)
    }

    /// Parses and executes a SQL string.
    pub fn execute_sql(&self, sql_text: &str, params: &[Value]) -> Result<QueryResult, TxnError> {
        // A leading EXPLAIN renders the (view-rewritten) plan tree instead
        // of executing; the session returns it as `plan` rows.
        if sql::strip_explain(sql_text).is_some() {
            return Ok(self.session.execute_sql(sql_text, params)?);
        }
        let statement = sql::parse_statement(sql_text)
            .map_err(|e| TxnError::Unsupported(e.to_string()))?;
        self.execute(&statement, params)
    }

    /// Bulk-loads base rows (offline population; no simulated cost).  Lock
    /// table entries are created for root-relation rows.
    pub fn bulk_load(&self, relation: &str, rows: &[Row]) -> Result<usize, TxnError> {
        let loaded = self.executor.bulk_load_rows(relation, rows)?;
        if self.hierarchical_locking && self.candidates.tree_for_root(relation).is_some() {
            let def = self
                .executor
                .catalog()
                .table_ci(relation)
                .ok_or_else(|| QueryError::UnknownTable(relation.to_string()))?;
            let (family, held, _) = crate::lock::lock_names();
            let puts: Vec<nosql_store::ops::Put> = rows
                .iter()
                .map(|row| nosql_store::ops::Put::new(def.encode_row_key(row)).with(family, held, "0"))
                .collect();
            self.cluster()
                .bulk_load(&crate::lock::lock_table_name(relation), puts)
                .map_err(QueryError::from)?;
        }
        Ok(loaded)
    }

    /// Computes the contents of every selected view from the already loaded
    /// base tables and bulk-loads them (the offline view-population step that
    /// precedes the paper's measurements).  Returns the view rows **and**
    /// estimated bytes written.  With a view budget configured this is a
    /// no-op returning zeros: partial views start empty and fill on demand.
    pub fn materialize_views(&self) -> Result<Materialization, TxnError> {
        let mut total = Materialization::default();
        if self.residency.is_some() {
            return Ok(total);
        }
        for view in &self.selection.views {
            let one = self.materialize_view(view)?;
            total.rows += one.rows;
            total.bytes += one.bytes;
        }
        Ok(total)
    }

    fn materialize_view(&self, view: &ViewDefinition) -> Result<Materialization, TxnError> {
        let table = view.table_name();
        let def = self
            .executor
            .catalog()
            .table(&table)
            .ok_or_else(|| QueryError::UnknownTable(table.clone()))?
            .clone();
        let combined = self.recompute_view_rows(view)?;
        let bytes = combined
            .iter()
            .map(|row| def.estimate_row_bytes(row) as u64)
            .sum();
        self.executor.bulk_load_rows(&table, &combined)?;
        Ok(Materialization {
            rows: combined.len(),
            bytes,
        })
    }

    /// Recomputes a view's contents from its base tables (the full-join
    /// ground truth).  Used by the offline population step and by the
    /// delta-vs-recompute equivalence tests.
    pub fn recompute_view_rows(&self, view: &ViewDefinition) -> Result<Vec<Row>, TxnError> {
        // Load each participating relation into memory once: a whole-table
        // read that fails if any page does, so a view is never recomputed
        // from a prefix of a relation.
        let mut relation_rows: BTreeMap<String, Vec<Row>> = BTreeMap::new();
        for relation in &view.relations {
            let def = self
                .executor
                .catalog()
                .table_ci(relation)
                .ok_or_else(|| QueryError::UnknownTable(relation.clone()))?;
            relation_rows.insert(relation.clone(), self.executor.read_table(def)?);
        }

        // Join along the path: parent → child on (pk = fk).
        let mut combined: Vec<Row> = relation_rows[&view.relations[0]].clone();
        for edge in &view.edges {
            let children = &relation_rows[&edge.to];
            // Hash children by their FK tuple.  (`Value` has no `Ord`, and
            // the table is probe-only: output order follows `combined`.)
            let mut by_fk: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new(); // lint-allow(determinism): probe-only
            for child in children {
                let fk: Option<Vec<Value>> =
                    edge.fk.iter().map(|a| child.get(a).cloned()).collect();
                if let Some(fk) = fk {
                    by_fk.entry(fk).or_default().push(child);
                }
            }
            let mut next = Vec::new();
            for row in &combined {
                let pk: Option<Vec<Value>> = edge.pk.iter().map(|a| row.get(a).cloned()).collect();
                let Some(pk) = pk else { continue };
                if let Some(matches) = by_fk.get(&pk) {
                    for child in matches {
                        let mut merged = row.clone();
                        for (k, v) in child.iter() {
                            merged.set(k, v.clone());
                        }
                        next.push(merged);
                    }
                }
            }
            combined = next;
        }
        Ok(combined)
    }

    /// Total stored bytes across every table of this deployment (base,
    /// index, view, view-index, lock) — the quantity behind the paper's
    /// Table III.
    pub fn database_size_bytes(&self) -> u64 {
        self.cluster().metrics().total_bytes()
    }
}

/// Builds the physical table definition of a view: columns are the union of
/// the participating relations' attributes (typed from the base catalog),
/// the key is the key of the last relation.
fn view_table_def(view: &ViewDefinition, schema: &Schema, base_catalog: &Catalog) -> TableDef {
    let mut columns: Vec<(String, ColumnType)> = Vec::new();
    for attribute in view.attributes(schema) {
        let ty = column_type_from_base(view, &attribute, base_catalog);
        columns.push((attribute, ty));
    }
    TableDef::new(
        view.table_name(),
        columns,
        view.key_attributes(schema),
        TableKind::View,
    )
}

/// Builds the physical table definition of a view-index: a covered index
/// over all view columns, keyed on `indexed_on ++ view key`.
fn view_index_table_def(
    index: &ViewIndexDefinition,
    selection: &SelectionOutcome,
    schema: &Schema,
    base_catalog: &Catalog,
) -> TableDef {
    let view = selection
        .view_by_table_name(&index.view)
        // lint-allow(panic-freedom): selection validated to cover every view index it emits
        .expect("view-index references a selected view");
    let mut columns: Vec<(String, ColumnType)> = Vec::new();
    for attribute in view.attributes(schema) {
        let ty = column_type_from_base(view, &attribute, base_catalog);
        columns.push((attribute, ty));
    }
    let mut key = index.indexed_on.clone();
    for k in view.key_attributes(schema) {
        if !key.contains(&k) {
            key.push(k);
        }
    }
    TableDef::new(
        index.name.clone(),
        columns,
        key,
        TableKind::Index {
            of: index.view.clone(),
        },
    )
}

fn column_type_from_base(view: &ViewDefinition, attribute: &str, catalog: &Catalog) -> ColumnType {
    for relation in &view.relations {
        if let Some(def) = catalog.table_ci(relation) {
            if let Some(ty) = def.column_type(attribute) {
                return ty;
            }
        }
    }
    ColumnType::Str
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosql_store::{ClusterConfig, FaultPlan};
    use relational::Relation;
    use sql::parse_statement;

    /// The TPC-W customer subschema with two two-relation branches under
    /// `Customer` — orders with their lines, carts with theirs — so one
    /// statement can be routed to two views.
    fn two_branch_schema() -> Schema {
        let relation = |name: &str, attributes: &[&str], key: &[&str]| {
            Relation::new(name)
                .attributes(attributes.iter().copied())
                .primary_key(key.iter().copied())
        };
        Schema::new()
            .with_relation(relation("Customer", &["c_id", "c_uname"], &["c_id"]).build())
            .with_relation(
                relation("Orders", &["o_id", "o_c_id"], &["o_id"])
                    .foreign_key("o_c_id", "Customer", "c_id")
                    .build(),
            )
            .with_relation(
                relation(
                    "Order_line",
                    &["ol_o_id", "ol_id", "ol_qty"],
                    &["ol_o_id", "ol_id"],
                )
                .foreign_key("ol_o_id", "Orders", "o_id")
                .build(),
            )
            .with_relation(
                relation("Shopping_cart", &["sc_id", "sc_c_id"], &["sc_id"])
                    .foreign_key("sc_c_id", "Customer", "c_id")
                    .build(),
            )
            .with_relation(
                relation(
                    "Shopping_cart_line",
                    &["scl_sc_id", "scl_id", "scl_qty"],
                    &["scl_sc_id", "scl_id"],
                )
                .foreign_key("scl_sc_id", "Shopping_cart", "sc_id")
                .build(),
            )
    }

    /// A later view's failed upquery must not strand the reader pins the
    /// statement already took on its earlier views: a pinned key is exempt
    /// from eviction, so a leaked pin keeps residency over budget for good.
    #[test]
    fn a_failed_upquery_releases_the_pins_of_the_statements_earlier_views() {
        const KEYS: i64 = 24;
        let two_views = parse_statement(
            "SELECT * FROM Customer AS c, Orders AS o, Order_line AS ol, \
             Shopping_cart AS sc, Shopping_cart_line AS scl \
             WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id \
             AND c.c_id = sc.sc_c_id AND sc.sc_id = scl.scl_sc_id \
             AND ol.ol_o_id = ? AND scl.scl_sc_id = ?",
        )
        .unwrap();
        // Injected timeouts on every tenth charged op, and no retry policy:
        // the first fault an upquery meets fails the read.
        let cluster = Cluster::new(ClusterConfig {
            fault_plan: Some(FaultPlan::new(0x91A5).with_timeouts(0.1)),
            retry: None,
            ..ClusterConfig::default()
        });
        let int = |_: &str, _: &str| Some(ColumnType::Int);
        let config = SynergyConfig::new(
            two_branch_schema(),
            vec![two_views.clone()],
            vec!["Customer".to_string()],
            &int,
        )
        .with_view_budget(u64::MAX);
        let system = SynergySystem::build(cluster, config).unwrap();
        // One customer owning KEYS orders and KEYS carts of one line each.
        let load = |table: &str, row: fn(i64) -> Row| {
            system.bulk_load(table, &(1..=KEYS).map(row).collect::<Vec<_>>()).unwrap()
        };
        system.bulk_load("Customer", &[Row::new().with("c_id", 1).with("c_uname", 1)]).unwrap();
        load("Orders", |k| Row::new().with("o_id", k).with("o_c_id", 1));
        load("Shopping_cart", |k| Row::new().with("sc_id", k).with("sc_c_id", 1));
        load("Order_line", |k| Row::new().with("ol_o_id", k).with("ol_id", 1).with("ol_qty", 2));
        load("Shopping_cart_line", |k| {
            Row::new().with("scl_sc_id", k).with("scl_id", 1).with("scl_qty", 2)
        });
        let rewritten = system.rewrite(&two_views);
        let from = &rewritten.as_select().unwrap().from;
        assert!(
            from.len() == 2 && from.iter().all(|t| t.table.starts_with("V_")),
            "the statement reads two views: {rewritten}"
        );

        let residency = system.residency().unwrap().clone();
        let mut failed_after_a_pin = 0;
        for key in 1..=KEYS {
            let keys_before = residency.snapshot().resident_keys;
            let outcome = system.execute(&two_views, &[Value::Int(key), Value::Int(key)]);
            assert_eq!(
                residency.pins_held(),
                0,
                "key {key}: pins outlive the read ({outcome:?})"
            );
            // The first view's key became resident (and was pinned), then
            // the second view's upquery failed.
            if outcome.is_err() && residency.snapshot().resident_keys > keys_before {
                failed_after_a_pin += 1;
            }
        }
        assert!(
            failed_after_a_pin > 0,
            "the fault plan never failed a second view's upquery"
        );
    }
}
