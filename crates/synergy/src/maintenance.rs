//! View maintenance (paper §VII), rebuilt around **delta propagation
//! through the plan IR**.
//!
//! Every selected view carries a defining SELECT (its FK-join path,
//! [`ViewDefinition::defining_select`]).  The [`MaintenanceEngine`] compiles
//! that statement's plan ([`query::PhysicalPlan`]) once into a [`query::DeltaPlan`]
//! — on the view's first write, then cached for the engine's life (the
//! catalog is fixed when the executor is built) — and maintains the view by
//! pushing the write's signed row-deltas through it:
//!
//! * **insert** into the view's *last* relation: propagate `+row`; the
//!   join probes read one ancestor row per edge (the paper's k−1 reads);
//! * **delete** from the last relation: the view key *is* the base key, so
//!   the view row is deleted directly (no propagation needed);
//! * **update** of any member relation: propagate `[-old, +new]` and pair
//!   the resulting view-row deltas into in-place rewrites, removals and
//!   insertions.  When the update leaves every join attribute unchanged
//!   (the common case), only `+new` is propagated and every output is a
//!   rewrite.
//!
//! Join probes go through the same access-path selection as read planning
//! ([`query::select_probe_access`]), which additionally may use the
//! *maintenance indexes* (`MI_*` tables) the system creates for FK columns
//! that would otherwise force a full base-table scan, so no write ever
//! scans a view to find the rows it affects.
//!
//! A write's views are maintained inside the write's own transaction:
//! step 5 of the write pipeline ([`crate::txn`]) runs the engine under the
//! root's single lock, so the views are current before the write is
//! acknowledged.
//!
//! **One view write-batch site.**  Whatever computed them — an insert's
//! propagated tuples, a delete, a staged update's removals, rewrites and
//! insertions, crash recovery's roll-forward — view rows reach the store
//! through the private `write_view_rows(view, writes)` and nowhere else,
//! one batch per view per phase.  It holds the partial-materialization fork
//! once: with a residency map each write is annihilated (cold key),
//! deferred (key mid-fill) or applied, all under one residency lock;
//! without one the batch is one [`Executor::write_rows`], which maintains
//! the view's indexes.  Either way the store sees one RPC per region the
//! batch touches.  Dirty markers are not row writes: `set_markers` puts
//! the marker cells of a batch of rows as one store batch, in partial mode
//! only those of resident keys.  The engine's operations are driven by the
//! transaction layer's write pipeline ([`crate::txn`]) and by
//! [`crate::SynergySystem::recover`]; they are crate-private.

use crate::partial::ViewResidency;
use crate::viewgen::ViewDefinition;
use nosql_store::ops::{Mutation, Put};
use query::{DeltaPlan, DeltaSign, Executor, QueryError, RowDelta, RowWrite, TableDef};
use relational::Row;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Re-export of the dirty-marker column name used by the executor's
/// read-committed scan-restart protocol.
pub use query::DIRTY_MARKER;

/// Counters the engine keeps while maintaining views (shared across clones).
#[derive(Debug, Default)]
pub struct MaintenanceStats {
    view_rows_touched: AtomicU64,
    deltas_propagated: AtomicU64,
}

/// A point-in-time copy of the engine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceStatsSnapshot {
    /// View rows written, rewritten or removed by maintenance.
    pub view_rows_touched: u64,
    /// View-row deltas produced by delta propagation.
    pub deltas_propagated: u64,
}

/// The staged effect of one base-table update on one view: computed by
/// delta propagation *before* the base write, applied after it (steps 2–5
/// of the update transaction, §VIII-B).
#[derive(Debug, Clone)]
pub(crate) struct StagedViewUpdate {
    view: ViewDefinition,
    /// New full view-row images whose keys already exist (in-place rewrite).
    rewrites: Vec<Row>,
    /// Old view rows whose keys disappear (join attribute changed away).
    removes: Vec<Row>,
    /// New view rows at keys that did not exist before.
    inserts: Vec<Row>,
}

impl StagedViewUpdate {
    /// Number of view rows this staged update will touch.
    fn touched(&self) -> usize {
        self.rewrites.len() + self.removes.len() + self.inserts.len()
    }
}

/// Maintains the selected views of a Synergy deployment.
#[derive(Clone)]
pub struct MaintenanceEngine {
    executor: Executor,
    /// The selected views, in selection order (the order they are
    /// maintained in).
    views: Vec<ViewDefinition>,
    /// Compiled delta plans, keyed by view table name, filled on first use.
    plans: Arc<Mutex<BTreeMap<String, Arc<DeltaPlan>>>>,
    stats: Arc<MaintenanceStats>,
    /// Partial-materialization residency (`None` = views fully
    /// materialized): view-row writes are routed through it so deltas
    /// targeting non-resident keys are **annihilated** and deltas racing a
    /// fill are deferred (see [`ViewResidency::apply_view_writes`]).  Only
    /// `write_view_rows` and `set_markers` look at it.
    residency: Option<Arc<ViewResidency>>,
}

impl MaintenanceEngine {
    /// Creates an engine; `executor`'s catalog must already contain the
    /// view and view-index tables.
    pub fn new(executor: Executor, views: Vec<ViewDefinition>) -> Self {
        MaintenanceEngine {
            executor,
            views,
            plans: Arc::new(Mutex::new(BTreeMap::new())),
            stats: Arc::new(MaintenanceStats::default()),
            residency: None,
        }
    }

    /// Routes view-row writes through a partial-materialization residency
    /// map (see [`ViewResidency`]).
    pub fn with_residency(mut self, residency: Arc<ViewResidency>) -> Self {
        self.residency = Some(residency);
        self
    }

    /// A snapshot of the maintenance counters.
    pub(crate) fn stats(&self) -> MaintenanceStatsSnapshot {
        MaintenanceStatsSnapshot {
            view_rows_touched: self.stats.view_rows_touched.load(Ordering::Relaxed),
            deltas_propagated: self.stats.deltas_propagated.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Applicability tests (§VII-A/B/C, step 1)
    // ------------------------------------------------------------------

    /// Views to which an insert into (or a delete from) `relation` applies:
    /// those whose *last* relation is `relation`, in selection order.
    pub(crate) fn views_for_insert<'a>(&'a self, relation: &'a str) -> impl Iterator<Item = &'a ViewDefinition> {
        self.views
            .iter()
            .filter(move |v| v.last_relation().eq_ignore_ascii_case(relation))
    }

    /// Views to which an update of `relation` applies: those containing
    /// `relation` anywhere in their sequence, in selection order.
    pub(crate) fn views_for_update<'a>(&'a self, relation: &'a str) -> impl Iterator<Item = &'a ViewDefinition> {
        self.views
            .iter()
            .filter(move |v| v.relations.iter().any(|r| r.eq_ignore_ascii_case(relation)))
    }

    // ------------------------------------------------------------------
    // Delta plans
    // ------------------------------------------------------------------

    /// The compiled delta plan of a view, compiled from its defining SELECT
    /// through the regular planner on first use and cached from then on.
    /// The compile stays lazy: at build time the tables are still empty,
    /// and planning against them could pick a different join order (and
    /// with it different charges).
    fn delta_plan(&self, view: &ViewDefinition) -> Result<Arc<DeltaPlan>, QueryError> {
        let key = view.table_name();
        if let Some(plan) = self.plans.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return Ok(plan.clone());
        }
        let statement = sql::parse_statement(&view.defining_select())
            .map_err(|e| QueryError::Unsupported(format!("view defining statement: {e}")))?;
        let sql::Statement::Select(select) = statement else {
            return Err(QueryError::Unsupported(
                "view defining statement must be a SELECT".into(),
            ));
        };
        let physical = self.executor.plan_select(&select)?;
        let plan = Arc::new(DeltaPlan::compile(self.executor.catalog(), &physical)?);
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, plan.clone());
        Ok(plan)
    }

    /// Renders the delta-operator tree maintaining `view` (EXPLAIN-style).
    pub(crate) fn explain_delta_plan(&self, view: &ViewDefinition) -> Result<String, QueryError> {
        Ok(self.delta_plan(view)?.render())
    }

    /// Pushes base-table deltas of `relation` through `view`'s delta plan
    /// and counts the view-row deltas that come out.
    fn propagate(
        &self,
        view: &ViewDefinition,
        relation: &str,
        deltas: &[RowDelta],
    ) -> Result<Vec<RowDelta>, QueryError> {
        let out = self
            .delta_plan(view)?
            .propagate(&self.executor, relation, deltas)?;
        self.stats
            .deltas_propagated
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // The view-row write site
    // ------------------------------------------------------------------

    fn catalog_view_def(&self, view: &ViewDefinition) -> Result<Arc<TableDef>, QueryError> {
        let table = view.table_name();
        self.executor
            .catalog()
            .table_shared(&table)
            .ok_or(QueryError::UnknownTable(table))
    }

    /// Writes a batch of view rows — **the only place maintained view rows
    /// reach the store** (see the module docs).  Returns the view rows
    /// touched: partial mode's annihilated and deferred writes and removals
    /// that found no row do not count.
    fn write_view_rows(
        &self,
        view: &ViewDefinition,
        writes: Vec<RowWrite>,
    ) -> Result<usize, QueryError> {
        let def = self.catalog_view_def(view)?;
        if let Some(residency) = &self.residency {
            return residency.apply_view_writes(&self.executor, &def, writes);
        }
        // The executor rewrites view-index entries from the stored
        // before-images.
        self.executor.write_rows(&def.name, &writes)
    }

    // ------------------------------------------------------------------
    // Insert (§VII-A)
    // ------------------------------------------------------------------

    /// Applies a base-table insert to every applicable view (and the views'
    /// indexes, which the executor maintains automatically).  Returns the
    /// number of view rows written.
    pub(crate) fn apply_insert(&self, relation: &str, inserted: &Row) -> Result<usize, QueryError> {
        let mut written = 0;
        for view in self.views_for_insert(relation) {
            written += self.insert_into_view(view, inserted)?;
        }
        self.stats
            .view_rows_touched
            .fetch_add(written as u64, Ordering::Relaxed);
        Ok(written)
    }

    /// Propagates `+row` — a row of `view`'s last relation — through the
    /// view's delta plan and writes the view tuple(s) that come out.  The
    /// join probes walk the key/foreign-key chain upwards, one point read
    /// per ancestor relation (k−1 reads for a view of k relations); a
    /// missing ancestor yields no tuple (foreign keys are not enforced,
    /// §IV).
    fn insert_into_view(&self, view: &ViewDefinition, row: &Row) -> Result<usize, QueryError> {
        let deltas = [RowDelta::plus(row.unqualified())];
        let tuples = self.propagate(view, view.last_relation(), &deltas)?;
        debug_assert!(tuples.iter().all(|delta| delta.sign == DeltaSign::Plus));
        let writes = tuples
            .into_iter()
            .map(|delta| RowWrite::Upsert(delta.row))
            .collect();
        self.write_view_rows(view, writes)
    }

    /// Crash recovery's roll-forward of one dirty view row whose base row
    /// survived: recomputes the view tuple from the base tables exactly as
    /// an insert of `base_row` would, rewrites it and clears its marker.
    /// Returns false when the join no longer produces the row (an ancestor
    /// is missing) — the caller removes it.
    pub(crate) fn roll_forward(
        &self,
        view: &ViewDefinition,
        base_row: &Row,
    ) -> Result<bool, QueryError> {
        if self.insert_into_view(view, base_row)? == 0 {
            return Ok(false);
        }
        self.set_markers(view, [base_row], "0")?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Delete (§VII-B)
    // ------------------------------------------------------------------

    /// Applies a base-table delete to every applicable view.  The view key
    /// equals the base key (the last relation's primary key), so no
    /// propagation is needed in either mode.  Returns the number of view
    /// rows removed.
    pub(crate) fn apply_delete(&self, relation: &str, base_key: &Row) -> Result<usize, QueryError> {
        let mut removed = 0;
        for view in self.views_for_insert(relation) {
            removed += self.write_view_rows(view, vec![RowWrite::Remove(base_key.clone())])?;
        }
        self.stats
            .view_rows_touched
            .fetch_add(removed as u64, Ordering::Relaxed);
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // Update (§VII-C) — delta staging
    // ------------------------------------------------------------------

    /// Computes the staged effect of updating one row of `relation` (from
    /// `before` to `after`) on every applicable view, by delta propagation.
    /// Runs *before* the base write: the join probes read the other
    /// relations' current rows.
    pub(crate) fn stage_update(
        &self,
        relation: &str,
        before: &Row,
        after: &Row,
    ) -> Result<Vec<StagedViewUpdate>, QueryError> {
        let mut staged = Vec::new();
        for view in self.views_for_update(relation) {
            let mut update = StagedViewUpdate {
                view: view.clone(),
                rewrites: Vec::new(),
                removes: Vec::new(),
                inserts: Vec::new(),
            };
            if self.join_attributes_changed(view, relation, before, after) {
                // The update moves rows between join groups: propagate both
                // images and pair the resulting deltas by view key.
                let deltas = [
                    RowDelta::minus(before.unqualified()),
                    RowDelta::plus(after.unqualified()),
                ];
                let view_def = self.catalog_view_def(view)?;
                // BTreeMap: deterministic apply order (deterministic sim).
                let mut paired: BTreeMap<String, (Option<Row>, Option<Row>)> = BTreeMap::new();
                for delta in self.propagate(view, relation, &deltas)? {
                    let key = view_def.encode_row_key(&delta.row);
                    let entry = paired.entry(key).or_default();
                    match delta.sign {
                        DeltaSign::Minus => entry.0 = Some(delta.row),
                        DeltaSign::Plus => entry.1 = Some(delta.row),
                    }
                }
                for (_, pair) in paired {
                    match pair {
                        (Some(_), Some(new)) => update.rewrites.push(new),
                        (Some(old), None) => update.removes.push(old),
                        (None, Some(new)) => update.inserts.push(new),
                        // lint-allow(panic-freedom): pair_deltas never yields (None, None)
                        (None, None) => unreachable!("empty delta pair"),
                    }
                }
            } else {
                // Join attributes unchanged: the affected view keys are
                // exactly the keys of the propagated new image — every
                // output is an in-place rewrite.
                let deltas = [RowDelta::plus(after.unqualified())];
                let out = self.propagate(view, relation, &deltas)?;
                update.rewrites.extend(out.into_iter().map(|d| d.row));
            }
            if update.touched() > 0 {
                staged.push(update);
            }
        }
        Ok(staged)
    }

    /// Marks every currently existing view row a staged update will touch
    /// as dirty (step 3 of the update transaction), one batch per view.
    /// Rows the update *inserts* do not exist yet and are not marked
    /// (matching the insert procedure, which never marks).
    pub(crate) fn mark_staged(&self, staged: &[StagedViewUpdate]) -> Result<(), QueryError> {
        for update in staged {
            self.set_markers(
                &update.view,
                update.rewrites.iter().chain(&update.removes),
                "1",
            )?;
        }
        Ok(())
    }

    /// Applies a staged update to the view tables (step 4: runs after the
    /// base write), one batch per view: removals first, then in-place
    /// rewrites, then insertions.  Returns the number of view rows touched.
    pub(crate) fn apply_staged(&self, staged: &[StagedViewUpdate]) -> Result<usize, QueryError> {
        let mut touched = 0;
        for update in staged {
            let removes = update.removes.iter().cloned().map(RowWrite::Remove);
            let upserts = update.rewrites.iter().chain(&update.inserts).cloned();
            let writes = removes.chain(upserts.map(RowWrite::Upsert)).collect();
            touched += self.write_view_rows(&update.view, writes)?;
        }
        self.stats
            .view_rows_touched
            .fetch_add(touched as u64, Ordering::Relaxed);
        Ok(touched)
    }

    /// Clears the dirty markers a staged update set (step 5), one batch per
    /// view.  Removed rows are gone — unmarking them would resurrect a
    /// marker-only row — so only rewritten rows are unmarked.
    pub(crate) fn unmark_staged(&self, staged: &[StagedViewUpdate]) -> Result<(), QueryError> {
        for update in staged {
            self.set_markers(&update.view, &update.rewrites, "0")?;
        }
        Ok(())
    }

    /// True when the update changes any attribute of `relation` that
    /// participates in one of the view's join edges — in which case rows
    /// can enter or leave the view, and both images must be propagated.
    fn join_attributes_changed(
        &self,
        view: &ViewDefinition,
        relation: &str,
        before: &Row,
        after: &Row,
    ) -> bool {
        for edge in &view.edges {
            let attrs: &[String] = if edge.from.eq_ignore_ascii_case(relation) {
                &edge.pk
            } else if edge.to.eq_ignore_ascii_case(relation) {
                &edge.fk
            } else {
                continue;
            };
            for attribute in attrs {
                if before.get(attribute) != after.get(attribute) {
                    return true;
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Dirty markers (§VIII-B)
    // ------------------------------------------------------------------

    /// Puts the dirty-marker cells of a batch of view rows as one store
    /// batch: `"1"` marks them (step 3 of the update transaction, §VIII-B),
    /// `"0"` clears them (step 5).  In partial mode only rows whose keys
    /// are resident carry markers, checked and written under the residency
    /// lock ([`ViewResidency::write_resident`]).
    fn set_markers<'r>(
        &self,
        view: &ViewDefinition,
        view_rows: impl IntoIterator<Item = &'r Row>,
        value: &str,
    ) -> Result<(), QueryError> {
        let def = self.catalog_view_def(view)?;
        let (family, column) = query::dirty_marker_names();
        let put = |rows: Vec<&Row>| {
            let marker = |row: &Row| Put::new(def.encode_row_key(row)).with(family, column, value);
            let markers: Vec<Mutation> = rows
                .into_iter()
                .map(|row| Mutation::Put(marker(row)))
                .collect();
            self.executor.cluster().batch(&def.name, &markers)?;
            Ok(())
        };
        match &self.residency {
            Some(residency) => residency.write_resident(&def, view_rows, put),
            None => put(view_rows.into_iter().collect()),
        }
    }
}
