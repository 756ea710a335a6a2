//! View maintenance (paper §VII), rebuilt around **delta propagation
//! through the plan IR**.
//!
//! Every selected view carries a defining SELECT (its FK-join path,
//! [`ViewDefinition::defining_select`]).  The [`MaintenanceEngine`] compiles
//! that statement's [`query::LogicalPlan`] once into a [`query::DeltaPlan`]
//! — cached per view and invalidated by catalog version, exactly like the
//! read path's plan cache — and maintains the view by pushing the write's
//! signed row-deltas through it:
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
//! A coalescing [`DeltaBuffer`] (capacity > 1 via
//! `SynergyConfig::with_write_batch`) defers propagation: consecutive
//! writes to the same base key merge (last-write-wins per column,
//! insert+delete annihilation) and flush as one propagated write.

use crate::partial::{MaintOutcome, ViewResidency, ViewWrite};
use crate::viewgen::ViewDefinition;
use nosql_store::ops::Put;
use query::{
    DeltaBuffer, DeltaPlan, DeltaSign, Executor, PendingWrite, QueryError, RowDelta, TableDef,
    FAMILY,
};
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
    flushes: AtomicU64,
}

/// A point-in-time copy of the engine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceStatsSnapshot {
    /// View rows written, rewritten or removed by maintenance.
    pub view_rows_touched: u64,
    /// View-row deltas produced by delta propagation.
    pub deltas_propagated: u64,
    /// Write-batch flushes performed.
    pub flushes: u64,
    /// Writes merged away by the coalescing buffer.
    pub coalesced_merges: u64,
}

/// The staged effect of one base-table update on one view: computed by
/// delta propagation *before* the base write, applied after it (steps 2–5
/// of the update transaction, §VIII-B).
#[derive(Debug, Clone)]
pub struct StagedViewUpdate {
    view: ViewDefinition,
    /// New full view-row images whose keys already exist (in-place rewrite).
    rewrites: Vec<Row>,
    /// Old view rows whose keys disappear (join attribute changed away).
    removes: Vec<Row>,
    /// New view rows at keys that did not exist before.
    inserts: Vec<Row>,
}

impl StagedViewUpdate {
    /// The view this staged update maintains.
    pub fn view(&self) -> &ViewDefinition {
        &self.view
    }

    /// Number of view rows this staged update will touch.
    pub fn touched(&self) -> usize {
        self.rewrites.len() + self.removes.len() + self.inserts.len()
    }
}

/// Maintains the selected views of a Synergy deployment.
#[derive(Clone)]
pub struct MaintenanceEngine {
    executor: Executor,
    views: Vec<ViewDefinition>,
    /// Precomputed applicability index: relation → views whose *last*
    /// relation it is (insert/delete applicability, §VII-A/B).
    by_last: Vec<(String, Vec<usize>)>,
    /// Precomputed applicability index: relation → views containing it
    /// anywhere (update applicability, §VII-C).
    by_member: Vec<(String, Vec<usize>)>,
    /// Compiled delta plans, keyed by view table name; entries whose
    /// catalog version is stale are recompiled lazily.
    plans: Arc<Mutex<BTreeMap<String, Arc<DeltaPlan>>>>,
    /// The coalescing write batch (capacity 1 = propagate per write).
    buffer: Arc<Mutex<DeltaBuffer>>,
    stats: Arc<MaintenanceStats>,
    /// Partial-materialization residency (`None` = views fully
    /// materialized): view-row writes are routed through it so deltas
    /// targeting non-resident keys are **annihilated** and deltas racing a
    /// fill are deferred (see [`ViewResidency::apply_view_write`]).
    residency: Option<Arc<ViewResidency>>,
}

impl MaintenanceEngine {
    /// Creates an engine; `executor`'s catalog must already contain the
    /// view and view-index tables.  The write batch holds one write (no
    /// coalescing) by default.
    pub fn new(executor: Executor, views: Vec<ViewDefinition>) -> Self {
        let mut by_last: Vec<(String, Vec<usize>)> = Vec::new();
        let mut by_member: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, view) in views.iter().enumerate() {
            push_id(&mut by_last, view.last_relation(), i);
            for relation in &view.relations {
                push_id(&mut by_member, relation, i);
            }
        }
        MaintenanceEngine {
            executor,
            views,
            by_last,
            by_member,
            plans: Arc::new(Mutex::new(BTreeMap::new())),
            buffer: Arc::new(Mutex::new(DeltaBuffer::new(1))),
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

    /// Sets the coalescing write-batch capacity (1 = flush per write).
    pub fn with_write_batch(self, capacity: usize) -> Self {
        *self.buffer.lock().unwrap_or_else(PoisonError::into_inner) = DeltaBuffer::new(capacity);
        self
    }

    /// True when writes are deferred into the coalescing batch.
    pub fn buffering(&self) -> bool {
        self.buffer.lock().unwrap_or_else(PoisonError::into_inner).capacity() > 1
    }

    /// All maintained views.
    pub fn views(&self) -> &[ViewDefinition] {
        &self.views
    }

    /// A snapshot of the maintenance counters.
    pub fn stats(&self) -> MaintenanceStatsSnapshot {
        MaintenanceStatsSnapshot {
            view_rows_touched: self.stats.view_rows_touched.load(Ordering::Relaxed),
            deltas_propagated: self.stats.deltas_propagated.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            coalesced_merges: self.buffer.lock().unwrap_or_else(PoisonError::into_inner).merges(),
        }
    }

    // ------------------------------------------------------------------
    // Applicability tests (§VII-A/B/C, step 1) — precomputed
    // ------------------------------------------------------------------

    /// Views to which an insert into `relation` applies: those whose *last*
    /// relation is `relation`.  Served from the precomputed index — no
    /// allocation per write.
    pub fn views_for_insert(&self, relation: &str) -> impl Iterator<Item = &ViewDefinition> {
        ids_for(&self.by_last, relation).iter().map(|&i| &self.views[i])
    }

    /// Views to which a delete from `relation` applies (same test as insert).
    pub fn views_for_delete(&self, relation: &str) -> impl Iterator<Item = &ViewDefinition> {
        self.views_for_insert(relation)
    }

    /// Views to which an update of `relation` applies: those containing
    /// `relation` anywhere in their sequence.
    pub fn views_for_update(&self, relation: &str) -> impl Iterator<Item = &ViewDefinition> {
        ids_for(&self.by_member, relation).iter().map(|&i| &self.views[i])
    }

    // ------------------------------------------------------------------
    // Delta plans
    // ------------------------------------------------------------------

    /// The compiled delta plan of a view, compiled from its defining SELECT
    /// through the regular planner on first use and cached until the
    /// catalog version changes (mirrors the read path's plan cache).
    pub fn delta_plan(&self, view: &ViewDefinition) -> Result<Arc<DeltaPlan>, QueryError> {
        let key = view.table_name();
        let version = self.executor.catalog().version();
        {
            let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(plan) = plans.get(&key) {
                if plan.catalog_version() == version {
                    return Ok(plan.clone());
                }
            }
        }
        let statement = sql::parse_statement(&view.defining_select())
            .map_err(|e| QueryError::Unsupported(format!("view defining statement: {e}")))?;
        let sql::Statement::Select(select) = statement else {
            return Err(QueryError::Unsupported(
                "view defining statement must be a SELECT".into(),
            ));
        };
        let physical = self.executor.plan_select(&select)?;
        let plan = Arc::new(
            DeltaPlan::compile(self.executor.catalog(), physical.logical())?
                .with_state_table(&key),
        );
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, plan.clone());
        Ok(plan)
    }

    /// Renders the delta-operator tree maintaining `view` (EXPLAIN-style).
    pub fn explain_delta_plan(&self, view: &ViewDefinition) -> Result<String, QueryError> {
        Ok(self.delta_plan(view)?.render())
    }

    // ------------------------------------------------------------------
    // Residency-aware view writes (partial materialization)
    // ------------------------------------------------------------------

    fn catalog_view_def(&self, view: &ViewDefinition) -> Result<TableDef, QueryError> {
        let table = view.table_name();
        self.executor
            .catalog()
            .table(&table)
            .cloned()
            .ok_or(QueryError::UnknownTable(table))
    }

    /// Writes one view row (insert or in-place rewrite).  In partial mode
    /// the write routes through residency: annihilated for a cold key,
    /// deferred mid-fill, applied as an upsert otherwise.
    fn route_view_upsert(
        &self,
        view: &ViewDefinition,
        row: &Row,
        insert: bool,
    ) -> Result<usize, QueryError> {
        match &self.residency {
            Some(residency) => {
                let def = self.catalog_view_def(view)?;
                match residency.apply_view_write(
                    &self.executor,
                    &def,
                    ViewWrite::Upsert(row.clone()),
                )? {
                    MaintOutcome::Applied { touched } => Ok(touched as usize),
                    MaintOutcome::Deferred | MaintOutcome::Annihilated => Ok(0),
                }
            }
            None => {
                if insert {
                    self.executor.insert_row(&view.table_name(), row)?;
                } else {
                    self.executor.update_row(&view.table_name(), row)?;
                }
                Ok(1)
            }
        }
    }

    /// Removes one view row by key, routed through residency in partial
    /// mode (same annihilate/defer/apply rules as the upsert path).
    fn route_view_remove(&self, view: &ViewDefinition, key: &Row) -> Result<usize, QueryError> {
        match &self.residency {
            Some(residency) => {
                let def = self.catalog_view_def(view)?;
                match residency.apply_view_write(
                    &self.executor,
                    &def,
                    ViewWrite::Remove(key.clone()),
                )? {
                    MaintOutcome::Applied { touched } => Ok(touched as usize),
                    MaintOutcome::Deferred | MaintOutcome::Annihilated => Ok(0),
                }
            }
            None => Ok(self.executor.delete_row_by_key(&view.table_name(), key)? as usize),
        }
    }

    /// True when `view_row` should carry dirty markers: always in full
    /// materialization; only while its key is resident in partial mode
    /// (marking a cold key would create a marker-only remnant row outside
    /// residency accounting).
    fn marker_applies(&self, view: &ViewDefinition, view_row: &Row) -> Result<bool, QueryError> {
        let Some(residency) = &self.residency else {
            return Ok(true);
        };
        let def = self.catalog_view_def(view)?;
        Ok(residency.is_resident_for_row(&def, view_row))
    }

    // ------------------------------------------------------------------
    // Insert (§VII-A)
    // ------------------------------------------------------------------

    /// Applies a base-table insert to every applicable view (and the views'
    /// indexes, which the executor maintains automatically).  Returns the
    /// number of view rows written.
    pub fn apply_insert(&self, relation: &str, inserted: &Row) -> Result<usize, QueryError> {
        let mut written = 0;
        for view in self.views_for_insert(relation) {
            let plan = self.delta_plan(view)?;
            let deltas = [RowDelta::plus(inserted.unqualified())];
            let out = plan.propagate(&self.executor, relation, &deltas)?;
            self.stats
                .deltas_propagated
                .fetch_add(out.len() as u64, Ordering::Relaxed);
            for delta in out {
                debug_assert_eq!(delta.sign, DeltaSign::Plus);
                written += self.route_view_upsert(view, &delta.row, true)?;
            }
        }
        self.stats
            .view_rows_touched
            .fetch_add(written as u64, Ordering::Relaxed);
        Ok(written)
    }

    /// Constructs the view tuple of a row of the view's last relation, by
    /// walking the key/foreign-key chain upwards and reading one related
    /// tuple per ancestor relation (k−1 reads for a view of k relations).
    /// Returns `None` when an ancestor row is missing (foreign-key
    /// constraints are not enforced, §IV).  Crash recovery's roll-forward
    /// recomputes dirty view rows with it; inserts obtain the same tuple
    /// from the join probes of the view's delta plan.
    pub(crate) fn construct_insert_tuple(
        &self,
        view: &ViewDefinition,
        inserted: &Row,
    ) -> Result<Option<Row>, QueryError> {
        let mut combined = inserted.unqualified();
        let mut current = inserted.unqualified();
        // Walk edges from the last relation up to the first.
        for edge in view.edges.iter().rev() {
            // The child row (`current`) holds FK attributes referencing the
            // parent's PK; read the parent row by primary key.
            let mut parent_key = Row::new();
            for (pk_attr, fk_attr) in edge.pk.iter().zip(edge.fk.iter()) {
                match current.get(fk_attr) {
                    Some(value) if !value.is_null() => {
                        parent_key.set(pk_attr.clone(), value.clone());
                    }
                    _ => return Ok(None),
                }
            }
            let Some(parent) = self.executor.get_row_by_key(&edge.from, &parent_key)? else {
                return Ok(None);
            };
            for (attribute, value) in parent.iter() {
                if combined.get(attribute).is_none() {
                    combined.set(attribute, value.clone());
                }
            }
            current = parent;
        }
        Ok(Some(combined))
    }

    // ------------------------------------------------------------------
    // Delete (§VII-B)
    // ------------------------------------------------------------------

    /// Applies a base-table delete to every applicable view.  The view key
    /// equals the base key (the last relation's primary key), so no
    /// propagation is needed in either mode.  Returns the number of view
    /// rows removed.
    pub fn apply_delete(&self, relation: &str, base_key: &Row) -> Result<usize, QueryError> {
        let mut removed = 0;
        for view in self.views_for_delete(relation) {
            removed += self.route_view_remove(view, base_key)?;
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
    pub fn stage_update(
        &self,
        relation: &str,
        before: &Row,
        after: &Row,
    ) -> Result<Vec<StagedViewUpdate>, QueryError> {
        let mut staged = Vec::new();
        for view in self.views_for_update(relation) {
            let plan = self.delta_plan(view)?;
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
                let out = plan.propagate(&self.executor, relation, &deltas)?;
                self.stats
                    .deltas_propagated
                    .fetch_add(out.len() as u64, Ordering::Relaxed);
                let view_def = self
                    .executor
                    .catalog()
                    .table(&view.table_name())
                    .ok_or_else(|| QueryError::UnknownTable(view.table_name()))?;
                // BTreeMap: deterministic apply order (deterministic sim).
                let mut paired: std::collections::BTreeMap<String, (Option<Row>, Option<Row>)> =
                    std::collections::BTreeMap::new();
                for delta in out {
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
                let out = plan.propagate(&self.executor, relation, &deltas)?;
                self.stats
                    .deltas_propagated
                    .fetch_add(out.len() as u64, Ordering::Relaxed);
                update.rewrites.extend(out.into_iter().map(|d| d.row));
            }
            if update.touched() > 0 {
                staged.push(update);
            }
        }
        Ok(staged)
    }

    /// Marks every currently existing view row a staged update will touch
    /// as dirty (step 3 of the update transaction).  Rows the update
    /// *inserts* do not exist yet and are not marked (matching the insert
    /// procedure, which never marks).
    pub fn mark_staged(&self, staged: &[StagedViewUpdate]) -> Result<(), QueryError> {
        for update in staged {
            for row in update.rewrites.iter().chain(&update.removes) {
                if self.marker_applies(&update.view, row)? {
                    self.mark_dirty(&update.view, row)?;
                }
            }
        }
        Ok(())
    }

    /// Applies a staged update to the view tables (step 4: runs after the
    /// base write).  Removals go first, then in-place rewrites (the
    /// executor rewrites view-index entries from the stored before-image),
    /// then insertions.  Returns the number of view rows touched.
    pub fn apply_staged(&self, staged: &[StagedViewUpdate]) -> Result<usize, QueryError> {
        let mut touched = 0;
        for update in staged {
            if self.residency.is_some() {
                // Partial mode: every write routes through residency
                // (annihilate / defer / apply); rewrites and inserts are
                // both upserts there.
                for old in &update.removes {
                    touched += self.route_view_remove(&update.view, old)?;
                }
                for new in update.rewrites.iter().chain(&update.inserts) {
                    touched += self.route_view_upsert(&update.view, new, false)?;
                }
                continue;
            }
            let table = update.view.table_name();
            for old in &update.removes {
                self.executor.delete_row_by_key(&table, old)?;
                touched += 1;
            }
            for new in &update.rewrites {
                self.executor.update_row(&table, new)?;
                touched += 1;
            }
            for new in &update.inserts {
                self.executor.insert_row(&table, new)?;
                touched += 1;
            }
        }
        self.stats
            .view_rows_touched
            .fetch_add(touched as u64, Ordering::Relaxed);
        Ok(touched)
    }

    /// Clears the dirty markers a staged update set (step 5).  Removed rows
    /// are gone — unmarking them would resurrect a marker-only row — so
    /// only rewritten rows are unmarked.
    pub fn unmark_staged(&self, staged: &[StagedViewUpdate]) -> Result<(), QueryError> {
        for update in staged {
            for row in &update.rewrites {
                if self.marker_applies(&update.view, row)? {
                    self.unmark_dirty(&update.view, row)?;
                }
            }
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
    // Write batching
    // ------------------------------------------------------------------

    /// Buffers an insert for deferred propagation; flushes the batch when
    /// it reaches capacity.  Returns the number of view rows touched by a
    /// triggered flush (0 when the write was merely buffered).
    pub fn enqueue_insert(&self, relation: &str, row: &Row) -> Result<usize, QueryError> {
        if ids_for(&self.by_last, relation).is_empty() {
            return Ok(0);
        }
        self.enqueue(relation, row, PendingWrite::Insert(row.unqualified()))
    }

    /// Buffers a delete (`before` is the deleted row's image).
    pub fn enqueue_delete(&self, relation: &str, before: &Row) -> Result<usize, QueryError> {
        if ids_for(&self.by_last, relation).is_empty() {
            return Ok(0);
        }
        self.enqueue(relation, before, PendingWrite::Delete(before.unqualified()))
    }

    /// Buffers an update (both images).
    pub fn enqueue_update(
        &self,
        relation: &str,
        before: &Row,
        after: &Row,
    ) -> Result<usize, QueryError> {
        if ids_for(&self.by_member, relation).is_empty() {
            return Ok(0);
        }
        self.enqueue(
            relation,
            after,
            PendingWrite::Update {
                before: before.unqualified(),
                after: after.unqualified(),
            },
        )
    }

    fn enqueue(
        &self,
        relation: &str,
        keyed_by: &Row,
        write: PendingWrite,
    ) -> Result<usize, QueryError> {
        let def = self
            .executor
            .catalog()
            .table_ci(relation)
            .ok_or_else(|| QueryError::UnknownTable(relation.to_string()))?;
        let key = def.encode_row_key(keyed_by);
        let relation = def.name.clone();
        let full = {
            let mut buffer = self.buffer.lock().unwrap_or_else(PoisonError::into_inner);
            buffer.record(&relation, key, write);
            buffer.is_full()
        };
        if full {
            self.flush()
        } else {
            Ok(0)
        }
    }

    /// Discards every write still coalescing in the batch without
    /// propagating it.  Run by crash recovery: buffered deltas describe
    /// base writes that may not have survived the crash, so propagating
    /// them would corrupt the recovered views — the views are instead
    /// consistent with the replayed base tables already.  Returns the
    /// number of pending writes dropped.
    pub fn discard_pending(&self) -> usize {
        self.buffer.lock().unwrap_or_else(PoisonError::into_inner).drain().len()
    }

    /// Propagates every buffered (coalesced) write, in arrival order, with
    /// the same mark → apply → unmark discipline per update.  Returns the
    /// number of view rows touched.
    pub fn flush(&self) -> Result<usize, QueryError> {
        let drained = self.buffer.lock().unwrap_or_else(PoisonError::into_inner).drain();
        if drained.is_empty() {
            return Ok(0);
        }
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        let mut touched = 0;
        for (relation, write) in drained {
            match write {
                PendingWrite::Insert(row) => {
                    touched += self.apply_insert(&relation, &row)?;
                }
                PendingWrite::Delete(before) => {
                    touched += self.apply_delete(&relation, &before)?;
                }
                PendingWrite::Update { before, after } => {
                    let staged = self.stage_update(&relation, &before, &after)?;
                    self.mark_staged(&staged)?;
                    touched += self.apply_staged(&staged)?;
                    self.unmark_staged(&staged)?;
                }
            }
        }
        Ok(touched)
    }

    // ------------------------------------------------------------------
    // Dirty markers (§VIII-B)
    // ------------------------------------------------------------------

    /// Marks a view row dirty (step 3 of the update transaction, §VIII-B).
    pub fn mark_dirty(&self, view: &ViewDefinition, view_row: &Row) -> Result<(), QueryError> {
        self.set_marker(view, view_row, "1")
    }

    /// Clears the dirty marker (step 5 of the update transaction).
    pub fn unmark_dirty(&self, view: &ViewDefinition, view_row: &Row) -> Result<(), QueryError> {
        self.set_marker(view, view_row, "0")
    }

    fn set_marker(
        &self,
        view: &ViewDefinition,
        view_row: &Row,
        value: &str,
    ) -> Result<(), QueryError> {
        let view_table = view.table_name();
        let def = self
            .executor
            .catalog()
            .table(&view_table)
            .ok_or_else(|| QueryError::UnknownTable(view_table.clone()))?;
        let key = def.encode_row_key(view_row);
        self.executor.cluster().put(
            &view_table,
            Put::new(key).with(FAMILY, DIRTY_MARKER, value),
        )?;
        Ok(())
    }
}

fn push_id(index: &mut Vec<(String, Vec<usize>)>, relation: &str, id: usize) {
    match index
        .iter_mut()
        .find(|(r, _)| r.eq_ignore_ascii_case(relation))
    {
        Some((_, ids)) => {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        None => index.push((relation.to_string(), vec![id])),
    }
}

fn ids_for<'a>(index: &'a [(String, Vec<usize>)], relation: &str) -> &'a [usize] {
    index
        .iter()
        .find(|(r, _)| r.eq_ignore_ascii_case(relation))
        .map(|(_, ids)| ids.as_slice())
        .unwrap_or(&[])
}
