//! **Partial view materialization** (the Noria model): residency tracking,
//! demand-fill bookkeeping and cold-key eviction for memory-bounded views.
//!
//! With a byte budget configured ([`crate::SynergyConfig::with_view_budget`])
//! views start empty and fill on demand: a read routed to a view first
//! consults the [`ViewResidency`] map; on a miss the system issues an
//! **upquery** — the view's defining join, parameterized on the missing key
//! range and run as a view-free plan of the system's one session (same plan
//! cache as every read, the rewrite rule skipped for that lookup) — and
//! installs the result here as resident rows.  Eviction keeps total
//! resident view bytes under the budget with a CLOCK/second-chance sweep
//! over view keys; evicting a key clears its residency and then deletes its
//! view rows through the charged write path — a key is absent or complete,
//! also when a delete fails.  The maintenance engine consults the
//! same map so deltas targeting non-resident keys are **annihilated**
//! (dropped) instead of maintained — write traffic on cold keys does zero
//! view work.
//!
//! The unit of residency is the encoded **leading key attribute** of a
//! view: for `V_Customer__Orders` (key `o_id`) one entry is one view row,
//! for `V_Customer__Orders__Order_line` (key `ol_o_id, ol_id`) one entry is
//! the whole order-line group of one order — exactly the slice one upquery
//! recomputes.  A key with zero matching rows is still installed (negative
//! caching), so repeated reads of an absent key stay hits.
//!
//! Concurrency model: one global mutex guards the residency map, and every
//! view-side store write in partial mode (install, evict, delta apply,
//! dirty marker) happens under it, so the store contents and the map never
//! disagree.
//! Readers take a **pin** on each entry they depend on for the duration of
//! the rewritten query; pinned entries are exempt from eviction, so a scan
//! can never observe a half-deleted key.  A key being filled is in the
//! `Filling` state: concurrent readers spin until it becomes resident, and
//! maintenance deltas arriving mid-fill are queued and replayed (deferred)
//! on top of the installed upquery result, which is safe because every
//! delta write is a state overwrite (upsert / delete by key).

use query::{Executor, QueryError, RowWrite, TableDef};
use relational::{Row, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The outcome of a residency probe for one view key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The key is resident; a pin was taken — release it with
    /// [`ViewResidency::unpin`] after the read completes.
    Hit,
    /// The key was absent; a `Filling` placeholder is now registered and
    /// the caller owns the fill — it must call
    /// [`ViewResidency::complete_fill`] or [`ViewResidency::abort_fill`].
    Fill,
    /// Another caller is filling this key; retry the probe shortly.
    Wait,
}

/// Per-key residency entry.
#[derive(Debug)]
struct Entry {
    /// Resident view rows of the key: encoded row key → (key attributes,
    /// estimated resident bytes).  Empty while filling, and for resident
    /// keys with no matching rows (negative caching).
    rows: BTreeMap<String, (Row, u64)>,
    /// CLOCK reference bit: set on every hit, cleared by a sweep pass.
    referenced: bool,
    /// Readers currently depending on this key; pinned entries are exempt
    /// from eviction.
    pins: u32,
    /// Deltas that arrived while the key was being filled, replayed after
    /// install; `None` once resident.
    filling: Option<Vec<RowWrite>>,
}

impl Entry {
    fn bytes(&self) -> u64 {
        self.rows.values().map(|(_, b)| *b).sum()
    }
}

#[derive(Debug, Default)]
struct ResidencyState {
    /// view table → encoded leading-key prefix → entry.
    views: BTreeMap<String, BTreeMap<String, Entry>>,
    /// CLOCK ring of `(view table, prefix)`; stale pairs (already evicted
    /// through another path) are dropped lazily as the hand meets them.
    ring: Vec<(String, String)>,
    /// CLOCK hand: index into `ring` of the next sweep candidate.
    hand: usize,
    /// Total resident view bytes across all views.
    total_bytes: u64,
    /// Total resident view rows across all views.
    total_rows: u64,
}

/// Counters and residency totals of one [`ViewResidency`] (see
/// [`ViewResidency::snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidencySnapshot {
    /// Resident view bytes (estimated, same model as table sizing).
    pub resident_bytes: u64,
    /// Resident view rows.
    pub resident_rows: u64,
    /// Resident view keys (residency entries).
    pub resident_keys: u64,
    /// Reads that found every view key resident.
    pub hits: u64,
    /// Reads that missed at least one view key.
    pub misses: u64,
    /// Upqueries issued (one per missing key).
    pub upqueries: u64,
    /// Keys evicted by the CLOCK sweep.
    pub evicted_keys: u64,
    /// View rows deleted by eviction.
    pub evicted_rows: u64,
    /// Maintenance deltas dropped because their key was not resident.
    pub annihilated: u64,
    /// Maintenance deltas queued mid-fill and replayed after install.
    pub deferred: u64,
    /// View-routed reads that bypassed the partial path (no key binding).
    pub bypasses: u64,
}

/// The partial-materialization residency map of one Synergy deployment
/// (see the module docs for the model).
#[derive(Debug)]
pub struct ViewResidency {
    /// Total resident-byte budget across all views (`u64::MAX` = bounded
    /// only by demand).
    budget: u64,
    state: Mutex<ResidencyState>,
    hits: AtomicU64,
    misses: AtomicU64,
    upqueries: AtomicU64,
    evicted_keys: AtomicU64,
    evicted_rows: AtomicU64,
    annihilated: AtomicU64,
    deferred: AtomicU64,
    bypasses: AtomicU64,
}

impl ViewResidency {
    /// Creates an empty residency map with the given byte budget.
    pub fn new(budget: u64) -> Self {
        ViewResidency {
            budget,
            state: Mutex::new(ResidencyState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            upqueries: AtomicU64::new(0),
            evicted_keys: AtomicU64::new(0),
            evicted_rows: AtomicU64::new(0),
            annihilated: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// The configured resident-byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The encoded leading-key prefix of `row` under `view_def` — the
    /// residency unit (see module docs).
    pub fn prefix_of(view_def: &TableDef, row: &Row) -> String {
        view_def.encode_key_prefix(row, 1)
    }

    /// The residency prefix for one bound leading-key value.
    pub fn prefix_of_value(value: &Value) -> String {
        relational::encode_key([value])
    }

    /// Probes residency of `prefix` in `view_table` (see [`Lookup`]).
    pub fn lookup(&self, view_table: &str, prefix: &str) -> Lookup {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match state.views.get_mut(view_table).and_then(|v| v.get_mut(prefix)) {
            Some(entry) if entry.filling.is_some() => Lookup::Wait,
            Some(entry) => {
                entry.referenced = true;
                entry.pins += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit
            }
            None => {
                state.views.entry(view_table.to_string()).or_default().insert(
                    prefix.to_string(),
                    Entry {
                        rows: BTreeMap::new(),
                        referenced: true,
                        pins: 0,
                        filling: Some(Vec::new()),
                    },
                );
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.upqueries.fetch_add(1, Ordering::Relaxed);
                Lookup::Fill
            }
        }
    }

    /// Installs the upquery result for a key this caller is filling, then
    /// replays any deltas deferred mid-fill (they are newer than the
    /// upquery's snapshot, so they win), marks the key resident with one
    /// pin held for the caller, and sweeps eviction if the install pushed
    /// residency over budget.
    pub fn complete_fill(
        &self,
        executor: &Executor,
        view_def: &TableDef,
        prefix: &str,
        rows: &[Row],
    ) -> Result<(), QueryError> {
        let view_table = view_def.name.as_str();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Install the recomputed rows through the charged write path.
        for row in rows {
            if let Err(e) = executor.insert_row(view_table, row) {
                drop_entry(&mut state, view_table, prefix);
                return Err(e);
            }
        }
        let entry = state
            .views
            .get_mut(view_table)
            .and_then(|v| v.get_mut(prefix))
            // lint-allow(panic-freedom): entry inserted as Filling by begin_fill above
            .expect("filling entry present");
        for row in rows {
            let key = view_def.encode_row_key(row);
            let bytes = view_def.estimate_row_bytes(row) as u64;
            entry.rows.insert(key, (key_row(view_def, row), bytes));
        }
        let deferred = entry.filling.take().unwrap_or_default();
        entry.pins += 1;
        let mut touched_totals = (entry.rows.len() as u64, entry.bytes());
        for write in deferred {
            let entry = state
                .views
                .get_mut(view_table)
                .and_then(|v| v.get_mut(prefix))
                // lint-allow(panic-freedom): entry made resident earlier in this locked section
                .expect("resident entry present");
            if let Err(e) = apply_write_to_entry(executor, view_def, entry, write) {
                // Short of a delta newer than its fill, the key is not
                // complete: absent again (and not yet accounted).
                drop_entry(&mut state, view_table, prefix);
                return Err(e);
            }
            touched_totals = (entry.rows.len() as u64, entry.bytes());
        }
        state.total_rows += touched_totals.0;
        state.total_bytes += touched_totals.1;
        state.ring.push((view_table.to_string(), prefix.to_string()));
        let swept = self.evict_to_budget(&mut state, executor);
        if swept.is_err() {
            // The caller is handed the error, not the pin.
            if let Some(entry) = state.views.get_mut(view_table).and_then(|v| v.get_mut(prefix)) {
                entry.pins -= 1;
            }
        }
        swept
    }

    /// Abandons a fill this caller started (upquery failed): the
    /// placeholder is removed and its deferred deltas are dropped as
    /// annihilated (their key ends up non-resident).
    pub fn abort_fill(&self, view_table: &str, prefix: &str) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = state.views.get_mut(view_table).and_then(|v| v.remove(prefix)) {
            let dropped = entry.filling.map(|d| d.len() as u64).unwrap_or(0);
            self.annihilated.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Releases one reader pin taken by a [`Lookup::Hit`] probe or a
    /// completed fill.
    pub fn unpin(&self, view_table: &str, prefix: &str) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = state.views.get_mut(view_table).and_then(|v| v.get_mut(prefix)) {
            entry.pins = entry.pins.saturating_sub(1);
        }
    }

    /// Reader pins currently held, summed over every entry (0 between
    /// reads: step 2's guard drops them on every way out).
    // lint-allow(reachability): read_pipeline_contract and fault_truthfulness check no read leaks a pin; no other API exposes the count
    pub fn pins_held(&self) -> u32 {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.views.values().flat_map(|v| v.values()).map(|e| e.pins).sum()
    }

    /// Routes a batch of maintenance writes to one view under one lock: a
    /// write whose key is resident is applied, one whose key is mid-fill is
    /// queued, and one whose key is absent is dropped (annihilated).  The
    /// applied writes go to the store as one [`Executor::write_rows`], and
    /// eviction sweeps once afterwards if they grew residency.  Returns the
    /// view rows touched.  When the store write fails, every key it wrote
    /// to is made absent.
    pub fn apply_view_writes(
        &self,
        executor: &Executor,
        view_def: &TableDef,
        writes: Vec<RowWrite>,
    ) -> Result<usize, QueryError> {
        let view_table = view_def.name.as_str();
        let prefix = |write: &RowWrite| match write {
            RowWrite::Upsert(row) | RowWrite::Remove(row) => Self::prefix_of(view_def, row),
        };
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut applied = Vec::with_capacity(writes.len());
        for write in writes {
            match state.views.get_mut(view_table).and_then(|v| v.get_mut(&prefix(&write))) {
                None => _ = self.annihilated.fetch_add(1, Ordering::Relaxed),
                Some(Entry { filling: Some(pending), .. }) => {
                    pending.push(write);
                    self.deferred.fetch_add(1, Ordering::Relaxed);
                }
                Some(_) => applied.push(write),
            }
        }
        if applied.is_empty() {
            return Ok(0);
        }
        let touched = match executor.write_rows(view_table, &applied) {
            Ok(touched) => touched,
            Err(e) => {
                // The store may hold part of the batch (a later index batch
                // failed): its keys become absent, rewritten by their next
                // fill, never resident short of a stored row.
                for write in &applied {
                    let views = state.views.get_mut(view_table);
                    if let Some(entry) = views.and_then(|v| v.remove(&prefix(write))) {
                        state.total_rows -= entry.rows.len() as u64;
                        state.total_bytes -= entry.bytes();
                    }
                }
                return Err(e);
            }
        };
        let bytes_before = state.total_bytes;
        for write in &applied {
            let Some(entry) = state.views.get_mut(view_table).and_then(|v| v.get_mut(&prefix(write)))
            else {
                continue;
            };
            let (rows, bytes) = (entry.rows.len() as u64, entry.bytes());
            account_write(view_def, entry, write);
            let (rows_after, bytes_after) = (entry.rows.len() as u64, entry.bytes());
            state.total_rows = state.total_rows + rows_after - rows;
            state.total_bytes = state.total_bytes + bytes_after - bytes;
        }
        if state.total_bytes > bytes_before {
            self.evict_to_budget(&mut state, executor)?;
        }
        Ok(touched)
    }

    /// Runs `write` on those of `rows` whose keys are resident (not
    /// filling), under the residency lock — gates dirty marking: marking a
    /// non-resident key would create a marker-only remnant row outside
    /// residency accounting, so no eviction may land between the check and
    /// the write.
    pub fn write_resident<'r, T>(
        &self,
        view_def: &TableDef,
        rows: impl IntoIterator<Item = &'r Row>,
        write: impl FnOnce(Vec<&'r Row>) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let view = state.views.get(view_def.name.as_str());
        let resident = |row: &&Row| {
            let prefix = Self::prefix_of(view_def, row);
            view.and_then(|v| v.get(&prefix)).is_some_and(|e| e.filling.is_none())
        };
        write(rows.into_iter().filter(resident).collect())
    }

    /// Counts one view-routed read that bypassed the partial path (the
    /// statement binds no leading-key value, so it runs baseline).
    pub fn count_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops all residency state (recovery: the store-side view rows are
    /// wiped separately, so the cache restarts cold).  Counters persist.
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = ResidencyState::default();
    }

    /// Current totals and counters.
    pub fn snapshot(&self) -> ResidencySnapshot {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        ResidencySnapshot {
            resident_bytes: state.total_bytes,
            resident_rows: state.total_rows,
            resident_keys: state.views.values().map(|v| v.len() as u64).sum(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            upqueries: self.upqueries.load(Ordering::Relaxed),
            evicted_keys: self.evicted_keys.load(Ordering::Relaxed),
            evicted_rows: self.evicted_rows.load(Ordering::Relaxed),
            annihilated: self.annihilated.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }

    /// CLOCK/second-chance sweep: while residency exceeds the budget, the
    /// hand walks the ring; referenced entries lose their bit and get a
    /// second chance, pinned or filling entries are skipped, and anything
    /// else is evicted — its view rows deleted through the charged write
    /// path and its residency cleared.  Bails out after two full laps
    /// without an eviction (everything pinned), leaving residency
    /// transiently over budget rather than spinning.
    fn evict_to_budget(
        &self,
        state: &mut ResidencyState,
        executor: &Executor,
    ) -> Result<(), QueryError> {
        let mut fruitless = 0usize;
        while state.total_bytes > self.budget && !state.ring.is_empty() {
            if fruitless > 2 * state.ring.len() {
                break;
            }
            if state.hand >= state.ring.len() {
                state.hand = 0;
            }
            let (view_table, prefix) = state.ring[state.hand].clone();
            let Some(entry) = state.views.get_mut(&view_table).and_then(|v| v.get_mut(&prefix))
            else {
                // Stale ring slot (key already gone); drop it in place.
                state.ring.remove(state.hand);
                continue;
            };
            if entry.pins > 0 || entry.filling.is_some() {
                fruitless += 1;
                state.hand += 1;
                continue;
            }
            if entry.referenced {
                entry.referenced = false;
                fruitless += 1;
                state.hand += 1;
                continue;
            }
            // Evict: clear the key's residency, then delete its view rows
            // (charged, index-correct).  In that order, so a delete that
            // fails leaves an absent key — its leftover rows rewritten by
            // the next fill — never a resident key short of the rows
            // already deleted.
            let rows = entry.rows.len() as u64;
            state.total_rows -= rows;
            state.total_bytes -= entry.bytes();
            state.ring.remove(state.hand);
            self.evicted_keys.fetch_add(1, Ordering::Relaxed);
            self.evicted_rows.fetch_add(rows, Ordering::Relaxed);
            fruitless = 0;
            let evicted = state.views.get_mut(&view_table).and_then(|v| v.remove(&prefix));
            for (key_attrs, _) in evicted.iter().flat_map(|entry| entry.rows.values()) {
                executor.delete_row_by_key(&view_table, key_attrs)?;
            }
        }
        Ok(())
    }
}

/// The key-attribute projection of a view row (what a later keyed delete
/// needs).
fn key_row(view_def: &TableDef, row: &Row) -> Row {
    Row::from_pairs(
        view_def
            .key
            .iter()
            .map(|k| (k.as_str(), row.get(k).cloned().unwrap_or(Value::Null))),
    )
}

/// Applies one delta write to a resident entry's store rows and byte map.
fn apply_write_to_entry(
    executor: &Executor,
    view_def: &TableDef,
    entry: &mut Entry,
    write: RowWrite,
) -> Result<(), QueryError> {
    executor.write_rows(&view_def.name, std::slice::from_ref(&write))?;
    account_write(view_def, entry, &write);
    Ok(())
}

/// Records one stored write in a resident entry's byte map.
fn account_write(view_def: &TableDef, entry: &mut Entry, write: &RowWrite) {
    match write {
        RowWrite::Upsert(row) => {
            let key = view_def.encode_row_key(row);
            let bytes = view_def.estimate_row_bytes(row) as u64;
            entry.rows.insert(key, (key_row(view_def, row), bytes));
        }
        RowWrite::Remove(row) => {
            entry.rows.remove(&view_def.encode_row_key(row));
        }
    }
}

/// Removes a (failed) entry without touching totals — used when an install
/// errors before the entry was accounted.
fn drop_entry(state: &mut ResidencyState, view_table: &str, prefix: &str) {
    if let Some(views) = state.views.get_mut(view_table) {
        views.remove(prefix);
    }
}
