//! The `verify` phase's checks on stored state, outside every timed section.
//! (The Synergy-vs-join comparison runs in the count pass, the span
//! arithmetic in the traced pass.)  A failed check is a note; any note fails
//! the run.

use crate::deploy::{region_servers, ORDER_WAL_SYNC_INTERVAL};
use crate::metrics::{set, Values};
use nosql_store::ops::Scan;
use relational::Row;
use std::collections::BTreeMap;
use std::time::Instant;
use synergy::{SynergySystem, ViewDefinition};

/// One row in canonical text: its sorted `column=value` pairs.
fn canonical(row: &Row) -> String {
    let mut cells: Vec<String> = row
        .iter()
        .map(|(k, v)| format!("{k}={}", v.encode()))
        .collect();
    cells.sort_unstable();
    cells.join("\u{1}")
}

/// Rows grouped by the value of the table's leading key column — the unit
/// of residency under a view budget.
fn by_leading_key(rows: &[Row], lead: &str) -> BTreeMap<String, Vec<String>> {
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for row in rows {
        let key = row.get(lead).map(|v| v.encode()).unwrap_or_default();
        groups.entry(key).or_default().push(canonical(row));
    }
    groups.values_mut().for_each(|g| g.sort_unstable());
    groups
}

/// At quiescence a view's table holds no dirty row and equals its defining
/// join recomputed from the base tables; under a view budget, every key it
/// holds does.
fn check_view(system: &SynergySystem, view: &ViewDefinition) -> Result<(), String> {
    let table = view.table_name();
    let def = system
        .catalog()
        .table(&table)
        .ok_or(format!("{table} is not in the catalog"))?;
    let lead = &def.key[0];
    let expected = system
        .recompute_view_rows(view)
        .map_err(|e| format!("{table}: {e}"))?;
    let stored = system
        .cluster()
        .scan(&table, Scan::all())
        .map_err(|e| format!("{table}: {e}"))?;
    let is_dirty = |row: &&nosql_store::ResultRow| {
        row.value(query::FAMILY, query::DIRTY_MARKER) == Some(b"1".as_slice())
    };
    let dirty = stored.iter().filter(is_dirty).count();
    if dirty > 0 {
        return Err(format!("{dirty} dirty rows in {table}"));
    }
    let stored: Vec<Row> = stored.iter().map(|row| def.decode_row(row)).collect();
    let expected = by_leading_key(&expected, lead);
    let stored = by_leading_key(&stored, lead);
    if system.residency().is_none() && stored.len() != expected.len() {
        return Err(format!(
            "{table} holds {} keys, its defining join {}",
            stored.len(),
            expected.len()
        ));
    }
    for (key, rows) in &stored {
        if expected.get(key) != Some(rows) {
            return Err(format!("{table} key {key} differs from its defining join"));
        }
    }
    Ok(())
}

pub(crate) fn check_views(system: &SynergySystem, when: &str, notes: &mut Vec<String>) {
    if let Err(e) = system.flush_maintenance() {
        notes.push(format!("{when}: flush_maintenance: {e}"));
    }
    for view in &system.selection().views {
        if let Err(e) = check_view(system, view) {
            notes.push(format!("{when}: {e}"));
        }
    }
}

/// `tpcw_order` only: every write that reached a synced log survives a
/// crash, and after recovery no view row is dirty and the views equal their
/// joins again.
///
/// The logs are synced first.  Group commit syncs each server's log on its
/// own, so a crash that drops the unsynced tails can keep a transaction's
/// base row and lose its view row (observed on most seeds); what the system
/// promises, and this checks, is the acked-and-synced state.
pub(crate) fn check_crash_recovery(
    system: &SynergySystem,
    v: &mut Values,
    notes: &mut Vec<String>,
) {
    let cluster = system.cluster();
    let unsynced: usize = (0..region_servers()).map(|s| cluster.wal(s).sync()).sum();
    if unsynced > ORDER_WAL_SYNC_INTERVAL * region_servers() {
        notes.push(format!(
            "{unsynced} unsynced WAL records at quiescence exceed the group-commit tail"
        ));
    }
    let rows_before = cluster.metrics().total_rows();
    let start = Instant::now();
    let lost = cluster.crash().total();
    if let Err(e) = system.recover() {
        notes.push(format!("recover: {e}"));
        return;
    }
    set(v, "store.recover_s", start.elapsed().as_secs_f64());
    set(v, "store.recover_lost_records", lost as f64);
    if lost > 0 {
        notes.push(format!("the crash lost {lost} synced WAL records"));
    }
    let rows_after = cluster.metrics().total_rows();
    if rows_after != rows_before {
        notes.push(format!(
            "{rows_before} stored rows before the crash, {rows_after} after recovery"
        ));
    }
    check_views(system, "after recovery", notes);
}
