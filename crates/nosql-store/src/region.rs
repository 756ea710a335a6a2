//! Regions: contiguous row-key ranges of a table.
//!
//! Like HBase, every table is horizontally partitioned into regions, each
//! responsible for a half-open key range `[start, end)`.  A region applies
//! single-row operations atomically (the caller holds the region lock for
//! the duration of the operation), which is the atomicity unit the paper's
//! concurrency analysis starts from.

use crate::cell::{Bytes, Cell, Timestamp, Val};
use crate::error::{StoreError, StoreResult};
use crate::intern::position_from;
use crate::ops::{Delete, DeleteScope, Expectation, Filter, Get, Increment, Put, Scan};
use crate::table::{ColKey, ResultRow, RowData, TableSchema};
use crate::wal::WalOp;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Identifier of a region within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

/// Identifier of a simulated region server (cluster node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionServerId(pub usize);

/// One contiguous key range of one table.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region identifier.
    pub id: RegionId,
    /// Hosting region server.
    pub server: RegionServerId,
    /// Inclusive start key (empty = unbounded).
    pub start: Bytes,
    /// Exclusive end key (empty = unbounded).
    pub end: Bytes,
    rows: BTreeMap<Bytes, RowData>,
    bytes: usize,
}

impl Region {
    /// Creates an empty region covering `[start, end)`.
    pub fn new(id: RegionId, server: RegionServerId, start: Bytes, end: Bytes) -> Self {
        Region {
            id,
            server,
            start,
            end,
            rows: BTreeMap::new(),
            bytes: 0,
        }
    }

    /// True if `key` falls inside this region's range.
    pub fn contains(&self, key: &[u8]) -> bool {
        (self.start.is_empty() || key >= self.start.as_slice())
            && (self.end.is_empty() || key < self.end.as_slice())
    }

    /// Number of rows currently stored.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Approximate stored bytes (cells + row keys).
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Drops every stored row (a crashed server losing its memstore).  The
    /// region keeps its identity and key range; recovery repopulates it from
    /// the durable checkpoint + synced WAL.
    pub(crate) fn clear_rows(&mut self) {
        self.rows.clear();
        self.bytes = 0;
    }

    /// Read access to the stored rows (checkpoint snapshots during
    /// recovery).
    pub(crate) fn rows(&self) -> &BTreeMap<Bytes, RowData> {
        &self.rows
    }

    /// Inserts a fully-formed row (restoring a checkpoint snapshot during
    /// recovery), replacing any existing row under the key.  Byte accounting
    /// is deferred: callers run [`Region::recompute_bytes`] once the rebuild
    /// is complete.
    pub(crate) fn insert_row(&mut self, key: Bytes, row: RowData) {
        self.rows.insert(key, row);
    }

    /// Recomputes the byte accounting from scratch (after recovery rebuilt
    /// rows wholesale).
    pub(crate) fn recompute_bytes(&mut self) {
        self.bytes = self
            .rows
            .iter()
            .map(|(k, r)| r.heap_size(k.len()))
            .sum();
    }

    /// Applies one logged mutation at the timestamp it carries.  This is the
    /// single point where a [`WalOp`] meets region state: the live write
    /// path applies the record it is about to log through here and recovery
    /// replays synced records through here, so the two cannot drift apart.
    /// Returns the mutation's scalar outcome — cells written (put), `1` if
    /// any data was removed (delete), the new counter value (increment);
    /// logical records touch nothing.
    pub(crate) fn apply_op(&mut self, schema: &TableSchema, op: &WalOp) -> StoreResult<i64> {
        match op {
            WalOp::Put { row, cells, timestamp } => {
                self.put_cells(schema, row, cells, *timestamp).map(|n| n as i64)
            }
            WalOp::Delete { row, scope, .. } => Ok(i64::from(self.delete_scope(row, scope))),
            WalOp::Increment { row, family, qualifier, amount, timestamp } => {
                self.increment_cell(schema, row, family, qualifier, *amount, *timestamp)
            }
            WalOp::Logical { .. } => Ok(0),
        }
    }

    /// Applies a [`Put`]; returns the number of cells written.
    pub fn put(&mut self, schema: &TableSchema, put: &Put, ts: Timestamp) -> StoreResult<usize> {
        self.put_cells(schema, &put.row, &put.cells, put.timestamp.unwrap_or(ts))
    }

    /// Writes `cells` to `row` at version `ts`.
    ///
    /// Byte accounting is incremental: each written cell adjusts the
    /// region's size by its own footprint (or by the value-length delta when
    /// it replaces an existing version) instead of re-walking — and
    /// re-materializing the column names of — the whole row per mutation.
    fn put_cells(
        &mut self,
        schema: &TableSchema,
        row: &[u8],
        cells: &[(String, String, Bytes)],
        ts: Timestamp,
    ) -> StoreResult<usize> {
        check_cells(schema, cells)?;
        let key_len = row.len();
        let delta = self.with_row(row, cells.len(), |stored| {
            let mut delta = 0isize;
            for (family, qualifier, value) in cells {
                let col = ColKey::new(family, qualifier);
                delta += match stored.put(col, ts, Val::from(&value[..])) {
                    Some(old_len) => value.len() as isize - old_len as isize,
                    None => (col.cell_heap_size(value.len()) + key_len) as isize,
                };
            }
            delta
        });
        self.bytes = (self.bytes as isize + delta) as usize;
        Ok(cells.len())
    }

    /// Runs `apply` on the row stored under `key`, or on a new empty row
    /// (sized for `columns` columns, so a row written by one put is one
    /// exact allocation) that is stored afterwards if `apply` put anything
    /// in it.  Looking up before inserting means a write to an existing row
    /// copies no key.
    fn with_row<T>(
        &mut self,
        key: &[u8],
        columns: usize,
        apply: impl FnOnce(&mut RowData) -> T,
    ) -> T {
        if let Some(row) = self.rows.get_mut(key) {
            return apply(row);
        }
        let mut row = RowData::with_capacity(columns);
        let out = apply(&mut row);
        if !row.is_empty() {
            self.rows.insert(key.to_vec(), row);
        }
        out
    }

    /// Applies a [`Delete`]; returns `true` if any data was removed.
    pub fn delete(&mut self, delete: &Delete) -> StoreResult<bool> {
        Ok(self.delete_scope(&delete.row, &delete.scope))
    }

    fn delete_scope(&mut self, row_key: &[u8], scope: &DeleteScope) -> bool {
        let key_len = row_key.len();
        let mut freed = 0usize;
        let removed = match scope {
            DeleteScope::Row => match self.rows.remove(row_key) {
                Some(row) => {
                    freed = row.heap_size(key_len);
                    true
                }
                None => false,
            },
            DeleteScope::Columns(columns) => {
                let mut removed = false;
                if let Some(row) = self.rows.get_mut(row_key) {
                    for (family, qualifier) in columns {
                        let Some(col) = ColKey::lookup(family, qualifier) else {
                            continue; // names never seen → column cannot exist
                        };
                        if let Some(column) = row.remove(col) {
                            freed += column.heap_size(key_len);
                            removed = true;
                        }
                    }
                    if row.is_empty() {
                        self.rows.remove(row_key);
                    }
                }
                removed
            }
        };
        self.bytes -= freed;
        removed
    }

    /// Applies an [`Increment`]; returns the new counter value.
    pub fn increment(
        &mut self,
        schema: &TableSchema,
        inc: &Increment,
        ts: Timestamp,
    ) -> StoreResult<i64> {
        self.increment_cell(schema, &inc.row, &inc.family, &inc.qualifier, inc.amount, ts)
    }

    fn increment_cell(
        &mut self,
        schema: &TableSchema,
        row_key: &[u8],
        family: &str,
        qualifier: &str,
        amount: i64,
        ts: Timestamp,
    ) -> StoreResult<i64> {
        if !schema.has_family(family) {
            return Err(StoreError::UnknownColumnFamily {
                table: schema.name.clone(),
                family: family.to_string(),
            });
        }
        let col = ColKey::new(family, qualifier);
        let cell_size = col.cell_heap_size(8) + row_key.len();
        let (next, delta) = self.with_row(row_key, 1, |row| {
            let current = match row.column(col) {
                Some(column) => {
                    let bytes: [u8; 8] = column.value[..].try_into().map_err(|_| {
                        StoreError::NotACounter {
                            row: String::from_utf8_lossy(row_key).into_owned(),
                            qualifier: qualifier.to_string(),
                        }
                    })?;
                    i64::from_be_bytes(bytes)
                }
                None => 0,
            };
            let next = current + amount;
            let delta = match row.put(col, ts, Val::from(&next.to_be_bytes()[..])) {
                Some(old_len) => 8isize - old_len as isize,
                None => cell_size as isize,
            };
            Ok((next, delta))
        })?;
        self.bytes = (self.bytes as isize + delta) as usize;
        Ok(next)
    }

    /// Applies a [`crate::ops::CheckAndPut`]; returns whether the put was applied.
    pub fn check_and_put(
        &mut self,
        schema: &TableSchema,
        family: &str,
        qualifier: &str,
        expect: &Expectation,
        put: &Put,
        ts: Timestamp,
    ) -> StoreResult<bool> {
        let matches = self.matches(&put.row, family, qualifier, expect);
        if matches {
            self.put(schema, put, ts)?;
        }
        Ok(matches)
    }

    /// The check half of a check-and-put: does the newest version of
    /// `row`'s `family:qualifier` cell meet `expect`?
    pub(crate) fn matches(
        &self,
        row: &[u8],
        family: &str,
        qualifier: &str,
        expect: &Expectation,
    ) -> bool {
        let current = self
            .rows
            .get(row)
            .and_then(|row| row.column(ColKey::lookup(family, qualifier)?))
            .map(|column| &column.value);
        match (expect, current) {
            (Expectation::Absent, None) => true,
            (Expectation::Absent, Some(_)) => false,
            (Expectation::Equals(expected), Some(actual)) => expected[..] == actual[..],
            (Expectation::Equals(_), None) => false,
        }
    }

    /// Resolves a `(family, qualifier)` projection to interned column keys
    /// once per call site, sorted like a row's columns so the per-row walk
    /// finds each column by pointer compares at the position it expects
    /// ([`position_from`]).  `None` = no projection.  Names never interned
    /// cannot match any stored column and are dropped (an all-unknown
    /// projection still projects to nothing, it does not fall back to
    /// "everything").
    pub(crate) fn resolve_projection(columns: &[(String, String)]) -> Option<Vec<ColKey>> {
        if columns.is_empty() {
            return None;
        }
        let mut keys: Vec<ColKey> =
            columns.iter().filter_map(|(f, q)| ColKey::lookup(f, q)).collect();
        keys.sort_unstable();
        Some(keys)
    }

    /// The cells of `row` a read returns: per projected column, its newest
    /// `max_versions` versions at or before `time_bound`, newest first.
    fn visible_cells(
        row: &RowData,
        projection: Option<&[ColKey]>,
        max_versions: usize,
        time_bound: Option<Timestamp>,
    ) -> Vec<Cell> {
        let columns = row.columns();
        let width = projection.map_or(columns.len(), |cols| cols.len().min(columns.len()));
        let mut cells = Vec::with_capacity(width);
        let mut expected = 0;
        for column in columns {
            if let Some(cols) = projection {
                match position_from(cols, expected, |key| *key == column.key) {
                    Some(at) => expected = at + 1,
                    None => continue,
                }
            }
            column.visible(max_versions, time_bound, |timestamp, value| {
                cells.push(Cell {
                    family: column.key.family,
                    qualifier: column.key.qualifier,
                    timestamp,
                    value: value.clone(),
                });
            });
        }
        cells
    }

    /// Applies a [`Get`]; returns the row if it exists and has visible cells.
    pub fn get(&self, get: &Get) -> Option<ResultRow> {
        let row = self.rows.get(&get.row)?;
        let projection = Self::resolve_projection(&get.columns);
        let cells =
            Self::visible_cells(row, projection.as_deref(), get.max_versions, get.time_bound);
        if cells.is_empty() {
            return None;
        }
        Some(ResultRow {
            key: get.row.clone(),
            cells,
        })
    }

    /// Newest version of one column visible at or before `bound`
    /// (`None` bound = newest overall).
    fn newest_visible<'a>(
        row: &'a RowData,
        family: &str,
        qualifier: &str,
        bound: Option<Timestamp>,
    ) -> Option<&'a Val> {
        row.column(ColKey::lookup(family, qualifier)?)?.newest_visible(bound)
    }

    /// Evaluates a scan filter against the stored row itself (not the
    /// returned cells), so a column projection never hides the filtered
    /// column from the filter.
    fn filter_matches(
        row_key: &[u8],
        row: &RowData,
        filter: &Filter,
        bound: Option<Timestamp>,
    ) -> bool {
        match filter {
            Filter::ColumnEquals {
                family,
                qualifier,
                value,
            } => Self::newest_visible(row, family, qualifier, bound)
                .is_some_and(|v| v[..] == value[..]),
            Filter::ColumnNotEquals {
                family,
                qualifier,
                value,
            } => Self::newest_visible(row, family, qualifier, bound)
                .is_some_and(|v| v[..] != value[..]),
            Filter::RowPrefix(prefix) => row_key.starts_with(prefix),
            Filter::And(filters) => filters
                .iter()
                .all(|f| Self::filter_matches(row_key, row, f, bound)),
        }
    }

    /// Applies a [`Scan`] to the portion of the range owned by this region.
    ///
    /// `remaining_limit` is the number of rows the overall scan may still
    /// return (`usize::MAX` when unlimited).
    pub fn scan(&self, scan: &Scan, remaining_limit: usize) -> StoreResult<Vec<ResultRow>> {
        let projection = Self::resolve_projection(&scan.columns);
        let mut out = Vec::new();
        self.scan_page(scan, projection.as_deref(), None, remaining_limit, &mut out)?;
        Ok(out)
    }

    /// One page of a [`Scan`]: appends up to `max_rows` matching rows whose
    /// key is strictly greater than `resume_after` (when given) to `out`.
    /// `projection` is the scan's column projection pre-resolved by
    /// [`Region::resolve_projection`] (once per cursor, not per page).
    ///
    /// This is the primitive [`crate::ScanCursor`] pulls on: the cursor
    /// re-locates the right region per page via the resume key, so scans
    /// survive region splits between pages without rescanning.
    pub(crate) fn scan_page(
        &self,
        scan: &Scan,
        projection: Option<&[ColKey]>,
        resume_after: Option<&[u8]>,
        max_rows: usize,
        out: &mut Vec<ResultRow>,
    ) -> StoreResult<()> {
        if !scan.start.is_empty() && !scan.stop.is_empty() && scan.start > scan.stop {
            return Err(StoreError::InvalidRange);
        }
        let lower: Bound<&[u8]> = match resume_after {
            Some(after) if scan.start.is_empty() || after >= scan.start.as_slice() => {
                Bound::Excluded(after)
            }
            _ if scan.start.is_empty() => Bound::Unbounded,
            _ => Bound::Included(scan.start.as_slice()),
        };
        let upper: Bound<&[u8]> = if scan.stop.is_empty() {
            Bound::Unbounded
        } else {
            Bound::Excluded(scan.stop.as_slice())
        };
        let mut taken = 0;
        for (key, row) in self.rows.range::<[u8], _>((lower, upper)) {
            if taken >= max_rows {
                break;
            }
            let cells = Self::visible_cells(row, projection, 1, scan.time_bound);
            if cells.is_empty() {
                continue;
            }
            if let Some(filter) = &scan.filter {
                if !Self::filter_matches(key, row, filter, scan.time_bound) {
                    continue;
                }
            }
            out.push(ResultRow {
                key: key.clone(),
                cells,
            });
            taken += 1;
        }
        Ok(())
    }

    /// Drops excess cell versions in every row, per the schema's
    /// `max_versions` settings, and reclaims their space.  Models an HBase
    /// major compaction (the paper major-compacts after every load).
    pub fn major_compact(&mut self, schema: &TableSchema) {
        let mut bytes = 0;
        for (key, row) in self.rows.iter_mut() {
            row.compact(|family| {
                schema
                    .family(family)
                    .map(|f| f.max_versions)
                    .unwrap_or(1)
            });
            bytes += row.heap_size(key.len());
        }
        self.rows.retain(|_, row| !row.is_empty());
        self.bytes = bytes;
    }

    /// Splits this region at its median row key, returning the upper half.
    /// Returns `None` if the region holds fewer than two rows.
    pub fn split(&mut self, new_id: RegionId, new_server: RegionServerId) -> Option<Region> {
        if self.rows.len() < 2 {
            return None;
        }
        // `BTreeMap` has no order-statistics index, so locating the median
        // key is an intentional O(n) walk: splits are rare (amortized over
        // the thousands of puts that grew the region past the threshold),
        // which is far cheaper than maintaining a rank structure per write.
        let split_key = self.rows.keys().nth(self.rows.len() / 2)?.clone();
        let upper_rows = self.rows.split_off(&split_key);
        // The old end range moves into the upper half (this region's end is
        // overwritten below), so only the split key itself needs a copy.
        let mut upper = Region::new(
            new_id,
            new_server,
            split_key.clone(),
            std::mem::take(&mut self.end),
        );
        upper.rows = upper_rows;
        upper.bytes = upper
            .rows
            .iter()
            .map(|(k, r)| r.heap_size(k.len()))
            .sum();
        self.end = split_key;
        self.bytes = self
            .rows
            .iter()
            .map(|(k, r)| r.heap_size(k.len()))
            .sum();
        Some(upper)
    }
}

/// Refuses a put that carries no cells or names a family `schema` lacks.
pub(crate) fn check_cells(schema: &TableSchema, cells: &[(String, String, Bytes)]) -> StoreResult<()> {
    if cells.is_empty() {
        return Err(StoreError::EmptyMutation);
    }
    match cells.iter().find(|(family, _, _)| !schema.has_family(family)) {
        Some((family, _, _)) => Err(StoreError::UnknownColumnFamily {
            table: schema.name.clone(),
            family: family.clone(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new("t").with_versioned_family("cf", 4)
    }

    fn region() -> Region {
        Region::new(RegionId(1), RegionServerId(0), Vec::new(), Vec::new())
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut r = region();
        r.put(&schema(), &Put::new("a").with("cf", "x", "1"), 1).unwrap();
        let row = r.get(&Get::new("a")).unwrap();
        assert_eq!(row.value("cf", "x").unwrap(), b"1");
        assert!(r.get(&Get::new("missing")).is_none());
    }

    #[test]
    fn put_rejects_unknown_family_and_empty_mutation() {
        let mut r = region();
        let err = r
            .put(&schema(), &Put::new("a").with("bogus", "x", "1"), 1)
            .unwrap_err();
        assert!(matches!(err, StoreError::UnknownColumnFamily { .. }));
        assert!(matches!(
            r.put(&schema(), &Put::new("a"), 1).unwrap_err(),
            StoreError::EmptyMutation
        ));
    }

    #[test]
    fn newer_timestamp_wins_and_time_bound_reads_history() {
        let mut r = region();
        r.put(&schema(), &Put::new("a").with("cf", "x", "old"), 5).unwrap();
        r.put(&schema(), &Put::new("a").with("cf", "x", "new"), 9).unwrap();
        assert_eq!(r.get(&Get::new("a")).unwrap().value("cf", "x").unwrap(), b"new");
        let historic = r.get(&Get::new("a").up_to(6)).unwrap();
        assert_eq!(historic.value("cf", "x").unwrap(), b"old");
    }

    #[test]
    fn delete_row_and_column() {
        let mut r = region();
        r.put(
            &schema(),
            &Put::new("a").with("cf", "x", "1").with("cf", "y", "2"),
            1,
        )
        .unwrap();
        assert!(r.delete(&Delete::column("a", "cf", "x")).unwrap());
        let row = r.get(&Get::new("a")).unwrap();
        assert!(row.value("cf", "x").is_none());
        assert!(r.delete(&Delete::row("a")).unwrap());
        assert!(r.get(&Get::new("a")).is_none());
        assert!(!r.delete(&Delete::row("a")).unwrap());
    }

    #[test]
    fn increment_creates_and_advances_counter() {
        let mut r = region();
        assert_eq!(r.increment(&schema(), &Increment::new("c", "cf", "n", 5), 1).unwrap(), 5);
        assert_eq!(r.increment(&schema(), &Increment::new("c", "cf", "n", -2), 2).unwrap(), 3);
    }

    #[test]
    fn increment_rejects_non_counter_cells() {
        let mut r = region();
        r.put(&schema(), &Put::new("c").with("cf", "n", "oops"), 1).unwrap();
        assert!(matches!(
            r.increment(&schema(), &Increment::new("c", "cf", "n", 1), 2),
            Err(StoreError::NotACounter { .. })
        ));
    }

    #[test]
    fn check_and_put_is_conditional() {
        let mut r = region();
        let acquire = Put::new("lock1").with("cf", "held", "1");
        let applied = r
            .check_and_put(&schema(), "cf", "held", &Expectation::Absent, &acquire, 1)
            .unwrap();
        assert!(applied);
        // Second acquire against the same lock must fail.
        let applied = r
            .check_and_put(&schema(), "cf", "held", &Expectation::Absent, &acquire, 2)
            .unwrap();
        assert!(!applied);
        // Release: expect current value "1", write "0".
        let release = Put::new("lock1").with("cf", "held", "0");
        let applied = r
            .check_and_put(
                &schema(),
                "cf",
                "held",
                &Expectation::Equals(b"1".to_vec()),
                &release,
                3,
            )
            .unwrap();
        assert!(applied);
    }

    #[test]
    fn scan_respects_range_filter_and_limit() {
        let mut r = region();
        for i in 0..10 {
            r.put(
                &schema(),
                &Put::new(format!("row{i:02}")).with("cf", "v", format!("{i}")),
                i as u64,
            )
            .unwrap();
        }
        let rows = r.scan(&Scan::range("row02", "row05"), usize::MAX).unwrap();
        assert_eq!(rows.len(), 3);
        let rows = r
            .scan(
                &Scan::all().with_filter(Filter::ColumnEquals {
                    family: "cf".into(),
                    qualifier: "v".into(),
                    value: b"7".to_vec(),
                }),
                usize::MAX,
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key_str(), "row07");
        let rows = r.scan(&Scan::all(), 4).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(r.scan(&Scan::range("z", "a"), usize::MAX).is_err());
    }

    #[test]
    fn compaction_trims_versions_and_size() {
        let mut r = region();
        let compact_schema = TableSchema::new("t").with_family("cf"); // 1 version
        for ts in 1..=20u64 {
            r.put(&schema(), &Put::new("a").with("cf", "x", vec![0u8; 100]), ts).unwrap();
        }
        let before = r.byte_size();
        r.major_compact(&compact_schema);
        assert!(r.byte_size() < before);
        let row = r.get(&Get::new("a").versions(10)).unwrap();
        assert_eq!(row.cells.len(), 1);
    }

    #[test]
    fn split_partitions_rows_and_sizes() {
        let mut r = region();
        for i in 0..10 {
            r.put(
                &schema(),
                &Put::new(format!("row{i:02}")).with("cf", "v", "x"),
                i as u64,
            )
            .unwrap();
        }
        let total_bytes = r.byte_size();
        let upper = r.split(RegionId(2), RegionServerId(1)).unwrap();
        assert_eq!(r.row_count() + upper.row_count(), 10);
        assert_eq!(r.byte_size() + upper.byte_size(), total_bytes);
        assert!(r.contains(b"row00"));
        assert!(!r.contains(upper.start.as_slice()));
        assert!(upper.contains(b"row09"));
    }

    #[test]
    fn tiny_region_refuses_split() {
        let mut r = region();
        r.put(&schema(), &Put::new("only").with("cf", "v", "x"), 1).unwrap();
        assert!(r.split(RegionId(2), RegionServerId(1)).is_none());
    }
}
