//! Regions: contiguous row-key ranges of a table.
//!
//! Like HBase, every table is horizontally partitioned into regions, each
//! responsible for a half-open key range `[start, end)`.  A region applies
//! single-row operations atomically (the caller holds the region lock for
//! the duration of the operation), which is the atomicity unit the paper's
//! concurrency analysis starts from.

use crate::cell::{Bytes, Cell, Timestamp, Val};
use crate::error::{StoreError, StoreResult};
use crate::intern::{position_from, Name};
use crate::ops::{Expectation, Get, Put, Scan};
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
    /// the row existed (delete); logical records touch nothing.
    pub(crate) fn apply_op(&mut self, schema: &TableSchema, op: &WalOp) -> StoreResult<i64> {
        match op {
            WalOp::Put { row, cells, timestamp } => {
                self.put_cells(schema, row, cells, *timestamp).map(|n| n as i64)
            }
            WalOp::Delete { row, .. } => Ok(i64::from(self.delete_row(row))),
            WalOp::Logical { .. } => Ok(0),
        }
    }

    /// Applies a [`Put`]; returns the number of cells written.
    pub fn put(&mut self, schema: &TableSchema, put: &Put, ts: Timestamp) -> StoreResult<usize> {
        self.put_cells(schema, &put.row, &put.cells, put.timestamp.unwrap_or(ts))
    }

    /// Writes `cells` to `row` at version `ts`: the one put path, shared by
    /// [`Region::put`] (bulk load) and [`Region::apply_op`] (live writes and
    /// replay).  A cell's names are already interned and its value already
    /// built, so storing it copies them.
    ///
    /// Byte accounting is incremental: each written cell adjusts the
    /// region's size by its own footprint (or by the value-length delta when
    /// it replaces an existing version) instead of re-walking — and
    /// re-materializing the column names of — the whole row per mutation.
    fn put_cells(
        &mut self,
        schema: &TableSchema,
        row: &[u8],
        cells: &[(Name, Name, Val)],
        ts: Timestamp,
    ) -> StoreResult<usize> {
        check_cells(schema, cells)?;
        let key_len = row.len();
        let delta = self.with_row(row, cells.len(), |stored| {
            let mut delta = 0isize;
            for (family, qualifier, value) in cells {
                let col = ColKey::new(*family, *qualifier);
                delta += match stored.put(col, ts, value.clone()) {
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

    /// Removes the row stored under `row_key`; returns `true` if it existed.
    fn delete_row(&mut self, row_key: &[u8]) -> bool {
        let Some(row) = self.rows.remove(row_key) else {
            return false;
        };
        self.bytes -= row.heap_size(row_key.len());
        true
    }

    /// The check half of a check-and-put: does the newest version of
    /// `row`'s `family:qualifier` cell meet `expect`?
    pub(crate) fn matches(
        &self,
        row: &[u8],
        family: Name,
        qualifier: Name,
        expect: &Expectation,
    ) -> bool {
        let current = self
            .rows
            .get(row)
            .and_then(|row| row.column(ColKey::new(family, qualifier)))
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

    /// The cells of `row` a read returns: the newest version of each
    /// projected column.
    fn visible_cells(row: &RowData, projection: Option<&[ColKey]>) -> Vec<Cell> {
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
            cells.push(Cell {
                family: column.key.family,
                qualifier: column.key.qualifier,
                timestamp: column.timestamp,
                value: column.value.clone(),
            });
        }
        cells
    }

    /// Applies a [`Get`]; returns the row if it exists and has visible cells.
    pub fn get(&self, get: &Get) -> Option<ResultRow> {
        let row = self.rows.get(&get.row)?;
        let projection = Self::resolve_projection(&get.columns);
        let cells = Self::visible_cells(row, projection.as_deref());
        if cells.is_empty() {
            return None;
        }
        Some(ResultRow {
            key: get.row.clone(),
            cells,
        })
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
            let cells = Self::visible_cells(row, projection);
            if cells.is_empty() {
                continue;
            }
            out.push(ResultRow {
                key: key.clone(),
                cells,
            });
            taken += 1;
        }
        Ok(())
    }

    /// Drops every cell version but the newest and reclaims their space.
    /// Models an HBase major compaction of single-version families (the
    /// paper major-compacts after every load).
    pub fn major_compact(&mut self) {
        for row in self.rows.values_mut() {
            row.compact();
        }
        self.recompute_bytes();
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
pub(crate) fn check_cells(schema: &TableSchema, cells: &[(Name, Name, Val)]) -> StoreResult<()> {
    if cells.is_empty() {
        return Err(StoreError::EmptyMutation);
    }
    match cells.iter().find(|(family, _, _)| !schema.has_family(family)) {
        Some((family, _, _)) => Err(StoreError::UnknownColumnFamily {
            table: schema.name.clone(),
            family: family.to_string(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new("t").with_family("cf")
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
    fn newer_timestamp_wins_and_older_versions_are_kept() {
        let mut r = region();
        r.put(&schema(), &Put::new("a").with("cf", "x", "old"), 5).unwrap();
        let one_version = r.byte_size();
        r.put(&schema(), &Put::new("a").with("cf", "x", "new"), 9).unwrap();
        r.put(&schema(), &Put::new("a").with("cf", "x", "mid").at(7), 1).unwrap();
        let row = r.get(&Get::new("a")).unwrap();
        assert_eq!((row.cells[0].timestamp, row.value("cf", "x").unwrap()), (9, &b"new"[..]));
        assert_eq!(r.byte_size(), 3 * one_version, "every version is stored until compaction");
    }

    #[test]
    fn delete_removes_the_whole_row() {
        let mut r = region();
        r.put(
            &schema(),
            &Put::new("a").with("cf", "x", "1").with("cf", "y", "2"),
            1,
        )
        .unwrap();
        let delete = |r: &mut Region| r.apply_op(&schema(), &WalOp::Delete { row: b"a".to_vec(), timestamp: 2 });
        assert_eq!(delete(&mut r).unwrap(), 1);
        assert!(r.get(&Get::new("a")).is_none());
        assert_eq!((r.row_count(), r.byte_size()), (0, 0));
        assert_eq!(delete(&mut r).unwrap(), 0, "an absent row removes nothing");
    }

    #[test]
    fn check_and_put_is_conditional() {
        let mut r = region();
        let (cf, held) = (Name::from("cf"), Name::from("held"));
        assert!(r.matches(b"lock1", cf, held, &Expectation::Absent));
        r.put(&schema(), &Put::new("lock1").with("cf", "held", "1"), 1).unwrap();
        // A second acquire against the same lock must fail.
        assert!(!r.matches(b"lock1", cf, held, &Expectation::Absent));
        // Release: expect current value "1".
        assert!(r.matches(b"lock1", cf, held, &Expectation::Equals(b"1".to_vec())));
        assert!(!r.matches(b"lock1", cf, held, &Expectation::Equals(b"0".to_vec())));
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
        r.put(&schema(), &Put::new("row07").with("cf", "w", "7"), 10).unwrap();
        let scan = |r: &Region, scan: &Scan, limit: usize| {
            let projection = Region::resolve_projection(&scan.columns);
            let mut rows = Vec::new();
            r.scan_page(scan, projection.as_deref(), None, limit, &mut rows).map(|()| rows)
        };
        assert_eq!(scan(&r, &Scan::range("row02", "row05"), usize::MAX).unwrap().len(), 3);
        // A projection filters out the rows that hold none of its columns.
        let rows = scan(&r, &Scan::all().column("cf", "w"), usize::MAX).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].key_str(), rows[0].cells.len()), ("row07".to_string(), 1));
        assert_eq!(scan(&r, &Scan::all(), 4).unwrap().len(), 4);
        assert!(scan(&r, &Scan::range("z", "a"), usize::MAX).is_err());
    }

    #[test]
    fn compaction_trims_versions_and_size() {
        let mut r = region();
        r.put(&schema(), &Put::new("a").with("cf", "x", vec![0u8; 100]), 1).unwrap();
        let one_version = r.byte_size();
        for ts in 2..=20u64 {
            r.put(&schema(), &Put::new("a").with("cf", "x", vec![0u8; 100]), ts).unwrap();
        }
        assert_eq!(r.byte_size(), 20 * one_version);
        r.major_compact();
        assert_eq!(r.byte_size(), one_version, "only the newest version is kept");
        assert_eq!(r.get(&Get::new("a")).unwrap().cells[0].timestamp, 20);
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
