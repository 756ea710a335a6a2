//! Table schemas, column families, stored rows and result rows.
//!
//! # Row layout
//!
//! A stored row ([`RowData`]) is one flat `Vec` of columns; a column holds
//! its newest version **in place** — interned names, timestamp and a
//! [`Val`] that keeps short values inline — and the timestamp and length of
//! every other version in a side `Vec`.  A read, which returns only the newest version of each
//! column, therefore walks one contiguous array and copies 64 bytes per
//! cell: no tree node, no allocation and no reference count per cell.  Four
//! invariants hold after every mutation:
//!
//! 1. **Name-sorted columns.**  `columns` is strictly ascending by
//!    `(family, qualifier)` string order, so reads return cells in that
//!    order without sorting and decoders can walk a name-sorted schema
//!    table in step with them.
//! 2. **Newest in place.**  A column's `timestamp`/`value` is its version
//!    with the largest timestamp.  A put at a timestamp above it — every
//!    cluster-stamped write — moves the old newest's timestamp and length
//!    to the end of `older` and overwrites in place: O(1) however many versions have piled up
//!    (lock rows and dirty markers collect thousands between compactions).
//! 3. **`older` ascending, lengths only.**  The remaining versions are
//!    strictly ascending by timestamp, all below the newest; a put with an
//!    explicit older timestamp (`Put::timestamp`, WAL replay) is inserted at
//!    its position.  An older version keeps only its timestamp and its
//!    value's length: every read returns the newest version, so an older
//!    value is never read again, while its length is all the modelled bytes
//!    (invariant 4) need.  A superseded value is therefore freed when it is
//!    superseded, not at the next compaction.  After a major compaction
//!    `older` is empty and unallocated.
//! 4. **Modelled bytes unchanged.**  [`RowData::heap_size`],
//!    [`Cell::heap_size`] and [`ResultRow::byte_size`] charge each version
//!    its names, its value's length, [`Cell::PER_CELL_OVERHEAD`] and the
//!    row key — the HBase on-disk model that region splits, scan costs and
//!    the paper's Table III are built on — whatever the process's own
//!    layout costs.

use crate::cell::{Bytes, Cell, Timestamp, Val};
use crate::intern::{lookup_name, Name};
use serde::{Deserialize, Serialize};

/// Schema of a table: its name and declared column families.
///
/// HBase stores each column family in its own set of files; the paper's
/// baseline transformation (§II-D) puts all attributes of a relation into a
/// single family.  Every family keeps one version per cell through a major
/// compaction (HBase's default).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name (unique within the cluster).
    pub name: String,
    /// Declared column family names.
    pub families: Vec<String>,
}

impl TableSchema {
    /// Creates a schema with no families; add at least one before use.
    pub fn new(name: impl Into<String>) -> Self {
        TableSchema {
            name: name.into(),
            families: Vec::new(),
        }
    }

    /// Adds a column family.
    pub fn with_family(mut self, name: impl Into<String>) -> Self {
        self.families.push(name.into());
        self
    }

    /// True if `name` is a declared family.
    pub fn has_family(&self, name: &str) -> bool {
        self.families.iter().any(|f| f == name)
    }
}

/// Interned `(family, qualifier)` coordinate of a column within a row.
///
/// Two [`Name`] handles: copying a key copies two pointers, and equality is
/// two pointer compares.  Ordering follows `(family, qualifier)` string
/// order, which is the order columns are kept in and cells are returned in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ColKey {
    pub(crate) family: Name,
    pub(crate) qualifier: Name,
}

impl ColKey {
    /// Builds a key, interning names given as strings.
    pub(crate) fn new(family: impl Into<Name>, qualifier: impl Into<Name>) -> ColKey {
        ColKey {
            family: family.into(),
            qualifier: qualifier.into(),
        }
    }

    /// Builds a key without interning; `None` means at least one name has
    /// never been seen, so no stored column can match.  Used by probe-only
    /// paths to keep data-derived lookups from growing the interner.
    pub(crate) fn lookup(family: &str, qualifier: &str) -> Option<ColKey> {
        Some(ColKey {
            family: lookup_name(family)?,
            qualifier: lookup_name(qualifier)?,
        })
    }

    /// Modelled byte footprint of one stored version of this column
    /// (excluding the row key, which the region accounts separately).
    pub(crate) fn cell_heap_size(&self, value_len: usize) -> usize {
        self.family.len() + self.qualifier.len() + value_len + Cell::PER_CELL_OVERHEAD
    }
}

/// One column of a stored row with all its versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Column {
    pub(crate) key: ColKey,
    /// Timestamp of the newest version.
    pub(crate) timestamp: Timestamp,
    /// Value of the newest version, in place.
    pub(crate) value: Val,
    /// Every other version as `(timestamp, value length)`, oldest first (all
    /// timestamps below `timestamp`, strictly ascending).  16 bytes each,
    /// the same as a `u32` length would take beside the timestamp.
    older: Vec<(Timestamp, usize)>,
}

impl Column {
    /// Stores `value` as version `ts`; returns the length of the value it
    /// replaced when that exact version already existed.  The common case —
    /// `ts` above every stored version — moves the current newest's length
    /// to the end of `older` and writes the new one in place; an explicit
    /// older timestamp records its length at its sorted position.
    fn put(&mut self, ts: Timestamp, value: Val) -> Option<usize> {
        if ts > self.timestamp {
            let previous = std::mem::replace(&mut self.value, value);
            self.older.push((self.timestamp, previous.len()));
            self.timestamp = ts;
            return None;
        }
        if ts == self.timestamp {
            return Some(std::mem::replace(&mut self.value, value).len());
        }
        match self.older.binary_search_by_key(&ts, |(t, _)| *t) {
            Ok(i) => Some(std::mem::replace(&mut self.older[i].1, value.len())),
            Err(i) => {
                self.older.insert(i, (ts, value.len()));
                None
            }
        }
    }

    /// Modelled bytes of every version of this column in a row whose key is
    /// `row_key_len` bytes long.
    pub(crate) fn heap_size(&self, row_key_len: usize) -> usize {
        let lengths = self.older.iter().map(|&(_, len)| len).chain([self.value.len()]);
        lengths.map(|len| self.key.cell_heap_size(len) + row_key_len).sum()
    }
}

/// In-memory representation of one stored row (see the module docs for the
/// layout and its invariants).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowData {
    columns: Vec<Column>,
}

impl RowData {
    /// An empty row with room for `columns` columns.
    pub(crate) fn with_capacity(columns: usize) -> RowData {
        RowData { columns: Vec::with_capacity(columns) }
    }

    /// The row's columns in `(family, qualifier)` order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column stored under `key`, if any.
    pub(crate) fn column(&self, key: ColKey) -> Option<&Column> {
        self.columns.iter().find(|column| column.key == key)
    }

    /// Stores `value` as version `ts` of column `key`, creating the column
    /// at its sorted position if needed.  Returns the length of the value
    /// it replaced when that exact version already existed.
    pub(crate) fn put(&mut self, key: ColKey, ts: Timestamp, value: Val) -> Option<usize> {
        match self.columns.binary_search_by(|column| column.key.cmp(&key)) {
            Ok(i) => self.columns[i].put(ts, value),
            Err(i) => {
                // A row's width is bounded by its schema, so amortized
                // doubling buys nothing here; it would leave every row that
                // gains one column (a dirty marker, say) half empty.
                self.columns.reserve_exact(1);
                let column = Column { key, timestamp: ts, value, older: Vec::new() };
                self.columns.insert(i, column);
                None
            }
        }
    }

    /// Modelled byte footprint of the row: every version of every column,
    /// each carrying the row key (HBase stores the full coordinate per
    /// cell).
    pub(crate) fn heap_size(&self, row_key_len: usize) -> usize {
        self.columns.iter().map(|column| column.heap_size(row_key_len)).sum()
    }

    /// Total number of stored cell versions in the row.
    #[cfg(test)]
    pub(crate) fn cell_count(&self) -> usize {
        self.columns.iter().map(|column| 1 + column.older.len()).sum()
    }

    /// Drops every version but the newest of each column and gives back
    /// the side vectors' memory.
    pub(crate) fn compact(&mut self) {
        for column in &mut self.columns {
            column.older = Vec::new();
        }
    }

    /// Is the row empty (no cells at all)?
    pub(crate) fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// A row returned from a [`crate::ops::Get`] or [`crate::ops::Scan`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResultRow {
    /// Row key of the returned row.
    pub key: Bytes,
    /// Returned cells (the newest version of each column), sorted by family
    /// then qualifier.
    pub cells: Vec<Cell>,
}

impl ResultRow {
    /// The newest returned value of `family:qualifier`, if present.
    pub fn value(&self, family: &str, qualifier: &str) -> Option<&[u8]> {
        self.newest(|c| &*c.family == family && &*c.qualifier == qualifier)
    }

    /// [`ResultRow::value`] addressed by interned names: finding the cell is
    /// two pointer compares per cell instead of two string compares, for
    /// callers that probe every row of a scan for the same column.
    pub fn value_interned(&self, family: Name, qualifier: Name) -> Option<&[u8]> {
        self.newest(|c| c.family == family && c.qualifier == qualifier)
    }

    fn newest(&self, is_column: impl Fn(&Cell) -> bool) -> Option<&[u8]> {
        self.cells
            .iter()
            .filter(|c| is_column(c))
            .max_by_key(|c| c.timestamp)
            .map(|c| &c.value[..])
    }

    /// Row key decoded as UTF-8 (lossy).
    pub fn key_str(&self) -> String {
        String::from_utf8_lossy(&self.key).into_owned()
    }

    /// Total serialized size of the returned cells, used for scan-cost
    /// accounting.
    pub fn byte_size(&self) -> usize {
        self.key.len() + self.cells.iter().map(Cell::heap_size).sum::<usize>()
    }

    /// True if no cells were returned.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::intern_name;

    fn val(text: &str) -> Val {
        Val::from(text.as_bytes())
    }

    /// Every stored version of column `key` as `(timestamp, value length)`,
    /// newest first.
    fn versions_of(row: &RowData, key: ColKey) -> Vec<(Timestamp, usize)> {
        let Some(column) = row.column(key) else {
            return Vec::new();
        };
        let older = column.older.iter().rev().copied();
        std::iter::once((column.timestamp, column.value.len())).chain(older).collect()
    }

    #[test]
    fn schema_family_lookup() {
        let schema = TableSchema::new("t").with_family("cf").with_family("v");
        assert!(schema.has_family("cf") && schema.has_family("v"));
        assert!(!schema.has_family("missing"));
    }

    #[test]
    fn columns_stay_name_sorted_whatever_the_put_order() {
        let mut row = RowData::default();
        for (family, qualifier) in [("cf", "m"), ("cf", "a"), ("ce", "z"), ("cf", "z"), ("cf", "b")] {
            row.put(ColKey::new(family, qualifier), 1, val("x"));
        }
        let names: Vec<(&str, &str)> =
            row.columns().iter().map(|c| (c.key.family.as_str(), c.key.qualifier.as_str())).collect();
        assert_eq!(names, [("ce", "z"), ("cf", "a"), ("cf", "b"), ("cf", "m"), ("cf", "z")]);
    }

    #[test]
    fn newest_stays_in_place_and_older_versions_stay_ascending() {
        let key = ColKey::new("cf", "a");
        let mut row = RowData::default();
        // Out-of-order timestamps, a repeat of the newest and of an older one.
        for (ts, text) in [(5, "five"), (9, "nine"), (2, "two"), (7, "seven"), (1, "one")] {
            assert_eq!(row.put(key, ts, val(text)), None);
        }
        assert_eq!(row.put(key, 9, val("NINE!")), Some(4));
        assert_eq!(row.put(key, 2, val("2")), Some(3));
        let column = row.column(key).unwrap();
        assert_eq!((column.timestamp, &*column.value), (9, &b"NINE!"[..]));
        assert!(column.older.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(versions_of(&row, key), [(9, 5), (7, 5), (5, 4), (2, 1), (1, 3)]);
        assert_eq!(row.cell_count(), 5);
    }

    #[test]
    fn row_data_compaction_keeps_newest_versions() {
        let key = ColKey::new("cf", "a");
        let mut row = RowData::default();
        for ts in 1..=5u64 {
            row.put(key, ts, Val::from(&[ts as u8][..]));
        }
        row.compact();
        assert_eq!(versions_of(&row, key), [(5, 1)]);
        assert_eq!(&*row.column(key).unwrap().value, &[5]);
        assert_eq!(row.column(key).unwrap().older.capacity(), 0, "side vector is given back");
    }

    #[test]
    fn result_row_returns_newest_value() {
        let row = ResultRow {
            key: b"k".to_vec(),
            cells: vec![
                Cell::new("cf", "a", 1, "old"),
                Cell::new("cf", "a", 9, "new"),
                Cell::new("cf", "b", 2, "x"),
            ],
        };
        assert_eq!(row.value("cf", "a").unwrap(), b"new");
        assert_eq!(row.value("cf", "b").unwrap(), b"x");
        assert_eq!(row.value("cf", "zzz"), None);
        assert_eq!(row.value_interned(intern_name("cf"), intern_name("a")).unwrap(), b"new");
        assert_eq!(row.value_interned(intern_name("cf"), intern_name("zzz")), None);
        assert!(row.byte_size() > 0);
    }

    #[test]
    fn row_data_size_is_the_modelled_size() {
        let key = ColKey::new("cf", "a");
        let mut row = RowData::default();
        row.put(key, 1, val("hello"));
        row.put(key, 2, Val::from(&[0u8; 100][..]));
        // names + value + 24 per version, + the 3-byte row key per version.
        let expected = (2 + 1 + 5 + 24 + 3) + (2 + 1 + 100 + 24 + 3);
        assert_eq!(row.heap_size(3), expected);
        assert_eq!(row.cell_count(), 2);
        assert_eq!(row.column(key).unwrap().heap_size(3), expected);
    }
}
