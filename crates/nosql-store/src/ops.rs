//! The HBase-style data-manipulation API.
//!
//! The store exposes the HBase calls Synergy builds its write transactions
//! (paper §VIII) and lock tables (§IX-C) from — [`Get`], [`Put`], [`Delete`],
//! [`Scan`] and the atomic [`CheckAndPut`] — plus multi-row [`Mutation`]
//! batches.  A read returns the newest version of each cell.  All
//! single-row operations are atomic with respect to each other, which is
//! exactly the guarantee the paper builds on.
//!
//! A [`Put`] carries each written cell in the form the store keeps it in:
//! interned family and qualifier [`Name`]s and a [`Val`].  The cell is
//! built once, when it is added; the put's WAL record and the stored row
//! copy it without re-interning a name or re-allocating a short value.
//! Callers that write the same columns over and over (the lock and marker
//! puts, catalog row encoding) pass `Name`s they resolved once, which skips
//! the interner altogether.

use crate::{Bytes, Name, Timestamp, Val};

/// A point read of one row (optionally restricted to specific columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Get {
    /// Row key to read.
    pub row: Bytes,
    /// If non-empty, only these `(family, qualifier)` columns are returned.
    pub columns: Vec<(String, String)>,
}

impl Get {
    /// Reads the newest version of every column of `row`.
    pub fn new(row: impl Into<Vec<u8>>) -> Self {
        Get {
            row: row.into(),
            columns: Vec::new(),
        }
    }

    /// Restricts the read to a single column.
    pub fn column(mut self, family: impl Into<String>, qualifier: impl Into<String>) -> Self {
        self.columns.push((family.into(), qualifier.into()));
        self
    }
}

/// A write of one or more cells of a single row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Put {
    /// Row key being written.
    pub row: Bytes,
    /// Cells to write as `(family, qualifier, value)`.
    pub cells: Vec<(Name, Name, Val)>,
    /// Explicit timestamp; `None` lets the cluster assign the next sequence
    /// number (the normal case).
    pub timestamp: Option<Timestamp>,
}

impl Put {
    /// Starts a put against `row`.
    pub fn new(row: impl Into<Vec<u8>>) -> Self {
        Put {
            row: row.into(),
            cells: Vec::new(),
            timestamp: None,
        }
    }

    /// Adds one cell to the put.  Names given as strings are interned here;
    /// a [`Name`] is taken as is.
    pub fn add(
        &mut self,
        family: impl Into<Name>,
        qualifier: impl Into<Name>,
        value: impl AsRef<[u8]>,
    ) -> &mut Self {
        self.cells.push((family.into(), qualifier.into(), Val::from(value.as_ref())));
        self
    }

    /// Builder-style variant of [`Put::add`].
    pub fn with(
        mut self,
        family: impl Into<Name>,
        qualifier: impl Into<Name>,
        value: impl AsRef<[u8]>,
    ) -> Self {
        self.add(family, qualifier, value);
        self
    }

    /// Pins every cell in this put to an explicit version timestamp.
    pub fn at(mut self, ts: Timestamp) -> Self {
        self.timestamp = Some(ts);
        self
    }

    /// Number of cells carried by this put.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

/// Removal of a whole row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delete {
    /// Row key to delete.
    pub row: Bytes,
}

impl Delete {
    /// Deletes the entire row.
    pub fn row(row: impl Into<Vec<u8>>) -> Self {
        Delete { row: row.into() }
    }
}

/// One row of a multi-row [`crate::Cluster::batch`]; every single-row
/// write of the cluster is a batch of one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Write cells of one row.
    Put(Put),
    /// Remove a row.
    Delete(Delete),
    /// Write one row if one of its cells matches an expectation.
    CheckAndPut(CheckAndPut),
}

/// The expected current value in a [`CheckAndPut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// The cell must currently be absent.
    Absent,
    /// The cell must currently hold exactly this value.
    Equals(Bytes),
}

/// Atomic compare-and-set on a single cell: the `put` is applied only if the
/// checked cell matches the expectation.  This is the primitive Synergy's
/// lock tables are built on (paper §IX-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckAndPut {
    /// Row whose cell is checked (must equal the put's row).
    pub row: Bytes,
    /// Family of the checked cell.
    pub family: Name,
    /// Qualifier of the checked cell.
    pub qualifier: Name,
    /// Expected current state of the checked cell.
    pub expect: Expectation,
    /// Mutation applied when the check succeeds.
    pub put: Put,
}

impl CheckAndPut {
    /// Builds a check-and-put; panics if the put targets a different row,
    /// because HBase only supports single-row atomicity.
    pub fn new(
        row: impl Into<Vec<u8>>,
        family: impl Into<Name>,
        qualifier: impl Into<Name>,
        expect: Expectation,
        put: Put,
    ) -> Self {
        let row = row.into();
        // lint-allow(panic-freedom): documented constructor precondition (caller bug, not a fault path)
        assert_eq!(row, put.row, "CheckAndPut is single-row atomic");
        CheckAndPut {
            row,
            family: family.into(),
            qualifier: qualifier.into(),
            expect,
            put,
        }
    }
}

/// A range read over a table, in row-key order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Scan {
    /// Inclusive start key; empty means "from the beginning".
    pub start: Bytes,
    /// Exclusive stop key; empty means "to the end".
    pub stop: Bytes,
    /// Maximum number of rows to return (`0` = unlimited).
    pub limit: usize,
    /// If non-empty, only these `(family, qualifier)` columns are returned
    /// (server-side projection pushed into the region walk); rows with none
    /// of the requested columns are skipped, mirroring [`Get::columns`].
    pub columns: Vec<(String, String)>,
}

impl Scan {
    /// Scans the whole table.
    pub fn all() -> Self {
        Scan::default()
    }

    /// Scans `[start, stop)`.
    pub fn range(start: impl Into<Vec<u8>>, stop: impl Into<Vec<u8>>) -> Self {
        Scan {
            start: start.into(),
            stop: stop.into(),
            ..Scan::default()
        }
    }

    /// Scans every row whose key starts with `prefix`.
    pub fn prefix(prefix: impl Into<Vec<u8>>) -> Self {
        let start: Bytes = prefix.into();
        let mut stop = start.clone();
        // Successor of the prefix: increment the last byte that is not 0xff.
        while let Some(last) = stop.last_mut() {
            if *last < 0xff {
                *last += 1;
                break;
            }
            stop.pop();
        }
        Scan {
            start,
            stop,
            ..Scan::default()
        }
    }

    /// Caps the number of returned rows.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Restricts the returned cells to a single column (may be chained).
    pub fn column(mut self, family: impl Into<String>, qualifier: impl Into<String>) -> Self {
        self.columns.push((family.into(), qualifier.into()));
        self
    }

    /// Restricts the returned cells to the given `(family, qualifier)`
    /// columns (replacing any previous projection; empty = all columns).
    pub fn with_columns(mut self, columns: Vec<(String, String)>) -> Self {
        self.columns = columns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_builder_collects_cells() {
        let put = Put::new("r1").with("cf", "a", "1").with("cf", "b", "2");
        assert_eq!(put.cell_count(), 2);
        assert_eq!(put.cells[1].1.as_str(), "b");
    }

    #[test]
    fn prefix_scan_computes_exclusive_stop() {
        let scan = Scan::prefix("cust#");
        assert_eq!(scan.start, b"cust#".to_vec());
        assert_eq!(scan.stop, b"cust$".to_vec());
    }

    #[test]
    fn prefix_scan_handles_trailing_ff() {
        let scan = Scan::prefix(vec![0x61, 0xff]);
        assert_eq!(scan.stop, vec![0x62]);
    }

    #[test]
    #[should_panic(expected = "single-row atomic")]
    fn check_and_put_rejects_cross_row_mutation() {
        let put = Put::new("other");
        let _ = CheckAndPut::new("row", "cf", "lock", Expectation::Absent, put);
    }
}
