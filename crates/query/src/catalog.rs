//! Catalog: how logical tables (relations, indexes, views, lock tables) are
//! laid out as NoSQL tables.

use nosql_store::intern::{intern_name, position_from};
use nosql_store::ops::Put;
use nosql_store::{Name, ResultRow};
use relational::{encode_key, intern, Row, Symbol, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The column family every attribute is stored in (the paper's baseline
/// transformation assigns all attributes of a relation to a single family).
pub const FAMILY: &str = "cf";

/// Declared type of a column, used to decode stored cells back into values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// Double-precision decimal.
    Float,
    /// UTF-8 string (default).
    #[default]
    Str,
}

impl ColumnType {
    /// Decodes an encoded cell into a [`Value`] of this type.
    pub fn decode(&self, encoded: &str) -> Value {
        if encoded.is_empty() {
            return Value::Null;
        }
        match self {
            ColumnType::Int => encoded.parse().map(Value::Int).unwrap_or(Value::Null),
            ColumnType::Float => encoded.parse().map(Value::Float).unwrap_or(Value::Null),
            ColumnType::Str => Value::Str(encoded.to_string()),
        }
    }
}

/// What role a NoSQL table plays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableKind {
    /// A base relation from the relational schema.
    Base,
    /// A covered index on a base relation or on a view.
    Index {
        /// The relation or view the index belongs to.
        of: String,
    },
    /// A materialized view (created by the Synergy layer).
    View,
    /// A lock table (one per root relation, created by the Synergy layer).
    Lock,
}

/// Layout of one NoSQL table.
///
/// Construction pre-interns every column name — as a relational [`Symbol`]
/// and as the store's qualifier [`Name`] — and resolves the key attributes
/// to column indices, so row encoding/decoding on the read path never
/// hashes, compares or allocates a column name.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name in the store.
    pub name: String,
    /// Columns and their types, in declaration order.
    pub columns: Vec<(String, ColumnType)>,
    /// Ordered key attributes; the row key is their delimited concatenation.
    pub key: Vec<String>,
    /// Role of the table.
    pub kind: TableKind,
    /// Interned symbol of every column, in declaration order.
    col_syms: Vec<Symbol>,
    /// `(qualifier, index into columns)` sorted by name: the order a stored
    /// row's cells arrive in, so the decoder walks it in step with them.
    by_name: Vec<(Name, usize)>,
    /// [`FAMILY`] as the store interned it.
    family: Name,
    /// Indices of the key attributes within `columns`.
    key_cols: Vec<usize>,
}

impl PartialEq for TableDef {
    fn eq(&self, other: &Self) -> bool {
        // The cached symbol/index tables derive from the logical fields.
        self.name == other.name
            && self.columns == other.columns
            && self.key == other.key
            && self.kind == other.kind
    }
}

static NULL_VALUE: Value = Value::Null;

impl TableDef {
    /// Creates a table definition.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<(String, ColumnType)>,
        key: Vec<String>,
        kind: TableKind,
    ) -> Self {
        let name = name.into();
        let col_syms: Vec<Symbol> = columns.iter().map(|(n, _)| intern::intern(n)).collect();
        let positions: BTreeMap<&str, usize> = columns
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.as_str(), i))
            .collect();
        let by_name: Vec<(Name, usize)> =
            positions.iter().map(|(n, &i)| (intern_name(n), i)).collect();
        let key_cols: Vec<usize> = key
            .iter()
            .map(|k| {
                *positions.get(k.as_str()).unwrap_or_else(|| {
                    // lint-allow(panic-freedom): schema construction bug, not a runtime fault path
                    panic!("key attribute {k} is not a column of {name}")
                })
            })
            .collect();
        TableDef {
            name,
            columns,
            key,
            kind,
            col_syms,
            by_name,
            family: intern_name(FAMILY),
            key_cols,
        }
    }

    /// Index of a column within [`TableDef::columns`], if it exists.
    pub fn column_position(&self, column: &str) -> Option<usize> {
        let at = self.by_name.binary_search_by(|(name, _)| name.as_str().cmp(column)).ok()?;
        Some(self.by_name[at].1)
    }

    /// The declared type of a column, if it exists.
    pub fn column_type(&self, column: &str) -> Option<ColumnType> {
        self.column_position(column).map(|i| self.columns[i].1)
    }

    /// True if every key attribute appears in `available` (e.g. the equality
    /// filters of a WHERE clause).
    pub fn key_covered_by(&self, available: &[String]) -> bool {
        self.key.iter().all(|k| available.iter().any(|a| a == k))
    }

    /// Encodes the row key for a row of this table.  Missing key attributes
    /// encode as empty components (callers validate beforehand).
    pub fn encode_row_key(&self, row: &Row) -> String {
        encode_key(
            self.key_cols
                .iter()
                .map(|&i| row.get_interned(&self.col_syms[i]).unwrap_or(&NULL_VALUE)),
        )
    }

    /// Encodes the row-key *prefix* formed by the first `n` key attributes.
    pub fn encode_key_prefix(&self, row: &Row, n: usize) -> String {
        encode_key(
            self.key_cols
                .iter()
                .take(n)
                .map(|&i| row.get_interned(&self.col_syms[i]).unwrap_or(&NULL_VALUE)),
        )
    }

    /// Converts a row into a [`Put`] against this table (all attributes into
    /// the single column family).
    pub fn row_to_put(&self, row: &Row) -> Put {
        let mut put = Put::new(self.encode_row_key(row));
        for (i, (column, _)) in self.columns.iter().enumerate() {
            if let Some(value) = row.get_interned(&self.col_syms[i]) {
                if !value.is_null() {
                    put.add(FAMILY, column.clone(), value.encode());
                }
            }
        }
        put
    }

    /// Decodes a stored [`ResultRow`] back into a relational [`Row`].
    pub fn decode_row(&self, stored: &ResultRow) -> Row {
        self.decode_cells(stored, None, None)
    }

    /// [`TableDef::decode_row`] restricted to the columns whose index is set
    /// in `mask` (projection pushdown: skip decoding unneeded columns).
    pub fn decode_row_projected(&self, stored: &ResultRow, mask: &[bool]) -> Row {
        self.decode_cells(stored, Some(mask), None)
    }

    /// Decodes a stored row directly into alias-qualified attribute names:
    /// `qualified[i]` is the output symbol for column `i` (typically
    /// `"alias.column"`), so the executor produces join-ready rows in a
    /// single pass without an intermediate bare-named row.  The symbols
    /// must sort like the column names they stand for — true of every
    /// `alias.column` set under one alias — because the decoder appends in
    /// column-name order without comparing names ([`Row::push_sorted`]
    /// checks it in debug builds).
    pub fn decode_row_qualified(
        &self,
        stored: &ResultRow,
        qualified: &[Symbol],
        mask: Option<&[bool]>,
    ) -> Row {
        self.decode_cells(stored, mask, Some(qualified))
    }

    /// Single-pass cell-walk decoder.  Walks the returned cells once (they
    /// arrive sorted by family and qualifier) in step with `by_name`
    /// ([`position_from`]: a pointer compare per cell, exact for hand-built
    /// rows in any order) instead of looking each cell's column up by
    /// name; adjacent duplicate versions of a column keep the newest
    /// timestamp, matching [`ResultRow::value`].
    fn decode_cells(
        &self,
        stored: &ResultRow,
        mask: Option<&[bool]>,
        qualified: Option<&[Symbol]>,
    ) -> Row {
        let mut row = Row::with_capacity(stored.cells.len().min(self.columns.len()));
        let mut next = 0;
        let mut last: Option<(usize, nosql_store::Timestamp)> = None;
        // Store-produced rows arrive in `by_name` order, so each entry
        // appends in O(1) via `push_sorted`; a cell behind the furthest
        // position appended so far (hand-built unsorted input) falls back
        // to `set_interned`.
        let mut appended: Option<usize> = None;
        for cell in &stored.cells {
            if cell.family != self.family {
                continue;
            }
            let Some(at) = position_from(&self.by_name, next, |(name, _)| *name == cell.qualifier)
            else {
                continue;
            };
            next = at + 1;
            let idx = self.by_name[at].1;
            if mask.is_some_and(|mask| !mask[idx]) {
                continue;
            }
            if last.is_some_and(|(last_at, last_ts)| last_at == at && cell.timestamp <= last_ts) {
                continue; // older version of the column just decoded
            }
            let text = String::from_utf8_lossy(&cell.value);
            let value = self.columns[idx].1.decode(&text);
            let sym = match qualified {
                Some(syms) => syms[idx],
                None => self.col_syms[idx],
            };
            if appended.is_none_or(|furthest| furthest <= at) {
                row.push_sorted(sym, value);
                appended = Some(at);
            } else {
                row.set_interned(sym, value);
            }
            last = Some((at, cell.timestamp));
        }
        row
    }

    /// Approximate bytes of one encoded row, for size estimation.
    pub fn estimate_row_bytes(&self, row: &Row) -> usize {
        self.encode_row_key(row).len() + row.byte_size()
    }
}

/// The catalog: every logical table known to the SQL skin.
///
/// Every mutation stamps the catalog with a process-globally unique
/// [`Catalog::version`], so plan caches (see [`crate::Session`]) can detect
/// that a cached plan was compiled against stale definitions without
/// comparing table contents.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Definitions are stored behind `Arc` so compiled plans can hold them
    /// without deep-cloning the per-table symbol and index maps on every
    /// planning pass.
    tables: BTreeMap<String, Arc<TableDef>>,
    /// Indexes grouped by the table they index (`TableKind::Index.of`).
    indexes_of: BTreeMap<String, Vec<String>>,
    /// Index tables that exist only for view maintenance (delta-join
    /// probes).  Every write path maintains them like any other index, but
    /// the read optimizer never selects them, so adding one cannot change a
    /// read plan (or its simulated cost).
    maintenance_indexes: std::collections::BTreeSet<String>,
    /// Stamp of the last mutation (globally unique across all catalogs).
    version: u64,
}

/// Logical equality: two catalogs are equal when they define the same
/// tables, regardless of the mutation history that built them (the
/// `version` stamp is cache bookkeeping, not part of the schema).
impl PartialEq for Catalog {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
            && self.indexes_of == other.indexes_of
            && self.maintenance_indexes == other.maintenance_indexes
    }
}

/// Hands out process-globally unique version stamps for catalog mutations.
fn next_catalog_version() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The stamp of the last mutation.  Globally unique per mutation, so
    /// two catalogs that went through different mutations never share a
    /// version — the property plan-cache invalidation relies on.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Adds (or replaces) a table definition.
    pub fn add_table(&mut self, def: TableDef) {
        if let TableKind::Index { of } = &def.kind {
            self.indexes_of
                .entry(of.clone())
                .or_default()
                .push(def.name.clone());
        }
        self.tables.insert(def.name.clone(), Arc::new(def));
        self.version = next_catalog_version();
    }

    /// Removes a table definition.
    pub fn remove_table(&mut self, name: &str) {
        if let Some(def) = self.tables.remove(name) {
            if let TableKind::Index { of } = &def.kind {
                if let Some(list) = self.indexes_of.get_mut(of) {
                    list.retain(|n| n != name);
                }
            }
            self.maintenance_indexes.remove(name);
            self.version = next_catalog_version();
        }
    }

    /// Flags an already-added index table as **maintenance-only**: writes
    /// keep it up to date, delta-join probes may use it, but read planning
    /// ignores it (see [`crate::select_probe_access`]).
    pub fn mark_maintenance_index(&mut self, name: &str) {
        if self.maintenance_indexes.insert(name.to_string()) {
            self.version = next_catalog_version();
        }
    }

    /// True when `name` is a maintenance-only index table.
    pub fn is_maintenance_index(&self, name: &str) -> bool {
        self.maintenance_indexes.contains(name)
    }

    /// Looks up a table definition.
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Looks up a table definition as a shared handle (what compiled plans
    /// hold — cloning the handle is a reference-count bump, not a copy of
    /// the symbol tables).
    pub fn table_shared(&self, name: &str) -> Option<Arc<TableDef>> {
        self.tables.get(name).cloned()
    }

    /// [`Catalog::table_shared`], ignoring ASCII case.
    pub fn table_shared_ci(&self, name: &str) -> Option<Arc<TableDef>> {
        self.tables.get(name).cloned().or_else(|| {
            self.tables
                .values()
                .find(|t| t.name.eq_ignore_ascii_case(name))
                .cloned()
        })
    }

    /// Looks up a table, ignoring ASCII case (SQL identifiers are case
    /// insensitive in the TPC-W workload).
    pub fn table_ci(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(name).map(Arc::as_ref).or_else(|| {
            self.tables
                .values()
                .find(|t| t.name.eq_ignore_ascii_case(name))
                .map(Arc::as_ref)
        })
    }

    /// Names of index tables defined over `table`.
    pub fn indexes_of(&self, table: &str) -> Vec<&TableDef> {
        self.indexes_of
            .get(table)
            .map(|names| {
                names
                    .iter()
                    .filter_map(|n| self.tables.get(n).map(Arc::as_ref))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All table definitions, sorted by name.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values().map(Arc::as_ref)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer_def() -> TableDef {
        TableDef::new(
            "Customer",
            vec![
                ("c_id".into(), ColumnType::Int),
                ("c_uname".into(), ColumnType::Str),
                ("c_discount".into(), ColumnType::Float),
            ],
            vec!["c_id".into()],
            TableKind::Base,
        )
    }

    #[test]
    fn encode_and_decode_round_trip() {
        let def = customer_def();
        let row = Row::new()
            .with("c_id", 42)
            .with("c_uname", "alice")
            .with("c_discount", 0.05);
        let put = def.row_to_put(&row);
        assert_eq!(put.row, b"42".to_vec());
        assert_eq!(put.cell_count(), 3);
        // Simulate a stored row coming back and decode it.
        let stored = ResultRow {
            key: put.row.clone(),
            cells: put
                .cells
                .iter()
                .map(|(f, q, v)| nosql_store::Cell::new(f.clone(), q.clone(), 1, v.clone()))
                .collect(),
        };
        let decoded = def.decode_row(&stored);
        assert_eq!(decoded.get("c_id"), Some(&Value::Int(42)));
        assert_eq!(decoded.get("c_uname"), Some(&Value::str("alice")));
        assert_eq!(decoded.get("c_discount"), Some(&Value::Float(0.05)));
    }

    #[test]
    fn null_values_are_not_stored() {
        let def = customer_def();
        let row = Row::new().with("c_id", 1).with("c_uname", Value::Null);
        let put = def.row_to_put(&row);
        assert_eq!(put.cell_count(), 1);
    }

    #[test]
    fn key_cover_check_and_prefix() {
        let def = TableDef::new(
            "Works_On",
            vec![
                ("WO_EID".into(), ColumnType::Int),
                ("WO_PNo".into(), ColumnType::Int),
                ("Hours".into(), ColumnType::Int),
            ],
            vec!["WO_EID".into(), "WO_PNo".into()],
            TableKind::Base,
        );
        assert!(def.key_covered_by(&["WO_PNo".into(), "WO_EID".into()]));
        assert!(!def.key_covered_by(&["WO_EID".into()]));
        let row = Row::new().with("WO_EID", 7).with("WO_PNo", 3);
        assert_eq!(def.encode_key_prefix(&row, 1), "7");
        assert!(def.encode_row_key(&row).starts_with("7"));
    }

    #[test]
    #[should_panic(expected = "key attribute")]
    fn key_must_be_a_column() {
        let _ = TableDef::new(
            "Broken",
            vec![("a".into(), ColumnType::Int)],
            vec!["missing".into()],
            TableKind::Base,
        );
    }

    #[test]
    fn catalog_tracks_indexes() {
        let mut catalog = Catalog::new();
        catalog.add_table(customer_def());
        catalog.add_table(TableDef::new(
            "customer_by_uname",
            vec![
                ("c_uname".into(), ColumnType::Str),
                ("c_id".into(), ColumnType::Int),
            ],
            vec!["c_uname".into(), "c_id".into()],
            TableKind::Index {
                of: "Customer".into(),
            },
        ));
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.indexes_of("Customer").len(), 1);
        assert!(catalog.table_ci("CUSTOMER").is_some());
        catalog.remove_table("customer_by_uname");
        assert!(catalog.indexes_of("Customer").is_empty());
    }

    #[test]
    fn column_type_decoding() {
        assert_eq!(ColumnType::Int.decode("17"), Value::Int(17));
        assert_eq!(ColumnType::Float.decode("2.5"), Value::Float(2.5));
        assert_eq!(ColumnType::Str.decode("x"), Value::str("x"));
        assert_eq!(ColumnType::Int.decode(""), Value::Null);
        assert_eq!(ColumnType::Int.decode("garbage"), Value::Null);
    }
}
