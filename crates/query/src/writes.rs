//! Write-statement execution (INSERT / UPDATE / DELETE) and index
//! maintenance, plus the bulk-load path used to populate databases.
//!
//! As in Phoenix, secondary indexes are maintained synchronously with the
//! base-table write: every index table of the written relation receives the
//! corresponding puts/deletes in store operations of its own, each charged
//! separately (one RPC per region a batch of rows touches).

use crate::bind::bind_expr;
use crate::catalog::{Catalog, TableDef, TableKind};
use crate::delta::overlay;
use crate::executor::Executor;
use crate::result::{QueryError, QueryResult};
use nosql_store::ops::{Delete, Get, Mutation, Put};
use relational::{Row, Value};
use sql::{Comparison, Condition, Expr, Statement};
use std::borrow::Borrow;
use std::sync::Arc;

impl Executor {
    // ------------------------------------------------------------------
    // Public load helpers
    // ------------------------------------------------------------------

    /// Inserts one relational row into a table (and all of its index tables),
    /// charging normal per-operation costs: a [`Executor::write_rows`] of
    /// one upsert.  This is the path the write statements of every
    /// evaluated system ultimately use.
    pub fn insert_row(&self, table: &str, row: &Row) -> Result<(), QueryError> {
        self.write(table, &[RowWrite::Upsert(row)], false).map(drop)
    }

    /// Bulk-loads rows into a table and its indexes without charging
    /// simulated time (the offline population phase of the paper's
    /// experiments).
    pub fn bulk_load_rows<'a>(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = &'a Row>,
    ) -> Result<usize, QueryError> {
        let def = self.table_def(table)?;
        let indexes: Vec<TableDef> = self
            .catalog()
            .indexes_of(&def.name)
            .into_iter()
            .cloned()
            .collect();
        let mut count = 0;
        let mut base_puts = Vec::new();
        let mut index_puts: Vec<Vec<Put>> = vec![Vec::new(); indexes.len()];
        for row in rows {
            base_puts.push(def.row_to_put(row));
            for (i, index) in indexes.iter().enumerate() {
                index_puts[i].push(index.row_to_put(row));
            }
            count += 1;
        }
        self.cluster().bulk_load(&def.name, base_puts)?;
        for (i, index) in indexes.iter().enumerate() {
            self.cluster().bulk_load(&index.name, std::mem::take(&mut index_puts[i]))?;
        }
        Ok(count)
    }

    /// Reads one row of a table by its full primary key values.
    pub fn get_row_by_key(&self, table: &str, key: &Row) -> Result<Option<Row>, QueryError> {
        let def = self.table_def(table)?;
        let row_key = def.encode_row_key(key);
        Ok(self
            .cluster()
            .get(&def.name, Get::new(row_key))?
            .map(|stored| def.decode_row(&stored)))
    }

    /// Deletes one row of a table (and its index entries) by primary key.
    pub fn delete_row_by_key(&self, table: &str, key: &Row) -> Result<bool, QueryError> {
        Ok(self.write(table, &[RowWrite::Remove(key)], false)?.1 == 1)
    }

    /// Writes one full row (an update's merged image) and returns the
    /// row's **before-image**: a [`Executor::write_rows`] of one upsert,
    /// read atomically with it.
    pub fn update_row(&self, table: &str, updated: &Row) -> Result<Option<Row>, QueryError> {
        let (mut before, _) = self.write(table, &[RowWrite::Upsert(updated)], true)?;
        Ok(before.pop().flatten())
    }

    /// Writes many rows of one table and returns how many rows it touched:
    /// every upsert, and every removal that found its row.
    ///
    /// The table's rows go to the store as one [`nosql_store::Cluster::batch`]
    /// (one RPC per region).  A table with indexes fetches the rows'
    /// before-images in the same round trips — no separately charged read —
    /// and maintains each index table from them in at most two more
    /// batches: the entries whose keys the writes changed or removed are
    /// deleted, then every upserted row's entry is put.
    pub fn write_rows(&self, table: &str, writes: &[RowWrite]) -> Result<usize, QueryError> {
        Ok(self.write(table, writes, false)?.1)
    }

    /// [`Executor::write_rows`], returning each row's before-image too (in
    /// `writes` order; empty unless `fetch` or the table has indexes).
    fn write<R: Borrow<Row>>(
        &self,
        table: &str,
        writes: &[RowWrite<R>],
        fetch: bool,
    ) -> Result<(Vec<Option<Row>>, usize), QueryError> {
        let def = self.table_def(table)?;
        let mut rows = Vec::with_capacity(writes.len());
        for write in writes {
            rows.push(match write {
                RowWrite::Upsert(row) => {
                    self.check_key_present(&def, row.borrow())?;
                    Mutation::Put(def.row_to_put(row.borrow()))
                }
                RowWrite::Remove(key) => {
                    Mutation::Delete(Delete::row(def.encode_row_key(key.borrow())))
                }
            });
        }
        let indexes = self.catalog().indexes_of(&def.name);
        if !fetch && indexes.is_empty() {
            return Ok((Vec::new(), self.cluster().batch(&def.name, &rows)?));
        }
        let stored = self.cluster().batch_fetch(&def.name, &rows)?;
        let before: Vec<Option<Row>> =
            stored.iter().map(|row| row.as_ref().map(|row| def.decode_row(row))).collect();
        let found = |(write, before): (&RowWrite<R>, &Option<Row>)| {
            matches!(write, RowWrite::Upsert(_)) || before.is_some()
        };
        let touched = writes.iter().zip(&before).filter(|&pair| found(pair)).count();
        for index in indexes {
            let (mut stale, mut fresh) = (Vec::new(), Vec::new());
            for (write, before) in writes.iter().zip(&before) {
                let new_key = match write {
                    RowWrite::Upsert(row) => {
                        fresh.push(Mutation::Put(index.row_to_put(row.borrow())));
                        Some(index.encode_row_key(row.borrow()))
                    }
                    RowWrite::Remove(_) => None,
                };
                let old_key = before.as_ref().map(|row| index.encode_row_key(row));
                if let Some(old_key) = old_key.filter(|old| Some(old) != new_key.as_ref()) {
                    stale.push(Mutation::Delete(Delete::row(old_key)));
                }
            }
            self.cluster().batch(&index.name, &stale)?;
            self.cluster().batch(&index.name, &fresh)?;
        }
        Ok((before, touched))
    }

    /// The definition of `table` (ASCII case ignored), as a shared handle.
    fn table_def(&self, table: &str) -> Result<Arc<TableDef>, QueryError> {
        self.catalog()
            .table_shared_ci(table)
            .ok_or_else(|| QueryError::UnknownTable(table.to_string()))
    }

    fn check_key_present(&self, def: &TableDef, row: &Row) -> Result<(), QueryError> {
        for k in &def.key {
            if row.get(k).map(Value::is_null).unwrap_or(true) {
                return Err(QueryError::IncompleteKey {
                    table: def.name.clone(),
                    missing: k.clone(),
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Executes a bound write statement: the one-shot path of every system
    /// without a transaction layer of its own.
    pub(crate) fn execute_write(&self, write: BoundWrite) -> Result<QueryResult, QueryError> {
        let table = &write.table.name;
        match write.change {
            WriteChange::Insert(row) => {
                self.insert_row(table, &row)?;
                Ok(QueryResult::affected(1))
            }
            WriteChange::Update { key, assignments } => {
                let Some(existing) = self.get_row_by_key(table, &key)? else {
                    return Ok(QueryResult::affected(0));
                };
                self.update_row(table, &overlay(&existing, &assignments))?;
                Ok(QueryResult::affected(1))
            }
            WriteChange::Delete { key } => {
                let removed = self.delete_row_by_key(table, &key)?;
                Ok(QueryResult::affected(usize::from(removed)))
            }
        }
    }
}

/// One row of an [`Executor::write_rows`], owning its row (`R` = [`Row`])
/// or borrowing it.
#[derive(Debug, Clone)]
pub enum RowWrite<R = Row> {
    /// Write this full row image, whether or not its key exists.
    Upsert(R),
    /// Delete the row stored under these key attributes.
    Remove(R),
}

/// A write statement bound against the catalog: the written table and what
/// the statement does to it, parameters substituted.
#[derive(Debug, Clone)]
pub struct BoundWrite {
    /// Definition of the written table.
    pub table: Arc<TableDef>,
    /// The change to apply to it.
    pub change: WriteChange,
}

/// What a [`BoundWrite`] does to its table.
#[derive(Debug, Clone)]
pub enum WriteChange {
    /// Insert this row.
    Insert(Row),
    /// Overlay `assignments` on the row stored under the full primary `key`.
    Update {
        /// The full primary key, from the statement's equality filters.
        key: Row,
        /// The assigned columns and their new values.
        assignments: Row,
    },
    /// Delete the row stored under the full primary `key`.
    Delete {
        /// The full primary key, from the statement's equality filters.
        key: Row,
    },
}

/// Binds a write statement: resolves its table, checks that every written
/// column exists, substitutes the parameters and extracts the full primary
/// key from the WHERE clause.  Touches the catalog only — no store operation,
/// no simulated cost — so [`Executor::execute`] and Synergy's transaction
/// layer share it and reject the same statements.
///
/// Errors: [`QueryError::UnknownTable`], [`QueryError::UnknownColumn`],
/// [`QueryError::MissingParameter`], [`QueryError::IncompleteKey`] when an
/// UPDATE or DELETE does not fix every key attribute by equality (paper §IV:
/// such write shapes are excluded from the workload), and
/// [`QueryError::Unsupported`] for a SELECT or an UPDATE that assigns a key
/// column.
pub fn bind_write(
    catalog: &Catalog,
    statement: &Statement,
    params: &[Value],
) -> Result<BoundWrite, QueryError> {
    let table_of = |name: &String| {
        catalog
            .table_shared_ci(name)
            .ok_or_else(|| QueryError::UnknownTable(name.clone()))
    };
    match statement {
        Statement::Insert(insert) => {
            let table = table_of(&insert.table)?;
            let row = bind_columns(&table, insert.columns.iter().zip(&insert.values), params)?;
            Ok(BoundWrite {
                table,
                change: WriteChange::Insert(row),
            })
        }
        Statement::Update(update) => {
            let table = table_of(&update.table)?;
            if let Some((column, _)) = update.assignments.iter().find(|(c, _)| table.key.contains(c)) {
                // The after-image would land under a new key and leave the
                // old row in place.
                return Err(QueryError::Unsupported(format!(
                    "an UPDATE assigning key column {}.{column}",
                    table.name
                )));
            }
            let key = bind_key(&table, &update.conditions, params)?;
            let assigned = update
                .assignments
                .iter()
                .map(|(column, expr)| (column, expr));
            let assignments = bind_columns(&table, assigned, params)?;
            Ok(BoundWrite {
                table,
                change: WriteChange::Update { key, assignments },
            })
        }
        Statement::Delete(delete) => {
            let table = table_of(&delete.table)?;
            let key = bind_key(&table, &delete.conditions, params)?;
            Ok(BoundWrite {
                table,
                change: WriteChange::Delete { key },
            })
        }
        Statement::Select(_) => Err(QueryError::Unsupported(
            "a SELECT is not a write statement".into(),
        )),
    }
}

/// The written columns of an INSERT or UPDATE with their bound values; a
/// column the table does not have is an error.
fn bind_columns<'a>(
    table: &TableDef,
    written: impl Iterator<Item = (&'a String, &'a Expr)>,
    params: &[Value],
) -> Result<Row, QueryError> {
    let mut row = Row::new();
    for (column, expr) in written {
        if table.column_type(column).is_none() {
            return Err(QueryError::UnknownColumn(format!(
                "{}.{}",
                table.name, column
            )));
        }
        row.set(column, bind_expr(expr, params)?);
    }
    Ok(row)
}

/// The full primary key of `table` from the equality filters of a WHERE
/// clause; a key attribute no filter fixes is an error.
fn bind_key(
    table: &TableDef,
    conditions: &[Condition],
    params: &[Value],
) -> Result<Row, QueryError> {
    let mut key = Row::with_capacity(table.key.len());
    for attribute in &table.key {
        let filter = conditions
            .iter()
            .find(|c| c.op == Comparison::Eq && c.is_filter() && c.left.column == *attribute)
            .ok_or_else(|| QueryError::IncompleteKey {
                table: table.name.clone(),
                missing: attribute.clone(),
            })?;
        key.set(attribute, bind_expr(&filter.right, params)?);
    }
    Ok(key)
}

// Re-exported for the baseline module's table creation helper.
pub(crate) fn is_physical_kind(kind: &TableKind) -> bool {
    matches!(
        kind,
        TableKind::Base | TableKind::Index { .. } | TableKind::View | TableKind::Lock
    )
}
