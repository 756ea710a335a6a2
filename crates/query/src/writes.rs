//! Write-statement execution (INSERT / UPDATE / DELETE) and index
//! maintenance, plus the bulk-load path used to populate databases.
//!
//! As in Phoenix, secondary indexes are maintained synchronously with the
//! base-table write: every index table of the written relation receives the
//! corresponding put/delete, and each of those is a separately charged store
//! operation.

use crate::bind::bind_expr;
use crate::catalog::{Catalog, TableDef, TableKind};
use crate::delta::overlay;
use crate::executor::Executor;
use crate::result::{QueryError, QueryResult};
use nosql_store::ops::{Delete, Get, Put};
use relational::{Row, Value};
use sql::{Comparison, Condition, Expr, Statement};
use std::sync::Arc;

impl Executor {
    // ------------------------------------------------------------------
    // Public load helpers
    // ------------------------------------------------------------------

    /// Inserts one relational row into a table (and all of its index tables),
    /// charging normal per-operation costs.  This is the path the write
    /// statements of every evaluated system ultimately use.
    pub fn insert_row(&self, table: &str, row: &Row) -> Result<(), QueryError> {
        let def = self.table_def(table)?;
        self.check_key_present(&def, row)?;
        self.cluster().put(&def.name, def.row_to_put(row))?;
        for index in self.catalog().indexes_of(&def.name) {
            self.cluster().put(&index.name, index.row_to_put(row))?;
        }
        Ok(())
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
        Ok(self.delete_row_fetch(table, key)?.is_some())
    }

    /// Deletes one row by primary key and returns its **before-image**.
    ///
    /// The prior row contents ride the delete's own store round trip
    /// ([`nosql_store::Cluster::delete_fetch`]) — no separately charged
    /// read — and also drive index-entry cleanup, so a keyed delete now
    /// costs one store delete per table touched instead of a get plus a
    /// delete.  The before-image is what update/delete delta propagation
    /// needs to retract the old row from dependent views.
    pub fn delete_row_fetch(&self, table: &str, key: &Row) -> Result<Option<Row>, QueryError> {
        let def = self.table_def(table)?;
        let row_key = def.encode_row_key(key);
        let before = self
            .cluster()
            .delete_fetch(&def.name, Delete::row(row_key))?
            .map(|stored| def.decode_row(&stored));
        if let Some(existing) = &before {
            for index in self.catalog().indexes_of(&def.name) {
                let index_key = index.encode_row_key(existing);
                self.cluster().delete(&index.name, Delete::row(index_key))?;
            }
        }
        Ok(before)
    }

    /// Writes one full row (an update's merged image) and returns the
    /// row's **before-image**, read atomically with the write
    /// ([`nosql_store::Cluster::put_fetch`]).  Index entries whose keys
    /// changed are rewritten against that authoritative prior image, so
    /// callers that already merged assignments do not pay a second read.
    pub fn update_row(&self, table: &str, updated: &Row) -> Result<Option<Row>, QueryError> {
        let def = self.table_def(table)?;
        self.check_key_present(&def, updated)?;
        let before = self
            .cluster()
            .put_fetch(&def.name, def.row_to_put(updated))?
            .map(|stored| def.decode_row(&stored));
        for index in self.catalog().indexes_of(&def.name) {
            if let Some(existing) = &before {
                let old_key = index.encode_row_key(existing);
                let new_key = index.encode_row_key(updated);
                if old_key != new_key {
                    self.cluster().delete(&index.name, Delete::row(old_key))?;
                }
            }
            self.cluster().put(&index.name, index.row_to_put(updated))?;
        }
        Ok(before)
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
/// [`QueryError::Unsupported`] for a SELECT.
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
