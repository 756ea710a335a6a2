//! The partitioned in-memory engine.

use parking_lot::Mutex;
use relational::{encode_key, Row, Value};
use simclock::{CostModel, SimClock};
use sql::{
    AggregateFunction, ColumnRef, Comparison, Condition, Expr, SelectItem, SelectStatement,
    Statement,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How a table is laid out across partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableDistribution {
    /// Rows are hashed on one column across the partitions.
    Partitioned {
        /// The partitioning column.
        column: String,
    },
    /// The full table is copied to every partition.
    Replicated,
}

/// A partitioning scheme: table → distribution, built from
/// `PartitionScheme::default()`.  The paper evaluates three different
/// schemes because no single one supports every TPC-W join.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionScheme {
    /// Distribution per table.
    pub tables: BTreeMap<String, TableDistribution>,
}

impl PartitionScheme {
    /// Declares a table partitioned on `column`.
    pub fn partitioned(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.tables.insert(
            table.into(),
            TableDistribution::Partitioned {
                column: column.into(),
            },
        );
        self
    }

    /// Declares a replicated table.
    pub fn replicated(mut self, table: impl Into<String>) -> Self {
        self.tables.insert(table.into(), TableDistribution::Replicated);
        self
    }
}

/// Errors returned by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum NewSqlError {
    /// The statement referenced an undeclared table.
    UnknownTable(String),
    /// The join is not expressible under the partitioning scheme
    /// (partitioned tables must join on their partitioning columns).
    UnsupportedJoin {
        /// Human-readable explanation naming the offending tables.
        reason: String,
    },
    /// A `?` parameter had no bound value.
    MissingParameter(usize),
    /// Write statements must identify rows by the table's key.
    IncompleteKey {
        /// The table being written.
        table: String,
    },
    /// An UPDATE may not assign a key column (the row would move keys).
    KeyAssignment {
        /// The table being written.
        table: String,
        /// The assigned key column.
        column: String,
    },
}

impl fmt::Display for NewSqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NewSqlError::UnknownTable(t) => write!(f, "unknown table {t}"),
            NewSqlError::UnsupportedJoin { reason } => write!(f, "unsupported join: {reason}"),
            NewSqlError::MissingParameter(i) => write!(f, "missing parameter {i}"),
            NewSqlError::IncompleteKey { table } => {
                write!(f, "write to {table} must specify the full key")
            }
            NewSqlError::KeyAssignment { table, column } => {
                write!(f, "UPDATE of {table} must not assign key column {column}")
            }
        }
    }
}

impl std::error::Error for NewSqlError {}

#[derive(Debug, Clone)]
struct TableMeta {
    key: Vec<String>,
    distribution: TableDistribution,
}

#[derive(Default)]
struct Partition {
    /// table → key → row
    tables: BTreeMap<String, BTreeMap<String, Row>>,
}

/// The VoltDB-class engine.
#[derive(Clone)]
pub struct NewSqlEngine {
    clock: SimClock,
    model: CostModel,
    meta: Arc<Mutex<BTreeMap<String, TableMeta>>>,
    partitions: Arc<Vec<Mutex<Partition>>>,
}

impl NewSqlEngine {
    /// Creates an engine with `partitions` partitions (the paper uses a five
    /// node VoltDB cluster) charging costs into `clock`.
    pub fn new(partitions: usize, clock: SimClock, model: CostModel) -> Self {
        NewSqlEngine {
            clock,
            model,
            meta: Arc::new(Mutex::new(BTreeMap::new())),
            partitions: Arc::new((0..partitions.max(1)).map(|_| Mutex::new(Partition::default())).collect()),
        }
    }

    /// Declares a table with its key and distribution.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        key: Vec<String>,
        distribution: TableDistribution,
    ) {
        self.meta.lock().insert(
            name.into(),
            TableMeta {
                key,
                distribution,
            },
        );
    }

    fn meta_for(&self, table: &str) -> Result<(String, TableMeta), NewSqlError> {
        let metas = self.meta.lock();
        metas
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(table))
            .map(|(name, meta)| (name.clone(), meta.clone()))
            .ok_or_else(|| NewSqlError::UnknownTable(table.to_string()))
    }

    fn partition_for(&self, value: &Value) -> usize {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        (hasher.finish() as usize) % self.partitions.len()
    }

    fn row_key(meta: &TableMeta, row: &Row) -> String {
        let values: Vec<Value> = meta
            .key
            .iter()
            .map(|k| row.get(k).cloned().unwrap_or(Value::Null))
            .collect();
        encode_key(values.iter())
    }

    /// Loads a row directly (offline population — charges no simulated time).
    pub fn load_row(&self, table: &str, row: &Row) -> Result<(), NewSqlError> {
        let (name, meta) = self.meta_for(table)?;
        let key = Self::row_key(&meta, row);
        match &meta.distribution {
            TableDistribution::Replicated => {
                for partition in self.partitions.iter() {
                    partition
                        .lock()
                        .tables
                        .entry(name.clone())
                        .or_default()
                        .insert(key.clone(), row.clone());
                }
            }
            TableDistribution::Partitioned { column } => {
                let value = row.get(column).cloned().unwrap_or(Value::Null);
                let idx = self.partition_for(&value);
                self.partitions[idx]
                    .lock()
                    .tables
                    .entry(name)
                    .or_default()
                    .insert(key, row.clone());
            }
        }
        Ok(())
    }

    /// Bulk-loads rows.
    pub fn load_rows<'a>(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = &'a Row>,
    ) -> Result<usize, NewSqlError> {
        let mut n = 0;
        for row in rows {
            self.load_row(table, row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Number of (logical) rows stored in a table.
    pub fn row_count(&self, table: &str) -> Result<usize, NewSqlError> {
        let (name, meta) = self.meta_for(table)?;
        let count: usize = match meta.distribution {
            TableDistribution::Replicated => self.partitions[0]
                .lock()
                .tables
                .get(&name)
                .map(|t| t.len())
                .unwrap_or(0),
            TableDistribution::Partitioned { .. } => self
                .partitions
                .iter()
                .map(|p| p.lock().tables.get(&name).map(|t| t.len()).unwrap_or(0))
                .sum(),
        };
        Ok(count)
    }

    /// Approximate stored bytes across all partitions, counting replicated
    /// tables once (VoltDB's logical database size in the paper's Table III).
    pub fn database_size_bytes(&self) -> u64 {
        let metas = self.meta.lock();
        let mut total = 0u64;
        for (name, meta) in metas.iter() {
            let logical_rows: u64 = match meta.distribution {
                TableDistribution::Replicated => self.partitions[0]
                    .lock()
                    .tables
                    .get(name)
                    .map(|t| t.values().map(|r| r.byte_size() as u64).sum())
                    .unwrap_or(0),
                TableDistribution::Partitioned { .. } => self
                    .partitions
                    .iter()
                    .map(|p| {
                        p.lock()
                            .tables
                            .get(name)
                            .map(|t| t.values().map(|r| r.byte_size() as u64).sum())
                            .unwrap_or(0)
                    })
                    .sum(),
            };
            total += logical_rows;
        }
        total
    }

    fn all_rows(&self, table: &str) -> Result<Vec<Row>, NewSqlError> {
        let (name, meta) = self.meta_for(table)?;
        Ok(match meta.distribution {
            TableDistribution::Replicated => self.partitions[0]
                .lock()
                .tables
                .get(&name)
                .map(|t| t.values().cloned().collect())
                .unwrap_or_default(),
            TableDistribution::Partitioned { .. } => self
                .partitions
                .iter()
                .flat_map(|p| {
                    p.lock()
                        .tables
                        .get(&name)
                        .map(|t| t.values().cloned().collect::<Vec<_>>())
                        .unwrap_or_default()
                })
                .collect(),
        })
    }

    /// Validates a join query against the partitioning scheme: every pair of
    /// *partitioned* tables must be connected by an equi-join on both tables'
    /// partitioning columns (possibly transitively through other partitioned
    /// tables); replicated tables may join freely.  A table may not appear
    /// twice unless it is replicated.
    pub fn check_join_supported(&self, select: &SelectStatement) -> Result<(), NewSqlError> {
        let metas = self.meta.lock();
        let mut partitioned_aliases: Vec<(String, String, String)> = Vec::new(); // (alias, table, part col)
        for table_ref in &select.from {
            let Some((name, meta)) = metas
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(&table_ref.table))
            else {
                return Err(NewSqlError::UnknownTable(table_ref.table.clone()));
            };
            if let TableDistribution::Partitioned { column } = &meta.distribution {
                // A partitioned table may appear more than once (self-join)
                // only when every occurrence joins on the partitioning
                // column, which the union-find below enforces.
                partitioned_aliases.push((table_ref.alias.clone(), name.clone(), column.clone()));
            }
        }
        if partitioned_aliases.len() <= 1 {
            return Ok(());
        }
        // Union-find over the partitioned aliases: an equi-join on both
        // sides' partitioning columns merges their groups.
        let mut parent: Vec<usize> = (0..partitioned_aliases.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for condition in select.join_conditions() {
            let Expr::Column(right) = &condition.right else {
                continue;
            };
            let left = &condition.left;
            let find_alias = |col: &ColumnRef| {
                partitioned_aliases.iter().position(|(alias, _, part_col)| {
                    col.qualifier.as_deref() == Some(alias.as_str())
                        && col.column.eq_ignore_ascii_case(part_col)
                })
            };
            if let (Some(a), Some(b)) = (find_alias(left), find_alias(right)) {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
        }
        let root0 = find(&mut parent, 0);
        for i in 1..partitioned_aliases.len() {
            if find(&mut parent, i) != root0 {
                return Err(NewSqlError::UnsupportedJoin {
                    reason: format!(
                        "partitioned tables {} and {} are not joined on their partitioning columns",
                        partitioned_aliases[0].1, partitioned_aliases[i].1
                    ),
                });
            }
        }
        Ok(())
    }

    /// Executes a statement with positional parameters.
    pub fn execute(&self, statement: &Statement, params: &[Value]) -> Result<Vec<Row>, NewSqlError> {
        match statement {
            Statement::Select(select) => self.execute_select(select, params),
            Statement::Insert(insert) => {
                let mut row = Row::new();
                for (column, expr) in insert.columns.iter().zip(&insert.values) {
                    row.set(column.clone(), bind(expr, params)?);
                }
                let (name, meta) = self.meta_for(&insert.table)?;
                self.charge_write(&meta, 1);
                self.store_row(&name, &meta, row)?;
                Ok(Vec::new())
            }
            Statement::Update(update) => {
                let (name, meta) = self.meta_for(&update.table)?;
                if let Some((column, _)) = update.assignments.iter().find(|(c, _)| meta.key.contains(c)) {
                    return Err(NewSqlError::KeyAssignment {
                        table: name,
                        column: column.clone(),
                    });
                }
                let assignments = update.assignments.iter()
                    .map(|(column, expr)| Ok((column, bind(expr, params)?)))
                    .collect::<Result<Vec<_>, NewSqlError>>()?;
                let key = self.key_from_conditions(&name, &meta, &update.conditions, params)?;
                self.charge_write(&meta, 1);
                self.apply_to_row(&name, &meta, |table| match table.get_mut(&key) {
                    Some(row) => {
                        for (column, v) in &assignments {
                            row.set(column, v.clone());
                        }
                        true
                    }
                    None => false,
                });
                Ok(Vec::new())
            }
            Statement::Delete(delete) => {
                let (name, meta) = self.meta_for(&delete.table)?;
                let key = self.key_from_conditions(&name, &meta, &delete.conditions, params)?;
                self.charge_write(&meta, 1);
                self.apply_to_row(&name, &meta, |table| table.remove(&key).is_some());
                Ok(Vec::new())
            }
        }
    }

    fn charge_write(&self, meta: &TableMeta, rows: u64) {
        let replicated = matches!(meta.distribution, TableDistribution::Replicated);
        self.clock
            .charge(self.model.newsql_write_cost(rows, replicated));
    }

    fn store_row(&self, name: &str, meta: &TableMeta, row: Row) -> Result<(), NewSqlError> {
        let key = Self::row_key(meta, &row);
        if key.is_empty() {
            return Err(NewSqlError::IncompleteKey {
                table: name.to_string(),
            });
        }
        match &meta.distribution {
            TableDistribution::Replicated => {
                for partition in self.partitions.iter() {
                    partition
                        .lock()
                        .tables
                        .entry(name.to_string())
                        .or_default()
                        .insert(key.clone(), row.clone());
                }
            }
            TableDistribution::Partitioned { column } => {
                let value = row.get(column).cloned().unwrap_or(Value::Null);
                let idx = self.partition_for(&value);
                self.partitions[idx]
                    .lock()
                    .tables
                    .entry(name.to_string())
                    .or_default()
                    .insert(key, row);
            }
        }
        Ok(())
    }

    /// Applies `op` to table `name` partition by partition until `op`
    /// reports the row found in a partitioned table; every replica of a
    /// replicated table sees it.
    fn apply_to_row(&self, name: &str, meta: &TableMeta, op: impl Fn(&mut BTreeMap<String, Row>) -> bool) {
        let partitioned = matches!(meta.distribution, TableDistribution::Partitioned { .. });
        for partition in self.partitions.iter() {
            let found = partition.lock().tables.get_mut(name).is_some_and(&op);
            if found && partitioned {
                break;
            }
        }
    }

    fn key_from_conditions(
        &self,
        name: &str,
        meta: &TableMeta,
        conditions: &[Condition],
        params: &[Value],
    ) -> Result<String, NewSqlError> {
        let mut key_row = Row::new();
        for attribute in &meta.key {
            let value = conditions
                .iter()
                .find(|c| c.op == Comparison::Eq && c.is_filter() && &c.left.column == attribute)
                .map(|c| bind(&c.right, params))
                .transpose()?;
            match value {
                Some(v) => {
                    key_row.set(attribute.clone(), v);
                }
                None => {
                    return Err(NewSqlError::IncompleteKey {
                        table: name.to_string(),
                    })
                }
            }
        }
        Ok(Self::row_key(meta, &key_row))
    }

    // ------------------------------------------------------------------
    // SELECT evaluation (in-memory)
    // ------------------------------------------------------------------

    fn execute_select(
        &self,
        select: &SelectStatement,
        params: &[Value],
    ) -> Result<Vec<Row>, NewSqlError> {
        self.check_join_supported(select)?;

        // Fetch and qualify rows per alias, applying single-alias filters.
        let mut per_alias: Vec<(String, Vec<Row>)> = Vec::new();
        let mut total_rows = 0u64;
        for table_ref in &select.from {
            let rows = self.all_rows(&table_ref.table)?;
            let single = select.from.len() == 1;
            let mut qualified = Vec::with_capacity(rows.len());
            for row in rows {
                let mut out = Row::new();
                for (k, v) in row.iter() {
                    out.set(format!("{}.{k}", table_ref.alias), v.clone());
                    if single {
                        out.set(k, v.clone());
                    }
                }
                qualified.push(out);
            }
            // Single-alias filters.
            let filtered: Vec<Row> = qualified
                .into_iter()
                .filter(|row| {
                    select.conditions.iter().all(|c| {
                        if !c.is_filter() {
                            return true;
                        }
                        let belongs = c.left.qualifier.as_deref() == Some(table_ref.alias.as_str())
                            || (c.left.qualifier.is_none() && single);
                        if !belongs {
                            return true;
                        }
                        let Ok(v) = bind(&c.right, params) else {
                            return false;
                        };
                        row.get(&c.left.column)
                            .map(|l| c.op.evaluate(l, &v))
                            .unwrap_or(false)
                    })
                })
                .collect();
            total_rows += filtered.len() as u64;
            per_alias.push((table_ref.alias.clone(), filtered));
        }
        self.clock
            .charge(self.model.newsql_statement_cost(total_rows, false));

        // Fold hash joins left to right.
        let mut iter = per_alias.into_iter();
        let (_, mut joined) = iter.next().unwrap_or_default();
        let mut joined_aliases = vec![select.from[0].alias.clone()];
        for (alias, rows) in iter {
            let join_conds: Vec<&Condition> = select
                .conditions
                .iter()
                .filter(|c| {
                    c.is_equi_join()
                        && match (&c.left.qualifier, &c.right) {
                            (Some(lq), Expr::Column(r)) => {
                                let rq = r.qualifier.as_deref().unwrap_or("");
                                (lq == &alias && joined_aliases.iter().any(|j| j == rq))
                                    || (rq == alias && joined_aliases.iter().any(|j| j == lq))
                            }
                            _ => false,
                        }
                })
                .collect();
            let mut build: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
            for row in &rows {
                let key: Option<Vec<Value>> = join_conds
                    .iter()
                    .map(|c| {
                        let col = side_for(c, &alias);
                        row.get(&format!("{alias}.{}", col.column)).cloned()
                    })
                    .collect();
                if let Some(key) = key {
                    build.entry(key).or_default().push(row);
                }
            }
            let mut next = Vec::new();
            for row in &joined {
                let key: Option<Vec<Value>> = join_conds
                    .iter()
                    .map(|c| {
                        let col = other_side_for(c, &alias);
                        row.get(&col.qualified_name()).or_else(|| row.get(&col.column)).cloned()
                    })
                    .collect();
                let Some(key) = key else { continue };
                if join_conds.is_empty() {
                    for r in &rows {
                        let mut merged = row.clone();
                        for (k, v) in r.iter() {
                            merged.set(k, v.clone());
                        }
                        next.push(merged);
                    }
                } else if let Some(matches) = build.get(&key) {
                    for r in matches {
                        let mut merged = row.clone();
                        for (k, v) in r.iter() {
                            merged.set(k, v.clone());
                        }
                        next.push(merged);
                    }
                }
            }
            joined = next;
            joined_aliases.push(alias);
        }

        // Residual conditions (cross-alias non-equi etc.).
        let mut rows: Vec<Row> = joined
            .into_iter()
            .filter(|row| {
                select.conditions.iter().all(|c| {
                    let left = row
                        .get(&c.left.qualified_name())
                        .or_else(|| row.get(&c.left.column));
                    let Some(left) = left else { return true };
                    match &c.right {
                        Expr::Column(rc) => row
                            .get(&rc.qualified_name())
                            .or_else(|| row.get(&rc.column))
                            .map(|r| c.op.evaluate(left, r))
                            .unwrap_or(true),
                        other => bind(other, params)
                            .map(|v| c.op.evaluate(left, &v))
                            .unwrap_or(false),
                    }
                })
            })
            .collect();

        // GROUP BY + aggregates.
        if select.has_aggregates() || !select.group_by.is_empty() {
            let mut groups: BTreeMap<Vec<Value>, Vec<Row>> = BTreeMap::new();
            for row in rows {
                let key: Vec<Value> = select
                    .group_by
                    .iter()
                    .map(|c| {
                        row.get(&c.qualified_name())
                            .or_else(|| row.get(&c.column))
                            .cloned()
                            .unwrap_or(Value::Null)
                    })
                    .collect();
                groups.entry(key).or_default().push(row);
            }
            if groups.is_empty() && select.group_by.is_empty() {
                groups.insert(Vec::new(), Vec::new());
            }
            rows = groups
                .into_iter()
                .map(|(key, members)| {
                    let mut row = Row::new();
                    for (i, col) in select.group_by.iter().enumerate() {
                        row.set(col.column.clone(), key[i].clone());
                    }
                    for item in &select.items {
                        match item {
                            SelectItem::Aggregate {
                                function,
                                argument,
                                alias,
                            } => {
                                let value = aggregate(*function, argument.as_ref(), &members);
                                let name = alias.clone().unwrap_or_else(|| format!("{function}"));
                                row.set(name, value);
                            }
                            SelectItem::Column { column, alias } => {
                                let value = members
                                    .first()
                                    .and_then(|m| {
                                        m.get(&column.qualified_name()).or_else(|| m.get(&column.column))
                                    })
                                    .cloned()
                                    .unwrap_or(Value::Null);
                                row.set(
                                    alias.clone().unwrap_or_else(|| column.column.clone()),
                                    value,
                                );
                            }
                            SelectItem::Wildcard => {
                                if let Some(first) = members.first() {
                                    for (k, v) in first.iter() {
                                        row.set(k, v.clone());
                                    }
                                }
                            }
                        }
                    }
                    row
                })
                .collect();
        }

        // ORDER BY + LIMIT.
        if !select.order_by.is_empty() {
            rows.sort_by(|a, b| {
                for key in &select.order_by {
                    let av = a
                        .get(&key.column.qualified_name())
                        .or_else(|| a.get(&key.column.column))
                        .cloned()
                        .unwrap_or(Value::Null);
                    let bv = b
                        .get(&key.column.qualified_name())
                        .or_else(|| b.get(&key.column.column))
                        .cloned()
                        .unwrap_or(Value::Null);
                    let ord = av.cmp(&bv);
                    let ord = if key.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(limit) = select.limit {
            rows.truncate(limit);
        }
        Ok(rows)
    }
}

fn side_for<'a>(c: &'a Condition, alias: &str) -> &'a ColumnRef {
    if let Expr::Column(right) = &c.right {
        if right.qualifier.as_deref() == Some(alias) {
            return right;
        }
    }
    &c.left
}

fn other_side_for<'a>(c: &'a Condition, alias: &str) -> &'a ColumnRef {
    if let Expr::Column(right) = &c.right {
        if right.qualifier.as_deref() == Some(alias) {
            return &c.left;
        }
        return right;
    }
    &c.left
}

fn bind(expr: &Expr, params: &[Value]) -> Result<Value, NewSqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Parameter(i) => params
            .get(*i)
            .cloned()
            .ok_or(NewSqlError::MissingParameter(*i)),
        Expr::Column(_) => Ok(Value::Null),
    }
}

fn aggregate(function: AggregateFunction, argument: Option<&ColumnRef>, members: &[Row]) -> Value {
    let values: Vec<Value> = match argument {
        None => return Value::Int(members.len() as i64),
        Some(col) => members
            .iter()
            .filter_map(|m| m.get(&col.qualified_name()).or_else(|| m.get(&col.column)).cloned())
            .filter(|v| !v.is_null())
            .collect(),
    };
    match function {
        AggregateFunction::Count => Value::Int(values.len() as i64),
        AggregateFunction::Sum => {
            let sum: f64 = values.iter().filter_map(Value::as_float).sum();
            if values.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(sum as i64)
            } else {
                Value::Float(sum)
            }
        }
        AggregateFunction::Avg => {
            if values.is_empty() {
                Value::Null
            } else {
                Value::Float(values.iter().filter_map(Value::as_float).sum::<f64>() / values.len() as f64)
            }
        }
        AggregateFunction::Min => values.iter().min().cloned().unwrap_or(Value::Null),
        AggregateFunction::Max => values.iter().max().cloned().unwrap_or(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql::parse_statement;

    fn engine() -> NewSqlEngine {
        let engine = NewSqlEngine::new(4, SimClock::new(), CostModel::default());
        engine.create_table(
            "Customer",
            vec!["c_id".into()],
            TableDistribution::Partitioned { column: "c_id".into() },
        );
        engine.create_table(
            "Orders",
            vec!["o_id".into()],
            TableDistribution::Partitioned { column: "o_c_id".into() },
        );
        engine.create_table("Country", vec!["co_id".into()], TableDistribution::Replicated);
        for c in 1..=10i64 {
            engine
                .load_row(
                    "Customer",
                    &Row::new().with("c_id", c).with("c_uname", format!("user{c}")).with("c_co_id", 1),
                )
                .unwrap();
            for o in 0..3i64 {
                engine
                    .load_row(
                        "Orders",
                        &Row::new()
                            .with("o_id", c * 100 + o)
                            .with("o_c_id", c)
                            .with("o_total", (c * 10 + o) as f64),
                    )
                    .unwrap();
            }
        }
        engine
            .load_row("Country", &Row::new().with("co_id", 1).with("co_name", "USA"))
            .unwrap();
        engine
    }

    #[test]
    fn rows_are_distributed_and_counted() {
        let e = engine();
        assert_eq!(e.row_count("Customer").unwrap(), 10);
        assert_eq!(e.row_count("Orders").unwrap(), 30);
        assert_eq!(e.row_count("Country").unwrap(), 1);
        assert!(e.database_size_bytes() > 0);
    }

    #[test]
    fn single_table_select_with_filter() {
        let e = engine();
        let stmt = parse_statement("SELECT * FROM Customer WHERE c_id = ?").unwrap();
        let rows = e.execute(&stmt, &[Value::Int(3)]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("c_uname").unwrap(), &Value::str("user3"));
    }

    #[test]
    fn partition_aligned_join_is_supported() {
        let e = engine();
        let stmt = parse_statement(
            "SELECT * FROM Customer as c, Orders as o WHERE c.c_id = o.o_c_id AND c.c_id = ?",
        )
        .unwrap();
        let rows = e.execute(&stmt, &[Value::Int(2)]).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn replicated_tables_join_freely() {
        let e = engine();
        let stmt = parse_statement(
            "SELECT * FROM Customer as c, Country as co WHERE c.c_co_id = co.co_id",
        )
        .unwrap();
        let rows = e.execute(&stmt, &[]).unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn non_partition_key_join_is_rejected() {
        let e = engine();
        // Joining Orders to Customer on a non-partitioning column (o_id) is
        // not expressible in VoltDB.
        let stmt = parse_statement(
            "SELECT * FROM Customer as c, Orders as o WHERE c.c_id = o.o_id",
        )
        .unwrap();
        let err = e.execute(&stmt, &[]).unwrap_err();
        assert!(matches!(err, NewSqlError::UnsupportedJoin { .. }));
    }

    #[test]
    fn self_join_support_depends_on_partitioning_column() {
        let e = engine();
        // Both sides join on the partitioning column (o_c_id): expressible as
        // a single-partition statement, so it is supported.
        let aligned = parse_statement(
            "SELECT * FROM Orders as a, Orders as b WHERE a.o_c_id = b.o_c_id",
        )
        .unwrap();
        assert!(e.execute(&aligned, &[]).is_ok());
        // Joining on a non-partitioning column is not expressible.
        let misaligned = parse_statement(
            "SELECT * FROM Orders as a, Orders as b WHERE a.o_id = b.o_c_id",
        )
        .unwrap();
        assert!(matches!(
            e.execute(&misaligned, &[]),
            Err(NewSqlError::UnsupportedJoin { .. })
        ));
    }

    #[test]
    fn writes_and_aggregates_work() {
        let e = engine();
        e.execute(
            &parse_statement("INSERT INTO Customer (c_id, c_uname, c_co_id) VALUES (?, ?, ?)").unwrap(),
            &[Value::Int(11), Value::str("user11"), Value::Int(1)],
        )
        .unwrap();
        assert_eq!(e.row_count("Customer").unwrap(), 11);
        e.execute(
            &parse_statement("UPDATE Customer SET c_uname = ? WHERE c_id = ?").unwrap(),
            &[Value::str("renamed"), Value::Int(11)],
        )
        .unwrap();
        let rows = e
            .execute(&parse_statement("SELECT * FROM Customer WHERE c_id = 11").unwrap(), &[])
            .unwrap();
        assert_eq!(rows[0].get("c_uname").unwrap(), &Value::str("renamed"));
        e.execute(
            &parse_statement("DELETE FROM Customer WHERE c_id = ?").unwrap(),
            &[Value::Int(11)],
        )
        .unwrap();
        assert_eq!(e.row_count("Customer").unwrap(), 10);

        let agg = e
            .execute(
                &parse_statement(
                    "SELECT o.o_c_id, COUNT(*) AS n, SUM(o.o_total) AS t FROM Orders o \
                     GROUP BY o.o_c_id ORDER BY t DESC LIMIT 2",
                )
                .unwrap(),
                &[],
            )
            .unwrap();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].get("n").unwrap(), &Value::Int(3));
    }

    #[test]
    fn newsql_statements_are_cheap_on_the_simulated_clock() {
        let e = engine();
        let clock_before = {
            let stmt = parse_statement("SELECT * FROM Customer WHERE c_id = 1").unwrap();
            let start = e.clock.now();
            e.execute(&stmt, &[]).unwrap();
            e.clock.now() - start
        };
        // Well under a single HBase RPC round trip.
        assert!(clock_before < CostModel::default().get_cost());
    }

    #[test]
    fn incomplete_write_keys_are_rejected() {
        let e = engine();
        let stmt = parse_statement("UPDATE Customer SET c_uname = ? WHERE c_uname = ?").unwrap();
        assert!(matches!(
            e.execute(&stmt, &[Value::str("a"), Value::str("b")]),
            Err(NewSqlError::IncompleteKey { table }) if table == "Customer"
        ));
    }

    #[test]
    fn an_update_assigning_a_key_column_is_refused() {
        let e = engine();
        let stmt = parse_statement("UPDATE Orders SET o_id = ? WHERE o_id = 101").unwrap();
        assert!(matches!(
            e.execute(&stmt, &[Value::Int(999)]),
            Err(NewSqlError::KeyAssignment { table, column }) if table == "Orders" && column == "o_id"
        ));
        let read = parse_statement("SELECT o_id FROM Orders WHERE o_id = 101").unwrap();
        assert_eq!(e.execute(&read, &[]).unwrap().len(), 1);
    }

    #[test]
    fn an_update_whose_assignment_cannot_bind_is_refused_uncharged() {
        let e = engine();
        let stmt = parse_statement("UPDATE Orders SET o_total = ? WHERE o_id = 101").unwrap();
        let start = e.clock.now();
        assert!(matches!(e.execute(&stmt, &[]), Err(NewSqlError::MissingParameter(0))));
        assert_eq!(e.clock.now(), start, "a refused update was charged");
        let read = parse_statement("SELECT o_total FROM Orders WHERE o_id = 101").unwrap();
        let rows = e.execute(&read, &[]).unwrap();
        assert_eq!(rows[0].get("o_total"), Some(&Value::Float(11.0)));

        e.execute(&stmt, &[Value::Float(1.5)]).unwrap();
        let rows = e.execute(&read, &[]).unwrap();
        assert_eq!(rows[0].get("o_total"), Some(&Value::Float(1.5)));
    }
}
