//! The SQL abstract syntax tree.

use relational::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A reference to a table in a FROM clause, with its alias.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableRef {
    /// Underlying table (relation or view) name.
    pub table: String,
    /// Alias used in the query (defaults to the table name).
    pub alias: String,
}

impl TableRef {
    /// A table reference whose alias equals the table name.
    pub fn named(table: impl Into<String>) -> Self {
        let table = table.into();
        TableRef {
            alias: table.clone(),
            table,
        }
    }

    /// A table reference with an explicit alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: alias.into(),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.alias == self.table {
            write!(f, "{}", self.table)
        } else {
            write!(f, "{} AS {}", self.table, self.alias)
        }
    }
}

/// A (possibly qualified) column reference, e.g. `c.c_id` or `i_title`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Table alias qualifier, if written.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified column.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            column: column.into(),
        }
    }

    /// A qualified column.
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }

    /// The fully qualified name, e.g. `c.c_id`, or just the column when
    /// unqualified.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.column),
            None => self.column.clone(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.qualified_name())
    }
}

/// A scalar expression: a column, a literal or a `?` parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference (a join condition when it appears on the right of a
    /// comparison whose left side is also a column of another table).
    Column(ColumnRef),
    /// Literal value.
    Literal(Value),
    /// Positional `?` parameter (0-based).
    Parameter(usize),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Parameter(_) => write!(f, "?"),
        }
    }
}

/// Comparison operators supported in WHERE clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Comparison {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl Comparison {
    /// Evaluates the comparison on two values using SQL semantics
    /// (comparisons involving NULL are false).
    pub fn evaluate(&self, left: &Value, right: &Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        match self {
            Comparison::Eq => left == right,
            Comparison::NotEq => left != right,
            Comparison::Lt => left < right,
            Comparison::LtEq => left <= right,
            Comparison::Gt => left > right,
            Comparison::GtEq => left >= right,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Comparison::Eq => "=",
            Comparison::NotEq => "<>",
            Comparison::Lt => "<",
            Comparison::LtEq => "<=",
            Comparison::Gt => ">",
            Comparison::GtEq => ">=",
        };
        write!(f, "{s}")
    }
}

/// One conjunct of a WHERE clause: `left op right`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Condition {
    /// Left-hand column.
    pub left: ColumnRef,
    /// Comparison operator.
    pub op: Comparison,
    /// Right-hand expression.
    pub right: Expr,
}

impl Condition {
    /// True if this is an equi-join condition (`col = col` across two table
    /// references).
    pub fn is_equi_join(&self) -> bool {
        self.op == Comparison::Eq && matches!(self.right, Expr::Column(_))
    }

    /// True if this condition compares a column against a literal or
    /// parameter (a filter).
    pub fn is_filter(&self) -> bool {
        !matches!(self.right, Expr::Column(_))
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// Aggregate functions in select lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateFunction {
    /// `COUNT(*)` or `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

impl fmt::Display for AggregateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A plain column, optionally aliased.
    Column {
        /// The projected column.
        column: ColumnRef,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
    /// An aggregate, optionally aliased.
    Aggregate {
        /// The aggregate function.
        function: AggregateFunction,
        /// Argument column; `None` means `*` (only valid for COUNT).
        argument: Option<ColumnRef>,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Column { column, alias } => match alias {
                Some(a) => write!(f, "{column} AS {a}"),
                None => write!(f, "{column}"),
            },
            SelectItem::Aggregate {
                function,
                argument,
                alias,
            } => {
                match argument {
                    Some(col) => write!(f, "{function}({col})")?,
                    None => write!(f, "{function}(*)")?,
                }
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderKey {
    /// Column to sort on.
    pub column: ColumnRef,
    /// True for `DESC`.
    pub descending: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectStatement {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM clause table references (comma-join style).
    pub from: Vec<TableRef>,
    /// WHERE conjuncts (implicitly ANDed); empty = no WHERE clause.
    pub conditions: Vec<Condition>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

impl SelectStatement {
    /// The equi-join conditions of the WHERE clause.
    pub fn join_conditions(&self) -> Vec<&Condition> {
        self.conditions.iter().filter(|c| c.is_equi_join()).collect()
    }

    /// The filter (column vs literal/parameter) conditions.
    pub fn filter_conditions(&self) -> Vec<&Condition> {
        self.conditions.iter().filter(|c| c.is_filter()).collect()
    }

    /// True if the statement joins two or more table references.
    pub fn is_join_query(&self) -> bool {
        self.from.len() > 1
    }

    /// Resolves a table alias to its underlying table name.
    pub fn resolve_alias(&self, alias: &str) -> Option<&str> {
        self.from
            .iter()
            .find(|t| t.alias == alias)
            .map(|t| t.table.as_str())
    }

    /// True if any select item is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        if !self.conditions.is_empty() {
            write!(f, " WHERE ")?;
            for (i, c) in self.conditions.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", k.column)?;
                if k.descending {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        Ok(())
    }
}

/// An INSERT statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertStatement {
    /// Target table.
    pub table: String,
    /// Column list.
    pub columns: Vec<String>,
    /// Values (same arity as `columns`).
    pub values: Vec<Expr>,
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateStatement {
    /// Target table.
    pub table: String,
    /// `SET column = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// WHERE conjuncts.
    pub conditions: Vec<Condition>,
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeleteStatement {
    /// Target table.
    pub table: String,
    /// WHERE conjuncts.
    pub conditions: Vec<Condition>,
}

/// Any supported SQL statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// SELECT.
    Select(SelectStatement),
    /// INSERT.
    Insert(InsertStatement),
    /// UPDATE.
    Update(UpdateStatement),
    /// DELETE.
    Delete(DeleteStatement),
}

impl Statement {
    /// True for SELECT statements.
    pub fn is_read(&self) -> bool {
        matches!(self, Statement::Select(_))
    }

    /// True for INSERT/UPDATE/DELETE statements.
    pub fn is_write(&self) -> bool {
        !self.is_read()
    }

    /// The SELECT body, if this is a SELECT.
    pub fn as_select(&self) -> Option<&SelectStatement> {
        match self {
            Statement::Select(s) => Some(s),
            _ => None,
        }
    }

    /// The table a write statement targets (`None` for SELECT).
    pub fn write_target(&self) -> Option<&str> {
        match self {
            Statement::Insert(i) => Some(&i.table),
            Statement::Update(u) => Some(&u.table),
            Statement::Delete(d) => Some(&d.table),
            Statement::Select(_) => None,
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert(i) => {
                write!(f, "INSERT INTO {} (", i.table)?;
                for (n, c) in i.columns.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ") VALUES (")?;
                for (n, v) in i.values.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Statement::Update(u) => {
                write!(f, "UPDATE {} SET ", u.table)?;
                for (n, (c, v)) in u.assignments.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {v}")?;
                }
                if !u.conditions.is_empty() {
                    write!(f, " WHERE ")?;
                    for (n, c) in u.conditions.iter().enumerate() {
                        if n > 0 {
                            write!(f, " AND ")?;
                        }
                        write!(f, "{c}")?;
                    }
                }
                Ok(())
            }
            Statement::Delete(d) => {
                write!(f, "DELETE FROM {}", d.table)?;
                if !d.conditions.is_empty() {
                    write!(f, " WHERE ")?;
                    for (n, c) in d.conditions.iter().enumerate() {
                        if n > 0 {
                            write!(f, " AND ")?;
                        }
                        write!(f, "{c}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condition_classification() {
        let join = Condition {
            left: ColumnRef::qualified("c", "c_id"),
            op: Comparison::Eq,
            right: Expr::Column(ColumnRef::qualified("o", "o_c_id")),
        };
        assert!(join.is_equi_join());
        assert!(!join.is_filter());
        let filter = Condition {
            left: ColumnRef::bare("i_subject"),
            op: Comparison::Eq,
            right: Expr::Parameter(0),
        };
        assert!(filter.is_filter());
        assert!(!filter.is_equi_join());
        let non_equi = Condition {
            left: ColumnRef::bare("a"),
            op: Comparison::Lt,
            right: Expr::Column(ColumnRef::bare("b")),
        };
        assert!(!non_equi.is_equi_join());
    }

    #[test]
    fn comparison_semantics_with_null() {
        assert!(Comparison::Eq.evaluate(&Value::Int(1), &Value::Int(1)));
        assert!(Comparison::Lt.evaluate(&Value::Int(1), &Value::Int(2)));
        assert!(!Comparison::Eq.evaluate(&Value::Null, &Value::Null));
        assert!(Comparison::NotEq.evaluate(&Value::str("a"), &Value::str("b")));
        assert!(Comparison::GtEq.evaluate(&Value::Float(2.0), &Value::Int(2)));
    }

    #[test]
    fn statement_roles() {
        let select = Statement::Select(SelectStatement {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::named("t")],
            conditions: vec![],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        });
        assert!(select.is_read());
        let insert = Statement::Insert(InsertStatement {
            table: "t".into(),
            columns: vec!["a".into()],
            values: vec![Expr::Parameter(0)],
        });
        assert!(insert.is_write());
        assert_eq!(insert.write_target(), Some("t"));
    }

    #[test]
    fn display_round_trips_visually() {
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Wildcard,
                SelectItem::Aggregate {
                    function: AggregateFunction::Sum,
                    argument: Some(ColumnRef::bare("ol_qty")),
                    alias: Some("total".into()),
                },
            ],
            from: vec![TableRef::aliased("Orders", "o"), TableRef::named("Customer")],
            conditions: vec![Condition {
                left: ColumnRef::qualified("o", "o_id"),
                op: Comparison::Eq,
                right: Expr::Parameter(0),
            }],
            group_by: vec![ColumnRef::bare("o_id")],
            order_by: vec![OrderKey {
                column: ColumnRef::bare("total"),
                descending: true,
            }],
            limit: Some(5),
        };
        let text = stmt.to_string();
        assert!(text.starts_with("SELECT *, SUM(ol_qty) AS total FROM Orders AS o, Customer"));
        assert!(text.contains("WHERE o.o_id = ?"));
        assert!(text.contains("GROUP BY o_id"));
        assert!(text.contains("ORDER BY total DESC"));
        assert!(text.ends_with("LIMIT 5"));
    }
}
