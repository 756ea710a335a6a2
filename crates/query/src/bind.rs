//! Phase 2 of the query pipeline: **binding**.
//!
//! Binding resolves every name in a parsed [`SelectStatement`] against the
//! [`Catalog`] — FROM aliases to [`TableDef`]s, column references to interned
//! [`Symbol`]s — *without* touching positional parameters.  A column no FROM
//! entry declares is refused here, before planning ([`QueryError::UnknownColumn`]).
//! The result is a [`BoundSelect`] whose conditions carry
//! [`PlannedOperand::Param`] slots, so a plan built from it can be cached and
//! re-executed with fresh parameter values: the operators read a parameter
//! through [`PlannedCondition::constant`] per execution.
//!
//! The helpers in this module answer the *shape* questions the optimizer
//! asks (which conditions are single-alias filters, which are equi-joins,
//! which columns a statement needs) and the *value* questions the physical
//! phase asks (the equality-filter values that key a Get or prefix scan).

use crate::catalog::{Catalog, TableDef};
use crate::result::QueryError;
use relational::{intern, Row, Symbol, Value};
use sql::{ColumnRef, Comparison, Condition, Expr, SelectItem, SelectStatement};
use std::collections::BTreeMap;
use std::fmt;

/// The right-hand side of a condition after binding: a literal, an unbound
/// positional parameter slot, or a column (an equi-join edge).
#[derive(Debug, Clone)]
pub(crate) enum PlannedOperand {
    /// A literal value from the statement text.
    Literal(Value),
    /// A `?` placeholder bound at execution time.
    Param(usize),
    /// A column of another table reference (resolved symbol included).
    Column(ColumnRef, Symbol),
}

/// A WHERE conjunct with its column references resolved to interned symbols
/// but its parameters still unbound — the cacheable form of a condition, and
/// the one predicate type: operators evaluate it, plan trees render it and
/// delta plans compile it.
#[derive(Debug, Clone)]
pub(crate) struct PlannedCondition {
    pub left: ColumnRef,
    /// `intern(left.qualified_name())`; exact-then-suffix lookup through
    /// this symbol is equivalent to the former
    /// `get(qualified).or_else(|| get(bare))` chain.
    pub left_sym: Symbol,
    pub op: Comparison,
    pub right: PlannedOperand,
}

impl PlannedCondition {
    /// Resolves one parsed condition (no parameter values needed).
    pub(crate) fn resolve(c: &Condition) -> PlannedCondition {
        let right = match &c.right {
            Expr::Column(col) => PlannedOperand::Column(col.clone(), resolve_col(col)),
            Expr::Literal(v) => PlannedOperand::Literal(v.clone()),
            Expr::Parameter(i) => PlannedOperand::Param(*i),
        };
        PlannedCondition {
            left: c.left.clone(),
            left_sym: resolve_col(&c.left),
            op: c.op,
            right,
        }
    }

    /// True when the right-hand side is a constant (literal or parameter)
    /// rather than a column — i.e. the condition filters rather than joins.
    pub(crate) fn is_filter(&self) -> bool {
        !matches!(self.right, PlannedOperand::Column(..))
    }

    /// The constant the condition compares against under `params`: the
    /// literal or the supplied parameter, `None` for a column operand (or a
    /// parameter `params` lacks — [`check_params`] refuses those up front).
    pub(crate) fn constant<'a>(&'a self, params: &'a [Value]) -> Option<&'a Value> {
        match &self.right {
            PlannedOperand::Literal(v) => Some(v),
            PlannedOperand::Param(i) => params.get(*i),
            PlannedOperand::Column(..) => None,
        }
    }

    /// True when `row` carries the left column and it compares true against
    /// the constant — a single-alias filter on its scan's stream.
    pub(crate) fn holds(&self, row: &Row, params: &[Value]) -> bool {
        match (row.get_interned(&self.left_sym), self.constant(params)) {
            (Some(left), Some(right)) => self.op.evaluate(left, right),
            _ => false,
        }
    }
}

/// Renders `left op right` with the left column as resolved, a parameter as
/// `?N`.
impl fmt::Display for PlannedCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.left_sym.name(), self.op)?;
        match &self.right {
            PlannedOperand::Literal(v) => write!(f, "{v}"),
            PlannedOperand::Param(i) => write!(f, "?{i}"),
            PlannedOperand::Column(_, sym) => f.write_str(sym.name()),
        }
    }
}

/// Refuses an execution whose `params` lack a slot some condition reads,
/// naming the first such slot in condition order.
pub(crate) fn check_params(
    conditions: &[PlannedCondition],
    params: &[Value],
) -> Result<(), QueryError> {
    match conditions.iter().find_map(|c| match c.right {
        PlannedOperand::Param(i) if i >= params.len() => Some(i),
        _ => None,
    }) {
        Some(i) => Err(QueryError::MissingParameter(i)),
        None => Ok(()),
    }
}

/// The output of the binding phase: aliases resolved to table definitions
/// and conditions resolved to symbols (parameters still unbound).  The
/// statement itself is borrowed — planning reads it, the compiled plan
/// keeps only resolved artifacts.
#[derive(Debug)]
pub(crate) struct BoundSelect<'a> {
    /// The (possibly view-rewritten) statement being planned.
    pub select: &'a SelectStatement,
    /// One `(alias, definition)` per FROM entry, in statement order.
    /// Definitions are shared with the catalog (no symbol-table copies).
    pub aliases: Vec<(String, std::sync::Arc<TableDef>)>,
    /// One resolved condition per WHERE conjunct, in statement order.
    pub conditions: Vec<PlannedCondition>,
}

/// Runs the binding phase for a SELECT.
pub(crate) fn bind_select<'a>(
    catalog: &Catalog,
    select: &'a SelectStatement,
) -> Result<BoundSelect<'a>, QueryError> {
    let mut aliases: Vec<(String, std::sync::Arc<TableDef>)> = Vec::new();
    for table_ref in &select.from {
        let def = catalog
            .table_shared_ci(&table_ref.table)
            .ok_or_else(|| QueryError::UnknownTable(table_ref.table.clone()))?;
        aliases.push((table_ref.alias.clone(), def));
    }
    check_columns(select, &aliases)?;
    let conditions = select.conditions.iter().map(PlannedCondition::resolve).collect();
    Ok(BoundSelect {
        select,
        aliases,
        conditions,
    })
}

/// Refuses a column reference no FROM entry declares: a qualified one needs
/// its alias in FROM and the column in that table, an unqualified one the
/// column in some FROM table.  ORDER BY may also name a select-list output
/// alias (`ORDER BY sold`).
fn check_columns(
    select: &SelectStatement,
    aliases: &[(String, std::sync::Arc<TableDef>)],
) -> Result<(), QueryError> {
    let declared = |col: &ColumnRef| {
        aliases.iter().any(|(alias, def)| {
            col.qualifier.as_ref().is_none_or(|q| q == alias)
                && def.column_type(&col.column).is_some()
        })
    };
    let output_alias = |col: &ColumnRef| {
        col.qualifier.is_none()
            && select.items.iter().any(|item| match item {
                SelectItem::Column { alias, .. } | SelectItem::Aggregate { alias, .. } => {
                    alias.as_ref() == Some(&col.column)
                }
                SelectItem::Wildcard => false,
            })
    };
    let items = select.items.iter().filter_map(|item| match item {
        SelectItem::Column { column, .. } => Some(column),
        SelectItem::Aggregate { argument, .. } => argument.as_ref(),
        SelectItem::Wildcard => None,
    });
    let operands = select.conditions.iter().flat_map(|c| {
        let right = match &c.right {
            Expr::Column(right) => Some(right),
            _ => None,
        };
        std::iter::once(&c.left).chain(right)
    });
    let order = select.order_by.iter().map(|k| &k.column).filter(|c| !output_alias(c));
    match items.chain(operands).chain(&select.group_by).chain(order).find(|c| !declared(c)) {
        Some(unknown) => Err(QueryError::UnknownColumn(unknown.qualified_name())),
        None => Ok(()),
    }
}

/// Resolves a column reference for per-row lookup: the qualified name is
/// interned once, and [`Row::get_interned`](relational::Row::get_interned)'s
/// suffix fallback covers the bare-name alternative (both names share the
/// same bare suffix).
pub(crate) fn resolve_col(col: &ColumnRef) -> Symbol {
    match &col.qualifier {
        Some(q) => intern::intern(&format!("{q}.{}", col.column)),
        None => intern::intern(&col.column),
    }
}

/// True if the condition only involves the given alias (its left column is a
/// column of `def` referenced through `alias` or unqualified-and-unambiguous)
/// and compares against a constant.
pub(crate) fn condition_is_single_alias(
    c: &PlannedCondition,
    alias: &str,
    def: &TableDef,
    from: &[sql::TableRef],
) -> bool {
    c.is_filter() && column_belongs_to_alias(&c.left, alias, def, from)
}

pub(crate) fn column_belongs_to_alias(
    col: &ColumnRef,
    alias: &str,
    def: &TableDef,
    from: &[sql::TableRef],
) -> bool {
    match &col.qualifier {
        Some(q) => q == alias && def.column_type(&col.column).is_some(),
        // Unqualified: belongs to this alias when the column exists here and
        // this is the only FROM entry that declares it (TPC-W queries only
        // use unqualified names when they are unambiguous).
        None => def.column_type(&col.column).is_some() && from.len() == 1,
    }
}

/// The columns carrying single-alias *equality* filters for one alias, in
/// sorted order — the shape input to access-path selection (values are not
/// needed to choose the path).  `cond_idxs` are the alias's single-alias
/// condition indices from the optimizer's classification pass.
pub(crate) fn eq_filter_columns(
    conditions: &[PlannedCondition],
    cond_idxs: &[usize],
) -> Vec<String> {
    let mut out = BTreeMap::new();
    for &i in cond_idxs {
        let c = &conditions[i];
        if c.op == Comparison::Eq {
            out.insert(c.left.column.clone(), ());
        }
    }
    out.into_keys().collect()
}

/// The single-alias equality filters of one alias as a row of column →
/// bound value (what keys a Get / prefix scan).  Later conditions on the
/// same column overwrite earlier ones, exactly as the pre-planner executor
/// behaved.
pub(crate) fn eq_filter_row(
    conditions: &[PlannedCondition],
    params: &[Value],
    cond_idxs: &[usize],
) -> Row {
    let mut out = Row::new();
    for &i in cond_idxs {
        let c = &conditions[i];
        if let (Comparison::Eq, Some(v)) = (c.op, c.constant(params)) {
            out.set(&c.left.column, v.clone());
        }
    }
    out
}

/// True when the alias's single-alias conditions bound `column` from both
/// sides: at least one `>` / `>=` and one `<` / `<=` filter against a
/// constant (literal or parameter).  This is the *shape* question behind
/// [`crate::AccessPath::KeyRangeScan`] — parameter values are not needed to
/// choose the path, exactly as with equality filters.
pub(crate) fn range_bounded_column(
    conditions: &[PlannedCondition],
    cond_idxs: &[usize],
    column: &str,
) -> bool {
    let mut lower = false;
    let mut upper = false;
    for &i in cond_idxs {
        let c = &conditions[i];
        if !c.is_filter() || c.left.column != column {
            continue;
        }
        match c.op {
            Comparison::Gt | Comparison::GtEq => lower = true,
            Comparison::Lt | Comparison::LtEq => upper = true,
            _ => {}
        }
    }
    lower && upper
}

/// The tightest `[lo, hi]` *inclusive-value* envelope the alias's bound
/// range filters put on `column` — the value-side companion of
/// [`range_bounded_column`], evaluated per execution once parameters are
/// substituted.  Strict bounds are kept as their value (the envelope is a
/// superset; the stream filters re-check exactness), and incomparable
/// values keep the first bound seen, which stays conservative for the same
/// reason.  Returns `None` unless both sides are present.
pub(crate) fn range_filter_bounds(
    conditions: &[PlannedCondition],
    params: &[Value],
    cond_idxs: &[usize],
    column: &str,
) -> Option<(Value, Value)> {
    let mut lo: Option<Value> = None;
    let mut hi: Option<Value> = None;
    for &i in cond_idxs {
        let c = &conditions[i];
        if c.left.column != column {
            continue;
        }
        let Some(v) = c.constant(params) else {
            continue;
        };
        match c.op {
            Comparison::Gt | Comparison::GtEq => match &lo {
                Some(cur) if value_lt(v, cur) => {}
                _ => lo = Some(v.clone()),
            },
            Comparison::Lt | Comparison::LtEq => match &hi {
                Some(cur) if value_lt(cur, v) => {}
                _ => hi = Some(v.clone()),
            },
            _ => {}
        }
    }
    Some((lo?, hi?))
}

/// Strict `a < b` for bound comparison, false when incomparable.
fn value_lt(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a < b,
        (Value::Float(a), Value::Float(b)) => a < b,
        (Value::Str(a), Value::Str(b)) => a < b,
        _ => false,
    }
}

/// Columns of `alias` that the query needs (for covered-index decisions and
/// projection pushdown); `None` means "all of them" (wildcard).
pub(crate) fn needed_columns(
    select: &SelectStatement,
    alias: &str,
    def: &TableDef,
) -> Option<Vec<String>> {
    let mut needed: Vec<String> = Vec::new();
    let mut add = |col: &ColumnRef| {
        let belongs = match &col.qualifier {
            Some(q) => q == alias,
            None => def.column_type(&col.column).is_some(),
        };
        if belongs && !needed.contains(&col.column) {
            needed.push(col.column.clone());
        }
    };
    for item in &select.items {
        match item {
            SelectItem::Wildcard => return None,
            SelectItem::Column { column, .. } => add(column),
            SelectItem::Aggregate { argument, .. } => {
                if let Some(a) = argument {
                    add(a);
                }
            }
        }
    }
    for c in &select.conditions {
        add(&c.left);
        if let Expr::Column(col) = &c.right {
            add(col);
        }
    }
    for c in &select.group_by {
        add(c);
    }
    for k in &select.order_by {
        add(&k.column);
    }
    Some(needed)
}

/// Builds the per-column decode mask for `needed` columns (`None` = decode
/// everything, also used when every column is needed anyway).
pub(crate) fn column_mask(def: &TableDef, needed: &Option<Vec<String>>) -> Option<Vec<bool>> {
    let needed = needed.as_ref()?;
    let mut mask = vec![false; def.columns.len()];
    let mut all = true;
    for (i, (name, _)) in def.columns.iter().enumerate() {
        let keep = needed.iter().any(|n| n == name);
        mask[i] = keep;
        all &= keep;
    }
    if all {
        None
    } else {
        Some(mask)
    }
}

/// Equi-join conditions connecting `alias` to any of `joined`, with their
/// index in the planned-condition list.
pub(crate) fn join_conditions_between<'a>(
    conditions: &'a [PlannedCondition],
    alias: &'a str,
    joined: &'a [String],
) -> impl Iterator<Item = (usize, &'a PlannedCondition)> {
    conditions.iter().enumerate().filter(move |(_, c)| {
        if c.op != Comparison::Eq {
            return false;
        }
        let PlannedOperand::Column(right, _) = &c.right else {
            return false;
        };
        let lq = c.left.qualifier.as_deref();
        let rq = right.qualifier.as_deref();
        match (lq, rq) {
            (Some(l), Some(r)) => {
                (l == alias && joined.iter().any(|j| j == r))
                    || (r == alias && joined.iter().any(|j| j == l))
            }
            _ => false,
        }
    })
}

/// The side of a join condition that belongs to `alias`.
pub(crate) fn join_column_for_alias<'a>(c: &'a PlannedCondition, alias: &str) -> &'a ColumnRef {
    let PlannedOperand::Column(right, _) = &c.right else {
        return &c.left;
    };
    if right.qualifier.as_deref() == Some(alias) {
        right
    } else {
        &c.left
    }
}

/// The side of a join condition that does *not* belong to `alias`.
pub(crate) fn join_column_other_side<'a>(c: &'a PlannedCondition, alias: &str) -> &'a ColumnRef {
    let PlannedOperand::Column(right, _) = &c.right else {
        return &c.left;
    };
    if right.qualifier.as_deref() == Some(alias) {
        &c.left
    } else {
        right
    }
}

/// Binds a scalar expression (used by the write paths, which have no plan).
pub(crate) fn bind_expr(expr: &Expr, params: &[Value]) -> Result<Value, QueryError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Parameter(i) => params
            .get(*i)
            .cloned()
            .ok_or(QueryError::MissingParameter(*i)),
        Expr::Column(c) => Err(QueryError::Unsupported(format!(
            "column reference {c} cannot be used as a scalar value here"
        ))),
    }
}
