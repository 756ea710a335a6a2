//! Incremental (**delta**) evaluation of compiled plans, the engine behind
//! Synergy's view maintenance.
//!
//! A base-table write is represented as signed row-deltas — an insert is
//! `+row`, a delete is `-row` (the before-image), an update is the pair
//! `[-old, +new]` — and a [`DeltaPlan`] pushes those deltas through the
//! plan tree of the view's defining SELECT ([`PhysicalPlan`], the tree its
//! reads run and `EXPLAIN` renders) *incrementally*:
//!
//! * `Scan` admits deltas of its own relation (after its pushed-down
//!   filters) and nothing else;
//! * `HashJoin` looks up the **other** side's current rows for each delta,
//!   using the same access-path machinery as read planning, for selection
//!   and for execution: the probe's path is chosen once, at compile time
//!   ([`select_probe_access`](crate::select_probe_access) — a point Get
//!   when the join key is the probed table's primary key, a key-prefix or
//!   (maintenance-)index scan otherwise), rendered into the plan tree, and
//!   run as compiled through the one stored-row reader every plan source
//!   uses (`Executor::open_rows`), so a failed probe fails the propagation
//!   instead of shortening it — and emits the joined deltas;
//! * `Filter` passes or drops deltas; `Project` rewrites them onto the
//!   output columns.
//!
//! Every maintained view is an FK-join path, so those four operators are the
//! whole IR: a defining plan with an aggregate, an ordering or a limit does
//! not compile (GROUP BY in the delta IR is parked until a measured layer
//! asks for it).
//!
//! The work a write causes is therefore proportional to the delta and the
//! rows it joins with — never to the size of the view — which is the
//! Noria-style dataflow argument for incremental view maintenance, reusing
//! the planner IR as the dataflow graph instead of a second engine.

use crate::bind::{PlannedCondition, PlannedOperand};
use crate::catalog::{Catalog, TableDef};
use crate::executor::{AccessPath, Executor, ScanShape};
use crate::optimize::select_probe_access;
use crate::physical::PhysicalPlan;
use crate::plan::{join_display, PlanNode, ScanNode};
use crate::result::QueryError;
use relational::Row;
use sql::Comparison;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The sign of a row-delta: `Plus` adds the row, `Minus` retracts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaSign {
    /// The row is being added.
    Plus,
    /// The row is being retracted.
    Minus,
}

/// One signed row-delta flowing through a [`DeltaPlan`].
#[derive(Debug, Clone)]
pub struct RowDelta {
    /// Whether the row is added or retracted.
    pub sign: DeltaSign,
    /// The row (for `Minus`, the before-image).
    pub row: Row,
}

impl RowDelta {
    /// A `+row` delta (insert, or the new image of an update).
    pub fn plus(row: Row) -> RowDelta {
        RowDelta {
            sign: DeltaSign::Plus,
            row,
        }
    }

    /// A `-row` delta (delete, or the old image of an update).
    pub fn minus(row: Row) -> RowDelta {
        RowDelta {
            sign: DeltaSign::Minus,
            row,
        }
    }
}

/// How one side of a join is probed given equality bindings for its join
/// columns: chosen at compile time, rendered as `probe(table)=path`, and
/// executed as compiled.
#[derive(Debug, Clone)]
struct Probe {
    /// The leaf table that owns the join columns.
    table: String,
    path: AccessPath,
    /// The index table's definition when `path` is an index scan.
    index: Option<Arc<TableDef>>,
}

/// One node of the incremental operator tree (mirrors the plan tree).
/// Predicates compare a bare column against a literal.
#[derive(Debug, Clone)]
enum DeltaNode {
    Scan {
        def: Arc<TableDef>,
        predicates: Vec<PlannedCondition>,
    },
    Join {
        left: Box<DeltaNode>,
        right: Box<DeltaNode>,
        /// Equi-join column pairs as `(left column, right column)`, bare.
        on: Vec<(String, String)>,
        /// Bare columns produced by the left subtree (routes lookups).
        left_cols: BTreeSet<String>,
        /// How the left side is probed given its join columns.
        left_probe: Probe,
        /// How the right side is probed given its join columns.
        right_probe: Probe,
    },
    Filter {
        input: Box<DeltaNode>,
        predicates: Vec<PlannedCondition>,
    },
    Project {
        input: Box<DeltaNode>,
        columns: Vec<String>,
    },
}

/// The compiled incremental form of one view-defining plan.
///
/// Compiled once per view, on first use, and cached by the maintenance
/// engine for the life of its executor (whose catalog never changes).
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    root: DeltaNode,
}

impl DeltaPlan {
    /// Compiles a plan into its incremental form; `catalog` supplies the
    /// indexes a join probe may use.
    ///
    /// Fails with [`QueryError::Unsupported`] on operators with no
    /// incremental interpretation (aggregates, ordering, limits, non-equi
    /// joins, parameters).
    pub fn compile(catalog: &Catalog, plan: &PhysicalPlan) -> Result<DeltaPlan, QueryError> {
        Ok(DeltaPlan {
            root: Compiler { catalog, plan }.node(&plan.root)?,
        })
    }

    /// True when the plan reads `relation` (deltas of other relations are
    /// no-ops by construction).
    pub fn touches(&self, relation: &str) -> bool {
        self.root.contains_table(relation)
    }

    /// Pushes base-table deltas of `relation` through the plan and returns
    /// the resulting output-row deltas.
    pub fn propagate(
        &self,
        executor: &Executor,
        relation: &str,
        deltas: &[RowDelta],
    ) -> Result<Vec<RowDelta>, QueryError> {
        self.root.delta(executor, relation, deltas)
    }

    /// Renders the stable, indented delta-operator tree (the EXPLAIN-style
    /// text pinned by golden snapshots): one operator per line, children
    /// indented two spaces, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0);
        out
    }
}

// ----------------------------------------------------------------------
// Compilation
// ----------------------------------------------------------------------

/// Compiles the nodes of one plan, whose condition templates the nodes
/// index.
struct Compiler<'a> {
    catalog: &'a Catalog,
    plan: &'a PhysicalPlan,
}

fn unsupported(what: impl std::fmt::Display) -> QueryError {
    QueryError::Unsupported(format!("{what} has no incremental (delta) interpretation"))
}

impl Compiler<'_> {
    /// Strips a leading `alias.` qualifier (schema attribute names are
    /// globally unique, and stored view rows use bare names).
    fn bare(&self, name: &str) -> String {
        match name.split_once('.') {
            Some((alias, rest)) if self.plan.aliases.iter().any(|(a, _)| a == alias) => rest.into(),
            _ => name.to_string(),
        }
    }

    /// The conditions `idxs`, each a bare column compared to a literal.
    fn predicates(&self, idxs: &[usize]) -> Result<Vec<PlannedCondition>, QueryError> {
        idxs.iter()
            .map(|&i| match &self.plan.conditions[i].right {
                PlannedOperand::Literal(_) => Ok(self.plan.conditions[i].clone()),
                PlannedOperand::Param(_) => Err(unsupported("a parameterized predicate")),
                PlannedOperand::Column(..) => Err(unsupported("a column-column filter")),
            })
            .collect()
    }

    fn scan(&self, scan: &ScanNode) -> Result<DeltaNode, QueryError> {
        Ok(DeltaNode::Scan {
            def: scan.def.clone(),
            predicates: self.predicates(&scan.filter)?,
        })
    }

    fn node(&self, node: &PlanNode) -> Result<DeltaNode, QueryError> {
        match node {
            // A rewrite note is planning provenance; deltas flow through it.
            PlanNode::Rewrite { input, .. } => self.node(input),
            PlanNode::Scan(scan) => self.scan(scan),
            PlanNode::HashJoin {
                probe, build, on, ..
            } => {
                let left = self.node(probe)?;
                let right = self.scan(build)?;
                let left_cols = left.column_set();
                let mut pairs = Vec::new();
                for &i in on {
                    let p = &self.plan.conditions[i];
                    if p.op != Comparison::Eq {
                        return Err(unsupported("a non-equi join"));
                    }
                    let PlannedOperand::Column(right, _) = &p.right else {
                        return Err(unsupported("a join on a non-column operand"));
                    };
                    let (a, b) = (p.left.column.clone(), right.column.clone());
                    pairs.push(if left_cols.contains(&a) { (a, b) } else { (b, a) });
                }
                let left_on: Vec<String> = pairs.iter().map(|(l, _)| l.clone()).collect();
                let right_on: Vec<String> = pairs.iter().map(|(_, r)| r.clone()).collect();
                let left_probe = left.probe_spec(self.catalog, &left_on);
                let right_probe = right.probe_spec(self.catalog, &right_on);
                Ok(DeltaNode::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    on: pairs,
                    left_cols,
                    left_probe,
                    right_probe,
                })
            }
            PlanNode::Filter { input, conditions } => Ok(DeltaNode::Filter {
                input: Box::new(self.node(input)?),
                predicates: self.predicates(conditions)?,
            }),
            PlanNode::Project { input, columns } => Ok(DeltaNode::Project {
                input: Box::new(self.node(input)?),
                columns: columns.iter().map(|(_, out)| self.bare(out.name())).collect(),
            }),
            PlanNode::Aggregate { .. } => Err(unsupported("an aggregate")),
            PlanNode::Sort { .. } | PlanNode::TopK { .. } | PlanNode::Limit { .. } => {
                Err(unsupported("ordering or a limit"))
            }
        }
    }
}

// ----------------------------------------------------------------------
// Incremental evaluation
// ----------------------------------------------------------------------

/// True when `row` (bare column names) passes every literal predicate.
fn predicates_pass(predicates: &[PlannedCondition], row: &Row) -> bool {
    predicates.iter().all(|p| p.holds(row, &[]))
}

/// A delta predicate as the delta IR renders it: bare column, operator,
/// literal.
fn bare_predicate(p: &PlannedCondition) -> String {
    let literal = p.constant(&[]).map(ToString::to_string).unwrap_or_default();
    format!("{} {} {literal}", p.left.column, p.op)
}

/// Builds the other side's lookup constraints — a row of `bare column =
/// value` equalities — from one row's join-column values (`from_left`: the
/// row is of the join's left side); `None` when any value is absent or null
/// (SQL join semantics: null never matches).
fn bind_constraints(row: &Row, on: &[(String, String)], from_left: bool) -> Option<Row> {
    let mut out = Row::with_capacity(on.len());
    for (left, right) in on {
        let (mine, other) = if from_left { (left, right) } else { (right, left) };
        let value = row.get(mine).filter(|v| !v.is_null())?;
        out.set(other, value.clone());
    }
    Some(out)
}

/// Merges a looked-up row into a delta row.  Shared attributes (the join
/// columns) are equal by construction, so the delta row's values win.
fn merge_rows(base: &Row, other: &Row) -> Row {
    let mut out = base.clone();
    for (attr, value) in other.iter() {
        if out.get(attr).is_none() {
            out.set(attr, value.clone());
        }
    }
    out
}

impl DeltaNode {
    fn column_set(&self) -> BTreeSet<String> {
        match self {
            DeltaNode::Scan { def, .. } => {
                def.columns.iter().map(|(name, _)| name.clone()).collect()
            }
            DeltaNode::Join { left, right, .. } => {
                let mut cols = left.column_set();
                cols.extend(right.column_set());
                cols
            }
            DeltaNode::Filter { input, .. } => input.column_set(),
            DeltaNode::Project { columns, .. } => columns.iter().cloned().collect(),
        }
    }

    fn contains_table(&self, relation: &str) -> bool {
        match self {
            DeltaNode::Scan { def, .. } => def.name.eq_ignore_ascii_case(relation),
            DeltaNode::Join { left, right, .. } => {
                left.contains_table(relation) || right.contains_table(relation)
            }
            DeltaNode::Filter { input, .. } | DeltaNode::Project { input, .. } => {
                input.contains_table(relation)
            }
        }
    }

    /// How this subtree is looked up given equality bindings for `cols`:
    /// the leaf table that owns the columns and the access path its probe
    /// uses.  Decided at compile time, so the rendered plan documents what
    /// [`DeltaNode::lookup`] runs.
    fn probe_spec(&self, catalog: &Catalog, cols: &[String]) -> Probe {
        match self {
            DeltaNode::Scan { def, .. } => {
                let path = select_probe_access(catalog, def, cols);
                let index = match &path {
                    AccessPath::IndexScan { index } => catalog.table_shared_ci(index),
                    _ => None,
                };
                Probe {
                    table: def.name.clone(),
                    path,
                    index,
                }
            }
            DeltaNode::Join { left, right, .. } => {
                let left_cols = left.column_set();
                if cols.iter().all(|c| left_cols.contains(c)) {
                    left.probe_spec(catalog, cols)
                } else {
                    right.probe_spec(catalog, cols)
                }
            }
            DeltaNode::Filter { input, .. } | DeltaNode::Project { input, .. } => {
                input.probe_spec(catalog, cols)
            }
        }
    }

    /// Pushes `deltas` of `relation` through this subtree.
    fn delta(
        &self,
        executor: &Executor,
        relation: &str,
        deltas: &[RowDelta],
    ) -> Result<Vec<RowDelta>, QueryError> {
        match self {
            DeltaNode::Scan { def, predicates } => {
                if !def.name.eq_ignore_ascii_case(relation) {
                    return Ok(Vec::new());
                }
                Ok(deltas
                    .iter()
                    .filter(|d| predicates_pass(predicates, &d.row))
                    .cloned()
                    .collect())
            }
            DeltaNode::Join {
                left,
                right,
                on,
                left_probe,
                right_probe,
                ..
            } => {
                let left_side = left.contains_table(relation);
                if !left_side && !right.contains_table(relation) {
                    return Ok(Vec::new());
                }
                let (side, other, probe) = if left_side {
                    (left, right, right_probe)
                } else {
                    (right, left, left_probe)
                };
                let inner = side.delta(executor, relation, deltas)?;
                let mut out = Vec::new();
                for d in inner {
                    let Some(constraints) = bind_constraints(&d.row, on, left_side) else {
                        continue;
                    };
                    for matched in other.lookup(executor, &constraints, probe)? {
                        out.push(RowDelta {
                            sign: d.sign,
                            row: merge_rows(&d.row, &matched),
                        });
                    }
                }
                Ok(out)
            }
            DeltaNode::Filter { input, predicates } => {
                let mut inner = input.delta(executor, relation, deltas)?;
                inner.retain(|d| predicates_pass(predicates, &d.row));
                Ok(inner)
            }
            DeltaNode::Project { input, columns } => {
                let inner = input.delta(executor, relation, deltas)?;
                Ok(inner
                    .into_iter()
                    .map(|d| RowDelta {
                        sign: d.sign,
                        row: project_row(&d.row, columns),
                    })
                    .collect())
            }
        }
    }

    /// Evaluates this subtree under equality bindings — the read half of a
    /// join probe — through `probe`, the access the probing join compiled
    /// for exactly these columns.  A leaf scan opens it; a join hands it to
    /// the side owning the columns and probes the other side, through its
    /// own compiled access, per resulting row.
    fn lookup(
        &self,
        executor: &Executor,
        constraints: &Row,
        probe: &Probe,
    ) -> Result<Vec<Row>, QueryError> {
        match self {
            DeltaNode::Scan { def, predicates } => {
                // Index tables are covered (they store every base column),
                // so the decoded index rows are the base rows.
                let index = probe.index.as_deref();
                let shape = ScanShape::default();
                let mut out = Vec::new();
                for stored in executor.open_rows(def, &probe.path, index, constraints, shape)? {
                    let row = index.unwrap_or(def).decode_row(&stored?);
                    if constraints.iter().all(|(c, v)| row.get(c) == Some(v))
                        && predicates_pass(predicates, &row)
                    {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            DeltaNode::Join {
                left,
                right,
                on,
                left_cols,
                left_probe,
                right_probe,
            } => {
                let left_side = constraints.attributes().all(|c| left_cols.contains(c));
                let (side, other, other_probe) = if left_side {
                    (left, right, right_probe)
                } else {
                    (right, left, left_probe)
                };
                let rows = side.lookup(executor, constraints, probe)?;
                let mut out = Vec::new();
                for row in rows {
                    let Some(next) = bind_constraints(&row, on, left_side) else {
                        continue;
                    };
                    for matched in other.lookup(executor, &next, other_probe)? {
                        out.push(merge_rows(&row, &matched));
                    }
                }
                Ok(out)
            }
            DeltaNode::Filter { input, predicates } => {
                let mut rows = input.lookup(executor, constraints, probe)?;
                rows.retain(|r| predicates_pass(predicates, r));
                Ok(rows)
            }
            DeltaNode::Project { input, columns } => Ok(input
                .lookup(executor, constraints, probe)?
                .into_iter()
                .map(|r| project_row(&r, columns))
                .collect()),
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            DeltaNode::Scan { def, predicates } => {
                out.push_str(&format!("DeltaScan {}", def.name));
                if !predicates.is_empty() {
                    let filter = join_display(predicates.iter().map(bare_predicate));
                    out.push_str(&format!(" filter=[{filter}]"));
                }
                out.push('\n');
            }
            DeltaNode::Join {
                left,
                right,
                on,
                left_probe,
                right_probe,
                ..
            } => {
                let on_text = on
                    .iter()
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!(
                    "DeltaJoin on [{on_text}] probe({})={} probe({})={}\n",
                    left_probe.table, left_probe.path, right_probe.table, right_probe.path,
                ));
                left.render_into(out, depth + 1);
                right.render_into(out, depth + 1);
            }
            DeltaNode::Filter { input, predicates } => {
                let filter = join_display(predicates.iter().map(bare_predicate));
                out.push_str(&format!("DeltaFilter [{filter}]\n"));
                input.render_into(out, depth + 1);
            }
            DeltaNode::Project { input, columns } => {
                out.push_str(&format!("DeltaProject [{}]\n", columns.join(", ")));
                input.render_into(out, depth + 1);
            }
        }
    }
}

fn project_row(row: &Row, columns: &[String]) -> Row {
    let mut out = Row::with_capacity(columns.len());
    for c in columns {
        if let Some(v) = row.get(c) {
            out.set(c.clone(), v.clone());
        }
    }
    out
}

/// `base` with every attribute of `patch` overwritten onto it — how an
/// UPDATE's assignments become the row's after-image.
pub fn overlay(base: &Row, patch: &Row) -> Row {
    let mut out = base.clone();
    for (attr, value) in patch.iter() {
        out.set(attr, value.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, TableKind};
    use nosql_store::{Cluster, ClusterConfig};
    use relational::Value;

    fn table(name: &str, columns: &[(&str, ColumnType)], key: &[&str], kind: TableKind) -> TableDef {
        TableDef::new(
            name,
            columns
                .iter()
                .map(|(n, t)| (n.to_string(), *t))
                .collect(),
            key.iter().map(|k| k.to_string()).collect(),
            kind,
        )
    }

    /// Two relations A ←fk— B, with a maintenance index on B's fk.
    fn join_fixture() -> Executor {
        let mut catalog = Catalog::new();
        catalog.add_table(table(
            "A",
            &[("a_id", ColumnType::Int), ("a_v", ColumnType::Str)],
            &["a_id"],
            TableKind::Base,
        ));
        catalog.add_table(table(
            "B",
            &[
                ("b_id", ColumnType::Int),
                ("b_a_id", ColumnType::Int),
                ("b_v", ColumnType::Int),
            ],
            &["b_id"],
            TableKind::Base,
        ));
        catalog.add_table(table(
            "MI_B__b_a_id",
            &[
                ("b_a_id", ColumnType::Int),
                ("b_id", ColumnType::Int),
                ("b_v", ColumnType::Int),
            ],
            &["b_a_id", "b_id"],
            TableKind::Index { of: "B".into() },
        ));
        catalog.mark_maintenance_index("MI_B__b_a_id");
        let cluster = Cluster::new(ClusterConfig::default());
        for def in catalog.tables() {
            cluster
                .create_table(
                    nosql_store::TableSchema::new(&def.name).with_family(crate::catalog::FAMILY),
                )
                .unwrap();
        }
        let executor = Executor::new(cluster, catalog);
        executor
            .insert_row("A", Row::new().set("a_id", 1).set("a_v", "one"))
            .unwrap();
        executor
            .insert_row("A", Row::new().set("a_id", 2).set("a_v", "two"))
            .unwrap();
        for (b_id, b_a_id, b_v) in [(10, 1, 100), (11, 1, 110), (20, 2, 200)] {
            executor
                .insert_row(
                    "B",
                    Row::new().set("b_id", b_id).set("b_a_id", b_a_id).set("b_v", b_v),
                )
                .unwrap();
        }
        executor
    }

    fn join_plan(executor: &Executor) -> DeltaPlan {
        let select = match sql::parse_statement("SELECT * FROM A, B WHERE A.a_id = B.b_a_id")
            .unwrap()
        {
            sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let physical = executor.plan_select(&select).unwrap();
        DeltaPlan::compile(executor.catalog(), &physical).unwrap()
    }

    #[test]
    fn join_delta_probes_the_other_side_and_merges() {
        let executor = join_fixture();
        let plan = join_plan(&executor);
        assert!(plan.touches("A") && plan.touches("b") && !plan.touches("C"));

        // +B row joins up to its parent A row.
        let b = Row::new()
            .set("b_id", 12)
            .set("b_a_id", 1)
            .set("b_v", 120)
            .clone();
        let out = plan.propagate(&executor, "B", &[RowDelta::plus(b)]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, DeltaSign::Plus);
        assert_eq!(out[0].row.get("a_v"), Some(&Value::str("one")));
        assert_eq!(out[0].row.get("b_v"), Some(&Value::Int(120)));

        // -A row fans out to every child B row (two of them for a_id=1).
        let a = Row::new().set("a_id", 1).set("a_v", "one").clone();
        let out = plan
            .propagate(&executor, "A", &[RowDelta::minus(a)])
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.sign == DeltaSign::Minus));
        let mut b_ids: Vec<i64> = out
            .iter()
            .filter_map(|d| match d.row.get("b_id") {
                Some(Value::Int(id)) => Some(*id),
                _ => None,
            })
            .collect();
        b_ids.sort_unstable();
        assert_eq!(b_ids, vec![10, 11]);
    }

    #[test]
    fn dangling_foreign_keys_produce_no_deltas() {
        let executor = join_fixture();
        let plan = join_plan(&executor);
        let orphan = Row::new()
            .set("b_id", 30)
            .set("b_a_id", 99)
            .set("b_v", 300)
            .clone();
        let out = plan
            .propagate(&executor, "B", &[RowDelta::plus(orphan)])
            .unwrap();
        assert!(out.is_empty());
        let nullfk = Row::new().set("b_id", 31).set("b_v", 310).clone();
        let out = plan
            .propagate(&executor, "B", &[RowDelta::plus(nullfk)])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn render_documents_probe_access_paths() {
        let executor = join_fixture();
        let plan = join_plan(&executor);
        let text = plan.render();
        // Parent probed by primary key, child through the maintenance index
        // (whichever side is the probe side, both labels must appear).
        assert!(text.contains("DeltaJoin on [a_id = b_a_id]"), "{text}");
        assert!(text.contains("probe(A)=get"), "{text}");
        assert!(text.contains("probe(B)=index:MI_B__b_a_id"), "{text}");
        assert!(text.contains("DeltaScan A"), "{text}");
        assert!(text.contains("DeltaScan B"), "{text}");
    }

    #[test]
    fn maintenance_index_is_invisible_to_read_planning() {
        let executor = join_fixture();
        let select =
            match sql::parse_statement("SELECT * FROM B WHERE b_a_id = 1").unwrap() {
                sql::Statement::Select(s) => s,
                _ => unreachable!(),
            };
        let text = executor.plan_select(&select).unwrap().explain();
        assert!(
            text.contains("access=full"),
            "read planning must not use the maintenance index: {text}"
        );
        // The delta probe, by contrast, uses it.
        let def = executor.catalog().table("B").unwrap();
        let access =
            select_probe_access(executor.catalog(), def, &["b_a_id".to_string()]);
        assert_eq!(
            access,
            AccessPath::IndexScan {
                index: "MI_B__b_a_id".into()
            }
        );
    }

    #[test]
    fn non_invertible_aggregates_and_limits_fail_to_compile() {
        let executor = join_fixture();
        for sql_text in [
            "SELECT b_a_id, MIN(b_v) AS m FROM B GROUP BY b_a_id",
            "SELECT b_a_id, COUNT(*) AS n, SUM(b_v) AS s FROM B GROUP BY b_a_id",
            "SELECT * FROM B LIMIT 5",
        ] {
            let select = match sql::parse_statement(sql_text).unwrap() {
                sql::Statement::Select(s) => s,
                _ => unreachable!(),
            };
            let physical = executor.plan_select(&select).unwrap();
            let err = DeltaPlan::compile(executor.catalog(), &physical);
            assert!(err.is_err(), "{sql_text} must not compile incrementally");
        }
    }
}
