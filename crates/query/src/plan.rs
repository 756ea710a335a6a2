//! Phase 3 of the query pipeline: the **plan tree**.
//!
//! A [`PlanNode`] tree is the one form of a compiled SELECT.  The optimizer
//! (`crate::optimize`) builds it with every planning decision frozen on the
//! node it concerns — a scan's access path, decode spec, filters, pushed
//! store limit and region fan-out; a join's key symbols and partition
//! count; an aggregate's group plan; a sort's or top-k's keys and width; a
//! projection's symbol pairs.  The executor (`crate::physical`) walks the
//! tree and reads each decision off its node, `EXPLAIN` renders it, and
//! [`crate::DeltaPlan::compile`] compiles it for view maintenance: the tree
//! `EXPLAIN` prints is the tree that runs.
//!
//! The rendering is intentionally line-oriented and deterministic: one
//! operator per line, children indented two spaces, no volatile data
//! (row counts, timings) — so the same statement planned against the same
//! catalog at the same thread count always explains identically.

use crate::bind::PlannedCondition;
use crate::catalog::TableDef;
use crate::executor::AccessPath;
use relational::Symbol;
use sql::AggregateFunction;
use std::fmt;
use std::sync::Arc;

/// How the rows of one table are decoded into relational rows: the output
/// symbols (qualified under the alias for multi-table statements) and the
/// projection mask, resolved once at plan time.
#[derive(Debug, Clone)]
pub(crate) struct DecodeSpec {
    /// Alias-qualified output symbols, indexed by the table's column order
    /// (`None` for single-table statements, which decode bare names).
    pub qual_syms: Option<Vec<Symbol>>,
    /// Projection mask over the table's columns (`None` = decode all).
    pub mask: Option<Vec<bool>>,
}

/// Access details of an [`AccessPath::IndexScan`].
#[derive(Debug, Clone)]
pub(crate) struct IndexAccess {
    /// The index table's definition (shared with the catalog).
    pub def: Arc<TableDef>,
    /// True when the index covers every needed column (no base-table
    /// lookups required).
    pub covered: bool,
    /// Decode spec against the index table (used when covered).
    pub decode: DecodeSpec,
}

/// One table access: everything the executor needs to open the alias's
/// row stream.
#[derive(Debug, Clone)]
pub(crate) struct ScanNode {
    /// Statement alias (equal to the table name when none was written).
    pub alias: String,
    /// The table read (shared with the catalog the plan was compiled from).
    pub def: Arc<TableDef>,
    /// The access path the optimizer chose.
    pub access: AccessPath,
    /// Decode spec against `def`.
    pub decode: DecodeSpec,
    /// Present when `access` is an index scan.
    pub index: Option<IndexAccess>,
    /// Indices of the single-alias conditions applied on this stream.
    pub filter: Vec<usize>,
    /// Row limit pushed into the store scan (0 = none).
    pub store_limit: usize,
    /// Region-parallel fan-out (1 = the serial cursor).
    pub width: usize,
}

/// One resolved select item of an aggregate/GROUP BY output row.
#[derive(Debug, Clone)]
pub(crate) enum ItemPlan {
    Aggregate {
        function: AggregateFunction,
        argument: Option<Symbol>,
        name: Symbol,
    },
    Column {
        lookup: Symbol,
        out: Symbol,
        alias: Option<Symbol>,
    },
    Wildcard,
}

/// Renders the item as the statement wrote it.
impl fmt::Display for ItemPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemPlan::Aggregate {
                function,
                argument,
                name,
            } => {
                let call = match argument {
                    Some(a) => format!("{function}({})", a.name()),
                    None => format!("{function}(*)"),
                };
                match name.name() {
                    unaliased if unaliased == call => f.write_str(&call),
                    alias => write!(f, "{call} AS {alias}"),
                }
            }
            ItemPlan::Column { out, alias, .. } => match alias {
                Some(a) => write!(f, "{} AS {}", out.name(), a.name()),
                None => f.write_str(out.name()),
            },
            ItemPlan::Wildcard => f.write_str("*"),
        }
    }
}

/// The aggregate/GROUP BY sub-plan: grouping symbols (qualified + bare
/// output forms) and the resolved select items.
#[derive(Debug, Clone)]
pub(crate) struct GroupPlan {
    /// `(qualified, bare)` output symbols per GROUP BY column.
    pub group_syms: Vec<(Symbol, Symbol)>,
    /// Resolved select items.
    pub items: Vec<ItemPlan>,
}

/// One ORDER BY / top-k sort key: symbol plus direction.
#[derive(Debug, Clone)]
pub(crate) struct SortKey {
    /// Resolved sort column.
    pub column: Symbol,
    /// True for `DESC`.
    pub descending: bool,
}

impl fmt::Display for SortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let direction = if self.descending { "DESC" } else { "ASC" };
        write!(f, "{} {direction}", self.column.name())
    }
}

/// The operator tree.  Leaves are [`PlanNode::Scan`]s; joins are left-deep,
/// so a join's build side is always one scan.  Conditions are indices into
/// the plan's condition templates ([`crate::PhysicalPlan`]).
#[derive(Debug, Clone)]
pub(crate) enum PlanNode {
    /// A statement-level rewrite applied before planning (e.g. Synergy's
    /// materialized-view substitution), recorded so the substitution is
    /// visible in the plan rather than hidden in a pre-pass.
    Rewrite {
        /// Name of the rule that fired (e.g. `synergy-view-rewrite`).
        rule: String,
        /// Human-readable description of the substitution.
        note: String,
        /// The plan of the rewritten statement.
        input: Box<PlanNode>,
    },
    /// One table access.
    Scan(Box<ScanNode>),
    /// A client-side hash join: `probe` streams through the hashed `build`
    /// side (the newly joined alias, fully materialized).
    HashJoin {
        /// The streamed probe side (everything joined so far).
        probe: Box<PlanNode>,
        /// The materialized build side.
        build: Box<ScanNode>,
        /// The equi-join conditions this join enforces (empty = cross join).
        on: Vec<usize>,
        /// Join-key symbols on the probe side, one per `on` condition.
        probe_keys: Vec<Symbol>,
        /// Join-key symbols on the build side (alias-qualified).
        build_keys: Vec<Symbol>,
        /// Hash partitions probed on the pool (1 = the serial streaming
        /// join).
        partitions: usize,
    },
    /// Residual conditions evaluated against joined rows.
    Filter {
        input: Box<PlanNode>,
        /// Conditions that no scan or join could consume.
        conditions: Vec<usize>,
    },
    /// GROUP BY / aggregate evaluation (materializes its input).
    Aggregate {
        input: Box<PlanNode>,
        group: GroupPlan,
    },
    /// Full sort (ORDER BY without a top-k).
    Sort {
        input: Box<PlanNode>,
        /// Sort keys in priority order.
        keys: Vec<SortKey>,
    },
    /// Bounded top-k (ORDER BY + LIMIT): k rows resident instead of the
    /// full input.
    TopK {
        input: Box<PlanNode>,
        /// The `k` of `LIMIT k`.
        k: usize,
        /// Sort keys in priority order.
        keys: Vec<SortKey>,
        /// Per-worker bounded heaps merged at a barrier (1 = serial heap).
        width: usize,
    },
    /// Plain LIMIT: stop pulling the input after `k` rows.
    Limit { input: Box<PlanNode>, k: usize },
    /// Final projection as `(lookup, output)` symbol pairs in select-list
    /// order.
    Project {
        input: Box<PlanNode>,
        columns: Vec<(Symbol, Symbol)>,
    },
}

impl PlanNode {
    /// The scan of `alias`, if this tree reads it.
    pub(crate) fn scan(&self, alias: &str) -> Option<&ScanNode> {
        match self {
            PlanNode::Scan(scan) => (scan.alias == alias).then_some(&**scan),
            PlanNode::HashJoin { build, .. } if build.alias == alias => Some(build),
            PlanNode::HashJoin { probe: input, .. }
            | PlanNode::Rewrite { input, .. }
            | PlanNode::Filter { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::TopK { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Project { input, .. } => input.scan(alias),
        }
    }

    /// Renders the stable, indented plan tree (the `EXPLAIN` text): one
    /// operator per line, children indented two spaces, trailing newline.
    /// `conditions` are the templates the nodes' condition indices refer to.
    pub(crate) fn render(&self, conditions: &[PlannedCondition]) -> String {
        let mut out = String::new();
        self.render_into(conditions, &mut out, 0);
        out
    }

    fn render_into(&self, conditions: &[PlannedCondition], out: &mut String, depth: usize) {
        let listed = |idxs: &[usize]| join_display(idxs.iter().map(|&i| &conditions[i]));
        out.push_str(&"  ".repeat(depth));
        let input = match self {
            PlanNode::Rewrite { rule, note, input } => {
                out.push_str(&format!("Rewrite [{rule}] {note}"));
                input
            }
            PlanNode::Scan(scan) => return scan.render_into(conditions, out),
            PlanNode::HashJoin {
                probe,
                build,
                on,
                partitions,
                ..
            } => {
                if on.is_empty() {
                    out.push_str(&format!("CrossJoin build={}", build.alias));
                } else {
                    out.push_str(&format!("HashJoin on [{}] build={}", listed(on), build.alias));
                }
                if *partitions > 1 {
                    out.push_str(&format!(" partitioned=x{partitions}"));
                }
                out.push('\n');
                probe.render_into(conditions, out, depth + 1);
                out.push_str(&"  ".repeat(depth + 1));
                return build.render_into(conditions, out);
            }
            PlanNode::Filter {
                input,
                conditions: residual,
            } => {
                out.push_str(&format!("Filter [{}]", listed(residual)));
                input
            }
            PlanNode::Aggregate { input, group } => {
                out.push_str("Aggregate");
                if !group.group_syms.is_empty() {
                    let names = group.group_syms.iter().map(|(q, _)| q.name());
                    out.push_str(&format!(" group_by=[{}]", join_display(names)));
                }
                out.push_str(&format!(" items=[{}]", join_display(&group.items)));
                input
            }
            PlanNode::Sort { input, keys } => {
                out.push_str(&format!("Sort by=[{}]", join_display(keys)));
                input
            }
            PlanNode::TopK {
                input,
                k,
                keys,
                width,
            } => {
                out.push_str(&format!("TopK k={k} by=[{}]", join_display(keys)));
                if *width > 1 {
                    out.push_str(&format!(" partitioned=x{width}"));
                }
                input
            }
            PlanNode::Limit { input, k } => {
                out.push_str(&format!("Limit {k}"));
                if matches!(&**input, PlanNode::Scan(scan) if scan.store_limit > 0) {
                    out.push_str(" store-pushdown");
                }
                input
            }
            PlanNode::Project { input, columns } => {
                let names = columns.iter().map(|(_, out)| out.name());
                out.push_str(&format!("Project [{}]", join_display(names)));
                input
            }
        };
        out.push('\n');
        input.render_into(conditions, out, depth + 1);
    }
}

impl ScanNode {
    /// The scan's one line of the plan tree.
    fn render_into(&self, conditions: &[PlannedCondition], out: &mut String) {
        out.push_str(&format!("Scan {}", self.def.name));
        if self.alias != self.def.name {
            out.push_str(&format!(" AS {}", self.alias));
        }
        out.push_str(&format!(" access={}", self.access));
        if self.store_limit > 0 {
            out.push_str(&format!(" limit={}", self.store_limit));
        }
        if self.width > 1 {
            out.push_str(&format!(" parallel=x{}", self.width));
        }
        if !self.filter.is_empty() {
            let filter = join_display(self.filter.iter().map(|&i| &conditions[i]));
            out.push_str(&format!(" filter=[{filter}]"));
        }
        out.push('\n');
    }
}

/// `items` rendered and comma-separated, as every plan tree lists its
/// predicates, sort keys, columns and select items.
pub(crate) fn join_display<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, TableKind};
    use relational::intern::intern;

    fn scan(table: &str, alias: &str, access: AccessPath, filter: Vec<usize>) -> ScanNode {
        let columns = vec![("id".into(), ColumnType::Int)];
        let def = TableDef::new(table, columns, vec!["id".into()], TableKind::Base);
        ScanNode {
            alias: alias.into(),
            def: Arc::new(def),
            access,
            decode: DecodeSpec {
                qual_syms: None,
                mask: None,
            },
            index: None,
            filter,
            store_limit: 0,
            width: 1,
        }
    }

    fn condition(sql_text: &str) -> PlannedCondition {
        let stmt = sql::parse_statement(&format!("SELECT * FROM T WHERE {sql_text}")).unwrap();
        PlannedCondition::resolve(&stmt.as_select().unwrap().conditions[0])
    }

    #[test]
    fn renders_a_join_tree_with_stable_indentation() {
        let conditions = [condition("c.c_uname = ?"), condition("c.c_id = o.o_c_id")];
        let plan = PlanNode::Project {
            columns: vec![(intern("c.c_uname"), intern("c.c_uname"))],
            input: Box::new(PlanNode::HashJoin {
                probe: Box::new(PlanNode::Scan(Box::new(scan(
                    "Customer",
                    "c",
                    AccessPath::FullScan,
                    vec![0],
                )))),
                build: Box::new(ScanNode {
                    width: 4,
                    ..scan("Orders", "o", AccessPath::FullScan, vec![])
                }),
                on: vec![1],
                probe_keys: vec![intern("c.c_id")],
                build_keys: vec![intern("o.o_c_id")],
                partitions: 4,
            }),
        };
        let text = plan.render(&conditions);
        assert_eq!(
            text,
            "Project [c.c_uname]\n\
             \x20 HashJoin on [c.c_id = o.o_c_id] build=o partitioned=x4\n\
             \x20   Scan Customer AS c access=full filter=[c.c_uname = ?0]\n\
             \x20   Scan Orders AS o access=full parallel=x4\n"
        );
    }

    #[test]
    fn scan_omits_alias_when_it_matches_the_table() {
        let customer = scan("Customer", "Customer", AccessPath::KeyGet, vec![]);
        let plan = PlanNode::Scan(Box::new(customer));
        assert_eq!(plan.render(&[]), "Scan Customer access=get\n");
    }

    #[test]
    fn limit_and_rewrite_annotations_render() {
        let plan = PlanNode::Rewrite {
            rule: "synergy-view-rewrite".into(),
            note: "V_A__B replaces A, B".into(),
            input: Box::new(PlanNode::Limit {
                k: 50,
                input: Box::new(PlanNode::Scan(Box::new(ScanNode {
                    store_limit: 50,
                    ..scan("V_A__B", "V_A__B", AccessPath::FullScan, vec![])
                }))),
            }),
        };
        let text = plan.render(&[]);
        assert!(text.starts_with("Rewrite [synergy-view-rewrite] V_A__B replaces A, B\n"));
        assert!(text.contains("  Limit 50 store-pushdown\n"));
        assert!(text.contains("    Scan V_A__B access=full limit=50\n"));
    }
}
