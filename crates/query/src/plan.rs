//! Phase 3 of the query pipeline: the **logical plan** IR.
//!
//! A [`LogicalPlan`] is an operator tree over bound [`Symbol`]s describing
//! *what* a statement computes and which planning decisions the optimizer
//! made: access paths, predicate placement, join order and build sides,
//! pushed-down limits and projections, and serial-vs-partitioned operator
//! choices.  It is the artifact `EXPLAIN` renders — a stable, indented tree
//! whose text is pinned by golden snapshot tests — and the shape the
//! physical plan ([`crate::PhysicalPlan`]) is compiled from.
//!
//! The rendering is intentionally line-oriented and deterministic: one
//! operator per line, children indented two spaces, no volatile data
//! (row counts, timings) — so the same statement planned against the same
//! catalog at the same thread count always explains identically.

use crate::executor::AccessPath;
use relational::{Symbol, Value};
use sql::{Comparison, SelectItem};
use std::fmt;

/// A bound operand as it appears in a plan predicate.
#[derive(Debug, Clone)]
pub enum PlanOperand {
    /// A literal from the statement text.
    Literal(Value),
    /// A positional parameter, rendered as `?N`.
    Param(usize),
    /// A column, rendered as its interned symbol.
    Column(Symbol),
}

impl fmt::Display for PlanOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanOperand::Literal(v) => write!(f, "{v}"),
            PlanOperand::Param(i) => write!(f, "?{i}"),
            PlanOperand::Column(sym) => write!(f, "{}", sym.name()),
        }
    }
}

/// A bound predicate `left op right` attached to a plan node.
#[derive(Debug, Clone)]
pub struct PlanPredicate {
    /// Resolved left-hand column.
    pub left: Symbol,
    /// Comparison operator.
    pub op: Comparison,
    /// Right-hand operand.
    pub right: PlanOperand,
}

impl fmt::Display for PlanPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left.name(), self.op, self.right)
    }
}

/// One ORDER BY / top-k sort key: symbol plus direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Resolved sort column.
    pub column: Symbol,
    /// True for `DESC`.
    pub descending: bool,
}

impl fmt::Display for SortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}",
            self.column.name(),
            if self.descending { "DESC" } else { "ASC" }
        )
    }
}

/// The logical operator tree.  Leaf nodes are [`LogicalPlan::Scan`]s; every
/// other node wraps its input(s).
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// A statement-level rewrite applied before planning (e.g. Synergy's
    /// materialized-view substitution), recorded so the substitution is
    /// visible in the plan rather than hidden in a pre-pass.
    Rewrite {
        /// Name of the rule that fired (e.g. `synergy-view-rewrite`).
        rule: String,
        /// Human-readable description of the substitution.
        note: String,
        /// The plan of the rewritten statement.
        input: Box<LogicalPlan>,
    },
    /// One table access: the chosen access path plus the single-alias
    /// predicates evaluated on this scan's stream.
    Scan {
        /// Physical table name.
        table: String,
        /// Statement alias (equal to `table` when none was written).
        alias: String,
        /// The access path the optimizer chose.
        access: AccessPath,
        /// Single-alias predicates applied on this stream.
        predicates: Vec<PlanPredicate>,
        /// Region-parallel fan-out (1 = serial cursor).
        parallel: usize,
        /// Store-level row limit pushed into the scan (0 = none).
        store_limit: usize,
    },
    /// A client-side hash join: `probe` streams through the hashed `build`
    /// side (the newly joined alias, fully materialized).
    HashJoin {
        /// The streamed probe side (everything joined so far).
        probe: Box<LogicalPlan>,
        /// The materialized build side.
        build: Box<LogicalPlan>,
        /// Alias of the build side (labels the join in renderings).
        build_alias: String,
        /// Equi-join predicates this join enforces (empty = cross join).
        on: Vec<PlanPredicate>,
        /// Hash-partitioned parallel probe at this worker count (1 = serial).
        partitioned: usize,
    },
    /// Residual predicates evaluated against joined rows.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicates that no scan or join could consume.
        predicates: Vec<PlanPredicate>,
    },
    /// GROUP BY / aggregate evaluation (materializes its input).
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Resolved GROUP BY columns.
        group_by: Vec<Symbol>,
        /// The select items, rendered as written (aggregates + columns).
        items: Vec<SelectItem>,
    },
    /// Full sort (ORDER BY without LIMIT).
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys in priority order.
        keys: Vec<SortKey>,
    },
    /// Bounded top-k (ORDER BY + LIMIT): k rows resident instead of the
    /// full input.
    TopK {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The `k` of `LIMIT k`.
        k: usize,
        /// Sort keys in priority order.
        keys: Vec<SortKey>,
        /// Per-worker bounded heaps merged at a barrier (1 = serial heap).
        partitioned: usize,
    },
    /// Plain LIMIT: stop pulling the input after `k` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The `k` of `LIMIT k`.
        k: usize,
        /// True when the limit was pushed into the store scan itself (the
        /// store touches exactly `k` rows).
        pushed_to_store: bool,
    },
    /// Final projection onto the selected columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output columns in select-list order.
        columns: Vec<Symbol>,
    },
}

impl LogicalPlan {
    /// Renders the stable, indented plan tree (the `EXPLAIN` text): one
    /// operator per line, children indented two spaces, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::Rewrite { rule, note, input } => {
                out.push_str(&format!("Rewrite [{rule}] {note}\n"));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Scan {
                table,
                alias,
                access,
                predicates,
                parallel,
                store_limit,
            } => {
                out.push_str(&format!("Scan {table}"));
                if alias != table {
                    out.push_str(&format!(" AS {alias}"));
                }
                out.push_str(&format!(" access={access}"));
                if *store_limit > 0 {
                    out.push_str(&format!(" limit={store_limit}"));
                }
                if *parallel > 1 {
                    out.push_str(&format!(" parallel=x{parallel}"));
                }
                if !predicates.is_empty() {
                    out.push_str(&format!(" filter=[{}]", join_display(predicates)));
                }
                out.push('\n');
            }
            LogicalPlan::HashJoin {
                probe,
                build,
                build_alias,
                on,
                partitioned,
            } => {
                if on.is_empty() {
                    out.push_str(&format!("CrossJoin build={build_alias}"));
                } else {
                    out.push_str(&format!(
                        "HashJoin on [{}] build={build_alias}",
                        join_display(on)
                    ));
                }
                if *partitioned > 1 {
                    out.push_str(&format!(" partitioned=x{partitioned}"));
                }
                out.push('\n');
                probe.render_into(out, depth + 1);
                build.render_into(out, depth + 1);
            }
            LogicalPlan::Filter { input, predicates } => {
                out.push_str(&format!("Filter [{}]\n", join_display(predicates)));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                items,
            } => {
                out.push_str("Aggregate");
                if !group_by.is_empty() {
                    out.push_str(&format!(" group_by=[{}]", join_names(group_by)));
                }
                out.push_str(&format!(" items=[{}]\n", join_display(items)));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                out.push_str(&format!("Sort by=[{}]\n", join_display(keys)));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::TopK {
                input,
                k,
                keys,
                partitioned,
            } => {
                out.push_str(&format!("TopK k={k} by=[{}]", join_display(keys)));
                if *partitioned > 1 {
                    out.push_str(&format!(" partitioned=x{partitioned}"));
                }
                out.push('\n');
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Limit {
                input,
                k,
                pushed_to_store,
            } => {
                out.push_str(&format!("Limit {k}"));
                if *pushed_to_store {
                    out.push_str(" store-pushdown");
                }
                out.push('\n');
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Project { input, columns } => {
                out.push_str(&format!("Project [{}]\n", join_names(columns)));
                input.render_into(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// `items` rendered and comma-separated, as every plan tree lists its
/// predicates, sort keys and select items.
pub(crate) fn join_display<T: fmt::Display>(items: &[T]) -> String {
    items
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn join_names(symbols: &[Symbol]) -> String {
    symbols
        .iter()
        .map(|s| s.name().to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::intern::intern;

    #[test]
    fn renders_a_join_tree_with_stable_indentation() {
        let plan = LogicalPlan::Project {
            columns: vec![intern("c.c_uname")],
            input: Box::new(LogicalPlan::HashJoin {
                probe: Box::new(LogicalPlan::Scan {
                    table: "Customer".into(),
                    alias: "c".into(),
                    access: AccessPath::FullScan,
                    predicates: vec![PlanPredicate {
                        left: intern("c.c_uname"),
                        op: Comparison::Eq,
                        right: PlanOperand::Param(0),
                    }],
                    parallel: 1,
                    store_limit: 0,
                }),
                build: Box::new(LogicalPlan::Scan {
                    table: "Orders".into(),
                    alias: "o".into(),
                    access: AccessPath::FullScan,
                    predicates: vec![],
                    parallel: 4,
                    store_limit: 0,
                }),
                build_alias: "o".into(),
                on: vec![PlanPredicate {
                    left: intern("c.c_id"),
                    op: Comparison::Eq,
                    right: PlanOperand::Column(intern("o.o_c_id")),
                }],
                partitioned: 4,
            }),
        };
        let text = plan.render();
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
        let plan = LogicalPlan::Scan {
            table: "Customer".into(),
            alias: "Customer".into(),
            access: AccessPath::KeyGet,
            predicates: vec![],
            parallel: 1,
            store_limit: 0,
        };
        assert_eq!(plan.render(), "Scan Customer access=get\n");
    }

    #[test]
    fn limit_and_rewrite_annotations_render() {
        let plan = LogicalPlan::Rewrite {
            rule: "synergy-view-rewrite".into(),
            note: "V_A__B replaces A, B".into(),
            input: Box::new(LogicalPlan::Limit {
                k: 50,
                pushed_to_store: true,
                input: Box::new(LogicalPlan::Scan {
                    table: "V_A__B".into(),
                    alias: "V_A__B".into(),
                    access: AccessPath::FullScan,
                    predicates: vec![],
                    parallel: 1,
                    store_limit: 50,
                }),
            }),
        };
        let text = plan.render();
        assert!(text.starts_with("Rewrite [synergy-view-rewrite] V_A__B replaces A, B\n"));
        assert!(text.contains("  Limit 50 store-pushdown\n"));
        assert!(text.contains("    Scan V_A__B access=full limit=50\n"));
    }
}
