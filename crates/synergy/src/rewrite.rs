//! Query re-writing over selected views (paper §VI-B).
//!
//! To re-write a query, the constituent relations of each selected view are
//! replaced by the view, and join conditions whose two sides both fall
//! inside a single view are removed (they are already materialized).  Column
//! references that used the replaced relations' aliases are re-qualified
//! with the view's name, which works because attribute names are unique
//! across the relations of a view (true for both the Company and the TPC-W
//! schemas).
//!
//! The rewrite plugs into the query planner as a rule:
//! [`SynergyRewriter`] implements [`query::PlanRewriter`], so view
//! substitution happens inside `Session`'s compile pipeline and shows up
//! as a `Rewrite` node in `EXPLAIN` output instead of running as an opaque
//! pre-pass over statement text.

use crate::selection::{select_views_for_query, SelectionOutcome};
use crate::viewgen::{CandidateViews, ViewDefinition};
use query::PlanRewriter;
use sql::{ColumnRef, Condition, Expr, OrderKey, SelectItem, SelectStatement, Statement, TableRef};
use std::collections::BTreeMap;

/// Rewrites one SELECT over the views selected for it.  Returns the original
/// query unchanged when `views` is empty.
pub fn rewrite_query(select: &SelectStatement, views: &[ViewDefinition]) -> SelectStatement {
    if views.is_empty() {
        return select.clone();
    }

    // Map each original alias to the view that swallows its relation.
    let mut alias_to_view: BTreeMap<String, &ViewDefinition> = BTreeMap::new();
    for table_ref in &select.from {
        for view in views {
            if view
                .relations
                .iter()
                .any(|r| r.eq_ignore_ascii_case(&table_ref.table))
            {
                alias_to_view.insert(table_ref.alias.clone(), view);
                break;
            }
        }
    }

    // New FROM clause: each view once, plus every table not covered by a view.
    let mut from: Vec<TableRef> = Vec::new();
    for view in views {
        from.push(TableRef::named(view.table_name()));
    }
    for table_ref in &select.from {
        if !alias_to_view.contains_key(&table_ref.alias) {
            from.push(table_ref.clone());
        }
    }

    let requalify = |column: &ColumnRef| -> ColumnRef {
        match &column.qualifier {
            Some(q) => match alias_to_view.get(q) {
                Some(view) => ColumnRef::qualified(view.table_name(), column.column.clone()),
                None => column.clone(),
            },
            None => column.clone(),
        }
    };

    // WHERE: drop equi-join conditions internal to a single view, re-qualify
    // the rest.
    let mut conditions: Vec<Condition> = Vec::new();
    for condition in &select.conditions {
        if condition.is_equi_join() {
            if let Expr::Column(right) = &condition.right {
                let left_view = condition
                    .left
                    .qualifier
                    .as_deref()
                    .and_then(|q| alias_to_view.get(q))
                    .map(|v| v.table_name());
                let right_view = right
                    .qualifier
                    .as_deref()
                    .and_then(|q| alias_to_view.get(q))
                    .map(|v| v.table_name());
                if let (Some(l), Some(r)) = (&left_view, &right_view) {
                    if l == r {
                        continue; // join is materialized inside the view
                    }
                }
            }
        }
        let right = match &condition.right {
            Expr::Column(c) => Expr::Column(requalify(c)),
            other => other.clone(),
        };
        conditions.push(Condition {
            left: requalify(&condition.left),
            op: condition.op,
            right,
        });
    }

    let items = select
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => SelectItem::Wildcard,
            SelectItem::Column { column, alias } => SelectItem::Column {
                column: requalify(column),
                alias: alias.clone(),
            },
            SelectItem::Aggregate {
                function,
                argument,
                alias,
            } => SelectItem::Aggregate {
                function: *function,
                argument: argument.as_ref().map(&requalify),
                alias: alias.clone(),
            },
        })
        .collect();

    SelectStatement {
        items,
        from,
        conditions,
        group_by: select.group_by.iter().map(&requalify).collect(),
        order_by: select
            .order_by
            .iter()
            .map(|k| OrderKey {
                column: requalify(&k.column),
                descending: k.descending,
            })
            .collect(),
        limit: select.limit,
    }
}

/// The Synergy view substitution as a planner rule
/// ([`query::PlanRewriter`]): workload statements use the views the §VI-A
/// selection already chose for them (looked up by statement text), ad-hoc
/// statements run the per-query marking procedure on the fly.
///
/// Installed on a [`query::Session`], the rule fires during statement
/// compilation — once per plan-cache miss, not per execution — and records
/// a `Rewrite` node naming the substituted views in the plan tree.
pub struct SynergyRewriter {
    candidates: CandidateViews,
    workload: Vec<Statement>,
    /// Views selected per workload statement, keyed by statement text
    /// (mirrors how the old per-statement rewrite cache was keyed).
    views_by_sql: BTreeMap<String, Vec<ViewDefinition>>,
}

impl SynergyRewriter {
    /// Builds the rule from the offline pipeline's outputs.
    pub fn new(
        candidates: CandidateViews,
        workload: Vec<Statement>,
        outcome: &SelectionOutcome,
    ) -> SynergyRewriter {
        let mut views_by_sql = BTreeMap::new();
        for (idx, statement) in workload.iter().enumerate() {
            if let Some(views) = outcome.per_query.get(&idx) {
                views_by_sql.insert(statement.to_string(), views.clone());
            }
        }
        SynergyRewriter {
            candidates,
            workload,
            views_by_sql,
        }
    }
}

impl PlanRewriter for SynergyRewriter {
    fn rule_name(&self) -> &str {
        "synergy-view-rewrite"
    }

    fn rewrite_select(&self, select: &SelectStatement) -> Option<(SelectStatement, String)> {
        let adhoc;
        let views = match self.views_by_sql.get(&select.to_string()) {
            Some(views) => views,
            None => {
                adhoc = select_views_for_query(&self.candidates, select, &self.workload);
                &adhoc
            }
        };
        if views.is_empty() {
            return None;
        }
        let note = views
            .iter()
            .map(|v| format!("{} replaces {}", v.table_name(), v.relations.join(", ")))
            .collect::<Vec<_>>()
            .join("; ");
        Some((rewrite_query(select, views), note))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::select_views;
    use crate::viewgen::generate_candidate_views;
    use relational::company;
    use sql::{parse_statement, parse_workload, Comparison};

    fn company_outcome() -> (Vec<Statement>, SelectionOutcome) {
        let schema = company::company_schema();
        let sql_texts = company::company_workload_sql();
        let workload = parse_workload(sql_texts.iter().map(String::as_str)).unwrap();
        let candidates = generate_candidate_views(&schema, &workload, &company::company_roots());
        let outcome = select_views(&schema, &candidates, &workload);
        (workload, outcome)
    }

    #[test]
    fn w1_is_rewritten_to_a_single_view_scan() {
        let (workload, outcome) = company_outcome();
        let select = rewrite_query(workload[0].as_select().unwrap(), &outcome.per_query[&0]);
        assert_eq!(select.from.len(), 1);
        assert_eq!(select.from[0].table, "V_Address__Employee");
        // The a.AID = e.EHome_AID join disappears; the EID filter survives,
        // re-qualified to the view.
        assert_eq!(select.conditions.len(), 1);
        assert_eq!(select.conditions[0].left.qualified_name(), "V_Address__Employee.EID");
        assert_eq!(select.conditions[0].op, Comparison::Eq);
    }

    #[test]
    fn w2_keeps_the_cross_tree_join_against_department() {
        let (workload, outcome) = company_outcome();
        let select = rewrite_query(workload[1].as_select().unwrap(), &outcome.per_query[&1]);
        // Employee⋈Works_On is folded into the view; Department remains a
        // base table joined against the view.
        assert_eq!(select.from.len(), 2);
        let tables: Vec<&str> = select.from.iter().map(|t| t.table.as_str()).collect();
        assert!(tables.contains(&"V_Employee__Works_On"));
        assert!(tables.contains(&"Department"));
        let joins: Vec<String> = select
            .conditions
            .iter()
            .filter(|c| c.is_equi_join())
            .map(|c| c.to_string())
            .collect();
        assert_eq!(joins.len(), 1);
        assert!(joins[0].contains("DNo"));
    }

    #[test]
    fn paper_figure_6_rewrite_shape() {
        // SELECT * FROM R2,R3,R4,R5,R6 WHERE ... rewritten over views
        // R2-R3-R4 and R5-R6 becomes a join of the two views on pk2 = fk5.
        let query = parse_statement(
            "SELECT * FROM R2, R3, R4, R5, R6 \
             WHERE R2.pk2 = R3.fk3 AND R3.pk3 = R4.fk4 AND R2.pk2 = R5.fk5 AND R5.pk5 = R6.fk6",
        )
        .unwrap();
        let edge = |from: &str, to: &str, pk: &str, fk: &str| relational::GraphEdge {
            from: from.into(),
            to: to.into(),
            pk: vec![pk.into()],
            fk: vec![fk.into()],
        };
        let v1 = ViewDefinition::from_edges(vec![
            edge("R2", "R3", "pk2", "fk3"),
            edge("R3", "R4", "pk3", "fk4"),
        ]);
        let v2 = ViewDefinition::from_edges(vec![edge("R5", "R6", "pk5", "fk6")]);
        let rewritten = rewrite_query(query.as_select().unwrap(), &[v1, v2]);
        assert_eq!(rewritten.from.len(), 2);
        assert_eq!(rewritten.conditions.len(), 1);
        let cond = &rewritten.conditions[0];
        assert_eq!(cond.left.qualified_name(), "V_R2__R3__R4.pk2");
        assert_eq!(
            cond.to_string(),
            "V_R2__R3__R4.pk2 = V_R5__R6.fk5"
        );
    }

    #[test]
    fn statements_without_views_pass_through_unchanged() {
        let schema = company::company_schema();
        let mut sql_texts = company::company_workload_sql();
        sql_texts.push("UPDATE Employee SET EName = ? WHERE EID = ?".to_string());
        sql_texts.push("SELECT * FROM Department WHERE DNo = ?".to_string());
        let workload = parse_workload(sql_texts.iter().map(String::as_str)).unwrap();
        let candidates = generate_candidate_views(&schema, &workload, &company::company_roots());
        let outcome = select_views(&schema, &candidates, &workload);
        // A write is never rewritten: the selection picks no views for it
        // and the rule's input type is a SELECT.
        assert!(outcome.per_query.get(&3).is_none_or(Vec::is_empty));
        // A SELECT no view covers comes back unchanged from `rewrite_query`
        // and makes the planner rule decline.
        let department = workload[4].as_select().unwrap();
        let views = outcome.per_query.get(&4).cloned().unwrap_or_default();
        assert_eq!(&rewrite_query(department, &views), department);
        let rule = SynergyRewriter::new(candidates, workload.clone(), &outcome);
        assert!(rule.rewrite_select(department).is_none());
    }

    #[test]
    fn order_by_and_aggregates_are_requalified() {
        let (_, outcome) = company_outcome();
        let query = parse_statement(
            "SELECT wo.WO_EID, SUM(wo.Hours) AS h FROM Employee as e, Works_On as wo \
             WHERE e.EID = wo.WO_EID GROUP BY wo.WO_EID ORDER BY e.EName DESC LIMIT 3",
        )
        .unwrap();
        let views = outcome
            .view_by_table_name("V_Employee__Works_On")
            .cloned()
            .map(|v| vec![v])
            .unwrap();
        let rewritten = rewrite_query(query.as_select().unwrap(), &views);
        assert_eq!(rewritten.from.len(), 1);
        assert!(rewritten.conditions.is_empty());
        assert_eq!(rewritten.group_by[0].qualified_name(), "V_Employee__Works_On.WO_EID");
        assert_eq!(rewritten.order_by[0].column.qualified_name(), "V_Employee__Works_On.EName");
        assert_eq!(rewritten.limit, Some(3));
        let text = rewritten.to_string();
        assert!(text.contains("SUM(V_Employee__Works_On.Hours) AS h"));
    }
}
