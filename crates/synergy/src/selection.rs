//! Workload-driven view selection and view-index addition (paper §VI).
//!
//! For every equi-join query in the workload, the join conditions mark edges
//! and relations in the rooted trees; maximal marked paths are then peeled
//! off as the views selected for that query (§VI-A, illustrated by the
//! paper's Figure 6).  After the whole workload is processed, the union of
//! the selected views is added to the schema, and view-indexes are created
//! for queries whose filters are not covered by a view's key (§VI-C).

use crate::viewgen::{joined_pairs, CandidateViews, RootedTree, ViewDefinition};
use relational::{GraphEdge, Schema};
use sql::{SelectStatement, Statement};
use std::collections::{BTreeMap, BTreeSet};

/// A covered index on a materialized view.
///
/// View-indexes serve two purposes in the paper: §VI-C adds them so that
/// queries filtering on a non-key view attribute avoid full view scans, and
/// §VII-C relies on additional indexes so that base-table updates can locate
/// the affected view rows efficiently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewIndexDefinition {
    /// Physical table name of the index.
    pub name: String,
    /// The view this index belongs to (its physical table name).
    pub view: String,
    /// Attribute(s) the index is keyed on (ahead of the view key).
    pub indexed_on: Vec<String>,
    /// True if the index exists to speed up view maintenance (locating view
    /// rows by a constituent relation's key) rather than workload queries.
    pub for_maintenance: bool,
}

/// The result of running view selection over a workload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectionOutcome {
    /// The final set of selected views (deduplicated across queries).
    pub views: Vec<ViewDefinition>,
    /// For each workload index of an equi-join SELECT, the views selected
    /// for that query (in selection order).
    pub per_query: BTreeMap<usize, Vec<ViewDefinition>>,
    /// View-indexes added for query performance (§VI-C) and maintenance.
    pub view_indexes: Vec<ViewIndexDefinition>,
}

impl SelectionOutcome {
    /// Looks up a selected view by its physical table name.
    pub fn view_by_table_name(&self, table: &str) -> Option<&ViewDefinition> {
        self.views.iter().find(|v| v.table_name() == table)
    }

    /// Indexes declared on a given view.
    pub fn indexes_of_view(&self, view_table: &str) -> Vec<&ViewIndexDefinition> {
        self.view_indexes.iter().filter(|i| i.view == view_table).collect()
    }
}

/// Marks on one rooted tree: which edges and relations the current query's
/// join conditions touched.
#[derive(Debug, Default, Clone)]
struct TreeMarks {
    edges: BTreeSet<usize>,
    relations: BTreeSet<String>,
}

/// Selects views for a single equi-join query against the rooted trees
/// (§VI-A, "Views selection for a Query").
pub fn select_views_for_query(
    candidates: &CandidateViews,
    select: &SelectStatement,
    workload: &[Statement],
) -> Vec<ViewDefinition> {
    if !select.is_join_query() {
        return Vec::new();
    }
    // Synergy does not support a relation being used more than once in a
    // query (§VIII-C); such queries keep using base tables.
    let mut seen_tables = BTreeSet::new();
    for table_ref in &select.from {
        if !seen_tables.insert(table_ref.table.to_ascii_lowercase()) {
            return Vec::new();
        }
    }

    let mut selected = Vec::new();
    for tree in &candidates.trees {
        let mut marks = mark_tree(tree, select);
        while let Some(path) = choose_marked_path(tree, &marks, workload) {
            // Un-mark the participating relations and the outgoing edges of
            // those relations.
            let on_path: BTreeSet<String> = path
                .iter()
                .map(|e| e.from.clone())
                .chain(path.iter().map(|e| e.to.clone()))
                .collect();
            for relation in &on_path {
                marks.relations.remove(relation);
                for (idx, edge) in tree.edges.iter().enumerate() {
                    if &edge.from == relation {
                        marks.edges.remove(&idx);
                    }
                }
            }
            selected.push(ViewDefinition::from_edges(path));
        }
    }
    selected
}

/// Marks the edges (and their endpoint relations) of a rooted tree that the
/// query's join conditions cover.
fn mark_tree(tree: &RootedTree, select: &SelectStatement) -> TreeMarks {
    let mut marks = TreeMarks::default();
    for condition in select.join_conditions() {
        for (idx, edge) in tree.edges.iter().enumerate() {
            if joined_pairs(edge, select, condition) > 0 {
                marks.edges.insert(idx);
                marks.relations.insert(edge.from.clone());
                marks.relations.insert(edge.to.clone());
            }
        }
    }
    marks
}

/// Chooses the next path to materialize: it must consist entirely of marked
/// nodes and edges, start at a marked node with no incoming marked edge, and
/// end at a node with no outgoing marked edge.  Among candidates the longest
/// path wins, ties broken by workload weight, so the maximum number of joins
/// is materialized.
fn choose_marked_path(
    tree: &RootedTree,
    marks: &TreeMarks,
    workload: &[Statement],
) -> Option<Vec<GraphEdge>> {
    let start_nodes: Vec<&String> = marks
        .relations
        .iter()
        .filter(|relation| {
            // No incoming marked edge.
            !tree
                .edges
                .iter()
                .enumerate()
                .any(|(idx, e)| marks.edges.contains(&idx) && &&e.to == relation)
        })
        .collect();

    let mut best: Option<Vec<GraphEdge>> = None;
    for start in start_nodes {
        let mut path = Vec::new();
        longest_marked_path(tree, marks, start, &mut path, workload, &mut best);
    }
    best
}

fn longest_marked_path(
    tree: &RootedTree,
    marks: &TreeMarks,
    node: &str,
    path: &mut Vec<GraphEdge>,
    workload: &[Statement],
    best: &mut Option<Vec<GraphEdge>>,
) {
    let mut extended = false;
    for (idx, edge) in tree.edges.iter().enumerate() {
        if edge.from == node
            && marks.edges.contains(&idx)
            && marks.relations.contains(&edge.to)
        {
            path.push(edge.clone());
            longest_marked_path(tree, marks, &edge.to, path, workload, best);
            path.pop();
            extended = true;
        }
    }
    if !extended && !path.is_empty() {
        let replace = match best {
            None => true,
            Some(current) => {
                path.len() > current.len()
                    || (path.len() == current.len()
                        && crate::viewgen::path_workload_weight(path, workload)
                            > crate::viewgen::path_workload_weight(current, workload))
            }
        };
        if replace {
            *best = Some(path.clone());
        }
    }
}

/// Runs view selection over the whole workload (§VI-A "Final View Set") and
/// adds view-indexes (§VI-C) plus the maintenance indexes §VII-C relies on.
pub fn select_views(
    schema: &Schema,
    candidates: &CandidateViews,
    workload: &[Statement],
) -> SelectionOutcome {
    let mut outcome = SelectionOutcome::default();
    for (idx, statement) in workload.iter().enumerate() {
        let Some(select) = statement.as_select() else {
            continue;
        };
        let views = select_views_for_query(candidates, select, workload);
        if views.is_empty() {
            continue;
        }
        for view in &views {
            if !outcome.views.contains(view) {
                outcome.views.push(view.clone());
            }
        }
        outcome.per_query.insert(idx, views);
    }

    add_query_view_indexes(schema, workload, &mut outcome);
    add_maintenance_indexes(schema, workload, &mut outcome);
    outcome
}

/// §VI-C: for each view and each conjunctive query using it, add a
/// view-index keyed on a filter attribute when neither the view key nor an
/// existing view-index covers any of the query's filter attributes.
fn add_query_view_indexes(
    schema: &Schema,
    workload: &[Statement],
    outcome: &mut SelectionOutcome,
) {
    let per_query = outcome.per_query.clone();
    for (query_idx, views) in &per_query {
        let Some(select) = workload[*query_idx].as_select() else {
            continue;
        };
        for view in views {
            let view_attributes = view.attributes(schema);
            let view_key = view.key_attributes(schema);
            let filter_attributes: Vec<String> = select
                .filter_conditions()
                .iter()
                .map(|c| c.left.column.clone())
                .filter(|column| view_attributes.iter().any(|a| a == column))
                .collect();
            if filter_attributes.is_empty() {
                continue;
            }
            let covered = filter_attributes.iter().any(|column| {
                view_key.first() == Some(column)
                    || outcome
                        .indexes_of_view(&view.table_name())
                        .iter()
                        .any(|i| i.indexed_on.first() == Some(column))
            });
            if covered {
                continue;
            }
            let attribute = filter_attributes[0].clone();
            let name = format!("{}__by__{}", view.table_name(), attribute);
            outcome.view_indexes.push(ViewIndexDefinition {
                name,
                view: view.table_name(),
                indexed_on: vec![attribute],
                for_maintenance: false,
            });
        }
    }
}

/// §VII-C: for each view and each non-terminal constituent relation that the
/// workload updates, add an index keyed on that relation's primary key so
/// the affected view rows can be located without scanning the view.
fn add_maintenance_indexes(
    schema: &Schema,
    workload: &[Statement],
    outcome: &mut SelectionOutcome,
) {
    let updated_relations: BTreeSet<String> = workload
        .iter()
        .filter_map(|s| match s {
            Statement::Update(u) => Some(u.table.clone()),
            _ => None,
        })
        .collect();
    let views = outcome.views.clone();
    for view in &views {
        for relation in &view.relations {
            if relation == view.last_relation() {
                continue; // located directly by the view key
            }
            if !updated_relations
                .iter()
                .any(|u| u.eq_ignore_ascii_case(relation))
            {
                continue;
            }
            let Some(rel) = schema.relation(relation) else {
                continue;
            };
            let indexed_on = rel.primary_key.clone();
            let exists = outcome
                .indexes_of_view(&view.table_name())
                .iter()
                .any(|i| i.indexed_on == indexed_on);
            if exists {
                continue;
            }
            let name = format!("{}__maint__{}", view.table_name(), relation);
            outcome.view_indexes.push(ViewIndexDefinition {
                name,
                view: view.table_name(),
                indexed_on,
                for_maintenance: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viewgen::generate_candidate_views;
    use relational::company;
    use sql::{parse_statement, parse_workload};

    fn setup() -> (relational::Schema, CandidateViews, Vec<Statement>) {
        let schema = company::company_schema();
        let sql_texts = company::company_workload_sql();
        let workload = parse_workload(sql_texts.iter().map(String::as_str)).unwrap();
        let candidates = generate_candidate_views(&schema, &workload, &company::company_roots());
        (schema, candidates, workload)
    }

    #[test]
    fn w1_selects_address_employee_view() {
        let (_, candidates, workload) = setup();
        let select = workload[0].as_select().unwrap();
        let views = select_views_for_query(&candidates, select, &workload);
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].display_name(), "Address-Employee");
    }

    #[test]
    fn w2_selects_employee_works_on_view_only() {
        // W2 joins Department⋈Employee⋈Works_On, but Department lives in a
        // different rooted tree than Employee, so only the
        // Employee-Works_On path can be materialized.
        let (_, candidates, workload) = setup();
        let select = workload[1].as_select().unwrap();
        let views = select_views_for_query(&candidates, select, &workload);
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].display_name(), "Employee-Works_On");
    }

    #[test]
    fn figure_6_example_peels_two_views() {
        // Reconstruct the paper's Figure 6: a single rooted tree
        // R1→R2→R3→R4 with R2→R5→R6, and a query joining
        // R2⋈R3⋈R4 and R2⋈R5⋈R6.
        let edge = |from: &str, to: &str, pk: &str, fk: &str| GraphEdge {
            from: from.into(),
            to: to.into(),
            pk: vec![pk.into()],
            fk: vec![fk.into()],
        };
        let tree = RootedTree {
            root: "R1".into(),
            edges: vec![
                edge("R1", "R2", "pk1", "fk2"),
                edge("R2", "R3", "pk2", "fk3"),
                edge("R3", "R4", "pk3", "fk4"),
                edge("R2", "R5", "pk2", "fk5"),
                edge("R5", "R6", "pk5", "fk6"),
            ],
        };
        let candidates = CandidateViews {
            trees: vec![tree],
            dag: relational::SchemaGraph::default(),
            unassigned: vec![],
        };
        let query = parse_statement(
            "SELECT * FROM R2, R3, R4, R5, R6 \
             WHERE R2.pk2 = R3.fk3 AND R3.pk3 = R4.fk4 AND R2.pk2 = R5.fk5 AND R5.pk5 = R6.fk6",
        )
        .unwrap();
        let views = select_views_for_query(&candidates, query.as_select().unwrap(), &[]);
        let names: Vec<String> = views.iter().map(ViewDefinition::display_name).collect();
        assert_eq!(names, vec!["R2-R3-R4".to_string(), "R5-R6".to_string()]);
    }

    #[test]
    fn self_join_queries_are_not_materialized() {
        let (_, candidates, workload) = setup();
        let query = parse_statement(
            "SELECT * FROM Works_On as w1, Works_On as w2 WHERE w1.WO_PNo = w2.WO_PNo",
        )
        .unwrap();
        let views = select_views_for_query(&candidates, query.as_select().unwrap(), &workload);
        assert!(views.is_empty());
    }

    #[test]
    fn single_table_queries_select_no_views() {
        let (_, candidates, workload) = setup();
        let query = parse_statement("SELECT * FROM Employee WHERE EID = 1").unwrap();
        let views = select_views_for_query(&candidates, query.as_select().unwrap(), &workload);
        assert!(views.is_empty());
    }

    #[test]
    fn workload_selection_dedupes_views_across_queries() {
        let (schema, candidates, workload) = setup();
        let outcome = select_views(&schema, &candidates, &workload);
        // W2 and W3 both select Employee-Works_On; W1 selects
        // Address-Employee → two distinct views in total.
        assert_eq!(outcome.views.len(), 2);
        assert_eq!(outcome.per_query.len(), 3);
        let names: Vec<String> = outcome.views.iter().map(ViewDefinition::display_name).collect();
        assert!(names.contains(&"Address-Employee".to_string()));
        assert!(names.contains(&"Employee-Works_On".to_string()));
    }

    #[test]
    fn view_index_added_for_non_key_filter() {
        let (schema, candidates, workload) = setup();
        let outcome = select_views(&schema, &candidates, &workload);
        // W3 filters on wo.Hours, which is not the Employee-Works_On view's
        // key (WO_EID, WO_PNo) → a view-index on Hours must be added.
        let view_table = "V_Employee__Works_On";
        let indexes = outcome.indexes_of_view(view_table);
        assert!(
            indexes
                .iter()
                .any(|i| i.indexed_on == vec!["Hours".to_string()] && !i.for_maintenance),
            "expected a Hours view-index, got {indexes:?}"
        );
    }

    #[test]
    fn w1_key_filter_needs_no_view_index() {
        let (schema, candidates, workload) = setup();
        let outcome = select_views(&schema, &candidates, &workload);
        // W1 filters on e.EID which is the key of the Address-Employee view →
        // no query view-index for that view.
        let indexes = outcome.indexes_of_view("V_Address__Employee");
        assert!(indexes.iter().all(|i| i.for_maintenance));
    }

    #[test]
    fn maintenance_index_added_for_updated_interior_relation() {
        let (schema, candidates, mut workload) = setup();
        workload.push(parse_statement("UPDATE Employee SET EName = ? WHERE EID = ?").unwrap());
        let outcome = select_views(&schema, &candidates, &workload);
        // Employee is an interior relation of Employee-Works_On, and the
        // workload updates Employee → maintenance index on EID.
        let indexes = outcome.indexes_of_view("V_Employee__Works_On");
        assert!(indexes
            .iter()
            .any(|i| i.for_maintenance && i.indexed_on == vec!["EID".to_string()]));
    }

    #[test]
    fn selection_outcome_lookups() {
        let (schema, candidates, workload) = setup();
        let outcome = select_views(&schema, &candidates, &workload);
        assert!(outcome.view_by_table_name("V_Address__Employee").is_some());
        assert!(outcome.view_by_table_name("V_Nope").is_none());
        let containing = |relation| outcome.views.iter().filter(|v| v.contains(relation)).count();
        assert_eq!(containing("Employee"), 2);
        assert_eq!(containing("Department"), 0);
    }
}
