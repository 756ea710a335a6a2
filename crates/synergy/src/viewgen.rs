//! Candidate views generation (paper §V).
//!
//! The mechanism takes the schema graph, the workload and a set of root
//! relations and produces one rooted tree per root:
//!
//! 1. **Graph → DAG**: keep at most one edge between any pair of relations,
//!    choosing the edge with the highest workload weight (number of
//!    overlapping joins), e.g. dropping `(AID, EOffice_AID)` in the Company
//!    example.
//! 2. **Topological order** of the DAG.
//! 3. **Assign relations to roots**: in topological order, each non-root
//!    relation is assigned to at most one root by selecting the
//!    highest-weight root-to-relation path whose relations are not already
//!    owned by a different root; the path is added to that root's *rooted
//!    graph*.
//! 4. **Rooted graph → rooted tree**: walking non-root relations in reverse
//!    topological order, repeatedly keep the highest-weight root-to-relation
//!    path, so that exactly one path connects the root to every assigned
//!    relation.
//!
//! Every path in a rooted tree is a candidate view (Definition 5); the view
//! is stored physically as a table whose attributes are the union of the
//! participating relations' attributes and whose key is the key of the last
//! relation in the path.

use relational::{GraphEdge, Schema, SchemaGraph};
use sql::{ColumnRef, Condition, SelectStatement, Statement};
use std::collections::{BTreeMap, BTreeSet};

/// A rooted tree produced by the candidate views generation mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    /// The root relation.
    pub root: String,
    /// Tree edges, each from a parent relation to a child relation.
    pub edges: Vec<GraphEdge>,
}

impl RootedTree {
    /// Every relation in the tree (root first, then children in edge order).
    pub fn nodes(&self) -> Vec<String> {
        let mut nodes = vec![self.root.clone()];
        for e in &self.edges {
            if !nodes.contains(&e.to) {
                nodes.push(e.to.clone());
            }
        }
        nodes
    }

    /// True if the relation belongs to this tree.
    pub fn contains(&self, relation: &str) -> bool {
        self.root == relation || self.edges.iter().any(|e| e.to == relation)
    }

    /// The edge whose child is `relation`, if any.
    pub fn edge_into(&self, relation: &str) -> Option<&GraphEdge> {
        self.edges.iter().find(|e| e.to == relation)
    }

    /// Edges whose parent is `relation`.
    pub fn children(&self, relation: &str) -> Vec<&GraphEdge> {
        self.edges.iter().filter(|e| e.from == relation).collect()
    }

    /// The unique path of edges from the root down to `relation`
    /// (empty for the root itself, `None` if the relation is not in the tree).
    pub fn path_from_root(&self, relation: &str) -> Option<Vec<GraphEdge>> {
        if relation == self.root {
            return Some(Vec::new());
        }
        let mut path = Vec::new();
        let mut current = relation.to_string();
        while current != self.root {
            let edge = self.edge_into(&current)?.clone();
            current = edge.from.clone();
            path.push(edge);
        }
        path.reverse();
        Some(path)
    }

    /// Enumerates every downward path of length ≥ 1 in the tree — the
    /// candidate views rooted anywhere in the tree (Definition 5).
    pub fn all_paths(&self) -> Vec<ViewDefinition> {
        let mut out = Vec::new();
        for start in self.nodes() {
            self.extend_paths(&start, &mut vec![], &mut out);
        }
        out
    }

    fn extend_paths(
        &self,
        node: &str,
        prefix: &mut Vec<GraphEdge>,
        out: &mut Vec<ViewDefinition>,
    ) {
        for edge in self.children(node) {
            prefix.push(edge.clone());
            out.push(ViewDefinition::from_edges(prefix.clone()));
            self.extend_paths(&edge.to, prefix, out);
            prefix.pop();
        }
    }
}

/// A candidate or selected materialized view: a path of key/foreign-key
/// edges.  The view's attributes are the union of the participating
/// relations' attributes; its key is the key of the last relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDefinition {
    /// Relations in path order (first → last).
    pub relations: Vec<String>,
    /// The edges connecting consecutive relations (`relations.len() - 1`).
    pub edges: Vec<GraphEdge>,
}

impl ViewDefinition {
    /// Builds a view definition from a non-empty edge path.
    pub fn from_edges(edges: Vec<GraphEdge>) -> Self {
        // lint-allow(panic-freedom): documented constructor precondition; every caller passes a path it just extended
        assert!(!edges.is_empty(), "a view path needs at least one edge");
        let mut relations = vec![edges[0].from.clone()];
        for e in &edges {
            relations.push(e.to.clone());
        }
        ViewDefinition { relations, edges }
    }

    /// The physical table name of the view, e.g. `V_Customer__Orders`.
    pub fn table_name(&self) -> String {
        format!("V_{}", self.relations.join("__"))
    }

    /// Display name matching the paper's `Customer-Order-Order_line` style.
    pub fn display_name(&self) -> String {
        self.relations.join("-")
    }

    /// The last relation of the path (whose key becomes the view key).
    pub fn last_relation(&self) -> &str {
        // lint-allow(panic-freedom): JoinPath::new rejects empty relation lists
        self.relations.last().expect("non-empty path")
    }

    /// The first relation of the path.
    pub fn first_relation(&self) -> &str {
        // lint-allow(panic-freedom): JoinPath::new rejects empty relation lists
        self.relations.first().expect("non-empty path")
    }

    /// True if `relation` participates in the view.
    pub fn contains(&self, relation: &str) -> bool {
        self.relations.iter().any(|r| r == relation)
    }

    /// Number of relations in the view.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Views always span at least two relations.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The SELECT statement defining this view's contents: the natural
    /// FK-join of its relations.  The maintenance engine compiles this
    /// through the regular planner into the view's delta plan.
    pub fn defining_select(&self) -> String {
        let mut conditions = Vec::new();
        for edge in &self.edges {
            for (pk, fk) in edge.pk.iter().zip(edge.fk.iter()) {
                conditions.push(format!("{}.{pk} = {}.{fk}", edge.from, edge.to));
            }
        }
        format!(
            "SELECT * FROM {} WHERE {}",
            self.relations.join(", "),
            conditions.join(" AND ")
        )
    }

    /// The view's key attributes: the primary key of the last relation.
    pub fn key_attributes(&self, schema: &Schema) -> Vec<String> {
        schema
            .relation(self.last_relation())
            .map(|r| r.primary_key.clone())
            .unwrap_or_default()
    }

    /// The view's attributes: the union of the participating relations'
    /// attributes, in relation-path order.
    pub fn attributes(&self, schema: &Schema) -> Vec<String> {
        let mut out = Vec::new();
        for relation in &self.relations {
            if let Some(r) = schema.relation(relation) {
                for a in &r.attributes {
                    if !out.contains(a) {
                        out.push(a.clone());
                    }
                }
            }
        }
        out
    }
}

/// Output of the candidate views generation mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateViews {
    /// One rooted tree per root that received at least one relation.
    pub trees: Vec<RootedTree>,
    /// The intermediate DAG (schema graph with parallel edges pruned),
    /// exposed for inspection and tests.
    pub dag: SchemaGraph,
    /// Relations that could not be assigned to any root (no path from a
    /// root reaches them); their writes need no hierarchical lock.
    pub unassigned: Vec<String>,
}

impl CandidateViews {
    /// The tree whose root is `root`, if any.
    pub fn tree_for_root(&self, root: &str) -> Option<&RootedTree> {
        self.trees.iter().find(|t| t.root == root)
    }

    /// The tree containing `relation`, if any.  Because each relation is
    /// assigned to at most one root, there is at most one.
    pub fn tree_containing(&self, relation: &str) -> Option<&RootedTree> {
        self.trees.iter().find(|t| t.contains(relation))
    }

    /// Every candidate view across all rooted trees.
    pub fn all_candidate_views(&self) -> Vec<ViewDefinition> {
        self.trees.iter().flat_map(RootedTree::all_paths).collect()
    }
}

/// The workload-aware heuristic of §V-B2: the weight of an edge is the number
/// of join conditions in the workload that join exactly that `(PK, FK)`
/// attribute pair between the edge's two relations.
pub fn edge_workload_weight(edge: &GraphEdge, workload: &[Statement]) -> usize {
    workload
        .iter()
        .filter_map(Statement::as_select)
        .flat_map(|select| {
            let conditions = select.join_conditions();
            conditions.into_iter().map(move |condition| joined_pairs(edge, select, condition))
        })
        .sum()
}

/// How many of `edge`'s `(PK, FK)` attribute pairs the join `condition` of
/// `select` joins, in either direction, with its column qualifiers resolved
/// through `select`'s aliases.
pub(crate) fn joined_pairs(edge: &GraphEdge, select: &SelectStatement, condition: &Condition) -> usize {
    let sql::Expr::Column(right) = &condition.right else {
        return 0;
    };
    // Each side as (table, column), its qualifier resolved through the aliases.
    fn side<'a>(select: &'a SelectStatement, column: &'a ColumnRef) -> (&'a str, &'a str) {
        let table = column.qualifier.as_deref().and_then(|q| select.resolve_alias(q));
        (table.unwrap_or(""), &column.column)
    }
    let (left, right) = (side(select, &condition.left), side(select, right));
    // Does `from` name the edge's PK attribute `pk` and `to` its FK `fk`?
    let joins = |from: (&str, &str), to: (&str, &str), pk: &str, fk: &str| {
        from.0.eq_ignore_ascii_case(&edge.from)
            && to.0.eq_ignore_ascii_case(&edge.to)
            && from.1.eq_ignore_ascii_case(pk)
            && to.1.eq_ignore_ascii_case(fk)
    };
    let pairs = edge.pk.iter().zip(&edge.fk);
    pairs.filter(|(pk, fk)| joins(left, right, pk, fk) || joins(right, left, pk, fk)).count()
}

/// Weight of a path: the sum of its edge weights (the number of workload
/// joins the path overlaps).
pub fn path_workload_weight(path: &[GraphEdge], workload: &[Statement]) -> usize {
    path.iter().map(|e| edge_workload_weight(e, workload)).sum()
}

/// Number of workload queries that contain at least one join condition
/// overlapping one of the path's edges.  This is the "number of overlapping
/// joins" heuristic used when assigning relations to roots: counting
/// *queries* (rather than raw conditions) keeps one query with many joins
/// from dominating the assignment.
pub fn path_query_overlap(path: &[GraphEdge], workload: &[Statement]) -> usize {
    workload
        .iter()
        .filter(|statement| {
            path.iter()
                .any(|edge| edge_workload_weight(edge, std::slice::from_ref(*statement)) > 0)
        })
        .count()
}

/// Runs the candidate views generation mechanism (§V-B) and returns the
/// rooted trees.
pub fn generate_candidate_views(
    schema: &Schema,
    workload: &[Statement],
    roots: &[String],
) -> CandidateViews {
    let graph = SchemaGraph::from_schema(schema);

    // Step 1: prune parallel edges, keeping the highest-weight edge between
    // any ordered pair of relations.
    let mut kept: BTreeMap<(String, String), GraphEdge> = BTreeMap::new();
    for edge in graph.edges() {
        let key = (edge.from.clone(), edge.to.clone());
        match kept.get(&key) {
            Some(existing)
                if edge_workload_weight(existing, workload)
                    >= edge_workload_weight(edge, workload) => {}
            _ => {
                kept.insert(key, edge.clone());
            }
        }
    }
    let dag = SchemaGraph::from_parts(graph.nodes().to_vec(), kept.into_values().collect());
    debug_assert!(dag.is_acyclic(), "schema must be free of circular references");

    // Step 2: topological order of the DAG.
    let topo = dag
        .topological_order()
        // lint-allow(panic-freedom): schema validation rejects cyclic FK graphs at load
        .expect("schema graph free of circular references");

    // Step 3: assign non-root relations to roots in topological order.
    let mut assignment: BTreeMap<String, String> = BTreeMap::new(); // relation -> root
    for root in roots {
        assignment.insert(root.clone(), root.clone());
    }
    let mut rooted_graph_edges: BTreeMap<String, Vec<GraphEdge>> = BTreeMap::new();
    let mut unassigned = Vec::new();
    for relation in &topo {
        if roots.contains(relation) {
            continue;
        }
        // 3a: identify paths from every root to this relation.
        let mut candidate_paths: Vec<(usize, usize, String, Vec<GraphEdge>)> = Vec::new();
        for root in roots {
            for path in dag.all_paths(root, relation) {
                // 3b: the path must include a single root and no relation
                // already owned by a different root.
                let contains_other_root = path
                    .iter()
                    .any(|e| roots.contains(&e.to) && &e.to != relation);
                if contains_other_root {
                    continue;
                }
                let conflicting = path.iter().any(|e| {
                    assignment
                        .get(&e.to)
                        .is_some_and(|owner| owner != root)
                });
                if conflicting {
                    continue;
                }
                let overlap = path_query_overlap(&path, workload);
                candidate_paths.push((overlap, path.len(), root.clone(), path));
            }
        }
        // Highest query overlap first; shorter paths win ties (cheaper view
        // maintenance); remaining ties fall back to root declaration order.
        candidate_paths.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let Some((_, _, root, path)) = candidate_paths.into_iter().next() else {
            unassigned.push(relation.clone());
            continue;
        };
        // 3c: add the path to the root's rooted graph and record ownership.
        let edges = rooted_graph_edges.entry(root.clone()).or_default();
        for edge in path {
            assignment.insert(edge.to.clone(), root.clone());
            if !edges.contains(&edge) {
                edges.push(edge);
            }
        }
    }

    // Step 4: reduce each rooted graph to a rooted tree.
    let mut trees = Vec::new();
    for root in roots {
        let Some(edges) = rooted_graph_edges.get(root) else {
            continue;
        };
        let nodes: Vec<String> = {
            let mut nodes = vec![root.clone()];
            for e in edges {
                if !nodes.contains(&e.from) {
                    nodes.push(e.from.clone());
                }
                if !nodes.contains(&e.to) {
                    nodes.push(e.to.clone());
                }
            }
            nodes
        };
        let rooted_graph = SchemaGraph::from_parts(nodes.clone(), edges.clone());
        let topo_non_roots: Vec<String> = rooted_graph
            .topological_order()
            // lint-allow(panic-freedom): subgraph of the validated acyclic schema graph
            .expect("rooted graph is a sub-DAG")
            .into_iter()
            .filter(|n| n != root)
            .collect();

        let mut remaining: Vec<String> = topo_non_roots;
        let mut tree_edges: Vec<GraphEdge> = Vec::new();
        // Reverse topological order keeps the paths that materialize the
        // largest number of workload joins (§V-B2, step 4 discussion).
        while let Some(last) = remaining.last().cloned() {
            let mut paths = rooted_graph.all_paths(root, &last);
            if paths.is_empty() {
                // Unreachable within the rooted graph (should not happen) —
                // drop the relation defensively.
                remaining.pop();
                continue;
            }
            paths.sort_by_key(|p| std::cmp::Reverse(path_workload_weight(p, workload)));
            let best = paths.swap_remove(0);
            let on_path: BTreeSet<String> = best.iter().map(|e| e.to.clone()).collect();
            for edge in best {
                if !tree_edges.iter().any(|e| e.to == edge.to) {
                    tree_edges.push(edge);
                }
            }
            remaining.retain(|r| !on_path.contains(r));
        }
        trees.push(RootedTree {
            root: root.clone(),
            edges: tree_edges,
        });
    }

    CandidateViews {
        trees,
        dag,
        unassigned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::company;
    use sql::parse_workload;

    fn company_candidates() -> CandidateViews {
        let schema = company::company_schema();
        let workload_sql = company::company_workload_sql();
        let workload =
            parse_workload(workload_sql.iter().map(String::as_str)).expect("workload parses");
        generate_candidate_views(&schema, &workload, &company::company_roots())
    }

    #[test]
    fn dag_prunes_the_office_address_edge() {
        let candidates = company_candidates();
        // Figure 5(a): only one Address→Employee edge survives, the home
        // address one (it overlaps workload query W1).
        let edges = candidates.dag.edges_between("Address", "Employee");
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].fk, vec!["EHome_AID"]);
        assert_eq!(candidates.dag.edge_count(), 8);
    }

    #[test]
    fn rooted_trees_match_figure_4b() {
        let candidates = company_candidates();
        assert_eq!(candidates.trees.len(), 2);

        // Address tree: Address → Employee → {Works_On, Dependent}.
        let address = candidates.tree_for_root("Address").unwrap();
        assert!(address.contains("Employee"));
        assert!(address.contains("Works_On"));
        assert!(address.contains("Dependent"));
        assert_eq!(address.edge_into("Employee").unwrap().from, "Address");
        assert_eq!(address.edge_into("Works_On").unwrap().from, "Employee");
        assert_eq!(address.edge_into("Dependent").unwrap().from, "Employee");

        // Department tree: Department → {Department_Location, Project}.
        let dept = candidates.tree_for_root("Department").unwrap();
        assert!(dept.contains("Department_Location"));
        assert!(dept.contains("Project"));
        assert!(!dept.contains("Employee"), "Employee is owned by the Address root");

        // Every non-root relation is assigned to exactly one tree.
        for relation in ["Employee", "Works_On", "Dependent", "Project", "Department_Location"] {
            let owners = candidates
                .trees
                .iter()
                .filter(|t| t.contains(relation))
                .count();
            assert_eq!(owners, 1, "{relation} must belong to exactly one tree");
        }
        assert!(candidates.unassigned.is_empty());
    }

    #[test]
    fn paths_from_root_are_unique_and_correct() {
        let candidates = company_candidates();
        let address = candidates.tree_for_root("Address").unwrap();
        let path = address.path_from_root("Works_On").unwrap();
        let relations: Vec<&str> = path.iter().map(|e| e.to.as_str()).collect();
        assert_eq!(relations, vec!["Employee", "Works_On"]);
        assert_eq!(address.path_from_root("Address").unwrap().len(), 0);
        assert!(address.path_from_root("Project").is_none());
    }

    #[test]
    fn candidate_views_enumerate_all_tree_paths() {
        let candidates = company_candidates();
        let views = candidates.all_candidate_views();
        let names: Vec<String> = views.iter().map(ViewDefinition::display_name).collect();
        // Address tree paths.
        assert!(names.contains(&"Address-Employee".to_string()));
        assert!(names.contains(&"Address-Employee-Works_On".to_string()));
        assert!(names.contains(&"Employee-Works_On".to_string()));
        assert!(names.contains(&"Employee-Dependent".to_string()));
        // Department tree paths.
        assert!(names.contains(&"Department-Project".to_string()));
        assert!(names.contains(&"Department-Department_Location".to_string()));
        // No view crosses trees.
        assert!(!names.iter().any(|n| n.contains("Department") && n.contains("Employee")));
    }

    #[test]
    fn view_definition_metadata() {
        let schema = company::company_schema();
        let candidates = company_candidates();
        let address = candidates.tree_for_root("Address").unwrap();
        let path = address.path_from_root("Works_On").unwrap();
        let view = ViewDefinition::from_edges(path);
        assert_eq!(view.display_name(), "Address-Employee-Works_On");
        assert_eq!(view.table_name(), "V_Address__Employee__Works_On");
        assert_eq!(view.last_relation(), "Works_On");
        assert_eq!(view.first_relation(), "Address");
        assert_eq!(view.key_attributes(&schema), vec!["WO_EID", "WO_PNo"]);
        let attrs = view.attributes(&schema);
        assert!(attrs.contains(&"City".to_string()));
        assert!(attrs.contains(&"EName".to_string()));
        assert!(attrs.contains(&"Hours".to_string()));
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn edge_weights_reflect_workload_joins() {
        let schema = company::company_schema();
        let graph = SchemaGraph::from_schema(&schema);
        let workload_sql = company::company_workload_sql();
        let workload = parse_workload(workload_sql.iter().map(String::as_str)).unwrap();
        let home_edge = graph
            .edges_between("Address", "Employee")
            .into_iter()
            .find(|e| e.fk == vec!["EHome_AID"])
            .unwrap();
        let office_edge = graph
            .edges_between("Address", "Employee")
            .into_iter()
            .find(|e| e.fk == vec!["EOffice_AID"])
            .unwrap();
        assert_eq!(edge_workload_weight(home_edge, &workload), 1);
        assert_eq!(edge_workload_weight(office_edge, &workload), 0);
        let emp_wo = graph.edges_between("Employee", "Works_On")[0];
        // Appears in W2 and W3.
        assert_eq!(edge_workload_weight(emp_wo, &workload), 2);
    }

    #[test]
    fn relations_unreachable_from_roots_are_reported() {
        let schema = company::company_schema();
        let workload = [];
        // Only Department as root: Address, Employee-subtree relations that
        // depend on Address/Employee paths from Department are reachable via
        // Department → Employee, but Address itself is unreachable.
        let candidates =
            generate_candidate_views(&schema, &workload, &["Department".to_string()]);
        assert!(candidates.unassigned.contains(&"Address".to_string()));
        let tree = candidates.tree_for_root("Department").unwrap();
        assert!(tree.contains("Employee"));
    }

    #[test]
    fn empty_roots_produce_no_trees() {
        let schema = company::company_schema();
        let candidates = generate_candidate_views(&schema, &[], &[]);
        assert!(candidates.trees.is_empty());
        assert_eq!(candidates.unassigned.len(), 7);
    }
}
