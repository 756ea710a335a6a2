//! The schema graph (paper §V, Definitions 1–3).
//!
//! Vertices are relations; a directed edge runs from a relation `Ri` to a
//! relation `Rj` when `Rj` has a foreign key referencing `PK(Ri)` — i.e.
//! edges point from the *referenced* (parent) relation to the *referencing*
//! (child) relation, exactly as drawn in the paper's Figure 4(a).  Each edge
//! carries the `(PK, FK)` attribute tuple of Definition 2.

use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A directed key/foreign-key edge from a parent relation to a child.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphEdge {
    /// The referenced (primary-key side) relation.
    pub from: String,
    /// The referencing (foreign-key side) relation.
    pub to: String,
    /// Primary-key attributes of `from`.
    pub pk: Vec<String>,
    /// Foreign-key attributes of `to` that reference `pk`.
    pub fk: Vec<String>,
}

impl GraphEdge {
    /// Human-readable `(PK, FK)` label, e.g. `(AID, EHome_AID)`.
    pub fn label(&self) -> String {
        format!("({}, {})", self.pk.join("+"), self.fk.join("+"))
    }
}

/// The directed graph of key/foreign-key relationships in a schema.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SchemaGraph {
    nodes: Vec<String>,
    edges: Vec<GraphEdge>,
}

impl SchemaGraph {
    /// Builds the schema graph of Definition 1 from a schema.
    pub fn from_schema(schema: &Schema) -> SchemaGraph {
        let mut graph = SchemaGraph {
            nodes: schema.relation_names(),
            edges: Vec::new(),
        };
        for child in &schema.relations {
            for fk in &child.foreign_keys {
                if let Some(parent) = schema.relation(&fk.references) {
                    graph.edges.push(GraphEdge {
                        from: parent.name.clone(),
                        to: child.name.clone(),
                        pk: parent.primary_key.clone(),
                        fk: fk.attributes.clone(),
                    });
                }
            }
        }
        graph
    }

    /// Builds a graph from explicit nodes and edges (used by the view
    /// generation mechanism for intermediate DAGs and rooted graphs).
    pub fn from_parts(nodes: Vec<String>, edges: Vec<GraphEdge>) -> SchemaGraph {
        SchemaGraph { nodes, edges }
    }

    /// Relation names (vertices).
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Edges leaving `node` (node is the parent).
    pub fn out_edges(&self, node: &str) -> Vec<&GraphEdge> {
        self.edges.iter().filter(|e| e.from == node).collect()
    }

    /// All (possibly parallel) edges from `from` to `to`.
    pub fn edges_between(&self, from: &str, to: &str) -> Vec<&GraphEdge> {
        self.edges
            .iter()
            .filter(|e| e.from == from && e.to == to)
            .collect()
    }

    /// Kahn's algorithm.  Returns a topological ordering of the nodes, or
    /// `None` if the graph contains a cycle (the paper assumes the input
    /// schema is free of simple and transitive circular references).
    pub fn topological_order(&self) -> Option<Vec<String>> {
        let mut in_degree: BTreeMap<&str, usize> =
            self.nodes.iter().map(|n| (n.as_str(), 0)).collect();
        for e in &self.edges {
            if let Some(d) = in_degree.get_mut(e.to.as_str()) {
                *d += 1;
            }
        }
        let mut queue: VecDeque<&str> = self
            .nodes
            .iter()
            .map(|n| n.as_str())
            .filter(|n| in_degree[n] == 0)
            .collect();
        let mut order = Vec::new();
        let mut visited_edges: BTreeSet<usize> = BTreeSet::new();
        while let Some(node) = queue.pop_front() {
            order.push(node.to_string());
            for (idx, e) in self.edges.iter().enumerate() {
                if e.from == node && !visited_edges.contains(&idx) {
                    visited_edges.insert(idx);
                    let d = in_degree.get_mut(e.to.as_str()).expect("edge to known node");
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(e.to.as_str());
                    }
                }
            }
        }
        if order.len() == self.nodes.len() {
            Some(order)
        } else {
            None
        }
    }

    /// True if the graph has no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Enumerates every simple directed path from `from` to `to` as
    /// sequences of edge indices into [`SchemaGraph::edges`].
    pub fn all_paths(&self, from: &str, to: &str) -> Vec<Vec<GraphEdge>> {
        let mut paths = Vec::new();
        let mut current: Vec<GraphEdge> = Vec::new();
        let mut visited: BTreeSet<String> = BTreeSet::new();
        visited.insert(from.to_string());
        self.dfs_paths(from, to, &mut visited, &mut current, &mut paths);
        paths
    }

    fn dfs_paths(
        &self,
        node: &str,
        target: &str,
        visited: &mut BTreeSet<String>,
        current: &mut Vec<GraphEdge>,
        paths: &mut Vec<Vec<GraphEdge>>,
    ) {
        if node == target {
            paths.push(current.clone());
            return;
        }
        for edge in self.out_edges(node) {
            if visited.contains(&edge.to) {
                continue;
            }
            visited.insert(edge.to.clone());
            current.push(edge.clone());
            self.dfs_paths(&edge.to, target, visited, current, paths);
            current.pop();
            visited.remove(&edge.to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::company;

    #[test]
    fn company_schema_graph_matches_figure_4a() {
        let schema = company::company_schema();
        let graph = SchemaGraph::from_schema(&schema);
        assert_eq!(graph.nodes().len(), 7);
        // Figure 4(a): Address has two edges to Employee (home and office)
        // and one to Dependent.
        assert_eq!(graph.edges_between("Address", "Employee").len(), 2);
        assert_eq!(graph.edges_between("Address", "Dependent").len(), 1);
        assert_eq!(graph.out_edges("Department").len(), 3);
        assert_eq!(graph.edges().iter().filter(|e| e.to == "Works_On").count(), 2);
        assert_eq!(graph.edges().len(), 9);
        assert!(graph.is_acyclic());
    }

    #[test]
    fn topological_order_respects_edges() {
        let schema = company::company_schema();
        let graph = SchemaGraph::from_schema(&schema);
        let order = graph.topological_order().unwrap();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        for e in graph.edges() {
            assert!(pos(&e.from) < pos(&e.to), "{} must precede {}", e.from, e.to);
        }
    }

    #[test]
    fn cycles_are_detected() {
        let edges = vec![
            GraphEdge {
                from: "A".into(),
                to: "B".into(),
                pk: vec!["a".into()],
                fk: vec!["b_a".into()],
            },
            GraphEdge {
                from: "B".into(),
                to: "A".into(),
                pk: vec!["b".into()],
                fk: vec!["a_b".into()],
            },
        ];
        let graph = SchemaGraph::from_parts(vec!["A".into(), "B".into()], edges);
        assert!(!graph.is_acyclic());
        assert!(graph.topological_order().is_none());
    }

    #[test]
    fn all_paths_enumerates_parallel_and_multi_hop_routes() {
        let schema = company::company_schema();
        let graph = SchemaGraph::from_schema(&schema);
        // Address reaches Employee through two parallel edges.
        assert_eq!(graph.all_paths("Address", "Employee").len(), 2);
        // Department reaches Works_On via Employee and via Project.
        let paths = graph.all_paths("Department", "Works_On");
        assert_eq!(paths.len(), 2);
        // Address reaches Works_On via either Employee edge.
        assert_eq!(graph.all_paths("Address", "Works_On").len(), 2);
        // No path in the reverse direction.
        assert!(graph.all_paths("Works_On", "Department").is_empty());
    }

    #[test]
    fn edge_label_is_pk_fk_tuple() {
        let schema = company::company_schema();
        let graph = SchemaGraph::from_schema(&schema);
        let labels: Vec<String> = graph
            .edges_between("Address", "Employee")
            .iter()
            .map(|e| e.label())
            .collect();
        assert!(labels.contains(&"(AID, EHome_AID)".to_string()));
        assert!(labels.contains(&"(AID, EOffice_AID)".to_string()));
    }
}
