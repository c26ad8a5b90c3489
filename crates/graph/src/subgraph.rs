//! Induced sub-graphs with id remapping.
//!
//! The paper's dataset is itself an induced sub-graph: from each verified
//! user's friend list, only edges leading to *other verified users* are
//! retained (Section III). [`induced_subgraph`] is that exact operation.

use crate::builder::GraphBuilder;
use crate::csr::{DiGraph, NodeId};

/// Result of inducing a sub-graph on a node subset.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced graph over remapped ids `0..subset.len()`.
    pub graph: DiGraph,
    /// `original_of[new_id] = old_id`.
    pub original_of: Vec<NodeId>,
}

/// Induce the sub-graph of `g` on `subset`, remapping ids densely in the
/// order given. Duplicate entries in `subset` are ignored after the first.
pub fn induced_subgraph(g: &DiGraph, subset: &[NodeId]) -> InducedSubgraph {
    let mut new_id = vec![u32::MAX; g.node_count()];
    let mut original_of = Vec::with_capacity(subset.len());
    for &old in subset {
        if new_id[old as usize] == u32::MAX {
            new_id[old as usize] = original_of.len() as u32;
            original_of.push(old);
        }
    }
    let mut b = GraphBuilder::new(original_of.len() as u32);
    for &old_u in &original_of {
        let u = new_id[old_u as usize];
        for &old_v in g.out_neighbors(old_u) {
            let v = new_id[old_v as usize];
            if v != u32::MAX {
                b.add_edge(u, v).expect("remapped ids are in range");
            }
        }
    }
    InducedSubgraph { graph: b.build(), original_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn line_graph() -> DiGraph {
        // 0 -> 1 -> 2 -> 3 -> 4, plus 4 -> 0
        from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap()
    }

    #[test]
    fn induces_only_internal_edges() {
        let g = line_graph();
        let sub = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.graph.node_count(), 3);
        // Internal edges: 1->2, 2->3 (remapped 0->1, 1->2).
        assert_eq!(sub.graph.edge_count(), 2);
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(1, 2));
    }

    #[test]
    fn id_mapping_roundtrip() {
        let g = line_graph();
        let sub = induced_subgraph(&g, &[3, 0, 4]);
        assert_eq!(sub.original_of, vec![3, 0, 4]);
        // Edges 3->4 and 4->0 survive: (0->2) and (2->1) in new ids.
        assert!(sub.graph.has_edge(0, 2));
        assert!(sub.graph.has_edge(2, 1));
        assert_eq!(sub.graph.edge_count(), 2);
    }

    #[test]
    fn duplicates_in_subset_ignored() {
        let g = line_graph();
        let sub = induced_subgraph(&g, &[1, 1, 2, 2]);
        assert_eq!(sub.graph.node_count(), 2);
        assert_eq!(sub.graph.edge_count(), 1);
    }

    #[test]
    fn empty_subset() {
        let g = line_graph();
        let sub = induced_subgraph(&g, &[]);
        assert_eq!(sub.graph.node_count(), 0);
        assert_eq!(sub.graph.edge_count(), 0);
    }

    #[test]
    fn full_subset_is_isomorphic_copy() {
        let g = line_graph();
        let sub = induced_subgraph(&g, &[0, 1, 2, 3, 4]);
        assert_eq!(sub.graph, g);
    }
}
