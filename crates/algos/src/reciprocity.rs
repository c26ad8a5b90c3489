//! Edge reciprocity.
//!
//! Section IV-C: "the reciprocity rate refers to the proportion of pairs of
//! links that go both ways". The verified network reciprocates 33.7% of its
//! directed edges, against 22.1% for all of Twitter (Kwak et al.) and 68%
//! for Flickr.

use vnet_graph::{common_count, for_each_common, DiGraph, NodeId};

/// Fraction of directed edges `u → v` for which `v → u` also exists.
/// Linear: one out ∩ in intersection per node.
pub fn reciprocity(g: &DiGraph) -> f64 {
    reciprocity_among(g, |_| true)
}

/// [`reciprocity`] of the sub-graph induced by the nodes `keep` accepts,
/// counted in place: over kept `u`, the out-edges to kept nodes and the
/// kept mutual partners `out(u) ∩ in(u)`. Equal, bit for bit, to
/// `reciprocity(&induced_subgraph(g, &kept).graph)`, without building it.
pub fn reciprocity_among(g: &DiGraph, keep: impl Fn(NodeId) -> bool) -> f64 {
    let (mut edges, mut reciprocated) = (0u64, 0u64);
    for u in g.nodes().filter(|&u| keep(u)) {
        edges += g.out_neighbors(u).iter().filter(|&&v| keep(v)).count() as u64;
        for_each_common(g.out_neighbors(u), g.in_neighbors(u), |v| {
            if keep(v) {
                reciprocated += 1;
            }
        });
    }
    if edges == 0 {
        return 0.0;
    }
    reciprocated as f64 / edges as f64
}

/// Count of unordered node pairs with edges in both directions.
pub fn mutual_pairs(g: &DiGraph) -> u64 {
    let both_sides: u64 =
        g.nodes().map(|u| common_count(g.out_neighbors(u), g.in_neighbors(u))).sum();
    both_sides / 2
}

/// Per-node reciprocity: of `u`'s out-edges, the fraction reciprocated.
/// Returns `None` for nodes with no out-edges.
pub fn node_reciprocity(g: &DiGraph, u: NodeId) -> Option<f64> {
    let out = g.out_neighbors(u);
    if out.is_empty() {
        return None;
    }
    Some(common_count(out, g.in_neighbors(u)) as f64 / out.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_graph::builder::from_edges;

    #[test]
    fn fully_reciprocal_graph() {
        let g = from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        assert_eq!(reciprocity(&g), 1.0);
        assert_eq!(mutual_pairs(&g), 2);
    }

    #[test]
    fn one_way_graph() {
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(reciprocity(&g), 0.0);
        assert_eq!(mutual_pairs(&g), 0);
    }

    #[test]
    fn mixed_graph_matches_hand_count() {
        // Edges: 0->1, 1->0 (pair), 0->2 (one way), 2->3, 3->2 (pair) => 4/5.
        let g = from_edges(4, &[(0, 1), (1, 0), (0, 2), (2, 3), (3, 2)]).unwrap();
        assert!((reciprocity(&g) - 0.8).abs() < 1e-12);
        assert_eq!(mutual_pairs(&g), 2);
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(reciprocity(&DiGraph::empty(5)), 0.0);
    }

    #[test]
    fn node_reciprocity_cases() {
        let g = from_edges(4, &[(0, 1), (1, 0), (0, 2), (3, 0)]).unwrap();
        assert_eq!(node_reciprocity(&g, 0), Some(0.5)); // 0->1 yes, 0->2 no
        assert_eq!(node_reciprocity(&g, 1), Some(1.0));
        assert_eq!(node_reciprocity(&g, 2), None); // no out edges
        assert_eq!(node_reciprocity(&g, 3), Some(0.0));
    }

    #[test]
    fn reciprocity_relation_to_mutual_pairs() {
        // reciprocity * E == 2 * mutual_pairs, always.
        let g = from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 0)]).unwrap();
        let lhs = reciprocity(&g) * g.edge_count() as f64;
        assert!((lhs - 2.0 * mutual_pairs(&g) as f64).abs() < 1e-9);
    }
}
