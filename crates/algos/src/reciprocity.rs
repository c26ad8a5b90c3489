//! Edge reciprocity.
//!
//! Section IV-C: "the reciprocity rate refers to the proportion of pairs of
//! links that go both ways". The verified network reciprocates 33.7% of its
//! directed edges, against 22.1% for all of Twitter (Kwak et al.) and 68%
//! for Flickr.
//!
//! Every count goes through one kernel, [`reciprocity_bands`]: the whole
//! graph is its one-band case, and the nested k-core bands of the §IV-C
//! conjecture are read off the same pass.

use std::time::Instant;

use vnet_ctx::AnalysisCtx;
use vnet_graph::{common_count, for_each_common, DiGraph, NodeId};

/// Nodes per task of [`reciprocity_bands`]: small next to the graph, so
/// the lanes of a pool share a skewed degree sequence evenly.
const NODE_CHUNK: usize = 1_024;

/// Directed edges of a sub-graph, and how many of them are reciprocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// Directed edges `u → v`.
    pub edges: u64,
    /// Edges `u → v` whose reverse `v → u` is an edge too.
    pub reciprocated: u64,
}

impl EdgeCounts {
    /// Fraction of the edges that are reciprocated; 0 without edges.
    pub fn reciprocity(&self) -> f64 {
        if self.edges == 0 {
            return 0.0;
        }
        self.reciprocated as f64 / self.edges as f64
    }

    /// Unordered node pairs with edges both ways: each holds two
    /// reciprocated edges.
    pub fn mutual_pairs(&self) -> u64 {
        self.reciprocated / 2
    }
}

/// [`EdgeCounts`] of the nested sub-graphs induced by the nodes whose
/// `rank` is at least each of the ascending `thresholds`: entry `i` counts
/// the edges `u → v` with `rank(u) ≥ thresholds[i]` and
/// `rank(v) ≥ thresholds[i]`. Equal to counting each
/// `induced_subgraph` on its own, without building any of them.
///
/// One pass over the nodes, in tasks of `NODE_CHUNK` (1,024) nodes on the
/// context's pool: an edge is counted once, in the innermost band that
/// holds both its ends, and a suffix sum over the bands folds it into
/// every band around that one. Every count is an integer, so the result is
/// the same at any thread count. Par accounting (stage `reciprocity`)
/// lands on the context.
pub fn reciprocity_bands(
    g: &DiGraph,
    rank: impl Fn(NodeId) -> u32 + Sync,
    thresholds: &[u32],
    ctx: &AnalysisCtx,
) -> Vec<EdgeCounts> {
    debug_assert!(thresholds.windows(2).all(|w| w[0] <= w[1]), "thresholds must ascend");
    let started = Instant::now();
    // The bands whose threshold `r` reaches: an edge's smaller end rank
    // puts it in bands `0..depth(r)`.
    let depth = |r: u32| thresholds.partition_point(|&t| t <= r);
    let empty = vec![EdgeCounts::default(); thresholds.len()];
    let (mut counts, par) = ctx.pool().map_reduce_chunks(
        g.node_count(),
        NODE_CHUNK,
        |_, nodes| {
            let mut innermost = empty.clone();
            for u in nodes.map(|u| u as NodeId) {
                let ru = rank(u);
                if depth(ru) == 0 {
                    continue;
                }
                for &v in g.out_neighbors(u) {
                    if let Some(band) = depth(ru.min(rank(v))).checked_sub(1) {
                        innermost[band].edges += 1;
                    }
                }
                for_each_common(g.out_neighbors(u), g.in_neighbors(u), |v| {
                    if let Some(band) = depth(ru.min(rank(v))).checked_sub(1) {
                        innermost[band].reciprocated += 1;
                    }
                });
            }
            innermost
        },
        empty.clone(),
        |mut acc, part| {
            for (a, p) in acc.iter_mut().zip(part) {
                a.edges += p.edges;
                a.reciprocated += p.reciprocated;
            }
            acc
        },
    );
    for band in (1..counts.len()).rev() {
        let inner = counts[band];
        counts[band - 1].edges += inner.edges;
        counts[band - 1].reciprocated += inner.reciprocated;
    }
    ctx.record_par("reciprocity", &par);
    ctx.observe_par_wall("reciprocity", started.elapsed().as_micros() as u64);
    counts
}

/// [`EdgeCounts`] of the whole graph: [`reciprocity_bands`] with one band
/// that holds every node.
pub fn edge_counts(g: &DiGraph, ctx: &AnalysisCtx) -> EdgeCounts {
    reciprocity_bands(g, |_| 0, &[0], ctx)[0]
}

/// Fraction of directed edges `u → v` for which `v → u` also exists.
/// Linear: one out ∩ in intersection per node, on the caller's thread.
pub fn reciprocity(g: &DiGraph) -> f64 {
    edge_counts(g, &AnalysisCtx::quiet()).reciprocity()
}

/// Count of unordered node pairs with edges in both directions.
pub fn mutual_pairs(g: &DiGraph) -> u64 {
    edge_counts(g, &AnalysisCtx::quiet()).mutual_pairs()
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
