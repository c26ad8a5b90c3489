//! Local clustering coefficients.
//!
//! Section IV-A: "a low average local clustering coefficient of 0.1583".
//! Following the convention of the tooling the paper used (networkx), the
//! coefficient is computed on the undirected projection of the follow
//! graph, and nodes with fewer than two neighbors contribute zero to the
//! average.

use std::time::Instant;

use rand::Rng;
use vnet_ctx::AnalysisCtx;
use vnet_graph::{DiGraph, NodeId, Undirected};

/// Samples per task of [`average_local_clustering_sampled`]. One hub's
/// neighbourhood can cost as much as thousands of leaves, so small tasks
/// keep a few hub samples from deciding one lane's share of the work.
const SAMPLE_CHUNK: usize = 64;

/// Local clustering coefficient of `u` on the undirected projection:
/// the fraction of neighbor pairs that are themselves connected (in either
/// direction). Nodes with fewer than two neighbors return 0.
///
/// Costs O(Σ_{v∈N(u)} deg v) plus one O(V) mark buffer; the averages
/// below share one buffer across all their nodes.
pub fn local_clustering(und: &Undirected, u: NodeId) -> f64 {
    local_clustering_marked(und, u, &mut vec![false; und.node_count()])
}

/// [`local_clustering`] over a caller-owned mark buffer, which must be
/// all `false` on entry and is all `false` again on return.
fn local_clustering_marked(und: &Undirected, u: NodeId, marked: &mut [bool]) -> f64 {
    let nbrs = und.neighbors(u);
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    // Mark the neighborhood, then for each member scan its own undirected
    // adjacency for marked nodes. Each connected unordered pair is seen
    // from both sides, so halve at the end. `u` is never marked: the
    // projection has no self-loops.
    for &v in nbrs {
        marked[v as usize] = true;
    }
    let mut hits: u64 = 0;
    for &v in nbrs {
        for &w in und.neighbors(v) {
            if marked[w as usize] {
                hits += 1;
            }
        }
    }
    for &v in nbrs {
        marked[v as usize] = false;
    }
    let links = hits as f64 / 2.0;
    links / (k as f64 * (k as f64 - 1.0) / 2.0)
}

/// Average local clustering coefficient over all nodes (exact). Builds
/// the projection once: O(V + E), then O(Σ_{v∈N(u)} deg v) per node.
pub fn average_local_clustering(g: &DiGraph) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    let und = Undirected::from_digraph(g);
    let mut marked = vec![false; n];
    let total: f64 = g.nodes().map(|u| local_clustering_marked(&und, u, &mut marked)).sum();
    total / n as f64
}

/// Average local clustering estimated from `samples` uniformly chosen nodes
/// (with replacement). Accurate to ~1/√samples; the estimator of choice at
/// paper scale, where exact evaluation touches every hub's neighborhood.
/// Costs one O(V + E) projection build per call, then
/// O(Σ_{v∈N(u)} deg v) per sample `u`.
///
/// The sample nodes are drawn from `rng` up front, on the caller's thread;
/// their coefficients are computed in tasks of `SAMPLE_CHUNK` (64) samples
/// on the context's pool (par stage `clustering`) and summed in sample
/// order, so the estimate has the same bits at any thread count.
pub fn average_local_clustering_sampled<R: Rng + ?Sized>(
    g: &DiGraph,
    samples: usize,
    rng: &mut R,
    ctx: &AnalysisCtx,
) -> f64 {
    let n = g.node_count();
    if n == 0 || samples == 0 {
        return 0.0;
    }
    let und = Undirected::from_digraph(g);
    let nodes: Vec<NodeId> = (0..samples).map(|_| rng.random_range(0..n as u32)).collect();
    let started = Instant::now();
    let (total, par) = ctx.pool().map_reduce_chunks(
        samples,
        SAMPLE_CHUNK,
        |_, range| {
            let mut marked = vec![false; n];
            nodes[range]
                .iter()
                .map(|&u| local_clustering_marked(&und, u, &mut marked))
                .collect::<Vec<f64>>()
        },
        0.0f64,
        |total, coefficients| coefficients.into_iter().fold(total, |sum, c| sum + c),
    );
    ctx.record_par("clustering", &par);
    ctx.observe_par_wall("clustering", started.elapsed().as_micros() as u64);
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_graph::builder::from_edges;
    use vnet_graph::GraphBuilder;

    fn directed_triangle_plus_tail() -> DiGraph {
        // Triangle 0->1->2->0 plus tail 2->3.
        from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn triangle_nodes_fully_clustered() {
        let und = Undirected::from_digraph(&directed_triangle_plus_tail());
        assert_eq!(local_clustering(&und, 0), 1.0);
        assert_eq!(local_clustering(&und, 1), 1.0);
        // Node 2 has neighbors {0,1,3}; only pair (0,1) is linked → 1/3.
        assert!((local_clustering(&und, 2) - 1.0 / 3.0).abs() < 1e-12);
        // Degree-1 node contributes zero.
        assert_eq!(local_clustering(&und, 3), 0.0);
    }

    #[test]
    fn average_matches_hand_computation() {
        let g = directed_triangle_plus_tail();
        let expected = (1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 4.0;
        assert!((average_local_clustering(&g) - expected).abs() < 1e-12);
    }

    #[test]
    fn star_graph_zero_clustering() {
        let mut b = GraphBuilder::new(6);
        for leaf in 1..6u32 {
            b.add_edge(0, leaf).unwrap();
        }
        let g = b.build();
        assert_eq!(average_local_clustering(&g), 0.0);
    }

    #[test]
    fn complete_mutual_graph_full_clustering() {
        let n = 5u32;
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        let g = b.build();
        assert!((average_local_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reciprocal_edges_not_double_counted() {
        // 0 <-> 1, both also link 2 one-way: neighborhood of 2 is {0,1},
        // which is connected (mutually) → C(2) must be exactly 1, not 2.
        let g = from_edges(3, &[(0, 1), (1, 0), (0, 2), (1, 2)]).unwrap();
        assert_eq!(local_clustering(&Undirected::from_digraph(&g), 2), 1.0);
    }

    #[test]
    fn sampled_estimate_close_to_exact() {
        // Random-ish small graph: sampled (with many samples) ≈ exact.
        let g = from_edges(
            8,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0), (6, 1), (7, 6)],
        )
        .unwrap();
        let exact = average_local_clustering(&g);
        let mut rng = StdRng::seed_from_u64(99);
        let approx = average_local_clustering_sampled(&g, 20_000, &mut rng, &AnalysisCtx::quiet());
        assert!((approx - exact).abs() < 0.02, "exact={exact} approx={approx}");
    }

    #[test]
    fn empty_graph_zero() {
        assert_eq!(average_local_clustering(&DiGraph::empty(0)), 0.0);
        assert_eq!(average_local_clustering(&DiGraph::empty(3)), 0.0);
    }
}
