//! Mutable graph construction, frozen into [`DiGraph`].

use crate::csr::{DiGraph, NodeId};
use crate::{GraphError, Result, StreamingBuilder};

/// Accumulates directed edges and freezes them into an immutable CSR
/// [`DiGraph`].
///
/// Self-loops are silently dropped (a Twitter account cannot follow itself)
/// and duplicate edges are deduplicated at [`GraphBuilder::build`] time, so
/// crawl retries cannot inflate edge counts.
///
/// This is the *staged* builder: every edge is buffered as a `(u32, u32)`
/// tuple until `build()`, which replays the buffer through
/// [`StreamingBuilder`] — so both freeze to identical graphs by
/// construction. Staging costs 8 bytes per edge: the measured heap peak
/// from the first `add_edge` through `build()` is 1.48× the final CSR
/// (11.5 MB for the 23,124-node, 926,554-edge default-tier graph; 1.49× at
/// the 5.2M-edge medium tier), against ~1.0× for a producer that drives
/// [`StreamingBuilder`] itself. That is the right trade for incremental
/// producers like the simulated crawler (one pass over the data, arbitrary
/// arrival order); producers that can replay their edge stream —
/// generators, file loaders — should stream instead.
///
/// # Examples
/// ```
/// use vnet_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(0, 1).unwrap(); // duplicate: deduplicated
/// b.add_edge(1, 1).unwrap(); // self-loop: dropped
/// b.add_edge(2, 0).unwrap();
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(0, 1));
///
/// // The frozen graph answers both directions of the follow relation.
/// assert_eq!(g.out_neighbors(2), &[0]);
/// assert_eq!(g.in_neighbors(0), &[2]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder over `n` nodes with ids `0..n`.
    pub fn new(n: u32) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// A builder pre-sized for `m` expected edges.
    pub fn with_capacity(n: u32, m: usize) -> Self {
        Self { n, edges: Vec::with_capacity(m) }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Edges staged so far (before dedup).
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Stage the directed edge `u → v`. Self-loops are dropped without
    /// error; out-of-range endpoints are rejected.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, count: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, count: self.n });
        }
        if u != v {
            self.edges.push((u, v));
        }
        Ok(())
    }

    /// Stage many edges at once.
    pub fn add_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> Result<()> {
        for (u, v) in iter {
            self.add_edge(u, v)?;
        }
        Ok(())
    }

    /// Freeze into an immutable [`DiGraph`].
    ///
    /// Replays the staged edges through [`StreamingBuilder`] — one pass to
    /// count degrees, one to place each edge — and drops the staging
    /// buffer before the per-node sort, dedup and reverse-CSR pass.
    pub fn build(self) -> DiGraph {
        let mut b = StreamingBuilder::new(self.n);
        b.count_edges(self.edges.iter().copied()).expect("add_edge range-checked every edge");
        b.seal_degrees().expect("sealed once");
        b.place_edges(self.edges.iter().copied()).expect("pass 2 replays pass 1");
        drop(self.edges);
        let (graph, _) = b.finish().expect("pass 2 placed every counted edge");
        graph
    }
}

/// Build a graph directly from an edge slice (nodes sized to the max id).
pub fn from_edges(n: u32, edges: &[(NodeId, NodeId)]) -> Result<DiGraph> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.add_edges(edges.iter().copied())?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedup_and_self_loop_drop() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 1).unwrap(); // duplicate
        b.add_edge(1, 1).unwrap(); // self loop: dropped
        b.add_edge(2, 0).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(b.add_edge(0, 2), Err(GraphError::NodeOutOfRange { node: 2, .. })));
        assert!(matches!(b.add_edge(5, 0), Err(GraphError::NodeOutOfRange { node: 5, .. })));
    }

    #[test]
    fn adjacency_sorted_after_unordered_insertion() {
        let mut b = GraphBuilder::new(5);
        for v in [4u32, 1, 3, 2] {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn in_neighbors_sorted() {
        let mut b = GraphBuilder::new(5);
        for u in [4u32, 1, 3, 2] {
            b.add_edge(u, 0).unwrap();
        }
        let g = b.build();
        assert_eq!(g.in_neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn from_edges_helper() {
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(from_edges(2, &[(0, 5)]).is_err());
    }

    proptest! {
        #[test]
        fn builder_invariants(n in 1u32..40,
                              raw in proptest::collection::vec((0u32..40, 0u32..40), 0..300)) {
            let edges: Vec<(u32, u32)> = raw.into_iter()
                .map(|(u, v)| (u % n, v % n))
                .collect();
            let g = from_edges(n, &edges).unwrap();
            // Every built edge must come from the input (minus loops);
            // counts must match a reference HashSet dedup.
            let set: std::collections::HashSet<(u32, u32)> =
                edges.iter().copied().filter(|&(u, v)| u != v).collect();
            prop_assert_eq!(g.edge_count(), set.len());
            for (u, v) in g.edges() {
                prop_assert!(set.contains(&(u, v)));
            }
            // Degree sums both equal edge count.
            let dout: usize = (0..n).map(|u| g.out_degree(u)).sum();
            let din: usize = (0..n).map(|u| g.in_degree(u)).sum();
            prop_assert_eq!(dout, g.edge_count());
            prop_assert_eq!(din, g.edge_count());
            // in/out adjacency are mutually consistent.
            for u in 0..n {
                for &v in g.out_neighbors(u) {
                    prop_assert!(g.in_neighbors(v).binary_search(&u).is_ok());
                }
            }
        }
    }
}
