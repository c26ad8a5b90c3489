//! The immutable CSR directed graph.

use std::sync::OnceLock;

use crate::Undirected;

/// A node identifier. Dense indices in `0..graph.node_count()`.
///
/// 32 bits suffice: the paper's full graph has 231,246 nodes and any graph
/// this workspace generates stays far below `u32::MAX`.
pub type NodeId = u32;

/// An immutable directed graph in compressed-sparse-row form, storing both
/// out-adjacency (who a node follows) and in-adjacency (who follows a node).
///
/// Neighbor lists are sorted and duplicate-free, enabling `O(log d)`
/// [`DiGraph::has_edge`] checks and linear merges and intersections of a
/// node's two lists (see [`crate::undirected`]).
///
/// The graph also holds its undirected projection, built on the first
/// call to [`DiGraph::undirected`] and kept for the graph's life. A clone
/// carries the projection if it was built; equality ignores it.
#[derive(Debug, Clone)]
pub struct DiGraph {
    n: u32,
    out_offsets: Vec<u64>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u64>,
    in_sources: Vec<NodeId>,
    undirected: OnceLock<Undirected>,
}

impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.out_offsets == other.out_offsets
            && self.out_targets == other.out_targets
            && self.in_offsets == other.in_offsets
            && self.in_sources == other.in_sources
    }
}

impl Eq for DiGraph {}

impl DiGraph {
    /// Assemble from pre-sorted CSR arrays. Intended for [`crate::GraphBuilder`]
    /// and deserializers; invariants are checked with debug assertions.
    pub(crate) fn from_csr(
        n: u32,
        out_offsets: Vec<u64>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u64>,
        in_sources: Vec<NodeId>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n as usize + 1);
        debug_assert_eq!(in_offsets.len(), n as usize + 1);
        debug_assert_eq!(*out_offsets.last().unwrap_or(&0) as usize, out_targets.len());
        debug_assert_eq!(*in_offsets.last().unwrap_or(&0) as usize, in_sources.len());
        Self { n, out_offsets, out_targets, in_offsets, in_sources, undirected: OnceLock::new() }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: u32) -> Self {
        Self::from_csr(n, vec![0; n as usize + 1], Vec::new(), vec![0; n as usize + 1], Vec::new())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// Out-neighbors of `u` (sorted ascending).
    ///
    /// The returned slice borrows the CSR arena directly — iterating it is
    /// a contiguous array scan, the access pattern every hot kernel (BFS,
    /// PageRank pulls, reciprocity checks) in the workspace is built on.
    ///
    /// # Examples
    /// ```
    /// use vnet_graph::builder::from_edges;
    ///
    /// let g = from_edges(4, &[(0, 2), (0, 1), (2, 3)]).unwrap();
    /// assert_eq!(g.out_neighbors(0), &[1, 2]); // sorted, duplicates gone
    ///
    /// // The canonical neighbor loop: no allocation, cache-linear.
    /// let mut reach = 0;
    /// for &v in g.out_neighbors(0) {
    ///     reach += g.out_degree(v);
    /// }
    /// assert_eq!(reach, 1); // node 2 follows node 3
    /// ```
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.out_offsets[u as usize], self.out_offsets[u as usize + 1]);
        &self.out_targets[a as usize..b as usize]
    }

    /// In-neighbors of `u` (sorted ascending).
    ///
    /// Reverse adjacency is pre-built, so "who follows `u`" is as cheap as
    /// "whom does `u` follow" — the PageRank pull loop reads exactly this.
    ///
    /// # Examples
    /// ```
    /// use vnet_graph::builder::from_edges;
    ///
    /// let g = from_edges(3, &[(1, 0), (2, 0)]).unwrap();
    /// assert_eq!(g.in_neighbors(0), &[1, 2]);
    /// assert_eq!(g.in_degree(0), 2);
    /// ```
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.in_offsets[u as usize], self.in_offsets[u as usize + 1]);
        &self.in_sources[a as usize..b as usize]
    }

    /// Out-degree of `u` — in Twitter terms, the friend count inside the
    /// sub-graph.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `u` — follower count inside the sub-graph.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        (self.in_offsets[u as usize + 1] - self.in_offsets[u as usize]) as usize
    }

    /// `true` iff the directed edge `u → v` exists. Binary search on the
    /// sorted adjacency list: `O(log out_degree(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all edges as `(source, target)` pairs, in `(u, sorted
    /// v)` order.
    ///
    /// # Examples
    /// ```
    /// use vnet_graph::builder::from_edges;
    ///
    /// let g = from_edges(3, &[(1, 2), (0, 2), (0, 1)]).unwrap();
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    /// ```
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Resident bytes of the four CSR arrays (offsets are `u64`, targets
    /// and sources `u32`) — the denominator of the peak-memory budget the
    /// `graph-scale` verify lane enforces, and the value behind the
    /// `graph.csr_bytes` gauge (see `docs/SCALING.md` for the accounting).
    ///
    /// # Examples
    /// ```
    /// use vnet_graph::builder::from_edges;
    ///
    /// let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// // 2 offset arrays of (n + 1) u64s + 2 edge arrays of E u32s.
    /// assert_eq!(g.csr_bytes(), 16 * 4 + 8 * 2);
    /// ```
    pub fn csr_bytes(&self) -> u64 {
        8 * (self.out_offsets.len() as u64 + self.in_offsets.len() as u64)
            + 4 * (self.out_targets.len() as u64 + self.in_sources.len() as u64)
    }

    /// Graph density `E / (V (V − 1))` — the paper reports 0.00148 for the
    /// verified network.
    pub fn density(&self) -> f64 {
        let v = self.node_count() as f64;
        if v < 2.0 {
            return 0.0;
        }
        self.edge_count() as f64 / (v * (v - 1.0))
    }

    /// A node is isolated when it has neither in- nor out-edges. The paper
    /// counts 6,027 isolated verified users.
    pub fn is_isolated(&self, u: NodeId) -> bool {
        self.out_degree(u) == 0 && self.in_degree(u) == 0
    }

    /// Ids of all isolated nodes.
    pub fn isolated_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&u| self.is_isolated(u)).collect()
    }

    /// The transpose graph (every edge reversed). O(V + E); cheap because
    /// both directions are already stored. It builds its own projection
    /// when asked.
    pub fn transpose(&self) -> DiGraph {
        DiGraph::from_csr(
            self.n,
            self.in_offsets.clone(),
            self.in_sources.clone(),
            self.out_offsets.clone(),
            self.out_targets.clone(),
        )
    }

    /// The undirected projection: built by [`Undirected::from_digraph`] on
    /// the first call (one O(V + E) merge pass; concurrent first callers
    /// wait for one build) and held until the graph is dropped. Clustering,
    /// the k-core peel, the Laplacian and the temporal counters all read
    /// this one copy.
    ///
    /// # Examples
    /// ```
    /// use vnet_graph::builder::from_edges;
    ///
    /// let g = from_edges(3, &[(0, 1), (1, 0), (2, 0)]).unwrap();
    /// assert_eq!(g.undirected().neighbors(0), &[1, 2]);
    /// assert!(std::ptr::eq(g.undirected(), g.undirected())); // built once
    /// ```
    pub fn undirected(&self) -> &Undirected {
        self.undirected.get_or_init(|| Undirected::from_digraph(self))
    }

    /// Out-degree sequence, indexed by node.
    pub fn out_degrees(&self) -> Vec<u64> {
        (0..self.n).map(|u| self.out_degree(u) as u64).collect()
    }

    /// In-degree sequence, indexed by node.
    pub fn in_degrees(&self) -> Vec<u64> {
        (0..self.n).map(|u| self.in_degree(u) as u64).collect()
    }

    /// Mean out-degree (equal to mean in-degree).
    pub fn mean_out_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.n as f64
        }
    }

    /// Maximum out-degree and one node attaining it, or `None` on an
    /// edgeless graph. The paper's champion is `@6BillionPeople` at 114,815.
    pub fn max_out_degree(&self) -> Option<(NodeId, usize)> {
        (0..self.n)
            .map(|u| (u, self.out_degree(u)))
            .max_by_key(|&(_, d)| d)
            .filter(|&(_, d)| d > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        let mut b = GraphBuilder::new(4);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_complete() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
    }

    #[test]
    fn density_formula() {
        let g = diamond();
        assert!((g.density() - 5.0 / 12.0).abs() < 1e-12);
        assert_eq!(DiGraph::empty(1).density(), 0.0);
    }

    #[test]
    fn transpose_reverses_everything() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            assert!(t.has_edge(v, u));
        }
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn projection_is_built_once_and_left_out_of_equality() {
        let g = diamond();
        let copy = g.clone();
        let und = g.undirected();
        assert_eq!(*und, Undirected::from_digraph(&g));
        assert!(std::ptr::eq(und, g.undirected()));
        assert!(copy.undirected.get().is_none());
        assert_eq!(g, copy);
    }

    #[test]
    fn transpose_builds_its_own_projection() {
        let g = diamond();
        let t = g.transpose();
        assert!(t.undirected.get().is_none());
        assert!(!std::ptr::eq(t.undirected(), g.undirected()));
        assert_eq!(t.undirected(), g.undirected());
    }

    #[test]
    fn isolated_nodes_detected() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.isolated_nodes(), vec![2, 3, 4]);
        assert!(!g.is_isolated(0));
        assert!(!g.is_isolated(1)); // has an in-edge
    }

    #[test]
    fn max_out_degree() {
        let g = diamond();
        let (u, d) = g.max_out_degree().unwrap();
        assert_eq!((u, d), (0, 2));
        assert!(DiGraph::empty(3).max_out_degree().is_none());
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = DiGraph::empty(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_neighbors(2), &[] as &[NodeId]);
        assert_eq!(g.mean_out_degree(), 0.0);
        assert_eq!(DiGraph::empty(0).mean_out_degree(), 0.0);
    }
}
