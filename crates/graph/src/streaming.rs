//! Streaming two-pass CSR construction.
//!
//! [`GraphBuilder`](crate::GraphBuilder) stages every edge in a
//! `Vec<(u32, u32)>` — 8 bytes per staged edge — before freezing, which
//! puts its peak near 1.5× the final CSR size. That is fine at test scale
//! and costly at paper scale (79.2M edges).
//!
//! [`StreamingBuilder`] is the one CSR construction in the crate, and the
//! staged builder freezes through it. With no tuple staging, the caller
//! replays its edge stream twice:
//!
//! 1. **Count** — [`StreamingBuilder::count`] tallies out-degrees only;
//!    no edge is stored.
//! 2. **Place** — after [`StreamingBuilder::seal_degrees`] turns the
//!    tallies into CSR offsets and allocates the final `u32` target arena,
//!    [`StreamingBuilder::place`] counting-sorts each edge directly into
//!    its node's segment.
//!
//! [`StreamingBuilder::finish`] then sorts + deduplicates each node's
//! segment in place and derives the reverse CSR with one more counting
//! sort. Peak memory is the final CSR plus one `u64` cursor array — the
//! [`StreamStats`] returned alongside the graph account for every arena
//! byte, and feed the `graph.*_bytes` gauges that `verified-net`
//! publishes through `vnet-obs`.

use crate::csr::{DiGraph, NodeId};
use crate::{GraphError, Result};

/// Byte accounting of a streaming build, returned by
/// [`StreamingBuilder::finish`].
///
/// `peak_arena_bytes` counts every arena the builder had live at once
/// (offsets, cursors, forward and reverse targets); for a graph with few
/// duplicate edges it lands near `csr_bytes + 8·n` — below the ~1.5×
/// peak of the staged [`GraphBuilder`](crate::GraphBuilder) path, which
/// adds its 8-byte-per-edge buffer on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Nodes in the finished graph.
    pub nodes: u32,
    /// Edges placed in pass 2 (self-loops already dropped, duplicates not
    /// yet collapsed).
    pub staged_edges: u64,
    /// Edges after per-node deduplication — `graph.edge_count()`.
    pub edges: u64,
    /// Peak bytes of builder-owned arenas live at any one moment.
    pub peak_arena_bytes: u64,
    /// Bytes of the finished CSR (forward + reverse offsets and targets).
    pub csr_bytes: u64,
}

/// Two-pass streaming CSR builder: count degrees, then counting-sort edges
/// straight into the final arenas. No intermediate tuple `Vec`.
///
/// Self-loops are silently dropped, duplicate edges are deduplicated, and
/// out-of-range endpoints are rejected; [`GraphBuilder`](crate::GraphBuilder)
/// freezes through this builder, so both yield `==` graphs from the same
/// edge multiset.
///
/// # Examples
/// ```
/// use vnet_graph::StreamingBuilder;
///
/// let edges = [(0u32, 1u32), (0, 2), (1, 2), (0, 1), (2, 2)];
///
/// // Pass 1: count out-degrees (nothing is stored yet).
/// let mut b = StreamingBuilder::new(3);
/// for &(u, v) in &edges {
///     b.count(u, v)?;
/// }
/// b.seal_degrees()?;
///
/// // Pass 2: replay the same stream; each edge lands in its final slot.
/// for &(u, v) in &edges {
///     b.place(u, v)?;
/// }
/// let (g, stats) = b.finish()?;
///
/// assert_eq!(g.edge_count(), 3); // (0,1) deduplicated, (2,2) dropped
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(stats.staged_edges, 4); // the self-loop never counted
/// assert!(stats.peak_arena_bytes < 2 * stats.csr_bytes);
/// # Ok::<(), vnet_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingBuilder {
    n: u32,
    sealed: bool,
    /// During pass 1: `offsets[u + 1]` holds the running degree tally of
    /// `u`. After [`Self::seal_degrees`]: exclusive prefix sums (final CSR
    /// offsets, modulo dedup compaction in [`Self::finish`]).
    offsets: Vec<u64>,
    /// The final forward target arena, allocated at seal time.
    targets: Vec<NodeId>,
    /// Per-node write cursor for pass 2 (reused for the reverse counting
    /// sort in [`Self::finish`]).
    cursor: Vec<u64>,
}

impl StreamingBuilder {
    /// A streaming builder over `n` nodes with ids `0..n`, starting in the
    /// degree-counting pass.
    pub fn new(n: u32) -> Self {
        Self { n, sealed: false, offsets: vec![0; n as usize + 1], targets: Vec::new(), cursor: Vec::new() }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Edges counted (pass 1) or placed (pass 2) so far, self-loops
    /// excluded.
    pub fn staged_edges(&self) -> u64 {
        if self.sealed {
            self.cursor.iter().zip(&self.offsets).map(|(c, o)| c - o).sum()
        } else {
            self.offsets.iter().sum()
        }
    }

    fn check_range(&self, u: NodeId, v: NodeId) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, count: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, count: self.n });
        }
        Ok(())
    }

    /// Pass 1: tally the directed edge `u → v` into `u`'s out-degree.
    /// Self-loops are dropped without error; out-of-range endpoints are
    /// rejected. Nothing is stored.
    pub fn count(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if self.sealed {
            return Err(GraphError::StreamPass {
                message: "count() after seal_degrees(); pass 1 is over".into(),
            });
        }
        self.check_range(u, v)?;
        if u != v {
            self.offsets[u as usize + 1] += 1;
        }
        Ok(())
    }

    /// Pass 1, bulk form: tally many edges at once.
    pub fn count_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> Result<()> {
        for (u, v) in iter {
            self.count(u, v)?;
        }
        Ok(())
    }

    /// End pass 1: turn the degree tallies into CSR offsets and allocate
    /// the final target arena. After this, only [`Self::place`] (with the
    /// same edge stream) and [`Self::finish`] are valid.
    pub fn seal_degrees(&mut self) -> Result<()> {
        if self.sealed {
            return Err(GraphError::StreamPass { message: "seal_degrees() called twice".into() });
        }
        let n = self.n as usize;
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        let total = self.offsets[n];
        self.targets = vec![0 as NodeId; total as usize];
        self.cursor = self.offsets[..n].to_vec();
        self.sealed = true;
        Ok(())
    }

    /// Pass 2: place the directed edge `u → v` into its final CSR slot.
    /// The pass-2 stream must drop-for-drop match the pass-1 stream;
    /// placing more edges for a node than were counted is a
    /// [`GraphError::StreamPass`] protocol error.
    pub fn place(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if !self.sealed {
            return Err(GraphError::StreamPass {
                message: "place() before seal_degrees(); count the stream first".into(),
            });
        }
        self.check_range(u, v)?;
        if u == v {
            return Ok(());
        }
        let ui = u as usize;
        if self.cursor[ui] >= self.offsets[ui + 1] {
            return Err(GraphError::StreamPass {
                message: format!("pass 2 placed more edges for node {u} than pass 1 counted"),
            });
        }
        self.targets[self.cursor[ui] as usize] = v;
        self.cursor[ui] += 1;
        Ok(())
    }

    /// Pass 2, bulk form: place many edges at once.
    pub fn place_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> Result<()> {
        for (u, v) in iter {
            self.place(u, v)?;
        }
        Ok(())
    }

    /// Freeze into an immutable [`DiGraph`] plus the arena byte accounting.
    ///
    /// Sorts and deduplicates each node's segment in place (compacting the
    /// arena leftwards), then derives the reverse CSR with one counting
    /// sort over the finished forward CSR — scanning in `(u, sorted v)`
    /// order leaves every in-list sorted by source for free.
    ///
    /// Errors with [`GraphError::StreamPass`] when pass 2 placed fewer
    /// edges for some node than pass 1 counted (or never ran).
    pub fn finish(mut self) -> Result<(DiGraph, StreamStats)> {
        if !self.sealed {
            return Err(GraphError::StreamPass {
                message: "finish() before seal_degrees(); run both passes first".into(),
            });
        }
        let n = self.n as usize;
        for u in 0..n {
            if self.cursor[u] != self.offsets[u + 1] {
                return Err(GraphError::StreamPass {
                    message: format!(
                        "pass 2 placed {} edges for node {u}, pass 1 counted {}",
                        self.cursor[u] - self.offsets[u],
                        self.offsets[u + 1] - self.offsets[u]
                    ),
                });
            }
        }
        let staged = self.targets.len() as u64;

        // Per-node sort + dedup, compacting leftwards in place. Equivalent
        // to a global (u, v) sort + dedup: edges are already grouped by u,
        // so only the v-order within each segment is left to establish.
        let mut write = 0usize;
        let mut seg_start = 0usize;
        for u in 0..n {
            let seg_end = self.offsets[u + 1] as usize;
            self.targets[seg_start..seg_end].sort_unstable();
            let new_start = write;
            for i in seg_start..seg_end {
                let v = self.targets[i];
                if write == new_start || self.targets[write - 1] != v {
                    self.targets[write] = v;
                    write += 1;
                }
            }
            seg_start = seg_end;
            self.offsets[u + 1] = write as u64;
        }
        self.targets.truncate(write);
        let m = write as u64;

        // Reverse CSR by counting sort over the forward CSR; the cursor
        // array is recycled as the per-target write cursor.
        let mut in_offsets = vec![0u64; n + 1];
        for &v in &self.targets {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        self.cursor.copy_from_slice(&in_offsets[..n]);
        let mut in_sources = vec![0 as NodeId; write];
        for u in 0..n {
            let (a, b) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for &v in &self.targets[a..b] {
                in_sources[self.cursor[v as usize] as usize] = u as NodeId;
                self.cursor[v as usize] += 1;
            }
        }

        // Every builder arena live at the peak (just before this return):
        // forward offsets + targets (at staged capacity), reverse offsets +
        // sources, and the cursor array.
        let peak_arena_bytes = 8 * (n as u64 + 1) * 2 // offsets, in_offsets
            + 8 * n as u64                            // cursor
            + 4 * self.targets.capacity() as u64      // forward arena (staged size)
            + 4 * m; // reverse arena
        let csr_bytes = 16 * (n as u64 + 1) + 8 * m;
        let stats = StreamStats { nodes: self.n, staged_edges: staged, edges: m, peak_arena_bytes, csr_bytes };
        let graph = DiGraph::from_csr(self.n, self.offsets, self.targets, in_offsets, in_sources);
        Ok((graph, stats))
    }
}

/// Build a graph by replaying an edge stream twice — the iterator face of
/// [`StreamingBuilder`]. `edges()` is called once per pass and must yield
/// the same sequence both times.
///
/// # Examples
/// ```
/// use vnet_graph::streaming::stream_from_fn;
///
/// let (g, stats) = stream_from_fn(4, || (0..4u32).map(|u| (u, (u + 1) % 4)))?;
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(stats.edges, 4);
/// # Ok::<(), vnet_graph::GraphError>(())
/// ```
pub fn stream_from_fn<I, F>(n: u32, mut edges: F) -> Result<(DiGraph, StreamStats)>
where
    F: FnMut() -> I,
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    let mut b = StreamingBuilder::new(n);
    b.count_edges(edges())?;
    b.seal_degrees()?;
    b.place_edges(edges())?;
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use proptest::prelude::*;

    fn stream_build(n: u32, edges: &[(NodeId, NodeId)]) -> (DiGraph, StreamStats) {
        stream_from_fn(n, || edges.iter().copied()).unwrap()
    }

    #[test]
    fn matches_staged_builder_on_duplicates_and_loops() {
        let edges = [(0, 1), (0, 1), (1, 1), (2, 0), (0, 2), (2, 0)];
        let (g, stats) = stream_build(3, &edges);
        let reference = from_edges(3, &edges).unwrap();
        assert_eq!(g, reference);
        assert_eq!(stats.staged_edges, 5); // self-loop dropped in both passes
        assert_eq!(stats.edges, 3);
    }

    #[test]
    fn out_of_range_rejected_in_both_passes() {
        let mut b = StreamingBuilder::new(2);
        assert!(matches!(b.count(0, 5), Err(GraphError::NodeOutOfRange { node: 5, .. })));
        b.count(0, 1).unwrap();
        b.seal_degrees().unwrap();
        assert!(matches!(b.place(5, 0), Err(GraphError::NodeOutOfRange { node: 5, .. })));
    }

    #[test]
    fn protocol_violations_are_errors() {
        let mut b = StreamingBuilder::new(3);
        // place before seal
        assert!(matches!(b.place(0, 1), Err(GraphError::StreamPass { .. })));
        b.count(0, 1).unwrap();
        b.seal_degrees().unwrap();
        // double seal
        assert!(matches!(b.seal_degrees(), Err(GraphError::StreamPass { .. })));
        // count after seal
        assert!(matches!(b.count(0, 2), Err(GraphError::StreamPass { .. })));
        // overflow: second place for a node counted once
        b.place(0, 1).unwrap();
        assert!(matches!(b.place(0, 2), Err(GraphError::StreamPass { .. })));
    }

    #[test]
    fn underfull_pass_two_fails_at_finish() {
        let mut b = StreamingBuilder::new(3);
        b.count(0, 1).unwrap();
        b.count(1, 2).unwrap();
        b.seal_degrees().unwrap();
        b.place(0, 1).unwrap(); // (1, 2) never placed
        assert!(matches!(b.finish(), Err(GraphError::StreamPass { .. })));
    }

    #[test]
    fn finish_before_seal_fails() {
        let b = StreamingBuilder::new(3);
        assert!(matches!(b.finish(), Err(GraphError::StreamPass { .. })));
    }

    #[test]
    fn staged_edges_tracks_both_passes() {
        let mut b = StreamingBuilder::new(3);
        b.count(0, 1).unwrap();
        b.count(0, 0).unwrap(); // loop: not counted
        b.count(1, 2).unwrap();
        assert_eq!(b.staged_edges(), 2);
        b.seal_degrees().unwrap();
        assert_eq!(b.staged_edges(), 0);
        b.place(0, 1).unwrap();
        assert_eq!(b.staged_edges(), 1);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let (g, stats) = stream_build(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(stats.edges, 0);
        let (g, _) = stream_build(5, &[]);
        assert_eq!(g, DiGraph::empty(5));
    }

    #[test]
    fn stats_byte_accounting_is_exact() {
        let edges = [(0, 1), (0, 2), (0, 1), (1, 2)];
        let (g, stats) = stream_build(3, &edges);
        assert_eq!(stats.csr_bytes, g.csr_bytes());
        // 2 offset arrays (4 × u64) + cursor (3 × u64) + forward arena at
        // staged capacity (4 × u32) + reverse arena (3 × u32).
        assert_eq!(stats.peak_arena_bytes, 8 * 4 * 2 + 8 * 3 + 4 * 4 + 4 * 3);
        assert!(stats.peak_arena_bytes < 2 * stats.csr_bytes);
    }

    proptest! {
        // The streaming build and the Vec-staged build are the same
        // function from edge multisets to graphs — byte-for-byte — and
        // both match an ordered-set reference: deduplicated, loop-free,
        // every adjacency list sorted in both directions.
        #[test]
        fn equivalent_to_staged_builder(n in 1u32..40,
                                        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..400)) {
            let edges: Vec<(u32, u32)> = raw.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            let (streamed, stats) = stream_build(n, &edges);
            let staged = from_edges(n, &edges).unwrap();
            prop_assert_eq!(&streamed, &staged);
            prop_assert_eq!(stats.edges as usize, staged.edge_count());
            prop_assert_eq!(stats.csr_bytes, streamed.csr_bytes());
            let forward: std::collections::BTreeSet<(u32, u32)> =
                edges.iter().copied().filter(|&(u, v)| u != v).collect();
            let reverse: std::collections::BTreeSet<(u32, u32)> =
                forward.iter().map(|&(u, v)| (v, u)).collect();
            let row = |set: &std::collections::BTreeSet<(u32, u32)>, x: u32| -> Vec<u32> {
                set.range((x, 0)..(x + 1, 0)).map(|&(_, y)| y).collect()
            };
            for x in 0..n {
                prop_assert_eq!(streamed.out_neighbors(x), &row(&forward, x)[..]);
                prop_assert_eq!(streamed.in_neighbors(x), &row(&reverse, x)[..]);
            }
        }
    }
}
