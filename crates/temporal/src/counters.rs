//! Incremental structural counters: degrees, reciprocity, transitivity.
//!
//! The paper's headline structural numbers — 33.7% reciprocity, global
//! clustering 0.1583, power-law out-degree tail — are all derived from
//! integer counts. Maintaining those counts *incrementally* (O(1) or
//! O(deg) per edge flip) and doing the final floating-point division only
//! when asked makes the daily metrics byte-identical to a from-scratch
//! recount by construction: equal integers divide to equal doubles.
//!
//! The update rules are the classic dynamic triangle-counting ones:
//!
//! * `reciprocal` — directed edges whose reverse exists; ±2 when an edge
//!   appears/disappears and its reverse is present.
//! * `closed_wedges` — Σ over undirected edges of common-neighbor counts
//!   (= 3·triangles); when an undirected edge `u—v` appears or disappears
//!   it changes by the number of common undirected neighbors of `u`, `v`.
//! * `wedges` — Σ `d(d−1)/2` over undirected degrees; changes by the old
//!   degree on increment, new degree on decrement.
//!
//! Every update is applied **before** the overlay mutation, so "the state
//! without this edge" is well-defined on add and "with this edge" on
//! remove; the directed edge `u → v` itself never affects the common-
//! neighbor count (no self-loops, endpoints excluded by construction).

use vnet_graph::{common_count, union_sorted, DiGraph, NodeId};

use crate::overlay::DeltaOverlay;

/// A structurally invalid edge delta, rejected before any counter moves.
///
/// The churn generator emits only valid deltas, but the counters also sit
/// behind externally fed batches (serve `as_of` replays, future live-crawl
/// feeds), where a duplicate follow or an unfollow of a never-followed
/// edge must surface as a typed error — not as a `u64` underflow silently
/// corrupting every statistic derived from the counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta names the same node on both endpoints; the live graph is
    /// self-loop-free by construction.
    SelfLoop {
        /// The offending endpoint.
        node: NodeId,
    },
    /// A follow of an edge that is already present (e.g. duplicated within
    /// one day batch).
    EdgeAlreadyPresent {
        /// Follow source.
        source: NodeId,
        /// Follow target.
        target: NodeId,
    },
    /// An unfollow of an edge that was never followed (or already removed).
    EdgeAbsent {
        /// Unfollow source.
        source: NodeId,
        /// Unfollow target.
        target: NodeId,
    },
    /// An endpoint beyond the graph's node universe.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// Number of nodes in the graph.
        nodes: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaError::SelfLoop { node } => write!(f, "self-loop delta on node {node}"),
            DeltaError::EdgeAlreadyPresent { source, target } => {
                write!(f, "follow of already-present edge {source} -> {target}")
            }
            DeltaError::EdgeAbsent { source, target } => {
                write!(f, "unfollow of absent edge {source} -> {target}")
            }
            DeltaError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} outside graph of {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Integer structural state of the live graph, updated per edge flip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralCounters {
    /// Live directed edges.
    pub edges: u64,
    /// Directed edges whose reverse edge also exists (each mutual pair
    /// contributes 2, matching `vnet_algos::reciprocity`'s numerator).
    pub reciprocal: u64,
    /// Σ over undirected edges of |common undirected neighbors| = 3·triangles.
    pub closed_wedges: u64,
    /// Σ over nodes of `d(d−1)/2` on undirected degrees (wedge count).
    pub wedges: u64,
    out_deg: Vec<u64>,
    in_deg: Vec<u64>,
    und_deg: Vec<u64>,
}

impl StructuralCounters {
    /// Count everything from scratch on a CSR graph. This is also the
    /// comparator the equivalence proptests recount with every day.
    pub fn from_graph(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut out_deg = vec![0u64; n];
        let mut in_deg = vec![0u64; n];
        let mut reciprocal = 0u64;
        for u in 0..n as NodeId {
            out_deg[u as usize] = g.out_degree(u) as u64;
            in_deg[u as usize] = g.in_degree(u) as u64;
            reciprocal += common_count(g.out_neighbors(u), g.in_neighbors(u));
        }
        // The graph's held projection: degrees / wedges / closed wedges.
        let und = g.undirected();
        let und_deg: Vec<u64> = (0..n as NodeId).map(|u| und.degree(u) as u64).collect();
        let wedges = und_deg.iter().map(|&d| d * d.saturating_sub(1) / 2).sum();
        let mut closed_wedges = 0u64;
        for u in 0..n as NodeId {
            let list = und.neighbors(u);
            for &v in list {
                if v > u {
                    closed_wedges += common_count(list, und.neighbors(v));
                }
            }
        }
        Self {
            edges: g.edge_count() as u64,
            reciprocal,
            closed_wedges,
            wedges,
            out_deg,
            in_deg,
            und_deg,
        }
    }

    /// Undirected common-neighbor count of `u` and `v` in the overlay's
    /// live state. Endpoints can never appear in the intersection (no
    /// self-loops), so no exclusion is needed.
    fn common_undirected(ov: &DeltaOverlay, u: NodeId, v: NodeId) -> u64 {
        let nu: Vec<NodeId> = union_sorted(ov.out_neighbors(u), ov.in_neighbors(u)).collect();
        let nv: Vec<NodeId> = union_sorted(ov.out_neighbors(v), ov.in_neighbors(v)).collect();
        common_count(&nu, &nv)
    }

    /// Validate a delta's endpoints against the counter state and the
    /// overlay's node universe.
    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), DeltaError> {
        if u == v {
            return Err(DeltaError::SelfLoop { node: u });
        }
        let nodes = self.out_deg.len();
        for node in [u, v] {
            if node as usize >= nodes {
                return Err(DeltaError::NodeOutOfRange { node, nodes });
            }
        }
        Ok(())
    }

    /// Account for the directed edge `u → v` about to be inserted. Call
    /// **before** `ov.insert(u, v)`; the edge must currently be absent.
    ///
    /// An invalid delta (self-loop, out-of-range endpoint, or an edge that
    /// is already present) returns a typed [`DeltaError`] and leaves every
    /// counter untouched — a deterministic no-op, never an underflow.
    pub fn apply_add(&mut self, ov: &DeltaOverlay, u: NodeId, v: NodeId) -> Result<(), DeltaError> {
        self.check_endpoints(u, v)?;
        if ov.has_edge(u, v) {
            return Err(DeltaError::EdgeAlreadyPresent { source: u, target: v });
        }
        self.edges += 1;
        self.out_deg[u as usize] += 1;
        self.in_deg[v as usize] += 1;
        if ov.has_edge(v, u) {
            // Mutual pair completed: both directions now count as reciprocated.
            self.reciprocal += 2;
        } else {
            // A brand-new undirected edge u—v: new triangles, new wedges.
            let common = Self::common_undirected(ov, u, v);
            self.closed_wedges += 3 * common;
            self.wedges += self.und_deg[u as usize];
            self.und_deg[u as usize] += 1;
            self.wedges += self.und_deg[v as usize];
            self.und_deg[v as usize] += 1;
        }
        Ok(())
    }

    /// Account for the directed edge `u → v` about to be removed. Call
    /// **before** `ov.remove(u, v)`; the edge must currently be present.
    ///
    /// An invalid delta (self-loop, out-of-range endpoint, or an edge that
    /// is not present — e.g. an unfollow of a never-followed pair) returns
    /// a typed [`DeltaError`] and leaves every counter untouched.
    pub fn apply_remove(
        &mut self,
        ov: &DeltaOverlay,
        u: NodeId,
        v: NodeId,
    ) -> Result<(), DeltaError> {
        self.check_endpoints(u, v)?;
        if !ov.has_edge(u, v) {
            return Err(DeltaError::EdgeAbsent { source: u, target: v });
        }
        self.edges -= 1;
        self.out_deg[u as usize] -= 1;
        self.in_deg[v as usize] -= 1;
        if ov.has_edge(v, u) {
            // Mutual pair broken: the surviving direction is unreciprocated.
            self.reciprocal -= 2;
        } else {
            // The undirected edge u—v disappears with its last direction.
            let common = Self::common_undirected(ov, u, v);
            self.closed_wedges -= 3 * common;
            self.und_deg[u as usize] -= 1;
            self.wedges -= self.und_deg[u as usize];
            self.und_deg[v as usize] -= 1;
            self.wedges -= self.und_deg[v as usize];
        }
        Ok(())
    }

    /// Fraction of directed edges that are reciprocated (the paper's 33.7%
    /// statistic); 0 on an empty graph.
    pub fn reciprocity(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.reciprocal as f64 / self.edges as f64
        }
    }

    /// Global transitivity `3·triangles / wedges` on the undirected
    /// projection (the paper's 0.1583 statistic); 0 when wedge-free.
    pub fn transitivity(&self) -> f64 {
        if self.wedges == 0 {
            0.0
        } else {
            self.closed_wedges as f64 / self.wedges as f64
        }
    }

    /// Out-degree per node (live).
    pub fn out_degrees(&self) -> &[u64] {
        &self.out_deg
    }

    /// In-degree per node (live).
    pub fn in_degrees(&self) -> &[u64] {
        &self.in_deg
    }

    /// Positive out-degrees in node order — the power-law refit input.
    pub fn positive_out_degrees(&self) -> Vec<u64> {
        self.out_deg.iter().copied().filter(|&d| d > 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use vnet_graph::builder::from_edges;

    fn mutual_triangle() -> DiGraph {
        // 0↔1, 1→2, 2→0: one mutual pair, one directed triangle.
        from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn scratch_counts_match_known_values() {
        let c = StructuralCounters::from_graph(&mutual_triangle());
        assert_eq!(c.edges, 4);
        assert_eq!(c.reciprocal, 2);
        // Undirected projection is the triangle 0-1-2: 3 closed wedges,
        // 3 wedges, transitivity 1.
        assert_eq!(c.closed_wedges, 3);
        assert_eq!(c.wedges, 3);
        assert_eq!(c.transitivity(), 1.0);
        assert_eq!(c.reciprocity(), 0.5);
    }

    #[test]
    fn incremental_equals_scratch_under_random_churn() {
        let base = mutual_triangle();
        let mut ov = DeltaOverlay::new(Arc::new(base));
        let mut c = StructuralCounters::from_graph(ov.base());
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..3000 {
            let u = rng.random_range(0..4u32);
            let v = rng.random_range(0..4u32);
            if u == v {
                continue;
            }
            if rng.random_bool(0.55) {
                if !ov.has_edge(u, v) {
                    c.apply_add(&ov, u, v).unwrap();
                    assert!(ov.insert(u, v));
                }
            } else if ov.has_edge(u, v) {
                c.apply_remove(&ov, u, v).unwrap();
                assert!(ov.remove(u, v));
            }
            if step % 250 == 0 {
                let (g, _) = ov.materialize();
                let scratch = StructuralCounters::from_graph(&g);
                assert_eq!(c, scratch, "divergence at step {step}");
            }
        }
        let (g, _) = ov.materialize();
        assert_eq!(c, StructuralCounters::from_graph(&g));
    }

    #[test]
    fn degree_views_track_the_overlay() {
        let base = mutual_triangle();
        let mut ov = DeltaOverlay::new(Arc::new(base));
        let mut c = StructuralCounters::from_graph(ov.base());
        c.apply_add(&ov, 3, 0).unwrap();
        ov.insert(3, 0);
        assert_eq!(c.out_degrees()[3], 1);
        assert_eq!(c.in_degrees()[0], 3);
        assert_eq!(c.positive_out_degrees().len(), 4);
    }

    #[test]
    fn adversarial_deltas_are_typed_errors_and_counters_never_move() {
        let base = mutual_triangle();
        let mut ov = DeltaOverlay::new(Arc::new(base));
        let mut c = StructuralCounters::from_graph(ov.base());
        let before = c.clone();

        // Unfollow of a never-followed edge: 3 → 2 was never present.
        assert_eq!(
            c.apply_remove(&ov, 3, 2),
            Err(DeltaError::EdgeAbsent { source: 3, target: 2 })
        );
        // Duplicate follow inside one day batch: the first add lands, the
        // second is rejected without moving any counter.
        assert_eq!(c.apply_add(&ov, 3, 2), Ok(()));
        assert!(ov.insert(3, 2));
        let after_first = c.clone();
        assert_eq!(
            c.apply_add(&ov, 3, 2),
            Err(DeltaError::EdgeAlreadyPresent { source: 3, target: 2 })
        );
        assert_eq!(c, after_first, "rejected duplicate must be a no-op");
        // Self-loop rejection, both directions of the API.
        assert_eq!(c.apply_add(&ov, 1, 1), Err(DeltaError::SelfLoop { node: 1 }));
        assert_eq!(c.apply_remove(&ov, 1, 1), Err(DeltaError::SelfLoop { node: 1 }));
        // Out-of-range endpoints are typed errors, not panics.
        assert_eq!(
            c.apply_add(&ov, 0, 99),
            Err(DeltaError::NodeOutOfRange { node: 99, nodes: 4 })
        );
        assert_eq!(
            c.apply_remove(&ov, 99, 0),
            Err(DeltaError::NodeOutOfRange { node: 99, nodes: 4 })
        );

        // Roll the one successful add back; the counters return exactly to
        // the starting state — nothing underflowed along the way.
        assert_eq!(c.apply_remove(&ov, 3, 2), Ok(()));
        assert!(ov.remove(3, 2));
        assert_eq!(c, before);

        // Errors carry a human-readable rendering for serve-side logs.
        let msg = DeltaError::EdgeAbsent { source: 7, target: 9 }.to_string();
        assert!(msg.contains("7") && msg.contains("9"), "{msg}");
    }
}
