//! The undirected projection of a [`DiGraph`], with the one merge and the
//! one intersection of sorted id lists.
//!
//! Clustering (§IV-A), the Laplacian (§IV-B) and the k-core (§IV-C) read
//! `out(u) ∪ in(u)`, held by [`Undirected`]. Reciprocity (§IV-C) reads the
//! mutual partners `out(u) ∩ in(u)` through [`for_each_common`] and
//! [`common_count`] on the `DiGraph`'s own lists.

use crate::{DiGraph, NodeId};

/// The undirected projection of a directed graph in CSR form: node `u`'s
/// entries are its sorted, deduplicated out ∪ in neighbours, so a mutual
/// pair is one undirected edge. It keeps no direction (a count that
/// depends on direction intersects the `DiGraph`'s out- and in-lists) and
/// needs no self-exclusion (every `DiGraph` constructor drops self-loops).
///
/// Memory: `8(n + 1) + 4·2(E − mutual pairs)` bytes, built in one
/// O(V + E) merge pass. Each graph builds it once, on the first call to
/// [`DiGraph::undirected`], and holds it for its whole life.
///
/// # Examples
/// ```
/// use vnet_graph::builder::from_edges;
///
/// // 0 -> 1, 1 -> 0 (mutual) and 2 -> 0.
/// let g = from_edges(3, &[(0, 1), (1, 0), (2, 0)]).unwrap();
/// let und = g.undirected();
/// assert_eq!(und.neighbors(0), &[1, 2]);
/// assert_eq!(und.degree(1), 1); // the mutual pair counts once
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Undirected {
    offsets: Vec<u64>,
    neighbors: Vec<NodeId>,
}

impl Undirected {
    /// Project `g`: one [`union_sorted`] of each node's out- and in-list.
    /// A fresh build on every call; read a graph's projection through
    /// [`DiGraph::undirected`], which builds it once.
    pub fn from_digraph(g: &DiGraph) -> Self {
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        let mut neighbors = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for u in g.nodes() {
            let start = neighbors.len();
            neighbors.extend(union_sorted(
                g.out_neighbors(u).iter().copied(),
                g.in_neighbors(u).iter().copied(),
            ));
            debug_assert!(
                neighbors[start..].binary_search(&u).is_err(),
                "self-loop on node {u}: every DiGraph constructor drops them"
            );
            offsets.push(neighbors.len() as u64);
        }
        Self { offsets, neighbors }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Undirected degree of `u`: `|out(u) ∪ in(u)|`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Undirected neighbours of `u`, ascending.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        &self.neighbors[a as usize..b as usize]
    }
}

/// Ascending union of two ascending, duplicate-free id sequences; an id in
/// both comes out once. Takes iterators so that overlay views (base minus
/// tombstones plus adds) merge as readily as CSR slices.
pub fn union_sorted<A, B>(a: A, b: B) -> impl Iterator<Item = NodeId>
where
    A: IntoIterator<Item = NodeId>,
    B: IntoIterator<Item = NodeId>,
{
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(&x), Some(&y)) if x == y => {
            b.next();
            a.next()
        }
        (Some(&x), Some(&y)) if x > y => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Call `f` on every id present in both ascending, duplicate-free slices,
/// in ascending order. Linear in `a.len() + b.len()`.
pub fn for_each_common(a: &[NodeId], b: &[NodeId], mut f: impl FnMut(NodeId)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// `|a ∩ b|` of two ascending, duplicate-free slices — on a node's out-
/// and in-lists, its mutual-partner count.
pub fn common_count(a: &[NodeId], b: &[NodeId]) -> u64 {
    let mut count = 0;
    for_each_common(a, b, |_| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn directed_triangle_plus_tail() -> DiGraph {
        // Triangle 0->1->2->0 plus tail 2->3.
        from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn projection_merges_both_directions() {
        let und = Undirected::from_digraph(&directed_triangle_plus_tail());
        assert_eq!(und.node_count(), 4);
        assert_eq!(und.neighbors(0), &[1, 2]);
        assert_eq!(und.neighbors(2), &[0, 1, 3]);
        assert_eq!(und.neighbors(3), &[2]);
        assert_eq!(und.degree(2), 3);
    }

    #[test]
    fn mutual_edge_is_one_neighbor() {
        let und = Undirected::from_digraph(&from_edges(3, &[(0, 1), (1, 0), (1, 2)]).unwrap());
        assert_eq!(und.neighbors(0), &[1]);
        assert_eq!(und.neighbors(1), &[0, 2]);
        assert_eq!(und.degree(2), 1);
    }

    #[test]
    fn isolated_and_empty_graphs() {
        let und = Undirected::from_digraph(&from_edges(3, &[(0, 1)]).unwrap());
        assert_eq!(und.degree(2), 0);
        assert_eq!(und.neighbors(2), &[] as &[NodeId]);
        let empty = Undirected::from_digraph(&DiGraph::empty(0));
        assert_eq!(empty.node_count(), 0);
    }

    #[test]
    fn union_handles_exhausted_sides() {
        let merged: Vec<NodeId> = union_sorted(Vec::new(), vec![2, 5]).collect();
        assert_eq!(merged, vec![2, 5]);
        let merged: Vec<NodeId> = union_sorted(vec![0, 9], Vec::new()).collect();
        assert_eq!(merged, vec![0, 9]);
        let merged: Vec<NodeId> = union_sorted(vec![3], vec![3]).collect();
        assert_eq!(merged, vec![3]);
    }

    #[test]
    fn intersection_counts_and_orders() {
        let (a, b) = ([0, 2, 4, 6, 8], [1, 2, 3, 6, 9]);
        assert_eq!(common_count(&a, &b), 2);
        let mut seen = Vec::new();
        for_each_common(&b, &a, |v| seen.push(v));
        assert_eq!(seen, vec![2, 6]);
        assert_eq!(common_count(&a, &[]), 0);
    }
}
