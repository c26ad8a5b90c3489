//! The symmetric graph Laplacian as a matrix-free CSR operator.

use vnet_graph::{DiGraph, NodeId, Undirected};
use vnet_par::{ParPool, ParStats};

/// Rows per fork-join task in [`SymLaplacian::matvec_into_pool`] and in
/// the Lanczos reorthogonalization sweeps. Fixed so the shard layout
/// depends on the dimension only; each row is computed independently, so
/// sharding cannot change any output bit. Small operators
/// (`n <= ROW_CHUNK`) decompose into a single task, which runs inline on
/// the caller's thread.
pub(crate) const ROW_CHUNK: usize = 4096;

/// Symmetric Laplacian `L = D − A` of the undirected projection of a
/// directed graph (an undirected edge `{u, v}` exists when either `u → v`
/// or `v → u` does).
///
/// Borrows the graph's held [`Undirected`] projection; the only operation
/// exposed is the matrix-vector product, which is all both eigensolvers
/// need.
#[derive(Debug, Clone)]
pub struct SymLaplacian<'g> {
    adj: &'g Undirected,
}

impl<'g> SymLaplacian<'g> {
    /// The Laplacian of `g`'s undirected projection, which `g` builds on
    /// first use and holds ([`DiGraph::undirected`]).
    pub fn from_digraph(g: &'g DiGraph) -> Self {
        Self { adj: g.undirected() }
    }

    /// Dimension of the operator.
    pub fn dim(&self) -> usize {
        self.adj.node_count()
    }

    /// Undirected degree of node `u`.
    pub fn degree(&self, u: usize) -> f64 {
        self.adj.degree(u as NodeId) as f64
    }

    /// Maximum undirected degree; `λ_max(L) ≤ 2 · d_max` (and
    /// `λ_max ≥ d_max + 1` on any graph with an edge), giving cheap spectral
    /// bounds for tests.
    pub fn max_degree(&self) -> f64 {
        (0..self.dim()).map(|u| self.degree(u)).fold(0.0, f64::max)
    }

    /// `y = L x` (allocating). See [`SymLaplacian::matvec_into`].
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = L x = D x − A x`, no allocation.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "matvec: dimension mismatch");
        assert_eq!(y.len(), self.dim(), "matvec: output dimension mismatch");
        for (u, slot) in y.iter_mut().enumerate() {
            *slot = self.row_apply(u, x);
        }
    }

    /// [`matvec_into`](Self::matvec_into) sharded over `pool`: rows are
    /// split into `ROW_CHUNK`-sized tasks, each owning a disjoint slice
    /// of `y`. Every row's accumulator is private, so the output is
    /// **bitwise identical** to the serial product at any thread count.
    pub fn matvec_into_pool(&self, x: &[f64], y: &mut [f64], pool: &ParPool) -> ParStats {
        assert_eq!(x.len(), self.dim(), "matvec: dimension mismatch");
        assert_eq!(y.len(), self.dim(), "matvec: output dimension mismatch");
        pool.for_each_chunk_mut(y, ROW_CHUNK, |_task, offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = self.row_apply(offset + k, x);
            }
        })
    }

    /// One row of `L x`: `deg(u)·x[u] − Σ_{v ~ u} x[v]`, accumulated in
    /// CSR neighbor order.
    #[inline]
    fn row_apply(&self, u: usize, x: &[f64]) -> f64 {
        let nbrs = self.adj.neighbors(u as NodeId);
        let mut acc = nbrs.len() as f64 * x[u];
        for &v in nbrs {
            acc -= x[v as usize];
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_graph::builder::from_edges;

    #[test]
    fn symmetrization_merges_directions() {
        // 0 -> 1 and 2 -> 0 produce undirected edges {0,1}, {0,2}.
        let g = from_edges(3, &[(0, 1), (2, 0)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        assert_eq!(l.degree(0), 2.0);
        assert_eq!(l.degree(1), 1.0);
        assert_eq!(l.degree(2), 1.0);
    }

    #[test]
    fn mutual_edge_counted_once() {
        let g = from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        assert_eq!(l.degree(0), 1.0);
        assert_eq!(l.degree(1), 1.0);
    }

    #[test]
    fn matvec_annihilates_constants() {
        // L * 1 = 0 for any graph: rows sum to zero.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let ones = vec![1.0; 5];
        for v in l.matvec(&ones) {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_known_small_case() {
        // Path 0 - 1 - 2: L = [[1,-1,0],[-1,2,-1],[0,-1,1]].
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let y = l.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![1.0, 0.0, -1.0]); // eigvec with eigenvalue 1
        let y2 = l.matvec(&[1.0, -2.0, 1.0]);
        assert_eq!(y2, vec![3.0, -6.0, 3.0]); // eigvec with eigenvalue 3
    }

    #[test]
    fn quadratic_form_nonnegative() {
        // x' L x = Σ_{u~v} (x_u − x_v)² >= 0.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        for x in [[1.0, -1.0, 2.0, 0.5], [0.0, 3.0, -3.0, 1.0]] {
            let y = l.matvec(&x);
            let q: f64 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
            assert!(q >= -1e-12, "quadratic form negative: {q}");
        }
    }

    #[test]
    fn isolated_node_zero_row() {
        let g = from_edges(3, &[(0, 1)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let y = l.matvec(&[5.0, 7.0, 11.0]);
        assert_eq!(y[2], 0.0);
        assert_eq!(l.degree(2), 0.0);
    }
}
