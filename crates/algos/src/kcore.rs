//! k-core decomposition.
//!
//! Section IV-C of the paper conjectures that the verified network's
//! elevated reciprocity "is due to a larger core of publicly relevant and
//! consequential personalities within this sub-graph. We leave validating
//! this assertion for future work." The k-core decomposition is the
//! standard instrument for that validation: the coreness of a node is the
//! largest `k` such that the node survives iterated deletion of all nodes
//! with (undirected) degree < `k`. `verified-net`'s `elite_core` module
//! runs the validation the paper deferred.
//!
//! Implementation: the O(V + E) bucket algorithm of Batagelj & Zaveršnik
//! on the undirected projection of the follow graph.

use vnet_graph::{NodeId, Undirected};

/// Result of a k-core decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `coreness[v]` = the largest k such that v belongs to the k-core.
    pub coreness: Vec<u32>,
    /// The maximum coreness in the graph (the degeneracy).
    pub degeneracy: u32,
}

impl CoreDecomposition {
    /// Nodes whose coreness is at least `k` (the k-core's members).
    pub fn k_core_members(&self, k: u32) -> Vec<NodeId> {
        self.coreness
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Size of each k-shell: `shell_sizes()[k]` counts nodes with
    /// coreness exactly `k`.
    pub fn shell_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.degeneracy as usize + 1];
        for &c in &self.coreness {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// The innermost core: members of the degeneracy-core.
    pub fn inner_core(&self) -> Vec<NodeId> {
        self.k_core_members(self.degeneracy)
    }
}

/// Batagelj–Zaveršnik bucket k-core on the undirected projection
/// (mutual and one-way edges both count once).
pub fn k_core_decomposition(und: &Undirected) -> CoreDecomposition {
    let n = und.node_count();
    if n == 0 {
        return CoreDecomposition { coreness: Vec::new(), degeneracy: 0 };
    }
    let mut degree: Vec<u32> = (0..n as u32).map(|v| und.degree(v) as u32).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;

    // Bucket sort nodes by degree.
    let mut bin_start = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin_start[d as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        bin_start[i + 1] += bin_start[i];
    }
    let mut pos = vec![0usize; n]; // position of node in vert
    let mut vert = vec![0u32; n]; // nodes sorted by current degree
    {
        let mut cursor = bin_start.clone();
        for v in 0..n {
            let d = degree[v] as usize;
            pos[v] = cursor[d];
            vert[cursor[d]] = v as u32;
            cursor[d] += 1;
        }
    }
    // bin[d] = start index of nodes with degree d in vert.
    let mut bin = bin_start;
    bin.pop();

    let mut coreness = vec![0u32; n];
    let mut degeneracy = 0u32;
    for i in 0..n {
        let v = vert[i];
        let dv = degree[v as usize];
        coreness[v as usize] = dv;
        degeneracy = degeneracy.max(dv);
        // "Delete" v: decrement each not-yet-processed neighbor.
        for &u in und.neighbors(v) {
            let du = degree[u as usize];
            if du > dv {
                // Swap u to the front of its degree bucket, then shrink.
                let pu = pos[u as usize];
                let pw = bin[du as usize];
                let w = vert[pw];
                if u != w {
                    vert.swap(pu, pw);
                    pos[u as usize] = pw;
                    pos[w as usize] = pu;
                }
                bin[du as usize] += 1;
                degree[u as usize] -= 1;
            }
        }
    }
    CoreDecomposition { coreness, degeneracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_graph::builder::from_edges;
    use vnet_graph::{DiGraph, GraphBuilder};

    fn decompose(g: &DiGraph) -> CoreDecomposition {
        k_core_decomposition(g.undirected())
    }

    #[test]
    fn clique_has_uniform_coreness() {
        // Directed 5-clique: undirected projection is K5 → coreness 4.
        let mut b = GraphBuilder::new(5);
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i < j {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        let d = decompose(&b.build());
        assert_eq!(d.degeneracy, 4);
        assert_eq!(d.coreness, vec![4; 5]);
        assert_eq!(d.inner_core().len(), 5);
    }

    #[test]
    fn pendant_chain_has_coreness_one() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = decompose(&g);
        assert_eq!(d.degeneracy, 1);
        assert_eq!(d.coreness, vec![1; 4]);
    }

    #[test]
    fn clique_with_tail() {
        // K4 on {0..3} plus tail 3 -> 4 -> 5.
        let mut b = GraphBuilder::new(6);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i < j {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        b.add_edge(3, 4).unwrap();
        b.add_edge(4, 5).unwrap();
        let d = decompose(&b.build());
        assert_eq!(d.degeneracy, 3);
        assert_eq!(&d.coreness[..4], &[3, 3, 3, 3]);
        assert_eq!(&d.coreness[4..], &[1, 1]);
        assert_eq!(d.k_core_members(3), vec![0, 1, 2, 3]);
        assert_eq!(d.shell_sizes(), vec![0, 2, 0, 4]);
    }

    #[test]
    fn isolated_nodes_have_zero_coreness() {
        let g = from_edges(4, &[(0, 1), (1, 0)]).unwrap();
        let d = decompose(&g);
        assert_eq!(d.coreness, vec![1, 1, 0, 0]);
        assert_eq!(d.shell_sizes()[0], 2);
    }

    #[test]
    fn mutual_edges_not_double_counted() {
        // 0 <-> 1 <-> 2 <-> 0 (mutual triangle): undirected K3, coreness 2.
        let g = from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]).unwrap();
        let d = decompose(&g);
        assert_eq!(d.coreness, vec![2, 2, 2]);
    }

    #[test]
    fn coreness_monotone_under_peeling_definition() {
        // Every node's coreness <= its undirected degree.
        let g = from_edges(
            8,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0), (0, 7)],
        )
        .unwrap();
        let und = g.undirected();
        let d = k_core_decomposition(und);
        for v in 0..8u32 {
            assert!(d.coreness[v as usize] <= und.degree(v) as u32);
        }
        // The k-core member list shrinks as k grows.
        for k in 0..d.degeneracy {
            assert!(d.k_core_members(k).len() >= d.k_core_members(k + 1).len());
        }
    }

    #[test]
    fn empty_graph() {
        let d = decompose(&DiGraph::empty(0));
        assert_eq!(d.degeneracy, 0);
        assert!(d.coreness.is_empty());
    }
}
