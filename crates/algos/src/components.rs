//! Connected-component structure: strong, weak, attracting.
//!
//! Section III/IV-A of the paper reports a giant strongly connected
//! component holding 97.24% of English verified users, 6,251 weakly
//! connected components, and 6,091 *attracting components* — sink SCCs whose
//! cores are famous handles that follow nobody.

use vnet_graph::{DiGraph, NodeId};

/// A labelling of nodes into components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component_of[node]` = dense component index.
    pub component_of: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Sizes of all components, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component_of {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Size of the largest component, or 0 when the graph is empty.
    pub fn giant_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }

    /// Members of component `c`.
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.component_of
            .iter()
            .enumerate()
            .filter(|&(_, &cc)| cc == c)
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// Fraction of nodes inside the largest component.
    pub fn giant_fraction(&self) -> f64 {
        if self.component_of.is_empty() {
            0.0
        } else {
            self.giant_size() as f64 / self.component_of.len() as f64
        }
    }
}

/// Tarjan's strongly connected components, fully iterative so paper-scale
/// graphs (deep DFS trees) cannot overflow the thread stack.
///
/// Component ids are assigned in reverse topological order of the
/// condensation (standard Tarjan property).
pub fn strongly_connected_components(g: &DiGraph) -> Components {
    let n = g.node_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component_of = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index: u32 = 0;
    let mut comp_count: u32 = 0;

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut child_pos)) = frames.last_mut() {
            let neighbors = g.out_neighbors(v);
            if *child_pos < neighbors.len() {
                let w = neighbors[*child_pos];
                *child_pos += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is an SCC root: pop its members.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component_of[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }

    Components { component_of, count: comp_count as usize }
}

/// Weakly connected components via union-find with path halving and union
/// by size.
pub fn weakly_connected_components(g: &DiGraph) -> Components {
    let n = g.node_count();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut size = vec![1u32; n];

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for (u, v) in g.edges() {
        let (mut a, mut b) = (find(&mut parent, u), find(&mut parent, v));
        if a != b {
            if size[a as usize] < size[b as usize] {
                std::mem::swap(&mut a, &mut b);
            }
            parent[b as usize] = a;
            size[a as usize] += size[b as usize];
        }
    }

    // Densify component ids.
    let mut dense = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut component_of = vec![0u32; n];
    for x in 0..n as u32 {
        let root = find(&mut parent, x);
        if dense[root as usize] == u32::MAX {
            dense[root as usize] = count;
            count += 1;
        }
        component_of[x as usize] = dense[root as usize];
    }
    Components { component_of, count: count as usize }
}

/// Summary of one attracting component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttractingComponent {
    /// Its id in the SCC labelling.
    pub scc_id: u32,
    /// Member nodes.
    pub members: Vec<NodeId>,
}

/// All attracting components of `g`: the sink SCCs of the condensation.
///
/// A random walk that enters an attracting component can never leave it.
/// In the verified network their cores are celebrity accounts with zero
/// out-degree (the paper names `@ladbible`, `@MrRPMurphy`, `@SriSri`).
/// Note that an isolated node is trivially attracting; the paper's counts
/// (6,091 attracting vs 6,027 isolated) are consistent with that reading.
pub fn attracting_components(g: &DiGraph) -> Vec<AttractingComponent> {
    attracting_components_of(g, &strongly_connected_components(g))
}

/// [`attracting_components`] of `g` from its SCC labelling `sccs`, for a
/// caller that already holds one: the SCCs no edge leaves, in SCC id
/// order, each with its members in node order.
pub fn attracting_components_of(g: &DiGraph, sccs: &Components) -> Vec<AttractingComponent> {
    let mut has_exit = vec![false; sccs.count];
    for (u, v) in g.edges() {
        let (cu, cv) = (sccs.component_of[u as usize], sccs.component_of[v as usize]);
        if cu != cv {
            has_exit[cu as usize] = true;
        }
    }
    let mut out: Vec<AttractingComponent> = (0..sccs.count as u32)
        .filter(|&c| !has_exit[c as usize])
        .map(|scc_id| AttractingComponent { scc_id, members: Vec::new() })
        .collect();
    let mut slot = vec![usize::MAX; sccs.count];
    for (i, sink) in out.iter().enumerate() {
        slot[sink.scc_id as usize] = i;
    }
    for (node, &c) in sccs.component_of.iter().enumerate() {
        if let Some(sink) = out.get_mut(slot[c as usize]) {
            sink.members.push(node as NodeId);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_graph::builder::from_edges;

    fn two_cycles_with_bridge() -> DiGraph {
        // SCC A: {0,1,2} cycle; SCC B: {3,4} cycle; bridge 2 -> 3; isolated 5.
        from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn tarjan_finds_expected_sccs() {
        let g = two_cycles_with_bridge();
        let c = strongly_connected_components(&g);
        assert_eq!(c.count, 3);
        let a = c.component_of[0];
        assert_eq!(c.component_of[1], a);
        assert_eq!(c.component_of[2], a);
        let b = c.component_of[3];
        assert_eq!(c.component_of[4], b);
        assert_ne!(a, b);
        assert_ne!(c.component_of[5], a);
        assert_ne!(c.component_of[5], b);
    }

    #[test]
    fn tarjan_reverse_topological_ids() {
        // Tarjan assigns ids so successors get smaller ids than predecessors.
        let g = two_cycles_with_bridge();
        let c = strongly_connected_components(&g);
        // B = {3,4} is downstream of A = {0,1,2}, so B's id < A's id.
        assert!(c.component_of[3] < c.component_of[0]);
    }

    #[test]
    fn tarjan_on_dag_gives_singletons() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let c = strongly_connected_components(&g);
        assert_eq!(c.count, 4);
    }

    #[test]
    fn tarjan_deep_path_no_stack_overflow() {
        // A 200k-node path would blow a recursive Tarjan.
        let n = 200_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edges(n, &edges).unwrap();
        let c = strongly_connected_components(&g);
        assert_eq!(c.count, n as usize);
    }

    #[test]
    fn wcc_ignores_direction() {
        let g = two_cycles_with_bridge();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 2); // {0..4} and {5}
        assert_eq!(c.giant_size(), 5);
        assert!((c.giant_fraction() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn wcc_all_isolated() {
        let g = DiGraph::empty(4);
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 4);
        assert_eq!(c.giant_size(), 1);
    }

    #[test]
    fn attracting_components_members() {
        let g = two_cycles_with_bridge();
        let ac = attracting_components(&g);
        assert_eq!(ac.len(), 2);
        let mut sizes: Vec<usize> = ac.iter().map(|c| c.members.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2]);
        // The 2-member attracting component is {3, 4}.
        let big = ac.iter().find(|c| c.members.len() == 2).unwrap();
        assert_eq!(big.members, vec![3, 4]);
    }

    #[test]
    fn strongly_connected_cycle_is_one_component() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let c = strongly_connected_components(&g);
        assert_eq!(c.count, 1);
        assert_eq!(c.giant_fraction(), 1.0);
        // The whole graph is attracting: a random walk cycles forever.
        assert_eq!(attracting_components(&g).len(), 1);
    }

    #[test]
    fn members_listing() {
        let g = two_cycles_with_bridge();
        let c = strongly_connected_components(&g);
        let scc_of_0 = c.component_of[0];
        let mut m = c.members(scc_of_0);
        m.sort_unstable();
        assert_eq!(m, vec![0, 1, 2]);
    }
}
