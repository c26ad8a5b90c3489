//! PageRank by power iteration.
//!
//! Figure 5c/5d of the paper correlates a verified user's PageRank *inside
//! the verified sub-graph* with their global reach (followers, list
//! memberships), finding an "especially strong" relationship. PageRank mass
//! flows along follow edges — if `u` follows `v`, `u` endorses `v` — and
//! dangling mass (users who follow nobody, the celebrity cores of the
//! attracting components) is redistributed uniformly, the standard Google
//! formulation.
//!
//! [`power_iteration`] is the one power-iteration loop in the workspace:
//! [`pagerank`] runs it over a frozen CSR, and `vnet-temporal`'s
//! `dynamic_pagerank` runs it warm-started over its delta overlay through
//! the [`PullGraph`] trait.

use vnet_ctx::AnalysisCtx;
use vnet_graph::{DiGraph, NodeId};
use vnet_par::ParStats;

/// Rows (nodes) per fork-join task in [`pagerank`]'s pull loop and chunked
/// sums. Fixed per call site: the partial-sum boundaries — and therefore
/// the floating-point reduction order — depend on `n` only, never on the
/// thread count. Small graphs (`n <= ROW_CHUNK`) decompose into a single
/// task, which the pool runs inline with zero spawn overhead.
const ROW_CHUNK: usize = 8192;

/// Configuration for [`pagerank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (probability of following an edge vs teleporting).
    pub damping: f64,
    /// L1 convergence threshold on successive iterates.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self { damping: 0.85, tol: 1e-12, max_iter: 200 }
    }
}

/// Result of a PageRank computation.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Scores, summing to 1, indexed by node.
    pub scores: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the L1 tolerance was met within `max_iter`.
    pub converged: bool,
    /// Edge relaxations performed (in-edge reads summed over iterations)
    /// — the hot-loop work metric observability manifests record.
    pub edge_relaxations: u64,
}

/// A graph [`power_iteration`] can pull over: node/edge counts,
/// out-degrees, and an ascending-order fold over in-neighbors.
///
/// Implemented here for `&DiGraph` (CSR slices) and in `vnet-temporal` for
/// its delta overlay (merged iteration). Both visit in-neighbors in the
/// same ascending order, which is the whole determinism argument: an
/// overlay and its compacted CSR yield the same bits.
pub trait PullGraph: Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Number of live directed edges.
    fn edge_count(&self) -> u64;
    /// Out-degree of `u`.
    fn out_degree(&self, u: NodeId) -> usize;
    /// Sum `contrib[u]` over in-neighbors `u` of `v`, ascending.
    fn pull_sum(&self, v: NodeId, contrib: &[f64]) -> f64;
}

impl PullGraph for &DiGraph {
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }
    fn edge_count(&self) -> u64 {
        DiGraph::edge_count(self) as u64
    }
    fn out_degree(&self, u: NodeId) -> usize {
        DiGraph::out_degree(self, u)
    }
    fn pull_sum(&self, v: NodeId, contrib: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &u in self.in_neighbors(v) {
            acc += contrib[u as usize];
        }
        acc
    }
}

/// Power-iteration PageRank over out-edges.
///
/// The canonical context-taking entrypoint: [`power_iteration`] over the
/// CSR with a uniform start, sharding rows into `ROW_CHUNK`-sized tasks
/// over the context's pool. The scores are bit-identical at any thread
/// count. Work counters (`algo.pagerank.*`) and par accounting (stage
/// `pagerank`) land on the context's observability handle.
///
/// # Examples
/// ```
/// use vnet_ctx::AnalysisCtx;
/// use vnet_graph::builder::from_edges;
/// use vnet_algos::pagerank::{pagerank, PageRankConfig};
///
/// // Everyone follows node 0.
/// let g = from_edges(4, &[(1, 0), (2, 0), (3, 0)]).unwrap();
/// let r = pagerank(&g, PageRankConfig::default(), &AnalysisCtx::quiet());
/// assert!(r.converged);
/// assert!(r.scores[0] > r.scores[1]);
/// assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
pub fn pagerank(g: &DiGraph, cfg: PageRankConfig, ctx: &AnalysisCtx) -> PageRankResult {
    let started = std::time::Instant::now();
    let (result, stats) = power_iteration(g, cfg, None, ROW_CHUNK, ctx);
    let obs = ctx.obs();
    obs.set_counter("algo.pagerank.iterations", &[], result.iterations as u64);
    obs.set_counter("algo.pagerank.edge_relaxations", &[], result.edge_relaxations);
    ctx.record_par("pagerank", &stats);
    ctx.observe_par_wall("pagerank", started.elapsed().as_micros() as u64);
    result
}

/// The PageRank power iteration over any [`PullGraph`], started from
/// `warm` when given (the previous converged rank vector: length `n`,
/// summing to ~1) and uniform otherwise.
///
/// Each iteration divides once per node (`rank[u] / out_deg[u]` into a
/// contributions vector), sums the dangling mass, pulls the contributions
/// over in-neighbors in ascending order, and sums the L1 delta. Rows are
/// sharded into `chunk`-sized tasks on the context's pool; every sum is a
/// chunked reduction folded in task order, so the scores depend on `n`
/// and `chunk` only, never on the thread count. Working vectors come from
/// the context's scratch arena. Callers publish their own counters from
/// the returned result and par stats.
pub fn power_iteration<G: PullGraph>(
    g: G,
    cfg: PageRankConfig,
    warm: Option<&[f64]>,
    chunk: usize,
    ctx: &AnalysisCtx,
) -> (PageRankResult, ParStats) {
    let n = g.node_count();
    if n == 0 {
        let result = PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            edge_relaxations: 0,
        };
        return (result, ParStats::default());
    }
    assert!((0.0..1.0).contains(&cfg.damping), "damping must be in [0, 1)");
    if let Some(w) = warm {
        assert_eq!(w.len(), n, "warm rank vector must match node count");
    }
    let pool = ctx.pool();
    let scratch = ctx.scratch();
    let nf = n as f64;
    // Working vectors come from the context's scratch arena: a serve worker
    // or bootstrap loop calling PageRank repeatedly reuses the same four
    // allocations instead of churning 4 × 8n bytes per call.
    let mut rank = scratch.take_f64(n);
    match warm {
        Some(w) => rank.copy_from_slice(w),
        None => rank.fill(1.0 / nf),
    }
    let mut next = scratch.take_f64(n);
    let mut contrib = scratch.take_f64(n);
    let mut out_deg = scratch.take_f64(n);
    for (u, slot) in out_deg.iter_mut().enumerate() {
        *slot = g.out_degree(u as NodeId) as f64;
    }

    let mut iterations = 0;
    let mut converged = false;
    let mut edge_relaxations = 0u64;
    let mut par_stats = ParStats::default();
    while iterations < cfg.max_iter {
        iterations += 1;
        edge_relaxations += g.edge_count();
        // One division per node per iteration; the pull loop then only adds.
        {
            let rank_ref = &rank;
            let out_ref = &out_deg;
            let s = pool.for_each_chunk_mut(&mut contrib, chunk, |_task, offset, rows| {
                for (k, slot) in rows.iter_mut().enumerate() {
                    let u = offset + k;
                    *slot = if out_ref[u] == 0.0 { 0.0 } else { rank_ref[u] / out_ref[u] };
                }
            });
            par_stats.merge(s);
        }
        // Dangling mass: nodes without out-edges leak their rank uniformly.
        let (dangling, s) = pool.map_reduce_chunks(
            n,
            chunk,
            |_task, range| range.filter(|&u| out_deg[u] == 0.0).map(|u| rank[u]).sum::<f64>(),
            0.0f64,
            |acc, partial| acc + partial,
        );
        par_stats.merge(s);
        let base = (1.0 - cfg.damping) / nf + cfg.damping * dangling / nf;
        // Pull over in-edges: each task owns a disjoint shard of `next` and
        // every row is computed independently, so the shard layout cannot
        // change a value.
        {
            let g_ref = &g;
            let contrib_ref = &contrib;
            let s = pool.for_each_chunk_mut(&mut next, chunk, |_task, offset, rows| {
                for (k, slot) in rows.iter_mut().enumerate() {
                    let v = (offset + k) as NodeId;
                    *slot = base + cfg.damping * g_ref.pull_sum(v, contrib_ref);
                }
            });
            par_stats.merge(s);
        }
        let (delta, s) = pool.map_reduce_chunks(
            n,
            chunk,
            |_task, range| range.map(|u| (rank[u] - next[u]).abs()).sum::<f64>(),
            0.0f64,
            |acc, partial| acc + partial,
        );
        par_stats.merge(s);
        std::mem::swap(&mut rank, &mut next);
        if delta < cfg.tol {
            converged = true;
            break;
        }
    }
    // `rank` leaves as the result; the others go back to the arena.
    scratch.put_f64(next);
    scratch.put_f64(contrib);
    scratch.put_f64(out_deg);
    let result = PageRankResult { scores: rank, iterations, converged, edge_relaxations };
    (result, par_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_graph::builder::from_edges;
    use vnet_graph::GraphBuilder;
    use vnet_par::ParPool;

    fn run(g: &DiGraph) -> Vec<f64> {
        pagerank(g, PageRankConfig::default(), &AnalysisCtx::quiet()).scores
    }

    #[test]
    fn scores_sum_to_one() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 0), (0, 4)]).unwrap();
        let s = run(&g);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_is_uniform() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let s = run(&g);
        for &v in &s {
            assert!((v - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn sink_hub_collects_rank() {
        // Everyone follows node 0, which follows nobody: 0 must dominate.
        let mut b = GraphBuilder::new(6);
        for u in 1..6u32 {
            b.add_edge(u, 0).unwrap();
        }
        let g = b.build();
        let s = run(&g);
        for u in 1..6 {
            assert!(s[0] > 3.0 * s[u], "hub should dominate: {:?}", s);
        }
    }

    #[test]
    fn dangling_mass_conserved() {
        // Graph with several dangling nodes still sums to 1.
        let g = from_edges(5, &[(0, 1), (0, 2), (3, 2)]).unwrap();
        let r = pagerank(&g, PageRankConfig::default(), &AnalysisCtx::quiet());
        assert!(r.converged);
        assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn known_two_node_solution() {
        // 0 -> 1 only. Closed form with d=0.85:
        // r0 = base, r1 = base + d*r0 where base accounts for r1 dangling.
        let g = from_edges(2, &[(0, 1)]).unwrap();
        let s = run(&g);
        // Solve exactly: r0 = 0.075 + 0.425 r1; r1 = 0.075 + 0.425 r1 + 0.85 r0.
        // => from conservation r0 + r1 = 1: r0 = 0.075 + 0.425(1 - r0)
        let r0 = 0.5 / 1.425 * (0.15 + 0.85) / 1.0; // = (0.075+0.425)/1.425
        assert!((s[0] - r0).abs() < 1e-9, "got {} want {r0}", s[0]);
        assert!((s[0] + s[1] - 1.0).abs() < 1e-9);
        assert!(s[1] > s[0]);
    }

    #[test]
    fn empty_graph() {
        let r = pagerank(&DiGraph::empty(0), PageRankConfig::default(), &AnalysisCtx::quiet());
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn all_isolated_uniform() {
        let s = run(&DiGraph::empty(4));
        for &v in &s {
            assert!((v - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn pool_scores_bit_identical_across_thread_counts() {
        // Big enough for several ROW_CHUNK tasks so the threaded schedule
        // is actually exercised, including irregular in-degrees and
        // dangling nodes.
        let n = 3 * super::ROW_CHUNK as u32 / 2;
        let edges: Vec<(u32, u32)> = (0..n)
            .filter(|&i| i % 5 != 0) // every 5th node dangles
            .flat_map(|i| [(i, (i * 31 + 1) % n), (i, (i * 7 + 2) % n)])
            .filter(|(a, b)| a != b)
            .collect();
        let g = from_edges(n, &edges).unwrap();
        let cfg = PageRankConfig { damping: 0.85, tol: 0.0, max_iter: 4 };
        let run = |threads: usize| pagerank(&g, cfg, &AnalysisCtx::with_threads(threads)).scores;
        let reference = run(1);
        for threads in [2, 4, 7] {
            let scores = run(threads);
            assert!(
                reference.iter().zip(&scores).all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn entrypoint_records_work_counters() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let obs = vnet_obs::Obs::new();
        let ctx = AnalysisCtx::from_obs(ParPool::serial(), &obs);
        let r = pagerank(&g, PageRankConfig::default(), &ctx);
        let m = obs.manifest("pr", 0);
        assert_eq!(m.counters["algo.pagerank.iterations"], r.iterations as u64);
        assert_eq!(m.counters["algo.pagerank.edge_relaxations"], r.edge_relaxations);
        assert!(m.counters["par.tasks{stage=pagerank}"] > 0);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let cfg = PageRankConfig { damping: 0.85, tol: 0.0, max_iter: 5 };
        let r = pagerank(&g, cfg, &AnalysisCtx::quiet());
        assert_eq!(r.iterations, 5);
        assert!(!r.converged);
    }
}
