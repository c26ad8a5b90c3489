//! Warm-startable dynamic PageRank over the delta overlay.
//!
//! The temporal engine wants two things from PageRank: (a) iteration
//! directly over a [`DeltaOverlay`] without materializing a CSR, and (b)
//! warm starts from the previous day's ranks so a day of churn converges
//! in a handful of iterations instead of ~70. Both are features of the one
//! power iteration in `vnet-algos` ([`power_iteration`] over a
//! [`PullGraph`]); this module supplies the overlay's [`PullGraph`] view
//! and the temporal entrypoint with its own row chunk and counters.
//! Because the incremental engine and the from-scratch comparator run the
//! same kernel, fingerprints stay bit-identical; and because the overlay's
//! merged iteration visits in-neighbors in exactly materialized CSR order,
//! running it on the overlay vs. the compacted graph cannot change a
//! single bit either.

use vnet_algos::pagerank::{power_iteration, PageRankConfig, PageRankResult, PullGraph};
use vnet_ctx::AnalysisCtx;
use vnet_graph::NodeId;

use crate::overlay::DeltaOverlay;

/// Rows per fork-join task. Fixed per call site so the floating-point
/// reduction order depends only on `n`, never the thread count. Smaller
/// than the batch kernel's 8192: temporal runs are daily ticks on
/// medium graphs, where finer shards keep all threads busy.
pub const ROW_CHUNK: usize = 2048;

impl PullGraph for &DeltaOverlay {
    fn node_count(&self) -> usize {
        DeltaOverlay::node_count(self)
    }
    fn edge_count(&self) -> u64 {
        DeltaOverlay::edge_count(self)
    }
    fn out_degree(&self, u: NodeId) -> usize {
        DeltaOverlay::out_degree(self, u)
    }
    fn pull_sum(&self, v: NodeId, contrib: &[f64]) -> f64 {
        let mut acc = 0.0;
        for u in self.in_neighbors(v) {
            acc += contrib[u as usize];
        }
        acc
    }
}

/// Power-iteration PageRank over `g`, warm-started from `warm` when given.
///
/// `warm` must be the previous converged rank vector (length `n`, summing
/// to ~1); `None` starts uniform like the batch kernel. Bit-identical at
/// any thread count. Par accounting lands on stage `dynamic_pagerank`.
pub fn dynamic_pagerank<G: PullGraph>(
    g: G,
    cfg: PageRankConfig,
    warm: Option<&[f64]>,
    ctx: &AnalysisCtx,
) -> PageRankResult {
    let started = std::time::Instant::now();
    let (result, stats) = power_iteration(g, cfg, warm, ROW_CHUNK, ctx);
    let obs = ctx.obs();
    obs.set_counter("temporal.pagerank.iterations", &[], result.iterations as u64);
    obs.set_counter("temporal.pagerank.edge_relaxations", &[], result.edge_relaxations);
    ctx.record_par("dynamic_pagerank", &stats);
    ctx.observe_par_wall("dynamic_pagerank", started.elapsed().as_micros() as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vnet_graph::builder::from_edges;
    use vnet_graph::DiGraph;

    fn ring_with_chords() -> DiGraph {
        let mut edges = Vec::new();
        for u in 0..64u32 {
            edges.push((u, (u + 1) % 64));
            if u % 7 == 0 {
                edges.push((u, (u + 13) % 64));
            }
        }
        from_edges(64, &edges).unwrap()
    }

    #[test]
    fn overlay_and_materialized_agree_bit_for_bit() {
        let g = ring_with_chords();
        let mut ov = DeltaOverlay::new(Arc::new(g));
        ov.insert(3, 40);
        ov.insert(17, 2);
        ov.remove(7, 8);
        let (mat, _) = ov.materialize();
        let ctx = AnalysisCtx::quiet();
        let cfg = PageRankConfig::default();
        let a = dynamic_pagerank(&ov, cfg, None, &ctx);
        let b = dynamic_pagerank(&mat, cfg, None, &ctx);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.scores, b.scores, "overlay vs materialized CSR");
    }

    #[test]
    fn thread_count_does_not_change_a_bit() {
        let g = ring_with_chords();
        let ov = DeltaOverlay::new(Arc::new(g));
        let cfg = PageRankConfig::default();
        let serial = dynamic_pagerank(&ov, cfg, None, &AnalysisCtx::quiet());
        for threads in [2, 4, 7] {
            let par = dynamic_pagerank(&ov, cfg, None, &AnalysisCtx::with_threads(threads));
            assert_eq!(serial.scores, par.scores, "threads={threads}");
        }
    }

    fn hub_graph() -> DiGraph {
        // Ring plus heavy hubs: the fixpoint is far from uniform, so a
        // cold (uniform) start pays full price while a warm start does not.
        let mut edges = Vec::new();
        for u in 0..64u32 {
            edges.push((u, (u + 1) % 64));
            edges.push((u, u % 3)); // everyone follows hubs 0, 1, 2
        }
        from_edges(64, &edges).unwrap()
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_fixpoint() {
        let g = hub_graph();
        let mut ov = DeltaOverlay::new(Arc::new(g));
        let ctx = AnalysisCtx::quiet();
        let cfg = PageRankConfig::default();
        let day0 = dynamic_pagerank(&ov, cfg, None, &ctx);
        ov.insert(5, 33);
        ov.remove(14, 15);
        let cold = dynamic_pagerank(&ov, cfg, None, &ctx);
        let warm = dynamic_pagerank(&ov, cfg, Some(&day0.scores), &ctx);
        assert!(warm.converged && cold.converged);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // Same tolerance, same fixpoint to well under the tolerance.
        let dist: f64 =
            warm.scores.iter().zip(&cold.scores).map(|(a, b)| (a - b).abs()).sum();
        assert!(dist < 1e-9, "L1 distance {dist}");
    }

    #[test]
    fn matches_batch_kernel_closely() {
        // One kernel behind both entrypoints: on a graph that fits one
        // chunk of either size, a cold start reproduces the batch scores
        // bit for bit.
        let g = ring_with_chords();
        let ctx = AnalysisCtx::quiet();
        let cfg = PageRankConfig::default();
        let batch = vnet_algos::pagerank::pagerank(&g, cfg, &ctx);
        let dyn_r = dynamic_pagerank(&g, cfg, None, &ctx);
        assert_eq!(batch.iterations, dyn_r.iterations);
        assert_eq!(batch.scores, dyn_r.scores);
    }
}
