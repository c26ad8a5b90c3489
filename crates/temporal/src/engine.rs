//! The temporal engine: churn in, incremental daily analyses out.
//!
//! [`TemporalEngine`] owns a [`ChurnStream`], a [`DeltaOverlay`] over the
//! day-0 snapshot, [`StructuralCounters`], and (optionally) a warm-started
//! dynamic-PageRank chain. `advance_day` applies one churn batch event by
//! event, refreshes the incremental analyses, and emits a
//! [`TemporalDayReport`] whose fingerprint covers every number — the unit
//! of the incremental-vs-scratch equivalence proofs.
//!
//! [`scratch_replay`] is the from-scratch comparator: it replays the same
//! churn trajectory but rebuilds the CSR graph with `StreamingBuilder` and
//! recounts every structural metric from zero each day, running the same
//! kernels under the same warm-start protocol. The proptests in
//! `tests/temporal_replay.rs` pin `engine reports == scratch reports`
//! byte-for-byte across days and thread counts.

use vnet_algos::pagerank::PageRankConfig;
use vnet_ctx::AnalysisCtx;
use vnet_graph::DiGraph;
use vnet_obs::fingerprint_str;
use vnet_powerlaw::{fit_discrete, FitOptions};
use vnet_synth::churn::{ChurnEvent, ChurnStream};
use vnet_timeseries::pelt::pelt_with_min_seg;

use crate::counters::StructuralCounters;
use crate::dynpr::dynamic_pagerank;
use crate::overlay::DeltaOverlay;

/// Engine policy: compaction cadence, refit cadence, optional PageRank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Compact the overlay into a fresh CSR every this-many days
    /// (0 = never compact).
    pub compact_every: u32,
    /// Refit the out-degree power law every this-many days (0 = never;
    /// the last fitted α is carried between refits).
    pub refit_every: u32,
    /// Run the warm-started dynamic-PageRank chain when `Some`.
    pub pagerank: Option<PageRankConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { compact_every: 7, refit_every: 1, pagerank: Some(PageRankConfig::default()) }
    }
}

/// One day's incremental analysis results. Every float is fingerprinted by
/// its exact bit pattern — this struct is the equivalence unit.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalDayReport {
    /// Day index (0 = the base snapshot before any churn).
    pub day: u32,
    /// Node count (fixed across an epoch).
    pub nodes: u64,
    /// Live directed edges at end of day.
    pub edges: u64,
    /// Follow events applied this day.
    pub follows: u64,
    /// Unfollow events applied this day.
    pub unfollows: u64,
    /// Verification events this day.
    pub verifications: u64,
    /// Reciprocity (reciprocated directed edges / edges).
    pub reciprocity: f64,
    /// Global transitivity on the undirected projection.
    pub transitivity: f64,
    /// Power-law α of the positive out-degree distribution; NaN until the
    /// first successful refit.
    pub alpha_out: f64,
    /// Iterations the PageRank chain ran today (0 when disabled).
    pub pagerank_iterations: u64,
    /// FNV-1a over the rank vector's exact bits (0 when disabled).
    pub pagerank_fingerprint: u64,
    /// Whether the overlay was compacted at end of day.
    pub compacted: bool,
}

impl TemporalDayReport {
    /// Canonical string form: every float rendered by exact bit pattern.
    pub fn canonical(&self) -> String {
        format!(
            "vnet-temporal-day-v1:{}:{}:{}:{}:{}:{}:{:016x}:{:016x}:{:016x}:{}:{:016x}:{}",
            self.day,
            self.nodes,
            self.edges,
            self.follows,
            self.unfollows,
            self.verifications,
            self.reciprocity.to_bits(),
            self.transitivity.to_bits(),
            self.alpha_out.to_bits(),
            self.pagerank_iterations,
            self.pagerank_fingerprint,
            self.compacted as u8,
        )
    }

    /// FNV-1a fingerprint of [`canonical`](Self::canonical).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_str(&self.canonical())
    }
}

/// Per-metric structural series, indexed by day (day 0 = base snapshot).
#[derive(Debug, Clone, Default)]
pub struct StructuralSeries {
    /// Daily reciprocity.
    pub reciprocity: Vec<f64>,
    /// Daily transitivity.
    pub transitivity: Vec<f64>,
    /// Daily out-degree power-law α (NaN before the first successful fit).
    pub alpha: Vec<f64>,
}

/// A regime shift PELT found in one structural series.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralShift {
    /// Which series ("reciprocity", "transitivity", "alpha").
    pub metric: &'static str,
    /// First day of the new regime.
    pub day: usize,
    /// Mean of the segment ending at `day`.
    pub before_mean: f64,
    /// Mean of the segment starting at `day`.
    pub after_mean: f64,
}

/// Minimum segment length for structural PELT: shorter regimes are noise
/// at daily cadence.
const SHIFT_MIN_SEG: usize = 3;

/// Run PELT over each finite structural series and describe the shifts.
pub fn structural_shifts(series: &StructuralSeries, penalty: f64) -> Vec<StructuralShift> {
    let mut shifts = Vec::new();
    let named: [(&'static str, &[f64]); 3] = [
        ("reciprocity", &series.reciprocity),
        ("transitivity", &series.transitivity),
        ("alpha", &series.alpha),
    ];
    for (metric, data) in named {
        if data.len() < 2 * SHIFT_MIN_SEG || data.iter().any(|v| !v.is_finite()) {
            continue;
        }
        let Ok(result) = pelt_with_min_seg(data, penalty, SHIFT_MIN_SEG) else {
            continue;
        };
        let mut bounds = vec![0usize];
        bounds.extend(&result.changepoints);
        bounds.push(data.len());
        for w in 1..bounds.len() - 1 {
            let (a, b, c) = (bounds[w - 1], bounds[w], bounds[w + 1]);
            let before_mean = data[a..b].iter().sum::<f64>() / (b - a) as f64;
            let after_mean = data[b..c].iter().sum::<f64>() / (c - b) as f64;
            shifts.push(StructuralShift { metric, day: b, before_mean, after_mean });
        }
    }
    shifts
}

/// FNV-1a over a rank vector's exact bit patterns (little-endian bytes).
fn rank_fingerprint(ranks: &[f64]) -> u64 {
    let mut h = vnet_obs::Fnv1a::new();
    for r in ranks {
        h.update(&r.to_bits().to_le_bytes());
    }
    h.finish()
}

/// The incremental temporal engine. See module docs.
#[derive(Debug)]
pub struct TemporalEngine {
    stream: ChurnStream,
    overlay: DeltaOverlay,
    counters: StructuralCounters,
    ranks: Option<Vec<f64>>,
    config: EngineConfig,
    series: StructuralSeries,
    reports: Vec<TemporalDayReport>,
    alpha: f64,
    compactions: u64,
}

impl TemporalEngine {
    /// Build the engine on a churn stream's current state (normally day 0).
    /// Runs the day-0 analyses (cold PageRank, initial α fit) immediately.
    pub fn new(stream: ChurnStream, config: EngineConfig, ctx: &AnalysisCtx) -> Self {
        let base = stream.snapshot_graph();
        let counters = StructuralCounters::from_graph(&base);
        let overlay = DeltaOverlay::new(std::sync::Arc::new(base));
        let mut engine = Self {
            stream,
            overlay,
            counters,
            ranks: None,
            config,
            series: StructuralSeries::default(),
            reports: Vec::new(),
            alpha: f64::NAN,
            compactions: 0,
        };
        let mut iters = 0u64;
        let mut rank_fp = 0u64;
        if let Some(cfg) = engine.config.pagerank {
            let result = dynamic_pagerank(&engine.overlay, cfg, None, ctx);
            iters = result.iterations as u64;
            rank_fp = rank_fingerprint(&result.scores);
            engine.ranks = Some(result.scores);
        }
        engine.refit_alpha();
        engine.push_report(0, 0, 0, iters, rank_fp, false);
        engine
    }

    /// Current day (0 until the first `advance_day`).
    pub fn day(&self) -> u32 {
        self.stream.day()
    }

    /// Live overlay view.
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// Live structural counters.
    pub fn counters(&self) -> &StructuralCounters {
        &self.counters
    }

    /// All day reports so far (index = day).
    pub fn reports(&self) -> &[TemporalDayReport] {
        &self.reports
    }

    /// Structural metric series (index = day).
    pub fn series(&self) -> &StructuralSeries {
        &self.series
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Current PageRank vector when the chain is enabled.
    pub fn ranks(&self) -> Option<&[f64]> {
        self.ranks.as_deref()
    }

    /// Serialize the underlying churn stream (see `ChurnStream::checkpoint`);
    /// resuming it and replaying reproduces this engine's trajectory exactly.
    pub fn checkpoint(&self) -> Vec<u8> {
        self.stream.checkpoint()
    }

    /// Materialize the live graph as a CSR snapshot (overlay unchanged).
    pub fn snapshot_graph(&self) -> DiGraph {
        self.overlay.materialize().0
    }

    fn refit_alpha(&mut self) {
        let degrees = self.counters.positive_out_degrees();
        if let Ok(fit) = fit_discrete(&degrees, &FitOptions::default()) {
            self.alpha = fit.alpha;
        }
    }

    fn push_report(
        &mut self,
        follows: u64,
        unfollows: u64,
        verifications: u64,
        pagerank_iterations: u64,
        pagerank_fingerprint: u64,
        compacted: bool,
    ) {
        let reciprocity = self.counters.reciprocity();
        let transitivity = self.counters.transitivity();
        self.series.reciprocity.push(reciprocity);
        self.series.transitivity.push(transitivity);
        self.series.alpha.push(self.alpha);
        self.reports.push(TemporalDayReport {
            day: self.stream.day(),
            nodes: self.overlay.node_count() as u64,
            edges: self.counters.edges,
            follows,
            unfollows,
            verifications,
            reciprocity,
            transitivity,
            alpha_out: self.alpha,
            pagerank_iterations,
            pagerank_fingerprint,
            compacted,
        });
    }

    /// Pull the next churn batch, apply it incrementally, refresh the
    /// analyses, and report.
    pub fn advance_day(&mut self, ctx: &AnalysisCtx) -> &TemporalDayReport {
        let _span = ctx.span("temporal.day");
        let batch = self.stream.next_day();
        let (mut follows, mut unfollows, mut verifications) = (0u64, 0u64, 0u64);
        for event in &batch.events {
            match *event {
                ChurnEvent::Follow { source, target } => {
                    // The churn stream guarantees valid deltas; a rejected
                    // one here is a broken generator invariant, and the
                    // typed error makes the counters refuse it rather than
                    // underflow (release mode included).
                    self.counters
                        .apply_add(&self.overlay, source, target)
                        .expect("churn stream emits only valid follows");
                    let inserted = self.overlay.insert(source, target);
                    debug_assert!(inserted, "churn stream emits only absent follows");
                    follows += 1;
                }
                ChurnEvent::Unfollow { source, target } => {
                    self.counters
                        .apply_remove(&self.overlay, source, target)
                        .expect("churn stream emits only valid unfollows");
                    let removed = self.overlay.remove(source, target);
                    debug_assert!(removed, "churn stream emits only present unfollows");
                    unfollows += 1;
                }
                ChurnEvent::Verify { .. } => verifications += 1,
            }
        }
        debug_assert_eq!(self.overlay.edge_count(), self.counters.edges);
        debug_assert_eq!(self.overlay.edge_count(), self.stream.edge_count());

        let day = self.stream.day();
        let (mut iters, mut rank_fp) = (0u64, 0u64);
        if let Some(cfg) = self.config.pagerank {
            let warm = self.ranks.as_deref();
            let result = dynamic_pagerank(&self.overlay, cfg, warm, ctx);
            iters = result.iterations as u64;
            rank_fp = rank_fingerprint(&result.scores);
            self.ranks = Some(result.scores);
        }
        if self.config.refit_every > 0 && day.is_multiple_of(self.config.refit_every) {
            self.refit_alpha();
        }
        let compacted = self.config.compact_every > 0 && day.is_multiple_of(self.config.compact_every);
        if compacted {
            let stats = self.overlay.compact();
            self.compactions += 1;
            let obs = ctx.obs();
            obs.set_counter("temporal.compactions", &[], self.compactions);
            obs.set_counter("temporal.compaction.csr_bytes", &[], stats.csr_bytes);
        }
        ctx.obs().set_counter("temporal.delta_edges", &[], self.overlay.delta_edges());
        self.push_report(follows, unfollows, verifications, iters, rank_fp, compacted);
        self.reports.last().expect("just pushed")
    }
}

/// From-scratch comparator: replay the same churn trajectory, but rebuild
/// the CSR graph and recount every metric from zero each day, running the
/// same kernels under the same warm-start protocol. Returns reports that
/// must equal the engine's byte-for-byte.
pub fn scratch_replay(
    mut stream: ChurnStream,
    config: EngineConfig,
    days: u32,
    ctx: &AnalysisCtx,
) -> Vec<TemporalDayReport> {
    let mut reports = Vec::with_capacity(days as usize + 1);
    let mut ranks: Option<Vec<f64>> = None;
    let mut alpha = f64::NAN;
    let scratch_day = |graph: &DiGraph,
                           stream: &ChurnStream,
                           ranks: &mut Option<Vec<f64>>,
                           alpha: &mut f64,
                           follows: u64,
                           unfollows: u64,
                           verifications: u64,
                           compacted: bool| {
        let counters = StructuralCounters::from_graph(graph);
        let (mut iters, mut rank_fp) = (0u64, 0u64);
        if let Some(cfg) = config.pagerank {
            let result = dynamic_pagerank(graph, cfg, ranks.as_deref(), ctx);
            iters = result.iterations as u64;
            rank_fp = rank_fingerprint(&result.scores);
            *ranks = Some(result.scores);
        }
        let day = stream.day();
        let refit = day == 0 || (config.refit_every > 0 && day.is_multiple_of(config.refit_every));
        if refit {
            if let Ok(fit) = fit_discrete(&counters.positive_out_degrees(), &FitOptions::default())
            {
                *alpha = fit.alpha;
            }
        }
        TemporalDayReport {
            day,
            nodes: graph.node_count() as u64,
            edges: counters.edges,
            follows,
            unfollows,
            verifications,
            reciprocity: counters.reciprocity(),
            transitivity: counters.transitivity(),
            alpha_out: *alpha,
            pagerank_iterations: iters,
            pagerank_fingerprint: rank_fp,
            compacted,
        }
    };
    let g0 = stream.snapshot_graph();
    reports.push(scratch_day(&g0, &stream, &mut ranks, &mut alpha, 0, 0, 0, false));
    for _ in 0..days {
        let batch = stream.next_day();
        let (f, u, v) = batch.tally();
        let graph = stream.snapshot_graph();
        let day = stream.day();
        let compacted = config.compact_every > 0 && day.is_multiple_of(config.compact_every);
        reports.push(scratch_day(
            &graph,
            &stream,
            &mut ranks,
            &mut alpha,
            f as u64,
            u as u64,
            v as u64,
            compacted,
        ));
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_synth::churn::ChurnConfig;
    use vnet_synth::{VerifiedNetConfig, VerifiedNetwork};

    fn small_stream(seed: u64) -> ChurnStream {
        use rand::{rngs::StdRng, SeedableRng};
        let mut cfg = VerifiedNetConfig::small();
        cfg.nodes = 600;
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let net = VerifiedNetwork::generate(&cfg, &mut rng);
        ChurnStream::from_network(&net, ChurnConfig { seed, ..ChurnConfig::default() })
    }

    #[test]
    fn engine_matches_scratch_replay_for_a_week() {
        let stream = small_stream(11);
        let config = EngineConfig { compact_every: 3, refit_every: 2, pagerank: None };
        let ctx = AnalysisCtx::quiet();
        let mut engine = TemporalEngine::new(stream.clone(), config, &ctx);
        for _ in 0..7 {
            engine.advance_day(&ctx);
        }
        let scratch = scratch_replay(stream, config, 7, &ctx);
        assert_eq!(engine.reports(), scratch.as_slice());
    }

    #[test]
    fn pagerank_chain_matches_scratch_replay() {
        let stream = small_stream(5);
        let config = EngineConfig {
            compact_every: 2,
            refit_every: 0,
            pagerank: Some(PageRankConfig::default()),
        };
        let ctx = AnalysisCtx::quiet();
        let mut engine = TemporalEngine::new(stream.clone(), config, &ctx);
        for _ in 0..4 {
            engine.advance_day(&ctx);
        }
        let scratch = scratch_replay(stream, config, 4, &ctx);
        let engine_fps: Vec<u64> = engine.reports().iter().map(|r| r.fingerprint()).collect();
        let scratch_fps: Vec<u64> = scratch.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(engine_fps, scratch_fps);
    }

    #[test]
    fn structural_shift_is_detected_after_a_shock() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut cfg = VerifiedNetConfig::small();
        cfg.nodes = 500;
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let net = VerifiedNetwork::generate(&cfg, &mut rng);
        let churn = ChurnConfig { seed: 3, ..ChurnConfig::default() }.with_shock(10, 12.0);
        let stream = ChurnStream::from_network(&net, churn);
        let config = EngineConfig { compact_every: 7, refit_every: 0, pagerank: None };
        let ctx = AnalysisCtx::quiet();
        let mut engine = TemporalEngine::new(stream, config, &ctx);
        for _ in 0..24 {
            engine.advance_day(&ctx);
        }
        // Alpha stays NaN (refit_every 0 and day-0 fit may fail on tiny
        // graphs) — shifts must come from the finite series only.
        let shifts = structural_shifts(engine.series(), 1.0);
        assert!(
            shifts.iter().any(|s| s.day >= 8),
            "expected a post-shock regime shift, got {shifts:?}"
        );
    }

    #[test]
    fn day_report_fingerprint_is_stable() {
        let report = TemporalDayReport {
            day: 3,
            nodes: 10,
            edges: 20,
            follows: 4,
            unfollows: 1,
            verifications: 0,
            reciprocity: 0.25,
            transitivity: 0.5,
            alpha_out: f64::NAN,
            pagerank_iterations: 12,
            pagerank_fingerprint: 0xDEAD,
            compacted: true,
        };
        // Pin the canonical format — a silent format change would quietly
        // weaken every equivalence test built on fingerprints.
        assert_eq!(report.fingerprint(), fingerprint_str(&report.canonical()));
        assert!(report.canonical().starts_with("vnet-temporal-day-v1:3:10:20:4:1:0:"));
    }
}
