#![warn(missing_docs)]

//! # vnet-detect
//!
//! Fake-account detection over the verified network, built from the
//! paper's own instrument set (ROADMAP item 4). Three seeded,
//! deterministic scorers are fused into one ranked suspicion score:
//!
//! * **Power-law deviation** (*A Power Law Approach to Estimating Fake
//!   Social Network Accounts*, Rastogi): fit the discrete degree law with
//!   `vnet-powerlaw`'s CSN estimator, then score every node by how
//!   over-represented its degree value is against the fitted model — a
//!   Poisson z-score per degree bucket. Fake-follower rings put dozens of
//!   accounts on the *same* degree, spiking their bucket far above the
//!   fitted expectation.
//! * **Reciprocity / hub-type** (*Two types of well followed users*,
//!   Saito & Masuda): legitimate mutual hubs reciprocate with partners
//!   who are themselves externally followed; ring sybils reciprocate
//!   near-perfectly with partners *nobody else follows*. The score is the
//!   node's reciprocity ratio, damped by its mutual-partner count and by
//!   the partners' external validation.
//! * **Burst detection**: the PELT change-point machinery
//!   (`vnet-timeseries`) segments the *detrended* daily follow-arrival
//!   series (organic networks grow, so raw totals drift upward); days in
//!   segments whose residual mean sits far above the organic level are
//!   flagged as campaign days. Targets whose follow-arrival rate on
//!   campaign days dwarfs their calm-day rate are *campaign targets*, and
//!   sources are scored by their campaign-day follows into those targets.
//!   Purchased-follower bursts deliver to the same customer inside one
//!   campaign window; organic activity that merely coincides with a
//!   campaign day touches no campaign target and scores ~0.
//!
//! Every component score lives on an *absolute* `[0, 1]` scale (no
//! max-normalization — that would let whatever noise happens to be the
//! max inflate to 1.0 whenever true signal is absent from a component).
//! Everything is a pure function of the input graph, the daily series,
//! and [`DetectConfig`] — no RNG, no iteration-order dependence — so the
//! ranking and the precision/recall block are byte-identical at any
//! thread count, and `bench repro --sybil` can fingerprint them.

use std::collections::BTreeMap;

use vnet_ctx::AnalysisCtx;
use vnet_graph::{common_count, for_each_common, DiGraph, NodeId};
use vnet_powerlaw::{fit_discrete, DiscreteFit, FitOptions};
use vnet_timeseries::pelt::pelt_with_min_seg;

/// Fusion weights and burst-detector knobs. The defaults are the
/// *calibrated* configuration the `sybil` verify lane asserts a ≥ 0.9
/// planted-recall floor at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectConfig {
    /// Weight of the power-law deviation score in the fusion.
    pub weight_deviation: f64,
    /// Weight of the reciprocity/hub-type score in the fusion.
    pub weight_reciprocity: f64,
    /// Weight of the burst score in the fusion.
    pub weight_burst: f64,
    /// Minimum node count in a degree bucket before its z-score counts.
    /// Single-node tail buckets always over-represent (expected < 1
    /// observed 1) and are legitimate heavy users, not rings.
    pub min_bucket: u64,
    /// Deviation z-score at which the saturating transform
    /// `z / (z + z_half)` reaches 0.5.
    pub z_half: f64,
    /// PELT penalty on the detrended daily follow series.
    pub pelt_penalty: f64,
    /// Minimum PELT segment length (days).
    pub pelt_min_seg: usize,
    /// A segment is a campaign when its detrended mean exceeds the
    /// residual median by this fraction of the raw series median (or by
    /// the absolute floor below, whichever is larger).
    pub burst_rel_margin: f64,
    /// Absolute floor on the campaign margin, in follows/day.
    pub burst_abs_floor: f64,
    /// A target is a *campaign target* when its campaign-day arrival rate
    /// exceeds `factor * (calm_rate + offset)`.
    pub target_burst_factor: f64,
    /// Additive smoothing on the calm-day arrival rate.
    pub target_rate_offset: f64,
}

impl Default for DetectConfig {
    fn default() -> Self {
        Self {
            weight_deviation: 0.5,
            weight_reciprocity: 2.0,
            weight_burst: 1.5,
            min_bucket: 4,
            z_half: 8.0,
            pelt_penalty: 4.0,
            pelt_min_seg: 2,
            burst_rel_margin: 0.03,
            burst_abs_floor: 5.0,
            target_burst_factor: 3.0,
            target_rate_offset: 0.5,
        }
    }
}

/// Detection input: the graph under suspicion plus (optionally) the daily
/// follow-arrival attribution. `daily_follows[d]` lists the
/// `(source, target)` follow events of day `d + 1` — exactly the `Follow`
/// events of a `vnet-synth` churn batch. Empty slice: the burst scorer
/// contributes zero (static snapshots have no timeline).
#[derive(Debug, Clone, Copy)]
pub struct DetectInput<'a> {
    /// The (end-state) graph to score.
    pub graph: &'a DiGraph,
    /// Per-day `(source, target)` follow events.
    pub daily_follows: &'a [Vec<(NodeId, NodeId)>],
}

/// One node's suspicion breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionEntry {
    /// The scored node.
    pub node: NodeId,
    /// Fused suspicion in `[0, 1]`.
    pub fused: f64,
    /// Power-law deviation component (normalized).
    pub deviation: f64,
    /// Reciprocity/hub-type component (normalized).
    pub reciprocity: f64,
    /// Burst component (normalized).
    pub burst: f64,
}

/// The full ranked detection result.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// All nodes, descending fused suspicion, ties broken by ascending id.
    pub ranked: Vec<SuspicionEntry>,
    /// Out-degree power-law fit the deviation scorer used, if it converged.
    pub alpha_out: Option<f64>,
    /// `xmin` of that fit.
    pub xmin_out: Option<u64>,
    /// In-degree fit, if it converged.
    pub alpha_in: Option<f64>,
    /// Days (1-based, matching churn days) flagged as campaign days.
    pub burst_days: Vec<u32>,
    /// Targets whose campaign-day arrival rate dwarfs their calm-day
    /// rate — the suspected follower-purchase customers (ascending).
    pub campaign_targets: Vec<NodeId>,
}

impl DetectionReport {
    /// Deterministic text rendering of the top `k` suspects — the block
    /// `bench repro --sybil` fingerprints.
    pub fn canonical(&self, k: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("vnet-detect-v1\n");
        match (self.alpha_out, self.xmin_out) {
            (Some(a), Some(x)) => {
                let _ = writeln!(s, "fit_out alpha={a:.6} xmin={x}");
            }
            _ => s.push_str("fit_out none\n"),
        }
        match self.alpha_in {
            Some(a) => {
                let _ = writeln!(s, "fit_in alpha={a:.6}");
            }
            None => s.push_str("fit_in none\n"),
        }
        let days: Vec<String> = self.burst_days.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(s, "burst_days [{}]", days.join(","));
        let targets: Vec<String> =
            self.campaign_targets.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(s, "campaign_targets [{}]", targets.join(","));
        for e in self.ranked.iter().take(k) {
            let _ = writeln!(
                s,
                "{} fused={:.6} dev={:.6} recip={:.6} burst={:.6}",
                e.node, e.fused, e.deviation, e.reciprocity, e.burst
            );
        }
        s
    }
}

/// Per-degree-bucket Poisson z-scores against a fitted discrete law:
/// `z(k) = (obs(k) − exp(k)) / sqrt(exp(k) + 1)`, floored at 0 — only
/// over-representation is suspicious. Buckets thinner than `min_bucket`
/// never score: a lone account at degree 971 is a heavy user, while
/// dozens of accounts stacked on the *same* degree are a ring.
fn bucket_z(degrees: &[u64], fit: &DiscreteFit, min_bucket: u64) -> BTreeMap<u64, f64> {
    let mut obs: BTreeMap<u64, u64> = BTreeMap::new();
    let mut n_tail = 0u64;
    for &d in degrees {
        if d >= fit.xmin {
            *obs.entry(d).or_insert(0) += 1;
            n_tail += 1;
        }
    }
    let mut z = BTreeMap::new();
    for (&k, &o) in &obs {
        if o < min_bucket {
            continue;
        }
        let expect = n_tail as f64 * fit.ln_pmf(k).exp();
        let score = (o as f64 - expect) / (expect + 1.0).sqrt();
        if score > 0.0 {
            z.insert(k, score);
        }
    }
    z
}

/// Raw power-law deviation z-scores plus the fits they came from.
fn deviation_scores(
    g: &DiGraph,
    cfg: &DetectConfig,
) -> (Vec<f64>, Option<DiscreteFit>, Option<DiscreteFit>) {
    let n = g.node_count();
    let out_deg: Vec<u64> = (0..n as NodeId).map(|u| g.out_degree(u) as u64).collect();
    let in_deg: Vec<u64> = (0..n as NodeId).map(|u| g.in_degree(u) as u64).collect();
    let opts = FitOptions::default();
    let fit_out = fit_discrete(&out_deg, &opts).ok();
    let fit_in = fit_discrete(&in_deg, &opts).ok();
    let z_out = fit_out
        .as_ref()
        .map(|f| bucket_z(&out_deg, f, cfg.min_bucket))
        .unwrap_or_default();
    let z_in = fit_in
        .as_ref()
        .map(|f| bucket_z(&in_deg, f, cfg.min_bucket))
        .unwrap_or_default();
    let scores = (0..n)
        .map(|u| {
            let zo = z_out.get(&out_deg[u]).copied().unwrap_or(0.0);
            let zi = z_in.get(&in_deg[u]).copied().unwrap_or(0.0);
            zo.max(zi)
        })
        .collect();
    (scores, fit_out, fit_in)
}

/// Reciprocity/hub-type scores: `ρ(u) · m/(m+3) · m/(m + mean_ext)` where
/// `ρ` is the node's mutual share of its undirected neighborhood, `m` its
/// mutual-partner count, and `mean_ext` the average *external* validation
/// (in-degree minus mutual in-edges) of those partners. The last factor
/// asks whether the node's mutual mass dominates its partners' external
/// validation: an 80-clique whose members pick up a handful of organic
/// followers stays near 1, while a genuine hub's mutual circle is dwarfed
/// by partners' external audiences. The `m/(m+3)` damp keeps a stray
/// organic mutual pair (`m = 1`, partners unknown to anyone) from
/// outranking planted accounts.
fn reciprocity_scores(g: &DiGraph) -> Vec<f64> {
    let n = g.node_count();
    // Pass 1: mutual count per node.
    let mutual: Vec<u64> = (0..n as NodeId)
        .map(|u| common_count(g.out_neighbors(u), g.in_neighbors(u)))
        .collect();
    // Pass 2: the damped score.
    (0..n as NodeId)
        .map(|u| {
            let m = mutual[u as usize];
            if m == 0 {
                return 0.0;
            }
            let und = g.out_degree(u) as u64 + g.in_degree(u) as u64 - m;
            let rho = m as f64 / und.max(1) as f64;
            // Mutual partners = out ∩ in, visited in ascending order.
            let mut ext_sum = 0.0f64;
            for_each_common(g.out_neighbors(u), g.in_neighbors(u), |v| {
                let ext = (g.in_degree(v) as u64).saturating_sub(mutual[v as usize]);
                ext_sum += ext as f64;
            });
            let mean_ext = ext_sum / m as f64;
            rho * (m as f64 / (m as f64 + 3.0)) * (m as f64 / (m as f64 + mean_ext))
        })
        .collect()
}

/// `q`-quantile of a series (by sorted copy, nearest-rank); 0 when empty.
fn quantile_of(series: &[f64], q: f64) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// Burst scores. Four steps, all deterministic:
///
/// 1. *Detrend* the daily follow totals (least-squares line) — organic
///    networks grow, and a raw-median threshold would flag the entire
///    back half of a drifting series.
/// 2. PELT-segment the residuals; segments whose residual mean exceeds
///    the residual median by the margin are campaign windows.
/// 3. Targets whose arrival rate on campaign days exceeds
///    `factor * (calm_rate + offset)` are *campaign targets* — customers
///    being delivered purchased followers. Celebrities receive heavily on
///    every day, so their rate ratio stays near 1 and they never qualify.
/// 4. A source's score is driven by its campaign-day follows *into
///    campaign targets*, damped by how concentrated its overall activity
///    is on campaign days. Organic activity merely coinciding with a
///    campaign day touches no campaign target and scores 0.
fn burst_scores(
    daily: &[Vec<(NodeId, NodeId)>],
    n: usize,
    cfg: &DetectConfig,
) -> (Vec<f64>, Vec<u32>, Vec<NodeId>) {
    let mut scores = vec![0.0f64; n];
    if daily.len() < 2 * cfg.pelt_min_seg.max(1) {
        return (scores, Vec::new(), Vec::new());
    }
    let series: Vec<f64> = daily.iter().map(|day| day.len() as f64).collect();
    // Least-squares line over the day subset `keep`, as (intercept, slope).
    let fit_line = |keep: &[usize]| -> (f64, f64) {
        let len = keep.len() as f64;
        let mean_x = keep.iter().map(|&d| d as f64).sum::<f64>() / len;
        let mean_y = keep.iter().map(|&d| series[d]).sum::<f64>() / len;
        let (mut sxy, mut sxx) = (0.0f64, 0.0f64);
        for &d in keep {
            let dx = d as f64 - mean_x;
            sxy += dx * (series[d] - mean_y);
            sxx += dx * dx;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        (mean_y - slope * mean_x, slope)
    };
    let residuals = |(intercept, slope): (f64, f64)| -> Vec<f64> {
        series
            .iter()
            .enumerate()
            .map(|(d, &y)| y - (intercept + slope * d as f64))
            .collect()
    };
    // Trimmed detrend: a plain least-squares line is dragged toward the
    // campaigns it is supposed to expose. Fit once, keep the
    // lower-residual half of the days (organic by construction while
    // campaigns elevate), and refit the trend on those alone.
    let all: Vec<usize> = (0..series.len()).collect();
    let first = residuals(fit_line(&all));
    let cut = quantile_of(&first, 0.5);
    let keep: Vec<usize> = (0..series.len()).filter(|&d| first[d] <= cut).collect();
    let resid = if keep.len() >= 2 { residuals(fit_line(&keep)) } else { first };
    let Ok(result) = pelt_with_min_seg(&resid, cfg.pelt_penalty, cfg.pelt_min_seg) else {
        return (scores, Vec::new(), Vec::new());
    };
    // Segment bounds: [0, cp1), [cp1, cp2), ..., [cpk, n).
    let mut bounds = vec![0usize];
    bounds.extend(&result.changepoints);
    bounds.push(resid.len());
    // Baseline = lower quartile of the residuals: campaigns may cover up
    // to half the observed days, which poisons a median baseline.
    let margin = (quantile_of(&series, 0.5) * cfg.burst_rel_margin).max(cfg.burst_abs_floor);
    let threshold = quantile_of(&resid, 0.25) + margin;
    let mut burst_days: Vec<u32> = Vec::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mean = resid[a..b].iter().sum::<f64>() / (b - a) as f64;
        if mean > threshold {
            // Days are 1-based (day d+1 is daily[d]), matching churn days.
            burst_days.extend((a..b).map(|d| d as u32 + 1));
        }
    }
    let n_calm = daily.len() - burst_days.len();
    if burst_days.is_empty() || n_calm == 0 {
        return (scores, burst_days, Vec::new());
    }
    // Campaign-target attribution: burst-day vs calm-day arrival rates.
    let mut recv_burst = vec![0u64; n];
    let mut recv_calm = vec![0u64; n];
    for (d, day) in daily.iter().enumerate() {
        let is_burst = burst_days.binary_search(&(d as u32 + 1)).is_ok();
        let recv = if is_burst { &mut recv_burst } else { &mut recv_calm };
        for &(_, target) in day {
            if (target as usize) < n {
                recv[target as usize] += 1;
            }
        }
    }
    let campaign_targets: Vec<NodeId> = (0..n)
        .filter(|&t| {
            let burst_rate = recv_burst[t] as f64 / burst_days.len() as f64;
            let calm_rate = recv_calm[t] as f64 / n_calm as f64;
            burst_rate > cfg.target_burst_factor * (calm_rate + cfg.target_rate_offset)
        })
        .map(|t| t as NodeId)
        .collect();
    if campaign_targets.is_empty() {
        return (scores, burst_days, campaign_targets);
    }
    let mut campaign_follows = vec![0u64; n];
    let mut on_burst = vec![0u64; n];
    let mut total = vec![0u64; n];
    for (d, day) in daily.iter().enumerate() {
        let is_burst = burst_days.binary_search(&(d as u32 + 1)).is_ok();
        for &(source, target) in day {
            if (source as usize) >= n {
                continue;
            }
            total[source as usize] += 1;
            if is_burst {
                on_burst[source as usize] += 1;
                if campaign_targets.binary_search(&target).is_ok() {
                    campaign_follows[source as usize] += 1;
                }
            }
        }
    }
    for u in 0..n {
        let cf = campaign_follows[u] as f64;
        if cf > 0.0 {
            let concentration = on_burst[u] as f64 / (1.0 + total[u] as f64);
            scores[u] = (cf / (1.0 + cf)) * concentration.sqrt();
        }
    }
    (scores, burst_days, campaign_targets)
}

/// Run the full detection pipeline: three scorers on absolute `[0, 1]`
/// scales, fused by [`DetectConfig`] weights, ranked descending with
/// ascending-id tie-break. Deterministic in the inputs alone.
pub fn run_detection(
    input: &DetectInput<'_>,
    cfg: &DetectConfig,
    ctx: &AnalysisCtx,
) -> DetectionReport {
    let _span = ctx.span("detect.run");
    let n = input.graph.node_count();
    let (raw_z, fit_out, fit_in) = deviation_scores(input.graph, cfg);
    let z_half = cfg.z_half.max(1e-9);
    let dev: Vec<f64> = raw_z.iter().map(|&z| z / (z + z_half)).collect();
    let recip = reciprocity_scores(input.graph);
    let (burst, burst_days, campaign_targets) =
        burst_scores(input.daily_follows, n, cfg);
    let wsum = (cfg.weight_deviation + cfg.weight_reciprocity + cfg.weight_burst).max(1e-12);
    let mut ranked: Vec<SuspicionEntry> = (0..n)
        .map(|u| SuspicionEntry {
            node: u as NodeId,
            fused: (cfg.weight_deviation * dev[u]
                + cfg.weight_reciprocity * recip[u]
                + cfg.weight_burst * burst[u])
                / wsum,
            deviation: dev[u],
            reciprocity: recip[u],
            burst: burst[u],
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.fused
            .partial_cmp(&a.fused)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.node.cmp(&b.node))
    });
    let obs = ctx.obs();
    obs.set_counter("detect.nodes", &[], n as u64);
    obs.set_counter("detect.burst_days", &[], burst_days.len() as u64);
    obs.set_counter("detect.campaign_targets", &[], campaign_targets.len() as u64);
    DetectionReport {
        ranked,
        alpha_out: fit_out.as_ref().map(|f| f.alpha),
        xmin_out: fit_out.as_ref().map(|f| f.xmin),
        alpha_in: fit_in.as_ref().map(|f| f.alpha),
        burst_days,
        campaign_targets,
    }
}

/// Detection quality against a planted ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Planted positives.
    pub planted: usize,
    /// Recall in the top-`planted` ranked nodes (R-precision — equal to
    /// precision at that depth).
    pub recall_at_planted: f64,
    /// Area under the ROC curve of the fused ranking.
    pub auc: f64,
    /// Precision at each tenth of recall actually reached:
    /// `(recall, precision)` pairs, ascending recall.
    pub pr_curve: Vec<(f64, f64)>,
}

impl Evaluation {
    /// Deterministic text rendering — the P/R block the manifest
    /// fingerprints and the verify lane asserts on.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("vnet-detect-eval-v1\n");
        let _ = writeln!(s, "planted {}", self.planted);
        let _ = writeln!(s, "recall_at_planted {:.6}", self.recall_at_planted);
        let _ = writeln!(s, "auc {:.6}", self.auc);
        for &(r, p) in &self.pr_curve {
            let _ = writeln!(s, "pr {r:.6} {p:.6}");
        }
        s
    }
}

/// Score a ranking against the planted sybil set (`positives` ascending).
pub fn evaluate(report: &DetectionReport, positives: &[NodeId]) -> Evaluation {
    let planted = positives.len();
    let n = report.ranked.len();
    if planted == 0 || n == 0 {
        return Evaluation {
            planted,
            recall_at_planted: 0.0,
            auc: 0.0,
            pr_curve: Vec::new(),
        };
    }
    let negatives = n - planted;
    let mut hits_at_planted = 0usize;
    let mut hits = 0usize;
    // Mann-Whitney: count negatives ranked *below* each positive.
    let mut u_stat = 0u64;
    let mut negatives_seen = 0u64;
    let mut pr_curve = Vec::new();
    let mut next_decile = 1usize;
    for (idx, entry) in report.ranked.iter().enumerate() {
        let is_pos = positives.binary_search(&entry.node).is_ok();
        if is_pos {
            hits += 1;
            if idx < planted {
                hits_at_planted += 1;
            }
            u_stat += negatives as u64 - negatives_seen;
            let recall = hits as f64 / planted as f64;
            while next_decile <= 10 && recall + 1e-12 >= next_decile as f64 / 10.0 {
                let precision = hits as f64 / (idx + 1) as f64;
                pr_curve.push((next_decile as f64 / 10.0, precision));
                next_decile += 1;
            }
        } else {
            negatives_seen += 1;
        }
    }
    let auc = if negatives == 0 {
        1.0
    } else {
        u_stat as f64 / (planted as f64 * negatives as f64)
    };
    Evaluation {
        planted,
        recall_at_planted: hits_at_planted as f64 / planted as f64,
        auc,
        pr_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_graph::builder::from_edges;

    /// A hand-built graph: a 4-clique ring (nodes 6..10) attached to a
    /// small organic core (0..6), where 0 is a celebrity.
    fn ring_graph() -> DiGraph {
        let mut edges = vec![
            (1u32, 0u32),
            (2, 0),
            (3, 0),
            (4, 0),
            (5, 0),
            (1, 2),
            (2, 1),
            (3, 1),
            (4, 5),
        ];
        for m in 6u32..10 {
            for o in 6u32..10 {
                if m != o {
                    edges.push((m, o));
                }
            }
            edges.push((m, 5)); // the ring's customer
        }
        from_edges(10, &edges).unwrap()
    }

    #[test]
    fn reciprocity_scorer_separates_ring_from_organics() {
        let g = ring_graph();
        let scores = reciprocity_scores(&g);
        let ring_min =
            (6..10).map(|u| scores[u]).fold(f64::INFINITY, f64::min);
        let organic_max = (0..6).map(|u| scores[u]).fold(0.0f64, f64::max);
        assert!(
            ring_min > organic_max,
            "ring floor {ring_min} must beat organic ceiling {organic_max}: {scores:?}"
        );
    }

    #[test]
    fn burst_scorer_flags_campaign_days_and_targets() {
        // 14 days of ~20 organic follows into celebrity 50; days 8-10
        // elevated by 50 purchased follows into customer 98.
        let mut daily: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
        for d in 0..14u32 {
            let mut day: Vec<(NodeId, NodeId)> = (0..20).map(|e| (e % 10, 50)).collect();
            if (8..=10).contains(&(d + 1)) {
                // 50 distinct purchased accounts follow the customer.
                day.extend((60..110).map(|u| (u, 98)));
            }
            daily.push(day);
        }
        let cfg = DetectConfig::default();
        let (scores, days, targets) = burst_scores(&daily, 120, &cfg);
        assert_eq!(days, vec![8, 9, 10]);
        assert_eq!(targets, vec![98], "celebrity 50 must not qualify");
        // Purchased accounts (one follow, all of it on a campaign day
        // into the campaign target) score high.
        assert!(scores[60] > 0.3, "purchased account: {}", scores[60]);
        // An organic steady follower never touches the campaign target.
        assert_eq!(scores[0], 0.0, "organic actor: {}", scores[0]);
    }

    #[test]
    fn burst_scorer_survives_organic_growth_drift() {
        // Steadily growing organic volume (+4/day) with one campaign
        // window: the detrend keeps the drifting back half calm.
        let mut daily: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
        for d in 0..16u32 {
            let organic = 40 + 4 * d;
            let mut day: Vec<(NodeId, NodeId)> =
                (0..organic).map(|e| (e % 10, 50 + e % 3)).collect();
            if (6..=8).contains(&(d + 1)) {
                day.extend((60..100).map(|u| (u, 98)));
            }
            daily.push(day);
        }
        let cfg = DetectConfig::default();
        let (_, days, targets) = burst_scores(&daily, 120, &cfg);
        assert_eq!(days, vec![6, 7, 8], "drift must not flag calm days");
        assert_eq!(targets, vec![98]);
    }

    #[test]
    fn detection_is_deterministic_and_ranked() {
        let g = ring_graph();
        let input = DetectInput { graph: &g, daily_follows: &[] };
        let cfg = DetectConfig::default();
        let ctx = AnalysisCtx::quiet();
        let a = run_detection(&input, &cfg, &ctx);
        let b = run_detection(&input, &cfg, &ctx);
        assert_eq!(a, b);
        assert_eq!(a.canonical(10), b.canonical(10));
        assert_eq!(a.ranked.len(), 10);
        for w in a.ranked.windows(2) {
            assert!(w[0].fused >= w[1].fused);
        }
        // The ring dominates the top-4 on this toy graph.
        let positives: Vec<NodeId> = (6..10).collect();
        let eval = evaluate(&a, &positives);
        assert_eq!(eval.recall_at_planted, 1.0, "{}", a.canonical(10));
        assert_eq!(eval.auc, 1.0);
        assert!(eval.canonical().contains("recall_at_planted 1.000000"));
    }

    #[test]
    fn evaluate_handles_empty_inputs() {
        let g = ring_graph();
        let ctx = AnalysisCtx::quiet();
        let report = run_detection(
            &DetectInput { graph: &g, daily_follows: &[] },
            &DetectConfig::default(),
            &ctx,
        );
        let eval = evaluate(&report, &[]);
        assert_eq!(eval.planted, 0);
        assert_eq!(eval.auc, 0.0);
    }
}
