//! The deviation table — the paper's framing, in one artefact.
//!
//! Every section of the paper is a comparison: the verified sub-graph
//! versus the generic Twittersphere (Kwak et al.'s numbers). This module
//! lines the crawled verified graph up against a whole-Twitter-like null
//! of matched size (directed preferential attachment: heavy-tailed
//! popularity, no out-degree power law, no deliberate reciprocation),
//! reproducing the paper's "marks a deviation from findings on the entire
//! Twitter network" narrative quantitatively.
//!
//! The verified column is not measured here: it is read from the battery's
//! own `basic`, `degrees`, `reciprocity` and `separation` section reports,
//! so the table shows the values those sections print. Only the null is
//! measured, with the same fit and distance settings.

use crate::basic::BasicReport;
use crate::degrees::DegreeReport;
use crate::fingerprint::NetworkFingerprint;
use crate::recip::ReciprocityReport;
use crate::report::AnalysisOptions;
use crate::separation::SeparationReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use vnet_ctx::AnalysisCtx;
use vnet_synth::preferential_attachment_directed;

/// One row of the deviation table.
#[derive(Debug, Clone, Serialize)]
pub struct DeviationRow {
    /// Statistic name.
    pub statistic: String,
    /// Value on the verified graph.
    pub verified: f64,
    /// Value on the whole-Twitter-like null.
    pub whole_twitter_like: f64,
    /// The paper's qualitative claim for this deviation.
    pub paper_claim: &'static str,
    /// Whether the measured direction matches the claim.
    pub direction_reproduced: bool,
}

/// The deviation table.
#[derive(Debug, Clone, Serialize)]
pub struct DeviationReport {
    /// One row per fingerprint statistic.
    pub rows: Vec<DeviationRow>,
    /// All directions reproduced?
    pub all_reproduced: bool,
}

/// Build the deviation table.
///
/// The verified column is the sections' own values: the fig2 KS, the
/// reciprocity, the basic assortativity, the fig3 mean distance, and
/// attracting components ÷ users. Only the null is measured: a
/// preferential-attachment graph with the verified graph's node count and
/// rounded mean out-degree, built from a fresh RNG seeded with `opts.seed`
/// and measured with `opts.fit` and `opts.distance_sources` on `ctx`'s
/// pool, inside the span `deviations.null`.
pub fn deviation_analysis(
    basic: &BasicReport,
    degrees: &DegreeReport,
    recip: &ReciprocityReport,
    separation: &SeparationReport,
    opts: &AnalysisOptions,
    ctx: &AnalysisCtx,
) -> DeviationReport {
    let null = {
        let _span = ctx.span("deviations.null");
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let m = (basic.mean_out_degree.round() as usize).max(1);
        let g = preferential_attachment_directed(basic.users as u32, m, &mut rng);
        NetworkFingerprint::measure(&g, &opts.fit, opts.distance_sources, &mut rng, ctx)
    };
    let attracting_density = basic.attracting_components as f64 / basic.users.max(1) as f64;

    let rows = vec![
        DeviationRow {
            statistic: "out-degree power-law KS (small = credible fit)".into(),
            verified: degrees.ks,
            whole_twitter_like: null.out_ks,
            paper_claim: "power law present for verified users, absent for whole Twitter (Kwak et al.)",
            direction_reproduced: degrees.ks < null.out_ks,
        },
        DeviationRow {
            statistic: "reciprocity".into(),
            verified: recip.reciprocity,
            whole_twitter_like: null.reciprocity,
            paper_claim: "33.7% vs 22.1%: verified users reciprocate more",
            direction_reproduced: recip.reciprocity > null.reciprocity,
        },
        DeviationRow {
            statistic: "degree assortativity (out->in)".into(),
            verified: basic.assortativity_out_in,
            whole_twitter_like: null.assortativity,
            paper_claim: "slight dissortativity (vs homophily reported for whole Twitter)",
            direction_reproduced: basic.assortativity_out_in < 0.02,
        },
        DeviationRow {
            statistic: "mean degrees of separation".into(),
            verified: separation.mean,
            whole_twitter_like: null.mean_distance,
            paper_claim: "2.74 vs 3.43-4.12: verified sub-graph is tighter",
            direction_reproduced: separation.mean < null.mean_distance
                || separation.mean < 3.43,
        },
        DeviationRow {
            statistic: "attracting components per node".into(),
            verified: attracting_density,
            whole_twitter_like: null.attracting_density,
            paper_claim: "a large number of attracting components (celebrity sinks)",
            direction_reproduced: attracting_density > null.attracting_density,
        },
    ];
    let all_reproduced = rows.iter().all(|r| r.direction_reproduced);
    DeviationReport { rows, all_reproduced }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, SynthesisConfig};
    use crate::report::run_analysis;

    #[test]
    fn every_paper_deviation_reproduces() {
        let ctx = AnalysisCtx::quiet();
        let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        let opts = AnalysisOptions::quick();
        let full = run_analysis(&ds, &opts, &ctx);
        let (basic, degrees, recip, sep) =
            (&full.basic, &full.degrees, &full.reciprocity, &full.separation);
        let r = deviation_analysis(basic, degrees, recip, sep, &opts, &ctx);
        for row in &r.rows {
            assert!(
                row.direction_reproduced,
                "deviation not reproduced: {} (verified {} vs null {})",
                row.statistic, row.verified, row.whole_twitter_like
            );
        }
        assert!(r.all_reproduced);
        // The verified column is the sections' own values.
        let verified: Vec<f64> = r.rows.iter().map(|row| row.verified).collect();
        let attracting = basic.attracting_components as f64 / basic.users as f64;
        let own = [degrees.ks, recip.reciprocity, basic.assortativity_out_in, sep.mean, attracting];
        assert_eq!(verified, own);
    }
}
