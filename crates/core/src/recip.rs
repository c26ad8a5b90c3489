//! Section IV-C: reciprocity.

use crate::dataset::Dataset;
use serde::Serialize;
use vnet_algos::reciprocity::edge_counts;
use vnet_ctx::AnalysisCtx;

/// Reference reciprocity rates the paper compares against.
pub const WHOLE_TWITTER_RECIPROCITY: f64 = 0.221; // Kwak et al. 2010
/// Flickr's reciprocity (Chun et al. 2008), the paper's upper reference.
pub const FLICKR_RECIPROCITY: f64 = 0.68;

/// Reciprocity analysis results (paper: 33.7%).
#[derive(Debug, Clone, Serialize)]
pub struct ReciprocityReport {
    /// Fraction of directed edges that are reciprocated.
    pub reciprocity: f64,
    /// Unordered mutually connected pairs.
    pub mutual_pairs: u64,
    /// One-way edges.
    pub one_way_edges: u64,
    /// Ratio to the whole-Twitter rate (paper: 0.337 / 0.221 ≈ 1.52).
    pub vs_whole_twitter: f64,
    /// Ratio to Flickr (paper: well below 1).
    pub vs_flickr: f64,
}

/// Run the reciprocity analysis: one counting pass over the graph on the
/// context's pool.
pub fn reciprocity_analysis(dataset: &Dataset, ctx: &AnalysisCtx) -> ReciprocityReport {
    let counts = edge_counts(&dataset.graph, ctx);
    let r = counts.reciprocity();
    let mutual = counts.mutual_pairs();
    ReciprocityReport {
        reciprocity: r,
        mutual_pairs: mutual,
        one_way_edges: counts.edges - 2 * mutual,
        vs_whole_twitter: r / WHOLE_TWITTER_RECIPROCITY,
        vs_flickr: r / FLICKR_RECIPROCITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthesisConfig;

    #[test]
    fn reciprocity_sits_between_twitter_and_flickr() {
        let ctx = AnalysisCtx::quiet();
        let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        let r = reciprocity_analysis(&ds, &ctx);
        // Paper shape: above the whole-Twitter 22.1%, far below Flickr 68%.
        assert!(r.reciprocity > WHOLE_TWITTER_RECIPROCITY, "r={}", r.reciprocity);
        assert!(r.reciprocity < 0.5, "r={}", r.reciprocity);
        assert!(r.vs_whole_twitter > 1.0);
        assert!(r.vs_flickr < 1.0);
        // Edge bookkeeping is consistent.
        assert_eq!(
            r.one_way_edges + 2 * r.mutual_pairs,
            ds.graph.edge_count() as u64
        );
    }
}
