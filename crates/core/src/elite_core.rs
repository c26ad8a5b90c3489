//! Validation of the paper's §IV-C conjecture — the future work the
//! authors deferred, implemented.
//!
//! "We conjecture, that the larger reciprocity rate viz-a-viz the whole
//! Twitter graph is due to a larger core of publicly relevant and
//! consequential personalities within this sub-graph. We leave validating
//! this assertion for future work."
//!
//! Validation protocol: decompose the verified graph into k-cores, then
//! test the conjecture's two claims —
//!
//! 1. **reciprocity is concentrated in the core**: the reciprocity of the
//!    sub-graph induced by the innermost cores exceeds the graph-wide rate,
//!    and reciprocity rises monotonically-ish with coreness;
//! 2. **the core is "consequential"**: core members' global reach
//!    (followers) exceeds the periphery's.

use crate::dataset::Dataset;
use serde::Serialize;
use vnet_algos::kcore::k_core_decomposition;
use vnet_algos::reciprocity::reciprocity_bands;
use vnet_ctx::AnalysisCtx;
use vnet_graph::Undirected;

/// Reciprocity and reach within one coreness band.
#[derive(Debug, Clone, Serialize)]
pub struct CoreBand {
    /// Lower coreness bound of the band (inclusive).
    pub min_coreness: u32,
    /// Members in the band-and-above core.
    pub members: usize,
    /// Reciprocity of the induced sub-graph of the band-and-above core.
    pub reciprocity: f64,
    /// Mean global follower count of members.
    pub mean_followers: f64,
}

/// Results of the §IV-C conjecture validation.
#[derive(Debug, Clone, Serialize)]
pub struct EliteCoreReport {
    /// Graph degeneracy (maximum coreness).
    pub degeneracy: u32,
    /// Graph-wide reciprocity (the paper's 33.7%).
    pub overall_reciprocity: f64,
    /// Reciprocity/reach by nested core (quartile thresholds of coreness
    /// plus the innermost core).
    pub bands: Vec<CoreBand>,
    /// Claim 1: innermost-core reciprocity exceeds the overall rate.
    pub core_reciprocity_elevated: bool,
    /// Claim 2: innermost-core members out-reach the periphery.
    pub core_reach_elevated: bool,
}

/// Run the validation. Bands are taken at coreness quartiles and the
/// degeneracy core; one pass of [`reciprocity_bands`] on the context's
/// pool counts the edges of every band.
pub fn elite_core_analysis(dataset: &Dataset, ctx: &AnalysisCtx) -> EliteCoreReport {
    let g = &dataset.graph;
    let decomp = k_core_decomposition(&Undirected::from_digraph(g));
    let followers = dataset.followers();

    // Quartile thresholds over nonzero coreness.
    let mut nonzero: Vec<u32> =
        decomp.coreness.iter().copied().filter(|&c| c > 0).collect();
    nonzero.sort_unstable();
    let q = |p: f64| -> u32 {
        if nonzero.is_empty() {
            0
        } else {
            nonzero[((nonzero.len() - 1) as f64 * p) as usize]
        }
    };
    let mut thresholds = vec![0u32, q(0.25), q(0.5), q(0.75), decomp.degeneracy];
    thresholds.dedup();
    let counts = reciprocity_bands(g, |v| decomp.coreness[v as usize], &thresholds, ctx);

    let bands: Vec<CoreBand> = thresholds
        .iter()
        .zip(&counts)
        .map(|(&k, edges)| {
            let members = decomp.k_core_members(k);
            let mean_followers = if members.is_empty() {
                0.0
            } else {
                members.iter().map(|&v| followers[v as usize]).sum::<f64>()
                    / members.len() as f64
            };
            CoreBand {
                min_coreness: k,
                members: members.len(),
                reciprocity: edges.reciprocity(),
                mean_followers,
            }
        })
        .collect();

    // Threshold 0 keeps every node, so band 0 is the whole graph.
    let overall = bands[0].reciprocity;
    let innermost = bands.last().expect("at least the 0-band exists");
    let periphery_reach = bands[0].mean_followers;
    EliteCoreReport {
        degeneracy: decomp.degeneracy,
        overall_reciprocity: overall,
        core_reciprocity_elevated: innermost.reciprocity > overall,
        core_reach_elevated: innermost.mean_followers > periphery_reach,
        bands,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthesisConfig;
    use crate::Dataset;

    #[test]
    fn conjecture_validates_on_calibrated_network() {
        // Reproduction scale: the fame-concentration effect behind the
        // conjecture is a tail phenomenon and needs a core of hundreds of
        // members to rise above sampling noise (at 4k nodes the innermost
        // core holds only ~100 users).
        let ctx = AnalysisCtx::quiet();
        let ds = Dataset::build(&SynthesisConfig::default(), &ctx);
        let r = elite_core_analysis(&ds, &ctx);
        assert!(r.degeneracy >= 3, "degeneracy {}", r.degeneracy);
        assert!(r.bands.len() >= 3);
        // Claim 1: the elite core reciprocates more than the graph at large.
        assert!(
            r.core_reciprocity_elevated,
            "innermost reciprocity {:.3} vs overall {:.3}",
            r.bands.last().unwrap().reciprocity,
            r.overall_reciprocity
        );
        // Claim 2: the core is consequential (higher global reach).
        assert!(
            r.core_reach_elevated,
            "core reach {:.0} vs periphery {:.0}",
            r.bands.last().unwrap().mean_followers,
            r.bands[0].mean_followers
        );
        // Bands are nested: member counts decrease with the threshold.
        for w in r.bands.windows(2) {
            assert!(w[1].members <= w[0].members);
        }
    }

    #[test]
    fn bands_cover_whole_graph_at_zero_threshold() {
        let ctx = AnalysisCtx::quiet();
        let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        let r = elite_core_analysis(&ds, &ctx);
        assert_eq!(r.bands[0].members, ds.graph.node_count());
        assert!((r.bands[0].reciprocity - r.overall_reciprocity).abs() < 1e-12);
    }
}
