//! Generator calibration check: measure the synthetic verified network
//! against the paper's headline statistics, reporting through `vnet-obs`
//! spans so the per-stage timings land in a run manifest.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vnet_algos::distances::SourceSpec;
use vnet_algos::*;
use vnet_ctx::AnalysisCtx;
use vnet_obs::{Obs, Reporter};
use vnet_synth::{VerifiedNetConfig, VerifiedNetwork};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = VerifiedNetConfig::default();
    let obs = Obs::new();
    let rep = Reporter::stdout();

    let net = {
        let _span = obs.span("calibrate.generate");
        VerifiedNetwork::generate(&cfg, &mut rng)
    };
    let g = &net.graph;
    rep.line(format!(
        "gen: nodes={} edges={} density={:.5} mean_out={:.1}",
        g.node_count(),
        g.edge_count(),
        g.density(),
        g.mean_out_degree()
    ));
    rep.line(format!(
        "isolated={} ({:.3}%)",
        g.isolated_nodes().len(),
        100.0 * g.isolated_nodes().len() as f64 / g.node_count() as f64
    ));
    {
        let _span = obs.span("calibrate.components");
        let scc = strongly_connected_components(g);
        rep.line(format!(
            "giant SCC frac={:.4} (paper 0.9724), wcc count={}",
            scc.giant_fraction(),
            weakly_connected_components(g).count
        ));
        rep.line(format!("attracting={} (iso+sinks expected)", attracting_components(g).len()));
    }
    rep.line(format!("reciprocity={:.4} (paper 0.337)", reciprocity(g)));
    for (m, r) in vnet_algos::assortativity::assortativity_profile(g) {
        rep.line(format!("assortativity {:?} = {:?} (paper OutIn -0.04)", m, r));
    }
    let clus = {
        let _span = obs.span("calibrate.clustering");
        clustering::average_local_clustering_sampled(g, 3000, &mut rng, &AnalysisCtx::quiet())
    };
    rep.line(format!("clustering(sampled)={:.4} (paper 0.1583)", clus));
    let d = {
        let _span = obs.span("calibrate.distances");
        distance_distribution(g, SourceSpec::Sampled(150), &mut rng, &AnalysisCtx::quiet())
    };
    rep.line(format!(
        "mean dist={:.3} (paper 2.74), eff diam={:.2}, max={}",
        d.mean, d.effective_diameter, d.max_observed
    ));
    let degs = vnet_algos::degree::positive_out_degrees(g)
        .iter()
        .map(|&x| x as u64)
        .collect::<Vec<_>>();
    let fit = {
        let _span = obs.span("calibrate.powerlaw");
        vnet_powerlaw::fit_discrete(
            &degs,
            &vnet_powerlaw::FitOptions {
                xmin: vnet_powerlaw::XminStrategy::Quantiles(60),
                min_tail: 50,
            },
        )
        .unwrap()
    };
    rep.line(format!(
        "powerlaw fit: alpha={:.3} xmin={} ks={:.4} ntail={} (paper alpha 3.24)",
        fit.alpha, fit.xmin, fit.ks, fit.n_tail
    ));

    rep.section("stage timings");
    rep.line(obs.manifest("calibrate", 7).render_text().trim_end());
}
