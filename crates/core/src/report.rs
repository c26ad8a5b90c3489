//! The full-analysis driver: every paper section in one call.
//!
//! [`run_analysis`] takes the dataset, an [`AnalysisOptions`], and an
//! `AnalysisCtx` (thread pool + observability handle), computes the
//! eleven [`crate::section::Section`]s through the one section dispatcher,
//! [`crate::section::run_analysis_section`], and assembles them with
//! [`AnalysisReport::from_sections`], as `repro --markdown` does with the
//! reports of its one battery pass. Each section seeds a fresh RNG from
//! `opts.seed`, so a section computed standalone — as the `vnet-serve`
//! service and its cache do — is bit-identical to the same field of the
//! full report.

use crate::activity::ActivityReport;
use crate::basic::BasicReport;
use crate::bios::BioReport;
use crate::categories::CategoryReport;
use crate::centrality::CentralityReport;
use crate::dataset::{Dataset, DatasetSummary};
use crate::degrees::{DegreeReport, Figure1};
use crate::eigen::EigenReport;
use crate::elite_core::EliteCoreReport;
use crate::recip::ReciprocityReport;
use crate::section::{run_analysis_section, Section, SectionReport};
use crate::separation::SeparationReport;
use serde::Serialize;
use vnet_ctx::AnalysisCtx;
use vnet_obs::fingerprint_str;
use vnet_powerlaw::{FitOptions, XminStrategy};

/// Cost/precision knobs for the full battery.
///
/// Plain struct with public fields (struct-update syntax keeps working);
/// [`AnalysisOptions::builder`] offers a fluent alternative. The
/// [`fingerprint`](AnalysisOptions::fingerprint) covers every
/// result-affecting field — and deliberately **excludes** `threads`,
/// which never changes a result bit, so the service cache can serve a
/// `--threads 4` request from a `--threads 1` computation.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Node samples for the clustering estimate.
    pub clustering_samples: usize,
    /// BFS sources for the distance distribution (`usize::MAX` = exact).
    pub distance_sources: usize,
    /// Brandes pivots for betweenness.
    pub betweenness_pivots: usize,
    /// Worker threads for the `vnet-par` fork-join stages (betweenness,
    /// PageRank, BFS sweep, Lanczos matvec, bootstrap). Never affects any
    /// result bit — only wall-clock.
    pub threads: usize,
    /// Top-k Laplacian eigenvalues.
    pub eigen_k: usize,
    /// Lanczos iterations.
    pub lanczos_steps: usize,
    /// Power-law xmin scan strategy.
    pub fit: FitOptions,
    /// Bootstrap replicates for goodness-of-fit p (0 = skip; the paper
    /// used the plfit/poweRlaw defaults).
    pub bootstrap_reps: usize,
    /// Portmanteau lag cap (paper: 185).
    pub lag_cap: usize,
    /// Rows per n-gram table (paper: 15).
    pub ngram_rows: usize,
    /// Log bins for Figure 1.
    pub fig1_bins: usize,
    /// Master seed for all randomized estimators.
    pub seed: u64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            clustering_samples: 3_000,
            distance_sources: 200,
            betweenness_pivots: 150,
            threads: 4,
            eigen_k: 300,
            lanczos_steps: 450,
            fit: FitOptions { xmin: XminStrategy::Quantiles(60), min_tail: 30 },
            bootstrap_reps: 0,
            lag_cap: 185,
            ngram_rows: 15,
            fig1_bins: 40,
            seed: 0x5EED,
        }
    }
}

impl AnalysisOptions {
    /// Cheap settings for tests and quick demos.
    pub fn quick() -> Self {
        Self {
            clustering_samples: 800,
            distance_sources: 60,
            betweenness_pivots: 50,
            threads: 2,
            eigen_k: 100,
            lanczos_steps: 160,
            fit: FitOptions { xmin: XminStrategy::Quantiles(25), min_tail: 25 },
            bootstrap_reps: 0,
            lag_cap: 40,
            ..Self::default()
        }
    }

    /// A fluent builder starting from [`AnalysisOptions::default`].
    pub fn builder() -> AnalysisOptionsBuilder {
        AnalysisOptionsBuilder { opts: Self::default() }
    }

    /// A builder starting from this value (e.g. `quick().to_builder()`).
    pub fn to_builder(self) -> AnalysisOptionsBuilder {
        AnalysisOptionsBuilder { opts: self }
    }

    /// FNV-1a fingerprint of every result-affecting field.
    ///
    /// `threads` is excluded on purpose: the fork-join layer guarantees
    /// bit-identical results at any thread count, and the `vnet-serve`
    /// result cache keys on this fingerprint — a repeat query at a
    /// different thread count must hit.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_str(&format!(
            "vnet-analysis-options-v1:{}:{}:{}:{}:{}:{:?}:{}:{}:{}:{}:{}",
            self.clustering_samples,
            self.distance_sources,
            self.betweenness_pivots,
            self.eigen_k,
            self.lanczos_steps,
            self.fit,
            self.bootstrap_reps,
            self.lag_cap,
            self.ngram_rows,
            self.fig1_bins,
            self.seed,
        ))
    }
}

/// Fluent builder for [`AnalysisOptions`]; see
/// [`AnalysisOptions::builder`].
#[derive(Debug, Clone)]
pub struct AnalysisOptionsBuilder {
    opts: AnalysisOptions,
}

impl AnalysisOptionsBuilder {
    /// Node samples for the clustering estimate.
    pub fn clustering_samples(mut self, n: usize) -> Self {
        self.opts.clustering_samples = n;
        self
    }

    /// BFS sources for the distance distribution.
    pub fn distance_sources(mut self, n: usize) -> Self {
        self.opts.distance_sources = n;
        self
    }

    /// Brandes pivots for betweenness.
    pub fn betweenness_pivots(mut self, n: usize) -> Self {
        self.opts.betweenness_pivots = n;
        self
    }

    /// Worker threads for the fork-join stages.
    pub fn threads(mut self, n: usize) -> Self {
        self.opts.threads = n;
        self
    }

    /// Top-k Laplacian eigenvalues.
    pub fn eigen_k(mut self, k: usize) -> Self {
        self.opts.eigen_k = k;
        self
    }

    /// Lanczos iterations.
    pub fn lanczos_steps(mut self, n: usize) -> Self {
        self.opts.lanczos_steps = n;
        self
    }

    /// Power-law xmin scan strategy.
    pub fn fit(mut self, fit: FitOptions) -> Self {
        self.opts.fit = fit;
        self
    }

    /// Bootstrap replicates for goodness-of-fit p.
    pub fn bootstrap_reps(mut self, n: usize) -> Self {
        self.opts.bootstrap_reps = n;
        self
    }

    /// Portmanteau lag cap.
    pub fn lag_cap(mut self, n: usize) -> Self {
        self.opts.lag_cap = n;
        self
    }

    /// Rows per n-gram table.
    pub fn ngram_rows(mut self, n: usize) -> Self {
        self.opts.ngram_rows = n;
        self
    }

    /// Log bins for Figure 1.
    pub fn fig1_bins(mut self, n: usize) -> Self {
        self.opts.fig1_bins = n;
        self
    }

    /// Master seed for all randomized estimators.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Finish the build.
    pub fn build(self) -> AnalysisOptions {
        self.opts
    }
}

/// Everything the paper measures, in one serializable bundle.
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisReport {
    /// §III headline numbers.
    pub dataset: DatasetSummary,
    /// §IV-A.
    pub basic: BasicReport,
    /// Figure 1.
    pub figure1: Figure1,
    /// §IV-B discrete + Figure 2.
    pub degrees: DegreeReport,
    /// §IV-B continuous (eigenvalues).
    pub eigen: EigenReport,
    /// §IV-C.
    pub reciprocity: ReciprocityReport,
    /// §IV-D + Figure 3.
    pub separation: SeparationReport,
    /// §IV-E + Figure 4 + Tables I & II.
    pub bios: BioReport,
    /// §IV-F + Figure 5.
    pub centrality: CentralityReport,
    /// §V + Figure 6.
    pub activity: ActivityReport,
    /// §IV-C's deferred conjecture, validated (extension).
    pub elite_core: EliteCoreReport,
    /// Bio-based user categorization (extension; paper index term).
    pub categories: CategoryReport,
}

impl AnalysisReport {
    /// Assemble the full report from the eleven section reports in
    /// [`Section::ALL`] order, as [`run_analysis_section`] returns them:
    /// the one place an `AnalysisReport` is built. [`run_analysis`] and
    /// `repro --markdown` both assemble here.
    ///
    /// # Panics
    /// Panics if `sections` is not in [`Section::ALL`] order.
    pub fn from_sections(dataset: DatasetSummary, sections: [SectionReport; 11]) -> Self {
        use SectionReport as S;
        match sections {
            [
                S::Basic(basic),
                S::Figure1(figure1),
                S::Degrees(degrees),
                S::Eigen(eigen),
                S::Reciprocity(reciprocity),
                S::Separation(separation),
                S::Bios(bios),
                S::Centrality(centrality),
                S::Activity(activity),
                S::EliteCore(elite_core),
                S::Categories(categories),
            ] => Self {
                dataset,
                basic,
                figure1,
                degrees,
                eigen,
                reciprocity,
                separation,
                bios,
                centrality,
                activity,
                elite_core,
                categories,
            },
            other => panic!("sections out of battery order: {:?}", other.map(|s| s.section())),
        }
    }
}

/// Run every analysis of the paper on `dataset`: [`run_analysis_section`]
/// mapped over [`Section::ALL`], assembled by
/// [`AnalysisReport::from_sections`].
///
/// The fork-join stages run through `ctx.pool()` and counters/spans land
/// in `ctx.obs()` (pass [`AnalysisCtx::quiet`] for plain serial results).
/// Every section seeds its own RNG from `opts.seed`, so the report is a
/// pure function of `(dataset, opts)` — the context can only change
/// wall-clock time and telemetry, never a result bit.
///
/// # Panics
/// Panics if a section fails: the dataset is too small for the configured
/// estimators (power-law fits need tails; the battery is meant for graphs
/// of at least a few thousand nodes), or it lacks a profile for some graph
/// node (the elite-core section reads one per node). Use
/// [`run_analysis_section`] for a non-panicking, per-section API.
pub fn run_analysis(dataset: &Dataset, opts: &AnalysisOptions, ctx: &AnalysisCtx) -> AnalysisReport {
    let sections = Section::ALL.map(|section| {
        run_analysis_section(dataset, section, opts, ctx)
            .unwrap_or_else(|e| panic!("section '{section}' failed: {e}"))
    });
    AnalysisReport::from_sections(dataset.summary(), sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthesisConfig;

    #[test]
    fn full_battery_runs_and_serializes() {
        let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
        let report = run_analysis(&ds, &AnalysisOptions::quick(), &AnalysisCtx::quiet());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.len() > 1_000);
        // Spot checks across sections.
        assert_eq!(report.dataset.users, ds.graph.node_count());
        assert!(report.degrees.alpha > 2.0);
        assert!(report.reciprocity.reciprocity > 0.25);
        assert!(report.activity.stationary);
        assert!(report.activity.stationarity_confirmed, "KPSS disagreed with ADF");
        assert_eq!(report.bios.top_bigrams[0].ngram, "Official Twitter");
        // Elite-core direction is asserted at reproduction scale in
        // elite_core's own test; here just check the bands are sane.
        assert!(report.elite_core.bands.len() >= 3);
        assert!(report.elite_core.degeneracy > 0);
        assert!(report.categories.news_share > 0.1);
    }

    #[test]
    fn builder_roundtrips_and_quick_is_preserved() {
        let built = AnalysisOptions::builder().threads(4).bootstrap_reps(200).build();
        assert_eq!(built.threads, 4);
        assert_eq!(built.bootstrap_reps, 200);
        // Untouched knobs keep their defaults.
        let d = AnalysisOptions::default();
        assert_eq!(built.seed, d.seed);
        assert_eq!(built.eigen_k, d.eigen_k);
        // quick() is still reachable both directly and via to_builder.
        let q = AnalysisOptions::quick().to_builder().seed(99).build();
        assert_eq!(q.clustering_samples, AnalysisOptions::quick().clustering_samples);
        assert_eq!(q.seed, 99);
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_results_knobs() {
        let base = AnalysisOptions::quick();
        let t1 = base.to_builder().threads(1).build();
        let t4 = base.to_builder().threads(4).build();
        assert_eq!(t1.fingerprint(), t4.fingerprint(), "threads must not affect the key");
        let reseeded = base.to_builder().seed(base.seed + 1).build();
        assert_ne!(base.fingerprint(), reseeded.fingerprint());
        let more_reps = base.to_builder().bootstrap_reps(7).build();
        assert_ne!(base.fingerprint(), more_reps.fingerprint());
    }
}
