//! Named analysis sections: the unit of work shared by the batch driver
//! ([`crate::report::run_analysis`]), `repro`, the analysis service
//! (`vnet-serve`) and its result cache.
//!
//! Each [`Section`] is one paper artefact group with a stable string id.
//! [`run_analysis_section`] is the one dispatcher that computes a section;
//! the full-report driver maps it over all eleven and assembles the
//! results with [`crate::report::AnalysisReport::from_sections`]. Every
//! section seeds a **fresh** RNG from `AnalysisOptions::seed` — so a
//! section computed alone is bit-identical to the same section inside a
//! full run, which is what lets the service cache single sections and
//! still hand back batch-identical payloads.

use crate::activity::{activity_analysis, ActivityReport};
use crate::basic::{basic_analysis, BasicReport};
use crate::bios::{bio_analysis, BioReport};
use crate::categories::{category_analysis, CategoryReport};
use crate::centrality::{centrality_analysis, CentralityReport};
use crate::dataset::Dataset;
use crate::degrees::{degree_analysis, figure1, DegreeReport, Figure1};
use crate::eigen::{eigen_analysis, EigenReport};
use crate::elite_core::{elite_core_analysis, EliteCoreReport};
use crate::error::{Result, VnetError};
use crate::recip::{reciprocity_analysis, ReciprocityReport};
use crate::report::AnalysisOptions;
use crate::separation::{separation_analysis, SeparationReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Content, Serialize};
use vnet_ctx::AnalysisCtx;

/// One independently computable section of the analysis battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// §IV-A basic network analysis.
    Basic,
    /// Figure 1: profile-attribute marginals.
    Figure1,
    /// §IV-B discrete half + Figure 2.
    Degrees,
    /// §IV-B continuous half (Laplacian eigenvalues).
    Eigen,
    /// §IV-C reciprocity.
    Reciprocity,
    /// §IV-D + Figure 3: degrees of separation.
    Separation,
    /// §IV-E + Figure 4 + Tables I & II: bio mining.
    Bios,
    /// §IV-F + Figure 5: centrality vs reach.
    Centrality,
    /// §V + Figure 6: activity analysis.
    Activity,
    /// §IV-C conjecture validation (elite core).
    EliteCore,
    /// Bio-based user categorization.
    Categories,
}

impl Section {
    /// Every section, in full-report order.
    pub const ALL: [Section; 11] = [
        Section::Basic,
        Section::Figure1,
        Section::Degrees,
        Section::Eigen,
        Section::Reciprocity,
        Section::Separation,
        Section::Bios,
        Section::Centrality,
        Section::Activity,
        Section::EliteCore,
        Section::Categories,
    ];

    /// Stable string id, used in wire requests, cache keys, and span names.
    pub fn id(&self) -> &'static str {
        match self {
            Section::Basic => "basic",
            Section::Figure1 => "figure1",
            Section::Degrees => "degrees",
            Section::Eigen => "eigen",
            Section::Reciprocity => "reciprocity",
            Section::Separation => "separation",
            Section::Bios => "bios",
            Section::Centrality => "centrality",
            Section::Activity => "activity",
            Section::EliteCore => "elite_core",
            Section::Categories => "categories",
        }
    }
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

impl std::str::FromStr for Section {
    type Err = VnetError;

    fn from_str(s: &str) -> Result<Self> {
        Section::ALL
            .into_iter()
            .find(|sec| sec.id() == s)
            .ok_or_else(|| VnetError::UnknownSection(s.to_string()))
    }
}

impl Serialize for Section {
    fn to_content(&self) -> Content {
        Content::Str(self.id().to_string())
    }
}

/// The result of one section, ready to serialize. Serialization is
/// untagged — the payload is exactly what the corresponding
/// `AnalysisReport` field serializes to, so a section served alone is
/// byte-identical to the same section cut out of a full report.
#[derive(Debug, Clone)]
pub enum SectionReport {
    /// §IV-A.
    Basic(BasicReport),
    /// Figure 1.
    Figure1(Figure1),
    /// §IV-B discrete + Figure 2.
    Degrees(DegreeReport),
    /// §IV-B continuous.
    Eigen(EigenReport),
    /// §IV-C.
    Reciprocity(ReciprocityReport),
    /// §IV-D + Figure 3.
    Separation(SeparationReport),
    /// §IV-E + Figure 4 + Tables I & II.
    Bios(BioReport),
    /// §IV-F + Figure 5.
    Centrality(CentralityReport),
    /// §V + Figure 6.
    Activity(ActivityReport),
    /// §IV-C conjecture validation.
    EliteCore(EliteCoreReport),
    /// User categorization.
    Categories(CategoryReport),
}

impl SectionReport {
    /// Which section this payload belongs to.
    pub fn section(&self) -> Section {
        match self {
            SectionReport::Basic(_) => Section::Basic,
            SectionReport::Figure1(_) => Section::Figure1,
            SectionReport::Degrees(_) => Section::Degrees,
            SectionReport::Eigen(_) => Section::Eigen,
            SectionReport::Reciprocity(_) => Section::Reciprocity,
            SectionReport::Separation(_) => Section::Separation,
            SectionReport::Bios(_) => Section::Bios,
            SectionReport::Centrality(_) => Section::Centrality,
            SectionReport::Activity(_) => Section::Activity,
            SectionReport::EliteCore(_) => Section::EliteCore,
            SectionReport::Categories(_) => Section::Categories,
        }
    }
}

impl Serialize for SectionReport {
    fn to_content(&self) -> Content {
        match self {
            SectionReport::Basic(r) => r.to_content(),
            SectionReport::Figure1(r) => r.to_content(),
            SectionReport::Degrees(r) => r.to_content(),
            SectionReport::Eigen(r) => r.to_content(),
            SectionReport::Reciprocity(r) => r.to_content(),
            SectionReport::Separation(r) => r.to_content(),
            SectionReport::Bios(r) => r.to_content(),
            SectionReport::Centrality(r) => r.to_content(),
            SectionReport::Activity(r) => r.to_content(),
            SectionReport::EliteCore(r) => r.to_content(),
            SectionReport::Categories(r) => r.to_content(),
        }
    }
}

fn analysis_err(section: Section, e: impl std::fmt::Display) -> VnetError {
    VnetError::Analysis { section, message: e.to_string() }
}

/// Map a power-law fit failure: invalid *samples* (non-finite values
/// smuggled through dataset I/O) become [`VnetError::InvalidInput`] so the
/// service reports them as a client-data problem, not a computation
/// failure; everything else stays an analysis error.
fn fit_err(section: Section, e: vnet_powerlaw::PowerLawError) -> VnetError {
    match e {
        vnet_powerlaw::PowerLawError::InvalidData(m) => {
            VnetError::InvalidInput(format!("section '{}': {m}", section.id()))
        }
        other => analysis_err(section, other),
    }
}

/// Compute exactly one section of the analysis battery, under the span
/// `analysis.<id>`: the one section dispatcher, which
/// [`crate::report::run_analysis`], `repro` and the `vnet-serve` service
/// all call. Every section seeds a fresh RNG from `opts.seed`, so its
/// payload is bit-identical to the same field of the full report for the
/// same dataset and options, at any thread count.
///
/// `elite_core` refuses a dataset without one profile per graph node: core
/// reach reads each member's profile, and a sybil shard's planted
/// accounts have none.
pub fn run_analysis_section(
    dataset: &Dataset,
    section: Section,
    opts: &AnalysisOptions,
    ctx: &AnalysisCtx,
) -> Result<SectionReport> {
    let _span = ctx.span(&format!("analysis.{section}"));
    let rng = &mut StdRng::seed_from_u64(opts.seed);
    Ok(match section {
        Section::Basic => {
            SectionReport::Basic(basic_analysis(dataset, opts.clustering_samples, rng, ctx))
        }
        Section::Figure1 => SectionReport::Figure1(figure1(dataset, opts.fig1_bins)),
        Section::Degrees => SectionReport::Degrees(
            degree_analysis(dataset, &opts.fit, opts.bootstrap_reps, rng, ctx)
                .map_err(|e| fit_err(section, e))?,
        ),
        Section::Eigen => SectionReport::Eigen(
            eigen_analysis(
                dataset,
                opts.eigen_k,
                opts.lanczos_steps,
                &opts.fit,
                opts.bootstrap_reps,
                rng,
                ctx,
            )
            .map_err(|e| fit_err(section, e))?,
        ),
        Section::Reciprocity => SectionReport::Reciprocity(reciprocity_analysis(dataset, ctx)),
        Section::Separation => {
            SectionReport::Separation(separation_analysis(dataset, opts.distance_sources, rng, ctx))
        }
        Section::Bios => SectionReport::Bios(bio_analysis(dataset, opts.ngram_rows, ctx)),
        Section::Centrality => SectionReport::Centrality(centrality_analysis(
            dataset,
            opts.betweenness_pivots,
            rng,
            ctx,
        )),
        Section::Activity => SectionReport::Activity(
            activity_analysis(dataset, opts.lag_cap, ctx).map_err(|e| analysis_err(section, e))?,
        ),
        Section::EliteCore => {
            if dataset.profiles.len() != dataset.graph.node_count() {
                return Err(VnetError::Inconsistent(format!(
                    "section 'elite_core' reads one profile per node: {} profiles for {} nodes",
                    dataset.profiles.len(),
                    dataset.graph.node_count()
                )));
            }
            SectionReport::EliteCore(elite_core_analysis(dataset, ctx))
        }
        Section::Categories => SectionReport::Categories(category_analysis(dataset, ctx)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthesisConfig;

    #[test]
    fn ids_roundtrip_through_fromstr() {
        for sec in Section::ALL {
            let parsed: Section = sec.id().parse().unwrap();
            assert_eq!(parsed, sec);
        }
        match "nope".parse::<Section>() {
            Err(VnetError::UnknownSection(s)) => assert_eq!(s, "nope"),
            other => panic!("expected UnknownSection, got {other:?}"),
        }
    }

    #[test]
    fn invalid_fit_samples_surface_as_invalid_input() {
        let e = fit_err(
            Section::Eigen,
            vnet_powerlaw::PowerLawError::InvalidData("non-finite value"),
        );
        assert_eq!(e.code(), "invalid_input");
        assert!(e.to_string().contains("eigen"), "message lost the section: {e}");
        // Other fit failures remain analysis errors.
        let e = fit_err(
            Section::Degrees,
            vnet_powerlaw::PowerLawError::TooFewObservations { needed: 50, got: 3 },
        );
        assert_eq!(e.code(), "analysis");
    }

    #[test]
    fn elite_core_refuses_a_dataset_with_fewer_profiles_than_nodes() {
        let ctx = AnalysisCtx::quiet();
        let mut ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        ds.profiles.truncate(ds.graph.node_count() - 1);
        let opts = AnalysisOptions::quick();
        match run_analysis_section(&ds, Section::EliteCore, &opts, &ctx) {
            Err(e @ VnetError::Inconsistent(_)) => {
                assert_eq!(e.code(), "inconsistent");
                assert!(e.to_string().contains("elite_core"), "message lost the section: {e}");
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn section_alone_matches_full_report_field() {
        let ctx = AnalysisCtx::quiet();
        let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        let opts = AnalysisOptions::quick();
        let full = crate::report::run_analysis(&ds, &opts, &ctx);
        let alone = run_analysis_section(&ds, Section::Separation, &opts, &ctx).unwrap();
        let from_full = serde_json::to_string(&full.separation).unwrap();
        let standalone = serde_json::to_string(&alone).unwrap();
        assert_eq!(from_full, standalone, "standalone section diverged from full run");
        assert_eq!(alone.section(), Section::Separation);
    }

    #[test]
    fn section_is_thread_count_invariant() {
        let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
        let opts = AnalysisOptions::quick();
        let serial =
            run_analysis_section(&ds, Section::Centrality, &opts, &AnalysisCtx::quiet()).unwrap();
        let par = run_analysis_section(
            &ds,
            Section::Centrality,
            &opts,
            &AnalysisCtx::with_threads(4),
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&par).unwrap()
        );
    }
}
