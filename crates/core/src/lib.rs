#![warn(missing_docs)]

//! # verified-net
//!
//! A production-quality Rust reproduction of *"Elites Tweet? Characterizing
//! the Twitter Verified User Network"* (Paul, Khattar, Kumaraguru, Gupta,
//! Chopra — ICDE 2019).
//!
//! The paper crawls the sub-graph of Twitter induced by verified users
//! (231,246 English profiles, 79.2M follow edges) plus a year of Firehose
//! activity data, and characterizes it: power-law out-degree and Laplacian
//! eigenvalue distributions, elevated reciprocity, slight dissortativity,
//! 2.74 mean degrees of separation, celebrity-cored attracting components,
//! journalism-dominated bios, and a stationary activity series with two
//! change-points (Christmas, early April).
//!
//! Because the dataset and its acquisition channels are gone, this crate
//! analyzes a **calibrated synthetic substitute** (see `vnet-synth` and
//! `vnet-twittersim`) acquired through a faithful re-implementation of the
//! paper's crawl methodology; every measurement instrument (power-law MLE,
//! Vuong tests, portmanteau tests, ADF, PELT, GAM-style splines, PageRank,
//! Brandes betweenness, Lanczos spectra) is built from scratch in this
//! workspace.
//!
//! ## Quick start
//!
//! ```no_run
//! use verified_net::{AnalysisCtx, AnalysisOptions, Dataset};
//!
//! // One context carries the thread pool and observability handle.
//! let ctx = AnalysisCtx::with_threads(4);
//! // Synthesize, crawl and package a 1:10-scale dataset.
//! let dataset = Dataset::build(&verified_net::SynthesisConfig::default(), &ctx);
//! // Run the full Section IV + V battery.
//! let opts = AnalysisOptions::builder().threads(4).build();
//! let report = verified_net::run_analysis(&dataset, &opts, &ctx);
//! println!("{}", serde_json::to_string_pretty(&report).unwrap());
//! ```
//!
//! Single sections (what the `vnet-serve` analysis service computes and
//! caches) run through [`run_analysis_section`]. The pre-0.2.0
//! `run_full_analysis`/`*_observed` entrypoints are deleted; the migration
//! table in `docs/API.md` maps each old name to its replacement.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §III dataset | [`dataset`] |
//! | §IV-A basic analysis | [`basic`] |
//! | §IV-B degree & eigenvalue power laws | [`degrees`], [`eigen`] |
//! | §IV-C reciprocity | [`recip`] |
//! | §IV-D degrees of separation | [`separation`] |
//! | §IV-E bios | [`bios`] |
//! | §IV-F centrality | [`centrality`] |
//! | §V activity | [`activity`] |
//! | §VI future work (network fingerprint) | [`fingerprint`] |
//! | §IV-C deferred conjecture (elite core) | [`elite_core`] |
//! | index-term "User Categorization" | [`categories`] |

pub mod activity;
pub mod basic;
pub mod bios;
pub mod categories;
pub mod centrality;
pub mod dataset;
pub mod degrees;
pub mod deviations;
pub mod eigen;
pub mod elite_core;
pub mod error;
pub mod experiments;
pub mod fingerprint;
pub mod io;
pub mod markdown;
pub mod recip;
pub mod report;
pub mod section;
pub mod separation;

pub use dataset::{Dataset, DatasetDigest, DatasetProvenance, SynthesisConfig};
pub use error::{Result, VnetError};
pub use experiments::{Experiment, EXPERIMENTS};
pub use fingerprint::{classify_fingerprint, NetworkFingerprint};
pub use io::{load_dataset, save_dataset};
pub use markdown::render_markdown;
pub use report::{run_analysis, AnalysisOptions, AnalysisOptionsBuilder, AnalysisReport};
pub use section::{run_analysis_section, Section, SectionReport};
pub use vnet_ctx::AnalysisCtx;
