#![warn(missing_docs)]

//! # vnet-algos
//!
//! Graph algorithms behind the network analysis of *"Elites Tweet?"*
//! (ICDE 2019), Section IV.
//!
//! Each module maps to a measurement the paper reports on the verified-user
//! sub-graph:
//!
//! * [`components`] — Tarjan strongly connected components, union-find weak
//!   components, and **attracting components** (sink SCCs — "components
//!   in which if a random walk enters, it never leaves"; the paper counts
//!   6,091 of them, celebrity-cored).
//! * [`mod@reciprocity`] — the fraction of directed edges that are reciprocated
//!   (33.7% for verified users vs 22.1% for all of Twitter).
//! * [`assortativity`] — directed degree-degree Pearson correlation (the
//!   paper's −0.04 slight dissortativity).
//! * [`clustering`] — average local clustering coefficient (0.1583).
//! * [`distances`] — BFS distance distributions, mean path length (2.74) and
//!   effective diameter, exact or source-sampled (Figure 3).
//! * [`mod@pagerank`] — power-iteration PageRank with dangling-mass handling
//!   (Figure 5c/5d).
//! * [`betweenness`] — Brandes betweenness, exact or pivot-sampled, fanned
//!   out over a `vnet-par` pool with thread-count-invariant results
//!   (Figure 5a/5b).
//! * [`degree`] — degree-sequence utilities shared by the power-law pipeline.

pub mod assortativity;
pub mod betweenness;
pub mod closeness;
pub mod clustering;
pub mod components;
pub mod degree;
pub mod distances;
pub mod hits;
pub mod kcore;
pub mod pagerank;
pub mod reciprocity;

pub use assortativity::{degree_assortativity, DegreeMode};
pub use betweenness::{betweenness_exact, betweenness_sampled};
pub use clustering::{average_local_clustering, local_clustering};
pub use components::{
    attracting_components, attracting_components_of, strongly_connected_components,
    weakly_connected_components,
};
pub use closeness::{harmonic_closeness_exact, harmonic_closeness_sampled};
pub use distances::{bfs_distances, distance_distribution, DistanceStats};
pub use hits::{hits, HitsResult};
pub use kcore::{k_core_decomposition, CoreDecomposition};
pub use pagerank::{pagerank, PageRankConfig};
pub use reciprocity::reciprocity;
