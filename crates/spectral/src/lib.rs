#![warn(missing_docs)]

//! # vnet-spectral
//!
//! Sparse spectral machinery for Section IV-B of *"Elites Tweet?"*
//! (ICDE 2019): the paper fits a power law to "the largest 10,000
//! eigenvalues of the Laplacian matrix of the sub-graph", computed "using
//! the power iteration method in existing solvers", discarding small
//! eigenvalues that sparsity pushes toward zero.
//!
//! This crate provides:
//!
//! * [`SymLaplacian`] — the symmetric graph Laplacian `L = D − A` of the
//!   undirected projection of a follow graph, stored as CSR and exposed as
//!   a matrix-free operator (only `L·x` is ever formed).
//! * [`lanczos_topk`] — Lanczos iteration with partial reorthogonalization
//!   (Simon's orthogonality estimate; classical Gram–Schmidt sweeps only
//!   when it passes √ε; matvecs and sweeps run on the context's pool) and a
//!   Sturm-sequence tridiagonal eigensolver
//!   that bisects only the kept values; the workhorse for extracting the
//!   top-k eigenvalues at scale.
//! * [`power_iteration_topk`] — textbook power iteration with deflation,
//!   the method the paper names; kept as the cross-check / ablation
//!   baseline (it is O(k) sweeps of O(k·E) work, so only sane for small k).

pub mod laplacian;
pub mod lanczos;
pub mod power;
pub mod tridiag;

pub use lanczos::{lanczos_topk, LanczosStats};
pub use laplacian::SymLaplacian;
pub use power::power_iteration_topk;
