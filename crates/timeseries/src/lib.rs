#![warn(missing_docs)]

//! # vnet-timeseries
//!
//! Time-series econometrics for Section V of *"Elites Tweet?"*
//! (ICDE 2019) — a from-scratch Rust replacement for the `statsmodels`
//! routines and the R `changepoint` package the paper used on the daily
//! tweet-activity series of English verified users:
//!
//! * [`acf`] — sample autocorrelation.
//! * [`portmanteau`] — Ljung-Box and Box-Pierce tests up to lag 185 (the
//!   paper's maximum p-values: 3.81×10⁻³⁸ and 7.57×10⁻³⁸).
//! * [`adf`] — Augmented Dickey-Fuller with constant + trend and MacKinnon
//!   response-surface critical values (paper: statistic −3.86 vs the −3.42
//!   critical threshold at 95%, concluding stationarity).
//! * [`mod@pelt`] — Pruned Exact Linear Time change-point detection under a
//!   normal mean+variance cost, with the paper's penalty "cool-down"
//!   consensus protocol (found: a pre-Christmas dip and an early-April
//!   shift, and nothing else).
//! * [`calendar`] — civil-date arithmetic and the calendar-heatmap
//!   aggregation of Figure 6.

pub mod acf;
pub mod adf;
pub mod binseg;
pub mod calendar;
pub mod decompose;
pub mod kpss;
pub mod pelt;
pub mod portmanteau;
pub mod seasonal;

pub use acf::autocorrelation;
pub use adf::{adf_test, AdfRegression, AdfResult};
pub use binseg::{binary_segmentation, BinSegResult};
pub use calendar::{CalendarHeatmap, Date};
pub use decompose::{decompose_additive, Decomposition};
pub use kpss::{kpss_test, KpssRegression, KpssResult};
pub use pelt::{pelt, pelt_consensus, PeltResult};
pub use portmanteau::{box_pierce, ljung_box, max_p_values, MaxPValues, PortmanteauResult};
pub use seasonal::{deseasonalize, deseasonalize_weekly};

/// Errors from time-series analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum TsError {
    /// Series shorter than the minimum required for the requested test.
    TooShort {
        /// Minimum length the test needs.
        needed: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A parameter was out of domain (lag 0, negative penalty, ...).
    InvalidParameter(&'static str),
    /// Underlying statistics error (singular regression etc.).
    Stats(vnet_stats::StatsError),
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::TooShort { needed, got } => {
                write!(f, "series too short: needed {needed}, got {got}")
            }
            TsError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            TsError::Stats(e) => write!(f, "stats error: {e}"),
        }
    }
}

impl std::error::Error for TsError {}

impl From<vnet_stats::StatsError> for TsError {
    fn from(e: vnet_stats::StatsError) -> Self {
        TsError::Stats(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TsError>;
