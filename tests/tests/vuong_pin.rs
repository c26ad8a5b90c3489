//! Bit pins for the §IV-B Vuong rows: every likelihood-ratio, statistic
//! and p-value the `degrees` and `eigen` sections report, as `to_bits()`.
//!
//! The alternative fits (truncated log-normal grid search, Poisson
//! golden-section search) and the per-point log-likelihood differences
//! are pure arithmetic with a fixed evaluation order, so any rewrite of
//! them must reproduce these bits exactly; a changed bit means a changed
//! sum somewhere, not noise.

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SectionReport,
    SynthesisConfig,
};

/// `(alternative, lr, statistic, p_value)` bits, in report order.
type Pin = (&'static str, u64, u64, u64);

const DEGREES: [Pin; 3] = [
    ("log-normal", 0x400f_e80d_4944_dfba, 0x3ff2_bfdf_90c0_3934, 0x3fce_e198_c466_ddc4),
    ("exponential", 0x4086_b6d5_0232_2602, 0x3ff1_011e_619c_d2a4, 0x3fd2_6cb4_98fb_188c),
    ("poisson", 0x40b9_74b5_41c4_8e02, 0x4012_d362_6eb2_5ecd, 0x3ec5_25a3_ed8e_c2bb),
];

const EIGEN: [Pin; 2] = [
    ("log-normal", 0x3fb7_4f74_847a_5140, 0x3fb7_b350_d0d2_30bb, 0x3fed_a3bc_72ed_5044),
    ("exponential", 0x4021_2ee1_3cd4_d301, 0x3ff4_4d53_8a9f_3717, 0x3fca_2c8b_7d1b_2e14),
];

fn check(section: &str, rows: &[verified_net::degrees::VuongRow], pins: &[Pin]) {
    assert_eq!(rows.len(), pins.len(), "{section}: row count");
    for (row, &(alternative, lr, statistic, p_value)) in rows.iter().zip(pins) {
        assert_eq!(row.alternative, alternative, "{section}: row order");
        let got = (row.lr.to_bits(), row.statistic.to_bits(), row.p_value.to_bits());
        assert_eq!(
            got,
            (lr, statistic, p_value),
            "{section} vs {alternative}: lr {} statistic {} p {}",
            row.lr,
            row.statistic,
            row.p_value
        );
    }
}

#[test]
fn vuong_rows_match_their_pinned_bits() {
    let ctx = AnalysisCtx::quiet();
    let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
    let opts = AnalysisOptions { seed: 0x5EED, ..AnalysisOptions::quick() };
    match run_analysis_section(&ds, Section::Degrees, &opts, &ctx).unwrap() {
        SectionReport::Degrees(r) => check("degrees", &r.vuong, &DEGREES),
        other => panic!("degrees section returned {other:?}"),
    }
    match run_analysis_section(&ds, Section::Eigen, &opts, &ctx).unwrap() {
        SectionReport::Eigen(r) => check("eigen", &r.vuong, &EIGEN),
        other => panic!("eigen section returned {other:?}"),
    }
}
