//! Default-tier fidelity of the §IV-B eigenvalue fit across eigensolver
//! changes.
//!
//! The references were recorded with the full-reorthogonalization Lanczos
//! (two modified Gram–Schmidt passes against the whole basis at every
//! step), at the default tier and `AnalysisOptions::default()`. The
//! partial-reorthogonalization solver changes the eigenvalue bits, so
//! this pins what the paper's figure needs instead: the fitted exponent,
//! the cutoff, the tail size and the converged top of the spectrum.
//!
//! Ignored by default (tier-1 runs the debug profile); `scripts/verify.sh
//! algos` runs it in release with `--include-ignored`.

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SectionReport,
    SynthesisConfig,
};

/// α ≈ 2.7504917957.
const ALPHA_BITS: u64 = 0x4006_0101_d7b4_b02e;
/// xmin ≈ 345.38785434.
const XMIN_BITS: u64 = 0x4075_9634_a6c1_9b92;
const N_TAIL: usize = 199;
/// λ_1..λ_10, from ≈ 10,763.001 down to ≈ 3,014.060.
const TOP10_BITS: [u64; 10] = [
    0x40c5_0580_218e_02b0,
    0x40b9_8f01_5f89_ea80,
    0x40b2_0b03_a30b_6eb0,
    0x40b0_f309_daf2_371d,
    0x40b0_e7fd_3b4d_ffac,
    0x40af_5013_7e3a_1d7c,
    0x40af_3bfb_4927_ccb2,
    0x40ad_5807_6cb5_1720,
    0x40aa_a608_8fad_bd54,
    0x40a7_8c1e_8df0_4876,
];

fn relative(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs()
}

#[test]
#[ignore = "default-tier build and 450-step Lanczos; run via scripts/verify.sh algos"]
fn default_tier_eigen_fit_matches_the_full_reorthogonalization_reference() {
    let ctx = AnalysisCtx::with_threads(2);
    let ds = Dataset::build(&SynthesisConfig::default(), &ctx);
    let report = match run_analysis_section(&ds, Section::Eigen, &AnalysisOptions::default(), &ctx)
    {
        Ok(SectionReport::Eigen(r)) => r,
        other => panic!("eigen section returned {other:?}"),
    };
    let (alpha, xmin) = (f64::from_bits(ALPHA_BITS), f64::from_bits(XMIN_BITS));
    assert!(relative(report.alpha, alpha) <= 1e-6, "alpha {} vs {alpha}", report.alpha);
    assert!(relative(report.xmin, xmin) <= 1e-5, "xmin {} vs {xmin}", report.xmin);
    assert_eq!(report.n_tail, N_TAIL);
    for (rank, (&got, &bits)) in report.eigenvalues.iter().zip(&TOP10_BITS).enumerate() {
        let want = f64::from_bits(bits);
        assert!(relative(got, want) <= 1e-12, "λ_{}: {got} vs {want}", rank + 1);
    }
}
