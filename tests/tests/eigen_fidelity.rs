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
//! The second test pins the current solver's bits at that tier: the
//! `section.eigen` payload and the Lanczos work counts. The small tier's
//! quick-preset payload is pinned in `projection_pin`; this one covers the
//! 300-of-450-step solve the batch benchmark runs, so a kernel rewrite
//! that claims the same bits is checked where the time is spent.
//!
//! Ignored by default (tier-1 runs the debug profile); `scripts/verify.sh
//! algos` runs both in release with `--include-ignored`.

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SectionReport,
    SynthesisConfig,
};
use vnet_obs::{fingerprint_str, Obs};
use vnet_par::ParPool;

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

/// FNV-1a of the default-tier `section.eigen` JSON, as `projection_pin`
/// computes its pins.
const SECTION_EIGEN: u64 = 0x6b5f_86de_1a11_ffa3;
/// The Lanczos work of that section: operator applications, removed
/// projections and swept steps.
const LANCZOS_WORK: [(&str, u64); 3] = [
    ("algo.lanczos.matvecs", 450),
    ("algo.lanczos.reorth_projections", 38_427),
    ("algo.lanczos.sweeps", 158),
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

#[test]
#[ignore = "default-tier build and 450-step Lanczos; run via scripts/verify.sh algos"]
fn default_tier_eigen_section_bits_and_lanczos_work_are_pinned() {
    let ds = Dataset::build(&SynthesisConfig::default(), &AnalysisCtx::with_threads(2));
    let obs = Obs::new();
    let ctx = AnalysisCtx::from_obs(ParPool::new(2), &obs);
    let report = run_analysis_section(&ds, Section::Eigen, &AnalysisOptions::default(), &ctx)
        .expect("eigen section runs");
    let json = serde_json::to_string(&report).expect("section serializes");
    let got = fingerprint_str(&json);
    assert_eq!(got, SECTION_EIGEN, "section.eigen {got:#018x}");
    for (name, want) in LANCZOS_WORK {
        assert_eq!(obs.metrics().counter(name, &[]), want, "{name}");
    }
}
