//! The `batch` workload: the paper's own job. Set-up synthesizes the
//! default-scale dataset; the measured work is the eleven-section analysis
//! battery, called section by section through the public
//! `run_analysis_section` entrypoint.

use std::time::{Duration, Instant};

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SynthesisConfig,
};
use vnet_obs::fingerprint_str;

use crate::stats::{geomean, median};
use crate::Report;

/// The fewest set-ups `setup_s` is the median of.
const SETUPS: usize = 9;
/// Set-ups before each battery. A battery takes about twelve seconds on
/// two cores and a set-up a third of a second, so a run of twenty seconds
/// holds two batteries and draws eight of its set-ups between them.
const SETUPS_PER_BATTERY: usize = 4;

/// The battery options: the library defaults with the goodness-of-fit
/// bootstrap on, the pool at `threads`, and the workload seed as the
/// master seed of every randomized estimator.
pub fn options(seed: u64, threads: usize) -> AnalysisOptions {
    AnalysisOptions {
        bootstrap_reps: 30,
        threads,
        seed,
        ..AnalysisOptions::default()
    }
}

/// Synthesize the default-scale dataset, returning it with the seconds
/// the build took.
pub fn build(ctx: &AnalysisCtx) -> (Dataset, f64) {
    let started = Instant::now();
    let ds = Dataset::build(&SynthesisConfig::default(), ctx);
    (ds, started.elapsed().as_secs_f64())
}

/// One pass over the eleven sections.
pub struct Battery {
    /// Seconds each section call took, in `Section::ALL` order.
    pub calls: Vec<f64>,
    /// Fingerprint of each section's serialized payload.
    pub fingerprints: Vec<u64>,
}

impl Battery {
    /// Wall time of the eleven calls.
    pub fn seconds(&self) -> f64 {
        self.calls.iter().sum()
    }

    /// Seconds of one section's call.
    pub fn call(&self, section: Section) -> f64 {
        let i = Section::ALL
            .iter()
            .position(|&s| s == section)
            .expect("listed section");
        self.calls[i]
    }
}

/// Run the battery once. Serialization and fingerprinting happen outside
/// the timed calls.
pub fn battery(
    ds: &Dataset,
    opts: &AnalysisOptions,
    ctx: &AnalysisCtx,
    report: &mut Report,
) -> Battery {
    let mut calls = Vec::with_capacity(Section::ALL.len());
    let mut fingerprints = Vec::with_capacity(Section::ALL.len());
    for section in Section::ALL {
        report.attempted += 1;
        let started = Instant::now();
        let result = run_analysis_section(ds, section, opts, ctx);
        calls.push(started.elapsed().as_secs_f64());
        match result {
            Ok(payload) => {
                let json = serde_json::to_string(&payload).expect("section payloads serialize");
                fingerprints.push(fingerprint_str(&json));
            }
            Err(e) => {
                report.fail(format!("section {section} failed: {e}"));
                fingerprints.push(0);
            }
        }
    }
    Battery {
        calls,
        fingerprints,
    }
}

/// Count every section whose fingerprint differs between two batteries.
pub fn compare(report: &mut Report, what: &str, a: &Battery, b: &Battery) {
    for (i, section) in Section::ALL.iter().enumerate() {
        report.attempted += 1;
        if a.fingerprints[i] != b.fingerprints[i] {
            report.fail(format!(
                "section {section} fingerprint differs between {what}"
            ));
        }
    }
}

/// The untraced run: set up and run the battery, again and again until
/// `seconds` have passed (at least once), then set up again until there
/// are `SETUPS` set-ups for the `setup_s` median. Building
/// `SETUPS_PER_BATTERY` times before each battery (the battery uses the
/// last build) spreads the set-up samples over the whole run, so a slow
/// spell of the host moves their median less.
pub fn run(seed: u64, seconds: u64, nproc: usize, report: &mut Report) {
    let ctx = AnalysisCtx::with_threads(nproc);
    let opts = options(seed, nproc);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut batteries: Vec<Battery> = Vec::new();
    while batteries.is_empty() || started.elapsed() < budget {
        let mut ds = None;
        for _ in 0..SETUPS_PER_BATTERY {
            drop(ds.take());
            let (built, secs) = build(&ctx);
            setups.push(secs);
            ds = Some(built);
        }
        let ds = ds.expect("at least one set-up per battery");
        let b = battery(&ds, &opts, &ctx, report);
        if let Some(first) = batteries.first() {
            compare(report, "repeated batteries", first, &b);
        }
        batteries.push(b);
    }
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    while setups.len() < SETUPS {
        setups.push(build(&ctx).1);
    }

    // Each section's median call, over the batteries. The plain median of
    // all calls would fall between two sections of the eleven and jump
    // between their times from run to run; the geometric mean of the
    // section medians counts every section alike.
    let section_ms: Vec<f64> = (0..Section::ALL.len())
        .map(|i| {
            let calls: Vec<f64> = batteries.iter().map(|b| b.calls[i] * 1e3).collect();
            median(&calls)
        })
        .collect();
    let battery_s: Vec<f64> = batteries.iter().map(Battery::seconds).collect();
    let calls = batteries.len() * Section::ALL.len();
    report.note("battery_s", median(&battery_s), "s");
    report.note("batteries", batteries.len() as f64, "count");
    report.metric("setup_s", median(&setups), "s");
    report.metric("p50_ms", geomean(&section_ms), "ms");
    report.metric(
        "tail_ms",
        section_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.metric(
        "ops_per_s",
        calls as f64 / battery_s.iter().sum::<f64>(),
        "1/s",
    );
}
