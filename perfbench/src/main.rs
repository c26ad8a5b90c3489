//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|serve-hot|serve-cold --seed <n> --seconds <n> --trace 0|1
//! ```
//!
//! `--trace 0` runs one workload untraced and reports the end-to-end
//! metrics. `--trace 1` runs the traced pass, which loads every layer and
//! reports the per-layer metrics (see `perfbench/README.md`). Human-readable
//! lines go to stdout first; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! nonzero when any correctness check fails.

mod batch;
mod cold;
mod hot;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;

/// Counts and metrics of one run.
#[derive(Default)]
pub struct Report {
    /// Operations and checks attempted.
    pub attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a failed operation or check.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Attempt one check: counts it, and records `message` when it fails.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    /// A metric of the final JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A figure printed for people only.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// The process's peak resident set size so far, MiB. Each workload reads
/// it right after its measured work, before the extra set-ups that only
/// time `setup_s`: repeated set-ups fragment the heap by chance, and the
/// figure should be one set-up plus the work.
pub fn peak_rss_mb() -> f64 {
    vnet_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["batch", "serve-hot", "serve-cold"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload {} --seed <n> --seconds <n> --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report = Report::default();
    if args.trace {
        trace::run(args.seed, args.seconds, nproc, &mut report);
    } else {
        match args.workload.as_str() {
            "batch" => batch::run(args.seed, args.seconds, nproc, &mut report),
            "serve-hot" => hot::run(args.seed, args.seconds, nproc, &mut report),
            _ => cold::run(args.seed, args.seconds, nproc, &mut report),
        }
    }
    let fail_frac = report.failed() as f64 / report.attempted.max(1) as f64;
    report.note("fail_frac", fail_frac, "ratio");
    report.note("nproc", nproc as f64, "count");

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, value, unit) in report.metrics.iter().chain(&report.notes) {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for f in report.failures.iter().take(20) {
        println!("FAIL {f}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        );
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1),
        report.failed(),
    );
    if !correct {
        std::process::exit(1);
    }
}
