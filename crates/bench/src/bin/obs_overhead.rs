//! Hot-path metrics overhead comparison.
//!
//! ```text
//! cargo run --release -p vnet-bench --bin obs_overhead
//! cargo run --release -p vnet-bench --bin obs_overhead -- --ops 2000000 --threads 1,2,4
//! cargo run --release -p vnet-bench --bin obs_overhead -- --check
//! ```
//!
//! Measures the per-sample cost of counter increments and histogram
//! observations written three ways — by name through an enabled
//! [`Obs`], through an interned handle on the same kind of store, and
//! through a disabled `Obs` — at several thread counts (see
//! [`vnet_bench::overhead`]). With `--check`, exits nonzero unless an
//! interned handle beats a by-name write at every thread count ≥ 2: the
//! regression gate the `obs-bench` verify lane runs.
//!
//! [`Obs`]: vnet_obs::Obs

use vnet_bench::overhead;

struct Config {
    ops: u64,
    threads: Vec<usize>,
    out: Option<String>,
    check: bool,
}

fn main() {
    let mut config =
        Config { ops: 1_000_000, threads: vec![1, 2, 4], out: None, check: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ops" => {
                config.ops = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--ops needs a number");
                    std::process::exit(2);
                })
            }
            "--threads" => {
                let spec = it.next().cloned().unwrap_or_default();
                let parsed: Option<Vec<usize>> =
                    spec.split(',').map(|t| t.trim().parse().ok()).collect();
                match parsed {
                    Some(t) if !t.is_empty() => config.threads = t,
                    _ => {
                        eprintln!("--threads needs a comma-separated list, e.g. 1,2,4");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                config.out = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }))
            }
            "--check" => config.check = true,
            other => {
                eprintln!(
                    "unknown argument '{other}'\nusage: obs_overhead [--ops <n>] \
                     [--threads <a,b,c>] [--out <file>] [--check]"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "measuring metric-recording overhead: {} ops/thread at {:?} threads ...",
        config.ops, config.threads
    );
    let report = overhead::measure(config.ops, &config.threads);
    for r in &report.per_threads {
        eprintln!(
            "  {} thread(s): counter by-name {:.1} / handle {:.1} / disabled {:.1} ns — \
             histogram by-name {:.1} / handle {:.1} / disabled {:.1} ns",
            r.threads,
            r.counter.registry_ns,
            r.counter.telemetry_ns,
            r.counter.disabled_ns,
            r.histogram.registry_ns,
            r.histogram.telemetry_ns,
            r.histogram.disabled_ns,
        );
    }

    let rendered = format!(
        "{{\n  \"benchmark\": \"obs_overhead — by-name write (registry) vs interned handle (telemetry) vs disabled\",\n  \"cores\": {},\n  \"obs_overhead\": {}\n}}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        overhead::render_json(&report),
    );
    match &config.out {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).expect("write summary file");
            eprintln!("summary written to {path}");
        }
        None => println!("{rendered}"),
    }

    if config.check {
        match overhead::check(&report) {
            Ok(()) => eprintln!(
                "obs_overhead: OK — an interned handle beats a by-name write at every thread count >= 2"
            ),
            Err(violations) => {
                eprintln!("obs_overhead: {} violation(s):", violations.len());
                for v in &violations {
                    eprintln!("  - {v}");
                }
                std::process::exit(1);
            }
        }
    }
}
