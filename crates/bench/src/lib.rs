//! # vnet-bench
//!
//! Benchmark harness for the `verified-net` reproduction of *"Elites
//! Tweet?"* (ICDE 2019).
//!
//! Two entry points:
//!
//! * **`repro`** (binary) — regenerates every table and figure of the
//!   paper: `cargo run --release -p vnet-bench --bin repro -- --all`
//!   prints, for each experiment in the registry, the paper's published
//!   values next to the measured ones, and `--exp <id>` runs one.
//! * **Criterion benches** — `cargo bench -p vnet-bench` measures the cost
//!   of every analysis stage and runs the ablation comparisons called out
//!   in `DESIGN.md` (xmin-scan strategies, Lanczos vs power iteration,
//!   exact vs sampled betweenness, generator ablations).
//!
//! Shared fixtures live here so every bench measures the *algorithm*, not
//! dataset construction.

use std::sync::OnceLock;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};

pub mod overhead;

/// The standard benchmark dataset (small scale: ~3.1k English users),
/// built once per process.
pub fn bench_dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_cached() {
        let a = bench_dataset() as *const Dataset;
        let b = bench_dataset() as *const Dataset;
        assert_eq!(a, b);
    }
}
