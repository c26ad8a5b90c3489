#![warn(missing_docs)]

//! # vnet-par — deterministic fork-join parallelism
//!
//! A zero-external-dependency parallel execution layer, over parked
//! helper threads shared by the whole process, for the `verified-net`
//! workspace. The heavy
//! stages of the paper reproduction — the semiparametric bootstrap
//! goodness-of-fit test, pivot-sampled Brandes betweenness, BFS distance
//! sampling, and the Lanczos / PageRank matrix-vector inner loops — all
//! run through this crate, and all obey one contract:
//!
//! > **The result is a function of the problem and the seed, never of the
//! > thread count.** `threads = 1` and `threads = 64` produce bit-identical
//! > output.
//!
//! Three design rules deliver that contract (see `docs/DETERMINISM.md` in
//! the repository root for the full rationale):
//!
//! 1. **Static chunking.** Work is decomposed into tasks by a *fixed*
//!    chunk size chosen per call site — never by dividing the input across
//!    however many threads happen to exist. The task list is therefore
//!    identical at any thread count; threads only change which thread
//!    executes a task.
//! 2. **Ordered reduction.** Task results are folded strictly in task
//!    order (task 0, then task 1, …), regardless of completion order.
//!    Floating-point addition is not associative, so an
//!    ordered fold is the only way `f64` accumulations can match across
//!    schedules.
//! 3. **RNG stream splitting.** Randomized tasks never share a sequential
//!    RNG. Each task derives its own generator from
//!    [`StreamRng::split`]`(seed, task_idx)` — a SplitMix64-style hash of
//!    the master seed and the task index — so the stream a task consumes
//!    is independent of how many tasks ran before it on the same thread.
//!
//! The scheduler is *steal-free*: task `i` is statically assigned to
//! lane `i % lanes`, a lane runs its tasks in task order, and no task ever
//! moves to another lane. Lane 0 runs on the caller; each other lane is
//! claimed whole by the first thread to reach it, a parked helper or the
//! caller once its own lane is done, so which thread runs a lane never
//! changes what the lane computes. [`ParStats`] reports
//! `steal_free_chunks == tasks` as a pinned invariant — if a future
//! dynamic scheduler is introduced, the divergence will show up in every
//! run manifest that records these counters.
//!
//! ## Example
//!
//! ```
//! use vnet_par::{ParPool, StreamRng};
//! use rand::Rng;
//!
//! // Ordered map-reduce: same sum at any thread count.
//! let pool = ParPool::new(4);
//! let (sum, stats) = pool.map_reduce(
//!     100,
//!     |task| {
//!         let mut rng = StreamRng::split(0x5EED, task as u64);
//!         rng.random::<f64>()
//!     },
//!     0.0,
//!     |acc, x| acc + x,
//! );
//! let (serial_sum, _) = ParPool::serial().map_reduce(
//!     100,
//!     |task| {
//!         let mut rng = StreamRng::split(0x5EED, task as u64);
//!         rng.random::<f64>()
//!     },
//!     0.0,
//!     |acc, x| acc + x,
//! );
//! assert_eq!(sum.to_bits(), serial_sum.to_bits());
//! assert_eq!(stats.tasks, 100);
//! ```

mod pool;
mod rng;

pub use pool::{ParPool, ParStats};
pub use rng::StreamRng;
