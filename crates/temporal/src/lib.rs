#![warn(missing_docs)]

//! # vnet-temporal — the temporal graph engine
//!
//! The paper froze one snapshot of the verified network; this crate makes
//! it move. It consumes the deterministic churn stream from
//! `vnet_synth::churn` and maintains the graph **incrementally**:
//!
//! * [`DeltaOverlay`] — sorted add/delete lists over an immutable CSR
//!   base, iterating live neighbor sets in exactly materialized-CSR order,
//!   with periodic compaction through `StreamingBuilder`;
//! * [`dynamic_pagerank`] — `vnet-algos`' PageRank power iteration,
//!   warm-started and run over CSR or overlay views ([`PullGraph`]),
//!   bit-identical at any thread count;
//! * [`StructuralCounters`] — O(deg)-per-flip reciprocity, transitivity,
//!   and degree counters whose integer state makes daily metrics equal a
//!   from-scratch recount *by construction*;
//! * [`TemporalEngine`] — one `advance_day` per churn batch, emitting
//!   fingerprinted [`TemporalDayReport`]s; [`scratch_replay`] is the
//!   from-scratch comparator the equivalence proptests diff against;
//! * [`Timeline`] — the serve-side time-travel index: periodic churn
//!   checkpoints, `graph_as_of(day)` materialization, and PELT
//!   [`StructuralShift`]s over the structural metric series.
//!
//! The determinism contract everything rests on: churn day `d` depends
//! only on `(seed, state at day d−1)`, overlay iteration order equals CSR
//! iteration order, and every floating-point reduction is chunk-ordered —
//! so incremental vs. from-scratch, overlay vs. compacted, 1 thread vs.
//! 16, checkpoint-resume vs. cold replay all produce identical bits.

pub mod counters;
pub mod dynpr;
pub mod engine;
pub mod overlay;
pub mod timeline;

pub use counters::{DeltaError, StructuralCounters};
pub use dynpr::dynamic_pagerank;
pub use vnet_algos::pagerank::PullGraph;
pub use engine::{
    scratch_replay, structural_shifts, EngineConfig, StructuralSeries, StructuralShift,
    TemporalDayReport, TemporalEngine,
};
pub use overlay::{DeltaOverlay, MergedNeighbors};
pub use timeline::{Timeline, STRUCTURAL_PELT_PENALTY};
