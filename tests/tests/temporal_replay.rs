//! Cross-crate battery for the temporal engine: deterministic churn
//! replay (resume-from-checkpoint ≡ replay-from-day-0, the golden the
//! serve timeline's `as_of` resolution rests on), incremental-vs-scratch
//! fingerprint identity at pinned horizons, and thread-count invariance
//! of every day report — the acceptance criteria of the temporal PR.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vnet_ctx::AnalysisCtx;
use vnet_synth::{ChurnConfig, ChurnStream, VerifiedNetConfig, VerifiedNetwork};
use vnet_temporal::{scratch_replay, EngineConfig, TemporalEngine, Timeline};

/// A churn stream over a 500-node verified network. Seeds are split so
/// the graph and the churn process vary independently.
fn stream(graph_seed: u64, churn_seed: u64) -> ChurnStream {
    let mut cfg = VerifiedNetConfig::small();
    cfg.nodes = 500;
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let net = VerifiedNetwork::generate(&cfg, &mut rng);
    ChurnStream::from_network(&net, ChurnConfig { seed: churn_seed, ..ChurnConfig::default() })
}

#[test]
fn resume_from_checkpoint_replays_identically_to_restart() {
    let mut live = stream(0xA11CE, 31);
    let mut checkpoint = None;
    for _ in 0..4 {
        live.next_day();
    }
    checkpoint.replace(live.checkpoint());
    for _ in 0..6 {
        live.next_day();
    }

    // Path A: resume the day-4 checkpoint and replay 6 more days.
    let mut resumed = ChurnStream::resume(&checkpoint.unwrap()).expect("resume checkpoint");
    assert_eq!(resumed.day(), 4);
    for _ in 0..6 {
        resumed.next_day();
    }

    // Path B: a fresh stream replayed from day 0.
    let mut restarted = stream(0xA11CE, 31);
    for _ in 0..10 {
        restarted.next_day();
    }

    for (label, other) in [("resumed", &resumed), ("restarted", &restarted)] {
        assert_eq!(live.day(), other.day(), "{label}: day drifted");
        assert_eq!(live.edge_count(), other.edge_count(), "{label}: edge count drifted");
        assert_eq!(
            live.snapshot_graph(),
            other.snapshot_graph(),
            "{label}: day-10 graph is not identical"
        );
    }
}

#[test]
fn incremental_analyses_match_scratch_at_pinned_horizons() {
    // Days 1, 7 and 30 pin the three regimes: a single delta batch, one
    // compaction boundary, and a long chain of compactions + warm
    // PageRank restarts. One 30-day engine run covers all three.
    let config = EngineConfig::default();
    let ctx = AnalysisCtx::quiet();
    let mut engine = TemporalEngine::new(stream(0xBEE, 7), config, &ctx);
    for _ in 0..30 {
        engine.advance_day(&ctx);
    }
    let scratch = scratch_replay(stream(0xBEE, 7), config, 30, &ctx);
    assert_eq!(engine.reports().len(), 31);
    assert_eq!(scratch.len(), 31);
    for day in [1usize, 7, 30] {
        let inc = &engine.reports()[day];
        let scr = &scratch[day];
        assert_eq!(
            inc.canonical(),
            scr.canonical(),
            "day {day}: incremental report diverged from scratch recompute"
        );
        assert_eq!(inc.fingerprint(), scr.fingerprint(), "day {day}: fingerprint drift");
    }
}

#[test]
fn day_reports_are_bit_identical_at_any_thread_count() {
    let config = EngineConfig::default();
    let serial = {
        let ctx = AnalysisCtx::quiet();
        let mut engine = TemporalEngine::new(stream(0xD06, 13), config, &ctx);
        for _ in 0..8 {
            engine.advance_day(&ctx);
        }
        engine.reports().to_vec()
    };
    for threads in [2usize, 5] {
        let ctx = AnalysisCtx::with_threads(threads);
        let mut engine = TemporalEngine::new(stream(0xD06, 13), config, &ctx);
        for _ in 0..8 {
            engine.advance_day(&ctx);
        }
        assert_eq!(
            engine.reports(),
            serial.as_slice(),
            "{threads} threads changed a day report bit"
        );
    }
}

#[test]
fn timeline_as_of_equals_engine_state_at_every_day() {
    let ctx = AnalysisCtx::quiet();
    let config = EngineConfig { compact_every: 3, refit_every: 2, pagerank: None };
    let timeline = Timeline::build(stream(0xCAB, 5), config, 9, 4, &ctx);
    let mut engine = TemporalEngine::new(stream(0xCAB, 5), config, &ctx);
    for day in 0..=9u32 {
        let from_timeline = timeline.graph_as_of(day).expect("day within horizon");
        assert_eq!(
            from_timeline,
            engine.snapshot_graph(),
            "timeline day {day} diverged from the engine's live graph"
        );
        if day < 9 {
            engine.advance_day(&ctx);
        }
    }
    assert!(timeline.graph_as_of(10).is_err(), "beyond-horizon day must refuse");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Property form of the incremental-vs-scratch identity: any churn
    /// seed and any horizon up to a week produce byte-identical day
    /// reports from the warm engine and the from-scratch replayer.
    #[test]
    fn incremental_equals_scratch_for_any_seed(churn_seed in 0u64..1024, days in 1u32..=7) {
        let config = EngineConfig { compact_every: 2, refit_every: 3, pagerank: None };
        let ctx = AnalysisCtx::quiet();
        let mut engine = TemporalEngine::new(stream(0x5EED, churn_seed), config, &ctx);
        for _ in 0..days {
            engine.advance_day(&ctx);
        }
        let scratch = scratch_replay(stream(0x5EED, churn_seed), config, days, &ctx);
        proptest::prop_assert_eq!(engine.reports(), scratch.as_slice());
    }
}
