//! Live-slot compaction: a staggered-death long-tail run must (a) keep
//! transcripts and metrics bit-identical to the uncompacted oracles —
//! compaction is a memory-layout decision, not a semantic one — and (b)
//! actually compact, with a monotonically shrinking live-slot count
//! across compactions (the halving rule guarantees strict decrease).

mod common;

use common::Gossip;
use dgr_ncc::event::semantic_stream;
use dgr_ncc::{CapacityPolicy, Config, EngineKind, Network, Recording, RunEvent, RunResult};

/// A long-tailed population: lifetimes staggered over [3, 3 + n) rounds,
/// so the live count decays roughly linearly while a few nodes survive
/// far past the median — the workload slot compaction exists for.
fn long_tail_run(workers: usize, queue: bool) -> RunResult<u64> {
    let (result, _) = long_tail_observed(EngineKind::Batched, workers, queue);
    result
}

/// The same run with its event stream recorded, on either engine.
fn long_tail_observed(
    engine: EngineKind,
    workers: usize,
    queue: bool,
) -> (RunResult<u64>, Recording) {
    let mut config = Config::ncc0(2026).with_worker_threads(workers);
    config.capacity_policy = if queue {
        CapacityPolicy::Queue
    } else {
        CapacityPolicy::Record
    };
    let net = Network::new(192, config);
    let mut events = Recording::new();
    let result = net
        .run_protocol_on(engine, None, Some(&mut events), |s| {
            Gossip::new(s, 3, 192, 2)
        })
        .unwrap();
    (result, events)
}

#[test]
fn long_tail_compacts_with_monotonically_shrinking_live_count() {
    let result = long_tail_run(1, false);
    let stats = &result.engine;
    assert!(
        stats.compactions >= 2,
        "staggered-death run should compact repeatedly, got {}",
        stats.compactions
    );
    assert_eq!(stats.compaction_live.len(), stats.compactions as usize);
    // The halving rule: each compaction fires only once the live
    // population has at least halved since the previous one (which also
    // implies the counts are strictly decreasing).
    for pair in stats.compaction_live.windows(2) {
        assert!(
            pair[1] * 2 <= pair[0],
            "halving rule violated: {:?}",
            stats.compaction_live
        );
    }
    assert!(*stats.compaction_live.first().unwrap() <= 192 / 2);
}

#[test]
fn compaction_is_transcript_invariant_across_worker_counts() {
    let (outputs_1, metrics_1) = {
        let r = long_tail_run(1, false);
        (r.outputs, r.metrics)
    };
    for workers in [2, 3, 5, 8] {
        let r = long_tail_run(workers, false);
        assert_eq!(outputs_1, r.outputs, "outputs diverge at {workers} workers");
        assert_eq!(metrics_1, r.metrics, "metrics diverge at {workers} workers");
        assert!(r.engine.compactions >= 2);
    }
}

/// Queue policy: retiring nodes leave backlog behind; the compacted
/// engine must keep draining those queues (undelivered accounting,
/// max-queue/max-received metrics) exactly as if the slots still existed.
#[test]
fn queued_long_tail_compacts_and_matches_the_reference() {
    let batched = long_tail_run(1, true);
    assert!(
        batched.engine.compactions >= 2,
        "queued long tail should compact, got {}",
        batched.engine.compactions
    );
    let (reference, _) = long_tail_observed(EngineKind::Reference, 1, true);
    assert_eq!(batched.outputs, reference.outputs, "transcripts diverge");
    assert_eq!(batched.metrics, reference.metrics, "metrics diverge");
    // The oracle never compacts; the field must stay engine-specific.
    assert_eq!(reference.engine.compactions, 0);
}

#[test]
fn record_long_tail_matches_the_reference() {
    let batched = long_tail_run(1, false);
    let (reference, _) = long_tail_observed(EngineKind::Reference, 1, false);
    assert_eq!(batched.outputs, reference.outputs, "transcripts diverge");
    assert_eq!(batched.metrics, reference.metrics, "metrics diverge");
}

/// A gossip round at n=192 never clears the dense-round threshold, so
/// every round of this run is narrated sparse whatever the pool size.
#[test]
fn sparse_rounds_route_inline_even_with_workers() {
    let result = long_tail_run(4, false);
    assert_eq!(
        result.engine.parallel_route_rounds, 0,
        "a 192-node gossip round is never dense"
    );
    assert!(result.engine.inline_route_rounds > 0);
}

/// The event stream of a compacting run is bit-identical across worker
/// counts, and its `Compaction` events are exactly what `EngineStats`
/// reports — the stats are a pure stream derivation, so they cannot
/// drift from the narrated compactions.
#[test]
fn event_stream_is_identical_across_worker_counts_and_narrates_compactions() {
    let (result_1, events_1) = long_tail_observed(EngineKind::Batched, 1, false);
    let events_1 = events_1.events();
    let compactions: Vec<(u64, usize)> = events_1
        .iter()
        .filter_map(|e| match e {
            RunEvent::Compaction { round, live } => Some((*round, *live)),
            _ => None,
        })
        .collect();
    assert!(
        compactions.len() >= 2,
        "long tail should compact repeatedly"
    );
    assert_eq!(compactions.len() as u64, result_1.engine.compactions);
    assert_eq!(
        compactions
            .iter()
            .map(|&(_, live)| live)
            .collect::<Vec<_>>(),
        result_1.engine.compaction_live
    );
    // Every round is narrated, in order, ending with Done.
    let rounds: Vec<u64> = events_1
        .iter()
        .filter_map(|e| match e {
            RunEvent::RoundCompleted { round, .. } => Some(*round),
            _ => None,
        })
        .collect();
    assert_eq!(rounds, (0..result_1.metrics.rounds).collect::<Vec<_>>());
    assert!(matches!(events_1.last(), Some(RunEvent::Done { .. })));
    for workers in [2, 3, 5, 8] {
        let (_, events_w) = long_tail_observed(EngineKind::Batched, workers, false);
        assert_eq!(
            events_1,
            events_w.events(),
            "event stream diverges at {workers} workers"
        );
    }
}

/// Batched (compacting) vs reference (never compacting): the semantic
/// projections of the streams must agree exactly — compaction is a
/// memory-layout narration, not a semantic event — under both the
/// record and queue policies.
#[test]
fn event_streams_semantically_identical_across_engines_with_and_without_compaction() {
    for queue in [false, true] {
        let (batched, batched_events) = long_tail_observed(EngineKind::Batched, 1, queue);
        let (reference, reference_events) = long_tail_observed(EngineKind::Reference, 1, queue);
        assert!(batched.engine.compactions >= 2, "run must compact");
        assert_eq!(reference.engine.compactions, 0, "oracle never compacts");
        let batched_events = batched_events.events();
        assert!(
            batched_events
                .iter()
                .any(|e| matches!(e, RunEvent::Compaction { .. })),
            "batched stream must narrate its compactions"
        );
        assert!(
            !reference_events
                .events()
                .iter()
                .any(|e| matches!(e, RunEvent::Compaction { .. })),
            "reference stream must not invent compactions"
        );
        assert_eq!(
            semantic_stream(&batched_events),
            semantic_stream(&reference_events.events()),
            "semantic streams diverge (queue={queue})"
        );
    }
}
