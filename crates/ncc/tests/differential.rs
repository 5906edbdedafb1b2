//! Differential tests: the batched executor and the reference
//! interpreter must be observationally identical — same per-round deliveries (captured as
//! per-node transcript hashes over every received envelope), same
//! outputs, and bit-identical [`RunMetrics`] — across models, capacity
//! policies, ID assignments and staggered node lifetimes.
mod common;

use common::{assert_matches_reference, derived_shards, FanIn, Gossip};
use dgr_ncc::{
    CapacityPolicy, Config, EngineKind, Network, NodeProtocol, NodeSeed, Recording, RunMetrics,
    RunResult, SimError,
};

/// Runs the same gossip configuration on both engines and asserts full
/// observational equality — transcripts, metrics, and the semantic
/// projection of the event streams.
fn assert_engines_agree(n: usize, config: Config, base: u64, stagger: u64, fan: usize) {
    let net = Network::new(n, config);
    let mut batched_events = Recording::new();
    let batched: RunResult<u64> = net
        .run_protocol_on(EngineKind::Batched, None, Some(&mut batched_events), |s| {
            Gossip::new(s, base, stagger, fan)
        })
        .unwrap();
    assert_matches_reference(
        &net,
        &batched,
        &batched_events.events(),
        |s| Gossip::new(s, base, stagger, fan),
        &format!("n={n}"),
    );
}

#[test]
fn uniform_lifetimes_strict_clean() {
    // Fan-out 1 to the successor chain only: strict-legal traffic.
    for seed in 0..4 {
        let mut config = Config::ncc0(seed);
        config.capacity_policy = CapacityPolicy::Record; // random targets may collide
        assert_engines_agree(48, config, 12, 0, 1);
    }
}

#[test]
fn staggered_lifetimes_record_policy() {
    // Nodes retire at different rounds; late sends to dead nodes must be
    // counted identically (DeadRecipient under Record).
    for seed in [7, 8, 9] {
        let mut config = Config::ncc0(seed);
        config.capacity_policy = CapacityPolicy::Record;
        assert_engines_agree(64, config, 6, 9, 2);
    }
}

#[test]
fn overloaded_fan_out_counts_violations_identically() {
    // Fan-out 6 with capacity 4-ish: send and receive capacity violations
    // fire; the two engines must count and sample them identically.
    let mut config = Config::ncc0(21);
    config.capacity_policy = CapacityPolicy::Record;
    config.capacity_factor = 0.5;
    config.min_capacity = 3;
    assert_engines_agree(40, config, 8, 5, 6);
}

#[test]
fn queue_policy_paces_identically() {
    let mut config = Config::ncc0(33);
    config.capacity_policy = CapacityPolicy::Queue;
    config.track_knowledge = false;
    assert_engines_agree(56, config, 10, 7, 3);
}

#[test]
fn an_untracked_run_folds_the_same_max_received() {
    // Untracked runs skip the learn sweep and fold the largest delivery in
    // `deliver`. Gossip and the fan-in only address IDs they have learned,
    // so turning the tracker off may move `max_knowledge` and nothing else.
    fn runs<P: NodeProtocol<Output = u64>>(
        config: Config,
        factory: impl Fn(&NodeSeed<'_>) -> P + Sync,
    ) -> [RunResult<u64>; 2] {
        [true, false].map(|tracked| {
            let mut config = config.clone();
            config.track_knowledge = tracked;
            Network::new(500, config).run_protocol(&factory).unwrap()
        })
    }
    let mut record = Config::ncc0(41);
    record.capacity_policy = CapacityPolicy::Record;
    let gossip = runs(record, |s| Gossip::new(s, 9, 4, 3));
    let fan_in = runs(Config::ncc0(42).with_queueing(), |s| FanIn::new(s, 4));
    for (what, [tracked, untracked]) in [("gossip", gossip), ("fan-in", fan_in)] {
        assert!(tracked.metrics.max_knowledge > 0, "{what}");
        assert!(untracked.metrics.max_received_per_round > 0, "{what}");
        assert_eq!(tracked.outputs, untracked.outputs, "{what}");
        let metrics = RunMetrics {
            max_knowledge: 0,
            ..tracked.metrics
        };
        assert_eq!(metrics, untracked.metrics, "{what}");
        assert_eq!(untracked.engine.learn_nanos, 0, "{what}: no learn sweep");
    }
}

#[test]
fn ncc1_and_sequential_ids_agree() {
    let mut config = Config::ncc1(5).with_sequential_ids();
    config.capacity_policy = CapacityPolicy::Record;
    assert_engines_agree(32, config, 9, 4, 2);
}

#[test]
fn strict_violations_abort_both_engines_identically() {
    // Heavy fan-in under Strict: both engines must abort with a
    // Violation (the specific violation record must match).
    let config = Config::ncc0(11).with_capacity_factor(0.5);
    let net = Network::new(48, config);
    let run_b = net.run_protocol(|s| Gossip::new(s, 10, 0, 6));
    let run_r = net.run_protocol_on(EngineKind::Reference, None, None, |s| {
        Gossip::new(s, 10, 0, 6)
    });
    match (run_b, run_r) {
        (Err(SimError::Violation(a)), Err(SimError::Violation(b))) => {
            assert_eq!(a, b, "engines blame different violations");
        }
        (b, r) => panic!(
            "expected strict violations from both engines, got batched={:?} reference={:?}",
            b.map(|r| r.metrics.rounds),
            r.map(|r| r.metrics.rounds),
        ),
    }
}

/// Runs the batched engine once per worker count and asserts outputs,
/// metrics, and the RAW event stream — `route_mode` narration included,
/// no semantic projection — are bit-identical. This is the worker-count
/// half of the differential story: at these sizes the default layout
/// gives every worker its own shard, and running the shards side by side
/// must be unobservable except through wall clock.
fn assert_worker_matrix(n: usize, config: &Config, base: u64, stagger: u64, fan: usize) {
    let run = |workers: usize| {
        let net = Network::new(n, config.clone().with_worker_threads(workers));
        let mut events = Recording::new();
        let result: RunResult<u64> = net
            .run_protocol_on(EngineKind::Batched, None, Some(&mut events), |s| {
                Gossip::new(s, base, stagger, fan)
            })
            .unwrap();
        (result, events.events().to_vec())
    };
    let (result_1, events_1) = run(1);
    // Every cell is held to the one-worker run, and that run to the oracle.
    assert_matches_reference(
        &Network::new(n, config.clone()),
        &result_1,
        &events_1,
        |s| Gossip::new(s, base, stagger, fan),
        &format!("worker matrix n={n}"),
    );
    for workers in [2, 8] {
        let (result_w, events_w) = run(workers);
        assert_eq!(
            result_1.outputs, result_w.outputs,
            "transcripts diverge at {workers} workers (n={n})"
        );
        assert_eq!(
            result_1.metrics, result_w.metrics,
            "metrics diverge at {workers} workers (n={n})"
        );
        assert_eq!(
            events_1, events_w,
            "raw event streams diverge at {workers} workers (n={n})"
        );
        assert_eq!(
            result_1.engine.parallel_route_rounds, result_w.engine.parallel_route_rounds,
            "dense/sparse classification must be worker-count-invariant"
        );
        assert_eq!(
            result_w.engine.shards,
            derived_shards(n, workers),
            "default layout: one shard per worker once each owns MIN_SHARD_WIDTH nodes"
        );
        assert!(
            result_w.engine.shards > 1,
            "matrix sizes are chosen to engage the parallel layout (n={n})"
        );
    }
}

#[test]
fn worker_matrix_queue_mode_tracked() {
    // Queue pacing + knowledge tracking: per-shard delivery behind the
    // exchange splice must reproduce the one-shard FIFO contents
    // bit-for-bit.
    let mut config = Config::ncc0(71);
    config.capacity_policy = CapacityPolicy::Queue;
    assert_worker_matrix(6_000, &config, 10, 0, 3);
}

#[test]
fn worker_matrix_compacting_record_tracked() {
    // Staggered lifetimes drive live-slot compactions mid-run in every
    // shard; the compaction narration itself is part of the raw stream
    // being compared.
    let mut config = Config::ncc0(72);
    config.capacity_policy = CapacityPolicy::Record;
    assert_worker_matrix(6_000, &config, 8, 6, 3);
}

#[test]
fn worker_matrix_strict_kt0_clean() {
    // Strict KT0 over the successor chain: clean traffic, tracked, and the
    // per-shard capacity checks must find nothing at every pool size.
    let config = Config::ncc0(73);
    assert_worker_matrix(6_000, &config, 10, 0, 1);
}

#[test]
fn strict_abort_blames_the_same_violation_at_every_worker_count() {
    // Overloaded fan-in under Strict: each worker's shard journals its
    // violations in slot order and the journals replay in shard order (=
    // dense slot order), so the aborting violation must be the canonical
    // first one regardless of how the node space was partitioned.
    let run = |engine: EngineKind, workers: usize| {
        let config = Config::ncc0(74)
            .with_capacity_factor(0.5)
            .with_worker_threads(workers);
        let net = Network::new(6_000, config);
        match net.run_protocol_on(engine, None, None, |s| Gossip::new(s, 10, 0, 6)) {
            Err(SimError::Violation(v)) => v,
            other => panic!(
                "expected a strict violation, got {:?}",
                other.map(|r| r.metrics.rounds)
            ),
        }
    };
    let first = run(EngineKind::Reference, 1);
    for workers in [1, 2, 8] {
        assert_eq!(
            first,
            run(EngineKind::Batched, workers),
            "canonical first violation diverges at {workers} workers"
        );
    }
}

/// The ISSUE-scale matrix: 10^5 nodes through the same three configs.
/// Release-mode only (`--ignored`); the in-tree 6k matrix above covers
/// the same paths on every `cargo test`.
#[test]
#[ignore = "release-scale worker matrix; run with --ignored"]
fn worker_matrix_at_n_100k() {
    let mut queue = Config::ncc0(81);
    queue.capacity_policy = CapacityPolicy::Queue;
    assert_worker_matrix(100_000, &queue, 8, 0, 3);

    let mut compacting = Config::ncc0(82);
    compacting.capacity_policy = CapacityPolicy::Record;
    assert_worker_matrix(100_000, &compacting, 6, 5, 3);

    let strict = Config::ncc0(83);
    assert_worker_matrix(100_000, &strict, 8, 0, 1);
}
