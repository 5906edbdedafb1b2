//! Determinism of the batched executor: a run is a pure function of
//! `(n, Config)` — the worker-thread count must not influence transcripts,
//! outputs or metrics, and replays must be bit-identical.

mod common;

use common::Gossip;
use dgr_ncc::{CapacityPolicy, Config, Network};

fn run_with_workers(workers: usize) -> (Vec<(u64, u64)>, dgr_ncc::RunMetrics) {
    let mut config = Config::ncc0(404).with_worker_threads(workers);
    config.capacity_policy = CapacityPolicy::Record;
    let net = Network::new(96, config);
    let result = net.run_protocol(|s| Gossip::new(s, 10, 6, 2)).unwrap();
    (result.outputs, result.metrics)
}

#[test]
fn worker_count_does_not_change_the_transcript() {
    let (outputs_1, metrics_1) = run_with_workers(1);
    for workers in [2, 3, 4, 8] {
        let (outputs_w, metrics_w) = run_with_workers(workers);
        assert_eq!(outputs_1, outputs_w, "outputs diverge at {workers} workers");
        assert_eq!(metrics_1, metrics_w, "metrics diverge at {workers} workers");
    }
}

#[test]
fn replays_are_bit_identical() {
    let (outputs_a, metrics_a) = run_with_workers(0);
    let (outputs_b, metrics_b) = run_with_workers(0);
    assert_eq!(outputs_a, outputs_b);
    assert_eq!(metrics_a, metrics_b);
}

/// Dense traffic past the dense-round threshold, on the default layout
/// (one inline shard at this size) and with one shard per worker running
/// side by side: the single-worker transcript must come out bit-for-bit,
/// and the dense/sparse narration must not notice the layout.
#[test]
fn dense_rounds_route_parallel_and_stay_deterministic() {
    let run = |workers: usize, shards: usize| {
        let mut config = Config::ncc0(808)
            .with_worker_threads(workers)
            .with_shards(shards);
        config.capacity_policy = CapacityPolicy::Record;
        let net = Network::new(768, config);
        let result = net.run_protocol(|s| Gossip::new(s, 12, 5, 6)).unwrap();
        (result.outputs, result.metrics, result.engine)
    };
    let (outputs_1, metrics_1, engine_1) = run(1, 0);
    // The dense/sparse classification is a pure function of the
    // transcript, so the single-worker run narrates its dense rounds too.
    assert!(
        engine_1.parallel_route_rounds > 0,
        "768 nodes x fan-out 6 must clear the dense-round threshold"
    );
    for workers in [2, 4, 7] {
        for shards in [0, workers] {
            let (outputs_w, metrics_w, engine_w) = run(workers, shards);
            assert_eq!(outputs_1, outputs_w, "outputs diverge at {workers} workers");
            assert_eq!(metrics_1, metrics_w, "metrics diverge at {workers} workers");
            assert_eq!(engine_w.shards, shards.max(1));
            assert_eq!(
                engine_w.parallel_route_rounds, engine_1.parallel_route_rounds,
                "classification must be layout-invariant at {workers} workers"
            );
            // Round 0 has no previous-volume signal and stays inline.
            assert!(engine_w.inline_route_rounds > 0);
        }
    }
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let mut config = Config::ncc0(seed);
        config.capacity_policy = CapacityPolicy::Record;
        let net = Network::new(64, config);
        net.run_protocol(|s| Gossip::new(s, 10, 0, 2))
            .unwrap()
            .outputs
    };
    assert_ne!(run(1), run(2), "seeds must drive distinct transcripts");
}
