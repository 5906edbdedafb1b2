//! Chaos quickstart: the NCC₀ warm-up running under a seeded 1% message
//! drop, with the fault narration streaming to stderr.
//!
//! ```sh
//! cargo run --release --example chaos
//! ```
//!
//! A [`Scenario`] is a pre-compiled fault schedule the engine applies
//! between seal and delivery: here, every sealed message has a 1% chance
//! of being silently discarded (decided by a hash of the scenario seed,
//! the round and the message's identity, so the same seed always drops
//! the same messages — at any worker or shard count). The warm-up floods knowledge along the
//! path, so lost envelopes thin the traffic without stalling anyone: the
//! run completes in the same number of rounds, narrating each round's
//! injected faults through the [`ProgressSink`], and the engine's fault
//! counters reconcile exactly with what the narration reported.

use distributed_graph_realizations::ncc::{Config, EngineKind, Network, ProgressSink, Scenario};
use distributed_graph_realizations::primitives::PathToClique;

fn main() {
    let n = 20_000;
    let scenario = Scenario::new(2020).drop_messages(0..=u64::MAX, 0.01);

    println!("warm-up on {n} nodes, dropping 1% of all sealed traffic:\n");
    let net = Network::new(n, Config::ncc0(42).with_scenario(scenario));
    let mut sink = ProgressSink::stderr(0);
    let result = net
        .run_protocol_on(
            EngineKind::Batched,
            None,
            Some(&mut sink),
            PathToClique::new,
        )
        .expect("the warm-up completes under drops — faults degrade traffic, not the engine");

    let stats = &result.engine;
    println!(
        "\ncompleted: {} rounds, {} messages delivered, {} dropped on the wire",
        result.metrics.rounds, result.metrics.messages, stats.faults_dropped
    );
    assert_eq!(result.outputs.len(), n, "every node still retires");
    assert!(stats.faults_dropped > 0, "the schedule fired");

    // Re-running the identical (run seed, scenario seed) pair replays the
    // identical faults: determinism holds under fire.
    let net = Network::new(
        n,
        Config::ncc0(42).with_scenario(Scenario::new(2020).drop_messages(0..=u64::MAX, 0.01)),
    );
    let replay = net.run_protocol(PathToClique::new).expect("replay");
    assert_eq!(replay.engine.faults_dropped, stats.faults_dropped);
    assert_eq!(replay.metrics, result.metrics);
    println!(
        "replay with the same seeds dropped the same {} messages",
        stats.faults_dropped
    );
}
