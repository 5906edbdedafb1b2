//! Scenario-matrix differential tests: seeded fault injection must be a
//! pure function of `(run seed, scenario seed, schedule)` — invisible to
//! the execution layout. A fixed schedule runs at shard counts
//! derived/1/2/4 × worker counts 1/2/8 and the outputs, bit-identical [`RunMetrics`], and
//! RAW event streams (fault and churn narration included) are held equal
//! to the 1-shard/1-worker baseline — and that baseline to the
//! **reference interpreter**, which applies the same schedule with a
//! fault pass and churn rules of its own: outputs, metrics, the raw fault
//! and churn counters and the semantic event stream must agree. The
//! suite also pins the two identity contracts: an empty schedule is
//! bit-identical to a scenario-free run, and a scheduled crash-stop is
//! transcript-identical to the same node dying voluntarily in the same
//! round.

mod common;

use common::{assert_matches_reference, on_both_engines, FanIn, Gossip};
use dgr_ncc::{
    tags, CapacityPolicy, Config, EngineKind, EngineStats, Network, NodeProtocol, NodeSeed,
    Recording, RoundCtx, RunEvent, RunResult, Scenario, SimError, Status, WireMsg,
};

/// The scenario counters of a run, as the event stream folded them.
fn fault_counters(stats: &EngineStats) -> [u64; 6] {
    [
        stats.faults_dropped,
        stats.faults_duplicated,
        stats.faults_reordered,
        stats.crashes,
        stats.recoveries,
        stats.joins,
    ]
}

/// Holds a batched scenario run to the reference interpreter under the
/// same schedule: everything `assert_matches_reference` compares, plus
/// the raw fault and churn counters.
fn assert_scenario_matches_reference<P, F>(
    n: usize,
    config: &Config,
    batched: &RunResult<u64>,
    batched_events: &[RunEvent],
    factory: F,
) where
    P: NodeProtocol<Output = u64>,
    F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
{
    let reference = assert_matches_reference(
        &Network::new(n, config.clone()),
        batched,
        batched_events,
        factory,
        &format!("scenario n={n}"),
    );
    assert_eq!(
        fault_counters(&batched.engine),
        fault_counters(&reference.engine),
        "fault and churn counters diverge from the reference interpreter (n={n})"
    );
}

/// `0` = the derived count (the default).
const SHARDS: [usize; 3] = [0, 2, 4];
const WORKERS: [usize; 3] = [1, 2, 8];

/// Runs the batched engine once per (shards × workers) cell under the
/// given scenario and asserts outputs, metrics, and the raw event stream
/// are bit-identical to the unsharded single-worker baseline.
fn assert_scenario_matrix<P, F>(
    n: usize,
    config: &Config,
    scenario: &Scenario,
    factory: F,
) -> (RunResult<u64>, Vec<RunEvent>)
where
    P: NodeProtocol<Output = u64>,
    F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
{
    let run = |shards: usize, workers: usize| {
        let net = Network::new(
            n,
            config
                .clone()
                .with_shards(shards)
                .with_worker_threads(workers)
                .with_scenario(scenario.clone()),
        );
        let mut events = Recording::new();
        let result: RunResult<u64> = net
            .run_protocol_on(EngineKind::Batched, None, Some(&mut events), &factory)
            .unwrap();
        (result, events.events().to_vec())
    };
    let (result_1, events_1) = run(1, 1);
    // The oracle column: every cell equals the baseline, the baseline
    // equals the reference interpreter.
    assert_scenario_matches_reference(
        n,
        &config.clone().with_scenario(scenario.clone()),
        &result_1,
        &events_1,
        &factory,
    );
    for shards in SHARDS {
        for workers in WORKERS {
            let (result_s, events_s) = run(shards, workers);
            assert_eq!(
                result_1.outputs, result_s.outputs,
                "transcripts diverge at {shards} shards × {workers} workers (n={n})"
            );
            assert_eq!(
                result_1.metrics, result_s.metrics,
                "metrics diverge at {shards} shards × {workers} workers (n={n})"
            );
            assert_eq!(
                events_1, events_s,
                "raw event streams diverge at {shards} shards × {workers} workers (n={n})"
            );
        }
    }
    (result_1, events_1)
}

#[test]
fn scenario_matrix_full_schedule_queue_tracked() {
    // Every fault family at once, under the policy that makes delivery
    // order observable (FIFO backlog) and with KT0 tracking folding the
    // delivered envelopes into per-node knowledge: drop and duplicate
    // windows overlap, a reorder window permutes fresh prefixes, two
    // nodes crash (one recovers), and one node joins late.
    let mut config = Config::ncc0(91);
    config.capacity_policy = CapacityPolicy::Queue;
    let scenario = Scenario::new(4242)
        .drop_messages(2..=9, 0.02)
        .duplicate_messages(4..=12, 0.01)
        .reorder(3..=10)
        .crash(17, 6)
        .crash_recover(23, 4, 8)
        .join(41, 5);
    let (result, events) =
        assert_scenario_matrix(4_000, &config, &scenario, |s| Gossip::new(s, 14, 0, 3));

    // The schedule actually fired, and the narration reached the stats.
    let stats = &result.engine;
    assert!(stats.faults_dropped > 0, "drop window never fired");
    assert!(stats.faults_duplicated > 0, "duplicate window never fired");
    assert!(stats.faults_reordered > 0, "reorder window never fired");
    assert_eq!(stats.crashes, 2, "crash-stop + crash-pause narration");
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.joins, 1);
    let narrated: u64 = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::FaultInjected { dropped, .. } => Some(*dropped),
            _ => None,
        })
        .sum();
    assert_eq!(narrated, stats.faults_dropped);
    // The crash-stopped node produces no output; everyone else retires
    // normally (the run completes under fire — Gossip is lifetime-driven
    // and tolerates lost traffic).
    assert_eq!(result.outputs.len(), 3_999);
}

/// One fault family per row, each through the whole workers × shards
/// matrix and against the oracle — so a disagreement names the family.
#[test]
fn scenario_matrix_one_fault_family_per_row() {
    let mut config = Config::ncc0(98);
    config.capacity_policy = CapacityPolicy::Queue;
    let rows = [
        ("drop", Scenario::new(11).drop_messages(1..=8, 0.05)),
        (
            "duplicate",
            Scenario::new(12).duplicate_messages(0..=9, 0.05),
        ),
        ("reorder", Scenario::new(13).reorder(2..=7)),
        ("crash-stop", Scenario::new(14).crash(5, 3).crash(900, 7)),
        (
            "crash-recover",
            Scenario::new(15)
                .crash_recover(8, 2, 6)
                .crash_recover(1_200, 4, 5),
        ),
        ("join", Scenario::new(16).join(3, 4).join(700, 9)),
    ];
    for (family, scenario) in rows {
        let (result, _) =
            assert_scenario_matrix(2_500, &config, &scenario, |s| Gossip::new(s, 12, 0, 3));
        let fired: u64 = fault_counters(&result.engine).iter().sum();
        assert!(fired > 0, "{family} schedule never fired");
    }
}

/// Queues that carry backlog for rounds on end, under fire — one row
/// each, through the whole matrix and against the oracle: message faults
/// landing behind a backlog (a reorder permutes only the fresh bucket), a
/// crash-pause of a backlogged node that recovers and reads its FIFO on
/// from where it stopped, and a crash-stop of one whose backlog the dead
/// drain empties into the undelivered count.
#[test]
fn scenario_matrix_fan_in_backlog_under_faults_and_churn() {
    let (n, burst) = (600, 6);
    let config = Config::ncc0(94).with_queueing();
    let cap = config.capacity(n);
    // The interior positions both predecessors pick: local ID minima.
    let ids = Network::new(n, config.clone()).ids_in_path_order().to_vec();
    let hot: Vec<usize> = (2..n - 1)
        .filter(|&p| ids[p] < ids[p - 1] && ids[p] < ids[p + 1])
        .collect();
    let rows = [
        (
            "drop + duplicate + reorder",
            Scenario::new(31)
                .drop_messages(2..=12, 0.05)
                .duplicate_messages(3..=10, 0.05)
                .reorder(2..=14),
        ),
        ("crash-pause", Scenario::new(32).crash_recover(hot[0], 4, 9)),
        ("crash-stop", Scenario::new(33).crash(hot[1], 5)),
    ];
    for (family, scenario) in rows {
        let (result, _) = assert_scenario_matrix(n, &config, &scenario, |s| FanIn::new(s, burst));
        let (metrics, stats) = (&result.metrics, &result.engine);
        assert!(
            metrics.max_queue_len >= 2 * cap,
            "{family}: backlog outlives a round"
        );
        match family {
            "crash-pause" => assert_eq!((stats.crashes, stats.recoveries), (1, 1)),
            "crash-stop" => assert!(metrics.undelivered > 0, "the dead drain counts"),
            _ => {
                assert!(stats.faults_dropped * stats.faults_duplicated * stats.faults_reordered > 0)
            }
        }
    }
}

/// A message's fate is a function of the message alone: two runs with
/// the same seeds that differ only by traffic between other nodes — here
/// all of it on destinations a destination-ordered walk would reach
/// first — drop and duplicate exactly the same messages of a fixed
/// sender → receiver stream, on both engines.
#[test]
fn a_stream_keeps_its_faults_whatever_else_is_sent() {
    let (n, rounds, per_round) = (64, 30u64, 3u64);
    let (sender, receiver) = (40, 41);
    let scenario = Scenario::new(21)
        .drop_messages(0..=u64::MAX, 0.2)
        .duplicate_messages(0..=u64::MAX, 0.2);
    let net = Network::new(n, Config::ncc0(8).with_scenario(scenario));
    let ids = net.ids_in_path_order().to_vec();
    let received = |noisy: bool| {
        let ids = ids.clone();
        let result = on_both_engines(&net, move |seed| {
            let position = ids.iter().position(|&id| id == seed.id).unwrap();
            let (succ, mut got) = (seed.initial_successor, Vec::new());
            move |ctx: &mut RoundCtx<'_>| {
                let round = ctx.round();
                got.extend(ctx.inbox().iter().map(|env| env.word()));
                if round == rounds {
                    return Status::Done(std::mem::take(&mut got));
                }
                if position == sender || (noisy && position < sender) {
                    for k in 0..per_round {
                        let msg = WireMsg::word(tags::GENERIC, round * per_round + k);
                        ctx.send(succ.unwrap(), msg);
                    }
                }
                Status::Continue
            }
        })
        .unwrap();
        let stats = &result.engine;
        assert!(stats.faults_dropped > 0 && stats.faults_duplicated > 0);
        result.outputs[receiver].1.clone()
    };
    let (quiet, noisy) = (received(false), received(true));
    assert_eq!(quiet, noisy, "extra traffic moved the stream's faults");
    let sent = (rounds * per_round) as usize;
    assert_ne!(quiet.len(), sent, "the stream met no fault");
    let unique: std::collections::BTreeSet<u64> = quiet.iter().copied().collect();
    assert!(
        unique.len() < sent && unique.len() < quiet.len(),
        "a drop and a duplicate"
    );
}

#[test]
fn empty_schedule_is_bit_identical_to_scenario_free() {
    let mut config = Config::ncc0(92);
    config.capacity_policy = CapacityPolicy::Queue;
    let run = |scenario: Option<Scenario>| {
        let mut c = config.clone();
        if let Some(s) = scenario {
            c = c.with_scenario(s);
        }
        let net = Network::new(2_000, c);
        let mut events = Recording::new();
        let result: RunResult<u64> = net
            .run_protocol_on(EngineKind::Batched, None, Some(&mut events), |s| {
                Gossip::new(s, 10, 6, 3)
            })
            .unwrap();
        (result, events.events().to_vec())
    };
    let (base_result, base_events) = run(None);
    let (empty_result, empty_events) = run(Some(Scenario::new(777)));
    assert_eq!(base_result.outputs, empty_result.outputs);
    assert_eq!(base_result.metrics, empty_result.metrics);
    assert_eq!(base_events, empty_events, "empty schedule must be inert");

    // Same for a schedule whose windows can never fire: quiet rounds
    // consume no randomness and never touch the arena.
    let (far_result, far_events) = run(Some(
        Scenario::new(778).drop_messages(1_000_000..=u64::MAX, 0.5),
    ));
    assert_eq!(base_result.outputs, far_result.outputs);
    assert_eq!(base_result.metrics, far_result.metrics);
    assert_eq!(
        base_events, far_events,
        "never-firing windows must be inert"
    );
}

#[test]
fn crash_stop_matches_the_voluntary_death_transcript() {
    // Run A: every node dies voluntarily at its staggered lifetime.
    // Run B: immortal protocols, and a schedule that crash-stops each
    // node at exactly the round its twin would have retired. The wire
    // footprint of a crash is designed to be *exactly* a voluntary
    // `Done` (the node steps in its final round, its staged sends are
    // discarded, senders see DeadRecipient from the same round on) — so
    // events (minus the NodeCrashed narration) and metrics must match
    // bit for bit; only the outputs differ (a crashed node never gets
    // to return one).
    let n = 1_500;
    let (base, stagger, fan) = (8u64, 6u64, 2usize);
    let mut config = Config::ncc0(93);
    config.capacity_policy = CapacityPolicy::Queue;

    let net = Network::new(n, config.clone());
    let mut voluntary_events = Recording::new();
    let voluntary: RunResult<u64> = net
        .run_protocol_on(
            EngineKind::Batched,
            None,
            Some(&mut voluntary_events),
            |s| Gossip::new(s, base, stagger, fan),
        )
        .unwrap();

    let mut scenario = Scenario::new(0);
    for (pos, &id) in net.ids_in_path_order().iter().enumerate() {
        scenario = scenario.crash(pos, base + id % stagger);
    }
    let crash_config = config.with_scenario(scenario);
    let net = Network::new(n, crash_config.clone());
    let mut crashed_events = Recording::new();
    let crashed: RunResult<u64> = net
        .run_protocol_on(EngineKind::Batched, None, Some(&mut crashed_events), |s| {
            Gossip::new(s, u64::MAX, 0, fan)
        })
        .unwrap();

    assert_eq!(voluntary.metrics, crashed.metrics);
    let without_churn: Vec<RunEvent> = crashed_events
        .events()
        .iter()
        .filter(|e| !matches!(e, RunEvent::NodeCrashed { .. }))
        .cloned()
        .collect();
    assert_eq!(
        voluntary_events.events(),
        &without_churn[..],
        "crash-stop must be wire-identical to voluntary death"
    );
    assert_eq!(voluntary.outputs.len(), n);
    assert!(crashed.outputs.is_empty());
    assert_eq!(crashed.engine.crashes, n as u64);
    // The same identity on the oracle's own crash rule.
    assert_scenario_matches_reference(n, &crash_config, &crashed, &crashed_events.events(), |s| {
        Gossip::new(s, u64::MAX, 0, fan)
    });
}

#[test]
fn invalid_schedules_are_rejected_before_setup_by_both_engines() {
    let rejection = |config: Config, engine: EngineKind| {
        let net = Network::new(64, config);
        match net.run_protocol_on(engine, None, None, |s| Gossip::new(s, 5, 0, 1)) {
            Err(SimError::InvalidScenario(why)) => why,
            other => panic!(
                "expected InvalidScenario from {engine:?}, got {:?}",
                other.map(|r| r.metrics.rounds)
            ),
        }
    };
    for engine in [EngineKind::Batched, EngineKind::Reference] {
        // Reorder without a FIFO queue to permute.
        let config = Config::ncc0(95).with_scenario(Scenario::new(1).reorder(0..=5));
        let why = rejection(config, engine);
        assert!(why.contains("CapacityPolicy::Queue"), "message: {why}");
        // Node outside the network.
        let config = Config::ncc0(96).with_scenario(Scenario::new(1).crash(64, 3));
        let why = rejection(config, engine);
        assert!(why.contains("not a participant"), "message: {why}");
    }
}

/// The certified-under-drops contract: a lossy network degrades the
/// transcript, never the engine. The run completes, every surviving node
/// retires with an output, and the post-fault accounting balances — the
/// per-round delivered counts the engine narrates equal the sealed
/// volume minus drops plus duplicates, which the stats counters must
/// reproduce exactly.
#[test]
fn gossip_certifies_under_one_percent_drop() {
    let mut config = Config::ncc0(97);
    config.capacity_policy = CapacityPolicy::Queue;
    let scenario = Scenario::new(29)
        .drop_messages(0..=u64::MAX, 0.01)
        .duplicate_messages(0..=u64::MAX, 0.005);
    let drop_config = config.with_scenario(scenario);
    let net = Network::new(4_000, drop_config.clone());
    let mut events = Recording::new();
    let result: RunResult<u64> = net
        .run_protocol_on(EngineKind::Batched, None, Some(&mut events), |s| {
            Gossip::new(s, 12, 5, 3)
        })
        .unwrap();
    assert_eq!(result.outputs.len(), 4_000, "every node must still retire");
    let stats = &result.engine;
    assert!(stats.faults_dropped > 0);
    assert!(stats.faults_duplicated > 0);
    // Conservation: sum of narrated per-round deliveries == total
    // delivered messages in the metrics, fault adjustments included.
    let narrated: u64 = events
        .events()
        .iter()
        .filter_map(|e| match e {
            RunEvent::RoundCompleted { delivered, .. } => Some(*delivered),
            _ => None,
        })
        .sum();
    assert_eq!(narrated, result.metrics.messages);
    assert_scenario_matches_reference(4_000, &drop_config, &result, &events.events(), |s| {
        Gossip::new(s, 12, 5, 3)
    });
}
