//! Shard-matrix differential tests: the ownership-shard layout must be
//! unobservable except through [`EngineStats`]. Every configuration runs
//! at shard counts derived/2/4 × worker counts 1/2/8 and the RAW event
//! streams (route-mode narration included), outputs, and bit-identical
//! [`RunMetrics`] are held equal to the 1-shard/1-worker baseline — the
//! layout this suite, like the worker-matrix and oracle differential
//! suites (`differential.rs`), pins to the reference interpreter: every
//! cell equals the baseline, and the baseline equals the oracle.

mod common;

use common::{assert_matches_reference, derived_shards, FanIn, Gossip, Script};
use dgr_ncc::{
    CapacityPolicy, Config, EngineKind, Network, NodeSeed, Recording, RoundCtx, RunEvent,
    RunResult, Scenario, SimError, Status,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

/// `0` = the derived count (the default).
const SHARDS: [usize; 3] = [0, 2, 4];
const WORKERS: [usize; 3] = [1, 2, 8];

/// Runs the batched engine once per (shards × workers) cell and asserts
/// outputs, metrics, and the raw event stream are bit-identical to the
/// unsharded single-worker baseline.
fn assert_shard_matrix(n: usize, config: &Config, base: u64, stagger: u64, fan: usize) {
    let run = |shards: usize, workers: usize| {
        let net = Network::new(
            n,
            config
                .clone()
                .with_shards(shards)
                .with_worker_threads(workers),
        );
        let mut events = Recording::new();
        let result: RunResult<u64> = net
            .run_protocol_on(EngineKind::Batched, None, Some(&mut events), |s| {
                Gossip::new(s, base, stagger, fan)
            })
            .unwrap();
        (result, events.events().to_vec())
    };
    let (result_1, events_1) = run(1, 1);
    assert_eq!(result_1.engine.shards, 1, "baseline is one shard");
    assert_eq!(result_1.engine.shard_windows, vec![n]);
    assert_eq!(result_1.engine.cross_shard_messages, 0);
    assert_matches_reference(
        &Network::new(n, config.clone()),
        &result_1,
        &events_1,
        |s| Gossip::new(s, base, stagger, fan),
        &format!("shard matrix n={n}"),
    );
    // Memory is a function of the transcript and the shard count, never
    // of how many workers walked the shards.
    let mut footprints = BTreeMap::from([(1, result_1.engine.footprint)]);
    for shards in SHARDS {
        for workers in WORKERS {
            let (result_s, events_s) = run(shards, workers);
            let stats = &result_s.engine;
            let first = *footprints.entry(stats.shards).or_insert(stats.footprint);
            assert_eq!(
                first, stats.footprint,
                "footprint moves with the worker count at {shards} shards (n={n})"
            );
            assert!(first.slots > 0 && first.staging > 0 && first.route > 0);
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
            // The layout itself must be reported faithfully: the full
            // ownership map partitions the dense index space.
            let shards = match shards {
                0 => derived_shards(n, workers),
                explicit => explicit,
            };
            assert_eq!(result_s.engine.shards, shards);
            assert_eq!(result_s.engine.shard_windows.len(), shards);
            assert_eq!(
                result_s.engine.shard_windows.iter().sum::<usize>(),
                n,
                "shard windows must partition the dense index space"
            );
            assert_eq!(
                result_s.engine.cross_shard_messages > 0,
                shards > 1,
                "gossip traffic crosses ownership boundaries (n={n}, {shards} shards)"
            );
        }
    }
}

#[test]
fn shard_matrix_queue_mode_tracked() {
    // Queue pacing + knowledge tracking: delivery order depends on exact
    // bucket order, so the exchange splice is what's under test. (A
    // fan-out of 3 never overloads a receiver; the fan-in matrix below is
    // the one that carries backlog.)
    let mut config = Config::ncc0(71);
    config.capacity_policy = CapacityPolicy::Queue;
    assert_shard_matrix(6_000, &config, 10, 0, 3);
}

#[test]
fn shard_matrix_carries_fan_in_backlog_across_rounds() {
    // Receive queues that stay backlogged for rounds on end: a node that
    // carries backlog into a round reads `backlog ++ bucket prefix` from
    // the route arena's spill region, the others read their buckets in
    // place — at every layout, tracked, and equal to the oracle.
    let (n, burst) = (600, 6);
    let config = Config::ncc0(77).with_queueing();
    let cap = config.capacity(n);
    let mut streams = Vec::new();
    for shards in [1, 2, 4] {
        for workers in [1, 2] {
            let what = format!("fan-in at {shards} shards × {workers} workers");
            let layout = config
                .clone()
                .with_shards(shards)
                .with_worker_threads(workers);
            let net = Network::new(n, layout);
            let mut events = Recording::new();
            let result = net
                .run_protocol_on(EngineKind::Batched, None, Some(&mut events), |s| {
                    FanIn::new(s, burst)
                })
                .unwrap();
            assert!(
                result.metrics.max_queue_len >= 2 * cap,
                "{what}: backlog outlives a round"
            );
            assert!(result.metrics.is_clean(), "{what}: {:?}", result.metrics);
            assert_eq!(result.engine.cross_shard_messages > 0, shards > 1, "{what}");
            assert_matches_reference(
                &net,
                &result,
                &events.events(),
                |s| FanIn::new(s, burst),
                &what,
            );
            streams.push(events.events().to_vec());
        }
    }
    assert!(streams.windows(2).all(|pair| pair[0] == pair[1]));
}

#[test]
fn shard_matrix_compacting_record_tracked() {
    // Staggered lifetimes drive per-shard compactions mid-run; the
    // Compaction narration (global trigger, one event) is part of the raw
    // stream being compared.
    let mut config = Config::ncc0(72);
    config.capacity_policy = CapacityPolicy::Record;
    assert_shard_matrix(6_000, &config, 8, 6, 3);
}

#[test]
fn shard_matrix_strict_kt0_clean() {
    // Strict KT0 over the successor chain: clean tracked traffic, and the
    // per-shard capacity checks must find nothing at every cell.
    let config = Config::ncc0(73);
    assert_shard_matrix(6_000, &config, 10, 0, 1);
}

#[test]
fn strict_abort_blames_the_same_violation_at_every_shard_count() {
    // Overloaded fan-in under Strict: each shard journals violations in
    // slot order and the coordinator replays the journals in shard order,
    // so the aborting violation must be the canonical first one no matter
    // how ownership was partitioned.
    let run = |engine: EngineKind, shards: usize, workers: usize| {
        let config = Config::ncc0(74)
            .with_capacity_factor(0.5)
            .with_shards(shards)
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
    let first = run(EngineKind::Reference, 1, 1);
    assert_eq!(first, run(EngineKind::Batched, 1, 1), "baseline vs oracle");
    for shards in SHARDS {
        for workers in WORKERS {
            assert_eq!(
                first,
                run(EngineKind::Batched, shards, workers),
                "canonical first violation diverges at {shards} shards × {workers} workers"
            );
        }
    }
}

#[test]
fn shard_count_clamps_to_the_participant_space() {
    // More shards than participants degrades gracefully to one node per
    // shard (and stays bit-identical, like every other cell).
    let config = Config::ncc0(19);
    let run = |shards: usize| {
        let net = Network::new(8, config.clone().with_shards(shards));
        net.run_protocol(|s| Gossip::new(s, 6, 0, 1)).unwrap()
    };
    let flat = run(1);
    let clamped = run(64);
    assert_eq!(flat.outputs, clamped.outputs);
    assert_eq!(flat.metrics, clamped.metrics);
    assert_eq!(clamped.engine.shards, 8);
    assert_eq!(clamped.engine.shard_windows, vec![1; 8]);
}

#[test]
fn a_shard_phase_runs_on_min_workers_shards_threads_the_caller_first() {
    // Every step records the thread it ran on. A per-shard phase runs on
    // `min(workers, shards)` threads, each walking one contiguous run of
    // the dense order (uneven splits included), and the run holding
    // position 0 is walked by the caller — in every round.
    let caller = thread::current().id();
    for (shards, workers) in [(4, 1), (4, 2), (4, 8), (5, 4), (3, 2)] {
        let steps: Arc<Mutex<Vec<(u64, usize, ThreadId)>>> = Arc::default();
        let config = Config::ncc0(3)
            .with_shards(shards)
            .with_worker_threads(workers);
        let net = Network::new(512, config);
        let order = net.ids_in_path_order().to_vec();
        net.run_protocol(|seed| {
            let (steps, position) = (Arc::clone(&steps), position_of(&order, seed));
            Script(move |ctx: &mut RoundCtx<'_>| {
                let round = ctx.round();
                let step = (round, position, thread::current().id());
                steps.lock().unwrap().push(step);
                if round == 2 {
                    Status::Done(())
                } else {
                    Status::Continue
                }
            })
        })
        .unwrap();
        let mut steps = steps.lock().unwrap().clone();
        steps.sort_by_key(|&(round, position, _)| (round, position));
        assert_eq!(steps.len(), 3 * 512);
        for (round, steps) in steps.chunks(512).enumerate() {
            let label = format!("round {round} at {shards} shards × {workers} workers");
            assert!(steps.iter().all(|&(r, ..)| r == round as u64), "{label}");
            let mut groups: Vec<ThreadId> = steps.iter().map(|&(.., id)| id).collect();
            groups.dedup();
            let threads: HashSet<ThreadId> = groups.iter().copied().collect();
            assert_eq!(groups.len(), workers.min(shards), "{label}");
            assert_eq!(
                threads.len(),
                groups.len(),
                "a thread walks two runs: {label}"
            );
            assert_eq!(groups[0], caller, "{label}");
        }
    }
}

/// Path position of the node a script is being built for.
fn position_of(order: &[u64], seed: &NodeSeed<'_>) -> usize {
    order.iter().position(|&id| id == seed.id).unwrap()
}

#[test]
fn panics_in_different_shards_blame_the_lowest_dense_index() {
    // Positions 6 and 2 panic in the same round — in different shards at
    // two and at four shards, and position 6's shard may well finish
    // first. Each shard records its first panic in slot order and the
    // coordinator takes the first shard's: position 2, the node the
    // reference interpreter stops at.
    let run = |engine: EngineKind, shards: usize, workers: usize| {
        let config = Config::ncc0(75)
            .with_shards(shards)
            .with_worker_threads(workers);
        let net = Network::new(8, config);
        let order = net.ids_in_path_order().to_vec();
        let blamed = order[2];
        let err = net
            .run_protocol_on(engine, None, None, |seed| {
                let position = position_of(&order, seed);
                Script(move |ctx: &mut RoundCtx<'_>| {
                    if ctx.round() == 1 && (position == 2 || position == 6) {
                        panic!("position {position} gives up");
                    }
                    match ctx.round() {
                        3 => Status::Done(()),
                        _ => Status::Continue,
                    }
                })
            })
            .unwrap_err();
        match err {
            SimError::NodePanic { node, message } => {
                assert_eq!(node, blamed, "{shards} shards × {workers} workers");
                message
            }
            other => panic!("expected a node panic, got {other}"),
        }
    };
    let oracle = run(EngineKind::Reference, 1, 1);
    assert_eq!(oracle, "position 2 gives up");
    for shards in [1, 2, 4] {
        for workers in [1, 2] {
            assert_eq!(oracle, run(EngineKind::Batched, shards, workers));
        }
    }
}

#[test]
fn marks_are_narrated_in_dense_order_whatever_the_layout() {
    // Round 0: position 5 marks phase "b" and position 1 phase "a" — dense
    // order says "a" first, though they sit in different shards — while
    // position 3 marks "lost" in the step that retires it (discarded with
    // the rest of a `Done` step). Round 1: position 6 marks a stage and is
    // crash-stopped by the schedule after that same step — it stepped, so
    // it is narrated.
    let script = |order: Vec<u64>| {
        move |seed: &NodeSeed<'_>| {
            let position = position_of(&order, seed);
            Script(move |ctx: &mut RoundCtx<'_>| {
                match (ctx.round(), position) {
                    (0, 1) => ctx.mark_phase("a"),
                    (0, 5) => ctx.mark_phase("b"),
                    (0, 3) => {
                        ctx.mark_phase("lost");
                        return Status::Done(0);
                    }
                    (1, 6) => ctx.mark_stage("last words"),
                    (3, _) => return Status::Done(ctx.round()),
                    _ => {}
                }
                Status::Continue
            })
        }
    };
    let mut streams = Vec::new();
    for shards in [1, 2, 4] {
        for workers in [1, 2] {
            let config = Config::ncc0(76)
                .with_queueing()
                .with_shards(shards)
                .with_worker_threads(workers)
                .with_scenario(Scenario::new(76).crash(6, 1));
            let net = Network::new(8, config);
            let order = net.ids_in_path_order().to_vec();
            let mut events = Recording::new();
            let result = net
                .run_protocol_on(
                    EngineKind::Batched,
                    None,
                    Some(&mut events),
                    script(order.clone()),
                )
                .unwrap();
            let what = format!("{shards} shards × {workers} workers");
            let narrated: Vec<RunEvent> = events
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        RunEvent::PhaseChange { .. } | RunEvent::StageTransition { .. }
                    )
                })
                .cloned()
                .collect();
            let expected = [
                RunEvent::PhaseChange {
                    round: 0,
                    phase: "a",
                },
                RunEvent::PhaseChange {
                    round: 0,
                    phase: "b",
                },
                RunEvent::StageTransition {
                    round: 1,
                    stage: "last words",
                },
            ];
            assert_eq!(narrated, expected, "{what}");
            assert_eq!(result.engine.crashes, 1, "{what}");
            assert_matches_reference(&net, &result, &events.events(), script(order), &what);
            streams.push(events.events().to_vec());
        }
    }
    assert!(streams.windows(2).all(|pair| pair[0] == pair[1]));
}

/// The ISSUE-scale matrix: 10^5 nodes through the same three configs.
/// Release-mode only (`--ignored`); the in-tree 6k matrix above covers
/// the same paths on every `cargo test`.
#[test]
#[ignore = "release-scale shard matrix; run with --ignored"]
fn shard_matrix_at_n_100k() {
    let mut queue = Config::ncc0(81);
    queue.capacity_policy = CapacityPolicy::Queue;
    assert_shard_matrix(100_000, &queue, 8, 0, 3);

    let mut compacting = Config::ncc0(82);
    compacting.capacity_policy = CapacityPolicy::Record;
    assert_shard_matrix(100_000, &compacting, 6, 5, 3);

    let strict = Config::ncc0(83);
    assert_shard_matrix(100_000, &strict, 8, 0, 1);
}
