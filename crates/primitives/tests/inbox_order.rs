//! Inbox order is not an input: with every delivery bucket of a run
//! shuffled — a reorder window over the whole run, under the queue
//! policy, the only one a reorder runs under — every lane of the sort
//! hands every node its fault-free output in the fault-free rounds, on
//! both engines.

use dgr_ncc::{Config, EngineKind, Network, NodeId, NodeProtocol, NodeSeed, RoundCtx, Scenario};
use dgr_primitives::ctx::{self, CLASSES};
use dgr_primitives::sort::{self, Held, Order, Regroup, SortStep};
use dgr_primitives::{PathCtx, WithCtx};
use std::collections::HashMap;

const N: usize = 64;

/// Runs `factory` on an `N`-node network fault-free, then with every
/// round's deliveries reordered, on both engines, and holds every node's
/// output and the round count to the fault-free run's. Returns the
/// fault-free run's outputs and its rounds past the establishment.
fn outputs_survive_reordering<P, F>(seed: u64, factory: F) -> (Vec<(NodeId, P::Output)>, u64)
where
    P: NodeProtocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
{
    let config = Config::ncc0(seed).with_queueing();
    let clean = Network::new(N, config.clone())
        .run_protocol(&factory)
        .unwrap();
    let scenario = Scenario::new(11).reorder(0..=u64::MAX);
    let net = Network::new(N, config.with_scenario(scenario));
    for engine in [EngineKind::Batched, EngineKind::Reference] {
        let result = net.run_protocol_on(engine, None, None, &factory).unwrap();
        assert!(result.engine.faults_reordered > 0, "{engine:?}");
        assert_eq!(result.metrics.rounds, clean.metrics.rounds, "{engine:?}");
        assert_eq!(result.outputs, clean.outputs, "{engine:?}");
    }
    (clean.outputs, clean.metrics.rounds - ctx::rounds_for(N))
}

/// The network over the whole path.
#[test]
fn the_network_ignores_inbox_order() {
    let (_, rounds) = outputs_survive_reordering(60, |_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let (vp, x, id) = (ctx.vp, ctx.position, rctx.id());
            SortStep::new(vp, ctx.contacts.clone(), x, id % 7, Order::Descending, id)
        })
    });
    assert_eq!(rounds, sort::rounds_for(N));
}

/// The class route, then the network over the overflow's window: three
/// classes below the overflow, and four keys past 7.
#[test]
fn the_class_route_and_its_window_ignore_inbox_order() {
    let seed = 61;
    let ids = Network::new(N, Config::ncc0(seed))
        .ids_in_path_order()
        .to_vec();
    let key = |x: usize, id: NodeId| match x % 16 {
        5 => 9 + x as u64 % 3,
        _ => id % 3,
    };
    let keys: HashMap<NodeId, u64> = (ids.iter().enumerate())
        .map(|(x, &id)| (id, key(x, id)))
        .collect();
    let (_, rounds) = outputs_survive_reordering(seed, |s| {
        let key = keys[&s.id];
        WithCtx::keyed(key, move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            SortStep::by_class(ctx, key, Order::Descending, rctx.id(), 0)
        })
    });
    assert_eq!(rounds, sort::route_rounds_for(N) + sort::rounds_for(4));
}

/// The compaction alone, after two records still at need 2 and ten
/// groups of three behind them. Then after one group of four at need 3
/// whose top need fills none — two records held 3, thirty 2, the rest 1 —
/// the counted route of a phase decided on per-need counts, and with the
/// same needs and no counts the merge lane's compaction route and merge
/// pass: the two lanes leave every position holding the same record.
#[test]
fn the_regroup_route_and_the_merge_lane_ignore_inbox_order() {
    let compaction = Regroup {
        live: N,
        stride: 3,
        groups: 10,
        top: 32,
        counts: None,
    };
    let (_, rounds) = outputs_survive_reordering(62, move |_| {
        WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let x = ctx.position;
            let key = match x.checked_sub(compaction.first()) {
                None => 2,
                Some(i) if i < compaction.span() => u64::from(i % 3 != 0),
                Some(_) => 1,
            };
            let held = Held {
                key,
                origin: rctx.id(),
                home: x,
            };
            let contacts = ctx.contacts.clone();
            SortStep::regroup(ctx.vp, contacts, x, Some(held), compaction, 0)
        })
    });
    assert_eq!(rounds, 4, "a longest shift of 10");
    let run = |counts| {
        let phase = Regroup {
            live: N,
            stride: 4,
            groups: 1,
            top: 2,
            counts,
        };
        outputs_survive_reordering(63, move |_| {
            WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                let x = ctx.position;
                let key = match x {
                    0 => 0,
                    1 | 4..32 => 2,
                    _ => 1,
                };
                let held = Held {
                    key,
                    origin: rctx.id(),
                    home: x,
                };
                let contacts = ctx.contacts.clone();
                SortStep::regroup(ctx.vp, contacts, x, Some(held), phase, 0)
            })
        })
    };
    let mut counts = [0; CLASSES];
    counts[1..=3].copy_from_slice(&[32, 30, 2]);
    let (counted, rounds) = run(Some(counts));
    assert_eq!(rounds, 5, "a longest move of 27");
    let (merged, rounds) = run(None);
    assert_eq!(rounds, sort::merge_rounds_for(N, 1));
    assert_eq!(counted, merged);
}
