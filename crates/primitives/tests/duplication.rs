//! Duplicate-safe receives: with every message of a run delivered twice,
//! a primitive must hand every node its fault-free output, on both
//! engines.

use dgr_ncc::{
    tags, Config, EngineKind, Network, NodeProtocol, NodeSeed, RoundCtx, Scenario, WireMsg,
};
use dgr_primitives::imcast::ImcastStep;
use dgr_primitives::ops::SweepStep;
use dgr_primitives::sort::{Held, Order, Regroup, SortStep};
use dgr_primitives::{EstablishCtx, PathCtx, PathToClique, Step, StepProtocol, WithCtx};

/// Runs `factory` on an n = 37 network fault-free, then under full
/// duplication (queue policy) on both engines, and holds every node's
/// output and the round count to the fault-free run's.
fn outputs_survive_full_duplication<P, F>(seed: u64, factory: F)
where
    P: NodeProtocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
{
    let n = 37;
    let clean = Network::new(n, Config::ncc0(seed))
        .run_protocol(&factory)
        .unwrap();
    let scenario = Scenario::new(7).duplicate_messages(0..=u64::MAX, 1.0);
    let config = Config::ncc0(seed).with_queueing().with_scenario(scenario);
    let net = Network::new(n, config);
    for engine in [EngineKind::Batched, EngineKind::Reference] {
        let result = net.run_protocol_on(engine, None, None, &factory).unwrap();
        assert!(result.engine.faults_duplicated > 0, "{engine:?}");
        assert_eq!(result.metrics.rounds, clean.metrics.rounds, "{engine:?}");
        assert_eq!(result.outputs, clean.outputs, "{engine:?}");
    }
}

/// A duplicated `CONTACT` writes the same table entry twice.
#[test]
fn contact_tables_are_exact_under_full_duplication() {
    outputs_survive_full_duplication(43, PathToClique::new);
}

/// A duplicated count or `SET_BWD` is the same message from the same
/// contact: the rank lane takes the first, and every node ends with its
/// fault-free position.
#[test]
fn rank_lane_is_exact_under_full_duplication() {
    outputs_survive_full_duplication(44, |_| StepProtocol::new(EstablishCtx::new()));
}

/// A duplicated delegation covers a node once, and a duplicated leg
/// message carries the same address on: every covered rank still learns
/// its own source, in the plain and in the shifted multicast.
#[test]
fn interval_multicast_is_exact_under_full_duplication() {
    outputs_survive_full_duplication(45, |_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let (r, w) = (ctx.position, 5);
            let task = (r.is_multiple_of(w)).then(|| ((w - 1).min(ctx.vp.len - 1 - r), rctx.id()));
            ImcastStep::new(ctx.vp, ctx.contacts.clone(), w - 1, task)
        })
    });
    // Positions 0..9 each send to the three ranks from 10 + 3x on:
    // offsets 10 + 2x, intervals back to back up to the last rank.
    outputs_survive_full_duplication(46, |_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let x = ctx.position;
            let task = (x < 9).then_some((10 + 2 * x, 3, rctx.id()));
            ImcastStep::at_offset(ctx.vp, ctx.contacts.clone(), task)
        })
    });
}

/// A repeated compaction move or comparator exchange lands the same
/// record once: a sort, then a merge lane — a regroup whose top key fills
/// no group — both in place, leave every position holding its fault-free
/// record.
#[test]
fn in_place_sort_and_merge_are_exact_under_full_duplication() {
    outputs_survive_full_duplication(48, |_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let (vp, x, contacts) = (ctx.vp, ctx.position, ctx.contacts.clone());
            let (key, order) = (2 + rctx.id() % 5, Order::Descending);
            let phase = Regroup {
                live: vp.len,
                stride: 3,
                groups: vp.len / 6,
                top: 0,
            };
            let table = contacts.clone();
            SortStep::new(vp, contacts, x, key, order, rctx.id()).then(move |held, _| {
                let lost = u64::from(x < phase.span());
                let held = held.map(|h| Held {
                    key: h.key - lost,
                    ..h
                });
                SortStep::regroup(vp, table, x, held, phase, 0)
            })
        })
    });
}

/// A repeated route move lands the same record once: after a group phase
/// of six groups of three and a tail of two still at the top need, the
/// route of `SortStep::regroup` leaves every position holding its
/// fault-free record.
#[test]
fn regroup_route_is_exact_under_full_duplication() {
    outputs_survive_full_duplication(50, |_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let x = ctx.position;
            let phase = Regroup {
                live: ctx.vp.len,
                stride: 3,
                groups: 6,
                top: 20,
            };
            let key = match (x < phase.span(), x % 3) {
                (true, 0) => 0,
                (true, _) => 1,
                (false, _) if x < phase.top => 2,
                (false, _) => u64::from(x < 30),
            };
            let held = Held {
                key,
                origin: rctx.id(),
                home: x,
            };
            let contacts = ctx.contacts.clone();
            SortStep::regroup(ctx.vp, contacts, x, Some(held), phase, 0)
        })
    });
}

/// A duplicated aggregate is the same child's, due in the same round:
/// the sweep folds it once, and every node learns the fault-free total
/// and the smallest held address.
#[test]
fn sweep_is_exact_under_full_duplication() {
    outputs_survive_full_duplication(47, |_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let (id, x) = (rctx.id(), ctx.position);
            let words = [id % 7, 1, x as u64];
            let addr = x.is_multiple_of(3).then_some(id);
            let fold = |acc: &mut [u64; 4], w: &[u64; 4]| {
                *acc = [acc[0].max(w[0]), acc[1] + w[1], acc[2] + w[2], 0]
            };
            SweepStep::new(ctx.vp, ctx.contacts.clone(), x, &words, addr, fold)
        })
    });
}

/// A repeated release is the same release: position 0 broadcasts its
/// words alone, then position 1 hands it a release whose every copy
/// arrives twice, and each waiting member takes the first copy of its
/// parent's total. Every node ends on the fault-free value, in the
/// fault-free round.
#[test]
fn broadcast_only_sweep_is_exact_under_full_duplication() {
    outputs_survive_full_duplication(49, |_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let (vp, x, id) = (ctx.vp, ctx.position, rctx.id());
            let words = [if x == 0 { id % 11 } else { 0 }, 2];
            let table = ctx.contacts.clone();
            let alone = SweepStep::broadcast(vp, ctx.contacts.clone(), x, &words, None);
            alone.then(move |total, rctx: &mut RoundCtx<'_>| {
                if x == 1 {
                    let pred = vp.pred.expect("position 1 follows the head");
                    let release = WireMsg::words(tags::RELEASE, &[total.words[0] + id % 13]);
                    rctx.send(pred, release.with_addr(id));
                }
                SweepStep::released(vp, table, x, 16)
            })
        })
    });
}
