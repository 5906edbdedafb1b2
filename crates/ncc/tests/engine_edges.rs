//! Engine edge cases: every violation class fires when it should, and
//! model misuse fails loudly rather than silently — on the batched
//! executor and on the reference interpreter alike.

mod common;

use common::{assert_matches_reference, on_both_engines, Script};
use dgr_ncc::{
    tags, CapacityPolicy, Config, EngineKind, Network, NodeId, NodeSeed, Recording, RoundCtx,
    SimError, Status, Violation, ViolationKind, WireMsg,
};

fn strict_violation(err: SimError) -> Violation {
    match err {
        SimError::Violation(v) => v,
        other => panic!("expected a violation, got {other}"),
    }
}

/// Sends `msg` to each of `to` in round 0 and retires in round 1.
fn send_once(
    to: Vec<NodeId>,
    msg: WireMsg,
) -> impl FnMut(&mut RoundCtx<'_>) -> Status<usize> + Send {
    move |ctx| {
        if ctx.round() > 0 {
            return Status::Done(ctx.inbox().len());
        }
        for &dst in &to {
            ctx.send(dst, msg);
        }
        Status::Continue
    }
}

#[test]
fn oversized_messages_are_rejected() {
    // The wire format caps a message at four words; the configured budget
    // may be smaller, and is what the engines enforce.
    let mut config = Config::ncc0(1);
    config.max_words = 2;
    let net = Network::new(2, config);
    let err = on_both_engines(&net, |seed| {
        let msg = WireMsg::words(tags::GENERIC, &[0; 3]);
        send_once(seed.initial_successor.into_iter().collect(), msg)
    })
    .unwrap_err();
    assert!(matches!(
        strict_violation(err).kind,
        ViolationKind::MessageTooLarge { words: 3, .. }
    ));
}

#[test]
fn too_many_addresses_are_rejected() {
    let mut config = Config::ncc0(2);
    config.max_addrs = 1;
    let net = Network::new(2, config);
    let err = on_both_engines(&net, |seed| {
        let msg = WireMsg::addr(tags::GENERIC, seed.id).with_addr(seed.id);
        send_once(seed.initial_successor.into_iter().collect(), msg)
    })
    .unwrap_err();
    assert!(matches!(
        strict_violation(err).kind,
        ViolationKind::MessageTooLarge { addrs: 2, .. }
    ));
}

#[test]
fn sending_to_nonexistent_node_is_caught() {
    let mut config = Config::ncc0(3);
    config.track_knowledge = false; // get past the KT0 check to the routing check
    let net = Network::new(2, config);
    let err = on_both_engines(&net, |_| {
        send_once(vec![u64::MAX], WireMsg::signal(tags::GENERIC))
    })
    .unwrap_err();
    assert!(matches!(
        strict_violation(err).kind,
        ViolationKind::NoSuchNode { .. }
    ));
}

#[test]
fn sending_to_terminated_node_is_caught() {
    let mut config = Config::ncc0(4);
    config.capacity_policy = CapacityPolicy::Record;
    let net = Network::new(2, config);
    let head = net.ids_in_path_order()[0];
    let result = on_both_engines(&net, |seed| {
        let me = seed.id;
        move |ctx| {
            // The head terminates immediately; the tail idles a round,
            // then messages it.
            if me == head {
                return Status::Done(0);
            }
            match ctx.round() {
                0 => {}
                1 => ctx.send(head, WireMsg::signal(tags::UNDIRECT)),
                _ => return Status::Done(1),
            }
            Status::Continue
        }
    })
    .unwrap();
    assert_eq!(result.metrics.violations.bad_recipient, 1);
    assert_eq!(result.metrics.messages, 0, "a dead node receives nothing");
}

#[test]
#[should_panic(expected = "NCC1")]
fn all_ids_panics_under_ncc0() {
    let net = Network::new(2, Config::ncc0(5));
    // The panic inside the node surfaces as a NodePanic error; unwrap it
    // to propagate the message for should_panic.
    let err = on_both_engines(&net, |_| |ctx| Status::Done(ctx.all_ids().len())).unwrap_err();
    match err {
        SimError::NodePanic { message, .. } => panic!("{message}"),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn send_capacity_overflow_is_fatal_under_strict() {
    let mut config = Config::ncc0(6);
    config.track_knowledge = false;
    let net = Network::new(64, config);
    let targets: Vec<u64> = net.ids_in_path_order()[1..].to_vec();
    let head = net.ids_in_path_order()[0];
    let err = on_both_engines(&net, |seed| {
        let to = if seed.id == head {
            targets.clone()
        } else {
            vec![]
        };
        send_once(to, WireMsg::signal(tags::GENERIC))
    })
    .unwrap_err();
    assert!(matches!(
        strict_violation(err).kind,
        ViolationKind::SendCapacity { sent: 63, .. }
    ));
}

#[test]
fn receive_capacity_overflow_is_fatal_under_strict() {
    let mut config = Config::ncc0(7);
    config.track_knowledge = false;
    let net = Network::new(64, config);
    let head = net.ids_in_path_order()[0];
    let err = on_both_engines(&net, |seed| {
        let to = if seed.id == head { vec![] } else { vec![head] };
        send_once(to, WireMsg::signal(tags::GENERIC))
    })
    .unwrap_err();
    let v = strict_violation(err);
    assert_eq!(v.node, head, "violation must blame the receiver");
    assert!(matches!(
        v.kind,
        ViolationKind::ReceiveCapacity { received: 63, .. }
    ));
}

#[test]
fn knowledge_spreads_through_carried_addresses() {
    // b (who knows c as its successor) tells a about c; a may then
    // message c even though a never heard from c directly. b must first
    // learn a's ID: an undirect round.
    let net = Network::new(3, Config::ncc0(8));
    let order = net.ids_in_path_order().to_vec();
    let (a, b, c) = (order[0], order[1], order[2]);
    let result = on_both_engines(&net, |seed| {
        let me = seed.id;
        move |ctx| {
            match ctx.round() {
                0 if me == a || me == b => {
                    let succ = ctx.initial_successor().unwrap();
                    ctx.send(succ, WireMsg::signal(tags::UNDIRECT));
                }
                1 if me == b => ctx.send(a, WireMsg::addr(tags::GENERIC, c)),
                // Legal only because of the carried address.
                2 if me == a => ctx.send(c, WireMsg::word(tags::GENERIC, 7)),
                3 => return Status::Done(ctx.inbox().first().map(|e| e.word())),
                _ => {}
            }
            Status::Continue
        }
    })
    .unwrap();
    assert!(result.metrics.is_clean());
    assert_eq!(result.output_of(c).unwrap(), &Some(7));
}

#[test]
fn zero_and_max_are_learnable_addresses() {
    // Every u64 is a legal ID as far as KT0 goes, the two extremes a
    // table might reserve for itself included. a carries both without
    // knowing either (recorded, still delivered); b learns them from the
    // delivery and forwards them to c — across the shard boundary at two
    // shards — as a fully legal message.
    let mut config = Config::ncc0(8);
    config.capacity_policy = CapacityPolicy::Record;
    let carried = [0, u64::MAX];
    let script = |a: NodeId, b: NodeId| {
        move |seed: &NodeSeed<'_>| {
            let me = seed.id;
            let mut seen: Vec<NodeId> = Vec::new();
            Script(move |ctx: &mut RoundCtx<'_>| {
                seen.extend(ctx.inbox().iter().flat_map(|e| e.msg.addrs_slice()));
                let succ = ctx.initial_successor();
                match ctx.round() {
                    0 if me == a => carried
                        .iter()
                        .for_each(|&x| ctx.send(succ.unwrap(), WireMsg::addr(tags::GENERIC, x))),
                    1 if me == b => {
                        let both = WireMsg::addr(tags::GENERIC, seen[0]).with_addr(seen[1]);
                        ctx.send(succ.unwrap(), both);
                    }
                    2 => return Status::Done(std::mem::take(&mut seen)),
                    _ => {}
                }
                Status::Continue
            })
        }
    };
    for (shards, workers) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        let layout = config
            .clone()
            .with_shards(shards)
            .with_worker_threads(workers);
        let net = Network::new(4, layout);
        let order = net.ids_in_path_order().to_vec();
        let (a, b, c) = (order[0], order[1], order[2]);
        let mut events = Recording::new();
        let result = net
            .run_protocol_on(EngineKind::Batched, None, Some(&mut events), script(a, b))
            .unwrap();
        let what = format!("{shards} shards × {workers} workers");
        assert_eq!(result.engine.shards, shards, "{what}");
        assert_eq!(result.metrics.violations.unknown_carried, 2, "{what}");
        assert_eq!(result.metrics.violations.total(), 2, "{what}");
        let kinds = result.metrics.violation_samples.iter().map(|v| &v.kind);
        let expected = carried.map(|carried| ViolationKind::UnknownCarriedAddress { carried });
        assert!(kinds.eq(&expected), "{what}");
        assert_eq!(result.output_of(b).unwrap(), &carried, "{what}");
        assert_eq!(result.output_of(c).unwrap(), &carried, "{what}");
        // b: itself, its successor, a, and the two carried addresses.
        assert_eq!(result.metrics.max_knowledge, 5, "{what}");
        assert_matches_reference(&net, &result, &events.events(), script(a, b), &what);
    }
}

#[test]
fn every_violation_names_the_node_and_address_the_reference_names() {
    // A staged send carries no sender — the batched engine takes it from
    // the slot whose span it validates — so every kind of violation that
    // names a sender or a destination is provoked once, from a different
    // node each, and the records are held to the reference's under
    // `Record`. Position 4 is out of the run, retired by its first step.
    let mut config = Config::ncc0(9);
    config.capacity_policy = CapacityPolicy::Record;
    config.max_words = 2;
    let bogus = u64::MAX - 7;
    let script = |order: Vec<NodeId>, cap: usize| {
        move |seed: &NodeSeed<'_>| {
            let me = seed.id;
            let position = order.iter().position(|&id| id == me).unwrap();
            let (head, absent) = (order[0], order[4]);
            Script(move |ctx: &mut RoundCtx<'_>| {
                let signal = WireMsg::signal(tags::GENERIC);
                if position == 4 || ctx.round() == 2 {
                    return Status::Done(ctx.inbox().len());
                }
                match (ctx.round(), position) {
                    (0, 0) => {
                        ctx.send(bogus, signal);
                        let succ = ctx.initial_successor().unwrap();
                        (0..=cap).for_each(|_| ctx.send(succ, signal));
                    }
                    (0, 1) => ctx.send(absent, signal),
                    (0, 2) => ctx.send(head, signal),
                    (0, 3) => ctx.send(me, signal.with_addr(head)),
                    (0, 5) => ctx.send(me, WireMsg::words(tags::GENERIC, &[0; 3])),
                    _ => {}
                }
                Status::Continue
            })
        }
    };
    for shards in [1, 2] {
        let net = Network::new(6, config.clone().with_shards(shards));
        let order = net.ids_in_path_order().to_vec();
        let cap = net.capacity();
        let mut events = Recording::new();
        let factory = script(order.clone(), cap);
        let result = net
            .run_protocol_on(EngineKind::Batched, None, Some(&mut events), &factory)
            .unwrap();
        let what = format!("{shards} shard(s)");
        let samples = &result.metrics.violation_samples;
        let recorded: Vec<_> = samples.iter().map(|v| (v.node, v.kind.clone())).collect();
        let expected = [
            (order[0], ViolationKind::NoSuchNode { dst: bogus }),
            (order[0], ViolationKind::SendCapacity { sent: cap + 2, cap }),
            (order[1], ViolationKind::DeadRecipient { dst: order[4] }),
            (order[2], ViolationKind::UnknownAddressee { dst: order[0] }),
            (
                order[3],
                ViolationKind::UnknownCarriedAddress { carried: order[0] },
            ),
            (
                order[5],
                ViolationKind::MessageTooLarge { words: 3, addrs: 0 },
            ),
            (
                order[1],
                ViolationKind::ReceiveCapacity {
                    received: cap + 1,
                    cap,
                },
            ),
        ];
        assert_eq!(recorded, expected, "{what}");
        assert_matches_reference(&net, &result, &events.events(), &factory, &what);
    }
}
