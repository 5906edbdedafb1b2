//! The global sweep over a path's contacts: broadcast and distributive
//! aggregation (Theorem 4).
//!
//! [`SweepStep`] folds every member's contribution toward position 0 and
//! pushes the total back, so every member learns it. A contribution is
//! what one message holds: up to [`WIRE_WORDS`] data words under one
//! [`Fold`], and the (at most one) held address, which travels in the
//! *address* field so KT0 tracking sees every node legitimately learn the
//! ID. Independent aggregations of one path share a sweep instead of
//! paying one each: "leader `ℓ` broadcasts a token" without anyone knowing
//! where `ℓ` sits is a fold over the (at most one) held value, and
//! Corollary 2's median is the address-only sweep of the node at position
//! `(len - 1) / 2`.
//!
//! The paper sweeps a balanced binary search tree (Theorem 1). The sweep
//! here is a **binomial tree over the contact table** instead
//! (ARCHITECTURE.md, *Deviations from the paper*): position `x > 0` hangs
//! below `x - 2^tz(x)` (`tz` = trailing zeros), its `2^tz(x)`-behind
//! contact, and the children of `x` are `x + 2^j` for `j < tz(x)` (every
//! `j < ⌈log₂ len⌉` at position 0). The reduce sends `x`'s fold in round
//! `tz(x)`, after its children's rounds `0 … tz(x) - 1`; the broadcast
//! mirrors it, level `⌈log₂ len⌉ - 1` first. Each phase is `⌈log₂ len⌉`
//! rounds, a node sends and receives at most one message a round, and the
//! sweep costs `2(len - 1)` messages. Every message is due in a known
//! round, so a missing one is a lost message, and it panics.
//!
//! A value that position 0 already holds needs only the broadcast half
//! ([`SweepStep::broadcast`]: `⌈log₂ len⌉` rounds, `len - 1` messages).
//! The broadcast half also runs **released**
//! ([`SweepStep::released`]), for members that cannot know when it
//! starts: position 0 starts it when a [`tags::RELEASE`] message reaches
//! it, and every other member, waiting, places itself in the schedule by
//! the round its parent's total arrives, which the total's level fixes.
//! So every member is ready in the same round, `⌈log₂ len⌉` rounds after
//! the root heard, and a member that has not heard by its deadline has
//! lost a message, and panics.

use crate::contacts::ContactTable;
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireEnvelope, WireMsg, WIRE_WORDS};
use std::sync::Arc;

/// Number of rounds for a sweep on a path of `len` nodes: the reduce and
/// the broadcast, `⌈log₂ len⌉` rounds each — the Theorem 4 `O(log n)`
/// bound made concrete.
pub fn rounds_for(len: usize) -> u64 {
    2 * broadcast_rounds_for(len)
}

/// Number of rounds for the broadcast half alone on a path of `len`
/// nodes, [`SweepStep::broadcast`]'s: `⌈log₂ len⌉`.
pub fn broadcast_rounds_for(len: usize) -> u64 {
    crate::levels_for(len) as u64
}

/// The data words of one sweep message; a sweep of `k` lanes uses the
/// first `k` and leaves the rest zero.
pub type Words = [u64; WIRE_WORDS];

/// Folds another subtree's words into an accumulator. Must be associative
/// and commutative (lanes may be coupled: "maximum, and how many hold
/// it"), since the tree fixes neither the grouping nor the order.
pub type Fold = fn(&mut Words, &Words);

/// What a sweep hands every member (non-members get the default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Swept {
    /// The fold of every member's words.
    pub words: Words,
    /// The smallest address any member held, if any did.
    pub addr: Option<NodeId>,
}

impl Swept {
    fn new(words: &[u64], addr: Option<NodeId>) -> Self {
        let mut padded = [0; WIRE_WORDS];
        padded[..words.len()].copy_from_slice(words);
        Swept {
            words: padded,
            addr,
        }
    }

    fn of(msg: &WireMsg) -> Self {
        Swept::new(msg.words_slice(), msg.addrs_slice().first().copied())
    }
}

/// The binomial reduce and broadcast (Theorem 4) as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`, whatever the width: the lanes
/// are one message's data words (more than
/// [`Config::max_words`](dgr_ncc::Config::max_words) of them is a
/// `MessageTooLarge` violation), the address rides the address field.
pub type SweepStep = Lockstep<Sweep>;

/// [`SweepStep`]'s member rounds: the reduce, then the broadcast — or
/// the broadcast alone.
#[derive(Debug)]
pub struct Sweep {
    contacts: Arc<ContactTable>,
    levels: usize,
    /// The level this position's fold goes up on: `tz(x)`, or `levels`
    /// at position 0, the root. Its children sit `2^j` ahead, `j < up`.
    up: usize,
    lanes: usize,
    /// The reduce's fold; `None` for the broadcast half alone.
    fold: Option<Fold>,
    /// The poll in which the root sends the broadcast's first level;
    /// `None` until a released broadcast has reached this member.
    start: Option<usize>,
    /// This subtree's fold so far; the total once the broadcast is in.
    acc: Swept,
}

impl SweepStep {
    /// Builds the step at `position` of `vp`, over the path's `contacts`;
    /// `words` (one per lane, the same count at every node) and `addr` are
    /// this node's contribution.
    ///
    /// # Panics
    ///
    /// Panics if more than [`WIRE_WORDS`] words are given.
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        words: &[u64],
        addr: Option<NodeId>,
        fold: Fold,
    ) -> Self {
        let start = Some(vp.levels());
        let sweep = Sweep::new(vp, contacts, position, words, addr, Some(fold), start);
        Lockstep::run(vp.member, rounds_for(vp.len), sweep)
    }

    /// The broadcast half alone: position 0's `words` and `addr` reach
    /// every member (rounds: exactly [`broadcast_rounds_for`]`(vp.len)`,
    /// `len - 1` messages). The other members' words only give the lane
    /// count.
    pub fn broadcast(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        words: &[u64],
        addr: Option<NodeId>,
    ) -> Self {
        let sweep = Sweep::new(vp, contacts, position, words, addr, None, Some(0));
        Lockstep::run(vp.member, broadcast_rounds_for(vp.len), sweep)
    }

    /// The broadcast half, released: position 0 broadcasts the words and
    /// address of the first [`tags::RELEASE`] message it receives, from
    /// anyone; every other member waits for its parent's total. Every
    /// member is ready `⌈log₂ len⌉` rounds after the root received the
    /// release, so all in one round; a member not ready by poll `deadline`
    /// panics ("message loss: a node missed the release").
    pub fn released(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        deadline: u64,
    ) -> Self {
        let sweep = Sweep::new(vp, contacts, position, &[], None, None, None);
        Lockstep::until(deadline, sweep)
    }
}

impl Sweep {
    /// The sweep at `position`, its broadcast starting at poll `start`.
    fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        words: &[u64],
        addr: Option<NodeId>,
        fold: Option<Fold>,
        start: Option<usize>,
    ) -> Self {
        let levels = vp.levels();
        let up = if position == 0 {
            levels
        } else {
            position.trailing_zeros() as usize
        };
        Sweep {
            contacts,
            levels,
            up,
            lanes: words.len(),
            fold,
            start,
            acc: Swept::new(words, addr),
        }
    }

    /// The message carrying `value` under `tag`.
    fn msg(&self, tag: u16, value: &Swept) -> WireMsg {
        let msg = WireMsg::words(tag, &value.words[..self.lanes]);
        value.addr.map_or(msg, |a| msg.with_addr(a))
    }

    /// The `tag` message `from` sent last round; its absence is a lost
    /// message. A repeated message is the same message: the first stands.
    fn received<'a>(ctx: &'a RoundCtx<'_>, tag: u16, from: NodeId, loss: &str) -> &'a WireEnvelope {
        Self::heard(ctx, tag, Some(from)).unwrap_or_else(|| panic!("message loss: {loss}"))
    }

    /// The first `tag` message in the inbox, from `from` or, when `None`,
    /// from anyone.
    fn heard<'a>(
        ctx: &'a RoundCtx<'_>,
        tag: u16,
        from: Option<NodeId>,
    ) -> Option<&'a WireEnvelope> {
        ctx.inbox()
            .iter()
            .find(|e| e.msg.tag == tag && from.is_none_or(|f| e.src == f))
    }

    /// The parent this position's total comes from, below the head.
    fn parent(&self) -> NodeId {
        self.contacts
            .behind(self.up)
            .expect("a child below the head")
    }

    /// A released broadcast at poll `t`: the release at the root, the
    /// parent's total elsewhere, fixes the start — the total of level
    /// `up` arrives `levels - up` polls after it.
    fn hear_release(&mut self, t: usize, ctx: &RoundCtx<'_>) {
        let (tag, from) = match self.up < self.levels {
            true => (tags::BCAST, Some(self.parent())),
            false => (tags::RELEASE, None),
        };
        if let Some(env) = Self::heard(ctx, tag, from) {
            self.lanes = env.msg.words_slice().len();
            self.acc = Swept::of(&env.msg);
            self.start = Some(t - (self.levels - self.up));
        }
    }
}

impl Rounds for Sweep {
    type Out = Swept;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Swept> {
        let (t, levels) = (t as usize, self.levels);
        if let Some(fold) = self.fold.filter(|_| (1..=levels).contains(&t)) {
            // Reduce round `t - 1`: the child on that level, if any.
            let j = t - 1;
            if let Some(child) = self.contacts.ahead(j).filter(|_| j < self.up) {
                let loss = "a reduce parent missed its child's aggregate";
                let theirs = Swept::of(&Self::received(ctx, tags::AGGREGATE, child, loss).msg);
                fold(&mut self.acc.words, &theirs.words);
                self.acc.addr = [self.acc.addr, theirs.addr].into_iter().flatten().min();
            }
        }
        match self.start {
            None if t > 0 => self.hear_release(t, ctx),
            Some(start) if self.up < levels && t == start + levels - self.up => {
                // The broadcast reached this position's level: the total.
                let loss = "a broadcast child missed its parent's total";
                self.acc = Swept::of(&Self::received(ctx, tags::BCAST, self.parent(), loss).msg);
            }
            _ => {}
        }
        let Some(start) = self.start.filter(|&start| t >= start) else {
            if t as u64 == rounds {
                panic!("message loss: a node missed the release");
            }
            if self.fold.is_some() && t == self.up {
                ctx.send(self.parent(), self.msg(tags::AGGREGATE, &self.acc));
            }
            return Poll::Pending;
        };
        if t == start + levels {
            return Poll::Ready(self.acc);
        }
        // Broadcast round `t - start` pushes the total down level
        // `levels - 1 - (t - start)`, to the child there, if any.
        let j = levels - 1 - (t - start);
        if let Some(child) = self.contacts.ahead(j).filter(|_| j < self.up) {
            ctx.send(child, self.msg(tags::BCAST, &self.acc));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathCtx, WithCtx};
    use dgr_ncc::{
        CapacityPolicy, Config, EngineKind, Network, RunResult, Scenario, SimError, ViolationKind,
    };

    /// A fold with coupled lanes: maximum, how many hold it, or, sum.
    fn fold4(acc: &mut Words, x: &Words) {
        match x[0].cmp(&acc[0]) {
            std::cmp::Ordering::Greater => (acc[0], acc[1]) = (x[0], x[1]),
            std::cmp::Ordering::Equal => acc[1] += x[1],
            std::cmp::Ordering::Less => {}
        }
        acc[2] |= x[2];
        acc[3] += x[3];
    }

    /// A node's contribution to the four-lane sweeps below, derived from
    /// its (randomly assigned) ID; every fifth-or-so node holds an address.
    fn contribution(id: NodeId) -> (Words, Option<NodeId>) {
        let words = [id % 7, 1, 1 << (id % 64), id % 1000];
        (words, id.is_multiple_of(5).then_some(id))
    }

    /// What a sequential fold over `ids` gives.
    fn folded(ids: &[NodeId]) -> Swept {
        let (mut words, _) = contribution(ids[0]);
        for &id in &ids[1..] {
            fold4(&mut words, &contribution(id).0);
        }
        let addr = ids.iter().filter_map(|&id| contribution(id).1).min();
        Swept { words, addr }
    }

    /// The four-lane sweep of every node's [`contribution`].
    fn sweep4(ctx: &PathCtx, rctx: &mut RoundCtx<'_>) -> SweepStep {
        let (words, addr) = contribution(rctx.id());
        SweepStep::new(
            ctx.vp,
            ctx.contacts.clone(),
            ctx.position,
            &words,
            addr,
            fold4,
        )
    }

    /// The one-lane sweep of `value` under `fold`, or the address-only
    /// sweep of `addr` when `value` is `None`.
    fn sweep1(ctx: &PathCtx, value: Option<u64>, addr: Option<NodeId>, fold: Fold) -> SweepStep {
        let words: &[u64] = value.as_slice();
        SweepStep::new(
            ctx.vp,
            ctx.contacts.clone(),
            ctx.position,
            words,
            addr,
            fold,
        )
    }

    fn sum(acc: &mut Words, x: &Words) {
        acc[0] += x[0];
    }

    fn max(acc: &mut Words, x: &Words) {
        acc[0] = acc[0].max(x[0]);
    }

    fn min(acc: &mut Words, x: &Words) {
        acc[0] = acc[0].min(x[0]);
    }

    /// At every path length from 1 to 300, on both engines, strict at the
    /// capacity floor: every member ends on the sequential fold, in
    /// `2⌈log₂ len⌉` rounds and `2(len - 1)` messages past the
    /// establishment, whatever the width.
    #[test]
    fn multi_lane_sweep_matches_a_sequential_fold() {
        for n in 1usize..=300 {
            let net = Network::new(n, Config::ncc0(n as u64).with_capacity_factor(0.1));
            let want = folded(net.ids_in_path_order());
            let establish = net
                .run_protocol(|_| crate::StepProtocol::new(crate::EstablishCtx::new()))
                .unwrap();
            let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                let result = net
                    .run_protocol_on(engine, None, None, |_| WithCtx::new(sweep4))
                    .unwrap();
                // Tracking is on: the folded address spread legally.
                let m = &result.metrics;
                assert!(m.is_clean(), "n={n} {engine:?}: {:?}", m.violations);
                assert_eq!(m.capacity, 4, "n={n}");
                assert!(result.outputs.iter().all(|(_, got)| *got == want), "n={n}");
                assert_eq!(m.rounds - establish.metrics.rounds, rounds_for(n));
                let sent = m.messages - establish.metrics.messages;
                assert_eq!(sent, 2 * (n as u64 - 1), "n={n}");
                result
            });
            assert_eq!(runs[0].metrics, runs[1].metrics, "n={n}");
        }
    }

    /// The broadcast half, at every path length from 1 to 100 on both
    /// engines: alone, position 0's words and address reach every member
    /// in `⌈log₂ len⌉` rounds and `len - 1` messages past the
    /// establishment. Released, the same broadcast waits for position 1
    /// (at one node, the head itself), which idles `delay` rounds, then hands
    /// position 0 the value: every member ends on it in the same round,
    /// one round and `⌈log₂ len⌉` after the hand-off, before its deadline.
    #[test]
    fn broadcast_halves_reach_every_member_in_one_round() {
        use crate::step::{Idle, Step};
        for n in 1usize..=100 {
            let net = Network::new(n, Config::ncc0(n as u64));
            let order = net.ids_in_path_order().to_vec();
            let establish = crate::ctx::rounds_for(n);
            let levels = broadcast_rounds_for(n);
            let delay = 3;
            let releaser = order[n.min(2) - 1];
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let alone = net
                    .run_protocol_on(engine, None, None, |_| {
                        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                            let head = ctx.position == 0;
                            let words = [if head { rctx.id() % 1000 } else { 7 }, 5];
                            let addr = head.then(|| rctx.id());
                            let c = ctx.contacts.clone();
                            SweepStep::broadcast(ctx.vp, c, ctx.position, &words, addr)
                        })
                    })
                    .unwrap();
                let want = Swept::new(&[order[0] % 1000, 5], Some(order[0]));
                assert!(alone.outputs.iter().all(|(_, got)| *got == want), "n={n}");
                assert_eq!(alone.metrics.rounds, establish + levels, "n={n}");
                assert_eq!(
                    alone.metrics.messages,
                    establish_messages(&net) + n as u64 - 1
                );
                let released = net
                    .run_protocol_on(engine, None, None, |_| {
                        WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                            let (vp, x, c) = (ctx.vp, ctx.position, ctx.contacts.clone());
                            let me = rctx.id();
                            let idle = if me == releaser { delay } else { 0 };
                            Idle::new(idle).then(move |(), rctx: &mut RoundCtx<'_>| {
                                if me == releaser {
                                    let head = vp.pred.unwrap_or(me);
                                    let msg = WireMsg::words(tags::RELEASE, &[me % 1000]);
                                    rctx.send(head, msg.with_addr(me));
                                }
                                let deadline = delay + 1 + levels + 4 - idle;
                                SweepStep::released(vp, c, x, deadline)
                            })
                        })
                    })
                    .unwrap();
                let want = Swept::new(&[releaser % 1000], Some(releaser));
                assert!(
                    released.outputs.iter().all(|(_, got)| *got == want),
                    "n={n}"
                );
                assert!(released.metrics.is_clean(), "n={n}");
                assert_eq!(released.metrics.rounds, establish + delay + 1 + levels);
                assert_eq!(released.metrics.messages, alone.metrics.messages + 1);
            }
        }
    }

    /// Messages of the establishment alone on `net`.
    fn establish_messages(net: &Network) -> u64 {
        let run = net.run_protocol(|_| crate::StepProtocol::new(crate::EstablishCtx::new()));
        run.unwrap().metrics.messages
    }

    /// A sweep wider than the configured message budget is the model's
    /// `MessageTooLarge` violation — fatal under the strict policy, counted
    /// (and the sweep still exact) under the recording one.
    #[test]
    fn sweep_wider_than_the_message_budget_is_a_violation() {
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let mut config = Config::ncc0(25);
            config.max_words = 3;
            let net = Network::new(20, config.clone());
            let strict = net.run_protocol_on(engine, None, None, |_| WithCtx::new(sweep4));
            match strict {
                Err(SimError::Violation(v)) => assert_eq!(
                    v.kind,
                    ViolationKind::MessageTooLarge { words: 4, addrs: 0 }
                ),
                other => panic!(
                    "expected MessageTooLarge, got {:?}",
                    other.map(|r| r.metrics)
                ),
            }
            config.capacity_policy = CapacityPolicy::Record;
            let net = Network::new(20, config);
            let want = folded(net.ids_in_path_order());
            let recorded = net
                .run_protocol_on(engine, None, None, |_| WithCtx::new(sweep4))
                .unwrap();
            assert!(recorded.metrics.violations.message_too_large > 0);
            assert!(recorded.outputs.iter().all(|(_, got)| *got == want));
        }
    }

    #[test]
    fn aggregate_broadcast_computes_global_sum_and_max() {
        let net = Network::new(50, Config::ncc0(11));
        let ids = net.ids_in_path_order().to_vec();
        let wants = [
            (sum as Fold, ids.iter().map(|i| i % 100).sum::<u64>()),
            (max, ids.iter().map(|i| i % 100).max().unwrap()),
        ];
        for (fold, want) in wants {
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        sweep1(ctx, Some(rctx.id() % 100), None, fold)
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean());
            assert!(result.outputs.iter().all(|(_, got)| got.words[0] == want));
        }
    }

    #[test]
    fn broadcast_word_reaches_everyone_from_any_holder() {
        // "Leader broadcasts a token" without anyone knowing where the
        // leader sits: a minimum over (present) values, with u64::MAX as
        // the identity.
        let net = Network::new(33, Config::ncc0(12));
        let holder = net.ids_in_path_order()[17]; // arbitrary interior node
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let value = if rctx.id() == holder { 777 } else { u64::MAX };
                    sweep1(ctx, Some(value), None, min)
                })
            })
            .unwrap();
        assert!(result.outputs.iter().all(|(_, v)| v.words[0] == 777));
    }

    #[test]
    fn broadcast_addr_is_kt0_legal() {
        // The tail's ID becomes common knowledge; knowledge tracking is on,
        // so a clean run proves the address spread legally.
        let net = Network::new(40, Config::ncc0(13));
        let tail = *net.ids_in_path_order().last().unwrap();
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    sweep1(ctx, None, (rctx.id() == tail).then_some(tail), |_, _| {})
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        assert!(result.outputs.iter().all(|(_, v)| v.addr == Some(tail)));
    }

    /// A duplicated `AGGREGATE` folds once: with every message of the run
    /// delivered twice (the establishment's are idempotent), every sweep —
    /// one word, one address, four coupled lanes beside an address — still
    /// ends on the fault-free result, on both engines.
    #[test]
    fn sweeps_fold_each_child_once_under_full_duplication() {
        let n = 37;
        let scenario = Scenario::new(3).duplicate_messages(0..=u64::MAX, 1.0);
        let config = Config::ncc0(16).with_queueing().with_scenario(scenario);
        let net = Network::new(n, config);
        let tail = *net.ids_in_path_order().last().unwrap();
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let total = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        sweep1(ctx, Some(1), None, sum)
                    })
                })
                .unwrap();
            assert!(total.engine.faults_duplicated > 0);
            assert!(total
                .outputs
                .iter()
                .all(|(_, got)| got.words[0] == n as u64));
            let addr = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        sweep1(ctx, None, (rctx.id() == tail).then_some(tail), |_, _| {})
                    })
                })
                .unwrap();
            assert!(addr.outputs.iter().all(|(_, got)| got.addr == Some(tail)));
            let wide = net
                .run_protocol_on(engine, None, None, |_| WithCtx::new(sweep4))
                .unwrap();
            let want = folded(net.ids_in_path_order());
            assert!(wide.outputs.iter().all(|(_, got)| *got == want));
        }
    }

    #[test]
    fn median_is_common_knowledge() {
        for n in [1usize, 2, 9, 24, 31] {
            let net = Network::new(n, Config::ncc0(14));
            let order = net.ids_in_path_order().to_vec();
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let median = (ctx.position == (ctx.vp.len - 1) / 2).then(|| rctx.id());
                        sweep1(ctx, None, median, |_, _| {})
                    })
                })
                .unwrap();
            let want = order[(n - 1) / 2];
            assert!(
                result.outputs.iter().all(|(_, m)| m.addr == Some(want)),
                "n={n}: median mismatch"
            );
        }
    }

    /// Drops every message of sweep round `lost` (counted from the end of
    /// the establishment) of a one-lane sum at n = 64 and returns the node
    /// panic's message, the same on both engines.
    fn panic_of_a_lost_sweep_round(lost: u64) -> String {
        let n = 64;
        let round = crate::ctx::rounds_for(n) + lost;
        let scenario = Scenario::new(9).drop_messages(round..=round, 1.0);
        let net = Network::new(n, Config::ncc0(17).with_scenario(scenario));
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run: Result<RunResult<Swept>, SimError> =
                net.run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        sweep1(ctx, Some(1), None, sum)
                    })
                });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        messages[0].clone()
    }

    /// Every aggregate is due in a known round: losing one is a typed
    /// panic at the parent, and losing a round of the broadcast one at the
    /// children, on both engines — never a short total.
    #[test]
    fn a_lost_aggregate_panics_its_parent() {
        assert_eq!(
            panic_of_a_lost_sweep_round(2),
            "message loss: a reduce parent missed its child's aggregate"
        );
        assert_eq!(
            panic_of_a_lost_sweep_round(rounds_for(64) - 1),
            "message loss: a broadcast child missed its parent's total"
        );
    }
}
