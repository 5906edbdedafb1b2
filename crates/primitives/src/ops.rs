//! Global computational primitives over the BBST: broadcast, distributive
//! aggregation (Theorem 4) and pipelined token collection (Theorem 5).
//!
//! All operations run on a [`VPath`] + [`Bbst`] pair in a fixed,
//! commonly-computable number of rounds.
//!
//! * **Sweep** ([`SweepStep`]): one leaves-to-root sweep folding every
//!   member's contribution, one root-to-leaves sweep pushing the total
//!   back — every member learns it. A contribution is what one message
//!   holds: up to [`WIRE_WORDS`] data words under one [`Fold`], and the
//!   (at most one) held address, which travels in the *address* field so
//!   KT0 tracking sees every node legitimately learn the ID. Independent
//!   aggregations of one tree share a sweep instead of paying one each.
//! * **Aggregate + broadcast** ([`AggBcastStep`]): the one-word sweep under
//!   an [`AggOp`]. "Leader `ℓ` broadcasts a token" without anyone knowing
//!   where `ℓ` sits in the tree is `min` over the (at most one) value.
//! * **Address broadcast** ([`BroadcastAddrStep`]): the address-only
//!   sweep; Corollary 2's median is the node whose position is
//!   `(len - 1) / 2` announcing itself.
//! * **Collection** ([`CollectStep`], Theorem 5): every member holding a
//!   token sends it to the root, pipelined up the tree in batches of
//!   `cap/2` per node per round, so a parent receives at most `cap` per
//!   round from its two children.

use crate::bbst::{sweep_rounds, Bbst};
use crate::step::{AggOp, Lockstep, Poll, Rounds, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireEnvelope, WireMsg, WIRE_WORDS};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Number of rounds for a sweep (an aggregate-broadcast, an address
/// broadcast, the median) on a path of `len` nodes: one up sweep + one
/// down sweep — the Theorem 4 `O(log n)` bound made concrete.
pub fn rounds_for(len: usize) -> u64 {
    2 * sweep_rounds(len)
}

/// Number of rounds for a collection of up to `k_bound` tokens (a commonly
/// known bound — callers typically obtain it by an aggregate-broadcast
/// count first) on a path of `len` nodes, at per-round capacity `cap` — the
/// Theorem 5 `O(k + log n)` bound made concrete.
pub fn collect_rounds(len: usize, k_bound: usize, cap: usize) -> u64 {
    let batch = (cap / 2).max(1) as u64;
    sweep_rounds(len) + (k_bound as u64).div_ceil(batch) + 2
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

/// The up/down tree sweep (Theorem 4) as a [`Step`].
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`, whatever the width: the lanes
/// are one message's data words (more than
/// [`Config::max_words`](dgr_ncc::Config::max_words) of them is a
/// `MessageTooLarge` violation), the address rides the address field.
pub type SweepStep = Lockstep<Sweep>;

/// [`SweepStep`]'s member rounds: the up sweep, then the down sweep.
#[derive(Debug)]
pub struct Sweep {
    tree: Arc<Bbst>,
    lanes: usize,
    fold: Fold,
    /// This subtree's fold so far.
    acc: Swept,
    /// Children whose `AGGREGATE` is outstanding. Keyed by sender, so a
    /// duplicated message folds once.
    await_left: bool,
    await_right: bool,
    sent_up: bool,
    got: Option<Swept>,
    sent_down: bool,
}

impl SweepStep {
    /// Builds the step; `words` (one per lane, the same count at every
    /// node) and `addr` are this node's contribution.
    ///
    /// # Panics
    ///
    /// Panics if more than [`WIRE_WORDS`] words are given.
    pub fn new(
        vp: VPath,
        tree: Arc<Bbst>,
        words: &[u64],
        addr: Option<NodeId>,
        fold: Fold,
    ) -> Self {
        let sweep = Sweep {
            await_left: tree.left.is_some(),
            await_right: tree.right.is_some(),
            tree,
            lanes: words.len(),
            fold,
            acc: Swept::new(words, addr),
            sent_up: false,
            got: None,
            sent_down: false,
        };
        Lockstep::run(vp.member, rounds_for(vp.len), sweep)
    }
}

impl Sweep {
    /// The message carrying `value` under `tag`.
    fn msg(&self, tag: u16, value: &Swept) -> WireMsg {
        let msg = WireMsg::words(tag, &value.words[..self.lanes]);
        value.addr.map_or(msg, |a| msg.with_addr(a))
    }

    /// Folds a child's `AGGREGATE` into this subtree's accumulator.
    fn fold_child(&mut self, env: &WireEnvelope) {
        let theirs = Swept::of(&env.msg);
        (self.fold)(&mut self.acc.words, &theirs.words);
        self.acc.addr = [self.acc.addr, theirs.addr].into_iter().flatten().min();
    }
}

impl Rounds for Sweep {
    type Out = Swept;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Swept> {
        let sweep = rounds / 2;
        if t > 0 {
            for env in ctx.inbox() {
                match env.msg.tag {
                    tags::AGGREGATE => {
                        let awaited = if Some(env.src) == self.tree.left {
                            &mut self.await_left
                        } else if Some(env.src) == self.tree.right {
                            &mut self.await_right
                        } else {
                            continue;
                        };
                        if std::mem::take(awaited) {
                            self.fold_child(env);
                        }
                    }
                    tags::BCAST => self.got = Some(Swept::of(&env.msg)),
                    _ => {}
                }
            }
        }
        if t == sweep {
            // The up sweep just completed; the root seeds the down sweep.
            debug_assert!(self.sent_up || self.tree.is_root);
            if self.tree.is_root {
                self.got = Some(self.acc);
            }
            // A childless root has nobody to push the total to.
            self.sent_down = self.tree.is_root && self.tree.child_count() == 0;
        }
        if t == rounds {
            return Poll::Ready(self.got.expect("broadcast did not reach node"));
        }
        if t < sweep {
            if !(self.await_left || self.await_right || self.sent_up) {
                if let Some(p) = self.tree.parent {
                    ctx.send(p, self.msg(tags::AGGREGATE, &self.acc));
                }
                self.sent_up = true;
            }
        } else if let (Some(total), false) = (self.got, self.sent_down) {
            for child in [self.tree.left, self.tree.right].into_iter().flatten() {
                ctx.send(child, self.msg(tags::BCAST, &total));
            }
            self.sent_down = true;
        }
        Poll::Pending
    }
}

/// Aggregate + broadcast (Theorem 4) as a [`Step`]: the one-word
/// [`SweepStep`], folding `value` with `op`.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[derive(Debug)]
pub struct AggBcastStep(SweepStep);

impl AggBcastStep {
    /// Builds the step; `value` is this node's contribution.
    pub fn new(vp: VPath, tree: Arc<Bbst>, value: u64, op: AggOp) -> Self {
        let fold: Fold = match op {
            AggOp::Sum => |acc, x| acc[0] = AggOp::Sum.apply(acc[0], x[0]),
            AggOp::Max => |acc, x| acc[0] = AggOp::Max.apply(acc[0], x[0]),
            AggOp::Min => |acc, x| acc[0] = AggOp::Min.apply(acc[0], x[0]),
        };
        AggBcastStep(SweepStep::new(vp, tree, &[value], None, fold))
    }
}

impl Step for AggBcastStep {
    type Out = u64;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<u64> {
        self.0.poll(ctx).map(|total| total.words[0])
    }
}

/// Address broadcast as a [`Step`]: the address-only [`SweepStep`] — the
/// (at most one) holder's address becomes common knowledge; members of a
/// subtree without the holder send a bare signal.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type BroadcastAddrStep = Lockstep<BroadcastAddr>;

/// [`BroadcastAddrStep`]'s member rounds.
#[derive(Debug)]
pub struct BroadcastAddr(Sweep);

impl BroadcastAddrStep {
    /// Builds the step; `value` is `Some` at (at most) one member.
    pub fn new(vp: VPath, tree: Arc<Bbst>, value: Option<NodeId>) -> Self {
        let sweep = SweepStep::new(vp, tree, &[], value, |_, _| {}).inner;
        Lockstep::run(vp.member, rounds_for(vp.len), BroadcastAddr(sweep))
    }

    /// The Corollary 2 median broadcast: the node whose `position` is the
    /// median rank announces its own ID.
    pub fn median(vp: VPath, tree: Arc<Bbst>, position: usize, my_id: NodeId) -> Self {
        let target = (vp.len - 1) / 2;
        let mine = (position == target).then_some(my_id);
        Self::new(vp, tree, mine)
    }
}

impl Rounds for BroadcastAddr {
    type Out = NodeId;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<NodeId> {
        let swept = self.0.poll(t, rounds, ctx);
        swept.map(|total| total.addr.expect("no member held an address"))
    }
}

/// Collection (Theorem 5) as a [`Step`]: every member's token pipelined to
/// the root in batches of `cap/2`. Only the root's output is populated.
///
/// Rounds: exactly [`collect_rounds`]`(vp.len, k_bound, cap)`.
pub type CollectStep = Lockstep<Collect>;

/// [`CollectStep`]'s member rounds.
#[derive(Debug)]
pub struct Collect {
    tree: Arc<Bbst>,
    batch: usize,
    buffer: Vec<(NodeId, u64)>,
    collected: Vec<(NodeId, u64)>,
    /// Origins whose token this node has taken in. Keyed by origin, so a
    /// duplicated `COLLECT` is collected once.
    seen: BTreeSet<NodeId>,
}

impl CollectStep {
    /// Builds the step; `token` is this node's contribution, `k_bound` a
    /// commonly known upper bound on the total token count, `cap` the
    /// per-round capacity, `my_id` the node's own ID.
    pub fn new(
        vp: VPath,
        tree: Arc<Bbst>,
        token: Option<u64>,
        k_bound: usize,
        cap: usize,
        my_id: NodeId,
    ) -> Self {
        let collect = Collect {
            tree,
            batch: (cap / 2).max(1),
            buffer: token.map(|t| (my_id, t)).into_iter().collect(),
            collected: Vec::new(),
            seen: BTreeSet::new(),
        };
        let rounds = collect_rounds(vp.len, k_bound, cap);
        Lockstep::run(vp.member, rounds, collect)
    }
}

impl Rounds for Collect {
    type Out = Vec<(NodeId, u64)>;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        if t > 0 {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::COLLECT) {
                let pair = (env.addr(), env.word());
                if !self.seen.insert(pair.0) {
                    continue;
                }
                if self.tree.is_root {
                    self.collected.push(pair);
                } else {
                    self.buffer.push(pair);
                }
            }
        }
        if t == rounds {
            if self.tree.is_root {
                self.collected.append(&mut self.buffer);
                self.collected.sort_unstable();
            } else {
                debug_assert!(self.buffer.is_empty(), "collection round budget too small");
            }
            return Poll::Ready(std::mem::take(&mut self.collected));
        }
        if let Some(p) = self.tree.parent {
            for (origin, value) in self.buffer.drain(..self.buffer.len().min(self.batch)) {
                ctx.send(p, WireMsg::addr_word(tags::COLLECT, origin, value));
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathCtx, WithCtx};
    use dgr_ncc::{CapacityPolicy, Config, EngineKind, Network, Scenario, SimError, ViolationKind};

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
        SweepStep::new(ctx.vp, ctx.tree.clone(), &words, addr, fold4)
    }

    #[test]
    fn multi_lane_sweep_matches_a_sequential_fold() {
        for (n, seed) in [(1usize, 21u64), (2, 22), (45, 23), (128, 24)] {
            let net = Network::new(n, Config::ncc0(seed));
            let want = folded(net.ids_in_path_order());
            let result = net.run_protocol(|_| WithCtx::new(sweep4)).unwrap();
            // Tracking is on: the folded address spread legally.
            assert!(result.metrics.is_clean());
            assert!(result.outputs.iter().all(|(_, got)| *got == want), "n={n}");
            let alone = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        AggBcastStep::new(ctx.vp, ctx.tree.clone(), 0, AggOp::Max)
                    })
                })
                .unwrap();
            assert_eq!(result.metrics.rounds, alone.metrics.rounds, "width is free");
            assert_eq!(result.metrics.messages, alone.metrics.messages);
        }
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
            (AggOp::Sum, ids.iter().map(|i| i % 100).sum::<u64>()),
            (AggOp::Max, ids.iter().map(|i| i % 100).max().unwrap()),
        ];
        for (op, want) in wants {
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        AggBcastStep::new(ctx.vp, ctx.tree.clone(), rctx.id() % 100, op)
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean());
            assert!(result.outputs.iter().all(|(_, got)| *got == want), "{op:?}");
        }
    }

    #[test]
    fn broadcast_word_reaches_everyone_from_any_holder() {
        // "Leader broadcasts a token" without anyone knowing where the
        // leader sits in the tree: a minimum over (present) values, with
        // u64::MAX as the identity.
        let net = Network::new(33, Config::ncc0(12));
        let holder = net.ids_in_path_order()[17]; // arbitrary interior node
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let value = if rctx.id() == holder { 777 } else { u64::MAX };
                    AggBcastStep::new(ctx.vp, ctx.tree.clone(), value, AggOp::Min)
                })
            })
            .unwrap();
        assert!(result.outputs.iter().all(|(_, v)| *v == 777));
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
                    let value = (rctx.id() == tail).then_some(tail);
                    BroadcastAddrStep::new(ctx.vp, ctx.tree.clone(), value)
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        assert!(result.outputs.iter().all(|(_, v)| *v == tail));
    }

    /// A duplicated child `AGGREGATE` folds once: with every message of the
    /// run delivered twice (the establishment's are idempotent), every
    /// sweep — one word, one address, four coupled lanes beside an address
    /// — still ends on the fault-free result, on both engines.
    #[test]
    fn sweeps_fold_each_child_once_under_full_duplication() {
        let n = 37;
        let scenario = Scenario::new(3).duplicate_messages(0..=u64::MAX, 1.0);
        let config = Config::ncc0(16).with_queueing().with_scenario(scenario);
        let net = Network::new(n, config);
        let tail = *net.ids_in_path_order().last().unwrap();
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let sum = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        AggBcastStep::new(ctx.vp, ctx.tree.clone(), 1, AggOp::Sum)
                    })
                })
                .unwrap();
            assert!(sum.engine.faults_duplicated > 0);
            assert!(sum.outputs.iter().all(|(_, got)| *got == n as u64));
            let addr = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let value = (rctx.id() == tail).then_some(tail);
                        BroadcastAddrStep::new(ctx.vp, ctx.tree.clone(), value)
                    })
                })
                .unwrap();
            assert!(addr.outputs.iter().all(|(_, got)| *got == tail));
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
                        let tree = ctx.tree.clone();
                        BroadcastAddrStep::median(ctx.vp, tree, ctx.position, rctx.id())
                    })
                })
                .unwrap();
            let want = order[(n - 1) / 2];
            assert!(
                result.outputs.iter().all(|(_, m)| *m == want),
                "n={n}: median mismatch"
            );
        }
    }

    #[test]
    fn collect_gathers_all_tokens_at_root() {
        let net = Network::new(60, Config::ncc0(15));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    // Every third position holds a token.
                    let token = ctx
                        .position
                        .is_multiple_of(3)
                        .then_some(ctx.position as u64);
                    let k_bound = 60usize.div_ceil(3);
                    CollectStep::new(
                        ctx.vp,
                        ctx.tree.clone(),
                        token,
                        k_bound,
                        rctx.capacity(),
                        rctx.id(),
                    )
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        let order = net.ids_in_path_order();
        let mut want: Vec<(u64, u64)> = (0..60)
            .filter(|p| p % 3 == 0)
            .map(|p| (order[p], p as u64))
            .collect();
        want.sort_unstable();
        // The root of the tree is the head of the path; only it collects.
        assert_eq!(result.outputs[0].1, want);
        assert!(result.outputs[1..].iter().all(|(_, got)| got.is_empty()));
    }

    #[test]
    fn theorem5_rounds_scale_linearly_in_k() {
        // collect_rounds is Θ(k/cap + log n): doubling k roughly doubles
        // the k-term.
        let cap = 8;
        let base = collect_rounds(256, 0, cap);
        let r1 = collect_rounds(256, 64, cap) - base;
        let r2 = collect_rounds(256, 128, cap) - base;
        assert_eq!(r1 * 2, r2);
    }
}
