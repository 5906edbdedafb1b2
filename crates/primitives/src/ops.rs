//! Global computational primitives over the BBST: broadcast, distributive
//! aggregation (Theorem 4) and pipelined token collection (Theorem 5).
//!
//! All operations run on a [`VPath`] + [`Bbst`] pair in a fixed,
//! commonly-computable number of rounds.
//!
//! * **Aggregate + broadcast** ([`AggBcastStep`]): one leaves-to-root
//!   sweep folding every member's value with a distributive aggregate, one
//!   root-to-leaves sweep pushing the total back — every member learns it.
//!   "Leader `ℓ` broadcasts a token" without anyone knowing where `ℓ` sits
//!   in the tree is the same thing with `min` over the (at most one)
//!   present value.
//! * **Address broadcast** ([`BroadcastAddrStep`]): the same two sweeps
//!   with the value in the message *address* field, so KT0 knowledge
//!   tracking sees every node legitimately learn the ID; Corollary 2's
//!   median is the node whose position is `(len - 1) / 2` announcing
//!   itself.
//! * **Collection** ([`CollectStep`], Theorem 5): every member holding a
//!   token sends it to the root, pipelined up the tree in batches of
//!   `cap/2` per node per round, so a parent receives at most `cap` per
//!   round from its two children.

use crate::bbst::{sweep_rounds, Bbst};
use crate::step::{AggOp, Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireEnvelope, WireMsg};
use std::sync::Arc;

/// Number of rounds for an aggregate-broadcast, an address broadcast or
/// the median on a path of `len` nodes (one up sweep + one down sweep) —
/// the Theorem 4 `O(log n)` bound made concrete.
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

/// What a tree sweep carries, and in which field of the message.
#[derive(Clone, Copy, Debug)]
enum Carry {
    /// A data word, folded with the operator.
    Word(AggOp),
    /// The (at most one) holder's address, traveling in the address field
    /// so KT0 tracking sees every hop; absent holders send a bare signal.
    Addr,
}

impl Carry {
    /// Folds a child's `AGGREGATE` into this subtree's accumulator.
    fn fold(self, acc: Option<u64>, env: &WireEnvelope) -> Option<u64> {
        match self {
            Carry::Word(op) => acc.map(|a| op.apply(a, env.word())),
            Carry::Addr => match (acc, env.msg.addrs_slice().first()) {
                (Some(b), Some(&a)) => Some(a.min(b)),
                (acc, theirs) => acc.or(theirs.copied()),
            },
        }
    }

    /// The message carrying `value` under `tag`.
    fn msg(self, tag: u16, value: Option<u64>) -> WireMsg {
        match (self, value) {
            (Carry::Word(_), Some(v)) => WireMsg::word(tag, v),
            (Carry::Addr, Some(a)) => WireMsg::addr(tag, a),
            (_, None) => WireMsg::signal(tag),
        }
    }

    /// The total a `BCAST` delivers.
    fn read(self, env: &WireEnvelope) -> u64 {
        match self {
            Carry::Word(_) => env.word(),
            Carry::Addr => env.addr(),
        }
    }
}

/// The up/down sweep both broadcasts are: one leaves-to-root sweep folding
/// every member's value, one root-to-leaves sweep pushing the total back.
#[derive(Debug)]
struct Sweep {
    vp: VPath,
    tree: Arc<Bbst>,
    carry: Carry,
    t: u64,
    /// This subtree's fold so far (`None`: no address held yet).
    acc: Option<u64>,
    /// Children whose `AGGREGATE` is outstanding. Keyed by sender, so a
    /// duplicated message folds once.
    await_left: bool,
    await_right: bool,
    sent_up: bool,
    got: Option<u64>,
    sent_down: bool,
}

impl Sweep {
    fn new(vp: VPath, tree: Arc<Bbst>, carry: Carry, value: Option<u64>) -> Self {
        Sweep {
            await_left: vp.member && tree.left.is_some(),
            await_right: vp.member && tree.right.is_some(),
            vp,
            tree,
            carry,
            t: 0,
            acc: value,
            sent_up: false,
            got: None,
            sent_down: false,
        }
    }

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<u64> {
        let sweep = sweep_rounds(self.vp.len);
        let rounds = 2 * sweep;
        if !self.vp.member {
            if self.t == rounds {
                return Poll::Ready(0);
            }
            self.t += 1;
            return Poll::Pending;
        }
        if self.t > 0 {
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
                            self.acc = self.carry.fold(self.acc, env);
                        }
                    }
                    tags::BCAST => self.got = Some(self.carry.read(env)),
                    _ => {}
                }
            }
        }
        if self.t == sweep {
            // The up sweep just completed; the root seeds the down sweep.
            debug_assert!(self.sent_up || self.tree.is_root);
            if self.tree.is_root {
                self.got = Some(self.acc.expect("no member held an address"));
            }
            // A childless root has nobody to push the total to.
            self.sent_down = self.tree.is_root && self.tree.child_count() == 0;
        }
        if self.t == rounds {
            return Poll::Ready(self.got.expect("broadcast did not reach node"));
        }
        if self.t < sweep {
            if !(self.await_left || self.await_right || self.sent_up) {
                if let Some(p) = self.tree.parent {
                    ctx.send(p, self.carry.msg(tags::AGGREGATE, self.acc));
                }
                self.sent_up = true;
            }
        } else if let (Some(v), false) = (self.got, self.sent_down) {
            for child in [self.tree.left, self.tree.right].into_iter().flatten() {
                ctx.send(child, self.carry.msg(tags::BCAST, Some(v)));
            }
            self.sent_down = true;
        }
        self.t += 1;
        Poll::Pending
    }
}

/// Aggregate + broadcast (Theorem 4) as a [`Step`]: one up sweep folding
/// `value` with `op`, one down sweep pushing the total to every member.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[derive(Debug)]
pub struct AggBcastStep(Sweep);

impl AggBcastStep {
    /// Builds the step; `value` is this node's contribution.
    pub fn new(vp: VPath, tree: Arc<Bbst>, value: u64, op: AggOp) -> Self {
        AggBcastStep(Sweep::new(vp, tree, Carry::Word(op), Some(value)))
    }
}

impl Step for AggBcastStep {
    type Out = u64;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<u64> {
        self.0.poll(ctx)
    }
}

/// Address broadcast as a [`Step`]: the (at most one) holder's address
/// becomes common knowledge, traveling in the address field so KT0
/// tracking sees every hop.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[derive(Debug)]
pub struct BroadcastAddrStep(Sweep);

impl BroadcastAddrStep {
    /// Builds the step; `value` is `Some` at (at most) one member.
    pub fn new(vp: VPath, tree: Arc<Bbst>, value: Option<NodeId>) -> Self {
        BroadcastAddrStep(Sweep::new(vp, tree, Carry::Addr, value))
    }

    /// The Corollary 2 median broadcast: the node whose `position` is the
    /// median rank announces its own ID.
    pub fn median(vp: VPath, tree: Arc<Bbst>, position: usize, my_id: NodeId) -> Self {
        let target = (vp.len - 1) / 2;
        let mine = (vp.member && position == target).then_some(my_id);
        Self::new(vp, tree, mine)
    }
}

impl Step for BroadcastAddrStep {
    type Out = NodeId;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<NodeId> {
        self.0.poll(ctx)
    }
}

/// Collection (Theorem 5) as a [`Step`]: every member's token pipelined to
/// the root in batches of `cap/2`. Only the root's output is populated.
///
/// Rounds: exactly [`collect_rounds`]`(vp.len, k_bound, capacity)`.
#[derive(Debug)]
pub struct CollectStep {
    vp: VPath,
    tree: Arc<Bbst>,
    k_bound: usize,
    t: u64,
    buffer: Vec<(NodeId, u64)>,
    collected: Vec<(NodeId, u64)>,
}

impl CollectStep {
    /// Builds the step; `token` is this node's contribution, `k_bound` a
    /// commonly known upper bound on the total token count, `my_id` the
    /// node's own ID.
    pub fn new(
        vp: VPath,
        tree: Arc<Bbst>,
        token: Option<u64>,
        k_bound: usize,
        my_id: NodeId,
    ) -> Self {
        let mut buffer = Vec::new();
        if vp.member {
            if let Some(t) = token {
                buffer.push((my_id, t));
            }
        }
        CollectStep {
            vp,
            tree,
            k_bound,
            t: 0,
            buffer,
            collected: Vec::new(),
        }
    }
}

impl Step for CollectStep {
    type Out = Vec<(NodeId, u64)>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Vec<(NodeId, u64)>> {
        let cap = ctx.capacity();
        let rounds = collect_rounds(self.vp.len, self.k_bound, cap);
        if !self.vp.member {
            if self.t == rounds {
                return Poll::Ready(Vec::new());
            }
            self.t += 1;
            return Poll::Pending;
        }
        if self.t > 0 {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::COLLECT) {
                let pair = (env.addr(), env.word());
                if self.tree.is_root {
                    self.collected.push(pair);
                } else {
                    self.buffer.push(pair);
                }
            }
        }
        if self.t == rounds {
            if self.tree.is_root {
                self.collected.append(&mut self.buffer);
                self.collected.sort_unstable();
            } else {
                debug_assert!(self.buffer.is_empty(), "collection round budget too small");
            }
            return Poll::Ready(std::mem::take(&mut self.collected));
        }
        let batch = (cap / 2).max(1);
        if let Some(p) = self.tree.parent {
            for (origin, value) in self.buffer.drain(..self.buffer.len().min(batch)) {
                ctx.send(p, WireMsg::addr_word(tags::COLLECT, origin, value));
            }
        }
        self.t += 1;
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathCtx, WithCtx};
    use dgr_ncc::{Config, EngineKind, Network, Scenario};

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
    /// run delivered twice (the establishment's are idempotent), both
    /// sweeps still end on the fault-free result, on both engines.
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
                    CollectStep::new(ctx.vp, ctx.tree.clone(), token, k_bound, rctx.id())
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
