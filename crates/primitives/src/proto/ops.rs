//! The global tree operations of [`ops`](crate::ops) as steps:
//! aggregate + broadcast (Theorem 4), single-holder
//! address broadcast, the median, and pipelined collection (Theorem 5).

use crate::bbst::{sweep_rounds, Bbst};
use crate::proto::step::{AggOp, Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// Aggregate + broadcast (Theorem 4) as a [`Step`]: one up sweep folding `value` with `op`, one down sweep pushing
/// the total to every member.
///
/// Rounds: exactly [`ops::rounds_for`](crate::ops::rounds_for)`(vp.len)`.
#[derive(Debug)]
pub struct AggBcastStep {
    vp: VPath,
    tree: Arc<Bbst>,
    op: AggOp,
    t: u64,
    acc: u64,
    pending: usize,
    sent_up: bool,
    got: Option<u64>,
    sent_down: bool,
}

impl AggBcastStep {
    /// Builds the step; `value` is this node's contribution.
    pub fn new(vp: VPath, tree: Arc<Bbst>, value: u64, op: AggOp) -> Self {
        let pending = if vp.member { tree.child_count() } else { 0 };
        AggBcastStep {
            vp,
            tree,
            op,
            t: 0,
            acc: value,
            pending,
            sent_up: false,
            got: None,
            sent_down: false,
        }
    }
}

impl Step for AggBcastStep {
    type Out = u64;

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
                        self.acc = self.op.apply(self.acc, env.word());
                        self.pending -= 1;
                    }
                    tags::BCAST => self.got = Some(env.word()),
                    _ => {}
                }
            }
        }
        if self.t == sweep {
            // The up sweep just completed; the root seeds the down sweep.
            debug_assert!(self.sent_up || self.tree.is_root);
            if self.tree.is_root {
                self.got = Some(self.acc);
            }
            // Mirror broadcast_down's initial `sent` for a childless root.
            self.sent_down = self.tree.is_root && self.tree.child_count() == 0;
        }
        if self.t == rounds {
            return Poll::Ready(self.got.expect("broadcast did not reach node"));
        }
        if self.t < sweep {
            if self.pending == 0 && !self.sent_up {
                if let Some(p) = self.tree.parent {
                    ctx.send(p, WireMsg::word(tags::AGGREGATE, self.acc));
                }
                self.sent_up = true;
            }
        } else if let (Some(v), false) = (self.got, self.sent_down) {
            for child in [self.tree.left, self.tree.right].into_iter().flatten() {
                ctx.send(child, WireMsg::word(tags::BCAST, v));
            }
            self.sent_down = true;
        }
        self.t += 1;
        Poll::Pending
    }
}

/// Address broadcast as a [`Step`]: the (at most one) holder's address becomes common knowledge, traveling in
/// the address field so KT0 tracking sees every hop.
///
/// Rounds: exactly [`ops::rounds_for`](crate::ops::rounds_for)`(vp.len)`.
#[derive(Debug)]
pub struct BroadcastAddrStep {
    vp: VPath,
    tree: Arc<Bbst>,
    t: u64,
    acc: Option<NodeId>,
    pending: usize,
    sent_up: bool,
    got: Option<NodeId>,
    sent_down: bool,
}

impl BroadcastAddrStep {
    /// Builds the step; `value` is `Some` at (at most) one member.
    pub fn new(vp: VPath, tree: Arc<Bbst>, value: Option<NodeId>) -> Self {
        let pending = if vp.member { tree.child_count() } else { 0 };
        BroadcastAddrStep {
            vp,
            tree,
            t: 0,
            acc: value,
            pending,
            sent_up: false,
            got: None,
            sent_down: false,
        }
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
                        if let Some(&a) = env.msg.addrs_slice().first() {
                            self.acc = Some(match self.acc {
                                Some(b) => a.min(b),
                                None => a,
                            });
                        }
                        self.pending -= 1;
                    }
                    tags::BCAST => self.got = Some(env.addr()),
                    _ => {}
                }
            }
        }
        if self.t == sweep {
            if self.tree.is_root {
                self.got = Some(self.acc.expect("broadcast_addr: no member held an address"));
            }
            self.sent_down = self.tree.is_root && self.tree.child_count() == 0;
        }
        if self.t == rounds {
            return Poll::Ready(self.got.expect("broadcast_addr did not reach node"));
        }
        if self.t < sweep {
            if self.pending == 0 && !self.sent_up {
                if let Some(p) = self.tree.parent {
                    let msg = match self.acc {
                        Some(a) => WireMsg::addr(tags::AGGREGATE, a),
                        None => WireMsg::signal(tags::AGGREGATE),
                    };
                    ctx.send(p, msg);
                }
                self.sent_up = true;
            }
        } else if let (Some(a), false) = (self.got, self.sent_down) {
            for child in [self.tree.left, self.tree.right].into_iter().flatten() {
                ctx.send(child, WireMsg::addr(tags::BCAST, a));
            }
            self.sent_down = true;
        }
        self.t += 1;
        Poll::Pending
    }
}

/// Collection (Theorem 5) as a [`Step`]: every member's
/// token pipelined to the root in batches of `cap/2` (Theorem 5). Only the
/// root's output is populated.
///
/// Rounds: exactly [`ops::collect_rounds`](crate::ops::collect_rounds)`
/// (vp.len, k_bound, capacity)`.
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
        let rounds = crate::ops::collect_rounds(self.vp.len, self.k_bound, cap);
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
