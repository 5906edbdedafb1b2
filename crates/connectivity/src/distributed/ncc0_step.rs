//! Algorithm 6 / Theorem 18: the NCC0 explicit threshold construction as
//! a step-function protocol.
//!
//! The construction [`ncc0`](super::ncc0) describes — sort by `ρ`,
//! broadcast `d₀` and `x₁`, the cyclic prefix pipeline, the head-ward
//! phase-2 pipeline, the staggered explicitness replies — with each phase
//! a chained [`Step`] sub-protocol; it reproduces, on both engines, the
//! transcripts of the direct-style original it was ported from (frozen in
//! `crates/connectivity/tests/batched_ncc0.rs`). Run it under a queueing
//! capacity policy; the staggered replies rely on receive-side queueing.
//!
//! [`Step`]: dgr_primitives::proto::Step

use super::ncc0::pipeline_rounds;
use super::ThresholdOutcome;
use dgr_ncc::{tags, NodeId, NodeProtocol, RoundCtx, Status, WireMsg};
use dgr_primitives::proto::ops::{AggBcastStep, BroadcastAddrStep};
use dgr_primitives::proto::sort::SortStep;
use dgr_primitives::proto::stagger::StaggerStep;
use dgr_primitives::proto::step::{AggOp, Poll, Step};
use dgr_primitives::proto::EstablishCtx;
use dgr_primitives::sort::{Order, SortedPath};
use dgr_primitives::{stagger, PathCtx};
use std::collections::VecDeque;

/// The token pipeline of Algorithm 6 as a [`Step`]: an injected token
/// `(origin, ttl)` hops along `next_hop` links, each relay recording the
/// origin and forwarding with `ttl - 1` while positive, at most `batch`
/// forwards per round.
///
/// Rounds: exactly `pipeline_rounds(ttl_max, batch)` — every participant
/// of the epoch must pass the same `rounds`.
#[derive(Debug)]
pub struct PipelineStep {
    next_hop: Option<NodeId>,
    rounds: u64,
    batch: usize,
    t: u64,
    queue: VecDeque<(NodeId, u64)>,
    received: Vec<NodeId>,
}

impl PipelineStep {
    /// Builds the step; `inject` starts a token `(my_id, ttl)`.
    pub fn new(
        next_hop: Option<NodeId>,
        inject: Option<usize>,
        rounds: u64,
        batch: usize,
        my_id: NodeId,
    ) -> Self {
        let mut queue = VecDeque::new();
        if let Some(ttl) = inject {
            if ttl > 0 {
                queue.push_back((my_id, ttl as u64));
            }
        }
        PipelineStep {
            next_hop,
            rounds,
            batch,
            t: 0,
            queue,
            received: Vec::new(),
        }
    }
}

impl Step for PipelineStep {
    type Out = Vec<NodeId>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Vec<NodeId>> {
        if self.t > 0 {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::EDGE) {
                let origin = env.addr();
                let ttl = env.word();
                self.received.push(origin);
                if ttl > 1 {
                    self.queue.push_back((origin, ttl - 1));
                }
            }
        }
        if self.t == self.rounds {
            debug_assert!(self.queue.is_empty(), "pipeline round budget too small");
            return Poll::Ready(std::mem::take(&mut self.received));
        }
        if let Some(next) = self.next_hop {
            for _ in 0..self.batch.min(self.queue.len()) {
                let (origin, ttl) = self.queue.pop_front().unwrap();
                ctx.send(next, WireMsg::addr_word(tags::EDGE, origin, ttl));
            }
        }
        self.t += 1;
        Poll::Pending
    }
}

enum Stage {
    Establish(EstablishCtx),
    Sort(SortStep),
    D0(AggBcastStep),
    X1(BroadcastAddrStep),
    Phase1(PipelineStep),
    Phase2(PipelineStep),
    Acks(StaggerStep),
}

/// The Algorithm 6 state machine at one node. `rho ≥ 1` is this node's
/// requirement; every node runs the same protocol.
pub struct Ncc0Threshold {
    rho: usize,
    sort: dgr_primitives::sort::SortBackend,
    stage: Stage,
    ctx: Option<PathCtx>,
    sp: Option<SortedPath>,
    d0: usize,
    outcome: ThresholdOutcome,
    phase1: Vec<NodeId>,
}

impl Ncc0Threshold {
    /// Builds the protocol for one node (bitonic Theorem 3 backend).
    pub fn new(rho: usize) -> Self {
        Self::with_sort(rho, dgr_primitives::sort::SortBackend::Bitonic)
    }

    /// Builds the protocol with an explicit backend for the ρ sort.
    pub fn with_sort(rho: usize, sort: dgr_primitives::sort::SortBackend) -> Self {
        Ncc0Threshold {
            rho,
            sort,
            stage: Stage::Establish(EstablishCtx::new()),
            ctx: None,
            sp: None,
            d0: 0,
            outcome: ThresholdOutcome {
                rho,
                neighbors: Vec::new(),
            },
            phase1: Vec::new(),
        }
    }

    fn ctx(&self) -> &PathCtx {
        self.ctx.as_ref().expect("stage before establish completed")
    }

    fn rank(&self) -> usize {
        self.sp.as_ref().expect("stage before sort completed").rank
    }
}

impl NodeProtocol for Ncc0Threshold {
    type Output = ThresholdOutcome;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> Status<ThresholdOutcome> {
        loop {
            match &mut self.stage {
                Stage::Establish(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(ctx) => {
                        if ctx.vp.len == 1 {
                            return Status::Done(std::mem::take(&mut self.outcome));
                        }
                        self.stage = Stage::Sort(SortStep::on_ctx(
                            &ctx,
                            self.rho as u64,
                            Order::Descending,
                            rctx.id(),
                            self.sort,
                        ));
                        self.ctx = Some(ctx);
                    }
                },
                Stage::Sort(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(sp) => {
                        self.sp = Some(sp);
                        let ctx = self.ctx();
                        self.stage = Stage::D0(AggBcastStep::new(
                            ctx.vp,
                            ctx.tree.clone(),
                            self.rho as u64,
                            AggOp::Max,
                        ));
                    }
                },
                Stage::D0(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(d0) => {
                        self.d0 = d0 as usize;
                        let ctx = self.ctx();
                        let mine = (self.rank() == 0).then(|| rctx.id());
                        self.stage =
                            Stage::X1(BroadcastAddrStep::new(ctx.vp, ctx.tree.clone(), mine));
                    }
                },
                Stage::X1(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(x1) => {
                        // Phase 1: cyclic pipeline around the prefix
                        // x₁ … x_{d₀+1}; the wrap hop addresses x₁.
                        let n = self.ctx().vp.len;
                        let prefix_len = (self.d0 + 1).min(n);
                        let rank = self.rank();
                        let in_prefix = rank < prefix_len;
                        let b = (rctx.capacity() / 2).max(1);
                        let sp = self.sp.as_ref().unwrap();
                        let next_cyclic = if in_prefix {
                            if rank + 1 < prefix_len {
                                sp.vp.succ
                            } else {
                                Some(x1)
                            }
                        } else {
                            None
                        };
                        let inject = in_prefix.then(|| self.rho.min(prefix_len - 1));
                        let rounds = pipeline_rounds(self.d0, b);
                        self.stage = Stage::Phase1(PipelineStep::new(
                            next_cyclic,
                            inject,
                            rounds,
                            b,
                            rctx.id(),
                        ));
                    }
                },
                Stage::Phase1(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(received) => {
                        self.outcome.neighbors.extend(received.iter().copied());
                        self.phase1 = received;
                        // Phase 2: head-ward pipeline on the whole sorted
                        // path; ranks past the prefix inject ttl = ρ.
                        let n = self.ctx().vp.len;
                        let prefix_len = (self.d0 + 1).min(n);
                        let in_prefix = self.rank() < prefix_len;
                        let b = (rctx.capacity() / 2).max(1);
                        let inject = (!in_prefix).then_some(self.rho);
                        let rounds = pipeline_rounds(self.d0, b);
                        let pred = self.sp.as_ref().unwrap().vp.pred;
                        self.stage =
                            Stage::Phase2(PipelineStep::new(pred, inject, rounds, b, rctx.id()));
                    }
                },
                Stage::Phase2(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(received) => {
                        self.outcome.neighbors.extend(received.iter().copied());
                        // Explicitness: every token recipient answers with
                        // its own ID. Fan-in per initiator ≤ d₀.
                        let (spread, drain) = stagger::plan(self.d0, rctx.capacity());
                        let replies = self
                            .phase1
                            .iter()
                            .chain(received.iter())
                            .map(|&origin| (origin, WireMsg::signal(tags::EDGE_ACK)))
                            .collect();
                        self.stage = Stage::Acks(StaggerStep::new(replies, spread, drain));
                    }
                },
                Stage::Acks(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(acks) => {
                        self.outcome.neighbors.extend(
                            acks.iter()
                                .filter(|(_, msg)| msg.tag == tags::EDGE_ACK)
                                .map(|(src, _)| *src),
                        );
                        return Status::Done(std::mem::take(&mut self.outcome));
                    }
                },
            }
        }
    }
}
