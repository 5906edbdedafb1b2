//! Algorithm 6 / Theorem 18: `O~(Δ)`-round *explicit* threshold
//! realization in NCC0 (hence also NCC1).
//!
//! 1. Sort by `ρ` non-increasing — the class route, the `ρ` past 7 then
//!    ordered in a window of their own, where the capacity takes it, on
//!    an establishment keyed by `ρ`
//!    ([`SortStep::by_class`]; equal `ρ` keep their establishment order,
//!    which any order of equal requirements allows) — and hand each node
//!    its sorted neighbours ([`RankStep`]); the sort leaves `x₁`'s
//!    record, keyed `d₀ = ρ(x₁)`, at position 0, which broadcasts `d₀` and
//!    `x₁`'s address (the broadcast half of a sweep alone: the sweep
//!    tree's depth in rounds, 7 at `n = 2048`, and `n - 1` messages).
//! 2. **Phase 1** over the prefix `x₁ … x_{d₀+1}`: rank `i` connects to
//!    the next `ρ(x_i)` ranks *cyclically* (so `x₁`, with
//!    `ρ(x₁) = d₀ =` prefix−1, connects to the entire prefix). The
//!    announcements travel as a hop-by-hop **token pipeline** around the
//!    prefix cycle (the wrap edge is addressable because `x₁`'s ID was
//!    broadcast).
//! 3. **Phase 2**: every later node `x_i` announces its ID to its
//!    `ρ(x_i)` sorted predecessors — the same token pipeline, running
//!    head-ward on the whole sorted path. Because `ρ` is sorted, node
//!    `x_j` relays at most `ρ(x_j) ≤ Δ` tokens, giving `O(Δ + Δ/cap)`
//!    rounds.
//! 4. Explicitness: every token recipient acknowledges the origin in the
//!    round the token arrives, which the origin can name (a token never
//!    waits), so an origin hears one acknowledgement a round, and both
//!    pipelines end a round after their last hop.
//!
//! **Deviation from the paper** (ARCHITECTURE.md, *Deviations from the
//! paper*): the paper
//! realizes the prefix degrees via the Theorem 13 upper envelope, whose
//! multigraph semantics can leave a node with fewer *distinct* neighbors
//! than its requirement (a real gap — our test suite caught it). The
//! cyclic construction gives every prefix node `ρ` distinct neighbors by
//! construction, preserving the theorem's correctness argument: `x₁` is
//! adjacent to the whole prefix, each `x_i` has `ρ(x_i)` distinct
//! neighbors all adjacent to `x₁`, so `(x_i, x₁)` plus `(x_i, w, x₁)`
//! give `ρ(x_i)` edge-disjoint paths; induction over phase 2 and
//! Menger's theorem complete it. Edges ≤ `Σρ ≤ 2·OPT` as before.
//!
//! [`Ncc0Threshold`] is the construction, each phase a chained [`Step`];
//! `crates/connectivity/tests/batched_ncc0.rs` pins its transcripts on
//! both engines. Its opening (`Prologue`) and its close (`phase2`) are
//! shared with the paper-exact [`Ncc0Exact`](super::ncc0_exact::Ncc0Exact).

use super::ThresholdOutcome;
use dgr_ncc::{tags, NodeId, NodeProtocol, RoundCtx, Status, WireMsg};
use dgr_primitives::ops::{self, SweepStep};
use dgr_primitives::sort::{self, Held, Order, RankStep, SortStep, SortedPath, RANK_ROUNDS};
use dgr_primitives::{ctx, EstablishCtx, Lockstep, PathCtx, Poll, Rounds, Step};

/// Rounds of a whole [`Ncc0Threshold`] run on the requirements `rho`, one
/// a node, at capacity `cap`: the prologue (the establishment, the first
/// sort, the rank epilogue and the `d₀`/`x₁` broadcast), then the
/// phase-1 ring and phase 2, a token pipeline of `d₀` hops each. A single
/// node ends with its establishment.
pub fn rounds_for(rho: &[usize], cap: usize) -> u64 {
    match rho.iter().max() {
        Some(&d0) if rho.len() > 1 => prologue_rounds(rho, cap) + 2 * pipeline_rounds(d0),
        _ => ctx::rounds_for(rho.len()),
    }
}

/// Rounds of the [`Prologue`] on the requirements `rho`, `n ≥ 2` of them,
/// at capacity `cap`: the establishment, the first sort
/// ([`sort::first_rounds_for`], alone in its rounds), the rank epilogue
/// and the `d₀`/`x₁` broadcast.
pub(super) fn prologue_rounds(rho: &[usize], cap: usize) -> u64 {
    let n = rho.len();
    let sort = sort::first_rounds_for(rho.iter().map(|&r| r as u64), cap, 0);
    ctx::rounds_for(n) + sort + RANK_ROUNDS + ops::broadcast_rounds_for(n, cap)
}

/// Number of rounds of a token pipeline whose tokens travel at most
/// `ttl_max` hops, with its acknowledgements: `ttl_max + 1`, because no
/// token ever waits. Every node injects at most one token, at round 0, and
/// hears from one sender alone — its predecessor on the pipeline's path or
/// ring. So, by induction on the round, a node holds at most one token a
/// round, the one injected `t` hops behind it, which it forwards at once:
/// a token moves one hop a round and reaches its recipient `i` hops away in
/// round `i`. That recipient acknowledges the origin in the same round, so
/// an origin hears one acknowledgement a round, in rounds `2 ..= ttl + 1`,
/// the last a round after the token's last hop. (The distinctness patch
/// ring of `ncc0_exact` injects several tokens per node, so its budget
/// keeps a traffic term.)
pub(crate) fn pipeline_rounds(ttl_max: usize) -> u64 {
    ttl_max as u64 + 1
}

/// The token pipeline of Algorithm 6 as a [`Step`]: an injected token
/// `(origin, ttl)` hops along `next_hop` links, each relay recording the
/// origin, acknowledging it and forwarding with `ttl - 1` while positive.
/// Both endpoints of every pipeline edge list each other at the end: the
/// result is the token origins this node relayed, then the recipients
/// that acknowledged its own token.
///
/// Rounds: exactly `pipeline_rounds(ttl_max)` — every participant
/// of the epoch must pass the same `rounds`. A newtype over the clock,
/// not an alias as in `dgr_primitives`: only a type local to this crate
/// can carry `PipelineStep::new`.
#[derive(Debug)]
pub struct PipelineStep(Lockstep<Pipeline>);

#[derive(Debug)]
struct Pipeline {
    next_hop: Option<NodeId>,
    /// The token to forward this round.
    token: Option<(NodeId, u64)>,
    /// The hops of this node's own token, whose acknowledgements land in
    /// rounds `2 ..= ttl + 1`.
    ttl: u64,
    received: Vec<NodeId>,
    acked: Vec<NodeId>,
}

impl PipelineStep {
    /// Builds the step; `inject` starts a token `(my_id, ttl)`.
    pub fn new(
        next_hop: Option<NodeId>,
        inject: Option<usize>,
        rounds: u64,
        my_id: NodeId,
    ) -> Self {
        let ttl = inject.unwrap_or(0) as u64;
        let pipeline = Pipeline {
            next_hop,
            token: (ttl > 0).then_some((my_id, ttl)),
            ttl,
            received: Vec::new(),
            acked: Vec::new(),
        };
        PipelineStep(Lockstep::run(true, rounds, pipeline))
    }
}

impl Step for PipelineStep {
    type Out = Vec<NodeId>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Vec<NodeId>> {
        self.0.poll(ctx)
    }
}

impl Rounds for Pipeline {
    type Out = Vec<NodeId>;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Vec<NodeId>> {
        if t > 0 {
            // One token and one acknowledgement are due a round at most:
            // a second copy in its slot is a duplicate.
            let inbox = ctx.inbox();
            let token = inbox.iter().find(|e| e.msg.tag == tags::EDGE);
            let ack = inbox.iter().find(|e| e.msg.tag == tags::EDGE_ACK);
            if (2..=self.ttl + 1).contains(&t) {
                let ack = ack.expect("message loss: an origin missed an acknowledgement");
                self.acked.push(ack.src);
            }
            if let Some(env) = token {
                let (origin, ttl) = (env.addr(), env.word());
                self.received.push(origin);
                ctx.send(origin, WireMsg::signal(tags::EDGE_ACK));
                self.token = (ttl > 1).then_some((origin, ttl - 1));
            }
        }
        if t == rounds {
            debug_assert!(self.token.is_none(), "pipeline round budget too small");
            self.received.append(&mut self.acked);
            return Poll::Ready(std::mem::take(&mut self.received));
        }
        if let (Some(next), Some((origin, ttl))) = (self.next_hop, self.token.take()) {
            ctx.send(next, WireMsg::addr_word(tags::EDGE, origin, ttl));
        }
        Poll::Pending
    }
}

/// What every node knows once the [`Prologue`] completes.
pub(super) struct Sorted {
    /// The full-network path context.
    pub(super) ctx: PathCtx,
    /// This node's place on the ρ-sorted path.
    pub(super) sp: SortedPath,
    /// `d₀ = ρ(x₁)`, the maximum requirement.
    pub(super) d0: usize,
    /// The address of `x₁`, the rank-0 node.
    pub(super) x1: NodeId,
}

impl Sorted {
    /// Length of the prefix `x₁ … x_{d₀+1}` phase 1 runs on.
    pub(super) fn prefix_len(&self) -> usize {
        (self.d0 + 1).min(self.ctx.vp.len)
    }

    pub(super) fn in_prefix(&self) -> bool {
        self.sp.rank < self.prefix_len()
    }

    /// The cyclic next hop on the prefix ring (the wrap edge addresses
    /// `x₁`, whose ID was broadcast).
    pub(super) fn next_cyclic(&self) -> Option<NodeId> {
        if !self.in_prefix() {
            None
        } else if self.sp.rank + 1 < self.prefix_len() {
            self.sp.vp.succ
        } else {
            Some(self.x1)
        }
    }
}

enum PrologueStage {
    Establish(EstablishCtx),
    Sort(SortStep),
    /// The sort's epilogue: every node learns its rank and sorted path.
    Rank(RankStep),
    /// `(max ρ, x₁'s address)`, the record the sort left at position 0,
    /// in one broadcast from there.
    D0X1(SweepStep),
}

/// Step 1 of Algorithm 6, the opening both machines share: establish the
/// path context keyed by `ρ`, sort by `ρ` non-increasing, broadcast `d₀`
/// and `x₁`'s address (rounds: exactly [`prologue_rounds`]). On a
/// single-node network there is nothing to sort: it completes with the
/// establishment, on `None`.
pub(super) struct Prologue {
    rho: usize,
    stage: PrologueStage,
    ctx: Option<PathCtx>,
    /// The record the sort left here: at position 0, `x₁`'s, keyed `d₀`.
    held: Option<Held>,
    sp: Option<SortedPath>,
}

impl Prologue {
    pub(super) fn new(rho: usize) -> Self {
        Prologue {
            rho,
            stage: PrologueStage::Establish(EstablishCtx::keyed(rho as u64)),
            ctx: None,
            held: None,
            sp: None,
        }
    }

    /// The stage in progress, under the label `Ncc0Exact` narrates it by
    /// (`d0` names the broadcast that also carries `x₁`).
    pub(super) fn label(&self) -> &'static str {
        match self.stage {
            PrologueStage::Establish(_) => "establish",
            PrologueStage::Sort(_) | PrologueStage::Rank(_) => "sort",
            PrologueStage::D0X1(_) => "d0",
        }
    }

    fn ctx(&self) -> &PathCtx {
        self.ctx.as_ref().expect("stage before establish completed")
    }
}

impl Step for Prologue {
    type Out = Option<Sorted>;

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Option<Sorted>> {
        loop {
            match &mut self.stage {
                PrologueStage::Establish(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(ctx) => {
                        if ctx.vp.len == 1 {
                            return Poll::Ready(None);
                        }
                        let (rho, id) = (self.rho as u64, rctx.id());
                        let sort = SortStep::by_class(&ctx, rho, Order::Descending, id, 0);
                        self.stage = PrologueStage::Sort(sort);
                        self.ctx = Some(ctx);
                    }
                },
                PrologueStage::Sort(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(held) => {
                        let ctx = self.ctx();
                        self.stage = PrologueStage::Rank(RankStep::new(ctx.vp, ctx.position, held));
                        self.held = held;
                    }
                },
                PrologueStage::Rank(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(sp) => {
                        self.sp = Some(sp);
                        let ctx = self.ctx();
                        let held = self.held.filter(|_| ctx.position == 0);
                        self.stage = PrologueStage::D0X1(SweepStep::broadcast(
                            ctx.vp,
                            ctx.contacts.clone(),
                            ctx.position,
                            &[held.map_or(0, |h| h.key)],
                            held.map(|h| h.origin),
                        ));
                    }
                },
                PrologueStage::D0X1(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(total) => {
                        return Poll::Ready(Some(Sorted {
                            ctx: self.ctx.take().expect("established above"),
                            sp: self.sp.take().expect("sorted above"),
                            d0: total.words[0] as usize,
                            x1: total.addr.expect("rank 0 announces itself"),
                        }));
                    }
                },
            }
        }
    }
}

/// Step 3 of Algorithm 6, phase 2, the close both machines share: the
/// head-ward pipeline on the whole sorted path, ranks past the prefix
/// injecting `ttl = ρ`, every recipient acknowledging in the round its
/// token arrives (step 4). Its result is the neighbors gained: phase-2
/// origins, then acknowledgement senders.
pub(super) fn phase2(sorted: &Sorted, rho: usize, rctx: &RoundCtx<'_>) -> PipelineStep {
    let inject = (!sorted.in_prefix()).then_some(rho);
    let rounds = pipeline_rounds(sorted.d0);
    PipelineStep::new(sorted.sp.vp.pred, inject, rounds, rctx.id())
}

enum Stage {
    // Boxed: the opening's stage machine dwarfs the pipelines.
    Prologue(Box<Prologue>),
    Phase1(PipelineStep),
    Phase2(PipelineStep),
}

/// The Algorithm 6 state machine at one node. `rho ≥ 1` is this node's
/// requirement; every node runs the same protocol.
pub struct Ncc0Threshold {
    stage: Stage,
    sorted: Option<Sorted>,
    outcome: ThresholdOutcome,
}

impl Ncc0Threshold {
    /// Builds the protocol for one node.
    pub fn new(rho: usize) -> Self {
        Ncc0Threshold {
            stage: Stage::Prologue(Box::new(Prologue::new(rho))),
            sorted: None,
            outcome: ThresholdOutcome {
                rho,
                neighbors: Vec::new(),
            },
        }
    }
}

impl NodeProtocol for Ncc0Threshold {
    type Output = ThresholdOutcome;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> Status<ThresholdOutcome> {
        loop {
            match &mut self.stage {
                Stage::Prologue(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(None) => return Status::Done(std::mem::take(&mut self.outcome)),
                    Poll::Ready(Some(sorted)) => {
                        // Phase 1: cyclic pipeline around the prefix
                        // x₁ … x_{d₀+1}; the wrap hop addresses x₁.
                        let inject = sorted
                            .in_prefix()
                            .then(|| self.outcome.rho.min(sorted.prefix_len() - 1));
                        self.stage = Stage::Phase1(PipelineStep::new(
                            sorted.next_cyclic(),
                            inject,
                            pipeline_rounds(sorted.d0),
                            rctx.id(),
                        ));
                        self.sorted = Some(sorted);
                    }
                },
                Stage::Phase1(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(gained) => {
                        self.outcome.neighbors.extend(gained);
                        let sorted = self.sorted.as_ref().expect("prologue completed");
                        self.stage = Stage::Phase2(phase2(sorted, self.outcome.rho, rctx));
                    }
                },
                Stage::Phase2(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(gained) => {
                        self.outcome.neighbors.extend(gained);
                        return Status::Done(std::mem::take(&mut self.outcome));
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::{realize_for_test, ThresholdAlgo, ThresholdRealization};

    fn realize_ncc0(inst: &ThresholdInstance, config: Config) -> ThresholdRealization {
        realize_for_test(inst, config, ThresholdAlgo::Ncc0Pipeline)
    }
    use crate::{sequential, ThresholdInstance};
    use dgr_ncc::Config;

    #[test]
    fn explicit_realization_meets_thresholds() {
        for rho in [
            vec![1usize, 1, 1, 1],
            vec![2, 2, 2, 2, 2],
            vec![3, 2, 2, 1, 1, 1],
            vec![4, 4, 3, 2, 2, 1, 1, 1, 1, 1],
        ] {
            let inst = ThresholdInstance::new(rho.clone());
            let out = realize_ncc0(&inst, Config::ncc0(71).with_queueing());
            assert!(out.report.satisfied, "{rho:?}: {:?}", out.report);
            assert!(
                out.graph.edge_count() <= inst.sum(),
                "{rho:?}: {} edges, Σρ = {}",
                out.graph.edge_count(),
                inst.sum()
            );
            // 2-approximation against the universal lower bound.
            assert!(out.graph.edge_count() <= 2 * sequential::edge_lower_bound(&inst));
            assert!(out.metrics.undelivered == 0);
        }
    }

    #[test]
    fn explicitness_both_endpoints_list_every_edge() {
        let inst = ThresholdInstance::new(vec![3, 2, 2, 1, 1, 1, 1, 1]);
        let out = realize_ncc0(&inst, Config::ncc0(72).with_queueing());
        // assemble_explicit (inside the driver) already asserts symmetry;
        // double-check degree consistency here.
        for &id in &out.path_order {
            let mut listed = out.explicit_neighbors[&id].clone();
            listed.sort_unstable();
            listed.dedup();
            let mut actual = out.graph.neighbors_of(id);
            actual.sort_unstable();
            assert_eq!(listed, actual, "node {id}");
        }
    }

    #[test]
    fn uniform_high_rho() {
        // Everyone wants connectivity 5 on n = 12.
        let inst = ThresholdInstance::new(vec![5; 12]);
        let out = realize_ncc0(&inst, Config::ncc0(73).with_queueing());
        assert!(out.report.satisfied, "{:?}", out.report);
    }

    #[test]
    fn all_max_rho() {
        // Everyone wants n-1: the realization must be (close to) complete.
        let n = 8;
        let inst = ThresholdInstance::new(vec![n - 1; n]);
        let out = realize_ncc0(&inst, Config::ncc0(74).with_queueing());
        assert!(out.report.satisfied, "{:?}", out.report);
        assert_eq!(out.graph.edge_count(), n * (n - 1) / 2);
    }

    #[test]
    fn the_multigraph_corner_from_the_paper() {
        // The tiered profile that breaks the paper's Theorem-13-based
        // phase 1 (a prefix node ends with fewer distinct neighbors than
        // its requirement under multigraph envelopes). The cyclic phase 1
        // must satisfy it.
        let mut rho = vec![1usize; 48];
        for r in rho.iter_mut().take(4) {
            *r = 6;
        }
        for r in rho.iter_mut().take(20).skip(4) {
            *r = 3;
        }
        let inst = ThresholdInstance::new(rho);
        let out = realize_ncc0(&inst, Config::ncc0(31).with_queueing());
        assert!(out.report.satisfied, "{:?}", out.report);
    }
}
