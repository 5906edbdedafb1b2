//! The **paper-exact** Algorithm 6 as one batched protocol: phase 1 via
//! the masked prefix envelope recursion, the phase-2 head-ward pipeline,
//! and the staggered explicitness acknowledgements — composed end to end.
//!
//! [`Ncc0Threshold`](super::ncc0_step::Ncc0Threshold) substitutes a
//! cyclic token pipeline for phase 1 (see `ncc0.rs` for why that
//! deviation is the *default*: the paper's Theorem 13 envelope has
//! multigraph semantics, so a prefix node can end up with fewer
//! *distinct* neighbors than its requirement). This protocol instead
//! follows the paper to the letter and then **closes that gap
//! explicitly**:
//!
//! 1. establish, sort by `ρ` non-increasing, broadcast `d₀` and `x₁` —
//!    identical to the default driver;
//! 2. **phase 1, paper-exact**: the prefix `x₁ … x_{d₀+1}` of the sorted
//!    path becomes a sub-path (everyone else holds a non-member view),
//!    the full context is re-established on it, and the Theorem 13
//!    upper-envelope realization runs *on the sub-network* as a
//!    [`DegreesCore`] whose control aggregations (δ, N, the error flag)
//!    ride the **full-network** tree — so all `n` nodes, prefix or not,
//!    stay in lockstep with the recursion's data-dependent phase loop;
//! 3. **distinctness patch**: phase-1 edges are made explicit right away
//!    (staggered acknowledgements), so every prefix node holds its
//!    complete two-sided list; the maximum shortfall (requirement minus
//!    distinct phase-1 neighbors) is then aggregated, and when positive,
//!    each short node injects that many tokens into the prefix ring — a
//!    token hops until it finds a node that is not yet a neighbor of its
//!    origin (a pigeonhole argument over `ρ ≤ n-1` guarantees one within
//!    the ring, and complete lists make the freshness check exact);
//! 4. **phase 2**: every node past the prefix announces itself to its
//!    `ρ` sorted predecessors through the head-ward token pipeline —
//!    exactly the default driver's stage;
//! 5. **explicitness**: the patch and pipeline edge holders acknowledge
//!    the other endpoint by staggered sends, making every neighbor list
//!    complete and symmetric.
//!
//! Run it under a queueing capacity policy (the staggered
//! acknowledgements rely on receive-side queueing). The protocol is a
//! plain [`NodeProtocol`], so the reference interpreter runs it
//! bit-identically (`crates/connectivity/tests/ncc0_exact.rs`).
//!
//! [`NodeProtocol`]: dgr_ncc::NodeProtocol
//! [`DegreesCore`]: dgr_core::distributed::proto::DegreesCore

use super::ncc0::pipeline_rounds;
use super::ncc0_step::PipelineStep;
use super::ThresholdOutcome;
use dgr_core::distributed::proto::{DegreesCore, Flavor};
use dgr_ncc::{tags, NodeId, NodeProtocol, RoundCtx, Status, WireMsg};
use dgr_primitives::proto::ops::{AggBcastStep, BroadcastAddrStep};
use dgr_primitives::proto::sort::SortStep;
use dgr_primitives::proto::stagger::StaggerStep;
use dgr_primitives::proto::step::{AggOp, Poll, Step};
use dgr_primitives::proto::EstablishCtx;
use dgr_primitives::sort::{Order, SortBackend, SortedPath};
use dgr_primitives::vpath::VPath;
use dgr_primitives::{stagger, PathCtx};
use std::collections::HashSet;
use std::collections::VecDeque;

/// The distinctness patch: tokens walk the prefix ring until they find a
/// node that is not yet adjacent to their origin, at most `batch`
/// forwards per round.
///
/// Rounds: exactly `patch_rounds(..)` — every node of the epoch must use
/// the same budget (non-members idle through it).
#[derive(Debug)]
struct RingPatchStep {
    next_hop: Option<NodeId>,
    rounds: u64,
    batch: usize,
    t: u64,
    queue: VecDeque<(NodeId, u64)>,
    known: HashSet<NodeId>,
    my_id: NodeId,
    accepted: Vec<NodeId>,
}

/// Round budget of the patch ring: worst-case token travel (a token
/// skips at most `d0` occupied nodes) plus the per-edge traffic bound
/// (each of the `≤ d0+1` upstream origins injects at most
/// `max_shortfall` tokens), plus drain slack.
fn patch_rounds(d0: usize, max_shortfall: u64, batch: usize) -> u64 {
    let travel = d0 as u64 + 2;
    let traffic = ((d0 as u64 + 1) * max_shortfall).div_ceil(batch as u64);
    travel + traffic + 10
}

impl RingPatchStep {
    fn new(
        next_hop: Option<NodeId>,
        inject: u64,
        known: HashSet<NodeId>,
        rounds: u64,
        batch: usize,
        hops: u64,
        my_id: NodeId,
    ) -> Self {
        let mut queue = VecDeque::new();
        for _ in 0..inject {
            queue.push_back((my_id, hops));
        }
        RingPatchStep {
            next_hop,
            rounds,
            batch,
            t: 0,
            queue,
            known,
            my_id,
            accepted: Vec::new(),
        }
    }
}

impl Step for RingPatchStep {
    type Out = Vec<NodeId>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Vec<NodeId>> {
        if self.t > 0 {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::TOKEN) {
                let origin = env.addr();
                let hops = env.word();
                if origin != self.my_id && !self.known.contains(&origin) {
                    // Fresh for this origin: the edge lands here.
                    self.known.insert(origin);
                    self.accepted.push(origin);
                } else if hops > 1 {
                    self.queue.push_back((origin, hops - 1));
                }
            }
        }
        if self.t == self.rounds {
            debug_assert!(self.queue.is_empty(), "patch ring budget too small");
            return Poll::Ready(std::mem::take(&mut self.accepted));
        }
        if let Some(next) = self.next_hop {
            for _ in 0..self.batch.min(self.queue.len()) {
                let (origin, hops) = self.queue.pop_front().unwrap();
                ctx.send(next, WireMsg::addr_word(tags::TOKEN, origin, hops));
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
    SubEstablish(EstablishCtx),
    Core(Box<DegreesCore>),
    /// Explicitness for the phase-1 envelope edges, run *before* the
    /// shortfall aggregation so every prefix node judges its deficiency
    /// (and the patch ring judges freshness) from a complete list.
    AcksPhase1(StaggerStep),
    ShortfallMax(AggBcastStep),
    Patch(RingPatchStep),
    Phase2(PipelineStep),
    Acks(StaggerStep),
}

/// The composed paper-exact Algorithm 6 state machine at one node.
/// `rho ≥ 1` is this node's requirement; every node runs the same
/// protocol.
pub struct Ncc0Exact {
    rho: usize,
    sort: SortBackend,
    stage: Stage,
    ctx: Option<PathCtx>,
    sp: Option<SortedPath>,
    d0: usize,
    x1: NodeId,
    outcome: ThresholdOutcome,
    /// One-sided edges this node holds (it must ack the other endpoint).
    one_sided: Vec<NodeId>,
}

impl Ncc0Exact {
    /// Builds the protocol for one node (bitonic Theorem 3 backend for
    /// the ρ sort; the recursion's internal re-sorts are always bitonic —
    /// sub-path sorts have non-member participants).
    pub fn new(rho: usize) -> Self {
        Self::with_sort(rho, SortBackend::Bitonic)
    }

    /// Builds the protocol with an explicit backend for the outer ρ sort.
    pub fn with_sort(rho: usize, sort: SortBackend) -> Self {
        Ncc0Exact {
            rho,
            sort,
            stage: Stage::Establish(EstablishCtx::new()),
            ctx: None,
            sp: None,
            d0: 0,
            x1: 0,
            outcome: ThresholdOutcome {
                rho,
                neighbors: Vec::new(),
            },
            one_sided: Vec::new(),
        }
    }

    fn ctx(&self) -> &PathCtx {
        self.ctx.as_ref().expect("stage before establish completed")
    }

    fn sp(&self) -> &SortedPath {
        self.sp.as_ref().expect("stage before sort completed")
    }

    fn prefix_len(&self) -> usize {
        (self.d0 + 1).min(self.ctx().vp.len)
    }

    fn in_prefix(&self) -> bool {
        self.sp().rank < self.prefix_len()
    }

    /// This node's view of the prefix sub-path (non-member past it).
    fn prefix_vp(&self) -> VPath {
        let prefix = self.prefix_len();
        let sp = self.sp();
        if sp.rank < prefix {
            VPath {
                member: true,
                pred: sp.vp.pred,
                succ: (sp.rank + 1 < prefix)
                    .then(|| sp.vp.succ.expect("prefix rank without a sorted successor")),
                len: prefix,
            }
        } else {
            VPath::non_member(prefix)
        }
    }

    /// The cyclic next hop on the prefix ring (the wrap edge addresses
    /// `x₁`, whose ID was broadcast).
    fn next_cyclic(&self) -> Option<NodeId> {
        if !self.in_prefix() {
            return None;
        }
        if self.sp().rank + 1 < self.prefix_len() {
            self.sp().vp.succ
        } else {
            Some(self.x1)
        }
    }
}

impl NodeProtocol for Ncc0Exact {
    type Output = ThresholdOutcome;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> Status<ThresholdOutcome> {
        // Narrate the composition for the event stream: macro phases
        // (`setup`/`phase1`/`patch`/`phase2`/`acks` — the paper's
        // structure, `patch` only when the distinctness gap is positive)
        // plus the fine-grained stage labels. Marks are observational
        // only; every node marks and the engines deduplicate.
        if rctx.round() == 0 {
            rctx.mark_phase("setup");
            rctx.mark_stage("establish");
        }
        loop {
            match &mut self.stage {
                Stage::Establish(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(ctx) => {
                        if ctx.vp.len == 1 {
                            return Status::Done(std::mem::take(&mut self.outcome));
                        }
                        rctx.mark_stage("sort");
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
                        rctx.mark_stage("d0");
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
                        let mine = (self.sp().rank == 0).then(|| rctx.id());
                        rctx.mark_stage("x1");
                        self.stage =
                            Stage::X1(BroadcastAddrStep::new(ctx.vp, ctx.tree.clone(), mine));
                    }
                },
                Stage::X1(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(x1) => {
                        self.x1 = x1;
                        // Phase 1, paper-exact: re-establish the full
                        // context on the prefix sub-path.
                        rctx.mark_phase("phase1");
                        rctx.mark_stage("sub-establish");
                        self.stage = Stage::SubEstablish(EstablishCtx::on(self.prefix_vp()));
                    }
                },
                Stage::SubEstablish(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(sub) => {
                        rctx.mark_stage("envelope-core");
                        let degree = if self.in_prefix() { self.rho } else { 0 };
                        let ctx = self.ctx();
                        self.stage = Stage::Core(Box::new(DegreesCore::new(
                            degree,
                            Flavor::Envelope,
                            SortBackend::Bitonic,
                            sub,
                            ctx.vp,
                            ctx.tree.clone(),
                            rctx.id(),
                        )));
                    }
                },
                Stage::Core(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(out) => {
                        let out = out.expect("the prefix envelope cannot refuse");
                        // Envelope edges are one-sided at the recipient:
                        // ack them immediately so the shortfall (and the
                        // patch ring's freshness checks) see complete,
                        // two-sided neighbor lists. Fan-in per node is
                        // bounded by its own multicast fan-out ≤ d₀.
                        self.outcome.neighbors.extend(out.neighbors.iter().copied());
                        let (spread, drain) = stagger::plan(self.d0 + 1, rctx.capacity());
                        let replies = out
                            .neighbors
                            .iter()
                            .map(|&origin| (origin, WireMsg::signal(tags::EDGE_ACK)))
                            .collect();
                        rctx.mark_stage("acks-phase1");
                        self.stage = Stage::AcksPhase1(StaggerStep::new(replies, spread, drain));
                    }
                },
                Stage::AcksPhase1(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(acks) => {
                        self.outcome.neighbors.extend(
                            acks.iter()
                                .filter(|(_, msg)| msg.tag == tags::EDGE_ACK)
                                .map(|(src, _)| *src),
                        );
                        let shortfall = if self.in_prefix() {
                            let distinct: HashSet<NodeId> =
                                self.outcome.neighbors.iter().copied().collect();
                            (self.rho.saturating_sub(distinct.len())) as u64
                        } else {
                            0
                        };
                        let ctx = self.ctx();
                        rctx.mark_stage("shortfall");
                        self.stage = Stage::ShortfallMax(AggBcastStep::new(
                            ctx.vp,
                            ctx.tree.clone(),
                            shortfall,
                            AggOp::Max,
                        ));
                    }
                },
                Stage::ShortfallMax(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(max_shortfall) => {
                        let b = (rctx.capacity() / 2).max(1);
                        if max_shortfall == 0 {
                            // No distinctness gap this run (the common
                            // case): skip straight to phase 2.
                            rctx.mark_phase("phase2");
                            rctx.mark_stage("phase2");
                            self.stage = Stage::Phase2(self.phase2_stage(rctx, b));
                            continue;
                        }
                        let known: HashSet<NodeId> = self
                            .outcome
                            .neighbors
                            .iter()
                            .copied()
                            .chain(std::iter::once(rctx.id()))
                            .collect();
                        let my_shortfall = if self.in_prefix() {
                            (self.rho.saturating_sub(known.len() - 1)) as u64
                        } else {
                            0
                        };
                        let rounds = patch_rounds(self.d0, max_shortfall, b);
                        let hops = self.prefix_len() as u64;
                        rctx.mark_phase("patch");
                        rctx.mark_stage("patch");
                        self.stage = Stage::Patch(RingPatchStep::new(
                            self.next_cyclic(),
                            my_shortfall,
                            known,
                            rounds,
                            b,
                            hops,
                            rctx.id(),
                        ));
                    }
                },
                Stage::Patch(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(accepted) => {
                        self.one_sided.extend(accepted.iter().copied());
                        self.outcome.neighbors.extend(accepted.iter().copied());
                        let b = (rctx.capacity() / 2).max(1);
                        rctx.mark_phase("phase2");
                        rctx.mark_stage("phase2");
                        self.stage = Stage::Phase2(self.phase2_stage(rctx, b));
                    }
                },
                Stage::Phase2(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(received) => {
                        self.one_sided.extend(received.iter().copied());
                        self.outcome.neighbors.extend(received.iter().copied());
                        // Explicitness for the patch + phase-2 edges
                        // (phase 1 was acked before the shortfall).
                        // Fan-in per node is at most ~2·d₀ (phase-2
                        // injections + patch injections).
                        let (spread, drain) = stagger::plan(2 * self.d0 + 2, rctx.capacity());
                        let replies = self
                            .one_sided
                            .iter()
                            .map(|&origin| (origin, WireMsg::signal(tags::EDGE_ACK)))
                            .collect();
                        rctx.mark_phase("acks");
                        rctx.mark_stage("acks");
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

impl Ncc0Exact {
    /// Phase 2 of Algorithm 6: the head-ward pipeline over the whole
    /// sorted path; ranks past the prefix inject `ttl = ρ`.
    fn phase2_stage(&self, rctx: &RoundCtx<'_>, b: usize) -> PipelineStep {
        let inject = (!self.in_prefix()).then_some(self.rho);
        let rounds = pipeline_rounds(self.d0, b);
        PipelineStep::new(self.sp().vp.pred, inject, rounds, b, rctx.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_ncc::{Config, Network};
    use dgr_primitives::proto::step::StepProtocol;

    /// Drives the distinctness patch directly on a hand-built ring (NCC1,
    /// so the ring links are addressable without an establishment phase):
    /// a token must *skip* the origin's existing neighbors and land on
    /// the first fresh node, and multiple tokens from one origin must
    /// land on distinct nodes.
    #[test]
    fn patch_tokens_skip_known_neighbors() {
        let n = 6;
        let net = Network::new(n, Config::ncc1(3).with_queueing());
        let mut sorted = net.ids_in_path_order().to_vec();
        sorted.sort_unstable();
        let ring = sorted.clone();
        let origin = ring[0];
        let (known1, known2) = (ring[1], ring[2]);
        let rounds = patch_rounds(n - 1, 2, 2);
        let result = net
            .run_protocol(|seed| {
                let me = seed.id;
                let idx = ring.iter().position(|&x| x == me).unwrap();
                let next = ring[(idx + 1) % ring.len()];
                // The head is short two distinct neighbors; ring[1] and
                // ring[2] already hold a (one-sided) edge to it, so its
                // tokens must skip past them (freshness is judged by the
                // *recipient*, which is the endpoint that stores envelope
                // edges).
                let (inject, known) = if me == origin {
                    (2, HashSet::new())
                } else if me == known1 || me == known2 {
                    (0, std::iter::once(origin).collect())
                } else {
                    (0, HashSet::new())
                };
                StepProtocol::new(RingPatchStep::new(
                    Some(next),
                    inject,
                    known,
                    rounds,
                    2,
                    ring.len() as u64 - 1,
                    me,
                ))
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        for (id, accepted) in &result.outputs {
            if *id == ring[3] || *id == ring[4] {
                assert_eq!(accepted, &vec![origin], "token should land at {id}");
            } else {
                assert!(accepted.is_empty(), "unexpected acceptance at {id}");
            }
        }
    }

    /// The budget formula covers the worst case the module doc argues.
    #[test]
    fn patch_budget_grows_with_shortfall() {
        assert!(patch_rounds(8, 0, 4) >= 10);
        assert!(patch_rounds(8, 3, 4) > patch_rounds(8, 1, 4));
    }
}
