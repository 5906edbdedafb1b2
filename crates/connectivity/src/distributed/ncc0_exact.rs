//! The **paper-exact** Algorithm 6 as one batched protocol: phase 1 via
//! the masked prefix envelope recursion, the phase-2 head-ward pipeline,
//! and the staggered explicitness acknowledgements — composed end to end.
//!
//! [`Ncc0Threshold`](super::ncc0::Ncc0Threshold) substitutes a
//! cyclic token pipeline for phase 1 (see `ncc0.rs` for why that
//! deviation is the *default*: the paper's Theorem 13 envelope has
//! multigraph semantics, so a prefix node can end up with fewer
//! *distinct* neighbors than its requirement). This protocol instead
//! follows the paper to the letter and then **closes that gap
//! explicitly**:
//!
//! 1. establish, sort by `ρ` non-increasing, broadcast `d₀` and `x₁` —
//!    the default driver's `Prologue` step;
//! 2. **phase 1, paper-exact**: the prefix `x₁ … x_{d₀+1}` of the sorted
//!    path becomes a sub-path (everyone else holds a non-member view),
//!    the full context is re-established on it, and the Theorem 13
//!    upper-envelope realization runs *on the sub-network* as a
//!    [`DegreesCore`] whose control sweep (δ, N, the error flag) rides
//!    the **full-network** path — so all `n` nodes, prefix or not,
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
//!    `ρ` sorted predecessors through the head-ward token pipeline;
//! 5. **explicitness**: the patch and pipeline edge holders acknowledge
//!    the other endpoint by staggered sends, making every neighbor list
//!    complete and symmetric — 4 and 5 are the default driver's
//!    `Phase2Acks` step.
//!
//! Run it under a queueing capacity policy (the staggered
//! acknowledgements rely on receive-side queueing). The protocol is a
//! plain [`NodeProtocol`], so the reference interpreter runs it
//! bit-identically (`crates/connectivity/tests/ncc0_exact.rs`).
//!
//! [`NodeProtocol`]: dgr_ncc::NodeProtocol
//! [`DegreesCore`]: dgr_core::distributed::DegreesCore

use super::ncc0::{batch, Phase2Acks, Prologue, Sorted};
use super::ThresholdOutcome;
use dgr_core::distributed::{DegreesCore, Flavor};
use dgr_ncc::{tags, NodeId, NodeProtocol, RoundCtx, Status, WireMsg};
use dgr_primitives::ops::SweepStep;
use dgr_primitives::stagger::StaggerStep;
use dgr_primitives::{EstablishCtx, Lockstep, Poll, Rounds, Step, VPath};
use std::collections::{HashSet, VecDeque};

/// The distinctness patch: tokens walk the prefix ring until they find a
/// node that is not yet adjacent to their origin, at most `batch`
/// forwards per round.
///
/// Rounds: exactly `patch_rounds(..)` — every node of the epoch must use
/// the same budget.
type RingPatchStep = Lockstep<RingPatch>;

#[derive(Debug)]
struct RingPatch {
    next_hop: Option<NodeId>,
    batch: usize,
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

/// The patch ring for `rounds` rounds; `inject` tokens of `hops` hops
/// start here.
fn ring_patch(
    next_hop: Option<NodeId>,
    inject: u64,
    known: HashSet<NodeId>,
    rounds: u64,
    batch: usize,
    hops: u64,
    my_id: NodeId,
) -> RingPatchStep {
    let patch = RingPatch {
        next_hop,
        batch,
        queue: (0..inject).map(|_| (my_id, hops)).collect(),
        known,
        my_id,
        accepted: Vec::new(),
    };
    Lockstep::run(true, rounds, patch)
}

impl Rounds for RingPatch {
    type Out = Vec<NodeId>;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Vec<NodeId>> {
        if t > 0 {
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
        if t == rounds {
            debug_assert!(self.queue.is_empty(), "patch ring budget too small");
            return Poll::Ready(std::mem::take(&mut self.accepted));
        }
        if let Some(next) = self.next_hop {
            for _ in 0..self.batch.min(self.queue.len()) {
                let (origin, hops) = self.queue.pop_front().unwrap();
                ctx.send(next, WireMsg::addr_word(tags::TOKEN, origin, hops));
            }
        }
        Poll::Pending
    }
}

enum Stage {
    Prologue(Prologue),
    SubEstablish(EstablishCtx),
    Core(Box<DegreesCore>),
    /// Explicitness for the phase-1 envelope edges, run *before* the
    /// shortfall aggregation so every prefix node judges its deficiency
    /// (and the patch ring judges freshness) from a complete list.
    AcksPhase1(StaggerStep),
    ShortfallMax(SweepStep),
    Patch(RingPatchStep),
    Tail(Phase2Acks),
}

/// The composed paper-exact Algorithm 6 state machine at one node.
/// `rho ≥ 1` is this node's requirement; every node runs the same
/// protocol.
pub struct Ncc0Exact {
    stage: Stage,
    sorted: Option<Sorted>,
    outcome: ThresholdOutcome,
}

impl Ncc0Exact {
    /// Builds the protocol for one node.
    pub fn new(rho: usize) -> Self {
        Ncc0Exact {
            stage: Stage::Prologue(Prologue::new(rho)),
            sorted: None,
            outcome: ThresholdOutcome {
                rho,
                neighbors: Vec::new(),
            },
        }
    }

    fn sorted(&self) -> &Sorted {
        self.sorted
            .as_ref()
            .expect("stage before the prologue completed")
    }

    /// This node's view of the prefix sub-path (non-member past it).
    fn prefix_vp(&self) -> VPath {
        let sorted = self.sorted();
        let (prefix, sp) = (sorted.prefix_len(), &sorted.sp);
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

    /// Enters phase 2 and the closing acknowledgements, which cover the
    /// patch + phase-2 edges (phase 1 was acked before the shortfall).
    /// Fan-in per node is at most ~2·d₀ (phase-2 injections + patch
    /// injections).
    fn enter_tail(&mut self, patched: Vec<NodeId>, rctx: &mut RoundCtx<'_>) {
        rctx.mark_phase("phase2");
        rctx.mark_stage("phase2");
        let sorted = self.sorted();
        let fan_in = 2 * sorted.d0 + 2;
        let tail = Phase2Acks::new(sorted, self.outcome.rho, patched, fan_in, rctx);
        self.stage = Stage::Tail(tail);
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
                Stage::Prologue(s) => {
                    let before = s.label();
                    let polled = s.poll(rctx);
                    if s.label() != before {
                        rctx.mark_stage(s.label());
                    }
                    match polled {
                        Poll::Pending => return Status::Continue,
                        Poll::Ready(None) => {
                            return Status::Done(std::mem::take(&mut self.outcome));
                        }
                        Poll::Ready(Some(sorted)) => {
                            self.sorted = Some(sorted);
                            // Phase 1, paper-exact: re-establish the full
                            // context on the prefix sub-path.
                            rctx.mark_phase("phase1");
                            rctx.mark_stage("sub-establish");
                            self.stage = Stage::SubEstablish(EstablishCtx::on(self.prefix_vp()));
                        }
                    }
                }
                Stage::SubEstablish(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(sub) => {
                        rctx.mark_stage("envelope-core");
                        let sorted = self.sorted();
                        let degree = if sorted.in_prefix() {
                            self.outcome.rho
                        } else {
                            0
                        };
                        self.stage = Stage::Core(Box::new(DegreesCore::new(
                            degree,
                            Flavor::Envelope,
                            sub,
                            sorted.ctx.clone(),
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
                        rctx.mark_stage("acks-phase1");
                        self.stage = Stage::AcksPhase1(StaggerStep::new(
                            out.neighbors,
                            WireMsg::signal(tags::EDGE_ACK),
                            self.sorted().d0 + 1,
                            rctx.capacity(),
                        ));
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
                        let sorted = self.sorted();
                        let shortfall = if sorted.in_prefix() {
                            let distinct: HashSet<NodeId> =
                                self.outcome.neighbors.iter().copied().collect();
                            (self.outcome.rho.saturating_sub(distinct.len())) as u64
                        } else {
                            0
                        };
                        rctx.mark_stage("shortfall");
                        let ctx = &sorted.ctx;
                        self.stage = Stage::ShortfallMax(SweepStep::new(
                            ctx.vp,
                            ctx.contacts.clone(),
                            ctx.position,
                            &[shortfall],
                            None,
                            |acc, x| acc[0] = acc[0].max(x[0]),
                        ));
                    }
                },
                Stage::ShortfallMax(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(swept) => {
                        let max_shortfall = swept.words[0];
                        if max_shortfall == 0 {
                            // No distinctness gap this run (the common
                            // case): skip straight to phase 2.
                            self.enter_tail(Vec::new(), rctx);
                            continue;
                        }
                        let known: HashSet<NodeId> = self
                            .outcome
                            .neighbors
                            .iter()
                            .copied()
                            .chain(std::iter::once(rctx.id()))
                            .collect();
                        let sorted = self.sorted();
                        let my_shortfall = if sorted.in_prefix() {
                            (self.outcome.rho.saturating_sub(known.len() - 1)) as u64
                        } else {
                            0
                        };
                        let b = batch(rctx);
                        let rounds = patch_rounds(sorted.d0, max_shortfall, b);
                        let hops = sorted.prefix_len() as u64;
                        let next = sorted.next_cyclic();
                        rctx.mark_phase("patch");
                        rctx.mark_stage("patch");
                        self.stage = Stage::Patch(ring_patch(
                            next,
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
                        self.outcome.neighbors.extend(accepted.iter().copied());
                        self.enter_tail(accepted, rctx);
                    }
                },
                Stage::Tail(s) => {
                    let before = s.label();
                    let polled = s.poll(rctx);
                    if s.label() != before {
                        rctx.mark_phase(s.label());
                        rctx.mark_stage(s.label());
                    }
                    match polled {
                        Poll::Pending => return Status::Continue,
                        Poll::Ready(gained) => {
                            self.outcome.neighbors.extend(gained);
                            return Status::Done(std::mem::take(&mut self.outcome));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_ncc::{Config, Network};
    use dgr_primitives::StepProtocol;

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
                StepProtocol::new(ring_patch(
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
