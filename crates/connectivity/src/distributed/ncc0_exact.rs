//! The **paper-exact** Algorithm 6 as one batched protocol: phase 1 via
//! the envelope realized on the prefix sub-path, the phase-2 head-ward
//! pipeline, and the scheduled explicitness hand-offs — composed end to
//! end.
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
//! 2. **phase 1, paper-exact, on the prefix alone**: the prefix
//!    `x₁ … x_{d₀+1}` of the sorted path becomes a sub-path of
//!    `L = d₀ + 1` nodes, the full context is re-established on it, and
//!    the Theorem 13 upper-envelope realization runs *on the sub-network*
//!    as an explicit [`DegreesCore`] — its control sweep and its lanes
//!    cover the `L` prefix nodes only, so a phase costs
//!    `max(control, sort, hop)` on `L` rounds (6 at `L = 6`), not a
//!    full-network sweep, and its hand-off runs beside them. Everyone else waits for step 3's release, in a
//!    released broadcast ([`SweepStep::released`]) over the full-network
//!    path;
//! 3. **distinctness patch**: the core has made the phase-1 edges explicit,
//!    so every prefix node holds its complete two-sided list; the maximum
//!    shortfall (requirement minus
//!    distinct phase-1 neighbors) is then aggregated over the sub-path,
//!    and **released** to every node: `x₁` hands it to position 0 of the
//!    full-network path (`x₁` learned that node's ID as the sender of its
//!    rank), whose broadcast down the sweep tree reaches everyone its
//!    depth later ([`ops::broadcast_rounds_for`], 7 rounds at `n = 2048`). A
//!    waiting node places itself in the broadcast's schedule by the round
//!    its parent's total arrives, so every node leaves the wait in the
//!    same round. The wait has a deadline, the release's latest round:
//!    the envelope runs at most `L + 1` phases, since each phase but the
//!    last zeroes a leader of need ≥ 1 and no need grows back, so no
//!    record leads twice; a node that misses the release panics.
//!    When the maximum is positive, each short node injects that many
//!    tokens into the prefix ring — a token hops until it finds a node
//!    that is not yet a neighbor of its origin (a pigeonhole argument
//!    over `ρ ≤ n-1` guarantees one within the ring, and complete lists
//!    make the freshness check exact). A token carries its ordinal `j`
//!    among its origin's, and after the ring its acceptor acknowledges it
//!    in round `⌊j/b⌋` of a block of `⌈max/b⌉`, at the ring's batch `b`,
//!    half the capacity: an origin hears at most `b` a round, an acceptor
//!    sends at most one a round per origin it accepted from;
//! 4. **phase 2**: every node past the prefix announces itself to its
//!    `ρ` sorted predecessors through the head-ward token pipeline, every
//!    recipient acknowledging in the round its token arrives — the
//!    default driver's `phase2` step.
//!
//! The protocol is a plain [`NodeProtocol`], so the reference interpreter runs it
//! bit-identically (`crates/connectivity/tests/ncc0_exact.rs`).
//!
//! [`rounds_for`] is the whole run's round count, stage by stage.
//!
//! [`NodeProtocol`]: dgr_ncc::NodeProtocol
//! [`DegreesCore`]: dgr_core::distributed::DegreesCore

use super::ncc0::{phase2, pipeline_rounds, prologue_rounds, PipelineStep, Prologue, Sorted};
use super::ThresholdOutcome;
use dgr_core::distributed::{self as core, hop_rounds_for, DegreesCore, Flavor};
use dgr_ncc::{tags, NodeId, NodeProtocol, RoundCtx, Status, WireMsg};
use dgr_primitives::ops::{self, SweepStep};
use dgr_primitives::sort;
use dgr_primitives::{ctx, EstablishCtx, Lockstep, PathCtx, Poll, Rounds, Step, VPath};
use std::collections::{HashSet, VecDeque};

/// Rounds of a whole run on the requirements `rho` at capacity `cap`,
/// stage by stage: the prologue (establishment, sort, rank and the
/// `d₀`/`x₁` broadcast); the prefix's sub-establishment, envelope core
/// ([`core::rounds_for`] on the prefix's own [`core::phase_groups`], its
/// hand-off included) and shortfall sweep, then the release's one round
/// to position 0 and its broadcast; the patch ring and its
/// acknowledgements when `max_shortfall`, the largest distinctness gap
/// the envelope leaves, is positive; then phase 2.
pub fn rounds_for(rho: &[usize], max_shortfall: u64, cap: usize) -> u64 {
    let n = rho.len();
    if n < 2 {
        return ctx::rounds_for(n);
    }
    let mut sorted = rho.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let d0 = sorted[0];
    let patch = match max_shortfall {
        0 => 0,
        gap => patch_rounds(d0, gap, batch(cap)) + acks_rounds(gap, cap),
    };
    prologue_rounds(rho, cap)
        + release_rounds(n, d0, core_rounds(&sorted[..=d0.min(n - 1)], cap), cap)
        + patch
        + pipeline_rounds(d0)
}

/// Forwarding batch of the patch ring: half the per-round capacity
/// `cap`.
fn batch(cap: usize) -> usize {
    (cap / 2).max(1)
}

/// Rounds of the patch ring's acknowledgement block for a gap of at most
/// `max_shortfall` tokens an origin, at the ring's batch a round.
fn acks_rounds(max_shortfall: u64, cap: usize) -> u64 {
    max_shortfall.div_ceil(batch(cap) as u64)
}

/// Rounds of the envelope core on the prefix whose requirements are
/// `prefix`, past its keyed establishment.
fn core_rounds(prefix: &[usize], cap: usize) -> u64 {
    core::rounds_for(prefix, Flavor::Envelope, true, cap) - ctx::rounds_for(prefix.len())
}

/// Rounds from the prologue's end until every node holds the release, on
/// `n` nodes, when the envelope core on the prefix of `d₀ + 1` takes
/// `core` rounds: the sub-establishment, the core and the shortfall's
/// sweep on the prefix, then the one round to position 0 and the
/// broadcast from there.
fn release_rounds(n: usize, d0: usize, core: u64, cap: usize) -> u64 {
    let len = (d0 + 1).min(n);
    ctx::rounds_on(len) + core + ops::rounds_for(len, cap) + 1 + ops::broadcast_rounds_for(n, cap)
}

/// The latest round, counted from the prologue's end, by which every
/// node holds the release: [`release_rounds`] with the envelope at its
/// most phases. On a prefix of `L` nodes it runs at most `L + 1`: each
/// phase but the last zeroes a leader of need at least 1 and no need
/// grows back, so no record leads twice. (The total need, `L·d₀`, bounds
/// them too, but past ~400 prefix nodes that deadline outruns the
/// engine's round limit.) A phase takes at most its control sweep, its
/// sort or its hop, whichever is longest. The hand-off adds at most a
/// phase beside the loop (a window fits a hop), and a block
/// of at most `⌈(L - 1)/r⌉` after it for each phase but the last, at the
/// [`core::block_rate`] `r`.
fn release_deadline(n: usize, d0: usize, cap: usize) -> u64 {
    let len = (d0 + 1).min(n);
    let phase = ops::rounds_for(len, cap)
        .max(sort::rounds_for(len))
        .max(hop_rounds_for(len));
    let blocks = len as u64 * (len - 1).div_ceil(core::block_rate(cap)) as u64;
    release_rounds(n, d0, (len as u64 + 2) * phase + blocks, cap)
}

/// The distinctness patch: tokens walk the prefix ring until they find a
/// node that is not yet adjacent to their origin, at most `batch`
/// forwards per round; then, in a block after the ring, each acceptor
/// acknowledges the token of ordinal `j` in the block's round `⌊j/batch⌋`.
/// Its result is the origins whose tokens landed here, then the
/// acceptors of this node's own.
///
/// Rounds: exactly the ring's `patch_rounds(..)` and the block's
/// `acks_rounds(..)` — every node of the epoch must use the same budget.
type RingPatchStep = Lockstep<RingPatch>;

#[derive(Debug)]
struct RingPatch {
    next_hop: Option<NodeId>,
    batch: usize,
    /// The ring's rounds; the acknowledgement block follows them.
    ring: u64,
    /// Tokens to forward: origin, hops left, ordinal.
    queue: VecDeque<(NodeId, u64, u64)>,
    known: HashSet<NodeId>,
    /// The tokens seen here, `(origin, ordinal)`: a second copy is a
    /// duplicate.
    seen: HashSet<(NodeId, u64)>,
    injected: u64,
    my_id: NodeId,
    accepted: Vec<(NodeId, u64)>,
    acked: Vec<NodeId>,
}

/// Round budget of the patch ring: worst-case token travel (a token
/// skips at most `d0` occupied nodes) plus the per-edge traffic bound
/// (each of the `≤ d0+1` upstream origins injects at most
/// `max_shortfall` tokens), plus drain slack. Unlike the token
/// pipelines' exact [`pipeline_rounds`], a node here injects several
/// tokens, so a queue can hold more than one round's forwards and the
/// traffic term stays.
fn patch_rounds(d0: usize, max_shortfall: u64, batch: usize) -> u64 {
    let travel = d0 as u64 + 2;
    let traffic = ((d0 as u64 + 1) * max_shortfall).div_ceil(batch as u64);
    travel + traffic + 10
}

/// The patch ring for `rounds = (ring, block)` rounds at capacity `cap`;
/// `inject` tokens of `hops` hops start here.
fn ring_patch(
    next_hop: Option<NodeId>,
    inject: u64,
    known: HashSet<NodeId>,
    hops: u64,
    my_id: NodeId,
    (ring, block): (u64, u64),
    cap: usize,
) -> RingPatchStep {
    let patch = RingPatch {
        next_hop,
        batch: batch(cap),
        ring,
        queue: (0..inject).map(|j| (my_id, hops, j)).collect(),
        known,
        seen: HashSet::new(),
        injected: inject,
        my_id,
        accepted: Vec::new(),
        acked: Vec::new(),
    };
    Lockstep::run(true, ring + block, patch)
}

impl Rounds for RingPatch {
    type Out = Vec<NodeId>;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Vec<NodeId>> {
        if t > 0 {
            for env in ctx.inbox() {
                if env.msg.tag == tags::EDGE_ACK {
                    self.acked.push(env.src);
                }
                if env.msg.tag != tags::TOKEN {
                    continue;
                }
                let (origin, words) = (env.addr(), env.msg.words_slice());
                let (hops, j) = (words[0], words[1]);
                if !self.seen.insert((origin, j)) {
                    continue;
                }
                if origin != self.my_id && !self.known.contains(&origin) {
                    // Fresh for this origin: the edge lands here.
                    self.known.insert(origin);
                    self.accepted.push((origin, j));
                } else if hops > 1 {
                    self.queue.push_back((origin, hops - 1, j));
                }
            }
        }
        if t == rounds {
            debug_assert!(self.queue.is_empty(), "patch ring budget too small");
            // A second copy of an acknowledgement is a duplicate.
            self.acked.sort_unstable();
            self.acked.dedup();
            assert!(
                self.acked.len() as u64 == self.injected,
                "message loss: an origin missed an acknowledgement"
            );
            let accepted = self.accepted.iter().map(|&(origin, _)| origin);
            return Poll::Ready(accepted.chain(self.acked.drain(..)).collect());
        }
        if t >= self.ring {
            let slot = t - self.ring;
            for &(origin, j) in &self.accepted {
                if j / self.batch as u64 == slot {
                    ctx.send(origin, WireMsg::signal(tags::EDGE_ACK));
                }
            }
        } else if let Some(next) = self.next_hop {
            for _ in 0..self.batch.min(self.queue.len()) {
                let (origin, hops, j) = self.queue.pop_front().unwrap();
                let token = WireMsg::addr_word(tags::TOKEN, origin, hops).with_word(j);
                ctx.send(next, token);
            }
        }
        Poll::Pending
    }
}

enum Stage {
    // Boxed: the opening's stage machine dwarfs the later stages.
    Prologue(Box<Prologue>),
    SubEstablish(EstablishCtx),
    /// The explicit envelope core: it hands its edges off before the
    /// shortfall aggregation, so every prefix node judges its deficiency
    /// (and the patch ring judges freshness) from a complete list.
    Core(Box<DegreesCore>),
    /// The maximum shortfall over the prefix sub-path.
    ShortfallMax(SweepStep),
    /// The maximum shortfall, released to every node over the
    /// full-network path; a node past the prefix waits here from the
    /// prologue's end.
    Release(SweepStep),
    Patch(RingPatchStep),
    Phase2(PipelineStep),
}

/// The composed paper-exact Algorithm 6 state machine at one node.
/// `rho ≥ 1` is this node's requirement; every node runs the same
/// protocol.
pub struct Ncc0Exact {
    stage: Stage,
    sorted: Option<Sorted>,
    /// The prefix sub-path's context, at a prefix node.
    sub: PathCtx,
    /// The round by which the release reaches every node.
    release_by: u64,
    outcome: ThresholdOutcome,
}

impl Ncc0Exact {
    /// Builds the protocol for one node.
    pub fn new(rho: usize) -> Self {
        Ncc0Exact {
            stage: Stage::Prologue(Box::new(Prologue::new(rho))),
            sorted: None,
            sub: PathCtx::default(),
            release_by: 0,
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

    /// This prefix node's view of the prefix sub-path.
    fn prefix_vp(&self) -> VPath {
        let sorted = self.sorted();
        let (prefix, sp) = (sorted.prefix_len(), &sorted.sp);
        VPath {
            member: true,
            pred: sp.vp.pred,
            succ: (sp.rank + 1 < prefix)
                .then(|| sp.vp.succ.expect("prefix rank without a sorted successor")),
            len: prefix,
        }
    }

    /// The wait for the release over the full-network path, until the
    /// common deadline.
    fn release(&self, rctx: &RoundCtx<'_>) -> SweepStep {
        let ctx = &self.sorted().ctx;
        let deadline = self.release_by - rctx.round();
        SweepStep::released(ctx.vp, ctx.contacts.clone(), ctx.position, deadline)
    }

    /// Enters phase 2, whose pipeline acknowledges its own edges.
    fn enter_phase2(&mut self, rctx: &mut RoundCtx<'_>) {
        rctx.mark_phase("phase2");
        rctx.mark_stage("phase2");
        self.stage = Stage::Phase2(phase2(self.sorted(), self.outcome.rho, rctx));
    }
}

impl NodeProtocol for Ncc0Exact {
    type Output = ThresholdOutcome;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> Status<ThresholdOutcome> {
        // Narrate the composition for the event stream: macro phases
        // (`setup`/`phase1`/`patch`/`phase2` — the paper's
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
                            rctx.mark_phase("phase1");
                            let n = sorted.ctx.vp.len;
                            let deadline = release_deadline(n, sorted.d0, rctx.capacity());
                            self.release_by = rctx.round() + deadline;
                            let in_prefix = sorted.in_prefix();
                            self.sorted = Some(sorted);
                            self.stage = if in_prefix {
                                // Phase 1, paper-exact: re-establish the
                                // full context on the prefix sub-path.
                                rctx.mark_stage("sub-establish");
                                let rho = self.outcome.rho as u64;
                                Stage::SubEstablish(EstablishCtx::on_keyed(self.prefix_vp(), rho))
                            } else {
                                Stage::Release(self.release(rctx))
                            };
                        }
                    }
                }
                Stage::SubEstablish(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(sub) => {
                        rctx.mark_stage("envelope-core");
                        let core =
                            DegreesCore::new(self.outcome.rho, Flavor::Envelope, sub.clone());
                        let core = core.explicit();
                        self.sub = sub;
                        self.stage = Stage::Core(Box::new(core));
                    }
                },
                Stage::Core(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(out) => {
                        let out = out.expect("the prefix envelope cannot refuse");
                        self.outcome.neighbors.extend(out.neighbors);
                        let distinct: HashSet<NodeId> =
                            self.outcome.neighbors.iter().copied().collect();
                        let shortfall = self.outcome.rho.saturating_sub(distinct.len()) as u64;
                        rctx.mark_stage("shortfall");
                        let sub = &self.sub;
                        self.stage = Stage::ShortfallMax(SweepStep::new(
                            sub.vp,
                            sub.contacts.clone(),
                            sub.position,
                            &[shortfall],
                            None,
                            |acc, x| acc[0] = acc[0].max(x[0]),
                        ));
                    }
                },
                Stage::ShortfallMax(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(swept) => {
                        let sp = &self.sorted().sp;
                        if sp.rank == 0 {
                            // x₁ heard its rank from position 0 of the
                            // full-network path: the release starts there.
                            let release = WireMsg::words(tags::RELEASE, &swept.words[..1]);
                            rctx.send(sp.holder, release);
                        }
                        self.stage = Stage::Release(self.release(rctx));
                    }
                },
                Stage::Release(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(swept) => {
                        let max_shortfall = swept.words[0];
                        if max_shortfall == 0 {
                            // No distinctness gap this run (the common
                            // case): skip straight to phase 2.
                            self.enter_phase2(rctx);
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
                        let cap = rctx.capacity();
                        let ring = patch_rounds(sorted.d0, max_shortfall, batch(cap));
                        let rounds = (ring, acks_rounds(max_shortfall, cap));
                        let hops = sorted.prefix_len() as u64;
                        let next = sorted.next_cyclic();
                        rctx.mark_phase("patch");
                        rctx.mark_stage("patch");
                        self.stage = Stage::Patch(ring_patch(
                            next,
                            my_shortfall,
                            known,
                            hops,
                            rctx.id(),
                            rounds,
                            cap,
                        ));
                    }
                },
                Stage::Patch(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(gained) => {
                        self.outcome.neighbors.extend(gained);
                        self.enter_phase2(rctx);
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
        let rounds = (patch_rounds(n - 1, 2, batch(4)), acks_rounds(2, 4));
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
                let hops = ring.len() as u64 - 1;
                StepProtocol::new(ring_patch(Some(next), inject, known, hops, me, rounds, 4))
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        for (id, gained) in &result.outputs {
            if *id == ring[3] || *id == ring[4] {
                assert_eq!(gained, &vec![origin], "token should land at {id}");
            } else if *id == origin {
                // Both acceptors acknowledge in the block's one round.
                assert_eq!(gained, &ring[3..5], "acknowledgements at the origin");
            } else {
                assert!(gained.is_empty(), "unexpected acceptance at {id}");
            }
        }
    }

    /// Drops the release's first round of sends — `x₁`'s hand-off to
    /// position 0 — in a run at n = 64 (`d₀ = 5`, a six-node prefix): no
    /// node hears the release, and on both engines the run ends on the
    /// release's loss panic in the deadline's round, every node still
    /// waiting there.
    #[test]
    fn a_lost_release_panics_every_waiting_node_at_the_deadline() {
        use crate::{prepare_threshold, ThresholdAlgo, ThresholdInstance};
        use dgr_ncc::{EngineKind, Recording, RunEvent, Scenario, SimError, Sink};
        let n = 64;
        let rho: Vec<usize> = (0..n).map(|i| 1 + i % 5).collect();
        let inst = ThresholdInstance::new(rho.clone());
        let config = Config::ncc0(19).with_queueing();
        let job = |config: Config, engine| {
            prepare_threshold(&inst, config, ThresholdAlgo::Ncc0Exact, engine, false).unwrap()
        };
        let clean = job(config.clone(), EngineKind::Batched)
            .drive(None)
            .unwrap();
        let cap = clean.output.metrics.capacity;
        assert_eq!(clean.output.metrics.rounds, rounds_for(&rho, 0, cap));
        let (d0, prologue) = (5, prologue_rounds(&rho, cap));
        let prefix = [5; 6];
        let release = prologue + release_rounds(n, d0, core_rounds(&prefix, cap), cap);
        let sent = release - 1 - ops::broadcast_rounds_for(n, cap);
        let deadline = prologue + release_deadline(n, d0, cap);
        let lost = Scenario::new(5).drop_messages(sent..=sent, 1.0);
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let mut recording = Recording::new();
            let sink = Some(&mut recording as &mut dyn Sink);
            let run = job(config.clone().with_scenario(lost.clone()), engine).drive(sink);
            match run {
                Err(SimError::NodePanic { message, .. }) => {
                    assert_eq!(message, "message loss: a node missed the release");
                }
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
            let live: Vec<usize> = recording
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    RunEvent::RoundCompleted { live, .. } => Some(live),
                    _ => None,
                })
                .collect();
            assert_eq!(live.len() as u64, deadline, "{engine:?}");
            assert!(live.iter().all(|&l| l == n), "{engine:?}");
        }
    }

    /// The envelope's phase bound the release's deadline counts on: on
    /// every prefix of 2 to 40 requirements drawn in `[1, L - 1]`, the
    /// replayed phase loop runs at most `L + 1` phases.
    #[test]
    fn the_envelope_runs_at_most_one_phase_a_prefix_node_and_a_closing_one() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        for len in 2..=40 {
            for _ in 0..50 {
                let mut prefix: Vec<usize> = (0..len).map(|_| rng.gen_range(1..len)).collect();
                prefix[0] = len - 1;
                let phases = core::phase_groups(&prefix, Flavor::Envelope).len() + 1;
                assert!(phases <= len + 1, "{prefix:?}: {phases} phases");
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
