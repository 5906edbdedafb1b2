//! Distributed degree realization in the NCC model (Section 4 of the
//! paper): the implicit Algorithm 3, its explicit extension, and the
//! upper-envelope variant for non-graphic sequences — one phase engine,
//! [`DegreesCore`], in three [`Flavor`]s.
//!
//! # Algorithm 3: implicit realization in `O~(min{√m, Δ})` rounds (Theorem 11)
//!
//! A parallelized Havel–Hakimi. Each node's record `(need, ID)` travels
//! between the positions of the path; the nodes never move. Each
//! phase:
//!
//! 1. **control**: one sweep of the whole path learns the maximum
//!    remaining degree `δ`, its multiplicity `N` and whether the phase
//!    before drove a node negative; the flag or `δ ≥ n` ends the run on
//!    `UNREALIZABLE`, `δ = 0` ends it realized;
//! 2. in the same rounds, sort the records by need, non-increasing
//!    (Theorem 3), so that position `x` holds the rank-`x` record — in
//!    phase 1; a later phase re-orders the records in place instead, in
//!    `O(log n)` rounds (the merge lane below);
//! 3. with `q = max(1, ⌊N/(δ+1)⌋)`, split the first `q(δ+1)` positions
//!    into `q` star groups: the leader, each group's first record, is fully
//!    satisfied and drops to 0; each of the other `δ` members decrements
//!    its remaining degree (an exact-flavor member already at 0 raises the
//!    flag instead). The position holding a record decides all of it, in
//!    the round both halves of the phase are in, since it depends only on
//!    the rank, `δ` and `q`, and commits the new need as the record's key;
//! 4. in that round the leader's origin ID goes out to its members
//!    (interval multicast over the positions), the next phase opens beside
//!    the multicast, and when the multicast ends each position sends one
//!    **status** to the origin of the record it held: a member's carries
//!    the leader's ID, which the origin stores as its edge.
//!
//! **Sort once, merge after.** A phase barely changes the sorted order:
//! the `q` leaders drop to 0, the `qδ` members each lose one, the tail
//! `[q(δ+1), len)` does not change. In the exact flavors a record at need
//! 0 is inert — never a leader again, and a run that picks it as a member
//! goes negative and is refused — so the leaders' records leave, and the
//! members and the tail are two runs that are still sorted.
//! [`SortStep::merge`] joins them where they are held, over the
//! path's contacts: a compaction of `⌈log₂(q + 1)⌉` rounds (the longest
//! shift is `q`, which the control sweep told everyone) and one merge pass
//! of `⌈log₂ n⌉ + 1` stages (ARCHITECTURE.md, *Deviations from the
//! paper*). Every group, edge and phase count is the full sort's: the
//! nonzero records keep their order, and a group that reaches past them
//! picks a zero-need record either way. The departed ranks' positions
//! stay vacant at the end of the path, so every budget stays a function
//! of `len` ([`merges`] picks the lane).
//!
//! **Records stay in place.** Positions are the path's nodes, and
//! that path is fixed for the whole run, so its contact table from the
//! establishment addresses every comparator, compaction move and
//! multicast hop of every phase. No record goes home between phases: no
//! rank epilogue, no sorted path, no contact table rebuilt per phase. The
//! one hop back to the origins is the status, a round after the
//! multicast.
//!
//! The paper sorts first, then broadcasts `δ`, `N` and the flag one by one
//! (its steps 2, 3 and 5); none needs the sorted order, and the sort needs
//! none of them, so they share one sweep that runs *alongside* the sort
//! (ARCHITECTURE.md, *Deviations from the paper*): same groups, edges and
//! phase count, one sweep a phase instead of three, spent in the sort's
//! rounds. Its words are each position's held need and a has-record
//! count, the went-negative flag, and each origin's requested degree. Nor
//! does the next phase need anything the multicast carries: its control
//! sweep and its lane read only the committed needs. So the multicast and
//! the status (`⌈log₂ n⌉ + 2` rounds) run beside the next phase's control
//! sweep (twice the depth of the shallow sweep tree over the contacts, at
//! most `2(⌈⌈log₂ n⌉/2⌉ + 1)`: 14 rounds at `n = 2048`, where the hop
//! takes 13) and its lane — a phase costs `max(control, hop, lane)`, and
//! the hop outlasts the control by up to two rounds at some `n` (14
//! against 12 at `n = 2049`) — and in the closing phase a partial lane is
//! dropped when the control ends the run, once the last hop is in
//! ([`rounds_for`]). Every
//! origin whose record is on the path expects one status a phase, and a
//! member's position expects its leader's multicast: a missing one can
//! only be a lost message, and it panics, so a run never ends with a
//! silently short degree.
//!
//! Lemma 10: every phase (or every second phase) removes the current
//! maximum degree, and at most `O(√m)` phases involve degrees above `√m`,
//! so the loop runs `O(min{√m, Δ})` times; each phase is `O~(1)` rounds.
//! The data-dependent while-loop stays in lockstep because its control
//! values (δ, N, the error flag) are globally aggregated, so every node
//! transitions identically.
//!
//! # Theorem 12: explicit realization in `O(m/n + Δ/log n + log n)` rounds
//!
//! After Algorithm 3, every edge `(u, v)` is stored at exactly one endpoint
//! (the group member `u`); `u` must announce its ID to `v` to make the
//! realization explicit. A node may be the target of up to `Δ`
//! announcements, far beyond its per-round receive capacity, so the
//! hand-off uses the staggered-delivery primitive (which stands in for
//! Theorem 8's butterfly collection; ARCHITECTURE.md, *Deviations from the
//! paper*): every announcement
//! is delayed uniformly in `[0, Θ(Δ/cap))` rounds and receive-side queueing
//! absorbs the w.h.p. `O(log n)` per-round overflow. [`Flavor::Explicit`]
//! is Algorithm 3, then the hand-off; `Δ` (the commonly known bound on any
//! node's incoming announcements, which fixes the epoch length) rides the
//! control sweep's fourth word.
//!
//! Run it under [`CapacityPolicy::Queue`](dgr_ncc::CapacityPolicy::Queue);
//! the epoch length covers the worst-case queue drain unconditionally, so
//! delivery is guaranteed, not just w.h.p.
//!
//! # Theorem 13: an upper envelope for (possibly) non-graphic sequences
//!
//! [`Flavor::Envelope`] realizes `D' = (d'_1, …, d'_n)` with `d'_i ≥ d_i`
//! and `Σ d'_i ≤ 2 Σ d_i`. The construction is Algorithm 3 with one altered
//! step: a node whose remaining degree would go negative resets it to 0
//! (i.e. accepts the extra edge) instead of declaring failure. Whenever a
//! node is reset, the re-sorting guarantees it is used as a neighbor at
//! most `d_i` more times, which bounds the total discrepancy
//! `Σ(d'_i - d_i)` by `Σ d_i`. It refuses ([`Unrealizable`]) only when some
//! degree is `≥ n` (no envelope exists in that case either).
//!
//! **Multigraph semantics.** Late phases may connect a pair of nodes that
//! is already adjacent (a retired group leader can re-enter a later group).
//! The paper's degree guarantees hold for the resulting *multiset* of
//! edges (ARCHITECTURE.md, *Deviations from the paper*). The driver
//! reports duplicate counts so callers can quantify it (it is zero on
//! every exact-mode run).
//!
//! # Composition
//!
//! The algorithm is a sequence of primitives, composed as
//! [`Step`] sub-protocols chained through one state machine that
//! transitions stages *within* a round — a stage boundary costs no round.
//! `crates/core/tests/batched_drivers.rs` pins its transcripts on both
//! engines; `tests/scale.rs` runs it at hundreds of thousands of nodes.

use crate::sequence::DegreeSequence;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use dgr_primitives::imcast::{self, CoverSide, ImcastStep, Payload};
use dgr_primitives::ops::{self, SweepStep, Words};
use dgr_primitives::sort::{self, Held, Order, Regroup, SortStep};
use dgr_primitives::stagger::{self, StaggerStep};
use dgr_primitives::{ctx, PathCtx, Poll, Step};
use std::collections::BTreeSet;

/// Returned (consistently by *every* node) when the degree sequence is not
/// realizable — the distributed analogue of a node broadcasting
/// `UNREALIZABLE` in Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unrealizable;

impl std::fmt::Display for Unrealizable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degree sequence is unrealizable")
    }
}

impl std::error::Error for Unrealizable {}

/// One node's result of an implicit realization: the edges *this node*
/// stores. In an implicit overlay each edge is known to at least one
/// endpoint; here the storing endpoint is always the group member, the
/// group leader being the one satisfied without learning its neighbors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImplicitOutcome {
    /// The degree this node asked for.
    pub requested: usize,
    /// IDs of neighbors whose edge is stored at this node.
    pub neighbors: Vec<NodeId>,
    /// Number of while-loop phases the algorithm ran (identical at every
    /// node; the Lemma 10 quantity).
    pub phases: u64,
}

/// Umbrella re-export target: the per-node outcome types of the
/// distributed realizations.
pub type DistributedRealization = ImplicitOutcome;

/// The Lemma 10 phase bound: `min{√m, Δ}` up to constants — exposed so the
/// experiment harness can compare measured phase counts against it.
pub fn phase_bound(seq: &DegreeSequence) -> f64 {
    let m = seq.edge_count() as f64;
    let delta = seq.max_degree() as f64;
    m.sqrt().min(delta)
}

/// Which driver behavior the protocol reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Algorithm 3, implicit realization (Theorem 11).
    Implicit,
    /// Theorem 13 upper envelope (implicit, multigraph semantics).
    Envelope,
    /// Theorem 12 explicit realization (Algorithm 3 + staggered hand-off;
    /// requires a queueing capacity policy).
    Explicit,
}

/// Rounds of a whole realization — context establishment, then
/// [`DegreesCore`] — on a path of `len` nodes whose phases formed
/// `groups[i]` groups in phase `i + 1`: one entry per phase but the last,
/// the run's [`phase_groups`]. Every phase but the last runs the control
/// sweep ([`ops::rounds_for`] at `cap`: paced, at most `2⌈log₂ len⌉`,
/// under a capacity of six) beside the lane: the first phase's lane is
/// the bitonic sort, a later one's the merge lane where [`merges`] says
/// so, after a phase of `g` groups [`sort::merge_rounds_for`]`(len, g)`,
/// which ends inside the sweep while `g < 2^(control - ⌈log₂ len⌉ - 1)`
/// (4 at `len = 2048`); the last phase (a refusal's included) ends on its
/// control sweep, dropping the partial lane beside it; the explicit flavor
/// adds the hand-off epoch for the maximum requested degree `max_degree`
/// at capacity `cap`. Each phase's multicast and status
/// ([`hop_rounds_for`]) open with the next phase, which lasts until they
/// are in too: every phase after the first takes at least
/// `max(control, hop)`, and the hop sets it where it is the longer (by
/// one or two rounds: at `len = 2`, 3 against 2, and at `len = 2049`, 14
/// against 12).
pub fn rounds_for(
    len: usize,
    groups: &[usize],
    flavor: Flavor,
    max_degree: usize,
    cap: usize,
) -> u64 {
    let control = ops::rounds_for(len, cap);
    let first = control.max(sort::rounds_for(len));
    let beside_hop = control.max(hop_rounds_for(len));
    let (first, later, last) = match groups.split_last() {
        None => (0, &[][..], control),
        Some((_, later)) => (first, later, beside_hop),
    };
    let later = later.iter().map(|&g| {
        let lane = if merges(flavor, len) {
            sort::merge_rounds_for(len, g)
        } else {
            sort::rounds_for(len)
        };
        beside_hop.max(lane)
    });
    let (spread, drain) = stagger::plan(max_degree, cap);
    let handoff = u64::from(flavor == Flavor::Explicit) * stagger::rounds_for(spread, drain);
    ctx::rounds_for(len) + first + later.sum::<u64>() + last + handoff
}

/// The groups of every phase but the last that [`DegreesCore`] forms on a
/// path whose members request `degrees`, the input [`rounds_for`] takes: a
/// sequential replay of the phase loop. A phase's `δ`, `N` and so its `q`
/// depend only on the multiset of needs, and so does what the phase
/// leaves of it, whatever the ID order.
pub fn phase_groups(degrees: &[usize], flavor: Flavor) -> Vec<usize> {
    let len = degrees.len();
    let mut needs = degrees.to_vec();
    let mut groups = Vec::new();
    let mut went_negative = false;
    loop {
        needs.sort_unstable_by(|a, b| b.cmp(a));
        let delta = needs.first().copied().unwrap_or(0);
        if went_negative || delta >= len || delta == 0 {
            return groups;
        }
        let stride = delta + 1;
        let q = (needs.iter().take_while(|&&d| d == delta).count() / stride).max(1);
        groups.push(q);
        for (x, need) in needs.iter_mut().enumerate().take(q * stride) {
            if x % stride == 0 {
                *need = 0;
            } else if *need == 0 && flavor != Flavor::Envelope {
                went_negative = true;
            } else {
                *need = need.saturating_sub(1);
            }
        }
        if merges(flavor, len) {
            // The leaders' records leave the path.
            let mut x = 0;
            needs.retain(|_| {
                x += 1;
                x > q * stride || (x - 1) % stride != 0
            });
        }
    }
}

/// Rounds of a phase's hop back to the origins on a path of `len` nodes:
/// the leaders' multicast, then the one round of the status.
pub fn hop_rounds_for(len: usize) -> u64 {
    imcast::rounds_for(len) + 1
}

/// Whether a later phase re-orders the sorted path with the merge lane
/// ([`SortStep::merge`]) instead of sorting it again: in the exact flavors,
/// where its rounds are fewer whatever the groups (`len > 8`). A node at need 0 is inert there
/// — never a leader again, and a run that picks it as a member is refused
/// — so a group's leader can leave the sorted path. The envelope keeps the
/// full sort: its zero-need members take edges, and which of them a group
/// reaches depends on the whole path's ID order.
pub fn merges(flavor: Flavor, len: usize) -> bool {
    flavor != Flavor::Envelope
        && sort::merge_rounds_for(len, len.saturating_sub(1)) < sort::rounds_for(len)
}

/// Folds the control words: maximum remaining need, how many members hold
/// it, whether anyone went negative, maximum requested degree.
fn fold_control(acc: &mut Words, x: &Words) {
    match x[0].cmp(&acc[0]) {
        std::cmp::Ordering::Greater => (acc[0], acc[1]) = (x[0], x[1]),
        std::cmp::Ordering::Equal => acc[1] += x[1],
        std::cmp::Ordering::Less => {}
    }
    acc[2] |= x[2];
    acc[3] = acc[3].max(x[3]);
}

enum CoreStage {
    /// The control sweep beside the lane, and the last phase's hop back to
    /// the origins beside both, each polled until it is ready (`None` from
    /// then on).
    Phase {
        hop: Option<Hop>,
        control: Option<Box<SweepStep>>,
        lane: Option<SortStep>,
    },
    Handoff(StaggerStep),
}

/// A phase's hop back to the origins, opened when the phase commits
/// (rounds: exactly [`hop_rounds_for`]): the leaders' multicast over the
/// positions, then, in the round it ends, one status from each position to
/// the origin of the record it held at the commit.
struct Hop {
    /// The multicast, until it ends.
    mcast: Option<ImcastStep>,
    /// This position's status: to whom, whether the record leaves the
    /// path, and whether it carries the leader's ID (a member's edge).
    status: Option<(NodeId, bool, bool)>,
}

impl Hop {
    /// Polls the hop at a node whose own record is on the path if
    /// `expects`; its result is the status that node got: the edge it
    /// carries, if any, and whether the record left the path.
    fn poll(
        &mut self,
        rctx: &mut RoundCtx<'_>,
        expects: bool,
    ) -> Poll<Option<(Option<NodeId>, bool)>> {
        if let Some(mcast) = &mut self.mcast {
            let Poll::Ready(got) = mcast.poll(rctx) else {
                return Poll::Pending;
            };
            self.mcast = None;
            if let Some((origin, leaves, edge)) = self.status {
                let mut msg = WireMsg::word(tags::STATUS, u64::from(leaves));
                if edge {
                    let p = got.expect("message loss: a committed member missed the multicast");
                    msg = msg.with_addr(p.addr);
                }
                rctx.send(origin, msg);
            }
            return Poll::Pending;
        }
        if !expects {
            return Poll::Ready(None);
        }
        // A repeated status is the same status: the first one stands.
        let env = rctx
            .inbox()
            .iter()
            .find(|e| e.msg.tag == tags::STATUS)
            .expect("message loss: an origin missed its record's status");
        let edge = env.msg.addrs_slice().first().copied();
        Poll::Ready(Some((edge, env.word() != 0)))
    }
}

/// The post-establishment core of the degree realization — the Algorithm
/// 3 phase loop (and the Theorem 12/13 extensions) as a composable
/// [`Step`].
///
/// The core runs on **one** path scope, the [`PathCtx`] it is built on:
/// the records travel between its positions, and the sort, the merge
/// lane, the interval multicast and the control sweep all run over its
/// contacts, for the whole run. Every member of that path runs the core,
/// since the control sweep is what keeps them in lockstep with the
/// data-dependent phase loop. At the top level it is the establishment
/// context, which the whole protocol, [`WithCtx`](dgr_primitives::WithCtx),
/// hands it ([`prepare_degrees`](crate::prepare_degrees)); in Algorithm
/// 6's paper-exact recursion it is the ρ-sorted prefix sub-path, which
/// only the prefix runs, everyone else waiting for its result.
pub struct DegreesCore {
    flavor: Flavor,
    ctx: PathCtx,
    stage: CoreStage,
    /// How the run ends, once a control sweep has said so and until the
    /// last hop is in: a refusal, or realized with the hand-off bound.
    closing: Option<Result<usize, Unrealizable>>,
    /// The record at this node's position: its own in phase 1, the one
    /// the last lane left here after that; `None` at a vacant position.
    held: Option<Held>,
    /// Was a group member's record here with nothing left to give?
    went_negative: bool,
    outcome: ImplicitOutcome,
    /// This phase's `q` groups of `δ + 1` ranks, over `live` records:
    /// `len` less every leader a merge lane took off.
    shape: Regroup,
    /// Is this node's own record still on the path, so that every phase
    /// owes it a status?
    on_path: bool,
}

impl DegreesCore {
    /// Builds the core for a member of `ctx` requesting `degree`; the
    /// first poll opens phase 1.
    pub fn new(degree: usize, flavor: Flavor, ctx: PathCtx) -> Self {
        DegreesCore {
            flavor,
            closing: None,
            // Placeholder; the first poll's `begin_phase` installs phase 1.
            stage: CoreStage::Phase {
                hop: None,
                control: None,
                lane: None,
            },
            held: None,
            went_negative: false,
            outcome: ImplicitOutcome {
                requested: degree,
                neighbors: Vec::new(),
                phases: 0,
            },
            shape: Regroup {
                live: ctx.vp.len,
                ..Regroup::default()
            },
            on_path: true,
            ctx,
        }
    }

    /// Opens a new Algorithm 3 phase: the control sweep and, in the same
    /// rounds, the lane over the positions — the sort, or the merge lane
    /// after a phase where [`merges`] says so; neither needs anything the
    /// sweep computes — beside `hop`, the last phase's hop back to the
    /// origins.
    fn begin_phase(&mut self, hop: Option<Hop>) {
        self.outcome.phases += 1;
        let words = [
            self.held.map_or(0, |h| h.key),
            u64::from(self.held.is_some()),
            u64::from(self.went_negative),
            self.outcome.requested as u64,
        ];
        let ctx = &self.ctx;
        let (vp, x) = (ctx.vp, ctx.position);
        let control = SweepStep::new(vp, ctx.contacts.clone(), x, &words, None, fold_control);
        let (contacts, held) = (ctx.contacts.clone(), self.held.take());
        let lane = if self.outcome.phases > 1 && merges(self.flavor, vp.len) {
            let lane = SortStep::merge(vp, contacts, x, held, self.shape, Order::Descending);
            self.shape.live -= self.shape.groups;
            lane
        } else {
            SortStep::in_place(vp, contacts, x, held, Order::Descending)
        };
        self.stage = CoreStage::Phase {
            hop,
            control: Some(Box::new(control)),
            lane: Some(lane),
        };
    }
}

impl Step for DegreesCore {
    type Out = Result<ImplicitOutcome, Unrealizable>;

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        if self.outcome.phases == 0 {
            let key = self.outcome.requested as u64;
            let origin = rctx.id();
            self.held = Some(Held { key, origin });
            self.begin_phase(None);
        }
        loop {
            match &mut self.stage {
                CoreStage::Phase { hop, control, lane } => {
                    // The hop goes first. It may end before the control
                    // sweep or after it; the phase commits once the hop,
                    // the control and the lane are all in.
                    if let Some(Poll::Ready(status)) =
                        hop.as_mut().map(|h| h.poll(rctx, self.on_path))
                    {
                        *hop = None;
                        if let Some((edge, leaves)) = status {
                            self.outcome.neighbors.extend(edge);
                            self.on_path = !leaves;
                        }
                    }
                    // The control goes next: a refusing or closing phase
                    // drops the lane before it stages this round's sends.
                    if let Some(Poll::Ready(swept)) = control.as_mut().map(|s| s.poll(rctx)) {
                        *control = None;
                        let [delta, n_max, err, bound] = swept.words;
                        // Some node went negative, or wants more
                        // neighbors than exist.
                        if err != 0 || delta as usize >= self.ctx.vp.len {
                            self.closing = Some(Err(Unrealizable));
                            *lane = None;
                        } else if delta == 0 {
                            // Δ bounds any node's incoming announcements.
                            self.closing = Some(Ok(bound as usize));
                            *lane = None;
                        } else {
                            let stride = delta as usize + 1;
                            self.shape.stride = stride;
                            self.shape.groups = (n_max as usize / stride).max(1);
                            debug_assert!(
                                self.shape.span() <= self.shape.live,
                                "groups exceed the path"
                            );
                        }
                    }
                    if let Some(Poll::Ready(held)) = lane.as_mut().map(|s| s.poll(rctx)) {
                        *lane = None;
                        self.held = held;
                    }
                    if hop.is_some() || control.is_some() || lane.is_some() {
                        return Poll::Pending;
                    }
                    match self.closing.take() {
                        Some(Err(refused)) => return Poll::Ready(Err(refused)),
                        Some(Ok(_)) if self.flavor != Flavor::Explicit => {
                            return Poll::Ready(Ok(std::mem::take(&mut self.outcome)));
                        }
                        Some(Ok(bound)) => {
                            self.stage = CoreStage::Handoff(StaggerStep::new(
                                self.outcome.neighbors.clone(),
                                WireMsg::signal(tags::EDGE),
                                bound,
                                rctx.capacity(),
                            ));
                            continue;
                        }
                        None => {}
                    }
                    // Both halves are in. What the phase makes of the
                    // record here depends only on its rank — this
                    // position — and the groups, so the new need is
                    // committed now, and the hop and the next phase open
                    // together this round.
                    let (x, stride) = (self.ctx.position, self.shape.stride);
                    let grouped = self.held.is_some() && x < self.shape.span();
                    let is_leader = grouped && x.is_multiple_of(stride);
                    let mut edge = false;
                    if let Some(held) = self.held.as_mut() {
                        if is_leader {
                            debug_assert_eq!(
                                held.key,
                                stride as u64 - 1,
                                "leader without max degree"
                            );
                            held.key = 0;
                        } else if grouped {
                            // Exact flavors fail on a saturated record;
                            // the envelope accepts the extra edge.
                            if held.key == 0 && self.flavor != Flavor::Envelope {
                                self.went_negative = true;
                            } else {
                                held.key = held.key.saturating_sub(1);
                                edge = true;
                            }
                        }
                    }
                    // A merge lane takes the leaders' records off the path.
                    let leaves = is_leader && merges(self.flavor, self.ctx.vp.len);
                    let status = self.held.map(|h| (h.origin, leaves, edge));
                    let task = self.held.filter(|_| is_leader).map(|h| {
                        let payload = Payload {
                            addr: h.origin,
                            word: 0,
                        };
                        (CoverSide::After, stride - 1, payload)
                    });
                    let ctx = &self.ctx;
                    let mcast = Some(ImcastStep::new(ctx.vp, ctx.contacts.clone(), task));
                    self.begin_phase(Some(Hop { mcast, status }));
                }
                CoreStage::Handoff(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(received) => {
                        // An exact flavor has no multi-edge, so a second
                        // `EDGE` from one sender is a repeat: the first
                        // arrival stands.
                        let mut senders = BTreeSet::new();
                        self.outcome.neighbors.extend(
                            received
                                .iter()
                                .filter(|(src, msg)| msg.tag == tags::EDGE && senders.insert(*src))
                                .map(|(src, _)| *src),
                        );
                        return Poll::Ready(Ok(std::mem::take(&mut self.outcome)));
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{phase_groups, rounds_for, Flavor};
    use crate::driver::{prepare_degrees, realize_for_test};
    use dgr_ncc::{Config, EngineKind, Recording, RunEvent};

    /// The multicast and the status ride the next phase, which lasts
    /// exactly `max(control, hop)` when its lane is shorter: here the
    /// closing phase after one group, whose lane is dropped. The hop is
    /// `⌈log₂ len⌉ + 2` rounds and outlasts the control sweep by at most
    /// two: by one at two positions, by two at 2049, and it ends a round
    /// inside the sweep at 2048 — at a capacity that takes the sweep
    /// unpaced.
    #[test]
    fn the_multicast_ends_inside_the_next_control_sweep() {
        use super::hop_rounds_for;
        use dgr_primitives::{ctx, levels_for, ops, sort};
        let cap = 22;
        for len in 2..=1 << 20 {
            let (control, hop) = (ops::rounds_for(len, cap), hop_rounds_for(len));
            assert_eq!(hop, levels_for(len) as u64 + 2, "len={len}");
            assert!(hop <= control + 2, "len={len}");
            if len.is_power_of_two() || len % 997 == 0 {
                let first = ctx::rounds_for(len) + control.max(sort::rounds_for(len));
                let run = rounds_for(len, &[1], Flavor::Implicit, 1, cap);
                assert_eq!(run - first, control.max(hop), "len={len}");
            }
        }
        let pairs = [2, 2048, 2049].map(|len| (ops::rounds_for(len, cap), hop_rounds_for(len)));
        assert_eq!(pairs, [(2, 3), (14, 13), (12, 14)]);
    }

    /// Wherever a later phase merges, the merge lane fits the control
    /// sweep exactly while the phase before formed fewer than
    /// `2^(control - ⌈log₂ len⌉ - 1)` groups, none where the sweep is no
    /// longer than `⌈log₂ len⌉`: the compaction takes one round a bit of
    /// the groups, the merge pass `⌈log₂ len⌉ + 1`. At n = 2048 that is
    /// fewer than 4 groups: a run of 9 phases is the establishment (12), a
    /// 66-round first phase, then seven phases of 19, 14, 20, 21, 14, 21
    /// and 14 rounds — the lane after 118, 251, 419 and 418 groups, else
    /// the 14-round sweep — and the 14-round closing sweep. The edge holds
    /// for the paced sweep too.
    #[test]
    fn a_later_phase_is_its_control_sweep() {
        use dgr_primitives::{levels_for, ops, sort};
        for (len, cap) in (9..=1 << 20).flat_map(|len| [(len, 22), (len, 4)]) {
            let control = ops::rounds_for(len, cap);
            let fits = |groups| sort::merge_rounds_for(len, groups) <= control;
            let spare = control.checked_sub(levels_for(len) as u64 + 1);
            let edge = spare.map_or(0, |bits| 1 << bits);
            for groups in [0, 1, edge.max(1) - 1, edge, len - 1] {
                assert_eq!(fits(groups), groups < edge, "len={len} groups={groups}");
            }
        }
        assert_eq!(ops::rounds_for(2048, 22), 14);
        let groups = [118, 1, 251, 419, 1, 418, 1, 419];
        assert_eq!(rounds_for(2048, &groups, Flavor::Implicit, 5, 22), 215);
    }

    /// The replay of the phase loop counts the phases a run takes; a
    /// refusal stops it at the phase before the refusing one.
    #[test]
    fn phase_groups_replays_the_phase_loop() {
        assert_eq!(phase_groups(&[2, 2, 2], Flavor::Implicit), [1, 1]);
        assert_eq!(phase_groups(&[0, 0], Flavor::Implicit), [] as [usize; 0]);
        assert_eq!(phase_groups(&[3, 1, 1], Flavor::Implicit), [] as [usize; 0]);
        assert_eq!(phase_groups(&[3, 3, 1, 1], Flavor::Implicit), [1, 1]);
        for flavor in [Flavor::Implicit, Flavor::Envelope] {
            let out = realize_for_test(&[6; 32], Config::ncc0(5), flavor);
            let groups = phase_groups(&[6; 32], flavor);
            assert_eq!(groups.len() as u64 + 1, out.expect_realized().phases);
        }
    }

    /// Drops every message of round `lost` in an implicit run at n = 64
    /// and returns the node panic's message, the same on both engines.
    fn panic_of_a_lost_round(lost: u64) -> String {
        use dgr_ncc::{Scenario, SimError};
        let n = 64;
        let degrees: Vec<usize> = (0..n).map(|i| 2 + 2 * (i % 3)).collect();
        let lost = Scenario::new(3).drop_messages(lost..=lost, 1.0);
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let config = Config::ncc0(7).with_scenario(lost.clone());
            let job = prepare_degrees(&degrees, None, config, Flavor::Implicit, engine);
            match job.unwrap().drive(None) {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        messages[0].clone()
    }

    /// The round the first phase commits in, at n = 64: the multicast
    /// and the second phase open in it.
    fn first_commit() -> u64 {
        use dgr_primitives::{ctx, ops, sort};
        let n = 64;
        let control = ops::rounds_for(n, Config::ncc0(7).capacity(n));
        ctx::rounds_for(n) + control.max(sort::rounds_for(n))
    }

    /// A member commits its need before its payload arrives, so losing
    /// the multicast's first round of sends is a typed panic that names
    /// the cause, on both engines — never a silently short degree.
    /// A member commits its need before its payload arrives, so losing
    /// the multicast's first round of sends is a typed panic that names
    /// the cause, on both engines — never a silently short degree. In a
    /// run the control sweep and the lane share every round of the
    /// multicast, and their own loss checks fire first; so the hop runs
    /// alone here, position 0 leading positions 1 to 3.
    #[test]
    fn a_lost_multicast_panics_its_committed_member() {
        use super::Hop;
        use dgr_ncc::{Network, NodeId, RoundCtx, Scenario, SimError};
        use dgr_primitives::imcast::{CoverSide, ImcastStep, Payload};
        use dgr_primitives::{ctx, PathCtx, Poll, Step, WithCtx};
        struct LoneHop(Hop);
        impl Step for LoneHop {
            type Out = Option<(Option<NodeId>, bool)>;
            fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
                self.0.poll(rctx, true)
            }
        }
        let n = 16;
        let lost = ctx::rounds_for(n);
        let scenario = Scenario::new(3).drop_messages(lost..=lost, 1.0);
        let net = Network::new(n, Config::ncc0(7).with_scenario(scenario));
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run = net.run_protocol_on(engine, None, None, |_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let (x, id) = (c.position, rctx.id());
                    let task =
                        (x == 0).then_some((CoverSide::After, 3, Payload { addr: id, word: 0 }));
                    let mcast = Some(ImcastStep::new(c.vp, c.contacts.clone(), task));
                    LoneHop(Hop {
                        mcast,
                        status: Some((id, false, (1..=3).contains(&x))),
                    })
                })
            });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        assert_eq!(
            messages[0],
            "message loss: a committed member missed the multicast"
        );
    }

    /// Every origin whose record is on the path expects one status a
    /// phase, so losing the round the first statuses go out in is a typed
    /// panic at the origins, on both engines — never a missing edge.
    #[test]
    fn a_lost_status_panics_its_origin() {
        use dgr_primitives::imcast;
        let sent = first_commit() + imcast::rounds_for(64);
        assert_eq!(
            panic_of_a_lost_round(sent),
            "message loss: an origin missed its record's status"
        );
    }

    #[test]
    fn realizes_a_triangle() {
        let out = realize_for_test(&[2, 2, 2], Config::ncc0(1), Flavor::Implicit);
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 3);
        assert_eq!(g.graph.degree_sequence(), vec![2, 2, 2]);
        assert!(g.metrics.is_clean());
    }

    #[test]
    fn realizes_k5_and_stars() {
        for degrees in [
            vec![4, 4, 4, 4, 4],
            vec![5, 1, 1, 1, 1, 1],
            vec![3, 3, 2, 2, 1, 1],
            vec![0, 0, 0],
            vec![1, 1, 0, 0],
        ] {
            let out = realize_for_test(&degrees, Config::ncc0(7), Flavor::Implicit);
            let g = out.expect_realized();
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(g.graph.degree_sequence(), want, "{degrees:?}");
            assert_eq!(g.duplicate_edges, 0, "{degrees:?}");
        }
    }

    #[test]
    fn rejects_non_graphic_sequences() {
        for degrees in [
            vec![1, 0],             // odd sum
            vec![3, 3, 1, 1],       // EG violation
            vec![4, 4, 4, 1, 1],    // EG violation
            vec![3, 1, 1],          // degree ≥ n handled mid-run
            vec![5, 5, 4, 3, 2, 1], // classic
        ] {
            let out = realize_for_test(&degrees, Config::ncc0(3), Flavor::Implicit);
            assert!(out.is_unrealizable(), "{degrees:?} was accepted");
        }
    }

    /// `[3, 1, 1]` (δ ≥ n) is refused by the first control sweep — at
    /// three nodes the sweep outlasts the sort beside it, so the sorted
    /// path is already built and goes unused; `[3, 3, 1, 1]` (a node goes
    /// negative in phase 2) by the third. Every node gets there in the
    /// same round: no round completes with only some of them still
    /// running.
    #[test]
    fn refusals_reach_every_node_in_the_same_round() {
        for (degrees, phases) in [(vec![3, 1, 1], 1), (vec![3, 3, 1, 1], 3)] {
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let mut recording = Recording::new();
                let flavor = Flavor::Implicit;
                let sink = Some(&mut recording as &mut dyn dgr_ncc::Sink);
                let job = prepare_degrees(&degrees, None, Config::ncc0(3), flavor, engine);
                let out = job.unwrap().drive(sink).unwrap().output;
                assert!(out.is_unrealizable(), "{degrees:?} was accepted");
                let (n, m) = (degrees.len(), out.metrics());
                let groups = phase_groups(&degrees, flavor);
                assert_eq!(groups.len() as u64 + 1, phases, "{degrees:?}");
                assert_eq!(m.rounds, rounds_for(n, &groups, flavor, 3, m.capacity));
                let rounds = recording.events().into_iter().filter_map(|e| match e {
                    RunEvent::RoundCompleted { live, .. } => Some(live),
                    _ => None,
                });
                assert!(rounds.clone().count() as u64 >= m.rounds);
                assert!(rounds.clone().all(|live| live == n), "{degrees:?}");
            }
        }
    }

    #[test]
    fn phase_count_is_within_lemma10() {
        // A 6-regular sequence on 32 nodes: Δ = 6, so at most ~2Δ phases.
        let degrees = vec![6usize; 32];
        let out = realize_for_test(&degrees, Config::ncc0(5), Flavor::Implicit);
        let g = out.expect_realized();
        assert!(
            g.phases <= 2 * 6 + 2,
            "phases {} exceed Lemma 10 allowance",
            g.phases
        );
    }

    #[test]
    fn single_node_zero_degree() {
        let out = realize_for_test(&[0], Config::ncc0(1), Flavor::Implicit);
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 0);
        let out = realize_for_test(&[1], Config::ncc0(1), Flavor::Implicit);
        assert!(out.is_unrealizable());
    }

    #[test]
    fn both_endpoints_know_every_edge() {
        let degrees = vec![4, 3, 3, 2, 2, 2, 1, 1];
        let out = realize_for_test(&degrees, Config::ncc0(31).with_queueing(), Flavor::Explicit);
        let g = out.expect_realized();
        // Explicit: every node's neighbor list is exactly its graph
        // adjacency — symmetric by construction of the check in the driver.
        for &id in &g.path_order {
            let mut listed = g.explicit_neighbors[&id].clone();
            listed.sort_unstable();
            listed.dedup();
            let mut actual = g.graph.neighbors_of(id);
            actual.sort_unstable();
            assert_eq!(listed, actual, "node {id}");
        }
        let mut want = degrees.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(g.graph.degree_sequence(), want);
        assert_eq!(g.metrics.undelivered, 0);
    }

    /// The closing phase drops a sort still in flight: at 64 nodes the
    /// control sweep ends inside the comparator network, so its last
    /// exchanges land in the round the hand-off opens, whose first poll
    /// reads no inbox. Nothing is left undelivered and every node lists
    /// exactly its overlay adjacency, on both engines.
    #[test]
    fn explicit_hand_off_ignores_the_dropped_sort() {
        use dgr_primitives::{ops, sort};
        let n = 64;
        let degrees: Vec<usize> = (0..n).map(|i| 1 + i % 4).collect();
        let config = Config::ncc0(37).with_queueing();
        assert!(ops::rounds_for(n, config.capacity(n)) < sort::rounds_for(n));
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let flavor = Flavor::Explicit;
            let job = prepare_degrees(&degrees, None, config.clone(), flavor, engine);
            let out = job.unwrap().drive(None).unwrap().output;
            let g = out.expect_realized();
            assert_eq!(g.metrics.undelivered, 0, "{engine:?}");
            assert!(g.metrics.is_clean(), "{engine:?}");
            let groups = phase_groups(&degrees, flavor);
            assert_eq!(groups.len() as u64 + 1, g.phases, "{engine:?}");
            let want = rounds_for(n, &groups, flavor, 4, g.metrics.capacity);
            assert_eq!(g.metrics.rounds, want, "{engine:?}");
            for &id in &g.path_order {
                let mut listed = g.explicit_neighbors[&id].clone();
                listed.sort_unstable();
                let mut actual = g.graph.neighbors_of(id);
                actual.sort_unstable();
                assert_eq!(listed, actual, "{engine:?} node {id}");
            }
        }
    }

    #[test]
    fn explicit_rejects_non_graphic() {
        let out = realize_for_test(
            &[3, 3, 1, 1],
            Config::ncc0(33).with_queueing(),
            Flavor::Explicit,
        );
        assert!(out.is_unrealizable());
    }

    #[test]
    fn star_fan_in_is_paced() {
        // A star forces Δ = n-1 announcements at the hub; receive capacity
        // must never be exceeded at delivery time.
        let n = 48;
        let mut degrees = vec![1usize; n];
        degrees[0] = n - 1;
        let out = realize_for_test(&degrees, Config::ncc0(35).with_queueing(), Flavor::Explicit);
        let g = out.expect_realized();
        assert!(g.metrics.max_received_per_round <= g.metrics.capacity);
        assert_eq!(g.graph.degree_sequence()[0], n - 1);
    }

    /// Checks the two Theorem 13 invariants on a realized envelope.
    fn check_envelope(degrees: &[usize], seed: u64) {
        let out = realize_for_test(degrees, Config::ncc0(seed), Flavor::Envelope);
        let g = out.expect_realized();
        let sum: usize = degrees.iter().sum();
        let mut envelope_sum = 0;
        for (i, &id) in g.path_order.iter().enumerate() {
            let d_prime = g.multi_degrees[&id];
            assert!(
                d_prime >= degrees[i],
                "node {i}: envelope {d_prime} < requested {}",
                degrees[i]
            );
            envelope_sum += d_prime;
        }
        assert!(
            envelope_sum <= 2 * sum,
            "Σd' = {envelope_sum} exceeds 2Σd = {}",
            2 * sum
        );
    }

    #[test]
    fn envelopes_odd_sum_sequences() {
        check_envelope(&[3, 3, 1, 0], 11);
        check_envelope(&[1, 0, 0], 12);
        check_envelope(&[5, 3, 3, 2, 2, 2, 1, 1], 13);
    }

    #[test]
    fn envelopes_eg_violating_sequences() {
        check_envelope(&[4, 4, 4, 1, 1], 14);
        check_envelope(&[3, 3, 1, 1], 15);
        check_envelope(&[5, 5, 4, 3, 2, 1], 16);
    }

    #[test]
    fn graphic_input_realizes_exactly() {
        // On a graphic sequence the envelope variant must produce an exact
        // realization with zero discrepancy and zero duplicates.
        let degrees = vec![3, 2, 2, 2, 1];
        let out = realize_for_test(&degrees, Config::ncc0(17), Flavor::Envelope);
        let g = out.expect_realized();
        assert_eq!(g.duplicate_edges, 0);
        let mut want = degrees.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(g.graph.degree_sequence(), want);
    }

    #[test]
    fn rejects_oversized_degrees() {
        let out = realize_for_test(&[3, 1, 1], Config::ncc0(18), Flavor::Envelope);
        assert!(out.is_unrealizable());
    }
}
