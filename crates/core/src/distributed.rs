//! Distributed degree realization in the NCC model (Section 4 of the
//! paper): the implicit Algorithm 3, its explicit extension, and the
//! upper-envelope variant for non-graphic sequences — one phase engine,
//! [`DegreesCore`], in three [`Flavor`]s.
//!
//! # Algorithm 3: implicit realization in `O~(min{√m, Δ})` rounds (Theorem 11)
//!
//! A parallelized Havel–Hakimi. Each phase:
//!
//! 1. sort the nodes by remaining degree, non-increasing (Theorem 3);
//! 2. broadcast the maximum remaining degree `δ`; if `δ = 0`, stop;
//! 3. broadcast `N`, the multiplicity of `δ`, and let
//!    `q = max(1, ⌊N/(δ+1)⌋)`;
//! 4. split the first `q(δ+1)` sorted ranks into `q` star groups; each
//!    group's first node multicasts its ID to the other `δ` members
//!    (interval multicast on the sorted path), which store the edge and
//!    decrement their remaining degree, while the leader is fully
//!    satisfied and drops to 0;
//! 5. a member whose degree would go negative triggers a global
//!    `UNREALIZABLE` flag (aggregated + broadcast).
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
//! hand-off uses the staggered-delivery primitive (`DESIGN.md` §4's
//! substitute for the Theorem 8 butterfly collection): every announcement
//! is delayed uniformly in `[0, Θ(Δ/cap))` rounds and receive-side queueing
//! absorbs the w.h.p. `O(log n)` per-round overflow. [`Flavor::Explicit`]
//! is Algorithm 3, then a broadcast of `Δ` (the commonly known bound on
//! any node's incoming announcements, which fixes the epoch length), then
//! the hand-off.
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
//! edges; `DESIGN.md` §4 documents this. The driver reports duplicate
//! counts so callers can quantify it (it is zero on every exact-mode run).
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
use dgr_primitives::bbst::Bbst;
use dgr_primitives::contacts::{ContactTable, ContactsStep};
use dgr_primitives::imcast::{CoverSide, ImcastStep, Payload};
use dgr_primitives::ops::AggBcastStep;
use dgr_primitives::sort::{Order, SortBackend, SortStep, SortedPath};
use dgr_primitives::stagger::{self, StaggerStep};
use dgr_primitives::{AggOp, PathCtx, Poll, Step, VPath};
use std::sync::Arc;

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

enum CoreStage {
    Sort(SortStep),
    SortedContacts(ContactsStep),
    Delta(AggBcastStep),
    NMax(AggBcastStep),
    Mcast(ImcastStep),
    ErrFlag(AggBcastStep),
    DeltaBound(AggBcastStep),
    Handoff(StaggerStep),
}

/// The post-establishment core of the degree realization — the Algorithm
/// 3 phase loop (and the Theorem 12/13 extensions) as a composable
/// [`Step`].
///
/// The core is parameterized by **two** path scopes:
///
/// * `local` — the [`PathCtx`] the realization happens *on*: the sort,
///   the sorted contacts and the interval multicast all run over this
///   (possibly non-member) view. At the top level it is the whole
///   knowledge path; in Algorithm 6's paper-exact recursion it is the
///   ρ-sorted prefix sub-path, with every non-prefix node holding a
///   non-member view of the same length.
/// * `global` — the path view and BBST the loop's *control aggregations*
///   (δ, N, the error flag) run over. Using the full-network tree keeps
///   every node — member of the sub-path or not — in lockstep with the
///   data-dependent phase loop: non-members contribute the aggregation
///   identity and still learn every control value. At the top level
///   `global` simply equals the establishment context: the whole protocol
///   is [`WithCtx`](dgr_primitives::WithCtx) handing its context to both
///   scopes ([`realize_degrees`](crate::realize_degrees)).
pub struct DegreesCore {
    degree: usize,
    flavor: Flavor,
    sort: SortBackend,
    local: PathCtx,
    global_vp: VPath,
    global_tree: Arc<Bbst>,
    stage: CoreStage,
    need: u64,
    outcome: ImplicitOutcome,
    sp: Option<SortedPath>,
    sct: Option<Arc<ContactTable>>,
    delta: usize,
    is_leader: bool,
}

impl DegreesCore {
    /// Builds the core; the first poll opens phase 1. Non-members of
    /// `local` must pass `degree = 0` (the aggregation identity) and the
    /// bitonic sort backend (a non-member cannot idle through the
    /// randomized backend's data-dependent rounds).
    pub fn new(
        degree: usize,
        flavor: Flavor,
        sort: SortBackend,
        local: PathCtx,
        global_vp: VPath,
        global_tree: Arc<Bbst>,
        my_id: NodeId,
    ) -> Self {
        let mut core = DegreesCore {
            degree,
            flavor,
            sort,
            local,
            global_vp,
            global_tree,
            // Placeholder; `begin_phase` installs the real first stage.
            stage: CoreStage::SortedContacts(ContactsStep::new(VPath::non_member(0))),
            need: degree as u64,
            outcome: ImplicitOutcome {
                requested: degree,
                neighbors: Vec::new(),
                phases: 0,
            },
            sp: None,
            sct: None,
            delta: 0,
            is_leader: false,
        };
        core.begin_phase(my_id);
        core
    }

    /// Opens a new Algorithm 3 phase: re-sort by remaining degree.
    fn begin_phase(&mut self, my_id: NodeId) {
        self.outcome.phases += 1;
        self.stage = CoreStage::Sort(SortStep::on_ctx(
            &self.local,
            self.need,
            Order::Descending,
            my_id,
            self.sort,
        ));
    }

    /// An aggregate + broadcast over the fixed global tree.
    fn agg(&self, value: u64, op: AggOp) -> AggBcastStep {
        AggBcastStep::new(self.global_vp, self.global_tree.clone(), value, op)
    }

    /// Closes the run: implicit flavors finish, the explicit flavor first
    /// broadcasts Δ and staggers the edge announcements.
    fn finish(&mut self) -> Option<Poll<Result<ImplicitOutcome, Unrealizable>>> {
        if self.flavor == Flavor::Explicit {
            self.stage = CoreStage::DeltaBound(self.agg(self.degree as u64, AggOp::Max));
            None
        } else {
            Some(Poll::Ready(Ok(std::mem::take(&mut self.outcome))))
        }
    }
}

impl Step for DegreesCore {
    type Out = Result<ImplicitOutcome, Unrealizable>;

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        loop {
            match &mut self.stage {
                CoreStage::Sort(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(sp) => {
                        self.stage = CoreStage::SortedContacts(ContactsStep::new(sp.vp));
                        self.sp = Some(sp);
                    }
                },
                CoreStage::SortedContacts(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(table) => {
                        self.sct = Some(table);
                        self.stage = CoreStage::Delta(self.agg(self.need, AggOp::Max));
                    }
                },
                CoreStage::Delta(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(delta) => {
                        if delta == 0 {
                            if let Some(done) = self.finish() {
                                return done;
                            }
                            continue;
                        }
                        if delta as usize >= self.local.vp.len {
                            // Some node wants more neighbors than exist.
                            return Poll::Ready(Err(Unrealizable));
                        }
                        self.delta = delta as usize;
                        let mine = u64::from(self.local.vp.member && self.need == delta);
                        self.stage = CoreStage::NMax(self.agg(mine, AggOp::Sum));
                    }
                },
                CoreStage::NMax(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(n_max) => {
                        let delta = self.delta;
                        let q = (n_max as usize / (delta + 1)).max(1);
                        let group_span = q * (delta + 1);
                        debug_assert!(group_span <= self.local.vp.len, "groups exceed the path");
                        let sp = self.sp.as_ref().expect("phase without a sorted path");
                        let rank = sp.rank;
                        self.is_leader = self.local.vp.member
                            && rank < group_span
                            && rank.is_multiple_of(delta + 1);
                        let task = self.is_leader.then(|| {
                            (
                                CoverSide::After,
                                delta,
                                Payload {
                                    addr: rctx.id(),
                                    word: 0,
                                },
                            )
                        });
                        self.stage = CoreStage::Mcast(ImcastStep::new(
                            sp.vp,
                            self.sct.clone().expect("phase without sorted contacts"),
                            task,
                        ));
                    }
                },
                CoreStage::Mcast(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(got) => {
                        let mut went_negative = false;
                        if self.is_leader {
                            debug_assert_eq!(
                                self.need, self.delta as u64,
                                "leader without max degree"
                            );
                            self.need = 0;
                        } else if let Some(p) = got {
                            if self.need == 0 {
                                // Exact flavors fail on a saturated node;
                                // the envelope accepts the extra edge.
                                if self.flavor == Flavor::Envelope {
                                    self.outcome.neighbors.push(p.addr);
                                } else {
                                    went_negative = true;
                                }
                            } else {
                                self.outcome.neighbors.push(p.addr);
                                self.need -= 1;
                            }
                        }
                        self.stage =
                            CoreStage::ErrFlag(self.agg(u64::from(went_negative), AggOp::Or));
                    }
                },
                CoreStage::ErrFlag(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(err) => {
                        if err != 0 {
                            return Poll::Ready(Err(Unrealizable));
                        }
                        self.begin_phase(rctx.id());
                    }
                },
                CoreStage::DeltaBound(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(delta) => {
                        let (spread, drain) = stagger::plan(delta as usize, rctx.capacity());
                        let sends = self
                            .outcome
                            .neighbors
                            .iter()
                            .map(|&nb| (nb, WireMsg::signal(tags::EDGE)))
                            .collect();
                        self.stage = CoreStage::Handoff(StaggerStep::new(sends, spread, drain));
                    }
                },
                CoreStage::Handoff(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(received) => {
                        self.outcome.neighbors.extend(
                            received
                                .iter()
                                .filter(|(_, msg)| msg.tag == tags::EDGE)
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
    use super::Flavor;
    use crate::driver::realize_for_test;
    use dgr_ncc::Config;

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
