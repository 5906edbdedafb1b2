//! Distributed tree realization (Section 5): Algorithms 4 and 5 as one
//! state machine, [`RealizeTree`], run on the positions of the network
//! path. After the degree sort, position `x` holds rank `x`'s record
//! `(d, origin)` and works on its behalf, so both constructions are the
//! same chain of steps: the context establishment, keyed by the degrees;
//! the input check (`Σd = 2(n-1)`, `min d ≥ 1`; a failure refuses with
//! [`Unrealizable`]) beside the degree sort — the class route, the degrees
//! past 7 then ordered in a window of their own, where the capacity takes
//! it beside the check ([`SortStep::by_class`]), ties by establishment position, which any
//! order of equal degrees allows; the slot prefix sums; and the hand-off, which
//! gives every child its parent's ID. They differ only in the slot rule
//! and in where the child intervals start. The check's sweep runs in the
//! rounds of the degree sort — neither feeds the other — so the opening
//! costs `max(check, sort)` rounds, and a refusal drops the partial sort
//! when the check completes. Stage transitions happen within a round — a
//! primitive boundary costs no round; `crates/trees/tests/batched_trees.rs`
//! pins the transcripts on both engines.
//!
//! # The hand-off
//!
//! Rank `i` has `slots_i` child slots, and its child interval is the
//! `slots_i` ranks from `a_i = a + Σ_{j<i} slots_j` on, where `a` is the
//! first rank a parent adopts. The ranks with child slots form a prefix
//! (the degrees descend), and across it `a_{i+1} - a_i = slots_i ≥ 1`, so
//! the offsets `a_i - i` never decrease and the intervals are disjoint:
//! the contract of the shifted interval multicast
//! ([`ImcastStep::at_offset`]), in which each such rank sends its origin
//! to its interval. In the round the multicast ends, every position sends
//! its record's origin one status carrying the parent's ID (none at the
//! root), so every node learns its parent itself and no sorted path is
//! ever built. A position of rank `≥ 1` that heard of no parent, or an
//! origin that got no status, panics: a lost message fails the run.
//!
//! # Algorithm 4 (Distributed-Tree-Realization-1, Theorem 14)
//!
//! [`TreeAlgo::Chain`]: implicit tree realization in `O(polylog n)`
//! rounds. Construction (0-based over the degree-sorted ranks, `k` =
//! number of non-leaves, `k_eff = max(k, 1)`):
//!
//! 1. chain ranks `0..=k_eff` (the rank-`k_eff` node is the first leaf,
//!    absorbed by the chain's end);
//! 2. rank `i < k_eff` still owes `slots_i = d_i - 1 - [i>0]` edges; the
//!    remaining leaves (ranks `k_eff+1..n`) are assigned to the non-leaves
//!    in order by the prefix sums of `slots` (the paper's `p_i`, so
//!    `a = k_eff + 1`);
//! 3. each non-leaf announces its ID to its leaf interval.
//!
//! Step 1 is one message: in the hand-off's first round, rank
//! `r - 1 < k_eff` sends its origin to position `r`. Step 3 is the shifted
//! multicast. The paper routes step 3's announcements with the Theorem 6/7
//! butterfly machinery; the shifted multicast needs no butterfly
//! (ARCHITECTURE.md, *Deviations from the paper*).
//!
//! # Algorithm 5 (Distributed-Tree-Realization-2, Theorem 16)
//!
//! [`TreeAlgo::Greedy`]: implicit realization of the **minimum-diameter**
//! tree in `O(polylog n)` rounds. The greedy tree `T_G`: in degree-sorted
//! order, the root (rank 0) adopts the next `d_0` ranks as children; every
//! subsequent rank `i` adopts the next `d_i - 1` unparented ranks. The
//! child intervals are the prefix sums `a_i = 1 + Σ_{j<i}(d_j - [j>0])`,
//! partitioning ranks `1..n` in order. By Lemma 15, `T_G` minimizes the
//! diameter over all realizing trees.
//!
//! Internal nodes are simultaneously parents (they announce to an
//! interval) and children (they are inside someone else's interval): the
//! multicast's leg carries a parent's ID away before any interval is
//! covered, so one position plays both roles.

use crate::driver::TreeAlgo;
use dgr_core::Unrealizable;
use dgr_ncc::{tags, NodeId, NodeProtocol, RoundCtx, Status, WireMsg};
use dgr_primitives::imcast::{self, ImcastStep};
use dgr_primitives::ops::{self, SweepStep};
use dgr_primitives::prefix::{self, PrefixStep};
use dgr_primitives::sort::{self, Held, Order, SortStep};
use dgr_primitives::{ctx, EstablishCtx, PathCtx, Poll, Step};

/// Rounds of a realized tree run over `degrees`, one a node, `len ≥ 2`
/// of them, at capacity `cap`, either algorithm: context establishment,
/// the input check beside the degree sort ([`sort::first_rounds_for`]),
/// the slot prefix sums, the shifted multicast and the round of the
/// statuses. A refusal (and a single node) ends on the check,
/// `ctx::rounds_for(len) + ops::rounds_for(len, cap)` rounds in all.
pub fn rounds_for(degrees: &[usize], cap: usize) -> u64 {
    let len = degrees.len();
    let keys = degrees.iter().map(|&d| d as u64);
    let sort = sort::first_rounds_for(keys, cap, ops::sweep_load(len, cap));
    ctx::rounds_for(len)
        + ops::rounds_for(len, cap).max(sort)
        + prefix::rounds_for(len)
        + imcast::offset_rounds_for(len)
        + 1
}

/// One node's result of a tree realization: the tree edges stored here
/// (implicit realization — each edge lives at exactly one endpoint).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeOutcome {
    /// The degree this node asked for.
    pub requested: usize,
    /// IDs of neighbors whose tree edge is stored at this node.
    pub neighbors: Vec<NodeId>,
}

enum Stage {
    Establish(EstablishCtx),
    /// The input check and Algorithm 4's `k` — `(Σd, min d, number of
    /// non-leaves)` in one sweep — beside the degree sort, which needs
    /// none of them; each is polled until it is ready (`None` from then
    /// on).
    Sorting {
        check: Option<SweepStep>,
        sort: Option<SortStep>,
    },
    Prefix(PrefixStep),
    /// The shifted multicast, then (`None`) the round of the statuses.
    Handoff(Option<ImcastStep>),
}

/// The tree-realization state machine at one node.
pub struct RealizeTree {
    degree: usize,
    algo: TreeAlgo,
    stage: Stage,
    /// The full network path, known once the context is established.
    ctx: PathCtx,
    /// The record this position holds once the sort is done: rank
    /// `ctx.position`'s degree and node.
    held: Option<Held>,
    outcome: TreeOutcome,
    /// Algorithm 4's `k_eff`, and the held rank's child slots.
    k_eff: usize,
    slots: usize,
    /// The parent Algorithm 4's chain hands the held rank.
    chained: Option<NodeId>,
}

impl RealizeTree {
    /// Builds the protocol for one node; `degree` is its requested tree
    /// degree.
    pub fn new(degree: usize, algo: TreeAlgo) -> Self {
        RealizeTree {
            degree,
            algo,
            stage: Stage::Establish(EstablishCtx::keyed(degree as u64)),
            ctx: PathCtx::default(),
            held: None,
            outcome: TreeOutcome {
                requested: degree,
                neighbors: Vec::new(),
            },
            k_eff: 0,
            slots: 0,
            chained: None,
        }
    }

    fn done(&mut self) -> Status<Result<TreeOutcome, Unrealizable>> {
        Status::Done(Ok(std::mem::take(&mut self.outcome)))
    }
}

impl NodeProtocol for RealizeTree {
    type Output = Result<TreeOutcome, Unrealizable>;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> Status<Self::Output> {
        loop {
            match &mut self.stage {
                Stage::Establish(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(ctx) => {
                        let degree = self.degree as u64;
                        let check = SweepStep::new(
                            ctx.vp,
                            ctx.contacts.clone(),
                            ctx.position,
                            &[degree, degree, u64::from(degree > 1)],
                            None,
                            |acc, x| *acc = [acc[0] + x[0], acc[1].min(x[1]), acc[2] + x[2], 0],
                        );
                        let beside = ops::sweep_load(ctx.vp.len, rctx.capacity());
                        let sort =
                            SortStep::by_class(&ctx, degree, Order::Descending, rctx.id(), beside);
                        self.stage = Stage::Sorting {
                            check: Some(check),
                            sort: Some(sort),
                        };
                        self.ctx = ctx;
                    }
                },
                Stage::Sorting { check, sort } => {
                    // The check goes first: a refusal drops the sort
                    // before it stages this round's sends.
                    if let Some(Poll::Ready(total)) = check.as_mut().map(|s| s.poll(rctx)) {
                        *check = None;
                        let [sum, min, non_leaves, _] = total.words;
                        self.k_eff = (non_leaves as usize).max(1);
                        let n = self.ctx.vp.len as u64;
                        if sum != 2 * (n - 1) || (n >= 2 && min < 1) {
                            return Status::Done(Err(Unrealizable));
                        }
                        if n == 1 {
                            return self.done();
                        }
                    }
                    if let Some(Poll::Ready(held)) = sort.as_mut().map(|s| s.poll(rctx)) {
                        *sort = None;
                        self.held = held;
                    }
                    if check.is_some() || sort.is_some() {
                        return Status::Continue;
                    }
                    let (rank, d) = (self.ctx.position, self.held.unwrap().key as usize);
                    self.slots = match self.algo {
                        // Algorithm 4: the chain takes a non-leaf's edge
                        // to the next rank and, past the head, to the
                        // previous one; leaves keep none.
                        TreeAlgo::Chain if rank < self.k_eff => d - 1 - usize::from(rank > 0),
                        TreeAlgo::Chain => 0,
                        // Algorithm 5: the root keeps all d, everyone
                        // else spends one on its parent.
                        TreeAlgo::Greedy => d - usize::from(rank > 0),
                    };
                    let (vp, table) = (self.ctx.vp, self.ctx.contacts.clone());
                    self.stage = Stage::Prefix(PrefixStep::exclusive(vp, table, self.slots as u64));
                }
                Stage::Prefix(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(before) => {
                        let (rank, origin) = (self.ctx.position, self.held.unwrap().origin);
                        let first = match self.algo {
                            TreeAlgo::Chain => self.k_eff + 1,
                            TreeAlgo::Greedy => 1,
                        };
                        // Algorithm 4's chain: rank `r < k_eff` is the
                        // parent of its sorted successor.
                        if let (TreeAlgo::Chain, Some(succ)) = (self.algo, self.ctx.vp.succ) {
                            if rank < self.k_eff {
                                rctx.send(succ, WireMsg::addr(tags::SORT_LINK, origin));
                            }
                        }
                        let task = (self.slots > 0)
                            .then(|| (first + before as usize - rank, self.slots, origin));
                        let (vp, table) = (self.ctx.vp, self.ctx.contacts.clone());
                        let mcast = ImcastStep::at_offset(vp, table, task);
                        self.stage = Stage::Handoff(Some(mcast));
                    }
                },
                Stage::Handoff(Some(s)) => {
                    // The chain's message, in the hand-off's second round.
                    let inbox = rctx.inbox();
                    if let Some(env) = inbox.iter().find(|e| e.msg.tag == tags::SORT_LINK) {
                        self.chained = Some(env.addr());
                    }
                    let Poll::Ready(got) = s.poll(rctx) else {
                        return Status::Continue;
                    };
                    let parent = got.or(self.chained);
                    assert!(
                        parent.is_some() || self.ctx.position == 0,
                        "message loss: a position missed its parent"
                    );
                    let status = match parent {
                        Some(p) => WireMsg::addr(tags::STATUS, p),
                        None => WireMsg::signal(tags::STATUS),
                    };
                    rctx.send(self.held.unwrap().origin, status);
                    self.stage = Stage::Handoff(None);
                    return Status::Continue;
                }
                Stage::Handoff(None) => {
                    // A repeated status is the same status: the first one
                    // stands.
                    let status = (rctx.inbox().iter())
                        .find(|e| e.msg.tag == tags::STATUS)
                        .expect("message loss: an origin missed its record's status");
                    let parent = status.msg.addrs_slice().first().copied();
                    self.outcome.neighbors.extend(parent);
                    return self.done();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::{realize_tree, TreeAlgo};
    use crate::greedy;
    use dgr_core::DegreeSequence;
    use dgr_ncc::Config;

    #[test]
    fn realizes_paths_stars_and_mixed_profiles() {
        for degrees in [
            vec![1, 1],
            vec![2, 1, 1],
            vec![2, 2, 2, 1, 1],       // path of 5
            vec![4, 1, 1, 1, 1],       // star
            vec![3, 3, 1, 1, 1, 1],    // double star
            vec![3, 3, 2, 1, 1, 1, 1], // sum 12 = 2*6 ✓
        ] {
            let out = realize_tree(&degrees, Config::ncc0(91), TreeAlgo::Chain);
            let t = out.expect_realized();
            assert!(t.graph.is_tree(), "{degrees:?} not a tree");
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(t.graph.degree_sequence(), want, "{degrees:?}");
            assert!(t.metrics.is_clean());
        }
    }

    #[test]
    fn chain_diameter_matches_sequential_chain_tree() {
        let degrees = vec![3, 3, 3, 2, 2, 1, 1, 1, 1, 1];
        let out = realize_tree(&degrees, Config::ncc0(92), TreeAlgo::Chain);
        let t = out.expect_realized();
        let seq = DegreeSequence::new(degrees.clone());
        let reference = greedy::chain_tree(&seq).unwrap();
        let want = greedy::diameter_of(&reference, degrees.len());
        assert_eq!(t.diameter, want);
    }

    #[test]
    fn chain_rejects_non_tree_sequences() {
        for degrees in [
            vec![2, 2, 2],       // cycle sum
            vec![1, 1, 1, 1],    // forest sum
            vec![2, 2, 1, 1, 0], // zero degree
        ] {
            let out = realize_tree(&degrees, Config::ncc0(93), TreeAlgo::Chain);
            assert!(out.is_unrealizable(), "{degrees:?} was accepted");
        }
    }

    #[test]
    fn realizes_min_diameter_trees() {
        for degrees in [
            vec![1, 1],
            vec![2, 1, 1],
            vec![2, 2, 2, 1, 1],
            vec![4, 1, 1, 1, 1],
            vec![3, 3, 1, 1, 1, 1],
            vec![3, 3, 2, 1, 1, 1, 1],
            vec![2, 2, 2, 2, 2, 1, 1], // long path profile
        ] {
            let out = realize_tree(&degrees, Config::ncc0(95), TreeAlgo::Greedy);
            let t = out.expect_realized();
            assert!(t.graph.is_tree(), "{degrees:?} not a tree");
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(t.graph.degree_sequence(), want, "{degrees:?}");
            // Theorem 16: the diameter equals the sequential greedy tree's
            // (which Lemma 15 proves minimal).
            let seq = DegreeSequence::new(degrees.clone());
            let reference = greedy::greedy_tree(&seq).unwrap();
            let want_dia = greedy::diameter_of(&reference, degrees.len());
            assert_eq!(t.diameter, want_dia, "{degrees:?}");
            assert!(t.metrics.is_clean());
        }
    }

    #[test]
    fn diameter_is_brute_force_minimal_small_n() {
        for degrees in [
            vec![2, 2, 1, 1],
            vec![3, 2, 1, 1, 1],
            vec![2, 2, 2, 1, 1, 1, 1], // wrong sum -> filtered
            vec![3, 3, 2, 1, 1, 1, 1],
        ] {
            let seq = DegreeSequence::new(degrees.clone());
            if !seq.is_tree_realizable() {
                continue;
            }
            let out = realize_tree(&degrees, Config::ncc0(96), TreeAlgo::Greedy);
            let t = out.expect_realized();
            let want = greedy::min_diameter_brute(&seq).unwrap();
            assert_eq!(t.diameter, want, "{degrees:?}");
        }
    }

    #[test]
    fn greedy_never_beaten_by_chain() {
        let degrees = vec![3, 3, 3, 2, 2, 1, 1, 1, 1, 1];
        let g = realize_tree(&degrees, Config::ncc0(97), TreeAlgo::Greedy);
        let c = realize_tree(&degrees, Config::ncc0(97), TreeAlgo::Chain);
        assert!(g.expect_realized().diameter <= c.expect_realized().diameter);
    }

    #[test]
    fn greedy_rejects_non_tree_sequences() {
        let out = realize_tree(&[2, 2, 2], Config::ncc0(98), TreeAlgo::Greedy);
        assert!(out.is_unrealizable());
    }
}
