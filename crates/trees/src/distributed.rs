//! Distributed tree realization (Section 5): Algorithms 4 and 5 as one
//! state machine, [`RealizeTree`]. The two constructions share the context
//! establishment, the input check (`Σd = 2(n-1)`, `min d ≥ 1`; a failure
//! refuses with [`Unrealizable`]), the degree sort and the slot prefix
//! sums, and differ only in the hand-off that tells every child its
//! parent. The check's sweep runs in the rounds of the degree sort and its
//! sorted contacts — neither feeds the other — so the opening costs
//! `max(check, sort + contacts)` rounds, and a refusal drops the partial
//! sort when the check completes. Stage transitions happen within a
//! round — a primitive boundary costs no round;
//! `crates/trees/tests/batched_trees.rs` pins the transcripts on both
//! engines.
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
//!    in order by the prefix sums of `slots` (the paper's `p_i`);
//! 3. each non-leaf announces its ID to its leaf interval.
//!
//! Step 3's intervals are far from their sources, so the paper routes the
//! announcements with the Theorem 6/7 butterfly machinery. We instead
//! **re-sort once** with keys that interleave each source immediately
//! before its leaf interval (source key `2a_i`, leaf key `2·pos + 1`),
//! after which every group is contiguous with its source at the head and
//! the plain interval multicast applies — same `O~(1)` cost, no butterfly
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
//! interval) and children (they are inside someone else's interval), so
//! the interval hand-off runs on the `milestone_scan` primitive
//! ([`dgr_primitives::scatter`]): each parent emits a milestone keyed just
//! before its interval, each rank emits a filler keyed at its position,
//! and the sorted-order scan hands every rank the ID of the parent
//! covering it.

use crate::driver::TreeAlgo;
use dgr_core::Unrealizable;
use dgr_ncc::{NodeId, NodeProtocol, RoundCtx, Status};
use dgr_primitives::contacts::{self, ContactTable};
use dgr_primitives::imcast::{self, CoverSide, ImcastStep, Payload};
use dgr_primitives::ops::{self, SweepStep};
use dgr_primitives::prefix::{self, PrefixStep};
use dgr_primitives::scatter::{self, ScanRecord, ScanStep};
use dgr_primitives::sort::{self, Order, SortContactsStep, SortStep, SortedPath};
use dgr_primitives::{ctx, EstablishCtx, Poll, Step};
use std::sync::Arc;

/// Rounds of a realized tree run on `len ≥ 2` nodes: context
/// establishment, the input check beside the degree sort and its sorted
/// contacts, the slot prefix sums, then Algorithm 4's re-sort, its
/// contacts and the interval multicast, or Algorithm 5's milestone scan.
/// A refusal (and a single node) ends on the check,
/// `ctx::rounds_for(len) + ops::rounds_for(len)` rounds in all.
pub fn rounds_for(len: usize, algo: TreeAlgo) -> u64 {
    let sorted = sort::rounds_for(len) + sort::RANK_ROUNDS + contacts::rounds_for(len);
    let opening = ctx::rounds_for(len) + ops::rounds_for(len).max(sorted) + prefix::rounds_for(len);
    opening
        + match algo {
            TreeAlgo::Chain => sorted + imcast::rounds_for(len),
            TreeAlgo::Greedy => scatter::rounds_for(len),
        }
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
    /// non-leaves)` in one sweep — beside the degree sort and its sorted
    /// contacts, which need none of them; each is polled until it is ready
    /// (`None` from then on).
    Sorting {
        check: Option<SweepStep>,
        lane: Option<SortContactsStep>,
    },
    Prefix(PrefixStep),
    /// Algorithm 4: the interval re-sort and its contacts.
    Resort(SortContactsStep),
    Mcast(ImcastStep),
    /// Algorithm 5: the milestone scan.
    Scan(ScanStep),
}

/// The tree-realization state machine at one node.
pub struct RealizeTree {
    degree: usize,
    algo: TreeAlgo,
    stage: Stage,
    /// Path length, known once the context is established.
    len: usize,
    outcome: TreeOutcome,
    sp: Option<SortedPath>,
    sct: Option<Arc<ContactTable>>,
    /// Algorithm 4: `k_eff`, remaining child slots, interval start.
    k_eff: usize,
    slots: usize,
}

impl RealizeTree {
    /// Builds the protocol for one node; `degree` is its requested tree
    /// degree.
    pub fn new(degree: usize, algo: TreeAlgo) -> Self {
        RealizeTree {
            degree,
            algo,
            stage: Stage::Establish(EstablishCtx::new()),
            len: 0,
            outcome: TreeOutcome {
                requested: degree,
                neighbors: Vec::new(),
            },
            sp: None,
            sct: None,
            k_eff: 0,
            slots: 0,
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
                        let sort = SortStep::new(
                            ctx.vp,
                            ctx.contacts.clone(),
                            ctx.position,
                            degree,
                            Order::Descending,
                            rctx.id(),
                        );
                        self.stage = Stage::Sorting {
                            check: Some(check),
                            lane: Some(SortContactsStep::new(sort)),
                        };
                        self.len = ctx.vp.len;
                    }
                },
                Stage::Sorting { check, lane } => {
                    // The check goes first: a refusal drops the sort
                    // before it stages this round's sends.
                    if let Some(Poll::Ready(total)) = check.as_mut().map(|s| s.poll(rctx)) {
                        *check = None;
                        let [sum, min, non_leaves, _] = total.words;
                        self.k_eff = (non_leaves as usize).max(1);
                        let n = self.len as u64;
                        if sum != 2 * (n - 1) || (n >= 2 && min < 1) {
                            return Status::Done(Err(Unrealizable));
                        }
                        if n == 1 {
                            return self.done();
                        }
                    }
                    if let Some(Poll::Ready(sorted)) = lane.as_mut().map(|s| s.poll(rctx)) {
                        *lane = None;
                        (self.sp, self.sct) = (Some(sorted.0), Some(sorted.1));
                    }
                    if check.is_some() || lane.is_some() {
                        return Status::Continue;
                    }
                    let sp = self.sp.as_ref().unwrap();
                    let rank = sp.rank;
                    self.slots = match self.algo {
                        // Algorithm 4: chain ranks 1..=k_eff; the
                        // non-leaves keep their remaining child slots.
                        TreeAlgo::Chain => {
                            if (1..=self.k_eff).contains(&rank) {
                                let pred = sp.vp.pred.expect("chained rank without predecessor");
                                self.outcome.neighbors.push(pred);
                            }
                            if rank < self.k_eff {
                                self.degree - 1 - usize::from(rank > 0)
                            } else {
                                0
                            }
                        }
                        // Algorithm 5: the root keeps all d, everyone
                        // else spends one on its parent.
                        TreeAlgo::Greedy => self.degree - usize::from(rank > 0),
                    };
                    let (slots, table) = (self.slots as u64, self.sct.clone().unwrap());
                    self.stage = Stage::Prefix(PrefixStep::exclusive(sp.vp, table, slots));
                }
                Stage::Prefix(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(excl) => {
                        let sp = self.sp.as_ref().unwrap();
                        let rank = sp.rank;
                        match self.algo {
                            TreeAlgo::Chain => {
                                // Re-sort so each source lands immediately
                                // before its leaf interval.
                                let interval_start = self.k_eff + 1 + excl as usize;
                                let is_source = rank < self.k_eff;
                                let key = if is_source {
                                    2 * interval_start as u64
                                } else {
                                    2 * rank as u64 + 1
                                };
                                self.stage = Stage::Resort(SortContactsStep::new(SortStep::new(
                                    sp.vp,
                                    self.sct.clone().unwrap(),
                                    rank,
                                    key,
                                    Order::Ascending,
                                    rctx.id(),
                                )));
                            }
                            TreeAlgo::Greedy => {
                                // Milestone just before my child interval;
                                // filler at my own rank.
                                let first_child = 1 + excl as usize;
                                let rec0 = if self.slots > 0 {
                                    ScanRecord::Milestone {
                                        key: 2 * first_child as u64 - 1,
                                        addr: rctx.id(),
                                    }
                                } else {
                                    ScanRecord::Absent
                                };
                                let rec1 = ScanRecord::Filler {
                                    key: 2 * rank as u64,
                                };
                                self.stage = Stage::Scan(ScanStep::new(
                                    sp.vp,
                                    self.sct.clone().unwrap(),
                                    rank,
                                    [rec0, rec1],
                                    rctx.id(),
                                ));
                            }
                        }
                    }
                },
                Stage::Resort(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready((msp, mct)) => {
                        let rank = self.sp.as_ref().unwrap().rank;
                        let is_source = rank < self.k_eff;
                        let task = (is_source && self.slots > 0).then(|| {
                            (
                                CoverSide::After,
                                self.slots,
                                Payload {
                                    addr: rctx.id(),
                                    word: 0,
                                },
                            )
                        });
                        self.stage = Stage::Mcast(ImcastStep::new(msp.vp, mct, task));
                    }
                },
                Stage::Mcast(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(got) => {
                        let rank = self.sp.as_ref().unwrap().rank;
                        if rank > self.k_eff {
                            let payload = got.expect("leaf received no parent announcement");
                            self.outcome.neighbors.push(payload.addr);
                        } else {
                            debug_assert!(got.is_none(), "non-leaf covered by a leaf interval");
                        }
                        return self.done();
                    }
                },
                Stage::Scan(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(got) => {
                        let rank = self.sp.as_ref().unwrap().rank;
                        if rank > 0 {
                            let parent = got[1].expect("non-root rank received no parent");
                            self.outcome.neighbors.push(parent);
                        } else {
                            debug_assert!(got[1].is_none(), "root scanned a parent");
                        }
                        return self.done();
                    }
                },
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
