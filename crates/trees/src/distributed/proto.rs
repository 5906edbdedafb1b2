//! Algorithms 4 and 5 as a [`NodeProtocol`].
//!
//! One state machine covers both constructions: they share the context
//! establishment, the input check (`Σd = 2(n-1)`, `min d ≥ 1`), the
//! degree sort and the slot prefix sums, and differ only in the hand-off
//! that tells every child its parent — Algorithm 4 re-sorts into
//! source-adjacent intervals and interval-multicasts, Algorithm 5 runs
//! the milestone scan. Stage transitions happen within a round — a
//! primitive boundary costs no round — so the state machine reproduces,
//! on both engines, the transcripts of the direct-style originals it was
//! ported from (frozen in `crates/trees/tests/batched_trees.rs`).
//!
//! [`NodeProtocol`]: dgr_ncc::NodeProtocol

use super::TreeOutcome;
use crate::driver::TreeAlgo;
use dgr_core::Unrealizable;
use dgr_ncc::{NodeProtocol, RoundCtx, Status};
use dgr_primitives::contacts::ContactTable;
use dgr_primitives::imcast::{CoverSide, Payload};
use dgr_primitives::proto::contacts::ContactsStep;
use dgr_primitives::proto::imcast::ImcastStep;
use dgr_primitives::proto::ops::AggBcastStep;
use dgr_primitives::proto::prefix::PrefixStep;
use dgr_primitives::proto::scatter::ScanStep;
use dgr_primitives::proto::sort::SortStep;
use dgr_primitives::proto::step::{AggOp, Poll, Step};
use dgr_primitives::proto::EstablishCtx;
use dgr_primitives::scatter::ScanRecord;
use dgr_primitives::sort::{Order, SortBackend, SortedPath};
use dgr_primitives::PathCtx;
use std::sync::Arc;

enum Stage {
    Establish(EstablishCtx),
    CheckSum(AggBcastStep),
    CheckMin(AggBcastStep),
    Sort(SortStep),
    SortedContacts(ContactsStep),
    /// Algorithm 4 only: k = number of non-leaves.
    NonLeafCount(AggBcastStep),
    Prefix(PrefixStep),
    /// Algorithm 4: the interval re-sort.
    Resort(SortStep),
    ResortContacts(ContactsStep),
    Mcast(ImcastStep),
    /// Algorithm 5: the milestone scan.
    Scan(ScanStep),
}

/// The tree-realization state machine at one node.
pub struct RealizeTree {
    degree: usize,
    algo: TreeAlgo,
    sort: SortBackend,
    stage: Stage,
    ctx: Option<PathCtx>,
    outcome: TreeOutcome,
    sum: u64,
    sp: Option<SortedPath>,
    sct: Option<Arc<ContactTable>>,
    /// Algorithm 4: `k_eff`, remaining child slots, interval start.
    k_eff: usize,
    slots: usize,
    /// Algorithm 5: child slots (root keeps all `d`).
    msp: Option<SortedPath>,
}

impl RealizeTree {
    /// Builds the protocol for one node; `degree` is its requested tree
    /// degree (bitonic Theorem 3 backend).
    pub fn new(degree: usize, algo: TreeAlgo) -> Self {
        Self::with_sort(degree, algo, SortBackend::Bitonic)
    }

    /// Builds the protocol with an explicit backend for the *degree* sort
    /// (Algorithm 4's interval re-sort always runs the bitonic network —
    /// it sorts an already-established path view without a fresh
    /// context).
    pub fn with_sort(degree: usize, algo: TreeAlgo, sort: SortBackend) -> Self {
        RealizeTree {
            degree,
            algo,
            sort,
            stage: Stage::Establish(EstablishCtx::new()),
            ctx: None,
            outcome: TreeOutcome {
                requested: degree,
                neighbors: Vec::new(),
            },
            sum: 0,
            sp: None,
            sct: None,
            k_eff: 0,
            slots: 0,
            msp: None,
        }
    }

    fn ctx(&self) -> &PathCtx {
        self.ctx.as_ref().expect("stage before establish completed")
    }

    fn agg(&self, value: u64, op: AggOp) -> AggBcastStep {
        let ctx = self.ctx();
        AggBcastStep::new(ctx.vp, ctx.tree.clone(), value, op)
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
                        self.ctx = Some(ctx);
                        self.stage = Stage::CheckSum(self.agg(self.degree as u64, AggOp::Sum));
                    }
                },
                Stage::CheckSum(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(sum) => {
                        self.sum = sum;
                        self.stage = Stage::CheckMin(self.agg(self.degree as u64, AggOp::Min));
                    }
                },
                Stage::CheckMin(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(min) => {
                        let n = self.ctx().vp.len as u64;
                        if self.sum != 2 * (n - 1) || (n >= 2 && min < 1) {
                            return Status::Done(Err(Unrealizable));
                        }
                        if n == 1 {
                            return self.done();
                        }
                        let ctx = self.ctx();
                        self.stage = Stage::Sort(SortStep::on_ctx(
                            ctx,
                            self.degree as u64,
                            Order::Descending,
                            rctx.id(),
                            self.sort,
                        ));
                    }
                },
                Stage::Sort(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(sp) => {
                        self.stage = Stage::SortedContacts(ContactsStep::new(sp.vp));
                        self.sp = Some(sp);
                    }
                },
                Stage::SortedContacts(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(table) => {
                        self.sct = Some(table);
                        match self.algo {
                            TreeAlgo::Chain => {
                                let mine = u64::from(self.degree > 1);
                                self.stage = Stage::NonLeafCount(self.agg(mine, AggOp::Sum));
                            }
                            TreeAlgo::Greedy => {
                                // Child slots: the root keeps all d, everyone
                                // else spends one on its parent.
                                let sp = self.sp.as_ref().unwrap();
                                self.slots = self.degree - usize::from(sp.rank > 0);
                                self.stage = Stage::Prefix(PrefixStep::exclusive(
                                    sp.vp,
                                    self.sct.clone().unwrap(),
                                    self.slots as u64,
                                ));
                            }
                        }
                    }
                },
                Stage::NonLeafCount(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(k) => {
                        // Algorithm 4: chain ranks 1..=k_eff, then count the
                        // remaining child slots of the non-leaves.
                        self.k_eff = (k as usize).max(1);
                        let sp = self.sp.as_ref().unwrap();
                        let rank = sp.rank;
                        if (1..=self.k_eff).contains(&rank) {
                            self.outcome
                                .neighbors
                                .push(sp.vp.pred.expect("chained rank without predecessor"));
                        }
                        self.slots = if rank < self.k_eff {
                            self.degree - 1 - usize::from(rank > 0)
                        } else {
                            0
                        };
                        self.stage = Stage::Prefix(PrefixStep::exclusive(
                            sp.vp,
                            self.sct.clone().unwrap(),
                            self.slots as u64,
                        ));
                    }
                },
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
                                self.stage = Stage::Resort(SortStep::new(
                                    sp.vp,
                                    self.sct.clone().unwrap(),
                                    rank,
                                    key,
                                    Order::Ascending,
                                    rctx.id(),
                                ));
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
                    Poll::Ready(msp) => {
                        self.stage = Stage::ResortContacts(ContactsStep::new(msp.vp));
                        self.msp = Some(msp);
                    }
                },
                Stage::ResortContacts(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(mct) => {
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
                        let msp = self.msp.as_ref().unwrap();
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
