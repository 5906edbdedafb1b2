//! Theorem 3 ([`sort`](crate::sort)) as a step: the Batcher odd-even
//! mergesort network over path positions plus the 2-round
//! epilogue that links the sorted path (Theorem 3).

use crate::contacts::ContactTable;
use crate::proto::step::{Poll, Step};
use crate::sort::{comparator_at, Order, SortedPath};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// A record traveling through the comparator network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Record {
    key: u64,
    origin: NodeId,
}

/// Incremental iterator over the comparator stages `(p, k)` of Batcher's
/// odd-even mergesort — the same sequence as `sort::stages`, without
/// materializing the `O(log² n)` list per node.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StageIter {
    p: usize,
    k: usize,
    len: usize,
}

impl StageIter {
    pub(crate) fn new(len: usize) -> Self {
        StageIter { p: 1, k: 1, len }
    }

    /// The current stage, or `None` when the network is exhausted.
    pub(crate) fn current(&self) -> Option<(usize, usize)> {
        (self.p < self.len).then_some((self.p, self.k))
    }

    pub(crate) fn advance(&mut self) {
        if self.k > 1 {
            self.k /= 2;
        } else {
            self.p *= 2;
            self.k = self.p;
        }
    }
}

/// Theorem 3 as a [`Step`], dispatching between the two
/// [`SortBackend`](crate::sort::SortBackend)s. Ties break by node ID,
/// making the result deterministic.
///
/// [`SortStep::new`] always builds the bitonic network (rounds: exactly
/// [`sort::rounds_for`](crate::sort::rounds_for)`(vp.len)`);
/// [`SortStep::on_ctx`] selects the backend.
#[derive(Debug)]
pub struct SortStep {
    inner: SortImpl,
}

#[derive(Debug)]
enum SortImpl {
    Bitonic(BitonicSortStep),
    // Boxed: the randomized backend's state dwarfs the bitonic's, and
    // every driver stage machine embeds a SortStep by value.
    Rand(Box<crate::proto::rand_sort::RandSortStep>),
}

impl SortStep {
    /// Builds the Batcher odd-even mergesort network (the default
    /// backend; legal for non-member views and under the strict policy).
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        key: u64,
        order: Order,
        my_id: NodeId,
    ) -> Self {
        SortStep {
            inner: SortImpl::Bitonic(BitonicSortStep::new(
                vp, contacts, position, key, order, my_id,
            )),
        }
    }

    /// Builds the sort over an established [`PathCtx`](crate::ctx::PathCtx)
    /// with an explicit [`SortBackend`](crate::sort::SortBackend). The
    /// randomized backend needs the context's tree and traversal data;
    /// below [`RAND_MIN`](crate::proto::rand_sort::RAND_MIN) nodes (or
    /// with [`SortBackend::Bitonic`](crate::sort::SortBackend)) this is
    /// the bitonic network.
    ///
    /// # Panics
    ///
    /// Panics if the randomized backend is selected at or above the
    /// threshold on a non-member context (see
    /// [`rand_sort`](crate::proto::rand_sort)).
    pub fn on_ctx(
        ctx: &crate::ctx::PathCtx,
        key: u64,
        order: Order,
        my_id: NodeId,
        backend: crate::sort::SortBackend,
    ) -> Self {
        match backend {
            crate::sort::SortBackend::RandomizedLogN { seed }
                if ctx.vp.len >= crate::proto::rand_sort::RAND_MIN =>
            {
                SortStep {
                    inner: SortImpl::Rand(Box::new(crate::proto::rand_sort::RandSortStep::new(
                        ctx, key, order, my_id, seed,
                    ))),
                }
            }
            _ => Self::new(
                ctx.vp,
                ctx.contacts.clone(),
                ctx.position,
                key,
                order,
                my_id,
            ),
        }
    }
}

impl Step for SortStep {
    type Out = SortedPath;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<SortedPath> {
        match &mut self.inner {
            SortImpl::Bitonic(s) => s.poll(ctx),
            SortImpl::Rand(s) => s.poll(ctx),
        }
    }
}

/// The Batcher odd-even mergesort backend (see [`SortStep`]).
#[derive(Debug)]
pub struct BitonicSortStep {
    vp: VPath,
    contacts: Arc<ContactTable>,
    x: usize,
    stage_count: u64,
    t: u64,
    it: StageIter,
    held: Record,
    /// The in-flight comparator staged last round.
    cmp: Option<(usize, bool)>,
    pred_origin: Option<NodeId>,
    succ_origin: Option<NodeId>,
}

impl BitonicSortStep {
    /// Builds the step: sort the members of `vp` by `key` (this node's
    /// `position` comes from the traversal primitive).
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        key: u64,
        order: Order,
        my_id: NodeId,
    ) -> Self {
        let len = vp.len;
        BitonicSortStep {
            x: position,
            stage_count: crate::sort::stage_count(len) as u64,
            t: 0,
            it: StageIter::new(len),
            held: Record {
                key: order.encode_key(key),
                origin: my_id,
            },
            cmp: None,
            pred_origin: None,
            succ_origin: None,
            vp,
            contacts,
        }
    }

    /// Consumes the previous comparator round's exchange.
    fn absorb_exchange(&mut self, ctx: &RoundCtx<'_>) {
        if let Some((_, i_am_low)) = self.cmp.take() {
            let env = ctx
                .inbox()
                .iter()
                .find(|e| e.msg.tag == tags::SORT_XCHG)
                .expect("comparator partner did not exchange");
            let theirs = Record {
                key: env.word(),
                origin: env.addr(),
            };
            self.held = if i_am_low {
                self.held.min(theirs)
            } else {
                self.held.max(theirs)
            };
        } else {
            debug_assert!(ctx.inbox().iter().all(|e| e.msg.tag != tags::SORT_XCHG));
        }
    }

    /// Stages the comparator of the current network stage, if any.
    fn stage_comparator(&mut self, ctx: &mut RoundCtx<'_>) {
        let (p, k) = self.it.current().expect("comparator stage out of range");
        self.it.advance();
        let cmp = comparator_at(self.x, self.vp.len, p, k);
        if let Some((partner, _)) = cmp {
            let level = k.trailing_zeros() as usize;
            debug_assert_eq!(1 << level, k);
            let partner_id = self
                .contacts
                .at_offset(level, partner > self.x)
                .expect("comparator partner outside contact table");
            ctx.send(
                partner_id,
                WireMsg::addr_word(tags::SORT_XCHG, self.held.origin, self.held.key),
            );
        }
        self.cmp = cmp;
    }
}

impl Step for BitonicSortStep {
    type Out = SortedPath;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<SortedPath> {
        let len = self.vp.len;
        let rounds = crate::sort::rounds_for(len);
        if !self.vp.member {
            if self.t == rounds {
                return Poll::Ready(SortedPath {
                    rank: 0,
                    vp: VPath::non_member(len),
                });
            }
            self.t += 1;
            return Poll::Pending;
        }
        let s = self.stage_count;
        if self.t > 0 && self.t <= s {
            self.absorb_exchange(ctx);
        }
        if self.t < s {
            self.stage_comparator(ctx);
        } else if self.t == s {
            // Epilogue round 1: exchange held origins with path neighbors.
            for nb in [self.vp.pred, self.vp.succ].into_iter().flatten() {
                ctx.send(nb, WireMsg::addr(tags::SORT_LINK, self.held.origin));
            }
        } else if self.t == s + 1 {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::SORT_LINK) {
                if Some(env.src) == self.vp.pred {
                    self.pred_origin = Some(env.addr());
                } else if Some(env.src) == self.vp.succ {
                    self.succ_origin = Some(env.addr());
                }
            }
            // Epilogue round 2: tell the held record's origin its rank and
            // sorted neighbors (flags: bit0 = has pred, bit1 = has succ).
            let flags = u64::from(self.pred_origin.is_some())
                | (u64::from(self.succ_origin.is_some()) << 1);
            let mut msg = WireMsg::words(tags::SORT_LINK, &[self.x as u64, flags]);
            if let Some(a) = self.pred_origin {
                msg = msg.with_addr(a);
            }
            if let Some(a) = self.succ_origin {
                msg = msg.with_addr(a);
            }
            ctx.send(self.held.origin, msg);
        } else {
            let env = ctx
                .inbox()
                .iter()
                .find(|e| e.msg.tag == tags::SORT_LINK)
                .expect("no rank notification received");
            let rank = env.msg.words_slice()[0] as usize;
            let flags = env.msg.words_slice()[1];
            let mut addrs = env.msg.addrs_slice().iter().copied();
            let pred = (flags & 1 != 0).then(|| addrs.next().unwrap());
            let succ = (flags & 2 != 0).then(|| addrs.next().unwrap());
            return Poll::Ready(SortedPath {
                rank,
                vp: VPath {
                    member: true,
                    pred,
                    succ,
                    len,
                },
            });
        }
        self.t += 1;
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::StageIter;

    #[test]
    fn stage_iter_matches_the_materialized_schedule() {
        for len in 0..80 {
            let mut it = StageIter::new(len);
            let mut got = Vec::new();
            while let Some(stage) = it.current() {
                got.push(stage);
                it.advance();
            }
            assert_eq!(got.len(), crate::sort::stage_count(len), "len={len}");
            // The schedule is (p, k) with p doubling and k halving from p.
            for w in got.windows(2) {
                let ((p0, k0), (p1, k1)) = (w[0], w[1]);
                if k0 > 1 {
                    assert_eq!((p1, k1), (p0, k0 / 2));
                } else {
                    assert_eq!((p1, k1), (2 * p0, 2 * p0));
                }
            }
        }
    }
}
