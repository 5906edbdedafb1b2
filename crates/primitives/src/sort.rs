//! Distributed sorting into a *sorted path* — the Theorem 3 primitive.
//!
//! The paper sorts by recursively merging sorted sub-paths with median
//! splitting (`O(log³ n)` rounds). We substitute a **Batcher odd-even
//! mergesort network** over path positions, which achieves the same
//! primitive contract in `O(log² n)` rounds (ARCHITECTURE.md, *Deviations
//! from the paper*):
//!
//! * every comparator connects two positions a power-of-two apart, so the
//!   [`ContactTable`] provides the addressing;
//! * every comparator points the same way (minimum to the lower position),
//!   so the network is correct for arbitrary `n` with no virtual padding;
//! * records `(key, origin)` migrate between positions; the nodes
//!   themselves never move.
//!
//! A 2-round epilogue then tells each record's origin its *rank* and the IDs
//! of its sorted predecessor/successor — producing a new [`VPath`] in sorted
//! order, on which every other primitive (contacts, BBST, multicast,
//! prefix sums) can be established. This "sorted path handle" is exactly
//! what the realization algorithms consume.

use crate::contacts::{ContactTable, ContactsStep};
use crate::ctx::PathCtx;
use crate::step::{Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// The one sort there is, named as an argument of [`SortStep::on_ctx`].
///
/// The frozen end-to-end benchmark (`crates/bench/src/bin/e2e`) passes
/// `SortBackend::Bitonic` there; it exists for that caller alone, nothing
/// else may name it, and the next `benchmark` change deletes it together
/// with `on_ctx`'s fifth parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortBackend {
    /// The Batcher odd-even mergesort network of [`SortStep`].
    #[default]
    Bitonic,
}

/// Sort direction. The paper's algorithms sort by *non-increasing* degree,
/// i.e. [`Order::Descending`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Smallest key at rank 0.
    Ascending,
    /// Largest key at rank 0.
    Descending,
}

impl Order {
    /// Transforms a key so that ascending order on the transformed key
    /// realizes this order on the original key.
    pub(crate) fn encode_key(self, key: u64) -> u64 {
        match self {
            Order::Ascending => key,
            Order::Descending => !key,
        }
    }
}

/// The sorted-path handle a node receives for its own key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortedPath {
    /// This node's rank in sorted order (0-based; rank 0 = head).
    pub rank: usize,
    /// The sorted path as a [`VPath`]: predecessor = rank-1 node,
    /// successor = rank+1 node.
    pub vp: VPath,
}

/// The comparator schedule of Batcher's odd-even mergesort: the stages
/// `(p, k)`, `p` doubling below `len` and `k` halving from `p`; within a
/// stage, position `x` compares with `x ± k`. The steps walk it one stage
/// a round, without materializing the `O(log² n)` list per node; the
/// double-width network of [`crate::scatter`] shares it.
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
}

impl Iterator for StageIter {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let stage = (self.p < self.len).then_some((self.p, self.k))?;
        if self.k > 1 {
            self.k /= 2;
        } else {
            self.p *= 2;
            self.k = self.p;
        }
        Some(stage)
    }
}

/// Number of comparator stages for a path of `len` nodes: `O(log² len)`.
pub fn stage_count(len: usize) -> usize {
    StageIter::new(len).count()
}

/// Number of rounds the bitonic [`SortStep`] takes on a path of `len`
/// nodes: one per comparator stage plus the 2-round epilogue.
pub fn rounds_for(len: usize) -> u64 {
    stage_count(len) as u64 + 2
}

/// Whether position `x` participates in stage `(p, k)` of the network, and
/// with which partner. Returns `(partner_position, i_am_low)`.
///
/// Derived from the classic triple loop
/// `for j in (k%p..).step_by(2k) { for i in 0..k { compare(i+j, i+j+k) if
/// same 2p-block } }` — solved for `x` in O(1). `p` and `k ≤ p` are powers
/// of two, so every division of that form is a mask or a shift.
pub(crate) fn comparator_at(x: usize, len: usize, p: usize, k: usize) -> Option<(usize, bool)> {
    debug_assert!(p.is_power_of_two() && k.is_power_of_two() && k <= p);
    // k mod p, and log₂ of the 2p-block width.
    let j0 = k & (p - 1);
    let block = p.trailing_zeros() + 1;
    // Is `lo` the low endpoint of a stage comparator? lo = i + j with
    // i ∈ [0, k), j ≡ j0 (mod 2k), j ≥ j0 — equivalently lo ≥ j0 and
    // (lo - j0) mod 2k < k, i.e. its `k` bit is clear — and lo, lo+k
    // must share a 2p-block.
    let is_low = |lo: usize| -> bool {
        lo >= j0 && (lo - j0) & k == 0 && lo + k < len && lo >> block == (lo + k) >> block
    };
    if is_low(x) {
        return Some((x + k, true));
    }
    if x >= k && is_low(x - k) {
        return Some((x - k, false));
    }
    None
}

/// A record traveling through the comparator network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Record {
    key: u64,
    origin: NodeId,
}

/// Theorem 3 as a [`Step`]: the Batcher odd-even mergesort network over
/// path positions, then the 2-round epilogue (rounds: exactly
/// [`rounds_for`]`(vp.len)`). Ties break by node ID, making the result
/// deterministic. Legal under the strict capacity policy; a non-member
/// view idles through the same rounds and returns a non-member path.
#[derive(Debug)]
pub struct SortStep {
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

impl SortStep {
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
        SortStep {
            x: position,
            stage_count: stage_count(len) as u64,
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

    /// [`SortStep::new`] over an established [`PathCtx`]. The fifth
    /// parameter is ignored: the frozen benchmark passes it (see
    /// [`SortBackend`]), and it goes with that type.
    pub fn on_ctx(ctx: &PathCtx, key: u64, order: Order, my_id: NodeId, _: SortBackend) -> Self {
        Self::new(
            ctx.vp,
            ctx.contacts.clone(),
            ctx.position,
            key,
            order,
            my_id,
        )
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
        let (p, k) = self.it.next().expect("comparator stage out of range");
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

impl Step for SortStep {
    type Out = SortedPath;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<SortedPath> {
        let len = self.vp.len;
        // `rounds_for(len)`, from the stage count `new` walked once.
        let rounds = self.stage_count + 2;
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

/// A sort, then the contact table of the sorted path: every re-sort in
/// the drivers, since what follows it talks across the sorted path's
/// power-of-two distances. The contacts start in the round the sort ends
/// (rounds: [`rounds_for`] plus
/// [`contacts::rounds_for`](crate::contacts::rounds_for)).
#[derive(Debug)]
pub struct SortContactsStep(SortLane);

#[derive(Debug)]
enum SortLane {
    Sort(SortStep),
    Contacts(SortedPath, ContactsStep),
}

impl SortContactsStep {
    /// Runs `sort`, then builds the sorted path's contacts.
    pub fn new(sort: SortStep) -> Self {
        SortContactsStep(SortLane::Sort(sort))
    }
}

impl Step for SortContactsStep {
    type Out = (SortedPath, Arc<ContactTable>);

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        loop {
            match &mut self.0 {
                SortLane::Sort(s) => match s.poll(ctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(sp) => self.0 = SortLane::Contacts(sp, ContactsStep::new(sp.vp)),
                },
                SortLane::Contacts(sp, s) => {
                    return match s.poll(ctx) {
                        Poll::Pending => Poll::Pending,
                        Poll::Ready(table) => Poll::Ready((*sp, table)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WithCtx;
    use dgr_ncc::{Config, Network};
    use std::collections::HashMap;

    /// Sequential reference for the comparator network.
    fn network_sorts(len: usize, keys: &[u64]) -> Vec<u64> {
        let mut a: Vec<Record> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Record {
                key: k,
                origin: i as u64,
            })
            .collect();
        for (p, k) in StageIter::new(len) {
            // Apply all comparators of this stage simultaneously.
            let snapshot = a.clone();
            for x in 0..len {
                if let Some((partner, i_am_low)) = comparator_at(x, len, p, k) {
                    // Sanity: the relation is symmetric.
                    let back = comparator_at(partner, len, p, k);
                    assert_eq!(back, Some((x, !i_am_low)), "p={p} k={k} x={x}");
                    let pair = (snapshot[x], snapshot[partner]);
                    a[x] = if i_am_low {
                        pair.0.min(pair.1)
                    } else {
                        pair.0.max(pair.1)
                    };
                }
            }
        }
        a.iter().map(|r| r.key).collect()
    }

    #[test]
    fn comparator_masks_equal_the_division_form() {
        // The schedule written with the divisions it was derived with.
        let by_division = |x: usize, len: usize, p: usize, k: usize| {
            let j0 = k % p;
            let is_low = |lo: usize| {
                lo >= j0
                    && (lo - j0) % (2 * k) < k
                    && lo + k < len
                    && lo / (2 * p) == (lo + k) / (2 * p)
            };
            match (is_low(x), x >= k && is_low(x - k)) {
                (true, _) => Some((x + k, true)),
                (false, true) => Some((x - k, false)),
                (false, false) => None,
            }
        };
        for len in 0..=300 {
            for (p, k) in StageIter::new(len) {
                for x in 0..len {
                    let want = by_division(x, len, p, k);
                    assert_eq!(
                        comparator_at(x, len, p, k),
                        want,
                        "len={len} p={p} k={k} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn comparator_network_sorts_sequentially() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        for len in 1..=48 {
            for _ in 0..8 {
                let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..32)).collect();
                let sorted = network_sorts(len, &keys);
                let mut want = keys.clone();
                want.sort_unstable();
                assert_eq!(sorted, want, "len={len} keys={keys:?}");
            }
        }
    }

    fn run_sort(n: usize, seed: u64, order: Order) {
        let net = Network::new(n, Config::ncc0(seed));
        let key = |id: NodeId| id % 17; // plenty of ties
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    SortStep::on_ctx(ctx, key(rctx.id()), order, rctx.id(), SortBackend::Bitonic)
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean(), "n={n}");
        // Ranks form a permutation and keys are ordered along ranks.
        let mut by_rank: Vec<(usize, u64, NodeId, &SortedPath)> = result
            .outputs
            .iter()
            .map(|(id, sp)| (sp.rank, key(*id), *id, sp))
            .collect();
        by_rank.sort_unstable_by_key(|(r, ..)| *r);
        for (want, (got, ..)) in by_rank.iter().enumerate() {
            assert_eq!(*got, want, "ranks not a permutation");
        }
        for w in by_rank.windows(2) {
            match order {
                Order::Ascending => assert!(w[0].1 <= w[1].1),
                Order::Descending => assert!(w[0].1 >= w[1].1),
            }
        }
        // The sorted-path links agree with the rank order.
        let id_at: HashMap<usize, NodeId> = by_rank.iter().map(|(r, _, id, _)| (*r, *id)).collect();
        for (rank, _, _, sp) in &by_rank {
            let want_pred = rank.checked_sub(1).map(|r| id_at[&r]);
            let want_succ = id_at.get(&(rank + 1)).copied();
            assert_eq!(sp.vp.pred, want_pred, "rank {rank} pred");
            assert_eq!(sp.vp.succ, want_succ, "rank {rank} succ");
            assert!(sp.vp.member);
            assert_eq!(sp.vp.len, n);
        }
    }

    #[test]
    fn distributed_sort_small_sizes() {
        for n in [1, 2, 3, 5, 8, 13, 16, 21] {
            run_sort(n, n as u64 + 500, Order::Ascending);
            run_sort(n, n as u64 + 900, Order::Descending);
        }
    }

    #[test]
    fn distributed_sort_medium() {
        run_sort(100, 4, Order::Descending);
        run_sort(128, 5, Order::Ascending);
    }

    #[test]
    fn theorem3_rounds_are_polylog() {
        // O(log² n): stage count for n=1024 is 10*11/2 = 55.
        assert_eq!(stage_count(1024), 55);
        assert_eq!(stage_count(1), 0);
        // Sub-quadratic growth in log n.
        assert!(stage_count(1 << 16) <= 16 * 17 / 2);
    }

    #[test]
    fn stage_iter_walks_the_batcher_schedule() {
        for len in 0..80 {
            let got: Vec<_> = StageIter::new(len).collect();
            // One merge pass of 1, 2, …, levels stages per doubling of p.
            let levels = crate::levels_for(len);
            assert_eq!(got.len(), levels * (levels + 1) / 2, "len={len}");
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
