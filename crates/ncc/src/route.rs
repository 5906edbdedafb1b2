//! Allocation-free routing support: dense ID resolution and the reusable
//! counting-sort buffers of the batched engine.
//!
//! The batched executor routes a round in two passes over the shard's
//! staging arena, slot span by slot span: pass one validates each staged
//! send and counts messages per destination index, pass two scatters
//! 64-byte envelopes into a flat arena at offsets derived from a prefix
//! sum over the counts (a stable counting sort keyed by destination —
//! stable because sources are visited in dense index order, the model's
//! canonical routing order). The destination is the bucket: the scatter
//! takes it as an argument and the stored envelope does not repeat it.
//! **The route arena is every inbox**: a node reads its delivery where
//! the scatter left it; only a `Queue`-policy node that carries backlog
//! gets `backlog ++ bucket prefix` written past the sealed buckets, into
//! a **spill region** (where the scenario fault pass also moves a bucket
//! that a duplicate outgrows). Every buffer involved — counts, bucket
//! starts, scatter cursors, the arena, the queue's backlog arenas — is
//! reused across rounds: after they have grown to the high-water volume,
//! routing and delivery perform no heap allocation at all.

use crate::config::IdAssignment;
use crate::knowledge::HASH_MUL;
use crate::message::NodeId;
use crate::metrics::vec_bytes;
use crate::wire::WireEnvelope;

/// The index of a vacant resolver slot: every `u64` stays a legal ID.
const VACANT: u32 = u32::MAX;

/// Maps node IDs to dense indices in one step.
///
/// Sequential networks (`ids[i] == i + 1`) resolve arithmetically;
/// random-ID networks through one open-addressed `(id, index)` table, a
/// power of two ≥ `2n` slots, probed linearly from the ID's Fibonacci
/// hash ([`HASH_MUL`], the KT0 tracker's) to the ID or to a [`VACANT`]
/// slot — at load ≤ 1/2 one always exists. Either way resolution happens
/// once per *send* (in [`RoundCtx::send`](crate::RoundCtx::send)), so the
/// routing passes themselves work purely on dense `u32` indices.
#[derive(Debug)]
pub(crate) enum Resolver {
    /// IDs are `1..=n` in path order.
    Sequential { n: usize },
    /// The `(id, dense index)` table.
    Hashed { table: Vec<(NodeId, u32)> },
}

/// The slot of `table` holding `id`, or the vacant slot its probe ends at.
#[inline]
fn probe(table: &[(NodeId, u32)], id: NodeId) -> usize {
    let mask = table.len() - 1;
    let mut slot = (id.wrapping_mul(HASH_MUL) >> (64 - table.len().trailing_zeros())) as usize;
    while table[slot].1 != VACANT && table[slot].0 != id {
        slot = (slot + 1) & mask;
    }
    slot
}

impl Resolver {
    /// Builds the resolver for `ids` (in path order).
    pub(crate) fn build(ids: &[NodeId], assignment: IdAssignment) -> Self {
        match assignment {
            IdAssignment::Sequential => Resolver::Sequential { n: ids.len() },
            IdAssignment::Random => {
                let mut table = vec![(0, VACANT); (2 * ids.len()).next_power_of_two().max(2)];
                for (i, &id) in ids.iter().enumerate() {
                    let slot = probe(&table, id);
                    table[slot] = (id, i as u32);
                }
                Resolver::Hashed { table }
            }
        }
    }

    /// Heap bytes of the lookup table (for the run's footprint record).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Resolver::Sequential { .. } => 0,
            Resolver::Hashed { table } => vec_bytes(table),
        }
    }

    /// The dense index of `id`, or `None` if no such node exists.
    #[inline]
    pub(crate) fn index_of(&self, id: NodeId) -> Option<u32> {
        match self {
            Resolver::Sequential { n } => (1..=*n as u64).contains(&id).then(|| (id - 1) as u32),
            Resolver::Hashed { table } => Some(table[probe(table, id)].1).filter(|&i| i != VACANT),
        }
    }
}

/// The reusable buffers of one batched network's routing pass.
#[derive(Debug)]
pub(crate) struct RouteBuffers {
    /// Messages per destination index, this round.
    pub(crate) counts: Vec<u32>,
    /// Bucket start offset per destination index (prefix sums of counts).
    starts: Vec<u32>,
    /// Scatter cursor per destination index.
    cursor: Vec<u32>,
    /// Flat envelope arena; bucket `i` is `arena[starts[i]..][..counts[i]]`,
    /// and every inbox span points into it.
    pub(crate) arena: Vec<WireEnvelope>,
    /// End of the round's sealed buckets, then of what delivery spilled.
    end: usize,
}

impl RouteBuffers {
    pub(crate) fn new(n: usize) -> Self {
        RouteBuffers {
            counts: vec![0; n],
            starts: vec![0; n],
            cursor: vec![0; n],
            arena: Vec::new(),
            end: 0,
        }
    }

    /// Heap bytes of all four buffers (for the run's footprint record).
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.counts)
            + vec_bytes(&self.starts)
            + vec_bytes(&self.cursor)
            + vec_bytes(&self.arena)
    }

    /// Computes bucket offsets from the counts over the given destination
    /// indices (ascending) and ensures the arena can hold the round's
    /// messages. The exchange phase passes the **live** indices only
    /// — exactly the compacted slot array's iteration order; messages can
    /// only be routed to live destinations, so skipping retired indices
    /// changes nothing and makes the seal `O(live)` instead of `O(n)` on
    /// long-tailed runs. Returns the total message count. Allocates only
    /// when the round exceeds every previous round's message count (the
    /// arena never shrinks).
    pub(crate) fn seal_counts_live(&mut self, live: impl Iterator<Item = usize>) -> usize {
        let mut acc: u32 = 0;
        for i in live {
            self.starts[i] = acc;
            self.cursor[i] = acc;
            acc += self.counts[i];
        }
        let total = acc as usize;
        if self.arena.len() < total {
            self.arena.resize(total, WireEnvelope::EMPTY);
        }
        self.end = total;
        total
    }

    /// Scatters one envelope into the bucket of destination index `dst`.
    #[inline]
    pub(crate) fn push(&mut self, dst: usize, env: WireEnvelope) {
        let at = self.cursor[dst] as usize;
        self.arena[at] = env;
        self.cursor[dst] += 1;
    }

    /// The delivery bucket of destination index `i`.
    pub(crate) fn bucket(&self, i: usize) -> &[WireEnvelope] {
        &self.arena[self.starts[i] as usize..][..self.counts[i] as usize]
    }

    /// The `(start, len)` span of destination `i`'s bucket.
    pub(crate) fn span(&self, i: usize) -> (u32, u32) {
        (self.starts[i], self.counts[i])
    }

    /// Writes `backlog ++` the first `fresh` envelopes of bucket `i` into
    /// the spill region (rewritten every round) and returns their start.
    pub(crate) fn spill(&mut self, backlog: &[WireEnvelope], i: usize, fresh: usize) -> u32 {
        let start = self.end;
        let bucket = self.starts[i] as usize;
        self.arena.truncate(start);
        self.arena.extend_from_slice(backlog);
        self.arena.extend_from_within(bucket..bucket + fresh);
        self.end = self.arena.len();
        start as u32
    }

    /// Rewrites destination `i`'s sealed bucket with each envelope
    /// `copies(env)` times over (0, 1 or 2), in order, and returns the
    /// rewritten bucket — the scenario fault pass. Drops compact the
    /// bucket in place; once a copy would overwrite an envelope not yet
    /// read, the bucket moves to the spill region, past the sealed ones,
    /// where delivery's spills then follow it. Cold, like the pass.
    #[cold]
    pub(crate) fn refill(
        &mut self,
        i: usize,
        copies: &mut dyn FnMut(&WireEnvelope) -> usize,
    ) -> &mut [WireEnvelope] {
        let start = self.starts[i] as usize;
        // The end of the survivors: below `end` in place, the arena's
        // length once moved.
        let mut kept = start;
        for from in start..start + self.counts[i] as usize {
            let env = self.arena[from];
            let c = copies(&env);
            if kept <= from && kept + c > from + 1 {
                self.arena.truncate(self.end);
                self.arena.extend_from_within(start..kept);
                (self.starts[i], kept) = (self.end as u32, self.arena.len());
            }
            match kept < self.end {
                true => self.arena[kept..kept + c].fill(env),
                false => self.arena.extend(std::iter::repeat_n(env, c)),
            }
            kept += c;
        }
        self.end = self.end.max(kept);
        self.counts[i] = kept as u32 - self.starts[i];
        &mut self.arena[self.starts[i] as usize..kept]
    }
}

/// Flat-arena backlog for the [`Queue`](crate::CapacityPolicy::Queue)
/// capacity policy: per-node FIFO delivery queues as spans of one
/// double-buffered envelope arena, instead of `n` separate `VecDeque`s.
/// A delivery stays in the route arena (see the module docs); only what
/// is re-queued is copied. Every buffer is reused across rounds, so queued
/// delivery is allocation-free once the arenas reach the run's high-water
/// backlog.
#[derive(Debug, Default)]
pub(crate) struct QueueBuffers {
    /// Per-node `(start, len)` span of its backlog in `cur`.
    spans: Vec<(u32, u32)>,
    /// Backlog carried over from the previous round.
    cur: Vec<WireEnvelope>,
    /// Backlog being assembled for the next round.
    next: Vec<WireEnvelope>,
}

impl QueueBuffers {
    pub(crate) fn new(n: usize) -> Self {
        QueueBuffers {
            spans: vec![(0, 0); n],
            cur: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Heap bytes of all three buffers (for the run's footprint record).
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.spans) + vec_bytes(&self.cur) + vec_bytes(&self.next)
    }

    /// Merges node `i`'s carried backlog with its freshly routed bucket in
    /// `route`, delivers up to `cap` envelopes (FIFO: backlog first, then
    /// the bucket in routed order) and re-queues the rest. Returns
    /// `(inbox_start, delivered, queued_after)`: without backlog the inbox
    /// is the bucket's prefix where it lies, with backlog it is spilled.
    /// Called once a round per queue (a retired node's is drained
    /// instead), then [`QueueBuffers::end_round`].
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        i: usize,
        route: &mut RouteBuffers,
        cap: usize,
    ) -> (u32, u32, usize) {
        let (bucket_start, fresh) = route.span(i);
        if self.spans[i].1 == 0 && fresh as usize <= cap {
            // Nothing carried in, nothing left over: the common case.
            return (bucket_start, fresh, 0);
        }
        let due = self.drain(i, cap);
        let taken = (cap - due.len()).min(fresh as usize);
        let delivered = (due.len() + taken) as u32;
        let start = match due.is_empty() {
            true => bucket_start,
            false => route.spill(due, i, taken),
        };
        self.next.extend_from_slice(&route.bucket(i)[taken..]);
        self.spans[i].1 += fresh - taken as u32;
        (start, delivered, self.spans[i].1 as usize)
    }

    /// Takes up to `cap` envelopes off node `i`'s backlog — returned where
    /// they lie in `cur` — and re-queues the rest: the whole delivery of a
    /// retired node, whose bucket is empty.
    pub(crate) fn drain(&mut self, i: usize, cap: usize) -> &[WireEnvelope] {
        // Delivery skips spans without backlog, so only a non-empty span's
        // start is sure to point into `cur`.
        let backlog = match self.spans[i] {
            (_, 0) => &[][..],
            (bs, bl) => &self.cur[bs as usize..][..bl as usize],
        };
        let (drained, rest) = backlog.split_at(backlog.len().min(cap));
        self.spans[i] = (self.next.len() as u32, rest.len() as u32);
        self.next.extend_from_slice(rest);
        drained
    }

    /// Swaps the backlog buffers after a full delivery sweep and empties
    /// the one the next sweep fills.
    pub(crate) fn end_round(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        self.next.clear();
    }

    /// Envelopes still queued (undelivered) across all nodes.
    pub(crate) fn backlog_total(&self) -> u64 {
        self.spans.iter().map(|&(_, len)| len as u64).sum()
    }

    /// Envelopes currently queued for node `i`.
    pub(crate) fn backlog_len(&self, i: usize) -> usize {
        self.spans[i].1 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMsg;

    #[test]
    fn sequential_resolution_is_arithmetic() {
        let ids: Vec<NodeId> = (1..=5).collect();
        let r = Resolver::build(&ids, IdAssignment::Sequential);
        assert_eq!(r.index_of(1), Some(0));
        assert_eq!(r.index_of(5), Some(4));
        assert_eq!(r.index_of(0), None);
        assert_eq!(r.index_of(6), None);
    }

    #[test]
    fn random_resolution_by_hashed_table() {
        let ids: Vec<NodeId> = vec![900, 17, 404, 3];
        let r = Resolver::build(&ids, IdAssignment::Random);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(r.index_of(id), Some(i as u32), "id {id}");
        }
        assert_eq!(r.index_of(5), None);
    }

    #[test]
    fn hashed_resolution_matches_a_btreemap() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::{btree_map::Entry, BTreeMap};

        let inv = crate::knowledge::tests::hash_mul_inverse();
        let mut rng = StdRng::seed_from_u64(0x1d5);
        for n in [1usize, 2, 3, 17, 300, 1_000] {
            // 0 and u64::MAX first, then random IDs alternating with keys
            // chosen to collide: every `k · inv` hashes to slot 0.
            let mut model = BTreeMap::new();
            let mut ids = Vec::new();
            let mut k = 0u64;
            while ids.len() < n {
                let id = match k {
                    0 => 0,
                    1 => u64::MAX,
                    _ if k.is_multiple_of(2) => rng.gen(),
                    _ => k.wrapping_mul(inv),
                };
                k += 1;
                if let Entry::Vacant(slot) = model.entry(id) {
                    slot.insert(ids.len() as u32);
                    ids.push(id);
                }
            }
            let r = Resolver::build(&ids, IdAssignment::Random);
            let Resolver::Hashed { table } = &r else {
                panic!("random IDs resolve through the table");
            };
            assert!(table.len().is_power_of_two() && table.len() >= 2 * n);
            // Every member, then as many absent IDs of each kind.
            let absent = (0..n as u64).flat_map(|j| [rng.gen(), (k + 1 + j).wrapping_mul(inv)]);
            for id in ids.iter().copied().chain(absent).chain([0, u64::MAX]) {
                assert_eq!(r.index_of(id), model.get(&id).copied(), "n={n} id={id}");
            }
        }
    }

    #[test]
    fn counting_sort_is_stable_by_source_order() {
        let mut b = RouteBuffers::new(3);
        // Destinations in arrival order: 2, 0, 2, 1, 0.
        let dsts = [2u32, 0, 2, 1, 0];
        for &d in &dsts {
            b.counts[d as usize] += 1;
        }
        assert_eq!(b.seal_counts_live(0..3), 5);
        for (k, &d) in dsts.iter().enumerate() {
            let (src, msg) = (k as NodeId, WireMsg::signal(0));
            b.push(d as usize, WireEnvelope { src, msg });
        }
        // Bucket 0 sees sources 1 then 4 (arrival order preserved).
        let srcs = |i: usize| b.bucket(i).iter().map(|e| e.src).collect::<Vec<_>>();
        assert_eq!(srcs(0), vec![1, 4]);
        assert_eq!(srcs(1), vec![3]);
        assert_eq!(srcs(2), vec![0, 2]);
    }

    #[test]
    fn arena_never_shrinks() {
        let mut b = RouteBuffers::new(2);
        b.counts[0] = 4;
        assert_eq!(b.seal_counts_live(0..2), 4);
        let cap = b.arena.len();
        b.counts.fill(0);
        b.counts[1] = 1;
        assert_eq!(b.seal_counts_live(0..2), 1);
        assert_eq!(b.arena.len(), cap, "arena must be reused, not shrunk");
    }

    /// Seals and fills two buckets, each envelope named by its sender.
    fn route(b: &mut RouteBuffers, buckets: [&[NodeId]; 2]) {
        b.counts.copy_from_slice(&buckets.map(|s| s.len() as u32));
        b.seal_counts_live(0..2);
        for (d, srcs) in buckets.iter().enumerate() {
            for &src in *srcs {
                let msg = WireMsg::signal(0);
                b.push(d, WireEnvelope { src, msg });
            }
        }
    }

    /// The senders of a delivery `(inbox_start, delivered, _)`, in order.
    fn srcs(b: &RouteBuffers, (start, len, _): (u32, u32, usize)) -> Vec<NodeId> {
        let inbox = &b.arena[start as usize..][..len as usize];
        inbox.iter().map(|e| e.src).collect()
    }

    #[test]
    fn queue_delivery_stays_in_place_until_a_node_carries_backlog() {
        let mut b = RouteBuffers::new(2);
        let mut q = QueueBuffers::new(2);
        // Round one, cap 2: node 0 reads 1, 2 where they lie and queues 3.
        route(&mut b, [&[1, 2, 3], &[4]]);
        let (d0, d1) = (q.deliver(0, &mut b, 2), q.deliver(1, &mut b, 2));
        q.end_round();
        assert_eq!((d0, d1), ((0, 2, 1), (3, 1, 0)));
        assert_eq!((srcs(&b, d0), srcs(&b, d1)), (vec![1, 2], vec![4]));
        assert_eq!(b.end, 4, "nothing spilled");
        // Round two: node 0 carries 3, so 3 ++ 5 is written past the two
        // sealed envelopes, and 6 waits.
        route(&mut b, [&[5, 6], &[]]);
        let (d0, d1) = (q.deliver(0, &mut b, 2), q.deliver(1, &mut b, 2));
        q.end_round();
        assert_eq!((d0.0, d0.2), (2, 1));
        assert_eq!((srcs(&b, d0), d1.1), (vec![3, 5], 0));
        // Round three: node 0 has retired; its drain reads the backlog.
        route(&mut b, [&[], &[]]);
        let drained: Vec<NodeId> = q.drain(0, 2).iter().map(|e| e.src).collect();
        q.end_round();
        assert_eq!((drained, q.backlog_total()), (vec![6], 0));
    }

    #[test]
    fn a_queue_emptied_behind_another_can_overflow_again() {
        // Cap 2. Node 1's queue empties in round two while node 0 still
        // re-queues, so its empty span starts past the backlog that round
        // four's arena no longer holds; its overflow there must not read it.
        let mut b = RouteBuffers::new(2);
        let mut q = QueueBuffers::new(2);
        let rounds: [[&[NodeId]; 2]; 4] = [
            [&[1, 2, 3], &[4, 5, 6]],
            [&[7, 8], &[]],
            [&[], &[]],
            [&[], &[9, 10, 11]],
        ];
        let mut last = [(0, 0, 0); 2];
        for buckets in rounds {
            route(&mut b, buckets);
            last = [q.deliver(0, &mut b, 2), q.deliver(1, &mut b, 2)];
            q.end_round();
        }
        assert_eq!((srcs(&b, last[1]), last[1].2), (vec![9, 10], 1));
        assert_eq!(q.backlog_total(), 1);
    }

    #[test]
    fn refill_compacts_in_place_and_spills_what_a_duplicate_outgrows() {
        let mut b = RouteBuffers::new(2);
        route(&mut b, [&[1, 2, 3], &[4, 5]]);
        // Drop 1 and duplicate 2: the copy takes the dropped slot.
        let mut copies = |env: &WireEnvelope| [1, 0, 2, 1, 2, 1][env.src as usize];
        let bucket: Vec<NodeId> = b.refill(0, &mut copies).iter().map(|e| e.src).collect();
        assert_eq!((bucket, b.span(0), b.end), (vec![2, 2, 3], (0, 3), 5));
        // Duplicate 4 with no room: the bucket moves past the sealed ones.
        let bucket: Vec<NodeId> = b.refill(1, &mut copies).iter().map(|e| e.src).collect();
        assert_eq!((bucket, b.span(1), b.end), (vec![4, 4, 5], (5, 3), 8));
        // Queue delivery reads it where it lies, and re-queues its tail.
        let mut q = QueueBuffers::new(2);
        assert_eq!(q.deliver(1, &mut b, 2), (5, 2, 1));
        q.end_round();
        route(&mut b, [&[], &[6]]);
        let d1 = q.deliver(1, &mut b, 2);
        assert_eq!((srcs(&b, d1), d1.0), (vec![5, 6], 1));
    }

    #[test]
    fn live_only_seal_skips_retired_indices() {
        let mut b = RouteBuffers::new(4);
        // Index 1 is retired with a stale count left behind; the live
        // seal must lay out buckets as if it did not exist.
        b.counts[0] = 2;
        b.counts[1] = 99;
        b.counts[2] = 1;
        b.counts[3] = 3;
        assert_eq!(b.seal_counts_live([0usize, 2, 3].into_iter()), 6);
        assert_eq!(b.span(0), (0, 2));
        assert_eq!(b.span(2), (2, 1));
        assert_eq!(b.span(3), (3, 3));
    }
}
