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
//! Every buffer involved — counts, bucket starts, scatter cursors and the
//! envelope arena — lives in [`RouteBuffers`] and is reused across
//! rounds: after the arena has grown to the high-water message count, the
//! routing hot path performs no heap allocation at all.

use crate::config::IdAssignment;
use crate::message::NodeId;
use crate::metrics::vec_bytes;
use crate::wire::WireEnvelope;

/// Maps node IDs to dense indices without hashing.
///
/// Sequential networks (`ids[i] == i + 1`) resolve arithmetically;
/// random-ID networks resolve by binary search over a sorted copy of the
/// ID space. Either way resolution happens once per *send* (in
/// [`RoundCtx::send`](crate::RoundCtx::send)), so the routing passes
/// themselves work purely on dense `u32` indices.
#[derive(Debug)]
pub(crate) enum Resolver {
    /// IDs are `1..=n` in path order.
    Sequential { n: usize },
    /// Sorted ID table with the matching dense index per entry.
    Sorted { ids: Vec<NodeId>, index: Vec<u32> },
}

impl Resolver {
    /// Builds the resolver for `ids` (in path order).
    pub(crate) fn build(ids: &[NodeId], assignment: IdAssignment) -> Self {
        match assignment {
            IdAssignment::Sequential => Resolver::Sequential { n: ids.len() },
            IdAssignment::Random => {
                let mut pairs: Vec<(NodeId, u32)> = ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, i as u32))
                    .collect();
                pairs.sort_unstable();
                Resolver::Sorted {
                    ids: pairs.iter().map(|&(id, _)| id).collect(),
                    index: pairs.iter().map(|&(_, i)| i).collect(),
                }
            }
        }
    }

    /// Heap bytes of the lookup tables (for the run's footprint record).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Resolver::Sequential { .. } => 0,
            Resolver::Sorted { ids, index } => vec_bytes(ids) + vec_bytes(index),
        }
    }

    /// The dense index of `id`, or `None` if no such node exists.
    #[inline]
    pub(crate) fn index_of(&self, id: NodeId) -> Option<u32> {
        match self {
            Resolver::Sequential { n } => (1..=*n as u64).contains(&id).then(|| (id - 1) as u32),
            Resolver::Sorted { ids, index } => ids.binary_search(&id).ok().map(|pos| index[pos]),
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
    /// Flat envelope arena; bucket `i` is `arena[starts[i]..][..counts[i]]`.
    pub(crate) arena: Vec<WireEnvelope>,
}

impl RouteBuffers {
    pub(crate) fn new(n: usize) -> Self {
        RouteBuffers {
            counts: vec![0; n],
            starts: vec![0; n],
            cursor: vec![0; n],
            arena: Vec::new(),
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

    /// The sealed arena's current length (an upper bound on the round's
    /// total bucket volume — the scenario fault pass sizes its swap
    /// arena from it).
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Rewrites destination `i`'s bucket span. The scenario fault pass
    /// rebuilds buckets into its own swap arena and re-points the spans
    /// at the rebuilt layout before installing it.
    pub(crate) fn set_span(&mut self, i: usize, start: u32, count: u32) {
        self.starts[i] = start;
        self.counts[i] = count;
    }

    /// Swaps `arena` in as the sealed delivery arena (the previous arena
    /// lands in `arena`, to be reused as next round's swap buffer — both
    /// vectors converge on their high-water capacity, so the exchange is
    /// allocation-free at steady state).
    pub(crate) fn install_arena(&mut self, arena: &mut Vec<WireEnvelope>) {
        std::mem::swap(&mut self.arena, arena);
    }
}

/// Flat-arena backlog for the [`Queue`](crate::CapacityPolicy::Queue)
/// capacity policy: per-node FIFO delivery queues as spans of one
/// double-buffered envelope arena, instead of `n` separate `VecDeque`s.
/// Every buffer is reused across rounds, so queued delivery is
/// allocation-free once the arenas reach the run's high-water backlog.
#[derive(Debug, Default)]
pub(crate) struct QueueBuffers {
    /// Per-node `(start, len)` span of its backlog in `cur`.
    spans: Vec<(u32, u32)>,
    /// Backlog carried over from the previous round.
    cur: Vec<WireEnvelope>,
    /// Backlog being assembled for the next round.
    next: Vec<WireEnvelope>,
    /// The round's delivery arena (what inbox spans point into).
    pub(crate) inbox: Vec<WireEnvelope>,
}

impl QueueBuffers {
    pub(crate) fn new(n: usize) -> Self {
        QueueBuffers {
            spans: vec![(0, 0); n],
            cur: Vec::new(),
            next: Vec::new(),
            inbox: Vec::new(),
        }
    }

    /// Heap bytes of all four buffers (for the run's footprint record).
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.spans)
            + vec_bytes(&self.cur)
            + vec_bytes(&self.next)
            + vec_bytes(&self.inbox)
    }

    /// Opens a round's delivery sweep (the previous round's inbox arena
    /// has been consumed by the step phase by now).
    pub(crate) fn begin_round(&mut self) {
        self.inbox.clear();
        self.next.clear();
    }

    /// Merges node `i`'s carried backlog with its freshly routed bucket,
    /// delivers up to `cap` envelopes into the inbox arena (FIFO: backlog
    /// first, then the new bucket in routed order), and re-queues the
    /// rest. Returns `(inbox_start, delivered, queued_after)`.
    ///
    /// Call [`QueueBuffers::begin_round`] first, then this for
    /// `i = 0..n` in order, then [`QueueBuffers::end_round`].
    pub(crate) fn deliver(
        &mut self,
        i: usize,
        fresh: &[WireEnvelope],
        cap: usize,
    ) -> (u32, u32, usize) {
        let (bs, bl) = self.spans[i];
        let backlog_range = bs as usize..(bs + bl) as usize;
        let total = bl as usize + fresh.len();
        let take = total.min(cap);
        let start = self.inbox.len() as u32;
        let next_start = self.next.len() as u32;
        {
            let mut pending = self.cur[backlog_range].iter().chain(fresh.iter());
            self.inbox.extend(pending.by_ref().take(take).copied());
            self.next.extend(pending.copied());
        }
        self.spans[i] = (next_start, (total - take) as u32);
        (start, take as u32, total - take)
    }

    /// Swaps the backlog buffers after a full delivery sweep.
    pub(crate) fn end_round(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
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
    fn random_resolution_by_binary_search() {
        let ids: Vec<NodeId> = vec![900, 17, 404, 3];
        let r = Resolver::build(&ids, IdAssignment::Random);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(r.index_of(id), Some(i as u32), "id {id}");
        }
        assert_eq!(r.index_of(5), None);
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
