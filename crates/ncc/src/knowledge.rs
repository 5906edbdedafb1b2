//! KT0 knowledge tracking.
//!
//! In NCC0 a node may address only IDs it has *learned*. Knowledge spreads in
//! exactly two ways: receiving a message reveals the sender's ID, and a
//! message payload may carry explicit addresses. The engine maintains each
//! node's knowledge set and checks every outgoing message against it, so a
//! clean strict run is a machine-checked proof that the protocol is a legal
//! NCC0 algorithm.
//!
//! ## Storage: per-node sorted arenas
//!
//! The tracker is engine-native rather than collection-backed: all learned
//! IDs live in **one** flat arena, and node `i` owns a contiguous region of
//! it, kept sorted. `knows` is a binary search over the node's region (no
//! hashing, cache-linear); `learn` of an already-known ID is the same
//! search and touches no memory. A new ID is inserted in place (one
//! `copy_within` inside the region) while the region has spare capacity;
//! when it is full, the region is re-homed to the arena tail with twice
//! the capacity. Region capacities are powers of two, so the total arena —
//! live regions plus abandoned predecessors — is bounded by ~3x the live
//! knowledge, and once every node's knowledge has stopped growing (the
//! steady state of every bounded-knowledge protocol) the tracker performs
//! **zero allocations**: the strict-KT0 probe in
//! `crates/ncc/tests/zero_alloc.rs` locks that in.

use crate::message::NodeId;

/// Smallest region capacity handed to a node on its first learned ID.
const MIN_REGION: usize = 4;

/// Seeds the initial NCC0 knowledge along the directed path `G_k`, but
/// only for *participating* nodes: each participating node learns its own
/// ID and the ID of the **next participating** node on the path (masked-out
/// indices are skipped entirely — they are not on the path, so nobody's
/// initial knowledge may point at them). Tracker rows cover the **dense**
/// 0..k participant space (the j-th participating index of `ids`, in path
/// order, is dense index j — per-node arrays are sized to the participant
/// count on masked runs) split across per-shard trackers:
/// shard `s` owns dense indices `bases[s]..bases[s + 1]` (with an
/// implicit final bound of k) and its tracker rows are indexed
/// shard-locally. The one boundary case the per-shard view crosses is the
/// path link itself: the last participant of shard `s` learns the ID of
/// the first participant of shard `s + 1`, written into shard `s`'s
/// tracker. The threaded oracle keeps full-width rows and seeds with
/// [`seed_path`].
pub(crate) fn seed_path_sharded(
    trackers: &mut [KnowledgeTracker],
    bases: &[usize],
    ids: &[NodeId],
    participating: impl Fn(usize) -> bool,
) {
    if trackers.first().is_none_or(|t| !t.enabled()) {
        return;
    }
    debug_assert_eq!(trackers.len(), bases.len());
    let owner = |d: usize| {
        let s = bases.partition_point(|&b| b <= d) - 1;
        (s, d - bases[s])
    };
    let mut dense = 0usize;
    for (i, &id) in ids.iter().enumerate() {
        if !participating(i) {
            continue;
        }
        let (s, local) = owner(dense);
        trackers[s].learn(local, id);
        if dense > 0 {
            // The previous participant's out-neighbor on the path is this
            // node — it may be owned by the previous shard.
            let (ps, plocal) = owner(dense - 1);
            trackers[ps].learn(plocal, id);
        }
        dense += 1;
    }
}

/// One node's region of the knowledge arena.
#[derive(Clone, Copy, Debug, Default)]
struct Region {
    /// Arena offset of the region.
    start: usize,
    /// IDs currently stored (sorted ascending).
    len: usize,
    /// Region capacity (power of two; 0 before the first learn).
    cap: usize,
}

/// Per-node knowledge sets, indexed by the engine's dense node index,
/// stored as sorted regions of a single shared arena (see module docs).
#[derive(Debug)]
pub struct KnowledgeTracker {
    regions: Vec<Region>,
    arena: Vec<NodeId>,
    enabled: bool,
}

impl KnowledgeTracker {
    /// Creates a tracker for `n` nodes. When `enabled` is false all queries
    /// answer "known" and no memory is spent.
    pub fn new(n: usize, enabled: bool) -> Self {
        KnowledgeTracker {
            regions: if enabled {
                vec![Region::default(); n]
            } else {
                Vec::new()
            },
            // Path seeding gives most nodes 2-3 IDs; pre-sizing for one
            // MIN_REGION block per node makes the seeding phase a single
            // allocation.
            arena: Vec::with_capacity(if enabled { MIN_REGION * n } else { 0 }),
            enabled,
        }
    }

    /// Whether tracking is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Node `node`'s sorted learned IDs.
    #[inline]
    fn region_slice(&self, node: usize) -> &[NodeId] {
        let r = self.regions[node];
        &self.arena[r.start..r.start + r.len]
    }

    /// Grants `node` knowledge of `id` (initial knowledge or learning).
    pub fn learn(&mut self, node: usize, id: NodeId) {
        if !self.enabled {
            return;
        }
        let r = self.regions[node];
        let pos = match self.arena[r.start..r.start + r.len].binary_search(&id) {
            Ok(_) => return, // already known: no writes, no allocation
            Err(pos) => pos,
        };
        let r = if r.len == r.cap {
            // Region full: re-home to the arena tail with double capacity
            // (the abandoned predecessor is never reclaimed — the geometric
            // growth bounds total waste by the live size).
            let cap = (r.cap * 2).max(MIN_REGION);
            let start = self.arena.len();
            self.arena.resize(start + cap, 0);
            self.arena.copy_within(r.start..r.start + r.len, start);
            let moved = Region {
                start,
                len: r.len,
                cap,
            };
            self.regions[node] = moved;
            moved
        } else {
            r
        };
        // Sorted insert: shift the tail of the region right by one.
        let at = r.start + pos;
        self.arena.copy_within(at..r.start + r.len, at + 1);
        self.arena[at] = id;
        self.regions[node].len += 1;
    }

    /// Does `node` know `id`?
    pub fn knows(&self, node: usize, id: NodeId) -> bool {
        !self.enabled || self.region_slice(node).binary_search(&id).is_ok()
    }

    /// Number of IDs `node` has learned (0 when tracking is off).
    pub fn knowledge_size(&self, node: usize) -> usize {
        if self.enabled {
            self.regions[node].len
        } else {
            0
        }
    }

    /// Current arena length — live regions plus abandoned predecessors.
    /// Surfaced through [`EngineStats`](crate::EngineStats) so tests can
    /// assert that masked runs size knowledge storage by participant
    /// count, not network size.
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_seeding_renumbers_participants_in_path_order() {
        let ids: Vec<NodeId> = vec![10, 20, 30, 40, 50];
        // Participants 0, 2, 4 own dense rows 0, 1, 2 — the tracker is
        // sized to the participant count, as in a masked batched run.
        let mut t = KnowledgeTracker::new(3, true);
        seed_path_sharded(std::slice::from_mut(&mut t), &[0], &ids, |i| {
            i != 1 && i != 3
        });
        assert!(t.knows(0, 10) && t.knows(0, 30));
        assert!(t.knows(1, 30) && t.knows(1, 50));
        // The tail learns only itself, and nobody learns a filtered ID.
        assert_eq!(t.knowledge_size(2), 1);
        assert!(t.knows(2, 50));
        assert!(!t.knows(0, 20) && !t.knows(1, 40));
    }

    #[test]
    fn sharded_seeding_matches_dense_across_the_boundary() {
        let ids: Vec<NodeId> = vec![10, 20, 30, 40, 50, 60];
        // Participants 0, 2, 3, 5 own dense rows 0..4, split 2/2 across
        // two shards — the path link 1 -> 2 crosses the shard boundary.
        let participating = |i: usize| i != 1 && i != 4;
        let mut dense = KnowledgeTracker::new(4, true);
        seed_path_sharded(std::slice::from_mut(&mut dense), &[0], &ids, participating);
        let mut shards = vec![
            KnowledgeTracker::new(2, true),
            KnowledgeTracker::new(2, true),
        ];
        seed_path_sharded(&mut shards, &[0, 2], &ids, participating);
        for d in 0..4usize {
            let (s, local) = (d / 2, d % 2);
            assert_eq!(
                dense.knowledge_size(d),
                shards[s].knowledge_size(local),
                "row {d}"
            );
            for &id in &ids {
                assert_eq!(
                    dense.knows(d, id),
                    shards[s].knows(local, id),
                    "row {d} id {id}"
                );
            }
        }
    }

    #[test]
    fn seeding_all_alive_matches_plain_path() {
        let ids: Vec<NodeId> = vec![7, 8, 9];
        let mut t = KnowledgeTracker::new(3, true);
        seed_path_sharded(std::slice::from_mut(&mut t), &[0], &ids, |_| true);
        assert!(t.knows(0, 7) && t.knows(0, 8) && !t.knows(0, 9));
        assert!(t.knows(1, 8) && t.knows(1, 9));
        assert_eq!(t.knowledge_size(2), 1);
    }

    #[test]
    fn disabled_tracker_knows_everything() {
        let t = KnowledgeTracker::new(4, false);
        assert!(t.knows(0, 999));
        assert_eq!(t.knowledge_size(0), 0);
    }

    #[test]
    fn learning_is_per_node() {
        let mut t = KnowledgeTracker::new(2, true);
        t.learn(0, 7);
        assert!(t.knows(0, 7));
        assert!(!t.knows(1, 7));
        assert_eq!(t.knowledge_size(0), 1);
        assert_eq!(t.knowledge_size(1), 0);
    }

    #[test]
    fn learning_is_idempotent() {
        let mut t = KnowledgeTracker::new(1, true);
        t.learn(0, 7);
        t.learn(0, 7);
        assert_eq!(t.knowledge_size(0), 1);
    }

    #[test]
    fn regions_grow_and_stay_sorted_under_interleaved_learning() {
        // Interleave learning across nodes so regions are re-homed while
        // other regions sit between them in the arena.
        let mut t = KnowledgeTracker::new(3, true);
        for k in 0..64u64 {
            // Descending and alternating inserts exercise every insert
            // position.
            t.learn((k % 3) as usize, 1_000 - k);
            t.learn(((k + 1) % 3) as usize, 500 + (k % 7) * 13);
        }
        for node in 0..3 {
            let mut seen = Vec::new();
            for k in 0..64u64 {
                if (k % 3) as usize == node {
                    seen.push(1_000 - k);
                }
                if ((k + 1) % 3) as usize == node {
                    seen.push(500 + (k % 7) * 13);
                }
            }
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(t.knowledge_size(node), seen.len(), "node {node}");
            for &id in &seen {
                assert!(t.knows(node, id), "node {node} lost id {id}");
            }
            assert!(!t.knows(node, 2), "node {node} knows an unlearned id");
        }
    }
}
