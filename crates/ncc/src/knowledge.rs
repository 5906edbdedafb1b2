//! KT0 knowledge tracking.
//!
//! In NCC0 a node may address only IDs it has *learned*. Knowledge spreads in
//! exactly two ways: receiving a message reveals the sender's ID, and a
//! message payload may carry explicit addresses. The engine maintains each
//! node's knowledge set and checks every outgoing message against it, so a
//! clean strict run is a machine-checked proof that the protocol is a legal
//! NCC0 algorithm.
//!
//! ## Storage: open-addressed regions of one arena
//!
//! The tracker is engine-native rather than collection-backed: all learned
//! IDs live in **one** flat arena, and node `i` owns a contiguous region of
//! it — a power-of-two number of slots used as an open-addressed hash
//! table. `knows`, and `learn` of an already-known ID, are one
//! multiplicative hash ([`HASH_MUL`], top bits of the product) and a linear
//! probe from that slot to the ID or to the first vacant slot: usually
//! inside one cache line, touching no other memory, and independent of
//! the next message's check, so the cache misses of an inbox overlap. A new
//! ID is one store into the vacant slot that ended its probe.
//!
//! **Load rule.** A table of up to [`FULL_UP_TO`] slots fills completely;
//! a larger one takes 13 IDs per 16 slots. A table at its limit is re-homed
//! to the arena tail with twice the slots and its IDs re-inserted, so the
//! arena — live tables plus abandoned predecessors — stays under 5x the
//! live knowledge (64/13, a table just re-homed), and within 2 % of what
//! sorted, completely filled regions took on every workload measured.
//! Whether a table grows depends only on how many IDs its node has
//! learned, so the arena total is the same at every shard and worker
//! count.
//!
//! **Every `u64` is a legal ID.** Vacant slots hold [`EMPTY`] (zero, what
//! `resize` writes); a node's knowledge of the ID zero itself is one flag
//! in its region header and never enters the table.
//!
//! **The probe is bounded.** It takes at most as many steps as the table
//! has slots, so a full small table answers "unknown" after one pass and
//! keys chosen to collide (multiples of the multiplier's inverse all hash
//! to slot 0) cost O(slots) per check, never a hang.
//!
//! Once every node's knowledge has stopped growing (the steady state of
//! every bounded-knowledge protocol) the tracker performs **zero
//! allocations**: the strict-KT0 probe in `crates/ncc/tests/zero_alloc.rs`
//! locks that in.

use crate::message::NodeId;
use crate::metrics::vec_bytes;

/// Slots of the table a node gets on its first learned ID.
const MIN_REGION: u32 = 4;

/// Tables up to this many slots (four cache lines) fill completely: walking
/// one end to end costs less than the doubled region would. Larger tables
/// are re-homed at 13/16.
const FULL_UP_TO: u32 = 32;

/// What a vacant slot holds. It is also a legal ID, so a node's knowledge
/// of it lives in [`Region::knows_empty`], never in a slot.
const EMPTY: NodeId = 0;

/// ⌊2^64 / φ⌋, made odd: the Fibonacci-hashing multiplier. The top bits of
/// the product depend on every bit of the ID, and consecutive IDs land
/// maximally far apart, so `1..=n` spreads as evenly as random IDs do.
pub(crate) const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seeds the initial NCC0 knowledge along the directed path `G_k`: each
/// node learns its own ID and the ID of the next node on the path.
/// Tracker rows cover the dense index space (the path positions) split
/// across per-shard trackers: shard `s` owns dense indices
/// `bases[s]..bases[s + 1]` (with an implicit final bound of n) and its
/// tracker rows are indexed shard-locally. The one boundary case the
/// per-shard view crosses is the path link itself: the last node of
/// shard `s` learns the ID of the first node of shard `s + 1`, written
/// into shard `s`'s tracker.
pub(crate) fn seed_path_sharded(
    trackers: &mut [KnowledgeTracker],
    bases: &[usize],
    ids: &[NodeId],
) {
    if trackers.first().is_none_or(|t| !t.enabled()) {
        return;
    }
    debug_assert_eq!(trackers.len(), bases.len());
    let owner = |d: usize| {
        let s = bases.partition_point(|&b| b <= d) - 1;
        (s, d - bases[s])
    };
    for (dense, &id) in ids.iter().enumerate() {
        let (s, local) = owner(dense);
        trackers[s].learn(local, id);
        if dense > 0 {
            // The previous node's out-neighbor on the path is this node —
            // it may be owned by the previous shard.
            let (ps, plocal) = owner(dense - 1);
            trackers[ps].learn(plocal, id);
        }
    }
}

/// One node's region of the knowledge arena.
#[derive(Clone, Copy, Debug, Default)]
struct Region {
    /// Arena offset of the table.
    start: usize,
    /// IDs known, the escaped [`EMPTY`] included.
    len: u32,
    /// Table slots (a power of two; 0 before the first stored ID).
    cap: u32,
    /// Whether the node knows the ID [`EMPTY`], which no slot can hold.
    knows_empty: bool,
}

impl Region {
    /// Whether the table holds all the IDs its capacity is allowed to.
    fn at_load_limit(&self) -> bool {
        let limit = if self.cap <= FULL_UP_TO {
            self.cap
        } else {
            self.cap / 16 * 13
        };
        self.len - u32::from(self.knows_empty) == limit
    }
}

/// Walks `id`'s probe run in `table` (a power-of-two number of slots, or
/// none): `Ok(())` if a slot holds `id`, `Err(Some(slot))` at the vacant
/// slot that ends the run, `Err(None)` if every slot holds another ID. At
/// most `table.len()` steps, whatever the keys.
#[inline]
fn probe(table: &[NodeId], id: NodeId) -> Result<(), Option<usize>> {
    let Some(mask) = table.len().checked_sub(1) else {
        return Err(None);
    };
    let mut slot = (id.wrapping_mul(HASH_MUL) >> (64 - table.len().trailing_zeros())) as usize;
    for _ in 0..table.len() {
        slot &= mask;
        let held = table[slot];
        if held == id {
            return Ok(());
        }
        if held == EMPTY {
            return Err(Some(slot));
        }
        slot += 1;
    }
    Err(None)
}

/// Per-node knowledge sets, indexed by the engine's dense node index,
/// stored as open-addressed regions of a single shared arena (see module
/// docs).
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
            arena: Vec::with_capacity(if enabled { MIN_REGION as usize * n } else { 0 }),
            enabled,
        }
    }

    /// Whether tracking is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The table of region `r`.
    #[inline]
    fn table(&self, r: Region) -> &[NodeId] {
        &self.arena[r.start..r.start + r.cap as usize]
    }

    /// Re-homes region `r` to the arena tail with twice the slots and
    /// re-inserts its IDs. The abandoned predecessor is never reclaimed:
    /// geometric growth bounds the total waste by the live size.
    fn rehome(&mut self, r: Region) -> Region {
        let doubled = r.cap.checked_mul(2).expect("a table fits 2^31 slots");
        let cap = doubled.max(MIN_REGION);
        let start = self.arena.len();
        self.arena.resize(start + cap as usize, EMPTY);
        let (old, new) = self.arena.split_at_mut(start);
        for &held in &old[r.start..r.start + r.cap as usize] {
            if held != EMPTY {
                let vacant = probe(new, held).expect_err("the IDs of one table are distinct");
                new[vacant.expect("the doubled table has room")] = held;
            }
        }
        Region { start, cap, ..r }
    }

    /// Grants `node` knowledge of `id` (initial knowledge or learning).
    pub fn learn(&mut self, node: usize, id: NodeId) {
        if !self.enabled {
            return;
        }
        let mut r = self.regions[node];
        if id == EMPTY {
            r.len += u32::from(!r.knows_empty);
            r.knows_empty = true;
        } else {
            let Err(mut vacant) = probe(self.table(r), id) else {
                return; // already known: no writes, no allocation
            };
            if r.at_load_limit() {
                r = self.rehome(r);
                vacant = probe(self.table(r), id).expect_err("probed above: a new ID");
            }
            let slot = vacant.expect("below its load limit a table has a vacant slot");
            self.arena[r.start + slot] = id;
            r.len += 1;
        }
        self.regions[node] = r;
    }

    /// Does `node` know `id`?
    pub fn knows(&self, node: usize, id: NodeId) -> bool {
        if !self.enabled {
            return true;
        }
        let r = self.regions[node];
        if id == EMPTY {
            r.knows_empty
        } else {
            probe(self.table(r), id).is_ok()
        }
    }

    /// Number of IDs `node` has learned (0 when tracking is off).
    pub fn knowledge_size(&self, node: usize) -> usize {
        if self.enabled {
            self.regions[node].len as usize
        } else {
            0
        }
    }

    /// Current arena length — live regions plus abandoned predecessors.
    /// Surfaced through [`EngineStats`](crate::EngineStats).
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Heap bytes of the arena and the region headers (for the run's
    /// footprint record).
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.arena) + vec_bytes(&self.regions)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `HASH_MUL`'s inverse modulo 2^64 (Newton's iteration doubles the
    /// correct low bits; an odd `x` is its own inverse modulo 8): its
    /// multiples are keys chosen to collide, all hashing to slot 0.
    pub(crate) fn hash_mul_inverse() -> u64 {
        let mut inv = HASH_MUL;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(HASH_MUL.wrapping_mul(inv)));
        }
        assert_eq!(inv.wrapping_mul(HASH_MUL), 1);
        inv
    }

    #[test]
    fn sharded_seeding_matches_dense_across_the_boundary() {
        let ids: Vec<NodeId> = vec![10, 20, 30, 40];
        // Rows 0..4, split 2/2 across two shards — the path link 1 -> 2
        // crosses the shard boundary.
        let mut dense = KnowledgeTracker::new(4, true);
        seed_path_sharded(std::slice::from_mut(&mut dense), &[0], &ids);
        let mut shards = vec![
            KnowledgeTracker::new(2, true),
            KnowledgeTracker::new(2, true),
        ];
        seed_path_sharded(&mut shards, &[0, 2], &ids);
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
        seed_path_sharded(std::slice::from_mut(&mut t), &[0], &ids);
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

    #[test]
    fn random_operations_match_a_btreeset_per_node() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeSet;

        const NODES: usize = 5;
        const OPS: usize = 20_000;
        let inv = hash_mul_inverse();
        let mut rng = StdRng::seed_from_u64(0x4b54_3020);
        let mut t = KnowledgeTracker::new(NODES, true);
        let mut model = vec![BTreeSet::new(); NODES];
        // Drawn from small pools so that re-learning and hits are common.
        let random: Vec<NodeId> = (0..600).map(|_| rng.gen()).collect();
        for op in 0..OPS {
            let k = rng.gen_range(1..=600u64);
            let id = match rng.gen_range(0..6u32) {
                0 | 1 => random[k as usize - 1],
                2 => k,       // sequential, as `1..=n` networks number nodes
                3 => k << 32, // the low half of the product is all zero
                // The product is `k` itself, whose top bits are zero:
                // every one of these hashes to slot 0 of every table.
                4 => k.wrapping_mul(inv),
                _ => [0, 1, u64::MAX - 1, u64::MAX][k as usize % 4],
            };
            let node = rng.gen_range(0..NODES);
            if rng.gen_bool(0.5) {
                t.learn(node, id);
                model[node].insert(id);
            }
            // Every node is asked, so an ID leaking into a neighbouring
            // region shows at once.
            for (i, known) in model.iter().enumerate() {
                assert_eq!(
                    t.knows(i, id),
                    known.contains(&id),
                    "op {op} node {i} id {id}"
                );
                assert_eq!(t.knowledge_size(i), known.len(), "op {op} node {i}");
            }
        }
        for (i, known) in model.iter().enumerate() {
            assert!(known.len() > 400, "node {i} grew through every table size");
            assert!(
                known.iter().all(|&id| t.knows(i, id)),
                "node {i} lost an id"
            );
        }
        let learned: usize = model.iter().map(BTreeSet::len).sum();
        assert!(t.arena_len() <= 5 * learned + 4 * NODES);
    }

    #[test]
    fn sequential_ids_cluster_no_worse_than_random_ones() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        // Longest run of occupied slots — what an unsuccessful probe
        // walks — in a 512-slot table at its load limit.
        let longest_run = |ids: &mut dyn Iterator<Item = NodeId>| {
            let mut t = KnowledgeTracker::new(1, true);
            ids.take(416).for_each(|id| t.learn(0, id));
            let r = t.regions[0];
            assert_eq!((r.len, r.cap), (416, 512));
            let table = t.table(r);
            // Doubled, so a run that wraps around the end counts whole.
            let (mut run, mut longest) = (0, 0);
            for &held in table.iter().chain(table) {
                run = if held == EMPTY { 0 } else { run + 1 };
                longest = longest.max(run);
            }
            longest
        };
        let mut rng = StdRng::seed_from_u64(7);
        let random = longest_run(&mut std::iter::repeat_with(|| rng.gen()));
        let sequential = longest_run(&mut (1..));
        assert!(
            sequential <= random,
            "sequential {sequential} random {random}"
        );
    }
}
