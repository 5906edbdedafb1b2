//! Structural and computational primitives for the NCC0/NCC1 models
//! (Section 3 of *Distributed Graph Realizations*, IPDPS 2020).
//!
//! All primitives operate on a [`VPath`] — a *virtual path*: any linked
//! arrangement of a subset of nodes, starting from the physical knowledge
//! path `G_k` and later including sorted paths and sorted-path prefixes.
//! This one abstraction is what lets the realization algorithms re-sort and
//! recurse on sub-networks (Algorithm 6 runs a full degree realization on the
//! first `d₀+1` nodes of a sorted path) without any special cases.
//!
//! Every primitive runs a number of rounds that is a *deterministic function
//! of the path length* (padding with idle rounds where needed). This is the
//! **synchronous composability** invariant: because all nodes can compute the
//! same round counts from commonly known values, an algorithm is simply a
//! sequence of primitive calls executed by every node, and everything stays
//! in lockstep. Data-dependent control flow (e.g. the while-loop of
//! Algorithm 3) is always driven by globally broadcast values.
//!
//! Every primitive is a [`Step`]: a state machine polled once per round
//! through a [`dgr_ncc::RoundCtx`], chainable with the others inside one
//! run (the [`step`] module documents the polling discipline, which the
//! one [`Lockstep`] clock enforces for every primitive) — this is
//! what the realization drivers in `dgr-core`, `dgr-trees` and
//! `dgr-connectivity` compose (recipe in `ARCHITECTURE.md`). A single step
//! runs standalone as a whole-run [`dgr_ncc::NodeProtocol`] through
//! [`StepProtocol`] or, after a context establishment, [`WithCtx`]. The
//! [`PathToClique`] warm-up benchmark is a whole-run protocol of its own,
//! to keep its per-node state no larger than its output, but runs the
//! establishment's exchanges: the undirection and the contact doubling
//! are each staged in one place ([`ctx::UndirectStep`],
//! [`ContactTable`]'s levels). Each module holds its primitive's
//! description, shared types ([`ContactTable`], [`SortedPath`], …), round
//! budget, step and property tests.
//!
//! | Primitive | Paper | Rounds |
//! |---|---|---|
//! | [`ctx::UndirectStep`] | §3.1 | 1 |
//! | [`warmup::WarmupStep`] (Fig. 1 tree) | §3.1.1 | `2 (ceil(log2 n) + 1)` |
//! | [`clique::PathToClique`] (the undirection, then the pointer doubling alone, as a whole-run protocol) | §3.1 | `max(1, ceil(log2 n))` |
//! | [`ctx::EstablishCtx`] (undirect, then the doubling with a count lane: positions, Cor. 2; keyed, each key's rank in its class and the class totals too) | §3.1 | `1 + ceil(log2 n)` |
//! | [`ops::SweepStep`] (Thm 4 on a shallow tree of the contacts, each position below itself less its lowest NAF digit: up to four words and an address, one fold, at most four messages a node a round; where the capacity is under six, paced: a whole sweep a recursive doubling, one message a node a round, a broadcast half the tree one level a round) | §3.2.1 | `2 depth`, `depth <= ceil(ceil(log2 n) / 2) + 1`; paced `ceil(log2 n) + 1` (a power of two: `log2 n`) |
//! | [`ops::SweepStep::broadcast`] / [`ops::SweepStep::released`] (the broadcast half alone: from position 0, or when a message reaches it) | §3.2.1 | `depth` |
//! | [`sort::SortStep`] (Thm 3: the rank-`x` record ends at position `x`; ties by the establishment position) | §3.1.2 | `O(log² n)` |
//! | [`sort::SortStep::by_class`] (a first sort on a keyed path: the class route, every key past 7 in one overflow class, then the network over the overflow's window of `k` positions alone, where the capacity takes a record of every class a round and the two are no longer than the network; else the network) | — | `ceil(log2 n)` routed, plus `O(log² k)` for the window |
//! | [`sort::SortStep::regroup`] (a stable re-sort in place after a group phase of `g` groups: where the top key fills a group, the compaction alone — every survivor toward the head past each head at or before it; after one group decided on per-key counts, where the capacity takes its monotone streams, every survivor routed to the rank the counts give it; else the merge lane, the compaction, then one merge pass) | — | `ceil(log2(g + 1))` compacted; `ceil(log2(D + 1))` counted, `D` the longest move; else `ceil(log2(g + 1)) + ceil(log2 n) + 1` |
//! | [`sort::RankStep`] (the sort's epilogue: each origin learns its sorted path) | §3.1.2 | 2 |
//! | [`prefix::PrefixStep`] | §5 | `ceil(log2 n)` |
//! | [`imcast::ImcastStep`] (Thm 7: one address to the ranks after its source; a message carries it and the count it delegates; as long as the largest count `c` a source covers, a bound every member passes) | §3.2.3 | `ceil(log2(c + 1)) + 1`, at most `ceil(log2 n) + 1` |
//! | [`imcast::ImcastStep::at_offset`] (the address first shifted ahead to its interval; a leg message carries it, the offset to go and the count) | §5 | `2 ceil(log2 n) + 1` |
//!
//! The sorting and multicast primitives substitute the paper's machinery
//! with same-complexity-class constructions (bitonic networks and interval
//! doubling instead of recursive merge and butterflies); ARCHITECTURE.md,
//! *Deviations from the paper*, has the substitution rationale.

pub mod clique;
pub mod contacts;
pub mod ctx;
pub mod imcast;
pub mod ops;
pub mod prefix;
pub mod sort;
pub mod step;
pub mod vpath;
pub mod warmup;

pub use clique::PathToClique;
pub use contacts::ContactTable;
pub use ctx::{EstablishCtx, PathCtx, WithCtx};
pub use sort::{Order, SortedPath};
pub use step::{Lockstep, Poll, Rounds, Step, StepProtocol, Then};
pub use vpath::VPath;

/// The six paths `crates/bench/src/bin/e2e/workloads.rs` imports under
/// their pre-fold names. That file is frozen outside `benchmark` PRs;
/// nothing else may use this module, and the next such PR deletes it
/// (ROADMAP, *One instrument*).
pub mod proto {
    pub use crate::{clique, sort, EstablishCtx, PathToClique, StepProtocol, WithCtx};
}

/// `ceil(log2(len))`, the number of doubling levels for a path of `len`
/// nodes; 0 for `len <= 1`.
pub fn levels_for(len: usize) -> usize {
    if len <= 1 {
        0
    } else {
        usize::BITS as usize - (len - 1).leading_zeros() as usize
    }
}

#[cfg(test)]
#[path = "../tests/support/busiest.rs"]
mod busiest;

#[cfg(test)]
mod tests {
    use super::levels_for;

    #[test]
    fn levels() {
        assert_eq!(levels_for(0), 0);
        assert_eq!(levels_for(1), 0);
        assert_eq!(levels_for(2), 1);
        assert_eq!(levels_for(3), 2);
        assert_eq!(levels_for(4), 2);
        assert_eq!(levels_for(5), 3);
        assert_eq!(levels_for(8), 3);
        assert_eq!(levels_for(9), 4);
        assert_eq!(levels_for(1024), 10);
    }
}
