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
//! Implemented primitives and their paper sources:
//!
//! | Primitive | Paper | Rounds |
//! |---|---|---|
//! | [`proto::ctx::UndirectStep`] | §3.1 | 1 |
//! | [`proto::warmup::WarmupStep`] (Fig. 1 tree) | §3.1.1 | `O(log n)` |
//! | [`proto::bbst::BbstStep`] (Alg. 1, Fig. 2) | §3.1.1, Thm 1 | `O(log n)` |
//! | [`proto::traversal::TraversalStep`] (Cor. 2) | §3.1.1 | `O(log n)` |
//! | [`proto::ops::AggBcastStep`] (Thm 4) | §3.2.1 | `O(log n)` |
//! | [`proto::ops::CollectStep`] (Thm 5) | §3.2.2 | `O(k + log n)` |
//! | [`proto::contacts::ContactsStep`] (pointer doubling) | — | `O(log n)` |
//! | [`proto::sort::SortStep`] (Thm 3) | §3.1.2 | `O(log² n)` |
//! | [`proto::prefix::PrefixStep`] | §5 | `O(log n)` |
//! | [`proto::imcast::ImcastStep`] (Thm 7) | §3.2.3 | `O(log n)` |
//! | [`proto::stagger::StaggerStep`] (Thm 8) | §3.2.3 | `O(k/cap + log n)` |
//!
//! The sorting and multicast primitives substitute the paper's machinery
//! with same-complexity-class constructions (bitonic networks and interval
//! doubling instead of recursive merge and butterflies); see `DESIGN.md` §4
//! for the substitution rationale.
//!
//! Every primitive is a [`proto::Step`]: a state machine polled once per
//! round through a [`dgr_ncc::RoundCtx`], composable with the others into
//! whole-run [`dgr_ncc::NodeProtocol`]s (see the [`proto`] module and the
//! recipe in `ARCHITECTURE.md`). The sibling modules ([`bbst`], [`sort`],
//! [`imcast`], …) hold each primitive's description, its shared types
//! ([`Bbst`], [`ContactTable`], [`SortedPath`], …), its round budget and
//! its property tests.

pub mod bbst;
pub mod contacts;
pub mod ctx;
pub mod imcast;
pub mod ops;
pub mod prefix;
pub mod proto;
pub mod scatter;
pub mod sort;
pub mod stagger;
pub mod traversal;
pub mod vpath;
pub mod warmup;

pub use bbst::Bbst;
pub use contacts::ContactTable;
pub use ctx::PathCtx;
pub use proto::{PathToClique, Undirect};
pub use sort::{Order, SortBackend, SortedPath};
pub use vpath::VPath;

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
