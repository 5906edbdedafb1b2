//! [`PathCtx`]: the bundle of structures every algorithm establishes on a
//! path before doing real work — contact table, BBST and positions.
//!
//! [`crate::proto::EstablishCtx`] establishes it: the chain undirect,
//! contacts, BBST, traversal as one step, composable with the other
//! [`crate::proto::Step`]s.

use crate::bbst::{self, Bbst};
use crate::contacts::{self, ContactTable};
use crate::traversal::{self, Traversal};
use crate::vpath::VPath;
use std::sync::Arc;

/// Everything a node knows about one virtual path after the standard
/// `O(log n)`-round setup: the path view itself, its power-of-two contacts,
/// the balanced binary search tree, and its exact position.
///
/// The heap-backed structures — the contact table and the tree — are
/// **interned** behind `Arc`s: they are built exactly once per
/// establishment and every consumer (the sort network, the interval
/// multicast, the global aggregations, each phase of a realization
/// driver) holds a reference-counted handle instead of a deep copy. A
/// composite stage machine's transition therefore moves two pointers, not
/// kilobytes of table — the memory discipline that carries the batched
/// drivers from 2·10⁵ to 10⁶ nodes. The scalar members ([`VPath`],
/// [`Traversal`], the position) stay plain `Copy` data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathCtx {
    /// The path view this context was built on.
    pub vp: VPath,
    /// Power-of-two contacts along the path (interned; clone = handle).
    pub contacts: Arc<ContactTable>,
    /// The balanced binary search tree (Algorithm 1; interned).
    pub tree: Arc<Bbst>,
    /// This node's position on the path (inorder number, Corollary 2).
    pub position: usize,
    /// Full traversal data (subtree sizes).
    pub traversal: Traversal,
}

/// Rounds for [`EstablishCtx::on`](crate::proto::EstablishCtx::on) — the
/// context on an already-linked virtual path of `len` nodes.
pub fn rounds_on(len: usize) -> u64 {
    contacts::rounds_for(len) + bbst::rounds_for(len) + traversal::rounds_for(len)
}

/// Rounds for [`EstablishCtx::new`](crate::proto::EstablishCtx::new) — the
/// context on `G_k` (includes the 1-round undirection).
pub fn rounds_for(len: usize) -> u64 {
    1 + rounds_on(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_is_o_log_n_rounds() {
        // The total setup cost grows logarithmically: quadrupling n adds
        // only a constant number of levels' worth of rounds.
        let r1 = rounds_for(64);
        let r2 = rounds_for(256);
        assert!(r2 > r1);
        assert!(r2 - r1 <= 14, "setup rounds grew too fast: {r1} -> {r2}");
    }
}
