//! Tree traversal computations on the BBST: subtree sizes (bottom-up
//! convergecast) and inorder numbers (top-down), giving every node its
//! *position* on the path — Corollary 2 of the paper.
//!
//! Both phases are event-driven inside a fixed round budget derived from the
//! Theorem-1 height bound, so the whole computation takes `O(log n)` rounds
//! and at most two messages per node per round.

use crate::bbst::sweep_rounds;

/// A node's traversal-derived data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Traversal {
    /// This node's position on the path (inorder number), 0-based.
    pub position: usize,
    /// Size of this node's subtree (including itself).
    pub subtree_size: usize,
    /// Size of the left child's subtree (0 if none).
    pub left_size: usize,
    /// Size of the right child's subtree (0 if none).
    pub right_size: usize,
}

/// Number of rounds [`TraversalStep`](crate::proto::traversal::TraversalStep)
/// takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    2 * sweep_rounds(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{EstablishCtx, StepProtocol};
    use dgr_ncc::{Config, Network};

    /// The traversal the context establishment ends with.
    fn check(n: usize, seed: u64) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .unwrap();
        assert!(result.metrics.is_clean(), "n={n}");
        // Corollary 2: every node knows its exact path position.
        for (i, (_, ctx)) in result.outputs.iter().enumerate() {
            assert_eq!(ctx.traversal.position, i, "n={n}: wrong position");
        }
        // Subtree sizes partition correctly.
        for (_, ctx) in &result.outputs {
            let t = &ctx.traversal;
            assert_eq!(t.subtree_size, t.left_size + t.right_size + 1);
        }
    }

    #[test]
    fn positions_are_exact() {
        for &n in &[1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64, 100, 129] {
            check(n, n as u64 * 7 + 1);
        }
    }

    #[test]
    fn corollary2_round_count_is_logarithmic() {
        // Rounds for the position computation alone — the establishment
        // with and without its final traversal stage — must match the
        // deterministic schedule and be O(log n).
        use crate::proto::bbst::BbstStep;
        use crate::proto::contacts::ContactsStep;
        use crate::proto::ctx::UndirectStep;
        use crate::proto::Step;
        let n = 512;
        let net = Network::new(n, Config::ncc0(3));
        let with = net
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .unwrap();
        let without = net
            .run_protocol(|_| {
                StepProtocol::new(UndirectStep::new().then(|vp, _| {
                    ContactsStep::new(vp).then(move |contacts, _| BbstStep::new(vp, contacts))
                }))
            })
            .unwrap();
        let expected = rounds_for(n);
        assert_eq!(with.metrics.rounds - without.metrics.rounds, expected);
        assert_eq!(expected, 2 * (crate::levels_for(n) as u64 + 2));
    }
}
