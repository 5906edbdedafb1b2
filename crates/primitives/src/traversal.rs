//! Tree traversal computations on the BBST: subtree sizes (bottom-up
//! convergecast) and inorder numbers (top-down), giving every node its
//! *position* on the path — Corollary 2 of the paper.
//!
//! Both phases are event-driven inside a fixed round budget derived from the
//! Theorem-1 height bound, so the whole computation takes `O(log n)` rounds
//! and at most two messages per node per round.

#[cfg(feature = "threaded")]
use crate::bbst::Bbst;
#[cfg(feature = "threaded")]
use crate::vpath::VPath;
#[cfg(feature = "threaded")]
use dgr_ncc::{tags, Msg, NodeHandle};

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

use crate::bbst::sweep_rounds;

/// Number of rounds [`positions`] takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    2 * sweep_rounds(len)
}

/// Computes subtree sizes and inorder positions for every tree member.
/// Non-members idle in lockstep.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn positions(h: &mut NodeHandle, vp: &VPath, tree: &Bbst) -> Traversal {
    let up = sweep_rounds(vp.len);
    let down = sweep_rounds(vp.len);
    if !vp.member {
        h.idle_quiet(up + down);
        return Traversal::default();
    }

    // --- Bottom-up: subtree sizes (convergecast). ---
    let mut t = Traversal {
        subtree_size: 1,
        ..Traversal::default()
    };
    let mut have_left = tree.left.is_none();
    let mut have_right = tree.right.is_none();
    let mut sent_up = false;
    for _ in 0..up {
        let ready = have_left && have_right;
        let mut out = Vec::new();
        if ready && !sent_up {
            if let Some(p) = tree.parent {
                out.push((p, Msg::word(tags::SUBTREE_SIZE, t.subtree_size as u64)));
            }
            sent_up = true;
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::SUBTREE_SIZE) {
            let size = env.word() as usize;
            if Some(env.src) == tree.left {
                t.left_size = size;
                have_left = true;
            } else if Some(env.src) == tree.right {
                t.right_size = size;
                have_right = true;
            } else {
                unreachable!("subtree size from non-child");
            }
            t.subtree_size += size;
        }
    }
    debug_assert!(sent_up || tree.is_root, "convergecast did not finish");
    debug_assert!(
        !tree.is_root || t.subtree_size == vp.len,
        "root sees subtree of {} != path length {}",
        t.subtree_size,
        vp.len
    );

    // --- Top-down: inorder numbers. The root's interval starts at 0; a
    // node's inorder number is its interval start plus its left subtree
    // size; children inherit the sub-intervals. ---
    let mut interval_start: Option<usize> = if tree.is_root { Some(0) } else { None };
    let mut sent_down = false;
    for _ in 0..down {
        let mut out = Vec::new();
        if let (Some(lo), false) = (interval_start, sent_down) {
            if let Some(l) = tree.left {
                out.push((l, Msg::word(tags::INORDER, lo as u64)));
            }
            if let Some(r) = tree.right {
                let r_lo = lo + t.left_size + 1;
                out.push((r, Msg::word(tags::INORDER, r_lo as u64)));
            }
            sent_down = true;
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::INORDER) {
            debug_assert_eq!(Some(env.src), tree.parent);
            interval_start = Some(env.word() as usize);
        }
    }
    t.position = interval_start.expect("inorder sweep did not reach node") + t.left_size;
    t
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
