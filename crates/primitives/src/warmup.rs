//! The warm-up balanced binary tree of §3.1.1 (Figure 1) — *not* a search
//! tree, but a simple `O(log n)`-round recursive construction.
//!
//! In every recursion step, the left-most node `r` of each live path makes
//! its immediate neighbor `a` its left child and `a`'s other neighbor `b`
//! its right child, then removes itself; the remaining path decomposes into
//! the two grand-neighbor sub-paths headed by `a` and `b`, and the step
//! repeats in parallel on both. Path lengths halve per step, so the
//! recursion terminates after `O(log n)` levels and the resulting tree has
//! height `O(log n)`.

use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};

/// One node's view of the warm-up tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarmupTree {
    /// True for the overall root (the head of the original path).
    pub is_root: bool,
    /// Parent ID (None for the root and non-members).
    pub parent: Option<NodeId>,
    /// Left child (the former immediate neighbor).
    pub left: Option<NodeId>,
    /// Right child (the former neighbor's neighbor).
    pub right: Option<NodeId>,
    /// Recursion level at which this node became a path head (root = 0);
    /// equals its depth in the tree.
    pub depth: u64,
}

/// Number of recursion levels (and half the rounds) for a path of `len`
/// nodes: path lengths roughly halve per level.
pub fn levels(len: usize) -> u64 {
    crate::levels_for(len) as u64 + 1
}

/// Number of rounds [`WarmupStep`] takes: two per recursion level.
pub fn rounds_for(len: usize) -> u64 {
    2 * levels(len)
}

/// Which neighbor a [`tags::LEVEL_LINK`] message introduces.
const GRAND_PRED: u64 = 0;
const GRAND_SUCC: u64 = 1;

/// Figure 1's recursive construction on a virtual path, two rounds per
/// recursion level: a grand-neighbor exchange on every live path, then
/// each path head adopting its neighbor and its grand-successor and
/// leaving. Non-members idle in lockstep.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type WarmupStep = Lockstep<Warmup>;

/// [`WarmupStep`]'s member rounds.
#[derive(Debug)]
pub struct Warmup {
    tree: WarmupTree,
    /// This node's neighbors on its current live path.
    pred: Option<NodeId>,
    succ: Option<NodeId>,
    /// The neighbors' neighbors, learned in the level's exchange round.
    grand_pred: Option<NodeId>,
    grand_succ: Option<NodeId>,
    /// Has this node been a path head (adopted its children and left)?
    removed: bool,
}

impl WarmupStep {
    /// Builds the step for one node's view of the path.
    pub fn new(vp: VPath) -> Self {
        let warmup = Warmup {
            tree: WarmupTree {
                is_root: vp.is_head(),
                ..WarmupTree::default()
            },
            pred: vp.pred,
            succ: vp.succ,
            grand_pred: None,
            grand_succ: None,
            removed: false,
        };
        Lockstep::run(vp.member, rounds_for(vp.len), warmup)
    }
}

impl Warmup {
    /// Consumes an exchange round: who sits two hops away on my path.
    fn absorb_links(&mut self, ctx: &RoundCtx<'_>) {
        (self.grand_pred, self.grand_succ) = (None, None);
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::LEVEL_LINK) {
            match env.word() {
                GRAND_PRED => self.grand_pred = Some(env.addr()),
                GRAND_SUCC => self.grand_succ = Some(env.addr()),
                other => unreachable!("bad link word {other}"),
            }
        }
    }

    /// Consumes an adopt round, then restructures locally: the path
    /// splits into its two grand-neighbor sub-paths, headed by the
    /// freshly adopted children.
    fn absorb_adoption(&mut self, ctx: &RoundCtx<'_>) {
        let mut became_head = false;
        for env in ctx.inbox() {
            if matches!(env.msg.tag, tags::INVITE_LEFT | tags::INVITE_RIGHT) {
                self.tree.parent = Some(env.src);
                self.tree.depth = env.word() + 1;
                became_head = true;
            }
        }
        if !self.removed {
            self.pred = if became_head { None } else { self.grand_pred };
            self.succ = self.grand_succ;
        }
    }
}

impl Rounds for Warmup {
    type Out = WarmupTree;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<WarmupTree> {
        // Poll t consumes round t-1: odd polls follow an exchange round,
        // even polls (past the first) an adopt round.
        if t % 2 == 1 {
            self.absorb_links(ctx);
        } else if t > 0 {
            self.absorb_adoption(ctx);
        }
        if t == rounds {
            debug_assert!(self.removed, "node {} never became a path head", ctx.id());
            return Poll::Ready(std::mem::take(&mut self.tree));
        }
        // A node that has left its path idles through the remaining levels.
        if !self.removed && t.is_multiple_of(2) {
            // Tell my successor who my predecessor is and vice versa.
            if let (Some(p), Some(s)) = (self.pred, self.succ) {
                ctx.send(s, WireMsg::addr_word(tags::LEVEL_LINK, p, GRAND_PRED));
                ctx.send(p, WireMsg::addr_word(tags::LEVEL_LINK, s, GRAND_SUCC));
            }
        } else if !self.removed && self.pred.is_none() {
            // A path head adopts its neighbor `a` as left child and `a`'s
            // other neighbor `b` as right child, then leaves.
            let level = t / 2;
            if let Some(a) = self.succ {
                ctx.send(a, WireMsg::word(tags::INVITE_LEFT, level));
                self.tree.left = Some(a);
            }
            if let Some(b) = self.grand_succ {
                ctx.send(b, WireMsg::word(tags::INVITE_RIGHT, level));
                self.tree.right = Some(b);
            }
            self.removed = true;
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::UndirectStep;
    use crate::{Step, StepProtocol};
    use dgr_ncc::{Config, Network, RunResult};
    use std::collections::HashMap;

    /// Undirect, then the warm-up construction.
    fn run_on(net: &Network) -> RunResult<WarmupTree> {
        net.run_protocol(|_| {
            StepProtocol::new(UndirectStep::new().then(|vp, _| WarmupStep::new(vp)))
        })
        .unwrap()
    }

    fn run(n: usize, seed: u64) -> RunResult<WarmupTree> {
        run_on(&Network::new(n, Config::ncc0(seed)))
    }

    fn check(n: usize, seed: u64) {
        let result = run(n, seed);
        assert!(result.metrics.is_clean(), "n={n}");
        let view: HashMap<NodeId, &WarmupTree> =
            result.outputs.iter().map(|(id, t)| (*id, t)).collect();
        // Exactly one root: the head of G_k.
        let roots: Vec<_> = result.outputs.iter().filter(|(_, t)| t.is_root).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].0, result.gk_order()[0]);
        // Tree is spanning: walking parents reaches the root from everywhere,
        // and depth decreases along the way.
        for (id, t) in &result.outputs {
            let mut cur = *id;
            let mut hops = 0;
            while let Some(p) = view[&cur].parent {
                assert!(view[&p].depth + 1 == view[&cur].depth);
                cur = p;
                hops += 1;
                assert!(hops <= n, "parent cycle at node {id}");
            }
            assert!(view[&cur].is_root);
            // Balanced: depth is O(log n).
            assert!(
                t.depth <= levels(n),
                "n={n}: depth {} exceeds {}",
                t.depth,
                levels(n)
            );
        }
        // Parent/child agreement and binary-ness.
        for (id, t) in &result.outputs {
            for c in [t.left, t.right].into_iter().flatten() {
                assert_eq!(view[&c].parent, Some(*id));
            }
        }
    }

    #[test]
    fn warmup_tree_is_balanced_and_spanning() {
        for &n in &[1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 50, 64, 100, 128] {
            check(n, n as u64 + 70);
        }
    }

    /// Figure 1 of the paper: the warm-up tree on the path 1..8.
    /// Derived by hand from the recursive rule: 1 adopts 2 (left) and 3
    /// (right); the remainder splits into (2,4,6,8) and (3,5,7); 2 adopts
    /// 4 and 6; 3 adopts 5 and 7; (4,8) leaves 8 under 4.
    #[test]
    fn fig1_exact_shape() {
        let result = run_on(&Network::new(8, Config::ncc0(0).with_sequential_ids()));
        let view: HashMap<NodeId, &WarmupTree> =
            result.outputs.iter().map(|(id, t)| (*id, t)).collect();
        assert!(view[&1].is_root);
        assert_eq!((view[&1].left, view[&1].right), (Some(2), Some(3)));
        assert_eq!((view[&2].left, view[&2].right), (Some(4), Some(6)));
        assert_eq!((view[&3].left, view[&3].right), (Some(5), Some(7)));
        assert_eq!((view[&4].left, view[&4].right), (Some(8), None));
        for leaf in [5, 6, 7, 8] {
            assert_eq!((view[&leaf].left, view[&leaf].right), (None, None));
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let result = run(128, 3);
        assert_eq!(result.metrics.rounds, 1 + rounds_for(128));
        assert_eq!(rounds_for(128), 2 * 8);
    }
}
