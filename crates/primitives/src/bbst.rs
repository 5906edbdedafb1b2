//! Balanced binary *search* tree on a virtual path — Algorithm 1 of the
//! paper (§3.1.1, Theorem 1, Figure 2).
//!
//! The paper first builds the structure `L`: level `L_0` is the path itself
//! and level `L_i` splits every level-`(i-1)` path into its odd- and
//! even-position sub-paths. A node's neighbors at level `i` are therefore
//! exactly the nodes `2^i` positions away on the original path — i.e. **the
//! structure `L` is the power-of-two contact table** ([`crate::contacts`]),
//! which we reuse directly.
//!
//! The tree is then produced by the *controlled BFS* of Algorithm 1: the
//! path's head is the root; iterating levels from high to low, every node in
//! `S_p` with a level-`i` predecessor invites it as its left child, every
//! node in `S_s` with a level-`i` successor invites it as its right child,
//! and invited nodes not yet in the tree accept exactly one invitation.
//!
//! Guarantees (Theorem 1): the result is a binary tree of height at most
//! `⌈log n⌉ + 1` whose inorder traversal is the original path order — a
//! balanced binary *search* tree over path positions, built in `O(log n)`
//! rounds.

use crate::contacts::ContactTable;
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// Which side of its parent a node hangs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The node precedes its parent on the path.
    Left,
    /// The node succeeds its parent on the path.
    Right,
}

/// One node's view of the balanced binary search tree (the default is a
/// non-member's).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bbst {
    /// True for the tree's root (the path's head).
    pub is_root: bool,
    /// Parent ID (None for the root and for non-members).
    pub parent: Option<NodeId>,
    /// Which child of the parent this node is.
    pub side: Option<Side>,
    /// Left child, if any.
    pub left: Option<NodeId>,
    /// Right child, if any.
    pub right: Option<NodeId>,
    /// Distance from the root (root = 0).
    pub depth: u64,
    /// Is this node a tree member (i.e. was it a path member)?
    pub member: bool,
}

impl Bbst {
    /// Number of children (0, 1 or 2).
    pub fn child_count(&self) -> usize {
        usize::from(self.left.is_some()) + usize::from(self.right.is_some())
    }

    /// Upper bound on the tree depth for a path of `len` nodes
    /// (Theorem 1: height ≤ `⌈log n⌉ + 1`).
    pub fn depth_bound(len: usize) -> u64 {
        crate::levels_for(len) as u64 + 1
    }
}

/// Number of rounds [`BbstStep`] takes on a path of `len` nodes: two rounds
/// (invite + accept) per doubling level.
pub fn rounds_for(len: usize) -> u64 {
    2 * crate::levels_for(len) as u64
}

/// Round budget for one full sweep of the tree (root-to-leaves or
/// leaves-to-root) on a path of `len` nodes: the Theorem-1 depth bound plus
/// one completion round.
pub fn sweep_rounds(len: usize) -> u64 {
    Bbst::depth_bound(len) + 1
}

/// Algorithm 1 as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type BbstStep = Lockstep<BbstRounds>;

/// [`BbstStep`]'s member rounds.
#[derive(Debug)]
pub struct BbstRounds {
    vp: VPath,
    contacts: Arc<ContactTable>,
    tree: Bbst,
    in_tree: bool,
    in_sp: bool,
    in_ss: bool,
}

impl BbstStep {
    /// Builds the step. `contacts` must be the contact table of the same
    /// path (the structure `L` of the paper).
    pub fn new(vp: VPath, contacts: Arc<ContactTable>) -> Self {
        let is_root = vp.is_head();
        let bbst = BbstRounds {
            vp,
            contacts,
            tree: Bbst {
                is_root,
                member: true,
                ..Bbst::default()
            },
            in_tree: is_root,
            in_sp: is_root,
            in_ss: is_root,
        };
        Lockstep::run(vp.member, rounds_for(vp.len), bbst)
    }
}

impl BbstRounds {
    fn pred_at(&self, i: usize) -> Option<NodeId> {
        if i == 0 {
            self.vp.pred
        } else {
            self.contacts.behind(i)
        }
    }

    fn succ_at(&self, i: usize) -> Option<NodeId> {
        if i == 0 {
            self.vp.succ
        } else {
            self.contacts.ahead(i)
        }
    }

    /// Stages the invitations of BFS level `i` (Algorithm 1 lines 3-10).
    fn stage_invites(&mut self, i: usize, ctx: &mut RoundCtx<'_>) {
        if self.in_sp {
            if let Some(p) = self.pred_at(i) {
                ctx.send(p, WireMsg::word(tags::INVITE_LEFT, self.tree.depth + 1));
                self.in_sp = false;
            }
        }
        if self.in_ss {
            if let Some(s) = self.succ_at(i) {
                ctx.send(s, WireMsg::word(tags::INVITE_RIGHT, self.tree.depth + 1));
                self.in_ss = false;
            }
        }
    }

    /// Consumes invitations and stages an acceptance (lines 11-15).
    fn stage_accept(&mut self, ctx: &mut RoundCtx<'_>) {
        if self.in_tree {
            return;
        }
        // Deterministic choice among simultaneous invitations: prefer
        // becoming a left child, then the smaller inviter ID (at most one
        // invite of each kind can arrive per level).
        let mut best: Option<(bool, NodeId, u64)> = None;
        for env in ctx.inbox().iter() {
            let is_left = match env.msg.tag {
                tags::INVITE_LEFT => true,
                tags::INVITE_RIGHT => false,
                _ => continue,
            };
            let key = (!is_left, env.src);
            if best.is_none_or(|(l, s, _)| key < (!l, s)) {
                best = Some((is_left, env.src, env.word()));
            }
        }
        if let Some((is_left, src, depth)) = best {
            let side = if is_left { Side::Left } else { Side::Right };
            self.tree.parent = Some(src);
            self.tree.side = Some(side);
            self.tree.depth = depth;
            self.in_tree = true;
            self.in_sp = true;
            self.in_ss = true;
            let side_word = match side {
                Side::Left => 0,
                Side::Right => 1,
            };
            ctx.send(src, WireMsg::word(tags::ACCEPT, side_word));
        }
    }

    /// Consumes acceptances from the previous round.
    fn absorb_accepts(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::ACCEPT) {
            match env.word() {
                0 => self.tree.left = Some(env.src),
                1 => self.tree.right = Some(env.src),
                other => unreachable!("bad accept side word {other}"),
            }
        }
    }
}

impl Rounds for BbstRounds {
    type Out = Arc<Bbst>;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Arc<Bbst>> {
        if t == rounds {
            // Final accept round just delivered.
            if rounds > 0 {
                self.absorb_accepts(ctx);
            }
            debug_assert!(self.in_tree, "node {} never joined the BFS tree", ctx.id());
            return Poll::Ready(Arc::new(self.tree.clone()));
        }
        if t.is_multiple_of(2) {
            // Invite round for level i = levels - 1 - t/2, two rounds a
            // level; first consume the previous level's acceptances.
            if t > 0 {
                self.absorb_accepts(ctx);
            }
            let i = (rounds / 2 - 1 - t / 2) as usize;
            self.stage_invites(i, ctx);
        } else {
            self.stage_accept(ctx);
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contacts::ContactsStep;
    use crate::ctx::UndirectStep;
    use crate::step::{Step, StepProtocol};
    use dgr_ncc::{Config, Network, RunResult};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Undirect, contacts, then Algorithm 1.
    fn build_on(net: &Network) -> RunResult<Arc<Bbst>> {
        net.run_protocol(|_| {
            StepProtocol::new(UndirectStep::new().then(|vp, _| {
                ContactsStep::new(vp).then(move |contacts, _| BbstStep::new(vp, contacts))
            }))
        })
        .unwrap()
    }

    fn build_tree(n: usize, seed: u64) -> RunResult<Arc<Bbst>> {
        build_on(&Network::new(n, Config::ncc0(seed)))
    }

    fn view_of(result: &RunResult<Arc<Bbst>>) -> HashMap<NodeId, &Bbst> {
        let views = result.outputs.iter();
        views.map(|(id, b)| (*id, b.as_ref())).collect()
    }

    /// Recovers the inorder traversal of the tree from the per-node views.
    fn inorder(result: &RunResult<Arc<Bbst>>) -> Vec<NodeId> {
        let view = view_of(result);
        let root = result
            .outputs
            .iter()
            .find(|(_, b)| b.is_root)
            .map(|(id, _)| *id)
            .expect("no root");
        let mut order = Vec::new();
        fn walk(id: NodeId, view: &HashMap<NodeId, &Bbst>, order: &mut Vec<NodeId>) {
            let b = view[&id];
            if let Some(l) = b.left {
                walk(l, view, order);
            }
            order.push(id);
            if let Some(r) = b.right {
                walk(r, view, order);
            }
        }
        walk(root, &view, &mut order);
        order
    }

    fn check(n: usize, seed: u64) {
        let result = build_tree(n, seed);
        assert!(result.metrics.is_clean(), "n={n}: violations");
        // Theorem 1: inorder traversal recovers G_k.
        assert_eq!(inorder(&result), result.gk_order(), "n={n} inorder");
        // Theorem 1: height bound and structural sanity.
        let bound = Bbst::depth_bound(n);
        let mut roots = 0;
        for (_, b) in &result.outputs {
            assert!(b.depth <= bound, "n={n}: depth {} > {bound}", b.depth);
            roots += usize::from(b.is_root);
            if !b.is_root {
                assert!(b.parent.is_some());
            }
        }
        assert_eq!(roots, 1);
        // Parent/child views agree.
        let view = view_of(&result);
        for (id, b) in &result.outputs {
            if let Some(l) = b.left {
                assert_eq!(view[&l].parent, Some(*id));
                assert_eq!(view[&l].side, Some(Side::Left));
                assert_eq!(view[&l].depth, b.depth + 1);
            }
            if let Some(r) = b.right {
                assert_eq!(view[&r].parent, Some(*id));
                assert_eq!(view[&r].side, Some(Side::Right));
            }
        }
    }

    #[test]
    fn theorem1_small_sizes() {
        for n in 1..=17 {
            check(n, 42 + n as u64);
        }
    }

    #[test]
    fn theorem1_medium_sizes() {
        for &n in &[31, 32, 33, 63, 64, 100, 127, 128, 200, 255, 256] {
            check(n, n as u64);
        }
    }

    #[test]
    fn theorem1_round_count_is_logarithmic() {
        let result = build_tree(256, 1);
        // 1 (undirect) + (levels-1) (contacts) + 2*levels (BFS).
        let levels = crate::levels_for(256) as u64;
        assert_eq!(result.metrics.rounds, 1 + (levels - 1) + 2 * levels);
    }

    /// Figure 2 of the paper: the BBST built on the path 1..8 (sequential
    /// IDs along G_k). Expected tree: 1 is the root with right child 5;
    /// 5 has children 3 and 7; 3 has children 2 and 4; 7 has 6 and 8.
    #[test]
    fn fig2_exact_shape() {
        let result = build_on(&Network::new(8, Config::ncc0(0).with_sequential_ids()));
        let view = view_of(&result);
        assert!(view[&1].is_root);
        assert_eq!(view[&1].left, None);
        assert_eq!(view[&1].right, Some(5));
        assert_eq!(view[&5].left, Some(3));
        assert_eq!(view[&5].right, Some(7));
        assert_eq!(view[&3].left, Some(2));
        assert_eq!(view[&3].right, Some(4));
        assert_eq!(view[&7].left, Some(6));
        assert_eq!(view[&7].right, Some(8));
        for leaf in [2, 4, 6, 8] {
            assert_eq!(view[&leaf].child_count(), 0);
        }
        // Height ⌈log 8⌉ + 1 = 4 (i.e. max depth 3).
        assert_eq!(
            result.outputs.iter().map(|(_, b)| b.depth).max().unwrap(),
            3
        );
    }

    #[test]
    fn single_and_pair() {
        let r = build_tree(1, 9);
        assert!(r.outputs[0].1.is_root);
        assert_eq!(r.outputs[0].1.child_count(), 0);
        let r = build_tree(2, 9);
        let order = r.gk_order();
        assert!(r.output_of(order[0]).unwrap().is_root);
        assert_eq!(r.output_of(order[0]).unwrap().right, Some(order[1]));
    }
}
