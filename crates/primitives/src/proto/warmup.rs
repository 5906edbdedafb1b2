//! The warm-up balanced binary tree of §3.1.1 (Figure 1) as a [`Step`]:
//! two rounds per recursion level — a grand-neighbor exchange on every
//! live path, then each path head adopting its neighbor and its
//! grand-successor and leaving.

use crate::proto::step::{Poll, Step};
use crate::vpath::VPath;
use crate::warmup::{levels, rounds_for, WarmupTree};
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};

/// Which neighbor a [`tags::LEVEL_LINK`] message introduces.
const GRAND_PRED: u64 = 0;
const GRAND_SUCC: u64 = 1;

/// Figure 1's recursive construction on a virtual path. Non-members idle
/// in lockstep.
///
/// Rounds: exactly [`warmup::rounds_for`](crate::warmup::rounds_for)`
/// (vp.len)`.
#[derive(Debug)]
pub struct WarmupStep {
    vp: VPath,
    /// Polls completed so far; even = exchange round, odd = adopt round.
    t: u64,
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
        WarmupStep {
            tree: WarmupTree {
                is_root: vp.is_head(),
                ..WarmupTree::default()
            },
            pred: vp.pred,
            succ: vp.succ,
            grand_pred: None,
            grand_succ: None,
            removed: false,
            t: 0,
            vp,
        }
    }

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

impl Step for WarmupStep {
    type Out = WarmupTree;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<WarmupTree> {
        let rounds = rounds_for(self.vp.len);
        if !self.vp.member {
            if self.t == rounds {
                return Poll::Ready(WarmupTree::default());
            }
            self.t += 1;
            return Poll::Pending;
        }
        // Poll t consumes round t-1: odd polls follow an exchange round,
        // even polls (past the first) an adopt round.
        if self.t % 2 == 1 {
            self.absorb_links(ctx);
        } else if self.t > 0 {
            self.absorb_adoption(ctx);
        }
        if self.t == rounds {
            debug_assert!(self.removed, "node {} never became a path head", ctx.id());
            return Poll::Ready(std::mem::take(&mut self.tree));
        }
        debug_assert!(self.t / 2 < levels(self.vp.len));
        // A node that has left its path idles through the remaining levels.
        if !self.removed && self.t.is_multiple_of(2) {
            // Tell my successor who my predecessor is and vice versa.
            if let (Some(p), Some(s)) = (self.pred, self.succ) {
                ctx.send(s, WireMsg::addr_word(tags::LEVEL_LINK, p, GRAND_PRED));
                ctx.send(p, WireMsg::addr_word(tags::LEVEL_LINK, s, GRAND_SUCC));
            }
        } else if !self.removed && self.pred.is_none() {
            // A path head adopts its neighbor `a` as left child and `a`'s
            // other neighbor `b` as right child, then leaves.
            let level = self.t / 2;
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
        self.t += 1;
        Poll::Pending
    }
}
