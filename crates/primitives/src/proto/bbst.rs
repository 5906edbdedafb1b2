//! Algorithm 1 ([`bbst`](crate::bbst)) as a step: the controlled BFS, two
//! rounds (invite + accept) per doubling level.

use crate::bbst::{Bbst, Side};
use crate::contacts::ContactTable;
use crate::proto::step::{Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// Algorithm 1 as a [`Step`].
///
/// Rounds: exactly [`bbst::rounds_for`](crate::bbst::rounds_for)`(vp.len)`.
#[derive(Debug)]
pub struct BbstStep {
    vp: VPath,
    contacts: Arc<ContactTable>,
    levels: usize,
    /// Polls completed so far; even = invite round, odd = accept round.
    t: u64,
    tree: Bbst,
    in_tree: bool,
    in_sp: bool,
    in_ss: bool,
}

impl BbstStep {
    /// Builds the step. `contacts` must be the contact table of the same
    /// path (the structure `L` of the paper).
    pub fn new(vp: VPath, contacts: Arc<ContactTable>) -> Self {
        let levels = vp.levels();
        let is_root = vp.is_head();
        BbstStep {
            vp,
            contacts,
            levels,
            t: 0,
            tree: Bbst {
                is_root,
                parent: None,
                side: None,
                left: None,
                right: None,
                depth: 0,
                member: true,
            },
            in_tree: is_root,
            in_sp: is_root,
            in_ss: is_root,
        }
    }

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

impl Step for BbstStep {
    type Out = Arc<Bbst>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Arc<Bbst>> {
        let rounds = crate::bbst::rounds_for(self.vp.len);
        if !self.vp.member {
            if self.t == rounds {
                return Poll::Ready(Arc::new(Bbst {
                    is_root: false,
                    parent: None,
                    side: None,
                    left: None,
                    right: None,
                    depth: 0,
                    member: false,
                }));
            }
            self.t += 1;
            return Poll::Pending;
        }
        if self.t == rounds {
            // Final accept round just delivered.
            if rounds > 0 {
                self.absorb_accepts(ctx);
            }
            debug_assert!(self.in_tree, "node {} never joined the BFS tree", ctx.id());
            return Poll::Ready(Arc::new(self.tree.clone()));
        }
        if self.t.is_multiple_of(2) {
            // Invite round for level i = levels - 1 - t/2; first consume the
            // previous level's acceptances.
            if self.t > 0 {
                self.absorb_accepts(ctx);
            }
            let i = self.levels - 1 - (self.t as usize) / 2;
            self.stage_invites(i, ctx);
        } else {
            self.stage_accept(ctx);
        }
        self.t += 1;
        Poll::Pending
    }
}
