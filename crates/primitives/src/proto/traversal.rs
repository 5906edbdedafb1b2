//! Corollary 2 ([`traversal`](crate::traversal)) as a step:
//! subtree sizes bottom-up, inorder numbers top-down (Corollary 2).

use crate::bbst::{sweep_rounds, Bbst};
use crate::proto::step::{Poll, Step};
use crate::traversal::Traversal;
use crate::vpath::VPath;
use dgr_ncc::{tags, RoundCtx, WireMsg};
use std::sync::Arc;

/// Corollary 2 as a [`Step`].
///
/// Rounds: exactly
/// [`traversal::rounds_for`](crate::traversal::rounds_for)`(vp.len)`.
#[derive(Debug)]
pub struct TraversalStep {
    vp: VPath,
    tree: Arc<Bbst>,
    t: u64,
    out: Traversal,
    have_left: bool,
    have_right: bool,
    sent_up: bool,
    interval_start: Option<usize>,
    sent_down: bool,
}

impl TraversalStep {
    /// Builds the step over an established tree.
    pub fn new(vp: VPath, tree: Arc<Bbst>) -> Self {
        let have_left = tree.left.is_none();
        let have_right = tree.right.is_none();
        let interval_start = tree.is_root.then_some(0);
        TraversalStep {
            vp,
            tree,
            t: 0,
            out: Traversal {
                subtree_size: 1,
                ..Traversal::default()
            },
            have_left,
            have_right,
            sent_up: false,
            interval_start,
            sent_down: false,
        }
    }

    fn absorb(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox() {
            match env.msg.tag {
                tags::SUBTREE_SIZE => {
                    let size = env.word() as usize;
                    if Some(env.src) == self.tree.left {
                        self.out.left_size = size;
                        self.have_left = true;
                    } else if Some(env.src) == self.tree.right {
                        self.out.right_size = size;
                        self.have_right = true;
                    } else {
                        unreachable!("subtree size from non-child");
                    }
                    self.out.subtree_size += size;
                }
                tags::INORDER => {
                    debug_assert_eq!(Some(env.src), self.tree.parent);
                    self.interval_start = Some(env.word() as usize);
                }
                _ => {}
            }
        }
    }
}

impl Step for TraversalStep {
    type Out = Traversal;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Traversal> {
        let up = sweep_rounds(self.vp.len);
        let down = sweep_rounds(self.vp.len);
        if !self.vp.member {
            if self.t == up + down {
                return Poll::Ready(Traversal::default());
            }
            self.t += 1;
            return Poll::Pending;
        }
        if self.t > 0 {
            self.absorb(ctx);
        }
        if self.t == up + down {
            debug_assert!(self.sent_up || self.tree.is_root);
            self.out.position = self
                .interval_start
                .expect("inorder sweep did not reach node")
                + self.out.left_size;
            return Poll::Ready(std::mem::take(&mut self.out));
        }
        if self.t < up {
            // Bottom-up convergecast round.
            let ready = self.have_left && self.have_right;
            if ready && !self.sent_up {
                if let Some(p) = self.tree.parent {
                    ctx.send(
                        p,
                        WireMsg::word(tags::SUBTREE_SIZE, self.out.subtree_size as u64),
                    );
                }
                self.sent_up = true;
            }
        } else {
            // Top-down inorder round.
            if let (Some(lo), false) = (self.interval_start, self.sent_down) {
                if let Some(l) = self.tree.left {
                    ctx.send(l, WireMsg::word(tags::INORDER, lo as u64));
                }
                if let Some(r) = self.tree.right {
                    let r_lo = lo + self.out.left_size + 1;
                    ctx.send(r, WireMsg::word(tags::INORDER, r_lo as u64));
                }
                self.sent_down = true;
            }
        }
        self.t += 1;
        Poll::Pending
    }
}
