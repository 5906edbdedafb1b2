//! Pointer doubling ([`contacts`](crate::contacts)) as a step:
//! power-of-two contact tables by pointer doubling on an arbitrary virtual
//! path (the [`PathToClique`](crate::proto::PathToClique) warm-up hardcodes
//! the `G_k` path; this step runs on sorted paths too, which is what the
//! realization drivers need after every re-sort).

use crate::contacts::ContactTable;
use crate::proto::step::{Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// Direction words of the contact-construction messages.
const SET_FWD: u64 = 0;
const SET_BWD: u64 = 1;

/// Pointer-doubling contact construction as a [`Step`]. The finished
/// table is handed out interned (`Arc`) so downstream steps share one
/// copy per node instead of cloning it at every stage transition.
///
/// Rounds: exactly [`contacts::rounds_for`](crate::contacts::rounds_for)`
/// (vp.len)`.
#[derive(Debug)]
pub struct ContactsStep {
    vp: VPath,
    levels: usize,
    /// Polls completed so far (== rounds entered).
    t: u64,
    fwd: Vec<Option<NodeId>>,
    bwd: Vec<Option<NodeId>>,
}

impl ContactsStep {
    /// Builds the step for one node's view of the path.
    pub fn new(vp: VPath) -> Self {
        let levels = vp.levels();
        ContactsStep {
            vp,
            levels,
            t: 0,
            fwd: Vec::with_capacity(levels),
            bwd: Vec::with_capacity(levels),
        }
    }

    /// Stages the level-`k` doubling exchange (`1 <= k < levels`).
    fn send_level(&self, k: usize, ctx: &mut RoundCtx<'_>) {
        if let (Some(b), Some(f)) = (self.bwd[k - 1], self.fwd[k - 1]) {
            ctx.send(b, WireMsg::addr_word(tags::CONTACT, f, SET_FWD));
            ctx.send(f, WireMsg::addr_word(tags::CONTACT, b, SET_BWD));
        }
    }

    /// Consumes one round's CONTACT messages into a new table level.
    fn absorb_level(&mut self, ctx: &RoundCtx<'_>) {
        let mut new_fwd = None;
        let mut new_bwd = None;
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::CONTACT) {
            match env.word() {
                SET_FWD => new_fwd = Some(env.addr()),
                SET_BWD => new_bwd = Some(env.addr()),
                other => unreachable!("bad contact direction word {other}"),
            }
        }
        self.fwd.push(new_fwd);
        self.bwd.push(new_bwd);
    }
}

impl Step for ContactsStep {
    type Out = Arc<ContactTable>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Arc<ContactTable>> {
        let rounds = crate::contacts::rounds_for(self.vp.len);
        if !self.vp.member {
            // Idle in lockstep.
            if self.t == rounds {
                return Poll::Ready(Arc::new(ContactTable::default()));
            }
            self.t += 1;
            return Poll::Pending;
        }
        if self.t == 0 {
            if self.levels == 0 {
                return Poll::Ready(Arc::new(ContactTable::default()));
            }
            self.fwd.push(self.vp.succ);
            self.bwd.push(self.vp.pred);
            if self.levels == 1 {
                return Poll::Ready(Arc::new(ContactTable {
                    fwd: std::mem::take(&mut self.fwd),
                    bwd: std::mem::take(&mut self.bwd),
                }));
            }
            self.send_level(1, ctx);
            self.t = 1;
            return Poll::Pending;
        }
        // Poll t consumes the level-t exchange; levels 1..levels arrive at
        // polls 1..levels-1.
        self.absorb_level(ctx);
        let next = self.t as usize + 1;
        if next < self.levels {
            self.send_level(next, ctx);
            self.t += 1;
            return Poll::Pending;
        }
        Poll::Ready(Arc::new(ContactTable {
            fwd: std::mem::take(&mut self.fwd),
            bwd: std::mem::take(&mut self.bwd),
        }))
    }
}
