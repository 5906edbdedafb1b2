//! Interval multicast ([`imcast`](crate::imcast)) as a step: the
//! doubling-cover multicast to a contiguous rank interval adjacent to its
//! source (the Theorem 7 substitute).

use crate::contacts::ContactTable;
use crate::imcast::{CoverSide, Payload};
use crate::proto::step::{Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, RoundCtx, WireMsg};
use std::sync::Arc;

/// One interval-multicast epoch as a [`Step`].
///
/// Rounds: exactly [`imcast::rounds_for`](crate::imcast::rounds_for)`
/// (vp.len)`.
#[derive(Debug)]
pub struct ImcastStep {
    vp: VPath,
    contacts: Arc<ContactTable>,
    t: u64,
    duty: Option<(CoverSide, usize, Payload)>,
    received: Option<Payload>,
}

impl ImcastStep {
    /// Builds the step; `task` is `Some((side, count, payload))` at the
    /// multicast sources (intervals of distinct sources must be disjoint).
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        task: Option<(CoverSide, usize, Payload)>,
    ) -> Self {
        ImcastStep {
            vp,
            contacts,
            t: 0,
            duty: task.filter(|t| t.1 > 0),
            received: None,
        }
    }

    fn absorb(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::IMCAST) {
            debug_assert!(self.received.is_none(), "overlapping multicast intervals");
            let payload = Payload {
                addr: env.addr(),
                word: env.msg.words_slice()[0],
            };
            self.received = Some(payload);
            let delegated = env.msg.words_slice()[1] as usize;
            let side = if env.msg.words_slice()[2] == 0 {
                CoverSide::After
            } else {
                CoverSide::Before
            };
            debug_assert!(self.duty.is_none(), "covered node already had a duty");
            self.duty = (delegated > 0).then_some((side, delegated, payload));
        }
    }
}

impl Step for ImcastStep {
    type Out = Option<Payload>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Option<Payload>> {
        let rounds = crate::imcast::rounds_for(self.vp.len);
        if !self.vp.member {
            if self.t == rounds {
                return Poll::Ready(None);
            }
            self.t += 1;
            return Poll::Pending;
        }
        if self.t > 0 {
            self.absorb(ctx);
        }
        if self.t == rounds {
            debug_assert!(self.duty.is_none(), "multicast round budget too small");
            return Poll::Ready(self.received);
        }
        if let Some((side, count, payload)) = self.duty {
            debug_assert!(count >= 1);
            let k = usize::BITS as usize - 1 - count.leading_zeros() as usize;
            let forward = side == CoverSide::After;
            let target = self
                .contacts
                .at_offset(k, forward)
                .expect("interval multicast ran off the path");
            let delegated = count - (1 << k);
            let side_word = match side {
                CoverSide::After => 0u64,
                CoverSide::Before => 1,
            };
            ctx.send(
                target,
                WireMsg::addr(tags::IMCAST, payload.addr)
                    .with_word(payload.word)
                    .with_word(delegated as u64)
                    .with_word(side_word),
            );
            let keep = (1 << k) - 1;
            self.duty = (keep > 0).then_some((side, keep, payload));
        }
        self.t += 1;
        Poll::Pending
    }
}
