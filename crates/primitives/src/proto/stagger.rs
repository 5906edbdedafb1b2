//! Randomly staggered point-to-point delivery ([`stagger`](crate::stagger),
//! the Las Vegas Theorem 8 substitute) as a step. The schedule is drawn
//! from the node's own RNG stream, so it is identical on either engine.

use crate::proto::step::{Poll, Step};
use dgr_ncc::{NodeId, RoundCtx, WireMsg};
use rand::Rng;

/// One staggered epoch as a [`Step`]. Returns everything received during
/// the epoch as `(sender, message)` pairs in delivery order (callers
/// filter by tag).
///
/// Rounds: exactly [`stagger::rounds_for`](crate::stagger::rounds_for)`
/// (spread, drain)`.
#[derive(Debug)]
pub struct StaggerStep {
    /// Sends not yet scheduled (drawn on the first poll, where the RNG
    /// lives).
    sends: Vec<(NodeId, WireMsg)>,
    /// `(round, target, msg)`, reverse-sorted so the earliest pops last.
    schedule: Vec<(u64, NodeId, WireMsg)>,
    spread: u64,
    drain: u64,
    t: u64,
    received: Vec<(NodeId, WireMsg)>,
}

impl StaggerStep {
    /// Builds the step. All participants of the epoch must use the same
    /// `spread` and `drain` (see [`stagger::plan`](crate::stagger::plan)).
    pub fn new(sends: Vec<(NodeId, WireMsg)>, spread: u64, drain: u64) -> Self {
        StaggerStep {
            schedule: Vec::with_capacity(sends.len()),
            sends,
            spread,
            drain,
            t: 0,
            received: Vec::new(),
        }
    }
}

impl Step for StaggerStep {
    type Out = Vec<(NodeId, WireMsg)>;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Vec<(NodeId, WireMsg)>> {
        let rounds = crate::stagger::rounds_for(self.spread, self.drain);
        if self.t == 0 {
            // One range sample per send, in send order (the frozen
            // transcripts pin this draw order).
            let spread = self.spread.max(1);
            for (target, msg) in self.sends.drain(..) {
                let r = ctx.rng().gen_range(0..spread);
                self.schedule.push((r, target, msg));
            }
            self.schedule.sort_by_key(|(r, ..)| *r);
            self.schedule.reverse(); // pop from the back = earliest first
        } else {
            self.received
                .extend(ctx.inbox().iter().map(|e| (e.src, e.msg)));
        }
        if self.t == rounds {
            debug_assert!(
                self.schedule.is_empty(),
                "staggered epoch too short to send everything"
            );
            return Poll::Ready(std::mem::take(&mut self.received));
        }
        let cap = ctx.capacity();
        let mut staged = 0;
        while staged < cap {
            match self.schedule.last() {
                Some((r, ..)) if *r <= self.t => {
                    let (_, target, msg) = self.schedule.pop().unwrap();
                    ctx.send(target, msg);
                    staged += 1;
                }
                _ => break,
            }
        }
        self.t += 1;
        Poll::Pending
    }
}
