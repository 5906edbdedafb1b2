//! Randomly staggered point-to-point delivery — our Las Vegas substitute
//! for the butterfly token collection of Theorem 8 (ARCHITECTURE.md,
//! *Deviations from the paper*).
//!
//! When many nodes must deliver tokens to a common target (the hand-off
//! that turns an implicit realization into an explicit one, Theorem 12),
//! sending them all at once would exceed the target's receive capacity.
//! Instead every sender delays each message by an independent uniform
//! number of rounds in `[0, spread)`; with `spread = Θ(k/cap)` each round
//! carries `O(cap)` expected messages per target, and the receive-side
//! [`Queue`](dgr_ncc::CapacityPolicy::Queue) policy absorbs the whp
//! `O(log n)` overflow. Senders additionally pace themselves to at most
//! `cap` sends per round (deterministic re-queueing), so send capacity is
//! never violated regardless of the random draws.
//!
//! The epoch length `spread + drain` is a deterministic function of
//! commonly known quantities, preserving lockstep; `drain` must cover the
//! worst-case queue drain (`⌈k_max/cap⌉` rounds suffice *unconditionally*,
//! because a target receiving `k` messages drains them in `⌈k/cap⌉`
//! rounds).

use crate::step::{Lockstep, Poll, Rounds};
use dgr_ncc::{NodeId, RoundCtx, WireMsg};
use rand::Rng;

/// Rounds for a staggered epoch with the given parameters.
pub fn rounds_for(spread: u64, drain: u64) -> u64 {
    spread + drain
}

/// Recommended `(spread, drain)` for an epoch where each target receives at
/// most `k_max` tokens, at per-round capacity `cap`:
/// `spread = 2⌈k_max/cap⌉` (keeps expected per-round fan-in at `cap/2`) and
/// `drain = ⌈k_max/cap⌉ + 2` (unconditional worst-case queue drain).
pub fn plan(k_max: usize, cap: usize) -> (u64, u64) {
    let base = (k_max as u64).div_ceil(cap as u64);
    (2 * base + 1, base + 2)
}

/// One staggered epoch as a [`Step`](crate::Step). Returns everything
/// received during the epoch as `(sender, message)` pairs in delivery
/// order (callers filter by tag). The schedule is drawn from the node's
/// own RNG stream, so it is identical on either engine.
///
/// Rounds: exactly [`rounds_for`] of [`plan`]`(k_max, cap)`.
pub type StaggerStep = Lockstep<Stagger>;

/// [`StaggerStep`]'s rounds.
#[derive(Debug)]
pub struct Stagger {
    msg: WireMsg,
    spread: u64,
    /// `(round, target)`: the rounds are drawn on the first poll (where
    /// the RNG lives), then reverse-sorted so the earliest pops last.
    schedule: Vec<(u64, NodeId)>,
    received: Vec<(NodeId, WireMsg)>,
}

impl StaggerStep {
    /// Builds the step: `msg` to each of `targets`, over the epoch that
    /// [`plan`] draws for a fan-in of at most `k_max` messages a target at
    /// per-round capacity `cap`. Every participant of the epoch passes
    /// the same `k_max` and `cap`.
    pub fn new(targets: Vec<NodeId>, msg: WireMsg, k_max: usize, cap: usize) -> Self {
        let (spread, drain) = plan(k_max, cap);
        let stagger = Stagger {
            msg,
            spread: spread.max(1),
            schedule: targets.into_iter().map(|target| (0, target)).collect(),
            received: Vec::new(),
        };
        Lockstep::run(true, rounds_for(spread, drain), stagger)
    }
}

impl Rounds for Stagger {
    type Out = Vec<(NodeId, WireMsg)>;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        if t == 0 {
            // One range sample per target, in target order (the frozen
            // transcripts pin this draw order).
            for (r, _) in &mut self.schedule {
                *r = ctx.rng().gen_range(0..self.spread);
            }
            self.schedule.sort_by_key(|(r, _)| *r);
            self.schedule.reverse(); // pop from the back = earliest first
        } else {
            self.received
                .extend(ctx.inbox().iter().map(|e| (e.src, e.msg)));
        }
        if t == rounds {
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
                Some(&(r, target)) if r <= t => {
                    self.schedule.pop();
                    ctx.send(target, self.msg);
                    staged += 1;
                }
                _ => break,
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepProtocol;
    use dgr_ncc::{tags, Config, Network, WireMsg};

    #[test]
    fn all_tokens_arrive_under_queue_policy() {
        // Everyone sends one token to the head: k = n-1 fan-in.
        let n = 128;
        let mut config = Config::ncc0(71).with_queueing();
        config.track_knowledge = false; // everyone addresses the head
        let net = Network::new(n, config);
        let cap = net.capacity();
        let head = net.ids_in_path_order()[0];
        let result = net
            .run_protocol(|seed| {
                let targets = if seed.id == head { vec![] } else { vec![head] };
                let token = WireMsg::word(tags::TOKEN, seed.id % 1000);
                StepProtocol::new(StaggerStep::new(targets, token, n - 1, cap))
            })
            .unwrap();
        assert_eq!(result.output_of(head).unwrap().len(), n - 1);
        assert_eq!(result.metrics.undelivered, 0);
        // Receive capacity was never exceeded at delivery time.
        assert!(result.metrics.max_received_per_round <= cap);
    }

    #[test]
    fn send_capacity_is_self_paced() {
        // One node sends 10x its capacity worth of messages to distinct
        // targets under the STRICT policy: pacing must keep it legal.
        let n = 64;
        let mut config = Config::ncc0(72);
        config.track_knowledge = false; // sender addresses everyone directly
        let net = Network::new(n, config);
        let cap = net.capacity();
        let head = net.ids_in_path_order()[0];
        let targets: Vec<_> = net.ids_in_path_order()[1..].to_vec();
        let k = targets.len();
        let result = net
            .run_protocol(|seed| {
                let mine = if seed.id == head {
                    targets.clone()
                } else {
                    vec![]
                };
                let token = WireMsg::word(tags::TOKEN, 1);
                StepProtocol::new(StaggerStep::new(mine, token, k, cap))
            })
            .unwrap();
        assert!(result.metrics.max_sent_per_round <= cap);
        let delivered: usize = result.outputs.iter().map(|(_, got)| got.len()).sum();
        assert_eq!(delivered, k);
    }

    #[test]
    fn plan_scales_inversely_with_capacity() {
        let (s1, d1) = plan(1000, 10);
        let (s2, d2) = plan(1000, 20);
        assert!(s2 < s1 && d2 <= d1);
        let (s0, d0) = plan(0, 10);
        assert_eq!((s0, d0), (1, 2));
    }
}
