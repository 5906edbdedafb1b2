//! Distributed prefix sums along a virtual path by pointer doubling —
//! the `O(log n)`-round computation behind the tree-realization algorithms
//! (Algorithms 4 and 5 compute prefix sums `p_i` over sorted degrees).
//!
//! The classic parallel-prefix invariant: after step `k`, node at position
//! `r` holds the sum of values at positions `(r - 2^k, r]`. At step `k` each
//! node sends its running sum to the node `2^k` ahead, which adds it.
//! `⌈log n⌉` steps, one message per node per round. A missing partial sum
//! is a lost message, and it panics.

use crate::contacts::ContactTable;
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, RoundCtx, WireEnvelope, WireMsg};
use std::sync::Arc;

/// Number of rounds [`PrefixStep`] takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    crate::levels_for(len) as u64
}

/// The parallel-prefix doubling scan as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type PrefixStep = Lockstep<Prefix>;

/// [`PrefixStep`]'s member rounds.
#[derive(Debug)]
pub struct Prefix {
    contacts: Arc<ContactTable>,
    acc: u64,
    /// What the result leaves out: this node's own value in an exclusive
    /// sum, 0 in an inclusive one.
    own: u64,
}

impl PrefixStep {
    /// Inclusive prefix sum of `value` along the path.
    pub fn new(vp: VPath, contacts: Arc<ContactTable>, value: u64) -> Self {
        let prefix = Prefix {
            contacts,
            acc: value,
            own: 0,
        };
        Lockstep::run(vp.member, rounds_for(vp.len), prefix)
    }

    /// Exclusive prefix sum (sum over strictly earlier positions).
    pub fn exclusive(vp: VPath, contacts: Arc<ContactTable>, value: u64) -> Self {
        let mut step = Self::new(vp, contacts, value);
        step.inner.own = value;
        step
    }
}

impl Rounds for Prefix {
    type Out = u64;

    fn poll(&mut self, t: u64, levels: u64, ctx: &mut RoundCtx<'_>) -> Poll<u64> {
        // Last round's partial sum comes from the node `2^(t-1)` behind,
        // if there is one, once: a duplicate, or a straggler from an
        // earlier level, adds nothing.
        let behind = (t > 0).then(|| self.contacts.behind(t as usize - 1));
        if let Some(from) = behind.flatten() {
            let sent = |e: &&WireEnvelope| e.msg.tag == tags::PREFIX && e.src == from;
            let env = (ctx.inbox().iter().find(sent))
                .expect("message loss: a node missed its contact's partial sum");
            self.acc += env.word();
        }
        if t == levels {
            return Poll::Ready(self.acc - self.own);
        }
        if let Some(target) = self.contacts.ahead(t as usize) {
            ctx.send(target, WireMsg::word(tags::PREFIX, self.acc));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathCtx, WithCtx};
    use dgr_ncc::{Config, EngineKind, Network, RunResult, Scenario, SimError};

    #[test]
    fn inclusive_prefix_sums_are_exact() {
        for &n in &[1usize, 2, 3, 7, 16, 33, 100] {
            let net = Network::new(n, Config::ncc0(31));
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        let v = (ctx.position as u64 % 5) + 1;
                        PrefixStep::new(ctx.vp, ctx.contacts.clone(), v)
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean());
            let mut running = 0;
            for (position, (_, got)) in result.outputs.iter().enumerate() {
                running += (position as u64 % 5) + 1;
                assert_eq!(*got, running, "n={n}");
            }
        }
    }

    #[test]
    fn exclusive_prefix_shifts_by_own_value() {
        let net = Network::new(20, Config::ncc0(32));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                    PrefixStep::exclusive(ctx.vp, ctx.contacts.clone(), ctx.position as u64)
                })
            })
            .unwrap();
        let mut running = 0u64;
        for (i, (_, got)) in result.outputs.iter().enumerate() {
            assert_eq!(*got, running);
            running += i as u64;
        }
    }

    /// A duplicated `PREFIX` adds once: with every message of the run
    /// delivered twice, the inclusive sums are the fault-free ones, on both
    /// engines.
    #[test]
    fn prefix_sums_are_exact_under_full_duplication() {
        let n = 37;
        let scenario = Scenario::new(6).duplicate_messages(0..=u64::MAX, 1.0);
        let config = Config::ncc0(42).with_queueing().with_scenario(scenario);
        let net = Network::new(n, config);
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let result = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        let v = (ctx.position as u64 % 5) + 1;
                        PrefixStep::new(ctx.vp, ctx.contacts.clone(), v)
                    })
                })
                .unwrap();
            assert!(result.engine.faults_duplicated > 0);
            let mut running = 0;
            for (position, (_, got)) in result.outputs.iter().enumerate() {
                running += (position as u64 % 5) + 1;
                assert_eq!(*got, running, "{engine:?} position {position}");
            }
        }
    }

    /// Every partial sum is due in a known round: losing a round of them
    /// is a typed panic at the receivers, on both engines — never a short
    /// sum.
    #[test]
    fn a_lost_partial_sum_panics_its_receiver() {
        let n = 64;
        let round = crate::ctx::rounds_for(n) + 2;
        let scenario = Scenario::new(9).drop_messages(round..=round, 1.0);
        let net = Network::new(n, Config::ncc0(17).with_scenario(scenario));
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run: Result<RunResult<u64>, SimError> =
                net.run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        PrefixStep::new(ctx.vp, ctx.contacts.clone(), 1)
                    })
                });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        assert_eq!(
            messages[0],
            "message loss: a node missed its contact's partial sum"
        );
    }
}
