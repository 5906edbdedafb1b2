//! Tree traversal computations on the BBST: subtree sizes (bottom-up
//! convergecast) and inorder numbers (top-down), giving every node its
//! *position* on the path — Corollary 2 of the paper.
//!
//! Both phases are event-driven inside a fixed round budget derived from the
//! Theorem-1 height bound, so the whole computation takes `O(log n)` rounds
//! and at most two messages per node per round.

use crate::bbst::{sweep_rounds, Bbst};
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, RoundCtx, WireMsg};
use std::sync::Arc;

/// A node's traversal-derived data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Traversal {
    /// This node's position on the path (inorder number), 0-based.
    pub position: usize,
    /// Size of this node's subtree (including itself).
    pub subtree_size: usize,
    /// Size of the left child's subtree (0 if none).
    pub left_size: usize,
    /// Size of the right child's subtree (0 if none).
    pub right_size: usize,
}

/// Number of rounds [`TraversalStep`] takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    2 * sweep_rounds(len)
}

/// Corollary 2 as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type TraversalStep = Lockstep<TraversalRounds>;

/// [`TraversalStep`]'s member rounds: the up sweep, then the down sweep.
#[derive(Debug)]
pub struct TraversalRounds {
    tree: Arc<Bbst>,
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
        let traversal = TraversalRounds {
            have_left: tree.left.is_none(),
            have_right: tree.right.is_none(),
            interval_start: tree.is_root.then_some(0),
            tree,
            out: Traversal {
                subtree_size: 1,
                ..Traversal::default()
            },
            sent_up: false,
            sent_down: false,
        };
        Lockstep::run(vp.member, rounds_for(vp.len), traversal)
    }
}

impl TraversalRounds {
    fn absorb(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox() {
            match env.msg.tag {
                tags::SUBTREE_SIZE => {
                    let size = env.word() as usize;
                    let (have, side) = if Some(env.src) == self.tree.left {
                        (&mut self.have_left, &mut self.out.left_size)
                    } else if Some(env.src) == self.tree.right {
                        (&mut self.have_right, &mut self.out.right_size)
                    } else {
                        unreachable!("subtree size from non-child");
                    };
                    // A child's size folds once: a duplicate adds nothing.
                    if !std::mem::replace(have, true) {
                        *side = size;
                        self.out.subtree_size += size;
                    }
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

impl Rounds for TraversalRounds {
    type Out = Traversal;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Traversal> {
        if t > 0 {
            self.absorb(ctx);
        }
        if t == rounds {
            debug_assert!(self.sent_up || self.tree.is_root);
            self.out.position = self
                .interval_start
                .expect("inorder sweep did not reach node")
                + self.out.left_size;
            return Poll::Ready(std::mem::take(&mut self.out));
        }
        if t < rounds / 2 {
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
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstablishCtx, Step, StepProtocol};
    use dgr_ncc::{Config, EngineKind, Network, Scenario};

    /// The traversal the context establishment ends with.
    fn check(n: usize, seed: u64) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .unwrap();
        assert!(result.metrics.is_clean(), "n={n}");
        // Corollary 2: every node knows its exact path position.
        for (i, (_, ctx)) in result.outputs.iter().enumerate() {
            assert_eq!(ctx.traversal.position, i, "n={n}: wrong position");
        }
        // Subtree sizes partition correctly.
        for (_, ctx) in &result.outputs {
            let t = &ctx.traversal;
            assert_eq!(t.subtree_size, t.left_size + t.right_size + 1);
        }
    }

    #[test]
    fn positions_are_exact() {
        for &n in &[1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64, 100, 129] {
            check(n, n as u64 * 7 + 1);
        }
    }

    /// A duplicated `SUBTREE_SIZE` folds once: with every message of the
    /// run delivered twice, the establishment hands every node its
    /// fault-free traversal, on both engines.
    #[test]
    fn positions_are_exact_under_full_duplication() {
        let n = 37;
        let clean = Network::new(n, Config::ncc0(41))
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .unwrap();
        let scenario = Scenario::new(5).duplicate_messages(0..=u64::MAX, 1.0);
        let config = Config::ncc0(41).with_queueing().with_scenario(scenario);
        let net = Network::new(n, config);
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let result = net
                .run_protocol_on(engine, None, None, |_| {
                    StepProtocol::new(EstablishCtx::new())
                })
                .unwrap();
            assert!(result.engine.faults_duplicated > 0);
            for (i, ((_, got), (_, want))) in result.outputs.iter().zip(&clean.outputs).enumerate()
            {
                assert_eq!(got.traversal.position, i, "{engine:?}");
                assert_eq!(got.traversal, want.traversal, "{engine:?} position {i}");
            }
        }
    }

    #[test]
    fn corollary2_round_count_is_logarithmic() {
        // Rounds for the position computation alone — the establishment
        // with and without its final traversal stage — must match the
        // deterministic schedule and be O(log n).
        use crate::bbst::BbstStep;
        use crate::contacts::ContactsStep;
        use crate::ctx::UndirectStep;
        let n = 512;
        let net = Network::new(n, Config::ncc0(3));
        let with = net
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .unwrap();
        let without = net
            .run_protocol(|_| {
                StepProtocol::new(UndirectStep::new().then(|vp, _| {
                    ContactsStep::new(vp).then(move |contacts, _| BbstStep::new(vp, contacts))
                }))
            })
            .unwrap();
        let expected = rounds_for(n);
        assert_eq!(with.metrics.rounds - without.metrics.rounds, expected);
        assert_eq!(expected, 2 * (crate::levels_for(n) as u64 + 2));
    }
}
