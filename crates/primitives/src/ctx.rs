//! [`PathCtx`]: the bundle of structures every algorithm establishes on a
//! path before doing real work — contact table, BBST and positions.
//!
//! [`EstablishCtx`] establishes it: the chain undirect → contacts → BBST →
//! traversal as a single [`Step`], so composite protocols (the realization
//! drivers) get the full path context in one stage.

use crate::bbst::{self, Bbst, BbstStep};
use crate::contacts::{self, ContactTable, ContactsStep};
use crate::step::{Poll, Step};
use crate::traversal::{self, Traversal, TraversalStep};
use crate::vpath::VPath;
use dgr_ncc::{tags, RoundCtx, WireMsg};
use std::sync::Arc;

/// Everything a node knows about one virtual path after the standard
/// `O(log n)`-round setup: the path view itself, its power-of-two contacts,
/// the balanced binary search tree, and its exact position.
///
/// The heap-backed structures — the contact table and the tree — are
/// **interned** behind `Arc`s: they are built exactly once per
/// establishment and every consumer (the sort network, the interval
/// multicast, the global aggregations, each phase of a realization
/// driver) holds a reference-counted handle instead of a deep copy. A
/// composite stage machine's transition therefore moves two pointers, not
/// kilobytes of table — the memory discipline that carries the batched
/// drivers from 2·10⁵ to 10⁶ nodes. The scalar members ([`VPath`],
/// [`Traversal`], the position) stay plain `Copy` data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathCtx {
    /// The path view this context was built on.
    pub vp: VPath,
    /// Power-of-two contacts along the path (interned; clone = handle).
    pub contacts: Arc<ContactTable>,
    /// The balanced binary search tree (Algorithm 1; interned).
    pub tree: Arc<Bbst>,
    /// This node's position on the path (inorder number, Corollary 2).
    pub position: usize,
    /// Full traversal data (subtree sizes).
    pub traversal: Traversal,
}

/// Rounds for [`EstablishCtx::on`] — the context on an already-linked
/// virtual path of `len` nodes.
pub fn rounds_on(len: usize) -> u64 {
    contacts::rounds_for(len) + bbst::rounds_for(len) + traversal::rounds_for(len)
}

/// Rounds for [`EstablishCtx::new`] — the context on `G_k` (includes the
/// 1-round undirection).
pub fn rounds_for(len: usize) -> u64 {
    1 + rounds_on(len)
}

/// The 1-round undirection of `G_k` (§3.1) as a [`Step`], chainable ahead
/// of the other primitives: every node signals its successor, so each
/// node learns its predecessor; the node that hears nothing is the head.
#[derive(Debug)]
pub struct UndirectStep {
    sent: bool,
}

impl UndirectStep {
    /// Builds the step.
    pub fn new() -> Self {
        UndirectStep { sent: false }
    }
}

impl Default for UndirectStep {
    fn default() -> Self {
        Self::new()
    }
}

impl Step for UndirectStep {
    type Out = VPath;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<VPath> {
        if !self.sent {
            if let Some(succ) = ctx.initial_successor() {
                ctx.send(succ, WireMsg::signal(tags::UNDIRECT));
            }
            self.sent = true;
            return Poll::Pending;
        }
        let pred = ctx
            .inbox()
            .iter()
            .find(|env| env.msg.tag == tags::UNDIRECT)
            .map(|env| env.src);
        Poll::Ready(VPath {
            member: true,
            pred,
            succ: ctx.initial_successor(),
            // The G_k path spans the *participating* nodes — on a masked
            // sub-network run that is fewer than n, and every round budget
            // downstream keys off this length.
            len: ctx.participants(),
        })
    }
}

enum Stage {
    Undirect(UndirectStep),
    Contacts(ContactsStep),
    Bbst(BbstStep),
    Traversal(TraversalStep),
}

/// The full `O(log n)`-round context establishment as one chainable
/// [`Step`] producing a [`PathCtx`]. The contact table and the tree are
/// built once and passed on as interned `Arc` handles — every stage
/// transition here (and in the composite drivers downstream) moves
/// pointers, never tables.
pub struct EstablishCtx {
    stage: Stage,
    vp: VPath,
    contacts: Option<Arc<ContactTable>>,
    tree: Option<Arc<Bbst>>,
}

impl EstablishCtx {
    /// Establishes the context on the physical knowledge path `G_k`
    /// (undirection first).
    pub fn new() -> Self {
        EstablishCtx {
            stage: Stage::Undirect(UndirectStep::new()),
            // Placeholder until undirection completes.
            vp: VPath::non_member(0),
            contacts: None,
            tree: None,
        }
    }

    /// Establishes the context on an already-linked virtual path (e.g. a
    /// sorted path). Non-members idle in lockstep.
    pub fn on(vp: VPath) -> Self {
        EstablishCtx {
            stage: Stage::Contacts(ContactsStep::new(vp)),
            vp,
            contacts: None,
            tree: None,
        }
    }
}

impl Default for EstablishCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl Step for EstablishCtx {
    type Out = PathCtx;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<PathCtx> {
        loop {
            match &mut self.stage {
                Stage::Undirect(s) => match s.poll(ctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(vp) => {
                        self.vp = vp;
                        self.stage = Stage::Contacts(ContactsStep::new(vp));
                    }
                },
                Stage::Contacts(s) => match s.poll(ctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(table) => {
                        self.contacts = Some(table.clone());
                        self.stage = Stage::Bbst(BbstStep::new(self.vp, table));
                    }
                },
                Stage::Bbst(s) => match s.poll(ctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(tree) => {
                        self.tree = Some(tree.clone());
                        self.stage = Stage::Traversal(TraversalStep::new(self.vp, tree));
                    }
                },
                Stage::Traversal(s) => match s.poll(ctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(traversal) => {
                        return Poll::Ready(PathCtx {
                            position: traversal.position,
                            vp: std::mem::replace(&mut self.vp, VPath::non_member(0)),
                            contacts: self.contacts.take().expect("contacts stage skipped"),
                            tree: self.tree.take().expect("tree stage skipped"),
                            traversal,
                        });
                    }
                },
            }
        }
    }
}

/// A whole-run protocol that establishes the [`PathCtx`] and then runs one
/// more [`Step`] built from it: `make(&ctx, round_ctx)` is called in the
/// very round the establishment completes — so the total round count is
/// the sum of the two budgets. The work-horse for running a single primitive
/// standalone (tests, benches), and the whole of the degree-realization
/// protocol (establishment, then `DegreesCore`).
pub struct WithCtx<S: Step, F> {
    establish: EstablishCtx,
    make: Option<F>,
    stage: Option<S>,
}

impl<S: Step, F> WithCtx<S, F> {
    /// Builds the protocol; `make` constructs the second stage from the
    /// established context.
    pub fn new(make: F) -> Self {
        WithCtx {
            establish: EstablishCtx::new(),
            make: Some(make),
            stage: None,
        }
    }
}

impl<S, F> dgr_ncc::NodeProtocol for WithCtx<S, F>
where
    S: Step,
    S::Out: Send,
    F: FnOnce(&PathCtx, &mut RoundCtx<'_>) -> S + Send,
{
    type Output = S::Out;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> dgr_ncc::Status<S::Out> {
        loop {
            if let Some(stage) = &mut self.stage {
                return match stage.poll(rctx) {
                    Poll::Pending => dgr_ncc::Status::Continue,
                    Poll::Ready(out) => dgr_ncc::Status::Done(out),
                };
            }
            match self.establish.poll(rctx) {
                Poll::Pending => return dgr_ncc::Status::Continue,
                Poll::Ready(ctx) => {
                    let make = self.make.take().expect("stage built twice");
                    // The context is dropped here: the stage keeps what it
                    // needs, so the per-node tables do not outlive setup.
                    self.stage = Some(make(&ctx, rctx));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepProtocol;
    use dgr_ncc::{Config, EngineKind, Network, RunResult, SimError};

    /// The undirection alone, optionally masked, on the chosen engine.
    fn undirect(
        net: &Network,
        engine: EngineKind,
        mask: Option<&[bool]>,
    ) -> Result<RunResult<VPath>, SimError> {
        net.run_protocol_on(engine, mask, None, |_| {
            StepProtocol::new(UndirectStep::new())
        })
    }

    #[test]
    fn establish_is_o_log_n_rounds() {
        // The total setup cost grows logarithmically: quadrupling n adds
        // only a constant number of levels' worth of rounds.
        let r1 = rounds_for(64);
        let r2 = rounds_for(256);
        assert!(r2 > r1);
        assert!(r2 - r1 <= 14, "setup rounds grew too fast: {r1} -> {r2}");
    }

    #[test]
    fn batched_establish_matches_the_round_budget() {
        let n = 48;
        let net = Network::new(n, Config::ncc0(21));
        let result = net
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.metrics.rounds, rounds_for(n));
        for (i, (_, ctx)) in result.outputs.iter().enumerate() {
            assert_eq!(ctx.position, i);
            assert!(ctx.traversal.subtree_size > 0);
        }
    }

    #[test]
    fn undirect_reconstructs_the_path_batched() {
        let net = Network::new(100, Config::ncc0(5));
        let result = undirect(&net, EngineKind::Batched, None).unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.metrics.rounds, 1);
        let order = result.gk_order();
        for (i, (_, vp)) in result.outputs.iter().enumerate() {
            assert!(vp.member);
            assert_eq!(vp.len, 100);
            assert_eq!(vp.pred, if i == 0 { None } else { Some(order[i - 1]) });
            assert_eq!(vp.succ, order.get(i + 1).copied(),);
        }
    }

    #[test]
    fn batched_and_reference_agree() {
        let net = Network::new(64, Config::ncc0(9));
        let a = undirect(&net, EngineKind::Batched, None).unwrap();
        let b = undirect(&net, EngineKind::Reference, None).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn masked_run_links_across_dead_nodes() {
        let net = Network::new(10, Config::ncc0(7));
        // Odd path positions are filtered out of the network.
        let mask: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let result = undirect(&net, EngineKind::Batched, Some(&mask)).unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.outputs.len(), 5);
        let order = result.gk_order();
        let full: Vec<_> = net.ids_in_path_order().to_vec();
        // Participants are the even positions, in path order.
        let expected: Vec<_> = (0..10).step_by(2).map(|i| full[i]).collect();
        assert_eq!(order, expected);
        // The filtered path is seamless: pred/succ skip dead nodes.
        for (i, (_, vp)) in result.outputs.iter().enumerate() {
            assert_eq!(vp.pred, if i == 0 { None } else { Some(order[i - 1]) });
            assert_eq!(vp.succ, order.get(i + 1).copied());
        }
    }
}
