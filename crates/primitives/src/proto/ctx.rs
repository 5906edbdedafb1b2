//! [`PathCtx`] establishment: the undirect → contacts → BBST → traversal
//! chain as a single [`Step`], so composite protocols (the realization
//! drivers) get the full path context in one stage. Exactly
//! [`ctx::rounds_for`](crate::ctx::rounds_for)`(n)` rounds (or
//! [`rounds_on`](crate::ctx::rounds_on) when starting from an existing
//! path view).

use crate::bbst::Bbst;
use crate::contacts::ContactTable;
use crate::ctx::PathCtx;
use crate::proto::bbst::BbstStep;
use crate::proto::contacts::ContactsStep;
use crate::proto::step::{Poll, Step};
use crate::proto::traversal::TraversalStep;
use crate::vpath::VPath;
use dgr_ncc::{tags, RoundCtx, WireMsg};
use std::sync::Arc;

/// The 1-round undirection of `G_k` (§3.1) as a [`Step`], chainable ahead
/// of the other primitives.
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
/// standalone on the batched engine (tests, benches).
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
    use crate::proto::step::StepProtocol;
    use dgr_ncc::{Config, Network};

    #[test]
    fn batched_establish_matches_the_round_budget() {
        let n = 48;
        let net = Network::new(n, Config::ncc0(21));
        let result = net
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.metrics.rounds, crate::ctx::rounds_for(n));
        for (i, (_, ctx)) in result.outputs.iter().enumerate() {
            assert_eq!(ctx.position, i);
            assert!(ctx.traversal.subtree_size > 0);
        }
    }
}
