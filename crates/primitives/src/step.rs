//! The composable sub-protocol layer of the primitive stack.
//!
//! A [`dgr_ncc::NodeProtocol`] is one state machine per node
//! for a *whole run*. The realization algorithms, however, are sequences of
//! primitives (sort, then broadcast, then multicast, …), so writing them
//! wholesale would mean re-writing every primitive inline, per algorithm.
//! Instead each primitive is written once as a [`Step`]: a state machine
//! polled once per round through the same [`RoundCtx`], which signals
//! completion *without consuming the round* — so a composite protocol can
//! poll the next primitive in the very same round, exactly as a function
//! returning to its caller costs no round ([`Step::then`]).
//!
//! ## The polling discipline
//!
//! A step with a (commonly computable) budget of `R` rounds is polled
//! `R + 1` times:
//!
//! * poll `0`: stage the first round's sends; **do not** read the inbox
//!   (it still belongs to the previous step) → [`Poll::Pending`];
//! * poll `k` (`0 < k < R`): consume the round-`k-1` delivery, stage the
//!   round-`k` sends → [`Poll::Pending`];
//! * poll `R`: consume the final delivery, stage **nothing**, return
//!   [`Poll::Ready`] — the caller may immediately poll the next step in
//!   the same `RoundCtx`.
//!
//! A composition therefore spends exactly the sum of its steps' budgets;
//! `crates/primitives/tests/proto_differential.rs` pins every step's
//! transcript, round for round and message for message, on both engines.
//!
//! Every step whose budget is fixed when it is built — or at its first
//! poll, from the network's capacity ([`Lockstep::sized`]) — runs on the
//! one clock that enforces this, [`Lockstep`]: it owns the poll counter and
//! the budget, idles a path non-member through the budget, and hands a
//! member's poll index to the primitive's [`Rounds`], which writes only
//! what a member does. A member still pending when its budget is spent
//! panics with the primitive's name (the engines report it as
//! [`SimError::NodePanic`](dgr_ncc::SimError::NodePanic)); in debug
//! builds, so does one that is ready early — unless the budget is a
//! deadline ([`Lockstep::until`]): a step whose end a message decides may
//! be ready at any poll up to it.

use dgr_ncc::{NodeProtocol, RoundCtx, Status};

/// What a sub-protocol reports after one poll: `Pending`, it staged this
/// round's sends and takes part in the round; `Ready`, it is complete,
/// staged nothing this poll, and the caller owns the rest of the round.
pub use std::task::Poll;

/// A primitive as a pollable state machine (see the module docs for the
/// polling discipline).
pub trait Step: Send {
    /// The primitive's result at this node.
    type Out;

    /// Advances one round: consume `ctx.inbox()` (previous round), stage
    /// this round's sends via `ctx.send`.
    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<Self::Out>;

    /// Chains a second step built from this one's output: `next` runs in
    /// the very round this step completes and the step it returns is
    /// polled at once, so the pair spends exactly the sum of the two
    /// round budgets — sequential composition, as in a closure calling
    /// one primitive after another.
    fn then<B: Step, F>(self, next: F) -> Then<Self, B, F>
    where
        Self: Sized,
        F: FnOnce(Self::Out, &mut RoundCtx<'_>) -> B + Send,
    {
        Then {
            first: Some(self),
            next: Some(next),
            second: None,
        }
    }
}

/// Two steps back to back (see [`Step::then`]).
#[derive(Debug)]
pub struct Then<A, B, F> {
    first: Option<A>,
    next: Option<F>,
    second: Option<B>,
}

impl<A, B, F> Step for Then<A, B, F>
where
    A: Step,
    B: Step,
    F: FnOnce(A::Out, &mut RoundCtx<'_>) -> B + Send,
{
    type Out = B::Out;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<B::Out> {
        if let Some(first) = &mut self.first {
            match first.poll(ctx) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(out) => {
                    self.first = None;
                    let next = self.next.take().expect("second step built twice");
                    self.second = Some(next(out, ctx));
                }
            }
        }
        self.second.as_mut().expect("built above").poll(ctx)
    }
}

/// A primitive's member rounds, run on the [`Lockstep`] clock.
pub trait Rounds: Send {
    /// The primitive's result at this node.
    type Out: Default;

    /// Member poll `t` of a `budget`-round run, as the module docs lay
    /// out: consume round `t - 1`'s delivery when `t > 0`, then stage
    /// round `t`'s sends → [`Poll::Pending`], or at `t == budget` stage
    /// nothing → [`Poll::Ready`].
    fn poll(&mut self, t: u64, budget: u64, ctx: &mut RoundCtx<'_>) -> Poll<Self::Out>;

    /// What a non-member gets once it has idled through the budget.
    fn non_member(&mut self) -> Self::Out {
        Self::Out::default()
    }

    /// The budget of a [`Lockstep::sized`] run, which the network's
    /// capacity fixes: asked once, at the first poll, at a member and a
    /// non-member alike; `None` keeps the budget the run was built with.
    fn budget(&mut self, _ctx: &RoundCtx<'_>) -> Option<u64> {
        None
    }
}

/// The lockstep clock: runs a [`Rounds`] for exactly the budget it was
/// built with, at a member and a non-member alike (see the module docs).
#[derive(Debug)]
pub struct Lockstep<R> {
    pub(crate) inner: R,
    member: bool,
    budget: u64,
    /// Whether `budget` is a deadline the member may be ready before.
    until: bool,
    t: u64,
}

impl<R: Rounds> Lockstep<R> {
    /// Runs `inner` for `budget` rounds: its member rounds where `member`
    /// holds, an idle span elsewhere. Every node of the run passes the
    /// same budget.
    pub fn run(member: bool, budget: u64, inner: R) -> Self {
        Lockstep {
            inner,
            member,
            budget,
            until: false,
            t: 0,
        }
    }

    /// Runs `inner`'s member rounds until it is ready, at poll `deadline`
    /// at the latest: a step whose start a message decides, so that no
    /// budget is common knowledge. Its [`Rounds`] should panic, naming the
    /// message it missed, when the deadline comes before that message.
    pub fn until(deadline: u64, inner: R) -> Self {
        Lockstep {
            until: true,
            ..Lockstep::run(true, deadline, inner)
        }
    }

    /// Runs `inner` for the budget its [`Rounds::budget`] gives at the
    /// first poll: a step whose schedule depends on the network's
    /// capacity, which every node knows once the run is on.
    pub fn sized(member: bool, inner: R) -> Self {
        Lockstep::run(member, 0, inner)
    }
}

impl<R: Rounds> Step for Lockstep<R> {
    type Out = R::Out;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<R::Out> {
        if self.t == 0 {
            self.budget = self.inner.budget(ctx).unwrap_or(self.budget);
        }
        let (t, budget) = (self.t, self.budget);
        let name = std::any::type_name::<R>;
        if !self.member {
            if t == budget {
                return Poll::Ready(self.inner.non_member());
            }
        } else if let Poll::Ready(out) = self.inner.poll(t, budget, ctx) {
            debug_assert!(
                t == budget || self.until,
                "{} ready at poll {t} of {budget}",
                name()
            );
            return Poll::Ready(out);
        } else {
            assert!(t < budget, "{} still pending after {budget} rounds", name());
        }
        self.t += 1;
        Poll::Pending
    }
}

/// Idles through a fixed number of rounds, staging and expecting nothing
/// — a non-member's span of the clock.
pub type Idle = Lockstep<()>;

impl Idle {
    /// An idle step spanning exactly `rounds` rounds.
    pub fn new(rounds: u64) -> Self {
        Lockstep::run(false, rounds, ())
    }
}

impl Rounds for () {
    type Out = ();

    fn poll(&mut self, _: u64, _: u64, _: &mut RoundCtx<'_>) -> Poll<()> {
        unreachable!("an idle step has no member rounds")
    }
}

/// Adapter running a single [`Step`] as a full [`NodeProtocol`]: `Pending`
/// maps to [`Status::Continue`], `Ready` to [`Status::Done`].
#[derive(Debug)]
pub struct StepProtocol<S: Step> {
    inner: S,
}

impl<S: Step> StepProtocol<S> {
    /// Wraps a step for standalone execution.
    pub fn new(inner: S) -> Self {
        StepProtocol { inner }
    }
}

impl<S: Step> NodeProtocol for StepProtocol<S>
where
    S::Out: Send,
{
    type Output = S::Out;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<S::Out> {
        match self.inner.poll(ctx) {
            Poll::Pending => Status::Continue,
            Poll::Ready(out) => Status::Done(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_ncc::{tags, Config, EngineKind, Network, RunResult, SimError, WireMsg};

    /// A test primitive: a member signals its successor every round and
    /// is ready, with its poll index, at poll `.0`.
    #[derive(Debug)]
    struct Beacon(u64);

    impl Rounds for Beacon {
        type Out = u64;

        fn poll(&mut self, t: u64, _: u64, ctx: &mut RoundCtx<'_>) -> Poll<u64> {
            if t == self.0 {
                return Poll::Ready(t);
            }
            if let Some(succ) = ctx.initial_successor() {
                ctx.send(succ, WireMsg::signal(tags::TOKEN));
            }
            Poll::Pending
        }
    }

    /// Runs `Beacon(ready)` on a `budget` at every node of a 4-path; a
    /// failed run gives its node panic's message.
    fn beacons(
        member: bool,
        budget: u64,
        ready: u64,
        e: EngineKind,
    ) -> Result<RunResult<u64>, String> {
        let net = Network::new(4, Config::ncc0(9));
        let run = net.run_protocol_on(e, None, None, |_| {
            StepProtocol::new(Lockstep::run(member, budget, Beacon(ready)))
        });
        run.map_err(|err| match err {
            SimError::NodePanic { message, .. } => message,
            other => panic!("expected a node panic, got {other}"),
        })
    }

    #[test]
    fn a_non_member_idles_its_budget_staging_nothing() {
        let members = beacons(true, 5, 5, EngineKind::Batched).unwrap();
        assert_eq!((members.metrics.rounds, members.metrics.messages), (5, 15));
        assert!(members.outputs.iter().all(|(_, out)| *out == 5));
        let idlers = beacons(false, 5, 5, EngineKind::Batched).unwrap();
        assert_eq!((idlers.metrics.rounds, idlers.metrics.messages), (5, 0));
        assert!(idlers.outputs.iter().all(|(_, out)| *out == 0));
    }

    #[test]
    fn a_member_pending_past_its_budget_is_a_node_panic_on_both_engines() {
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let message = beacons(true, 3, 4, engine).unwrap_err();
            assert!(
                message.contains("Beacon still pending after 3 rounds"),
                "{message}"
            );
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_member_ready_a_round_early_fails_the_debug_check() {
        let message = beacons(true, 3, 2, EngineKind::Batched).unwrap_err();
        assert!(message.contains("Beacon ready at poll 2 of 3"), "{message}");
    }

    #[test]
    fn idle_spans_exact_rounds() {
        let net = Network::new(4, Config::ncc0(1));
        let result = net
            .run_protocol(|_| StepProtocol::new(Idle::new(5)))
            .unwrap();
        assert_eq!(result.metrics.rounds, 5);
        assert_eq!(result.metrics.messages, 0);
    }

    #[test]
    fn zero_round_idle_finishes_immediately() {
        let net = Network::new(2, Config::ncc0(2));
        let result = net
            .run_protocol(|_| StepProtocol::new(Idle::new(0)))
            .unwrap();
        assert_eq!(result.metrics.rounds, 0);
    }

    #[test]
    fn chained_steps_spend_the_sum_of_their_budgets() {
        let net = Network::new(4, Config::ncc0(3));
        let result = net
            .run_protocol(|_| {
                let chain = Idle::new(3).then(|(), _| Idle::new(0).then(|(), _| Idle::new(4)));
                StepProtocol::new(chain)
            })
            .unwrap();
        assert_eq!(result.metrics.rounds, 7);
    }
}
