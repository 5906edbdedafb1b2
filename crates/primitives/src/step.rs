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

use dgr_ncc::{NodeProtocol, RoundCtx, Status};

/// What a sub-protocol reports after one poll.
#[derive(Debug)]
pub enum Poll<T> {
    /// The step staged this round's sends and participates in the round.
    Pending,
    /// The step is complete. It staged nothing this poll; the caller owns
    /// the rest of the round.
    Ready(T),
}

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

/// Idles through a fixed number of rounds, staging and expecting nothing —
/// what path non-members do to stay in lockstep through primitives they do
/// not participate in.
#[derive(Debug)]
pub struct Idle {
    remaining: u64,
}

impl Idle {
    /// An idle step spanning exactly `rounds` rounds.
    pub fn new(rounds: u64) -> Self {
        Idle { remaining: rounds }
    }
}

impl Step for Idle {
    type Out = ();

    fn poll(&mut self, _ctx: &mut RoundCtx<'_>) -> Poll<()> {
        if self.remaining == 0 {
            return Poll::Ready(());
        }
        self.remaining -= 1;
        Poll::Pending
    }
}

/// A distributive aggregate operator, as data (steps carry the operator in
/// their state, so it must be a plain value). All operators are
/// associative and commutative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Addition.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl AggOp {
    /// Applies the operator.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a + b,
            AggOp::Max => a.max(b),
            AggOp::Min => a.min(b),
        }
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
    use dgr_ncc::{Config, Network};

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

    #[test]
    fn agg_ops_apply() {
        assert_eq!(AggOp::Sum.apply(2, 3), 5);
        assert_eq!(AggOp::Max.apply(2, 3), 3);
        assert_eq!(AggOp::Min.apply(2, 3), 2);
    }
}
