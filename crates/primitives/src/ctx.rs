//! [`PathCtx`]: what every algorithm establishes on a path before doing
//! real work — the contact table and this node's position.
//!
//! [`EstablishCtx`] establishes it as a single [`Step`]: the undirection,
//! then the contact doubling with a **rank lane** beside it, so composite
//! protocols (the realization drivers) get the full path context in one
//! stage. The paper builds a balanced binary search tree on the path
//! (Theorem 1) and walks it for the positions (Corollary 2); the contacts
//! alone are enough (ARCHITECTURE.md, *Deviations from the paper*).
//!
//! The rank lane is Wyllie's list ranking on the doubling's own links.
//! Before level `k` a node knows `c_k = min(pos, 2^k)`, the number of
//! nodes behind it capped at `2^k` (`c_0` needs no message: only the head
//! sends at level 0, and its count is 0). At level `k` a node without a
//! `2^k`-behind contact has `pos < 2^k`, so `c_k` is its exact position,
//! and it sends it to its `2^k`-ahead contact — exactly the `SET_BWD`
//! message the doubling skips at such a node. Every node that has a
//! `2^k`-behind contact `b` hears from `b` once at level `k`: a count `c`
//! (then `c_{k+1} = 2^k + c`), or `b`'s `SET_BWD` (then `b` itself has
//! `2^k` nodes behind it, and `c_{k+1} = 2^(k+1)`). After the last table
//! level one more round of counts gives `c = pos`, since `pos < len ≤
//! 2^⌈log₂ len⌉`: `⌈log₂ len⌉` rounds in all, at most `len - 1` messages
//! beside the doubling's. A missing count is a lost message, and it
//! panics.

use crate::contacts::{ContactTable, Contacts, SET_BWD};
use crate::step::{Lockstep, Poll, Rounds, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, RoundCtx, WireMsg};
use std::sync::Arc;

/// Everything a node knows about one virtual path after the standard
/// `O(log n)`-round setup: the path view itself, its power-of-two
/// contacts and its exact position.
///
/// The contact table is **interned** behind an `Arc`: it is built exactly
/// once per establishment and every consumer (the sort network, the
/// interval multicast, the sweeps, each phase of a realization driver)
/// holds a reference-counted handle instead of a deep copy. A composite
/// stage machine's transition therefore moves a pointer, not kilobytes of
/// table — the memory discipline that carries the batched drivers from
/// 2·10⁵ to 10⁶ nodes. The scalar members ([`VPath`], the position) stay
/// plain `Copy` data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathCtx {
    /// The path view this context was built on.
    pub vp: VPath,
    /// Power-of-two contacts along the path (interned; clone = handle).
    pub contacts: Arc<ContactTable>,
    /// This node's position on the path, 0 at the head.
    pub position: usize,
}

/// Rounds for [`EstablishCtx::on`] — the context on an already-linked
/// virtual path of `len` nodes: the contact doubling's
/// [`contacts::rounds_for`](crate::contacts::rounds_for) and one round of
/// counts past it, `⌈log₂ len⌉` (0 for a single node).
pub fn rounds_on(len: usize) -> u64 {
    crate::levels_for(len) as u64
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

/// The contact doubling with the rank lane beside it (see the module
/// docs) on an already-linked path. Rounds: exactly [`rounds_on`].
type PositionsStep = Lockstep<Positions>;

/// [`PositionsStep`]'s member rounds.
#[derive(Debug)]
struct Positions {
    vp: VPath,
    contacts: Contacts,
    /// `c_t` at poll `t`: the nodes behind this one, capped at `2^t`.
    count: usize,
}

impl Positions {
    fn step(vp: VPath) -> PositionsStep {
        let positions = Positions {
            vp,
            contacts: Contacts::new(vp),
            count: 0,
        };
        Lockstep::run(vp.member, rounds_on(vp.len), positions)
    }

    /// Consumes level `k`'s count: the one message from the contact `2^k`
    /// behind, if there is one.
    fn absorb_count(&mut self, k: usize, ctx: &RoundCtx<'_>) {
        let Some(behind) = self.contacts.level(k).1 else {
            return;
        };
        let env = ctx
            .inbox()
            .iter()
            .find(|e| {
                e.src == behind
                    && (e.msg.tag == tags::RANK
                        || e.msg.tag == tags::CONTACT && e.word() == SET_BWD)
            })
            .expect("message loss: a node missed the count of its contact behind");
        let theirs = if env.msg.tag == tags::RANK {
            env.word() as usize
        } else {
            1 << k
        };
        self.count = (1 << k) + theirs;
    }
}

impl Rounds for Positions {
    type Out = PathCtx;

    fn poll(&mut self, t: u64, budget: u64, ctx: &mut RoundCtx<'_>) -> Poll<PathCtx> {
        let k = t as usize;
        if t < budget {
            self.contacts.learn_level(t, ctx);
        }
        if t > 0 {
            self.absorb_count(k - 1, ctx);
        }
        if t == budget {
            return Poll::Ready(PathCtx {
                vp: self.vp,
                contacts: self.contacts.take_table(),
                position: self.count,
            });
        }
        // The doubling's own exchange, unchanged, then the count where
        // the doubling skips its `SET_BWD`.
        if k + 1 < self.vp.levels() {
            self.contacts.send_level(k + 1, ctx);
        }
        if let (Some(ahead), None) = self.contacts.level(k) {
            ctx.send(ahead, WireMsg::word(tags::RANK, self.count as u64));
        }
        Poll::Pending
    }

    fn non_member(&mut self) -> PathCtx {
        PathCtx {
            vp: self.vp,
            ..PathCtx::default()
        }
    }
}

/// The `O(log n)`-round context establishment as one chainable [`Step`]
/// producing a [`PathCtx`]: the undirection (on `G_k`), then the contact
/// doubling with its rank lane. The contact table is built once and
/// handed on as an interned `Arc`.
pub struct EstablishCtx {
    undirect: Option<UndirectStep>,
    positions: Option<PositionsStep>,
}

impl EstablishCtx {
    /// Establishes the context on the physical knowledge path `G_k`
    /// (undirection first).
    pub fn new() -> Self {
        EstablishCtx {
            undirect: Some(UndirectStep::new()),
            positions: None,
        }
    }

    /// Establishes the context on an already-linked virtual path (e.g. a
    /// sorted path). Non-members idle in lockstep.
    pub fn on(vp: VPath) -> Self {
        EstablishCtx {
            undirect: None,
            positions: Some(Positions::step(vp)),
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
        if let Some(undirect) = &mut self.undirect {
            let Poll::Ready(vp) = undirect.poll(ctx) else {
                return Poll::Pending;
            };
            self.undirect = None;
            self.positions = Some(Positions::step(vp));
        }
        let positions = self.positions.as_mut().expect("built above");
        positions.poll(ctx)
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
    use crate::contacts::ContactsStep;
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
        // The undirection, then one round per doubling level.
        assert_eq!(rounds_for(1), 1);
        assert_eq!(rounds_for(2), 2);
        assert_eq!(rounds_for(64), 7);
        assert_eq!(rounds_for(2048), 12);
    }

    /// The establishment, optionally masked, on the chosen engine, strict
    /// at capacity factor 0.1 (the floor, 4).
    fn establish(n: usize, engine: EngineKind, mask: Option<&[bool]>) -> RunResult<PathCtx> {
        let net = Network::new(n, Config::ncc0(n as u64).with_capacity_factor(0.1));
        let result = net
            .run_protocol_on(engine, mask, None, |_| {
                StepProtocol::new(EstablishCtx::new())
            })
            .unwrap();
        let m = &result.metrics;
        assert!(m.is_clean(), "n={n} {engine:?}: {:?}", m.violations);
        assert_eq!(m.capacity, 4, "n={n}");
        result
    }

    /// Every node learns its exact position at every path length from 1
    /// to 300, on both engines, in the budgeted rounds; the count messages
    /// are at most `len - 1` beside the doubling's.
    #[test]
    fn positions_equal_path_order_at_every_length() {
        for n in 1..=300 {
            let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                let result = establish(n, engine, None);
                assert_eq!(result.metrics.rounds, rounds_for(n), "n={n}");
                for (x, (_, ctx)) in result.outputs.iter().enumerate() {
                    assert_eq!(ctx.position, x, "n={n} {engine:?}");
                    assert_eq!(ctx.contacts.fwd.len(), crate::levels_for(n));
                }
                result
            });
            assert_eq!(runs[0].outputs, runs[1].outputs, "n={n}");
            assert_eq!(runs[0].metrics, runs[1].metrics, "n={n}");
            let net = Network::new(n, Config::ncc0(n as u64));
            let doubling = net
                .run_protocol(|_| {
                    StepProtocol::new(UndirectStep::new().then(|vp, _| ContactsStep::new(vp)))
                })
                .unwrap();
            let counts = runs[0].metrics.messages - doubling.metrics.messages;
            assert!(counts < n.max(1) as u64, "n={n}: {counts} counts");
        }
    }

    /// On a masked run the positions are the participants' ranks along
    /// the knowledge path.
    #[test]
    fn positions_skip_masked_out_nodes() {
        let n = 90;
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let result = establish(n, engine, Some(&mask));
            assert_eq!(result.outputs.len(), 60);
            assert_eq!(result.metrics.rounds, rounds_for(60));
            for (x, (_, ctx)) in result.outputs.iter().enumerate() {
                assert_eq!((ctx.position, ctx.vp.len), (x, 60), "{engine:?}");
            }
        }
    }

    /// Losing the round of counts past the doubling leaves every node
    /// with a contact `2^5` behind without its count: a typed panic,
    /// the same on both engines — never a wrong position.
    #[test]
    fn a_lost_rank_panics_its_receiver() {
        use dgr_ncc::Scenario;
        let n = 64;
        let last = rounds_for(n) - 1;
        let lost = Scenario::new(5).drop_messages(last..=last, 1.0);
        let net = Network::new(n, Config::ncc0(3).with_scenario(lost));
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run = net.run_protocol_on(engine, None, None, |_| {
                StepProtocol::new(EstablishCtx::new())
            });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        assert_eq!(
            messages[0],
            "message loss: a node missed the count of its contact behind"
        );
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
