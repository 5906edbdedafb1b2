//! Algorithm 3 (and its explicit and upper-envelope extensions) as a
//! [`NodeProtocol`].
//!
//! The algorithm is a sequence of primitives; this module composes them as
//! [`Step`] sub-protocols chained through one state machine, transitioning
//! stages *within* a round — a stage boundary costs no round. It was
//! ported from a direct-style original (blocking closures calling the
//! primitives in sequence) and held to it round for round and message for
//! message; `crates/core/tests/batched_drivers.rs` keeps that original's
//! transcripts frozen and holds the state machine to them on both engines
//! — while it scales to hundreds of thousands of nodes (`tests/scale.rs`).
//!
//! The data-dependent while-loop of Algorithm 3 stays in lockstep because
//! its control values (δ, N, the error flag) are globally aggregated, so
//! every node transitions identically.
//!
//! [`NodeProtocol`]: dgr_ncc::NodeProtocol
//! [`Step`]: dgr_primitives::proto::Step

use super::implicit::Mode;
use super::{ImplicitOutcome, Unrealizable};
use dgr_ncc::{tags, NodeId, NodeProtocol, RoundCtx, Status, WireMsg};
use dgr_primitives::bbst::Bbst;
use dgr_primitives::contacts::ContactTable;
use dgr_primitives::imcast::{CoverSide, Payload};
use dgr_primitives::proto::contacts::ContactsStep;
use dgr_primitives::proto::imcast::ImcastStep;
use dgr_primitives::proto::ops::AggBcastStep;
use dgr_primitives::proto::sort::SortStep;
use dgr_primitives::proto::stagger::StaggerStep;
use dgr_primitives::proto::step::{AggOp, Poll, Step};
use dgr_primitives::proto::EstablishCtx;
use dgr_primitives::sort::{Order, SortBackend, SortedPath};
use dgr_primitives::vpath::VPath;
use dgr_primitives::{stagger, PathCtx};
use std::sync::Arc;

/// Which driver behavior the protocol reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Algorithm 3, implicit realization (Theorem 11).
    Implicit,
    /// Theorem 13 upper envelope (implicit, multigraph semantics).
    Envelope,
    /// Theorem 12 explicit realization (Algorithm 3 + staggered hand-off;
    /// requires a queueing capacity policy).
    Explicit,
}

impl Flavor {
    fn mode(self) -> Mode {
        match self {
            Flavor::Envelope => Mode::Envelope,
            _ => Mode::Exact,
        }
    }
}

enum CoreStage {
    Sort(SortStep),
    SortedContacts(ContactsStep),
    Delta(AggBcastStep),
    NMax(AggBcastStep),
    Mcast(ImcastStep),
    ErrFlag(AggBcastStep),
    DeltaBound(AggBcastStep),
    Handoff(StaggerStep),
}

/// The post-establishment core of the degree realization — the Algorithm
/// 3 phase loop (and the Theorem 12/13 extensions) as a composable
/// [`Step`].
///
/// The core is parameterized by **two** path scopes:
///
/// * `local` — the [`PathCtx`] the realization happens *on*: the sort,
///   the sorted contacts and the interval multicast all run over this
///   (possibly non-member) view. At the top level it is the whole
///   knowledge path; in Algorithm 6's paper-exact recursion it is the
///   ρ-sorted prefix sub-path, with every non-prefix node holding a
///   non-member view of the same length.
/// * `global` — the path view and BBST the loop's *control aggregations*
///   (δ, N, the error flag) run over. Using the full-network tree keeps
///   every node — member of the sub-path or not — in lockstep with the
///   data-dependent phase loop: non-members contribute the aggregation
///   identity and still learn every control value. At the top level
///   `global` simply equals the establishment context.
pub struct DegreesCore {
    degree: usize,
    flavor: Flavor,
    sort: SortBackend,
    local: PathCtx,
    global_vp: VPath,
    global_tree: Arc<Bbst>,
    stage: CoreStage,
    need: u64,
    outcome: ImplicitOutcome,
    sp: Option<SortedPath>,
    sct: Option<Arc<ContactTable>>,
    delta: usize,
    is_leader: bool,
}

impl DegreesCore {
    /// Builds the core; the first poll opens phase 1. Non-members of
    /// `local` must pass `degree = 0` (the aggregation identity) and the
    /// bitonic sort backend (a non-member cannot idle through the
    /// randomized backend's data-dependent rounds).
    pub fn new(
        degree: usize,
        flavor: Flavor,
        sort: SortBackend,
        local: PathCtx,
        global_vp: VPath,
        global_tree: Arc<Bbst>,
        my_id: NodeId,
    ) -> Self {
        let mut core = DegreesCore {
            degree,
            flavor,
            sort,
            local,
            global_vp,
            global_tree,
            // Placeholder; `begin_phase` installs the real first stage.
            stage: CoreStage::SortedContacts(ContactsStep::new(VPath::non_member(0))),
            need: degree as u64,
            outcome: ImplicitOutcome {
                requested: degree,
                neighbors: Vec::new(),
                phases: 0,
            },
            sp: None,
            sct: None,
            delta: 0,
            is_leader: false,
        };
        core.begin_phase(my_id);
        core
    }

    /// Opens a new Algorithm 3 phase: re-sort by remaining degree.
    fn begin_phase(&mut self, my_id: NodeId) {
        self.outcome.phases += 1;
        self.stage = CoreStage::Sort(SortStep::on_ctx(
            &self.local,
            self.need,
            Order::Descending,
            my_id,
            self.sort,
        ));
    }

    /// An aggregate + broadcast over the fixed global tree.
    fn agg(&self, value: u64, op: AggOp) -> AggBcastStep {
        AggBcastStep::new(self.global_vp, self.global_tree.clone(), value, op)
    }

    /// Closes the run: implicit flavors finish, the explicit flavor first
    /// broadcasts Δ and staggers the edge announcements.
    fn finish(&mut self) -> Option<Poll<Result<ImplicitOutcome, Unrealizable>>> {
        if self.flavor == Flavor::Explicit {
            self.stage = CoreStage::DeltaBound(self.agg(self.degree as u64, AggOp::Max));
            None
        } else {
            Some(Poll::Ready(Ok(std::mem::take(&mut self.outcome))))
        }
    }
}

impl Step for DegreesCore {
    type Out = Result<ImplicitOutcome, Unrealizable>;

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        loop {
            match &mut self.stage {
                CoreStage::Sort(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(sp) => {
                        self.stage = CoreStage::SortedContacts(ContactsStep::new(sp.vp));
                        self.sp = Some(sp);
                    }
                },
                CoreStage::SortedContacts(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(table) => {
                        self.sct = Some(table);
                        self.stage = CoreStage::Delta(self.agg(self.need, AggOp::Max));
                    }
                },
                CoreStage::Delta(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(delta) => {
                        if delta == 0 {
                            if let Some(done) = self.finish() {
                                return done;
                            }
                            continue;
                        }
                        if delta as usize >= self.local.vp.len {
                            // Some node wants more neighbors than exist.
                            return Poll::Ready(Err(Unrealizable));
                        }
                        self.delta = delta as usize;
                        let mine = u64::from(self.local.vp.member && self.need == delta);
                        self.stage = CoreStage::NMax(self.agg(mine, AggOp::Sum));
                    }
                },
                CoreStage::NMax(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(n_max) => {
                        let delta = self.delta;
                        let q = (n_max as usize / (delta + 1)).max(1);
                        let group_span = q * (delta + 1);
                        debug_assert!(group_span <= self.local.vp.len, "groups exceed the path");
                        let sp = self.sp.as_ref().expect("phase without a sorted path");
                        let rank = sp.rank;
                        self.is_leader = self.local.vp.member
                            && rank < group_span
                            && rank.is_multiple_of(delta + 1);
                        let task = self.is_leader.then(|| {
                            (
                                CoverSide::After,
                                delta,
                                Payload {
                                    addr: rctx.id(),
                                    word: 0,
                                },
                            )
                        });
                        self.stage = CoreStage::Mcast(ImcastStep::new(
                            sp.vp,
                            self.sct.clone().expect("phase without sorted contacts"),
                            task,
                        ));
                    }
                },
                CoreStage::Mcast(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(got) => {
                        let mut went_negative = false;
                        if self.is_leader {
                            debug_assert_eq!(
                                self.need, self.delta as u64,
                                "leader without max degree"
                            );
                            self.need = 0;
                        } else if let Some(p) = got {
                            if self.need == 0 {
                                match self.flavor.mode() {
                                    Mode::Exact => went_negative = true,
                                    Mode::Envelope => self.outcome.neighbors.push(p.addr),
                                }
                            } else {
                                self.outcome.neighbors.push(p.addr);
                                self.need -= 1;
                            }
                        }
                        self.stage =
                            CoreStage::ErrFlag(self.agg(u64::from(went_negative), AggOp::Or));
                    }
                },
                CoreStage::ErrFlag(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(err) => {
                        if err != 0 {
                            return Poll::Ready(Err(Unrealizable));
                        }
                        self.begin_phase(rctx.id());
                    }
                },
                CoreStage::DeltaBound(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(delta) => {
                        let (spread, drain) = stagger::plan(delta as usize, rctx.capacity());
                        let sends = self
                            .outcome
                            .neighbors
                            .iter()
                            .map(|&nb| (nb, WireMsg::signal(tags::EDGE)))
                            .collect();
                        self.stage = CoreStage::Handoff(StaggerStep::new(sends, spread, drain));
                    }
                },
                CoreStage::Handoff(s) => match s.poll(rctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(received) => {
                        self.outcome.neighbors.extend(
                            received
                                .iter()
                                .filter(|(_, msg)| msg.tag == tags::EDGE)
                                .map(|(src, _)| *src),
                        );
                        return Poll::Ready(Ok(std::mem::take(&mut self.outcome)));
                    }
                },
            }
        }
    }
}

enum Stage {
    Establish(EstablishCtx),
    // Boxed: the core's stage machine dwarfs the establishment step.
    Core(Box<DegreesCore>),
}

/// The degree-realization state machine at one node: context
/// establishment followed by the [`DegreesCore`] phase loop over the full
/// path. `degree` is this node's requested degree; every node runs the
/// same protocol.
pub struct RealizeDegrees {
    degree: usize,
    flavor: Flavor,
    sort: SortBackend,
    stage: Stage,
}

impl RealizeDegrees {
    /// Builds the protocol for one node (bitonic Theorem 3 backend).
    pub fn new(degree: usize, flavor: Flavor) -> Self {
        Self::with_sort(degree, flavor, SortBackend::Bitonic)
    }

    /// Builds the protocol with an explicit sorting backend.
    pub fn with_sort(degree: usize, flavor: Flavor, sort: SortBackend) -> Self {
        RealizeDegrees {
            degree,
            flavor,
            sort,
            stage: Stage::Establish(EstablishCtx::new()),
        }
    }
}

impl NodeProtocol for RealizeDegrees {
    type Output = Result<ImplicitOutcome, Unrealizable>;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> Status<Self::Output> {
        loop {
            match &mut self.stage {
                Stage::Establish(s) => match s.poll(rctx) {
                    Poll::Pending => return Status::Continue,
                    Poll::Ready(ctx) => {
                        let (vp, tree) = (ctx.vp, ctx.tree.clone());
                        self.stage = Stage::Core(Box::new(DegreesCore::new(
                            self.degree,
                            self.flavor,
                            self.sort,
                            ctx,
                            vp,
                            tree,
                            rctx.id(),
                        )));
                    }
                },
                Stage::Core(core) => {
                    return match core.poll(rctx) {
                        Poll::Pending => Status::Continue,
                        Poll::Ready(out) => Status::Done(out),
                    };
                }
            }
        }
    }
}
