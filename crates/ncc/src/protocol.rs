//! The step-function protocol model: node protocols as polled state
//! machines.
//!
//! A node's protocol is a state machine implementing [`NodeProtocol`]:
//! once per round the engine calls [`NodeProtocol::step`] with a
//! [`RoundCtx`] that exposes the previous round's inbox and collects this
//! round's sends. Returning [`Status::Done`] retires the node. A protocol
//! that returns `Done` on its `k`-th step has taken part in exactly
//! `k - 1` rounds.
//!
//! The state machine sees nothing of the engine that polls it, which is
//! why the same protocol runs on the batched executor and on the
//! reference interpreter and produces identical transcripts (the
//! differential tests rely on this).

use crate::config::Model;
use crate::message::NodeId;
use crate::route::Resolver;
use crate::wire::{Staged, WireEnvelope, WireMsg, DEAD_INDEX, NO_INDEX};
use rand::rngs::SmallRng;
use std::sync::Arc;

/// What a protocol reports after one step.
#[derive(Debug)]
pub enum Status<R> {
    /// The node participates in the round it just populated.
    Continue,
    /// The node's protocol is finished; `R` is its output. Sends staged in
    /// the same step are discarded (a finished node does not participate in
    /// the round).
    Done(R),
}

/// A node's protocol as a polled state machine.
pub trait NodeProtocol: Send {
    /// The per-node result of a completed run.
    type Output: Send;

    /// Executes one synchronous round: read `ctx.inbox()` (the previous
    /// round's delivery; empty on the first call), stage sends with
    /// `ctx.send`, and return [`Status::Continue`] — or return
    /// [`Status::Done`] to retire from the network.
    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<Self::Output>;
}

/// The initial knowledge handed to a protocol factory — exactly what the
/// NCC model grants a node at time zero, nothing more.
pub struct NodeSeed<'a> {
    /// This node's ID (its "address").
    pub id: NodeId,
    /// Network size (common knowledge in the model).
    pub n: usize,
    /// Number of *participating* nodes — the length of the knowledge path
    /// `G_k` this run actually links. Equals `n` on unmasked runs; on a
    /// masked run ([`Network::run_protocol_on`](crate::Network)) it is
    /// the sub-network size, which the model grants as common knowledge
    /// exactly like `n` (the paper's prefix recursion broadcasts it before
    /// recursing).
    pub participants: usize,
    /// Per-round send/receive capacity (`Θ(log n)`, common knowledge).
    pub capacity: usize,
    /// The model variant.
    pub model: Model,
    /// NCC0 initial knowledge: successor on the knowledge path `G_k`.
    pub initial_successor: Option<NodeId>,
    pub(crate) all_ids: Option<&'a Arc<Vec<NodeId>>>,
}

impl NodeSeed<'_> {
    /// NCC1 initial knowledge: every node's ID, sorted. Protocols that
    /// need it past construction should clone the [`Arc`].
    ///
    /// # Panics
    ///
    /// Panics under NCC0 — a model violation in the protocol's code.
    pub fn all_ids(&self) -> &Arc<Vec<NodeId>> {
        self.all_ids.expect("all_ids() requires the NCC1 model")
    }
}

/// A node's view of one synchronous round: the API surface a
/// [`NodeProtocol::step`] call sees.
pub struct RoundCtx<'a> {
    pub(crate) id: NodeId,
    pub(crate) n: usize,
    pub(crate) participants: usize,
    pub(crate) capacity: usize,
    pub(crate) model: Model,
    pub(crate) initial_successor: Option<NodeId>,
    pub(crate) all_ids: Option<&'a [NodeId]>,
    pub(crate) round: u64,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) inbox: &'a [WireEnvelope],
    /// Where sends are staged: the tail of the shard's staging arena
    /// (everything past the position it had when the step began is this
    /// node's), or the reference interpreter's per-node list.
    pub(crate) out: &'a mut Vec<Staged>,
    pub(crate) resolver: &'a Resolver,
    /// Dense remap for masked batched runs: `dense_of[full]` is the 0..k
    /// slot index of a participant, [`DEAD_INDEX`] for a masked-out node.
    /// `None` means the resolver's index *is* the dense index (unmasked
    /// batched runs; the reference interpreter, which ignores indices and
    /// routes by the destination ID).
    pub(crate) dense_of: Option<&'a [u32]>,
    /// This step's `(phase, stage)` marks.
    pub(crate) marks: &'a mut Marks,
}

/// The `(phase, stage)` marks one step staged.
pub(crate) type Marks = (Option<&'static str>, Option<&'static str>);

impl RoundCtx<'_> {
    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of participating nodes — the knowledge-path length. Equals
    /// [`RoundCtx::n`] except on masked sub-network runs (common knowledge,
    /// like `n`; see [`NodeSeed::participants`]).
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Per-round send/receive capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The model variant this network runs under.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Rounds completed so far by this node (0 on the first step).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// NCC0 initial knowledge: successor on the knowledge path, if any.
    pub fn initial_successor(&self) -> Option<NodeId> {
        self.initial_successor
    }

    /// NCC1 initial knowledge: all IDs, sorted.
    ///
    /// # Panics
    ///
    /// Panics under NCC0.
    pub fn all_ids(&self) -> &[NodeId] {
        self.all_ids.expect("all_ids() requires the NCC1 model")
    }

    /// This node's local randomness (deterministically seeded from the
    /// master seed and the node ID — the same stream on either engine).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The previous round's inbox (empty on the first step).
    pub fn inbox(&self) -> &[WireEnvelope] {
        self.inbox
    }

    /// Declares that this node entered the given macro phase (Algorithm
    /// 6's data-dependent phases). The engine collects marks after the
    /// step phase in dense node-index order and emits a
    /// [`PhaseChange`](crate::RunEvent::PhaseChange) event on every
    /// *change* (repeats — every node of a lockstep protocol marking the
    /// same phase in the same round — are deduplicated). Marks staged in
    /// a step that returns [`Status::Done`] are discarded, and at most
    /// one mark per node per round is kept (the last wins). Purely
    /// observational: marking can never affect the transcript.
    pub fn mark_phase(&mut self, phase: &'static str) {
        self.marks.0 = Some(phase);
    }

    /// Declares a finer-grained internal stage transition; emitted as a
    /// [`StageTransition`](crate::RunEvent::StageTransition) event under
    /// the same collection and deduplication rules as
    /// [`RoundCtx::mark_phase`].
    pub fn mark_stage(&mut self, stage: &'static str) {
        self.marks.1 = Some(stage);
    }

    /// Stages a message for this round. The destination ID is resolved to
    /// a dense index here, at send time, so the routing pass itself does no
    /// ID lookups at all; an unknown ID is carried through and surfaces as
    /// a [`NoSuchNode`](crate::ViolationKind::NoSuchNode) violation.
    pub fn send(&mut self, dst: NodeId, msg: WireMsg) {
        let full_idx = self.resolver.index_of(dst).unwrap_or(NO_INDEX);
        let dst_idx = match self.dense_of {
            // Masked run: project the resolver's full-network index into
            // the dense 0..k participant space (DEAD_INDEX marks a real
            // node that is not in this run).
            Some(map) if full_idx != NO_INDEX => map[full_idx as usize],
            _ => full_idx,
        };
        debug_assert!(dst_idx != DEAD_INDEX || self.dense_of.is_some());
        self.out.push(Staged { msg, dst, dst_idx });
    }
}
