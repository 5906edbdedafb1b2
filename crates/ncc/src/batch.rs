//! The per-node half of the batched executor: the [`Slot`] a node lives
//! in, the step function that polls it, and the send validation — the
//! pieces of a round that see exactly one node and therefore cannot
//! depend on how nodes are laid out or scheduled. The round loop that
//! drives them over ownership shards is `shard.rs`.
//!
//! **Dense masked remap.** Masked runs remap the k participants to a
//! dense `0..k` index space at run start: every index-addressed engine
//! structure (routing counts, queue spans, knowledge regions, aliveness)
//! is sized to k, not n, so deep masked prefix recursions pay for the
//! sub-network they run. The resolver still answers in full-network
//! indices; [`RoundCtx::send`](crate::RoundCtx) projects through the
//! remap table at send time, marking masked-out recipients with a
//! dedicated sentinel so the violation taxonomy (`NoSuchNode` vs
//! `DeadRecipient`) is unchanged.
//!
//! Semantics are bit-for-bit those of the reference interpreter
//! (`crates/ncc/src/reference.rs`, which writes them out independently):
//! same validation order, same violation accounting. The differential
//! tests in `crates/ncc/tests/differential.rs` hold the two to that.

use crate::config::{Config, Model};
use crate::error::{panic_message, Violation, ViolationKind};
use crate::event::RouteMode;
use crate::knowledge::KnowledgeTracker;
use crate::message::NodeId;
use crate::protocol::{NodeProtocol, RoundCtx, Status};
use crate::wire::{WireEnvelope, DEAD_INDEX, NO_INDEX};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;

/// One node's state under the batched executor. Slots are created only for
/// participating nodes and live in dense-index order, each shard owning
/// the slots of one contiguous dense-index range; compaction drops
/// retired slots but never reorders the survivors, so iterating the
/// shards in order and each slot array in order *is* iterating the live
/// nodes in canonical dense order.
pub(crate) struct Slot<P: NodeProtocol> {
    /// This node's dense index (position on the full `G_k` path) — the
    /// stable key into every index-addressed engine structure, surviving
    /// any compaction reorder of the slot array itself. Global: shards
    /// rebase to local indices at use sites.
    pub(crate) idx: u32,
    pub(crate) id: NodeId,
    pub(crate) succ: Option<NodeId>,
    pub(crate) alive: bool,
    /// Parked by the scenario schedule: a crash-paused node awaiting its
    /// recovery round, or a churn joiner awaiting its join round. Paused
    /// slots stay `alive` (they survive compaction and count toward the
    /// live population — the run must outlast them) but are skipped by
    /// every sweep and unreachable to senders (`alive_now` false).
    pub(crate) paused: bool,
    pub(crate) rounds: u64,
    pub(crate) inbox_start: u32,
    pub(crate) inbox_len: u32,
    pub(crate) rng: SmallRng,
    pub(crate) out: Vec<WireEnvelope>,
    pub(crate) proto: Option<P>,
    pub(crate) output: Option<P::Output>,
    pub(crate) panic: Option<String>,
    /// Phase/stage marks staged by this round's step (cleared per round;
    /// discarded when the step retires the node).
    pub(crate) phase_mark: Option<&'static str>,
    pub(crate) stage_mark: Option<&'static str>,
}

impl<P: NodeProtocol> Slot<P> {
    /// A fresh slot at dense index `idx`. The per-node RNG stream is
    /// derived from the master seed and the node ID alone, so a protocol
    /// draws identical randomness on either engine and at any shard count.
    pub(crate) fn new(
        idx: u32,
        id: NodeId,
        succ: Option<NodeId>,
        config_seed: u64,
        proto: P,
    ) -> Self {
        let mix = config_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        Slot {
            idx,
            id,
            succ,
            alive: true,
            paused: false,
            rounds: 0,
            inbox_start: 0,
            inbox_len: 0,
            rng: SmallRng::seed_from_u64(mix),
            out: Vec::new(),
            proto: Some(proto),
            output: None,
            panic: None,
            phase_mark: None,
            stage_mark: None,
        }
    }
}

/// The per-run constants a [`step_slot`] call needs to build a
/// [`RoundCtx`].
pub(crate) struct StepShared<'a> {
    pub(crate) n: usize,
    pub(crate) participants: usize,
    pub(crate) cap: usize,
    pub(crate) model: Model,
    pub(crate) all_ids: Option<&'a [NodeId]>,
    pub(crate) resolver: &'a crate::route::Resolver,
    pub(crate) dense_of: Option<&'a [u32]>,
}

/// What stepping one slot did (the caller folds these into its own
/// finished/panicked/marked accounting).
pub(crate) enum StepOutcome {
    /// The slot was already retired; nothing ran.
    Skipped,
    /// The protocol continues; `marked` = it staged a phase/stage mark.
    Running { marked: bool },
    /// The protocol retired this step — by returning
    /// [`Status::Done`] or by panicking (`slot.panic` holds the message).
    Finished { panicked: bool },
}

/// Steps one live slot: builds the [`RoundCtx`] over the slot's inbox
/// span of `arena`, polls the protocol (catching panics), and applies the
/// status to the slot. The transcript cannot depend on the arena layout
/// because a node only ever sees its own span.
pub(crate) fn step_slot<P: NodeProtocol>(
    slot: &mut Slot<P>,
    arena: &[WireEnvelope],
    sh: &StepShared<'_>,
) -> StepOutcome {
    if !slot.alive || slot.paused {
        return StepOutcome::Skipped;
    }
    let inbox = &arena[slot.inbox_start as usize..][..slot.inbox_len as usize];
    slot.out.clear();
    slot.phase_mark = None;
    slot.stage_mark = None;
    let status = {
        let Slot {
            id,
            succ,
            rounds,
            rng,
            out,
            proto,
            phase_mark,
            stage_mark,
            ..
        } = slot;
        let mut ctx = RoundCtx {
            id: *id,
            n: sh.n,
            participants: sh.participants,
            capacity: sh.cap,
            model: sh.model,
            initial_successor: *succ,
            all_ids: sh.all_ids,
            round: *rounds,
            rng,
            inbox,
            out,
            resolver: sh.resolver,
            dense_of: sh.dense_of,
            phase_mark,
            stage_mark,
        };
        let proto = proto.as_mut().expect("live node without protocol");
        std::panic::catch_unwind(AssertUnwindSafe(|| proto.step(&mut ctx)))
    };
    match status {
        Ok(Status::Continue) => {
            slot.rounds += 1;
            StepOutcome::Running {
                marked: slot.phase_mark.is_some() || slot.stage_mark.is_some(),
            }
        }
        Ok(Status::Done(out)) => {
            debug_assert!(
                slot.out.is_empty(),
                "node {} staged sends in a Done step (discarded)",
                slot.id
            );
            slot.output = Some(out);
            slot.proto = None;
            slot.alive = false;
            slot.out.clear();
            slot.inbox_len = 0;
            slot.phase_mark = None;
            slot.stage_mark = None;
            StepOutcome::Finished { panicked: false }
        }
        Err(payload) => {
            slot.panic = Some(panic_message(payload.as_ref()));
            slot.proto = None;
            slot.alive = false;
            slot.out.clear();
            slot.inbox_len = 0;
            slot.phase_mark = None;
            slot.stage_mark = None;
            StepOutcome::Finished { panicked: true }
        }
    }
}

/// A round is narrated **dense** ([`RouteMode::Parallel`]) when the
/// previous round delivered at least this many messages *and* at least a
/// quarter of a message per live slot, **sparse** ([`RouteMode::Inline`])
/// otherwise.
pub(crate) const PARALLEL_ROUTE_MIN_MSGS: u64 = 2048;

/// The dense/sparse classification of a round: a pure function of the
/// transcript (previous round's delivered volume, live slot window) —
/// never of the worker or shard count — so the narrated [`RouteMode`],
/// and with it the raw event stream, is bit-identical across layouts.
pub(crate) fn route_mode(prev_round_messages: u64, window: usize) -> RouteMode {
    if prev_round_messages >= PARALLEL_ROUTE_MIN_MSGS && prev_round_messages >= (window as u64) / 4
    {
        RouteMode::Parallel
    } else {
        RouteMode::Inline
    }
}

/// Validates one envelope against the model constraints, in the model's
/// order (size, addressee exists, is alive, is known; carried addresses
/// are known). `src_idx` is the
/// shard-local index of the sender's row in `knowledge`; `alive` is the
/// full dense participant space, since destinations may live in any
/// shard.
pub(crate) fn validate(
    env: &WireEnvelope,
    src_idx: usize,
    config: &Config,
    knowledge: &KnowledgeTracker,
    alive: &[bool],
    round: u64,
) -> Result<(), Violation> {
    let fail = |kind| Violation {
        round,
        node: env.src,
        kind,
    };
    if env.msg.word_count() > config.max_words || env.msg.addr_count() > config.max_addrs {
        return Err(fail(ViolationKind::MessageTooLarge {
            words: env.msg.word_count(),
            addrs: env.msg.addr_count(),
        }));
    }
    if env.dst_idx == NO_INDEX {
        return Err(fail(ViolationKind::NoSuchNode { dst: env.dst }));
    }
    // DEAD_INDEX: the ID exists in the full network but its node is not
    // part of this (masked) run — dead from round zero. Otherwise the
    // dense index is in bounds of `alive`.
    if env.dst_idx == DEAD_INDEX || !alive[env.dst_idx as usize] {
        return Err(fail(ViolationKind::DeadRecipient { dst: env.dst }));
    }
    if !knowledge.knows(src_idx, env.dst) {
        return Err(fail(ViolationKind::UnknownAddressee { dst: env.dst }));
    }
    for &a in env.msg.addrs_slice() {
        if !knowledge.knows(src_idx, a) {
            return Err(fail(ViolationKind::UnknownCarriedAddress { carried: a }));
        }
    }
    Ok(())
}
