//! The per-node half of the batched executor: the [`Slot`] a node lives
//! in, the step function that polls it, and the send validation — the
//! pieces of a round that see exactly one node and therefore cannot
//! depend on how nodes are laid out or scheduled. The round loop that
//! drives them over ownership shards is `shard.rs`.
//!
//! **The slot is what the sweeps read.** Eleven words of bookkeeping —
//! index, ID, successor, two flags, the round counter, the inbox span, the
//! span of the shard's staging arena this round's sends went to, the RNG
//! — beside one [`Life`]: the running protocol, or its output, or
//! nothing. A node owns no heap block of the engine's: its sends, its
//! marks and (once a run) its panic message are written to its shard.
//!
//! Semantics are bit-for-bit those of the reference interpreter
//! (`crates/ncc/src/reference.rs`, which writes them out independently):
//! same validation order, same violation accounting. The differential
//! tests in `crates/ncc/tests/differential.rs` hold the two to that.

use crate::config::Config;
use crate::error::{panic_message, Violation, ViolationKind};
use crate::event::RouteMode;
use crate::knowledge::KnowledgeTracker;
use crate::message::NodeId;
use crate::protocol::{Marks, NodeProtocol, RoundCtx, Status};
use crate::shard::RunShared;
use crate::wire::{Staged, WireEnvelope, NO_INDEX};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;

/// What a slot holds of its node's protocol: the running state machine,
/// then its output, then nothing — one field, because a node is only ever
/// in one of the three.
pub(crate) enum Life<P: NodeProtocol> {
    Running(P),
    /// Retired by [`Status::Done`]; the output waits for compaction or
    /// the end of the run to collect it.
    Done(P::Output),
    /// Crash-stopped or panicked (no output), or the output was
    /// collected.
    Gone,
}

/// One node's state under the batched executor. Slots are created for
/// every node and live in dense-index (path-position) order, each shard owning
/// the slots of one contiguous dense-index range; compaction drops
/// retired slots but never reorders the survivors, so iterating the
/// shards in order and each slot array in order *is* iterating the live
/// nodes in canonical dense order. What a node says once a run — a panic
/// message — or once a round — its sends, its marks — lives in its
/// shard, not here.
pub(crate) struct Slot<P: NodeProtocol> {
    /// This node's dense index (position on the `G_k` path) — the
    /// stable key into every index-addressed engine structure, surviving
    /// any compaction reorder of the slot array itself. Global: shards
    /// rebase to local indices at use sites.
    pub(crate) idx: u32,
    pub(crate) id: NodeId,
    pub(crate) succ: Option<NodeId>,
    /// `life` is [`Life::Running`] (kept beside it for the sweeps).
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
    /// This round's sends: a span of the shard's staging arena. Empty
    /// unless the node stepped this round and takes part in it.
    pub(crate) out_start: u32,
    pub(crate) out_len: u32,
    pub(crate) rng: SmallRng,
    pub(crate) life: Life<P>,
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
            out_start: 0,
            out_len: 0,
            rng: SmallRng::seed_from_u64(mix),
            life: Life::Running(proto),
        }
    }

    /// Takes the node out of the run for good — finished ([`Life::Done`])
    /// or lost ([`Life::Gone`]): whatever it staged this round is
    /// discarded and it reads no further inbox.
    pub(crate) fn retire(&mut self, life: Life<P>) {
        self.life = life;
        self.alive = false;
        self.silence();
    }

    /// Empties the node's send and inbox spans: it crashed or retired
    /// after stepping, so what it staged is discarded and it reads
    /// nothing further.
    pub(crate) fn silence(&mut self) {
        (self.out_start, self.out_len, self.inbox_len) = (0, 0, 0);
    }

    /// This round's sends, as a range of the shard's staging arena.
    pub(crate) fn out(&self) -> std::ops::Range<usize> {
        self.out_start as usize..(self.out_start + self.out_len) as usize
    }
}

/// What stepping one slot did (the shard folds these into its own
/// finished / panic / marks accounting).
pub(crate) enum StepOutcome {
    /// The slot was retired or parked; nothing ran.
    Skipped,
    /// The protocol continues, with the marks it staged.
    Running(Marks),
    /// The protocol retired this step — by returning [`Status::Done`], or
    /// by panicking with this message.
    Finished { panic: Option<String> },
}

/// Steps one live slot: builds the [`RoundCtx`] over the slot's inbox
/// span of `arena`, polls the protocol (catching panics) with the tail of
/// `staged` as its outbox, and applies the status to the slot. A retiring
/// step's sends are truncated away and its marks dropped. The transcript
/// cannot depend on either arena's layout because a node only ever sees
/// its own spans.
pub(crate) fn step_slot<P: NodeProtocol>(
    slot: &mut Slot<P>,
    arena: &[WireEnvelope],
    staged: &mut Vec<Staged>,
    sh: &RunShared,
) -> StepOutcome {
    if !slot.alive || slot.paused {
        return StepOutcome::Skipped;
    }
    let Life::Running(proto) = &mut slot.life else {
        unreachable!("live node without protocol");
    };
    let start = staged.len();
    let mut marks: Marks = (None, None);
    let mut ctx = RoundCtx {
        id: slot.id,
        n: sh.net.n(),
        capacity: sh.cap,
        model: sh.net.model(),
        initial_successor: slot.succ,
        all_ids: sh.all_ids.as_deref().map(Vec::as_slice),
        round: slot.rounds,
        rng: &mut slot.rng,
        inbox: &arena[slot.inbox_start as usize..][..slot.inbox_len as usize],
        out: staged,
        resolver: sh.net.resolver(),
        marks: &mut marks,
    };
    match std::panic::catch_unwind(AssertUnwindSafe(|| proto.step(&mut ctx))) {
        Ok(Status::Continue) => {
            slot.rounds += 1;
            slot.out_start = start as u32;
            slot.out_len = (staged.len() - start) as u32;
            StepOutcome::Running(marks)
        }
        Ok(Status::Done(out)) => {
            debug_assert!(
                staged.len() == start,
                "node {} staged sends in a Done step (discarded)",
                slot.id
            );
            staged.truncate(start);
            slot.retire(Life::Done(out));
            StepOutcome::Finished { panic: None }
        }
        Err(payload) => {
            staged.truncate(start);
            slot.retire(Life::Gone);
            StepOutcome::Finished {
                panic: Some(panic_message(payload.as_ref())),
            }
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

/// Validates one staged send of node `src` against the model constraints,
/// in the model's order (size, addressee exists, is alive, is known;
/// carried addresses are known). `src_idx` is the shard-local index of the
/// sender's row in `knowledge`; `alive` spans every path position, since
/// destinations may live in any shard.
pub(crate) fn validate(
    send: &Staged,
    src: NodeId,
    src_idx: usize,
    config: &Config,
    knowledge: &KnowledgeTracker,
    alive: &[bool],
    round: u64,
) -> Result<(), Violation> {
    let fail = |kind| Violation {
        round,
        node: src,
        kind,
    };
    let (msg, dst, dst_idx) = (&send.msg, send.dst, send.dst_idx);
    if msg.word_count() > config.max_words || msg.addr_count() > config.max_addrs {
        return Err(fail(ViolationKind::MessageTooLarge {
            words: msg.word_count(),
            addrs: msg.addr_count(),
        }));
    }
    if dst_idx == NO_INDEX {
        return Err(fail(ViolationKind::NoSuchNode { dst }));
    }
    if !alive[dst_idx as usize] {
        return Err(fail(ViolationKind::DeadRecipient { dst }));
    }
    if !knowledge.knows(src_idx, dst) {
        return Err(fail(ViolationKind::UnknownAddressee { dst }));
    }
    for &a in msg.addrs_slice() {
        if !knowledge.knows(src_idx, a) {
            return Err(fail(ViolationKind::UnknownCarriedAddress { carried: a }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol with nothing in it, and one whose output is as wide as
    /// the warm-up's (twelve words).
    struct Bare;
    struct Wide;

    impl NodeProtocol for Bare {
        type Output = ();
        fn step(&mut self, _: &mut RoundCtx<'_>) -> Status<()> {
            Status::Done(())
        }
    }

    impl NodeProtocol for Wide {
        type Output = [u64; 12];
        fn step(&mut self, _: &mut RoundCtx<'_>) -> Status<[u64; 12]> {
            Status::Done([0; 12])
        }
    }

    /// What a slot costs beyond the protocol state it holds.
    const fn overhead<P: NodeProtocol>() -> usize {
        std::mem::size_of::<Slot<P>>() - std::mem::size_of::<Life<P>>()
    }

    // The slot diet, held at compile time: index, ID, successor, flags,
    // round counter, two spans and the 32-byte RNG — eleven words.
    const _: () = assert!(overhead::<Bare>() <= 88 && overhead::<Wide>() <= 88);

    #[test]
    fn a_retired_slot_holds_its_output_and_no_spans() {
        let mut slot = Slot::new(3, 30, Some(40), 1, Wide);
        (slot.out_start, slot.out_len, slot.inbox_len) = (7, 2, 5);
        assert_eq!(slot.out(), 7..9);
        slot.retire(Life::Done([1; 12]));
        assert!(!slot.alive);
        assert_eq!((slot.out(), slot.inbox_len), (0..0, 0));
        assert!(matches!(slot.life, Life::Done(out) if out == [1; 12]));
    }
}
