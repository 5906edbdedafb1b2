//! The seeded adversary & churn scenario engine: deterministic fault
//! injection between routing seal and delivery.
//!
//! A [`Scenario`] is a declarative, pre-compiled fault schedule attached
//! to a [`Config`](crate::Config). The batched executor applies it at two
//! seams of its round loop:
//!
//! * **Churn ops** (crash-stop, crash-recovery, mid-run joins) apply at
//!   scheduled rounds around the step phase, reusing the live-slot
//!   machinery: a crash-stop is observationally a protocol that halts
//!   voluntarily (dead backlog, compaction trigger, `DeadRecipient` for
//!   late senders), a crash-pause parks the slot without retiring it, and
//!   a join keeps the slot parked from round 0 until its scheduled round.
//! * **Message faults** (drop, duplicate, reorder) apply to the *sealed*
//!   wire arena — after validation and the counting-sort scatter, before
//!   delivery. This is the one point where every engine layout agrees on
//!   a canonical order: destination buckets ascend by dense index, and
//!   within a bucket envelopes sit in dense **source** order (the
//!   counting sort is stable; the sharded exchange splices cells into
//!   exactly the same order).
//!
//! # Determinism discipline
//!
//! One coordinator RNG per round, seeded from `(scenario seed, round)`,
//! consumed along that canonical walk — never from worker threads, never
//! dependent on shard boundaries. Buckets of retired or parked nodes are
//! empty and consume nothing, so compaction timing cannot skew the
//! stream. The invariant the matrix suite enforces: a fixed `(run seed,
//! scenario seed, schedule)` yields bit-identical raw event streams at
//! every worker × shard combination, and the empty schedule is
//! bit-identical to a scenario-free run (quiet rounds never touch the
//! RNG or the arena).
//!
//! Nodes are addressed by **path position** (the same 0-based positions a
//! participant mask indexes); the schedule is validated against the mask
//! and compiled to dense indices before the run starts.

use crate::config::CapacityPolicy;
use crate::route::RouteBuffers;
use crate::wire::WireEnvelope;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;

/// One entry of a fault schedule. Rounds are 0-based and inclusive;
/// message-fault windows may overlap (the strongest active rate wins).
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioEvent {
    /// Drop each sealed message with probability `rate` during the round
    /// window.
    Drop {
        /// First round (0-based, inclusive) the rate applies to.
        from: u64,
        /// Last round (inclusive) the rate applies to.
        to: u64,
        /// Per-message drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Deliver each surviving sealed message twice with probability
    /// `rate` during the round window (the copy lands adjacent to the
    /// original, so FIFO queues see it in the same round).
    Duplicate {
        /// First round (0-based, inclusive) the rate applies to.
        from: u64,
        /// Last round (inclusive) the rate applies to.
        to: u64,
        /// Per-message duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// Permute each destination's freshly routed bucket — the fresh FIFO
    /// prefix — during the round window. Only meaningful (and only
    /// accepted) under [`CapacityPolicy::Queue`], whose FIFO semantics
    /// the permutation perturbs.
    Reorder {
        /// First round (0-based, inclusive) of the window.
        from: u64,
        /// Last round (inclusive) of the window.
        to: u64,
    },
    /// Crash-stop: the node participates in `round` and is dead
    /// thereafter — the exact observable footprint of a protocol that
    /// voluntarily halts at `round` (minus the output it never produces).
    CrashStop {
        /// Path position of the node.
        node: usize,
        /// Round after whose step phase the node dies.
        round: u64,
    },
    /// Crash-recovery: the node goes down after its step in `crash` and
    /// resumes (state intact, queued backlog intact, messages sent to it
    /// while down lost) at the start of `recover`.
    CrashRecover {
        /// Path position of the node.
        node: usize,
        /// Round after whose step phase the node goes down.
        crash: u64,
        /// Round at whose start the node comes back (`> crash`).
        recover: u64,
    },
    /// Churn join: the node sits out every round before `round`
    /// (unreachable, like a dead node) and starts its protocol there.
    Join {
        /// Path position of the node.
        node: usize,
        /// Round at whose start the node begins participating.
        round: u64,
    },
}

/// A seeded, declarative fault schedule (see the module docs). Build one
/// with the chainable constructors, attach it via
/// [`Config::with_scenario`](crate::Config::with_scenario) (or the
/// facade's `.scenario(…)` knob), and the batched executor compiles and
/// applies it deterministically.
///
/// ```
/// use dgr_ncc::Scenario;
///
/// let s = Scenario::new(7)
///     .drop_messages(0..=u64::MAX, 0.01)
///     .crash_recover(3, 4, 9)
///     .join(5, 6);
/// assert_eq!(s.events().len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scenario {
    seed: u64,
    events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// An empty schedule drawing its fault randomness from `seed`. An
    /// empty schedule is bit-identical to no scenario at all.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            events: Vec::new(),
        }
    }

    /// The scenario seed (independent of the run seed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schedule entries, in insertion order.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// True when the schedule has no entries.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a [`ScenarioEvent::Drop`] window.
    pub fn drop_messages(mut self, rounds: RangeInclusive<u64>, rate: f64) -> Self {
        self.events.push(ScenarioEvent::Drop {
            from: *rounds.start(),
            to: *rounds.end(),
            rate,
        });
        self
    }

    /// Adds a [`ScenarioEvent::Duplicate`] window.
    pub fn duplicate_messages(mut self, rounds: RangeInclusive<u64>, rate: f64) -> Self {
        self.events.push(ScenarioEvent::Duplicate {
            from: *rounds.start(),
            to: *rounds.end(),
            rate,
        });
        self
    }

    /// Adds a [`ScenarioEvent::Reorder`] window (queue policy only).
    pub fn reorder(mut self, rounds: RangeInclusive<u64>) -> Self {
        self.events.push(ScenarioEvent::Reorder {
            from: *rounds.start(),
            to: *rounds.end(),
        });
        self
    }

    /// Adds a [`ScenarioEvent::CrashStop`].
    pub fn crash(mut self, node: usize, round: u64) -> Self {
        self.events.push(ScenarioEvent::CrashStop { node, round });
        self
    }

    /// Adds a [`ScenarioEvent::CrashRecover`].
    pub fn crash_recover(mut self, node: usize, crash: u64, recover: u64) -> Self {
        self.events.push(ScenarioEvent::CrashRecover {
            node,
            crash,
            recover,
        });
        self
    }

    /// Adds a [`ScenarioEvent::Join`].
    pub fn join(mut self, node: usize, round: u64) -> Self {
        self.events.push(ScenarioEvent::Join { node, round });
        self
    }

    /// Checks the schedule against the network it is about to perturb:
    /// every referenced node must be a participant of the (possibly
    /// masked) run, every rate must be a probability, windows must not be
    /// inverted, recoveries must follow their crashes, and reorder faults
    /// require the queue policy. Returns a message naming the offending
    /// entry — the engines refuse to start on `Err`, and the facade wraps
    /// the same message in its `InvalidRequest`.
    pub fn validate(
        &self,
        n: usize,
        mask: Option<&[bool]>,
        policy: CapacityPolicy,
    ) -> Result<(), String> {
        let participant = |node: usize| node < n && mask.is_none_or(|m| m[node]);
        let check_node = |node: usize, what: &str| {
            if !participant(node) {
                return Err(format!(
                    "{what} references node {node}, which is not a participant \
                     of this {n}-node run{}",
                    if mask.is_some() {
                        " (masked out or out of range)"
                    } else {
                        ""
                    }
                ));
            }
            Ok(())
        };
        let check_window = |from: u64, to: u64, what: &str| {
            if from > to {
                return Err(format!("{what} window {from}..={to} is inverted"));
            }
            Ok(())
        };
        let check_rate = |rate: f64, what: &str| {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{what} rate {rate} is not a probability in [0, 1]"));
            }
            Ok(())
        };
        for event in &self.events {
            match *event {
                ScenarioEvent::Drop { from, to, rate } => {
                    check_window(from, to, "drop")?;
                    check_rate(rate, "drop")?;
                }
                ScenarioEvent::Duplicate { from, to, rate } => {
                    check_window(from, to, "duplicate")?;
                    check_rate(rate, "duplicate")?;
                }
                ScenarioEvent::Reorder { from, to } => {
                    check_window(from, to, "reorder")?;
                    if policy != CapacityPolicy::Queue {
                        return Err(format!(
                            "reorder faults permute FIFO delivery queues and require \
                             CapacityPolicy::Queue (this run uses {policy:?})"
                        ));
                    }
                }
                ScenarioEvent::CrashStop { node, round: _ } => {
                    check_node(node, "crash")?;
                }
                ScenarioEvent::CrashRecover {
                    node,
                    crash,
                    recover,
                } => {
                    check_node(node, "crash_recover")?;
                    if recover <= crash {
                        return Err(format!(
                            "crash_recover of node {node} schedules recovery at round \
                             {recover}, at or before its crash at round {crash}"
                        ));
                    }
                }
                ScenarioEvent::Join { node, round: _ } => {
                    check_node(node, "join")?;
                }
            }
        }
        Ok(())
    }

    /// Compiles the (already validated) schedule against the run's dense
    /// participant space: `dense_of[node]` maps path positions to dense
    /// indices. Produces the sorted churn timelines and the message-fault
    /// windows the runtime walks with O(1) per-round cursors.
    pub(crate) fn compile(&self, dense_of: impl Fn(usize) -> u32) -> CompiledScenario {
        let mut pre = Vec::new();
        let mut post = Vec::new();
        let mut join_dense = Vec::new();
        for event in &self.events {
            match *event {
                ScenarioEvent::Drop { .. }
                | ScenarioEvent::Duplicate { .. }
                | ScenarioEvent::Reorder { .. } => {}
                ScenarioEvent::CrashStop { node, round } => post.push(ChurnOp {
                    round,
                    dense: dense_of(node),
                    node,
                    kind: ChurnKind::CrashStop,
                }),
                ScenarioEvent::CrashRecover {
                    node,
                    crash,
                    recover,
                } => {
                    let dense = dense_of(node);
                    post.push(ChurnOp {
                        round: crash,
                        dense,
                        node,
                        kind: ChurnKind::CrashPause,
                    });
                    pre.push(ChurnOp {
                        round: recover,
                        dense,
                        node,
                        kind: ChurnKind::Recover,
                    });
                }
                ScenarioEvent::Join { node, round } => {
                    let dense = dense_of(node);
                    join_dense.push(dense);
                    pre.push(ChurnOp {
                        round,
                        dense,
                        node,
                        kind: ChurnKind::Join,
                    });
                }
            }
        }
        // Stable by round: ops scheduled for the same round apply in
        // schedule order, part of the canonical stream.
        pre.sort_by_key(|op| op.round);
        post.sort_by_key(|op| op.round);
        join_dense.sort_unstable();
        join_dense.dedup();
        CompiledScenario {
            windows: self.fault_windows(),
            pre,
            post,
            join_dense,
        }
    }

    /// The message-fault windows of the schedule (see [`FaultWindows`]).
    pub(crate) fn fault_windows(&self) -> FaultWindows {
        let mut windows = FaultWindows {
            seed: self.seed,
            drops: Vec::new(),
            dups: Vec::new(),
            reorders: Vec::new(),
        };
        for event in &self.events {
            match *event {
                ScenarioEvent::Drop { from, to, rate } => windows.drops.push((from, to, rate)),
                ScenarioEvent::Duplicate { from, to, rate } => windows.dups.push((from, to, rate)),
                ScenarioEvent::Reorder { from, to } => windows.reorders.push((from, to)),
                _ => {}
            }
        }
        windows
    }
}

/// The message-fault half of a schedule, and the one piece of scenario
/// logic the batched executor and the reference interpreter share: which
/// rates apply in a round, and the RNG that round's faults are drawn
/// from. How the faults are *applied* to a round's traffic is written
/// separately in each engine.
#[derive(Clone, Debug)]
pub(crate) struct FaultWindows {
    seed: u64,
    drops: Vec<(u64, u64, f64)>,
    dups: Vec<(u64, u64, f64)>,
    reorders: Vec<(u64, u64)>,
}

/// The message-fault rates in force for one round (0 outside windows;
/// overlapping windows take the strongest rate).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundFaults {
    pub(crate) drop_rate: f64,
    pub(crate) dup_rate: f64,
    pub(crate) reorder: bool,
}

impl RoundFaults {
    /// True when the round has any message fault scheduled.
    pub(crate) fn active(&self) -> bool {
        self.drop_rate > 0.0 || self.dup_rate > 0.0 || self.reorder
    }
}

impl FaultWindows {
    /// Resolves the rates in force at `round`.
    pub(crate) fn at(&self, round: u64) -> RoundFaults {
        let strongest = |windows: &[(u64, u64, f64)]| {
            windows
                .iter()
                .filter(|&&(from, to, _)| (from..=to).contains(&round))
                .fold(0.0f64, |acc, &(_, _, rate)| acc.max(rate))
        };
        RoundFaults {
            drop_rate: strongest(&self.drops),
            dup_rate: strongest(&self.dups),
            reorder: self
                .reorders
                .iter()
                .any(|&(from, to)| (from..=to).contains(&round)),
        }
    }

    /// The fault RNG of `round`: a pure function of `(scenario seed,
    /// round)`, so a round's faults do not depend on how much randomness
    /// earlier rounds consumed.
    pub(crate) fn rng(&self, round: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            self.seed
                .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }
}

/// What a compiled churn op does to its slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChurnKind {
    /// Retire the slot for good (after its step this round).
    CrashStop,
    /// Park the slot, state intact (after its step this round).
    CrashPause,
    /// Un-park a paused slot (before the step phase this round).
    Recover,
    /// Un-park a joining slot for the first time (before the step phase).
    Join,
}

/// One compiled churn operation, addressed by dense index (with the path
/// position kept for narration).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChurnOp {
    pub(crate) round: u64,
    pub(crate) dense: u32,
    pub(crate) node: usize,
    pub(crate) kind: ChurnKind,
}

/// Per-round message-fault tally, returned by the fault pass and folded
/// into the round's delivered/word accounting (and the
/// [`FaultInjected`](crate::RunEvent::FaultInjected) narration).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FaultTally {
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
    pub(crate) reordered: u64,
    /// Words removed by drops.
    pub(crate) words_removed: u64,
    /// Words added by duplicates.
    pub(crate) words_added: u64,
}

impl FaultTally {
    pub(crate) fn any(&self) -> bool {
        (self.dropped | self.duplicated | self.reordered) != 0
    }
}

/// The compiled, immutable form of a schedule.
#[derive(Clone, Debug)]
pub(crate) struct CompiledScenario {
    windows: FaultWindows,
    /// Pre-step ops (recover, join), sorted by round.
    pre: Vec<ChurnOp>,
    /// Post-step ops (crash-stop, crash-pause), sorted by round.
    post: Vec<ChurnOp>,
    /// Dense indices of joining nodes (start parked), sorted + deduped.
    join_dense: Vec<u32>,
}

/// The scenario runtime one engine run owns: compiled schedule, timeline
/// cursors, the per-round fault RNG and the swap arena the fault pass
/// rebuilds buckets into. Every buffer is round-reused — once the arena
/// reaches the run's high-water message count the fault pass allocates
/// nothing (the one arena rotates through the per-shard arenas via swap
/// and converges on the largest).
#[derive(Debug)]
pub(crate) struct ScenarioRt {
    compiled: CompiledScenario,
    rng: SmallRng,
    arena: Vec<WireEnvelope>,
    pre_cursor: usize,
    post_cursor: usize,
    /// Effective rates for the current round.
    faults: RoundFaults,
    tally: FaultTally,
}

impl ScenarioRt {
    pub(crate) fn new(compiled: CompiledScenario) -> Self {
        ScenarioRt {
            rng: compiled.windows.rng(0),
            compiled,
            arena: Vec::new(),
            pre_cursor: 0,
            post_cursor: 0,
            faults: RoundFaults::default(),
            tally: FaultTally::default(),
        }
    }

    /// Slots that must be built parked (joining nodes), by dense index.
    pub(crate) fn starts_parked(&self, dense: u32) -> bool {
        self.compiled.join_dense.binary_search(&dense).is_ok()
    }

    /// Opens round `round`: resolves the active message-fault rates and,
    /// when any fault could fire, derives the round's coordinator RNG
    /// from `(scenario seed, round)`. Quiet rounds touch neither the RNG
    /// nor (later) the arena, keeping them bit-identical to a
    /// scenario-free engine.
    pub(crate) fn begin_round(&mut self, round: u64) {
        self.faults = self.compiled.windows.at(round);
        self.tally = FaultTally::default();
        if self.faults_active() {
            self.rng = self.compiled.windows.rng(round);
        }
    }

    /// True when the current round has any message fault scheduled.
    pub(crate) fn faults_active(&self) -> bool {
        self.faults.active()
    }

    /// Pre-step churn ops scheduled for `round` (recoveries, joins).
    pub(crate) fn pre_step_ops(&mut self, round: u64) -> &[ChurnOp] {
        Self::take_ops(&self.compiled.pre, &mut self.pre_cursor, round)
    }

    /// Post-step churn ops scheduled for `round` (crashes, pauses).
    pub(crate) fn post_step_ops(&mut self, round: u64) -> &[ChurnOp] {
        Self::take_ops(&self.compiled.post, &mut self.post_cursor, round)
    }

    fn take_ops<'a>(ops: &'a [ChurnOp], cursor: &mut usize, round: u64) -> &'a [ChurnOp] {
        // The engine calls this once per round in ascending order; the
        // first loop only fires if a round was skipped entirely.
        while *cursor < ops.len() && ops[*cursor].round < round {
            *cursor += 1;
        }
        let start = *cursor;
        while *cursor < ops.len() && ops[*cursor].round == round {
            *cursor += 1;
        }
        &ops[start..*cursor]
    }

    /// The fault pass: rebuilds each live destination's sealed bucket —
    /// dropping, duplicating, and (queue policy) permuting envelopes —
    /// into the swap arena, then swaps it into `buffers`. Must be called
    /// from the coordinating thread, walking `live` in ascending dense
    /// order (under shards: per shard in shard order, which is the same
    /// global order); the RNG draws happen along that walk, which is what
    /// makes the stream worker- and shard-invariant. Call once per
    /// buffers object per round, only when [`Self::faults_active`].
    pub(crate) fn perturb(
        &mut self,
        buffers: &mut RouteBuffers,
        live: impl Iterator<Item = usize>,
    ) {
        self.arena.clear();
        // A hard capacity bound on what this round's rates can produce —
        // the sealed volume, twice that when duplication is active —
        // reserved up front so the rebuild is realloc-free even on rounds
        // that duplicate unusually many messages (the allocation probe
        // holds the pass to that), and so a drop-only schedule does not
        // rotate double-sized arenas into every shard.
        let copies = if self.faults.dup_rate > 0.0 { 2 } else { 1 };
        self.arena.reserve(copies * buffers.sealed_len());
        for i in live {
            let new_start = self.arena.len();
            for &env in buffers.bucket(i) {
                if self.faults.drop_rate > 0.0 && self.rng.gen_bool(self.faults.drop_rate) {
                    self.tally.dropped += 1;
                    self.tally.words_removed += env.msg.size_words() as u64;
                    continue;
                }
                self.arena.push(env);
                if self.faults.dup_rate > 0.0 && self.rng.gen_bool(self.faults.dup_rate) {
                    self.tally.duplicated += 1;
                    self.tally.words_added += env.msg.size_words() as u64;
                    self.arena.push(env);
                }
            }
            let new_count = self.arena.len() - new_start;
            if self.faults.reorder && new_count > 1 {
                self.arena[new_start..].shuffle(&mut self.rng);
                self.tally.reordered += 1;
            }
            buffers.set_span(i, new_start as u32, new_count as u32);
        }
        buffers.install_arena(&mut self.arena);
    }

    /// Heap bytes of the swap arena (for the run's footprint record).
    pub(crate) fn arena_bytes(&self) -> usize {
        crate::metrics::vec_bytes(&self.arena)
    }

    /// The round's accumulated fault tally (reset by
    /// [`Self::begin_round`]).
    pub(crate) fn tally(&self) -> FaultTally {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_events_in_order() {
        let s = Scenario::new(1)
            .drop_messages(2..=5, 0.5)
            .crash(3, 7)
            .join(1, 4);
        assert_eq!(s.seed(), 1);
        assert_eq!(s.events().len(), 3);
        assert!(!s.is_empty());
        assert!(Scenario::new(9).is_empty());
    }

    #[test]
    fn validate_rejects_non_participants() {
        let s = Scenario::new(0).crash(10, 1);
        assert!(s.validate(10, None, CapacityPolicy::Strict).is_err());
        let s = Scenario::new(0).join(3, 1);
        let mask = vec![true, true, true, false, true];
        let err = s
            .validate(5, Some(&mask), CapacityPolicy::Strict)
            .unwrap_err();
        assert!(err.contains("node 3"), "{err}");
        assert!(s.validate(5, None, CapacityPolicy::Strict).is_ok());
    }

    #[test]
    fn validate_rejects_recovery_before_crash() {
        let s = Scenario::new(0).crash_recover(1, 5, 5);
        let err = s.validate(4, None, CapacityPolicy::Queue).unwrap_err();
        assert!(err.contains("recovery"), "{err}");
        let s = Scenario::new(0).crash_recover(1, 5, 6);
        assert!(s.validate(4, None, CapacityPolicy::Queue).is_ok());
    }

    #[test]
    fn validate_rejects_reorder_without_queueing() {
        let s = Scenario::new(0).reorder(0..=10);
        let err = s.validate(4, None, CapacityPolicy::Record).unwrap_err();
        assert!(err.contains("Record"), "{err}");
        assert!(s.validate(4, None, CapacityPolicy::Queue).is_ok());
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // the empty window is the point
    fn validate_rejects_bad_rates_and_windows() {
        let s = Scenario::new(0).drop_messages(0..=1, 1.5);
        assert!(s.validate(4, None, CapacityPolicy::Queue).is_err());
        let s = Scenario::new(0).duplicate_messages(5..=2, 0.1);
        assert!(s.validate(4, None, CapacityPolicy::Queue).is_err());
    }

    #[test]
    fn compiled_timelines_sort_by_round_and_keep_schedule_order() {
        let s = Scenario::new(0)
            .crash(2, 9)
            .crash_recover(1, 3, 8)
            .join(0, 3);
        let c = s.compile(|node| node as u32);
        assert_eq!(
            c.post
                .iter()
                .map(|op| (op.round, op.node))
                .collect::<Vec<_>>(),
            vec![(3, 1), (9, 2)]
        );
        assert_eq!(
            c.pre
                .iter()
                .map(|op| (op.round, op.node))
                .collect::<Vec<_>>(),
            vec![(3, 0), (8, 1)]
        );
        let rt = ScenarioRt::new(c);
        assert!(rt.starts_parked(0));
        assert!(!rt.starts_parked(1));
    }

    #[test]
    fn runtime_cursors_hand_out_each_round_once() {
        let s = Scenario::new(0).crash(0, 2).crash(1, 2).crash(2, 5);
        let mut rt = ScenarioRt::new(s.compile(|node| node as u32));
        assert!(rt.post_step_ops(0).is_empty());
        let at_2: Vec<usize> = rt.post_step_ops(2).iter().map(|op| op.node).collect();
        assert_eq!(at_2, vec![0, 1]);
        assert!(rt.post_step_ops(3).is_empty());
        assert_eq!(rt.post_step_ops(5).len(), 1);
        assert!(rt.post_step_ops(6).is_empty());
    }

    #[test]
    fn fault_pass_is_a_pure_function_of_seed_and_round() {
        use crate::wire::WireMsg;
        let build = || {
            let mut b = RouteBuffers::new(3);
            for d in [0u32, 1, 1, 2, 2, 2] {
                b.counts[d as usize] += 1;
            }
            let total = b.seal_counts_live(0..3);
            for (k, d) in [0u32, 1, 1, 2, 2, 2].iter().enumerate() {
                let msg = WireMsg::signal(0);
                let src = k as u64 + 1;
                b.push(*d as usize, WireEnvelope { src, msg });
            }
            assert_eq!(total, 6);
            b
        };
        let run = || {
            let s = Scenario::new(42)
                .drop_messages(0..=10, 0.5)
                .duplicate_messages(0..=10, 0.5);
            let mut rt = ScenarioRt::new(s.compile(|n| n as u32));
            rt.begin_round(3);
            assert!(rt.faults_active());
            let mut b = build();
            rt.perturb(&mut b, 0..3);
            let survivors: Vec<(u32, Vec<u64>)> = (0..3)
                .map(|i| (b.counts[i], b.bucket(i).iter().map(|e| e.src).collect()))
                .collect();
            (survivors, rt.tally())
        };
        let (a, tally_a) = run();
        let (b, tally_b) = run();
        assert_eq!(a, b, "same seed+round must perturb identically");
        assert_eq!(tally_a.dropped, tally_b.dropped);
        assert_eq!(tally_a.duplicated, tally_b.duplicated);
        assert!(tally_a.any());
        // Buckets stay contiguous and ascending after the rebuild.
        let mut acc = 0u32;
        for (count, _) in &a {
            acc += count;
        }
        assert_eq!(
            acc as u64,
            6 - tally_a.dropped + tally_a.duplicated,
            "tally must account for every envelope"
        );
    }

    #[test]
    fn a_drop_only_round_reserves_no_room_for_duplicates() {
        // The arena the pass installs is sized by what the round's rates
        // can produce: the sealed volume, doubled only under duplication.
        let installed = |scenario: Scenario| {
            let mut b = RouteBuffers::new(1);
            b.counts[0] = 100;
            assert_eq!(b.seal_counts_live(0..1), 100);
            let mut rt = ScenarioRt::new(scenario.compile(|n| n as u32));
            rt.begin_round(0);
            rt.perturb(&mut b, 0..1);
            b.arena.capacity()
        };
        assert_eq!(installed(Scenario::new(1).drop_messages(0..=9, 0.01)), 100);
        let both = Scenario::new(1)
            .drop_messages(0..=9, 0.01)
            .duplicate_messages(0..=9, 0.01);
        assert_eq!(installed(both), 200);
    }

    #[test]
    fn quiet_rounds_leave_buckets_untouched() {
        let s = Scenario::new(42).drop_messages(5..=6, 1.0);
        let mut rt = ScenarioRt::new(s.compile(|n| n as u32));
        rt.begin_round(3);
        assert!(!rt.faults_active());
        rt.begin_round(5);
        assert!(rt.faults_active());
        assert_eq!(rt.faults.drop_rate, 1.0);
    }

    #[test]
    fn overlapping_windows_take_the_strongest_rate() {
        let s = Scenario::new(0)
            .drop_messages(0..=10, 0.1)
            .drop_messages(5..=6, 0.9);
        let mut rt = ScenarioRt::new(s.compile(|n| n as u32));
        rt.begin_round(5);
        assert_eq!(rt.faults.drop_rate, 0.9);
        rt.begin_round(7);
        assert_eq!(rt.faults.drop_rate, 0.1);
    }
}
