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
//!   delivery buckets — after validation and the exchange, before
//!   delivery — each destination shard over its own buckets. Within a
//!   bucket envelopes sit in dense **source** order (the counting sort is
//!   stable; the sharded exchange splices cells into exactly the same
//!   order), so a source's sends to one destination are adjacent and in
//!   the order it staged them.
//!
//! # Determinism discipline
//!
//! A message's fate is a pure function of its layout-independent
//! identity ([`RoundFaults::fate`]): a keyed hash of `(scenario seed,
//! round, source ID, destination ID, the message's ordinal among that
//! source's sends to that destination this round)` held against the
//! round's rates. A reordered bucket's permutation is a shuffle by an RNG
//! keyed on `(scenario seed, round, destination ID)`
//! ([`RoundFaults::shuffle`]). No stream is shared between messages, so
//! no walk order, shard boundary, worker count or unrelated traffic can
//! move a fate, and the reference interpreter applies the same two
//! functions from its own loop over each node's arrivals. The invariant
//! the matrix suite enforces: a fixed `(run seed, scenario seed,
//! schedule)` yields bit-identical raw event streams at every worker ×
//! shard combination, and the empty schedule is bit-identical to a
//! scenario-free run (quiet rounds never enter the fault pass).
//!
//! Nodes are addressed by **path position** (the same 0-based positions a
//! participant mask indexes); the schedule is validated against the mask
//! and compiled to dense indices before the run starts.

use crate::config::CapacityPolicy;
use crate::message::NodeId;
use crate::wire::WireEnvelope;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
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
/// rates apply in a round, and — through [`RoundFaults`] — what they do
/// to each message. How a round's traffic is walked is written
/// separately in each engine.
#[derive(Clone, Debug)]
pub(crate) struct FaultWindows {
    seed: u64,
    drops: Vec<(u64, u64, f64)>,
    dups: Vec<(u64, u64, f64)>,
    reorders: Vec<(u64, u64)>,
}

/// The message faults in force for one round (none outside windows;
/// overlapping windows take the strongest rate), keyed by the round.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoundFaults {
    /// The hash key of the round, from `(scenario seed, round)`.
    key: u64,
    /// A message is dropped when its 53-bit drop draw falls below this
    /// (the rate in units of 2⁻⁵³: 0 never fires, 2⁵³ always does).
    drop_below: u64,
    /// The same for the duplicate draw of a message that survives.
    dup_below: u64,
    reorder: bool,
}

/// SplitMix64's finalizer: a bijective 64-bit mix.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separators of a message's two draws and a bucket's shuffle.
const DROP: u64 = 1;
const DUPLICATE: u64 = 2;
const SHUFFLE: u64 = 3;

/// A probability as a threshold on a 53-bit draw.
fn threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64) as u64
}

impl RoundFaults {
    /// True when the round has any message fault that can fire.
    pub(crate) fn active(&self) -> bool {
        self.drop_below > 0 || self.dup_below > 0 || self.reorder
    }

    /// The fate of the `ordinal`-th message (0-based) `src` sends `dst`
    /// this round, as the number of copies delivered: 0 (dropped), 1, or
    /// 2 (duplicated, the copy beside the original). A pure function of
    /// the message's identity — nothing else sent this round, and no
    /// layout, can change it.
    pub(crate) fn fate(&self, src: NodeId, dst: NodeId, ordinal: u64) -> usize {
        let id = mix(mix(mix(self.key ^ src) ^ dst) ^ ordinal);
        let draw = |domain: u64| mix(id ^ domain) >> 11;
        if draw(DROP) < self.drop_below {
            0
        } else if draw(DUPLICATE) < self.dup_below {
            2
        } else {
            1
        }
    }

    /// Permutes `dst`'s surviving arrivals in a reorder window, by an RNG
    /// keyed on `(scenario seed, round, dst)`; returns whether it did
    /// (a bucket of fewer than two is left alone).
    pub(crate) fn shuffle(&self, dst: NodeId, arrivals: &mut [WireEnvelope]) -> bool {
        if !self.reorder || arrivals.len() < 2 {
            return false;
        }
        let seed = mix(mix(self.key ^ SHUFFLE) ^ dst);
        arrivals.shuffle(&mut SmallRng::seed_from_u64(seed));
        true
    }
}

impl FaultWindows {
    /// Resolves the faults in force at `round`.
    pub(crate) fn at(&self, round: u64) -> RoundFaults {
        let strongest = |windows: &[(u64, u64, f64)]| {
            let rate = windows
                .iter()
                .filter(|&&(from, to, _)| (from..=to).contains(&round))
                .fold(0.0f64, |acc, &(_, _, rate)| acc.max(rate));
            threshold(rate)
        };
        RoundFaults {
            key: mix(mix(self.seed) ^ round),
            drop_below: strongest(&self.drops),
            dup_below: strongest(&self.dups),
            reorder: self
                .reorders
                .iter()
                .any(|&(from, to)| (from..=to).contains(&round)),
        }
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

/// Per-round message-fault tally of one shard's fault pass, summed over
/// the shards and folded into the round's delivered/word accounting (and
/// the [`FaultInjected`](crate::RunEvent::FaultInjected) narration).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FaultTally {
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
    pub(crate) reordered: u64,
    /// Words the duplicates added less the words the drops removed.
    pub(crate) words: i64,
}

impl FaultTally {
    /// Counts `env`'s fate, as [`RoundFaults::fate`] returned it.
    pub(crate) fn count(&mut self, env: &WireEnvelope, copies: usize) {
        self.dropped += u64::from(copies == 0);
        self.duplicated += u64::from(copies == 2);
        self.words += (copies as i64 - 1) * env.msg.size_words() as i64;
    }

    /// This tally plus another shard's.
    pub(crate) fn add(mut self, other: &FaultTally) -> Self {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.words += other.words;
        self
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

/// The scenario runtime one engine run owns: the compiled schedule and
/// its timeline cursors.
#[derive(Debug)]
pub(crate) struct ScenarioRt {
    compiled: CompiledScenario,
    pre_cursor: usize,
    post_cursor: usize,
}

impl ScenarioRt {
    pub(crate) fn new(compiled: CompiledScenario) -> Self {
        ScenarioRt {
            compiled,
            pre_cursor: 0,
            post_cursor: 0,
        }
    }

    /// Slots that must be built parked (joining nodes), by dense index.
    pub(crate) fn starts_parked(&self, dense: u32) -> bool {
        self.compiled.join_dense.binary_search(&dense).is_ok()
    }

    /// The message faults in force at `round`.
    pub(crate) fn faults(&self, round: u64) -> RoundFaults {
        self.compiled.windows.at(round)
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
    fn quiet_rounds_leave_buckets_untouched() {
        let s = Scenario::new(42).drop_messages(5..=6, 1.0);
        let rt = ScenarioRt::new(s.compile(|n| n as u32));
        assert!(!rt.faults(3).active());
        assert!(rt.faults(5).active());
        assert_eq!(rt.faults(5).drop_below, 1 << 53);
    }

    #[test]
    fn overlapping_windows_take_the_strongest_rate() {
        let s = Scenario::new(0)
            .drop_messages(0..=10, 0.1)
            .drop_messages(5..=6, 0.9);
        let rt = ScenarioRt::new(s.compile(|n| n as u32));
        assert_eq!(rt.faults(5).drop_below, threshold(0.9));
        assert_eq!(rt.faults(7).drop_below, threshold(0.1));
    }

    /// The faults of `round` under drop rate `drop` and duplicate rate
    /// `dup`, every round a reorder round.
    fn faults(drop: f64, dup: f64, round: u64) -> RoundFaults {
        let s = Scenario::new(7)
            .drop_messages(0..=u64::MAX, drop)
            .duplicate_messages(0..=u64::MAX, dup)
            .reorder(0..=u64::MAX);
        s.fault_windows().at(round)
    }

    /// `count` message identities, varied in every component.
    fn identities(count: u64) -> impl Iterator<Item = (NodeId, NodeId, u64)> {
        (0..count).map(|k| (k % 97 + 1, k / 97 % 89 + 1_000, k / (97 * 89)))
    }

    #[test]
    fn rate_zero_never_fires_and_rate_one_always_does() {
        // Rate 1 is 2⁵³, above every 53-bit draw: no float edge at 1.0.
        assert_eq!(threshold(1.0), 1 << 53);
        assert!(u64::MAX >> 11 < threshold(1.0));
        assert_eq!(threshold(0.0), 0);
        for round in [0, 1, 1 << 40] {
            let (quiet, lost, doubled) = (
                faults(0.0, 0.0, round),
                faults(1.0, 1.0, round),
                faults(0.0, 1.0, round),
            );
            for (src, dst, ordinal) in identities(20_000) {
                assert_eq!(quiet.fate(src, dst, ordinal), 1);
                assert_eq!(lost.fate(src, dst, ordinal), 0);
                assert_eq!(doubled.fate(src, dst, ordinal), 2);
            }
        }
    }

    #[test]
    fn fates_land_within_four_sigma_of_the_rates() {
        let (drop, dup, count) = (0.1, 0.2, 100_000u64);
        let f = faults(drop, dup, 3);
        let mut copies = [0u64; 3];
        for (src, dst, ordinal) in identities(count) {
            copies[f.fate(src, dst, ordinal)] += 1;
        }
        // Drops over every message; duplicates over the survivors.
        let within = |hits: u64, trials: u64, p: f64| {
            let (mean, sigma) = (trials as f64 * p, (trials as f64 * p * (1.0 - p)).sqrt());
            assert!(
                (hits as f64 - mean).abs() <= 4.0 * sigma,
                "{hits} of {trials} at rate {p}"
            );
        };
        within(copies[0], count, drop);
        within(copies[2], count - copies[0], dup);
    }

    #[test]
    fn every_component_of_the_identity_moves_the_fate() {
        let f = faults(0.5, 0.5, 9);
        let differ = |g: &dyn Fn(NodeId, NodeId, u64) -> usize| {
            identities(5_000).any(|(src, dst, k)| g(src, dst, k) != f.fate(src, dst, k))
        };
        assert!(differ(&|src, dst, k| f.fate(src + 1, dst, k)));
        assert!(differ(&|src, dst, k| f.fate(src, dst + 1, k)));
        assert!(differ(&|src, dst, k| f.fate(src, dst, k + 1)));
        assert!(differ(&|src, dst, k| faults(0.5, 0.5, 10).fate(src, dst, k)));
    }

    #[test]
    fn the_keyed_shuffle_is_a_permutation_fixed_by_round_and_destination() {
        use crate::wire::WireMsg;
        let arrivals: Vec<WireEnvelope> = (0..40)
            .map(|src| WireEnvelope {
                src,
                msg: WireMsg::signal(0),
            })
            .collect();
        let shuffled = |f: RoundFaults, dst: NodeId| {
            let mut span = arrivals.clone();
            assert!(f.shuffle(dst, &mut span));
            span.iter().map(|e| e.src).collect::<Vec<_>>()
        };
        let f = faults(0.0, 0.0, 4);
        let once = shuffled(f, 17);
        let mut sorted = once.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>(), "a permutation");
        assert_ne!(once, sorted, "and not the identity");
        // Whoever applies it — either engine — gets the same order.
        assert_eq!(once, shuffled(f, 17));
        assert_ne!(once, shuffled(f, 18), "keyed on the destination");
        assert_ne!(once, shuffled(faults(0.0, 0.0, 5), 17), "and the round");
        // Outside a reorder window, and below two arrivals, no shuffle.
        let quiet = Scenario::new(7).fault_windows().at(4);
        assert!(!quiet.shuffle(17, &mut arrivals.clone()));
        assert!(!f.shuffle(17, &mut arrivals[..1].to_vec()));
    }
}
