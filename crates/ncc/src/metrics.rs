//! Round/message metrics gathered by the engine.
//!
//! The theorems in the paper are statements about *rounds* (and implicitly
//! about message budgets), so the metrics are the primary experimental
//! output of every run — the simulator is the measurement instrument.

use crate::error::{SimError, Violation, ViolationKind};

/// Maximum number of concrete violation records kept for diagnostics.
pub(crate) const VIOLATION_SAMPLE_LIMIT: usize = 16;

/// Maximum rounds recorded in [`RunMetrics::messages_per_round`]. The
/// per-round trace is a diagnostic; capping it keeps the engines' round
/// loops free of unbounded `Vec` growth (the batched executor pre-reserves
/// exactly this capacity, so recording a round never allocates).
pub const ROUND_TRACE_LIMIT: usize = 4096;

/// Counters for the different violation kinds (meaningful under
/// [`CapacityPolicy::Record`](crate::CapacityPolicy::Record), where runs
/// continue past violations).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViolationCounts {
    /// Send-capacity overshoots.
    pub send_capacity: u64,
    /// Receive-capacity overshoots.
    pub receive_capacity: u64,
    /// Oversized messages.
    pub message_too_large: u64,
    /// KT0 addressing violations.
    pub unknown_addressee: u64,
    /// KT0 carried-address violations.
    pub unknown_carried: u64,
    /// Sends to nonexistent or terminated nodes.
    pub bad_recipient: u64,
}

impl ViolationCounts {
    /// Total number of recorded violations.
    pub fn total(&self) -> u64 {
        self.send_capacity
            + self.receive_capacity
            + self.message_too_large
            + self.unknown_addressee
            + self.unknown_carried
            + self.bad_recipient
    }
}

/// One entry of the per-phase round breakdown: a protocol-declared macro
/// phase and the rounds spent in it. Derived from the event stream's
/// [`PhaseChange`](crate::RunEvent::PhaseChange) events by the
/// [`MetricsRecorder`](crate::MetricsRecorder) fold; when the protocol
/// marks its first phase at round 0 the entries sum to the total round
/// count (asserted at scale for `Ncc0Exact` in `tests/scale.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseRounds {
    /// The phase label the protocol declared.
    pub phase: &'static str,
    /// Rounds spent in this phase.
    pub rounds: u64,
}

/// Aggregate metrics of a completed run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Number of synchronous rounds executed.
    pub rounds: u64,
    /// Total messages delivered over the whole run.
    pub messages: u64,
    /// Total message volume in machine words (tag + words + addrs).
    pub words: u64,
    /// Maximum messages sent by any single node in any single round.
    pub max_sent_per_round: usize,
    /// Maximum messages delivered to any single node in any single round.
    pub max_received_per_round: usize,
    /// Maximum length any receive queue reached (only non-zero under the
    /// [`Queue`](crate::CapacityPolicy::Queue) policy).
    pub max_queue_len: usize,
    /// Messages still undelivered when the run ended (queued for terminated
    /// nodes; indicates a protocol that stopped listening too early).
    pub undelivered: u64,
    /// The per-round capacity that was enforced.
    pub capacity: usize,
    /// Largest knowledge set any node accumulated (0 when tracking is off).
    /// This is the information-theoretic quantity behind the paper's lower
    /// bounds: realizing a heavy node forces it to learn many IDs.
    pub max_knowledge: usize,
    /// Violation counters (all zero on a clean strict run).
    pub violations: ViolationCounts,
    /// Sample of concrete violations (first few, for diagnostics).
    pub violation_samples: Vec<Violation>,
    /// Messages delivered per round (index = round). Enables congestion
    /// profiles over time; truncated after [`ROUND_TRACE_LIMIT`] rounds.
    pub messages_per_round: Vec<u64>,
    /// Per-phase round breakdown for protocols that mark their phases
    /// (the composed Algorithm 6). Empty when the protocol never marks.
    /// Engine-invariant: both engines derive it from the same event
    /// stream, so differential comparisons include it.
    pub phase_rounds: Vec<PhaseRounds>,
}

/// A completed run's assembled output, with the executor's statistics:
/// what a [`Job`](crate::Job) yields when it closes.
#[derive(Clone, Debug)]
pub struct EngineRun<T> {
    /// The assembled output.
    pub output: T,
    /// Executor-internal statistics ([`EngineStats`]).
    pub engine: EngineStats,
}

/// Executor-internal statistics of a completed run. Unlike [`RunMetrics`]
/// these are **not** part of the model semantics — the reference
/// interpreter reports only the scenario counters, which fold out of the
/// event stream — so they live outside the metrics the differential
/// tests compare. They exist to make the batched executor's
/// machinery (live-slot compaction, dense-vs-sparse round classification,
/// the ownership-shard layout, the dense masked remap, the scenario
/// engine) observable and testable.
///
/// Every counter is deterministic given the configuration — `shards`,
/// `shard_windows` and `cross_shard_messages` additionally depend on the
/// worker count when the shard count is derived. The `*_nanos` phase
/// timings are wall clock and must never be compared across runs. They
/// follow one rule: each covers exactly its per-shard phase plus the
/// coordinator's journal replay for it, and nothing else — scenario
/// churn, retirement, protocol marks, compaction, the scenario **fault
/// pass** and round narration belong to no phase (callers that want
/// them subtract the five timers from the round loop's wall clock).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Number of live-slot compactions the step phase performed.
    pub compactions: u64,
    /// Live-slot count recorded at each compaction, in order. Strictly
    /// decreasing by construction (a compaction fires only once the live
    /// count has at least halved since the previous one).
    pub compaction_live: Vec<usize>,
    /// Rounds classified sparse ([`RouteMode::Inline`](crate::RouteMode)).
    /// The classification depends only on the previous round's delivered
    /// volume and the live slot window, so it is identical for every
    /// worker and shard count.
    pub inline_route_rounds: u64,
    /// Rounds classified dense ([`RouteMode::Parallel`](crate::RouteMode)).
    pub parallel_route_rounds: u64,
    /// Size of the dense per-node index space the run allocated its
    /// engine arrays (routing counts, queue spans, knowledge regions,
    /// aliveness) for: the participant count `k` — equal to `n` on
    /// unmasked runs, the sub-network size on masked runs. The dense
    /// masked remap's memory claim is asserted through this.
    pub dense_index_space: usize,
    /// Final knowledge-arena length in IDs (0 when tracking is off).
    /// Scales with `dense_index_space`, not network size.
    pub knowledge_arena: usize,
    /// Wall-clock nanoseconds spent in the step phase across the run.
    pub step_nanos: u64,
    /// Wall-clock nanoseconds spent in the seal: send validation,
    /// destination counting, diverting cross-shard sends into the
    /// exchange cells, and the violation-journal replay.
    pub route_nanos: u64,
    /// Wall-clock nanoseconds spent in queue delivery / capacity checks.
    pub deliver_nanos: u64,
    /// Wall-clock nanoseconds spent in the learn sweep (0 on untracked runs, which skip it).
    pub learn_nanos: u64,
    /// Ownership shards the run executed with: the explicit
    /// [`Config::shards`](crate::Config::shards) clamped to the
    /// participant count, or the count derived from participants and
    /// workers. Always at least 1.
    pub shards: usize,
    /// Dense-index span width each shard owned at run start — the
    /// ownership map, one entry per shard, summing to
    /// `dense_index_space` (`[k]` for a one-shard run).
    pub shard_windows: Vec<usize>,
    /// Envelopes that crossed a shard boundary through the exchange
    /// phase over the whole run. A pure function of the transcript and
    /// the shard count (0 exactly when the run had one shard or no
    /// traffic crossed a boundary).
    pub cross_shard_messages: u64,
    /// Wall-clock nanoseconds spent in the exchange phase: counting the
    /// incoming cells, each shard's bucket prefix sums, and the canonical
    /// splice of cells and own staged spans into the delivery buckets (the
    /// scatter half of routing — present on one-shard runs too), then, in
    /// a fault window, each shard's scenario fault pass.
    pub exchange_nanos: u64,
    /// Sealed messages discarded by the scenario engine's drop faults.
    /// Deterministic given `(seed, scenario)` — folded from the
    /// [`FaultInjected`](crate::RunEvent::FaultInjected) narration, like
    /// every other scenario counter below (all 0 on scenario-free runs).
    pub faults_dropped: u64,
    /// Extra copies injected by the scenario engine's duplicate faults.
    pub faults_duplicated: u64,
    /// Destination buckets whose fresh FIFO prefix the scenario engine
    /// permuted (queue policy only).
    pub faults_reordered: u64,
    /// Nodes crash-stopped by the scenario schedule.
    pub crashes: u64,
    /// Nodes brought back by the scenario schedule after a scheduled
    /// crash (crash-recovery, not crash-stop).
    pub recoveries: u64,
    /// Nodes that joined the run mid-protocol through the scenario
    /// schedule's churn events.
    pub joins: u64,
    /// Where the executor's memory stood when the round loop ended.
    pub footprint: Footprint,
}

/// Heap bytes the batched executor holds, structure by structure, taken
/// once after the last round as `capacity() × size_of` — every buffer of
/// the round loop keeps its high-water capacity, so this is the loop's
/// peak (what a protocol's own state allocates is not in it). Purely
/// observational, like the rest of [`EngineStats`]: no allocator hook,
/// nothing on the transcript path; a function of the transcript and the
/// shard count, equal at every worker count. All zero on the reference
/// interpreter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The slot arrays: `size_of::<Slot<P>>()` a participant.
    pub slots: usize,
    /// The per-shard staging arenas a round's sends are written into.
    pub staging: usize,
    /// Routing buffers: the delivery arenas (every inbox, the spill region)
    /// and the three `u32` bucket tables (counts, starts, cursors).
    pub route: usize,
    /// Queue-policy backlog: the double-buffered arenas and the spans.
    pub queues: usize,
    /// The `[src][dst]` exchange cells.
    pub cells: usize,
    /// KT0 tracker: knowledge arenas plus the region headers.
    pub knowledge: usize,
    /// Run-wide index tables: the network's ID list and resolver, the
    /// aliveness map, the masked dense remap, NCC1's sorted ID list.
    pub tables: usize,
    /// Outputs of retired slots moved aside by compaction.
    pub retired_outputs: usize,
}

impl Footprint {
    /// Sum over all structures, in bytes.
    pub fn total(&self) -> usize {
        let Footprint {
            slots,
            staging,
            route,
            queues,
            cells,
            knowledge,
            tables,
            retired_outputs,
        } = *self;
        slots + staging + route + queues + cells + knowledge + tables + retired_outputs
    }
}

/// Heap bytes behind a vector: `capacity() × size_of`.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl RunMetrics {
    /// Closes out one executed round: accumulates the message count and
    /// appends to the (capped) per-round trace. Shared by both engines so
    /// their round accounting stays bit-identical.
    pub(crate) fn record_round(&mut self, messages: u64) {
        self.messages += messages;
        if self.messages_per_round.len() < ROUND_TRACE_LIMIT {
            self.messages_per_round.push(messages);
        }
        self.rounds += 1;
    }

    /// Counts a violation (and samples the first few); fatal when `strict`.
    /// Shared by both engines so their violation accounting is identical.
    pub(crate) fn record_violation(&mut self, strict: bool, v: Violation) -> Result<(), SimError> {
        let counts = &mut self.violations;
        match v.kind {
            ViolationKind::SendCapacity { .. } => counts.send_capacity += 1,
            ViolationKind::ReceiveCapacity { .. } => counts.receive_capacity += 1,
            ViolationKind::MessageTooLarge { .. } => counts.message_too_large += 1,
            ViolationKind::UnknownAddressee { .. } => counts.unknown_addressee += 1,
            ViolationKind::UnknownCarriedAddress { .. } => counts.unknown_carried += 1,
            ViolationKind::NoSuchNode { .. } | ViolationKind::DeadRecipient { .. } => {
                counts.bad_recipient += 1
            }
        }
        if self.violation_samples.len() < VIOLATION_SAMPLE_LIMIT {
            self.violation_samples.push(v.clone());
        }
        if strict {
            return Err(SimError::Violation(v));
        }
        Ok(())
    }

    /// True when the run obeyed every model constraint.
    pub fn is_clean(&self) -> bool {
        self.violations.total() == 0 && self.undelivered == 0
    }

    /// Average messages per round (0 for an empty run).
    pub fn avg_messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_all_kinds() {
        let v = ViolationCounts {
            send_capacity: 1,
            receive_capacity: 2,
            message_too_large: 3,
            unknown_addressee: 4,
            unknown_carried: 5,
            bad_recipient: 6,
        };
        assert_eq!(v.total(), 21);
    }

    #[test]
    fn clean_run_detection() {
        let mut m = RunMetrics::default();
        assert!(m.is_clean());
        m.undelivered = 1;
        assert!(!m.is_clean());
        m.undelivered = 0;
        m.violations.send_capacity = 1;
        assert!(!m.is_clean());
    }

    #[test]
    fn average_is_safe_on_empty() {
        let m = RunMetrics::default();
        assert_eq!(m.avg_messages_per_round(), 0.0);
        let m = RunMetrics {
            rounds: 4,
            messages: 10,
            ..Default::default()
        };
        assert!((m.avg_messages_per_round() - 2.5).abs() < 1e-12);
    }
}
