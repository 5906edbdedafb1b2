//! The typed run-event stream: one source of truth for everything that
//! happens during a protocol run.
//!
//! Both engines — the batched executor (`shard.rs`) and the reference
//! interpreter (`reference.rs`) — narrate a run as a sequence of [`RunEvent`]s pushed
//! into a [`Sink`]. The stream is **engine-invariant in its semantic
//! projection** ([`RunEvent::semantic`]): for the same protocol, config
//! and seed, the two engines emit the same semantic events in the same
//! order — the bit-identical-transcript guarantee extended to events.
//! Executor scheduling detail (the adaptive routing path of a round, slot
//! compactions) rides the same stream but is explicitly outside the
//! semantic projection.
//!
//! The stream is also the *only* source of the executor-internal
//! statistics: [`EngineStats`] is derived by folding the events through a
//! [`MetricsRecorder`] — the engines no longer keep separate counters, so
//! the stats can never drift from what the stream says happened. The same
//! fold produces the per-phase round breakdown
//! ([`RunMetrics::phase_rounds`](crate::RunMetrics)).
//!
//! Event ordering within one completed round `r`:
//!
//! 1. [`RunEvent::NodeJoined`] / [`RunEvent::NodeRecovered`] — scenario
//!    churn applied before the round's step phase, in schedule order;
//! 2. [`RunEvent::PhaseChange`] / [`RunEvent::StageTransition`] — protocol
//!    marks from the round's step phase (deduplicated: only *changes*
//!    are emitted, in dense node-index order);
//! 3. [`RunEvent::NodeCrashed`] — scenario crashes taking effect after
//!    the round's step phase, in schedule order;
//! 4. [`RunEvent::Compaction`] — batched executor only;
//! 5. [`RunEvent::FaultInjected`] — the round's message-fault tally,
//!    emitted only when the scenario engine perturbed something;
//! 6. [`RunEvent::RoundCompleted`].
//!
//! One [`RunEvent::Done`] closes the engine stream; driver-level events
//! (certification) may follow it on the same sink.

use crate::metrics::{EngineStats, PhaseRounds};

/// The batched executor's dense/sparse classification of a round. A pure
/// function of the previous round's delivered volume and the live slot
/// window — invariant under worker and shard counts, so event streams
/// stay bit-identical across layouts. Narration only: how a round is
/// scheduled depends on the shard layout, never on this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteMode {
    /// Sparse round: little traffic relative to the live population.
    Inline,
    /// Dense round: the previous round delivered at least 2048 messages
    /// and a quarter of a message per live node.
    Parallel,
    /// The engine does not classify rounds (the reference interpreter).
    Unspecified,
}

/// One event in a run's stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// A synchronous round finished. `round` is 0-based; `delivered` is
    /// the number of messages delivered this round; `live` is the number
    /// of nodes still running after the round's step phase. `route_mode`
    /// is executor scheduling detail (see [`RunEvent::semantic`]).
    RoundCompleted {
        /// 0-based index of the completed round.
        round: u64,
        /// Messages delivered this round.
        delivered: u64,
        /// Nodes still live after the round's step phase.
        live: usize,
        /// Routing path the batched executor chose (scheduling detail).
        route_mode: RouteMode,
    },
    /// The protocol moved to a new internal stage (fine-grained marker,
    /// [`RoundCtx::mark_stage`](crate::RoundCtx::mark_stage)).
    StageTransition {
        /// Round in which the transition was observed.
        round: u64,
        /// Stage label.
        stage: &'static str,
    },
    /// The protocol entered a new macro phase (Algorithm 6's
    /// data-dependent phases;
    /// [`RoundCtx::mark_phase`](crate::RoundCtx::mark_phase)). Drives the
    /// per-phase round breakdown in
    /// [`RunMetrics::phase_rounds`](crate::RunMetrics).
    PhaseChange {
        /// Round in which the phase began.
        round: u64,
        /// Phase label.
        phase: &'static str,
    },
    /// The batched executor compacted its live-slot window (a memory
    /// layout decision; never semantic).
    Compaction {
        /// Round during which the compaction fired.
        round: u64,
        /// Live slots surviving the compaction.
        live: usize,
    },
    /// The scenario engine perturbed this round's sealed traffic. Emitted
    /// at most once per round, only when some counter is non-zero — so an
    /// empty schedule leaves the stream bit-identical to a scenario-free
    /// run. Deterministic given `(seed, scenario)`: each message's fault
    /// is a function of the message alone, worker- and shard-invariant.
    FaultInjected {
        /// Round whose sealed traffic was perturbed.
        round: u64,
        /// Sealed messages discarded before delivery.
        dropped: u64,
        /// Extra copies injected before delivery.
        duplicated: u64,
        /// Destination buckets whose fresh FIFO prefix was permuted
        /// (queue policy only).
        reordered: u64,
    },
    /// A node was crash-stopped (or crash-paused, when a matching
    /// [`NodeRecovered`](RunEvent::NodeRecovered) follows) by the
    /// scenario schedule. Takes effect after the node's step in `round`:
    /// the node participates in `round` and is unreachable thereafter —
    /// exactly the observable footprint of a protocol that voluntarily
    /// halts at `round`.
    NodeCrashed {
        /// Round after whose step phase the node went down.
        round: u64,
        /// Path position of the node (the schedule's addressing space).
        node: usize,
    },
    /// A crashed node came back at the start of `round` per the scenario
    /// schedule: its step machine resumes where it stopped, its queued
    /// backlog survives, and messages sent while it was down are gone.
    NodeRecovered {
        /// Round at whose start the node rejoined.
        round: u64,
        /// Path position of the node.
        node: usize,
    },
    /// A scheduled churn join: the node sat out every earlier round
    /// (unreachable, like a dead node) and starts its protocol at `round`.
    NodeJoined {
        /// Round at whose start the node began participating.
        round: u64,
        /// Path position of the node.
        node: usize,
    },
    /// Driver-level: the max-flow certification began.
    CertificationStarted {
        /// Number of nodes whose thresholds are being certified.
        nodes: usize,
    },
    /// Driver-level: the max-flow certification finished.
    CertificationResult {
        /// Did every checked pair satisfy its threshold?
        satisfied: bool,
        /// Number of node pairs flow-checked.
        pairs_checked: usize,
    },
    /// The engine's round loop finished (all nodes retired). Driver-level
    /// events may still follow on the same sink.
    Done {
        /// Total rounds executed.
        rounds: u64,
        /// Total messages delivered.
        messages: u64,
    },
}

impl RunEvent {
    /// The engine-invariant projection of this event: strips the
    /// executor-scheduling detail (`route_mode`) and drops executor-only
    /// events ([`RunEvent::Compaction`]). Two engines running the same
    /// protocol emit streams whose semantic projections are identical —
    /// the differential suites hold them to it.
    pub fn semantic(&self) -> Option<RunEvent> {
        match self {
            RunEvent::Compaction { .. } => None,
            RunEvent::RoundCompleted {
                round,
                delivered,
                live,
                ..
            } => Some(RunEvent::RoundCompleted {
                round: *round,
                delivered: *delivered,
                live: *live,
                route_mode: RouteMode::Unspecified,
            }),
            other => Some(other.clone()),
        }
    }

    /// One JSON object describing the event (hand-rolled: the workspace
    /// is offline, and every field is a number, bool or label — labels
    /// are string-escaped, since protocols may mark arbitrary text).
    pub fn to_json(&self) -> String {
        fn esc(label: &str) -> std::borrow::Cow<'_, str> {
            if label
                .chars()
                .all(|c| c != '"' && c != '\\' && !c.is_control())
            {
                return label.into();
            }
            let mut out = String::with_capacity(label.len() + 8);
            for c in label.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.into()
        }
        match self {
            RunEvent::RoundCompleted {
                round,
                delivered,
                live,
                route_mode,
            } => format!(
                "{{\"event\":\"round\",\"round\":{round},\"delivered\":{delivered},\
                 \"live\":{live},\"route\":\"{}\"}}",
                match route_mode {
                    RouteMode::Inline => "inline",
                    RouteMode::Parallel => "parallel",
                    RouteMode::Unspecified => "unspecified",
                }
            ),
            RunEvent::StageTransition { round, stage } => {
                format!(
                    "{{\"event\":\"stage\",\"round\":{round},\"stage\":\"{}\"}}",
                    esc(stage)
                )
            }
            RunEvent::PhaseChange { round, phase } => {
                format!(
                    "{{\"event\":\"phase\",\"round\":{round},\"phase\":\"{}\"}}",
                    esc(phase)
                )
            }
            RunEvent::Compaction { round, live } => {
                format!("{{\"event\":\"compaction\",\"round\":{round},\"live\":{live}}}")
            }
            RunEvent::FaultInjected {
                round,
                dropped,
                duplicated,
                reordered,
            } => format!(
                "{{\"event\":\"fault\",\"round\":{round},\"dropped\":{dropped},\
                 \"duplicated\":{duplicated},\"reordered\":{reordered}}}"
            ),
            RunEvent::NodeCrashed { round, node } => {
                format!("{{\"event\":\"node_crashed\",\"round\":{round},\"node\":{node}}}")
            }
            RunEvent::NodeRecovered { round, node } => {
                format!("{{\"event\":\"node_recovered\",\"round\":{round},\"node\":{node}}}")
            }
            RunEvent::NodeJoined { round, node } => {
                format!("{{\"event\":\"node_joined\",\"round\":{round},\"node\":{node}}}")
            }
            RunEvent::CertificationStarted { nodes } => {
                format!("{{\"event\":\"certification_started\",\"nodes\":{nodes}}}")
            }
            RunEvent::CertificationResult {
                satisfied,
                pairs_checked,
            } => format!(
                "{{\"event\":\"certification_result\",\"satisfied\":{satisfied},\
                 \"pairs_checked\":{pairs_checked}}}"
            ),
            RunEvent::Done { rounds, messages } => {
                format!("{{\"event\":\"done\",\"rounds\":{rounds},\"messages\":{messages}}}")
            }
        }
    }
}

/// The semantic projection of a whole stream (see [`RunEvent::semantic`]).
pub fn semantic_stream(events: &[RunEvent]) -> Vec<RunEvent> {
    events.iter().filter_map(RunEvent::semantic).collect()
}

/// Reborrows an optional sink so it can be handed to a callee without
/// giving it up — the standard move for drivers that run an engine and
/// then keep emitting driver-level events into the same sink.
pub fn reborrow<'a, 'b: 'a>(
    sink: &'a mut Option<&'b mut (dyn Sink + 'b)>,
) -> Option<&'a mut (dyn Sink + 'a)> {
    match sink {
        Some(s) => Some(&mut **s),
        None => None,
    }
}

/// A consumer of [`RunEvent`]s. Sinks are driven from the engine's
/// coordinating thread, strictly in stream order, and are lent to each
/// call that steps a run rather than stored in it. `Send` so that a run
/// and its observer — a facade `Realization` or `RunSession` — can move
/// to another thread between rounds.
pub trait Sink: Send {
    /// Receives one event. Called synchronously from the engine's round
    /// loop — a slow sink slows the run.
    fn emit(&mut self, event: &RunEvent);
}

/// Queues the stream for a consumer that pulls it one event at a time
/// (the facade's streaming session).
impl Sink for std::collections::VecDeque<RunEvent> {
    fn emit(&mut self, event: &RunEvent) {
        self.push_back(event.clone());
    }
}

/// Discards every event. The zero-cost way to exercise the observed code
/// path; `engine_bench` holds its round-loop overhead under 2%.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&mut self, _event: &RunEvent) {}
}

/// Folds a stream into aggregate statistics: [`EngineStats`], the
/// per-phase round breakdown, and round/message totals. This is the
/// **only** producer of [`EngineStats`] — both engines derive their
/// reported stats by running one of these internally, so the stats are a
/// pure function of the event stream.
#[derive(Clone, Debug, Default)]
pub struct MetricsRecorder {
    rounds: u64,
    messages: u64,
    stats: EngineStats,
    phases: Vec<PhaseRounds>,
    open_phase: Option<(&'static str, u64)>,
    finished: bool,
}

impl MetricsRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Messages delivered so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// True once the stream's [`RunEvent::Done`] has been folded.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The executor-internal statistics derived from the stream.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats.clone()
    }

    /// The per-phase round breakdown: one entry per
    /// [`RunEvent::PhaseChange`], charged the rounds up to the next phase
    /// (or the end of the run). When the first phase is marked at round 0
    /// the entries sum to the total round count. A still-open phase is
    /// charged the rounds seen so far.
    pub fn phase_rounds(&self) -> Vec<PhaseRounds> {
        let mut phases = self.phases.clone();
        if let Some((phase, start)) = self.open_phase {
            phases.push(PhaseRounds {
                phase,
                rounds: self.rounds - start,
            });
        }
        phases
    }
}

impl Sink for MetricsRecorder {
    fn emit(&mut self, event: &RunEvent) {
        match *event {
            RunEvent::RoundCompleted {
                round,
                delivered,
                route_mode,
                ..
            } => {
                self.rounds = round + 1;
                self.messages += delivered;
                match route_mode {
                    RouteMode::Inline => self.stats.inline_route_rounds += 1,
                    RouteMode::Parallel => self.stats.parallel_route_rounds += 1,
                    RouteMode::Unspecified => {}
                }
            }
            RunEvent::Compaction { live, .. } => {
                self.stats.compactions += 1;
                self.stats.compaction_live.push(live);
            }
            RunEvent::PhaseChange { round, phase } => {
                if let Some((open, start)) = self.open_phase.take() {
                    self.phases.push(PhaseRounds {
                        phase: open,
                        rounds: round - start,
                    });
                }
                self.open_phase = Some((phase, round));
            }
            RunEvent::FaultInjected {
                dropped,
                duplicated,
                reordered,
                ..
            } => {
                self.stats.faults_dropped += dropped;
                self.stats.faults_duplicated += duplicated;
                self.stats.faults_reordered += reordered;
            }
            RunEvent::NodeCrashed { .. } => self.stats.crashes += 1,
            RunEvent::NodeRecovered { .. } => self.stats.recoveries += 1,
            RunEvent::NodeJoined { .. } => self.stats.joins += 1,
            RunEvent::Done { rounds, .. } => {
                if let Some((open, start)) = self.open_phase.take() {
                    self.phases.push(PhaseRounds {
                        phase: open,
                        rounds: rounds - start,
                    });
                }
                self.finished = true;
            }
            _ => {}
        }
    }
}

/// Records the raw stream. Clones share one buffer, so a test (or
/// operator script) can keep a handle while the builder consumes the
/// sink: `realization.observe(recording.clone())`.
#[derive(Clone, Debug, Default)]
// detlint: allow(relaxed-atomic) — the engines emit into sinks sequentially from the round loop (single writer); the lock exists so tests can snapshot the buffer after the run, and contention can therefore never reorder events
pub struct Recording(std::sync::Arc<std::sync::Mutex<Vec<RunEvent>>>);

impl Recording {
    /// A fresh, empty recording.
    pub fn new() -> Self {
        Recording::default()
    }

    /// A snapshot of the events recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the buffer panicked mid-push.
    pub fn events(&self) -> Vec<RunEvent> {
        self.0.lock().expect("recording poisoned").clone()
    }
}

impl Sink for Recording {
    fn emit(&mut self, event: &RunEvent) {
        self.0
            .lock()
            .expect("recording poisoned")
            .push(event.clone());
    }
}

/// Streams every event as one JSON object per line — the
/// machine-readable live feed (pipe it to a file, a socket, `jq`).
/// Write errors are sticky and silent: observability must never abort a
/// six-digit run half-way through.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: W,
    failed: bool,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Streams events into `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            failed: false,
        }
    }

    /// True if any write failed (the sink stopped emitting).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Recovers the writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write + Send> Sink for JsonlSink<W> {
    fn emit(&mut self, event: &RunEvent) {
        if self.failed {
            return;
        }
        if writeln!(self.writer, "{}", event.to_json()).is_err() {
            self.failed = true;
        }
    }
}

/// Human-readable progress lines: every `every`-th round, every phase
/// change, and the final summary. The default target is stderr — watch a
/// six-digit run live instead of post-hoc.
#[derive(Debug)]
pub struct ProgressSink<W: std::io::Write + Send> {
    writer: W,
    every: u64,
}

impl ProgressSink<std::io::Stderr> {
    /// Progress to stderr, one line per `every` rounds (0 = every round).
    pub fn stderr(every: u64) -> Self {
        ProgressSink::new(std::io::stderr(), every)
    }
}

impl<W: std::io::Write + Send> ProgressSink<W> {
    /// Progress into `writer`, one line per `every` rounds (0 = every
    /// round).
    pub fn new(writer: W, every: u64) -> Self {
        ProgressSink {
            writer,
            every: every.max(1),
        }
    }
}

impl<W: std::io::Write + Send> Sink for ProgressSink<W> {
    fn emit(&mut self, event: &RunEvent) {
        let _ = match event {
            // Rounds print 0-based, matching `PhaseChange`, `JsonlSink`
            // and `RoundSnapshot::round`.
            RunEvent::RoundCompleted {
                round,
                delivered,
                live,
                ..
            } if (round + 1) % self.every == 0 => writeln!(
                self.writer,
                "round {round:>8}: {delivered} delivered, {live} live"
            ),
            RunEvent::PhaseChange { round, phase } => {
                writeln!(self.writer, "round {:>8}: phase -> {phase}", round)
            }
            RunEvent::FaultInjected {
                round,
                dropped,
                duplicated,
                reordered,
            } => writeln!(
                self.writer,
                "round {round:>8}: faults injected \
                 ({dropped} dropped, {duplicated} duplicated, {reordered} reordered)"
            ),
            RunEvent::NodeCrashed { round, node } => {
                writeln!(self.writer, "round {round:>8}: node {node} crashed")
            }
            RunEvent::NodeRecovered { round, node } => {
                writeln!(self.writer, "round {round:>8}: node {node} recovered")
            }
            RunEvent::NodeJoined { round, node } => {
                writeln!(self.writer, "round {round:>8}: node {node} joined")
            }
            RunEvent::CertificationStarted { nodes } => {
                writeln!(self.writer, "certifying {nodes} nodes ...")
            }
            RunEvent::CertificationResult {
                satisfied,
                pairs_checked,
            } => writeln!(
                self.writer,
                "certification: satisfied={satisfied} ({pairs_checked} pairs)"
            ),
            RunEvent::Done { rounds, messages } => {
                writeln!(self.writer, "done: {rounds} rounds, {messages} messages")
            }
            _ => Ok(()),
        };
    }
}

/// The engines' internal emission point: every event goes through the
/// always-on [`MetricsRecorder`] (the sole source of [`EngineStats`] and
/// the phase breakdown) and then to the caller's sink, if any — lent to
/// each call, since a run outlives the calls that step it. Also owns the
/// mark deduplication both engines share, so their streams stay
/// bit-identical by construction.
#[derive(Default)]
pub(crate) struct Emitter {
    pub(crate) recorder: MetricsRecorder,
    last_phase: Option<&'static str>,
    last_stage: Option<&'static str>,
}

impl Emitter {
    pub(crate) fn emit(&mut self, sink: &mut Option<&mut dyn Sink>, event: RunEvent) {
        self.recorder.emit(&event);
        if let Some(sink) = sink {
            sink.emit(&event);
        }
    }

    /// Emits one node's round marks, suppressing repeats: only a *change*
    /// of phase/stage becomes an event. Engines call this in dense
    /// node-index order, so the deduplicated stream is canonical.
    pub(crate) fn emit_marks(
        &mut self,
        sink: &mut Option<&mut dyn Sink>,
        round: u64,
        phase: Option<&'static str>,
        stage: Option<&'static str>,
    ) {
        if let Some(phase) = phase {
            if self.last_phase != Some(phase) {
                self.last_phase = Some(phase);
                self.emit(sink, RunEvent::PhaseChange { round, phase });
            }
        }
        if let Some(stage) = stage {
            if self.last_stage != Some(stage) {
                self.last_stage = Some(stage);
                self.emit(sink, RunEvent::StageTransition { round, stage });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(round: u64, delivered: u64, live: usize, route_mode: RouteMode) -> RunEvent {
        RunEvent::RoundCompleted {
            round,
            delivered,
            live,
            route_mode,
        }
    }

    #[test]
    fn recorder_derives_engine_stats_from_the_stream() {
        let mut rec = MetricsRecorder::new();
        rec.emit(&round(0, 10, 4, RouteMode::Inline));
        rec.emit(&RunEvent::Compaction { round: 1, live: 2 });
        rec.emit(&round(1, 2000, 2, RouteMode::Parallel));
        rec.emit(&round(2, 1, 1, RouteMode::Inline));
        rec.emit(&RunEvent::Done {
            rounds: 3,
            messages: 2011,
        });
        let stats = rec.engine_stats();
        assert_eq!(stats.inline_route_rounds, 2);
        assert_eq!(stats.parallel_route_rounds, 1);
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.compaction_live, vec![2]);
        assert_eq!(rec.rounds(), 3);
        assert_eq!(rec.messages(), 2011);
        assert!(rec.finished());
    }

    #[test]
    fn recorder_breaks_rounds_down_by_phase() {
        let mut rec = MetricsRecorder::new();
        rec.emit(&RunEvent::PhaseChange {
            round: 0,
            phase: "setup",
        });
        for r in 0..5 {
            rec.emit(&round(r, 1, 8, RouteMode::Inline));
        }
        rec.emit(&RunEvent::PhaseChange {
            round: 5,
            phase: "work",
        });
        for r in 5..12 {
            rec.emit(&round(r, 1, 8, RouteMode::Inline));
        }
        rec.emit(&RunEvent::Done {
            rounds: 12,
            messages: 12,
        });
        let phases = rec.phase_rounds();
        assert_eq!(phases.len(), 2);
        assert_eq!((phases[0].phase, phases[0].rounds), ("setup", 5));
        assert_eq!((phases[1].phase, phases[1].rounds), ("work", 7));
        assert_eq!(
            phases.iter().map(|p| p.rounds).sum::<u64>(),
            rec.rounds(),
            "phase breakdown must sum to the total round count"
        );
    }

    #[test]
    fn semantic_projection_strips_scheduling_detail() {
        let events = vec![
            round(0, 5, 4, RouteMode::Parallel),
            RunEvent::Compaction { round: 1, live: 2 },
            round(1, 1, 2, RouteMode::Inline),
        ];
        let semantic = semantic_stream(&events);
        assert_eq!(
            semantic,
            vec![
                round(0, 5, 4, RouteMode::Unspecified),
                round(1, 1, 2, RouteMode::Unspecified),
            ]
        );
    }

    #[test]
    fn emitter_dedupes_repeated_marks() {
        let mut recording = Recording::new();
        {
            let (mut emitter, mut sink) =
                (Emitter::default(), Some(&mut recording as &mut dyn Sink));
            emitter.emit_marks(&mut sink, 0, Some("setup"), Some("establish"));
            emitter.emit_marks(&mut sink, 0, Some("setup"), Some("establish"));
            emitter.emit_marks(&mut sink, 3, Some("setup"), Some("sort"));
            emitter.emit_marks(&mut sink, 7, Some("work"), None);
        }
        assert_eq!(
            recording.events(),
            vec![
                RunEvent::PhaseChange {
                    round: 0,
                    phase: "setup"
                },
                RunEvent::StageTransition {
                    round: 0,
                    stage: "establish"
                },
                RunEvent::StageTransition {
                    round: 3,
                    stage: "sort"
                },
                RunEvent::PhaseChange {
                    round: 7,
                    phase: "work"
                },
            ]
        );
    }

    #[test]
    fn json_labels_are_escaped() {
        let event = RunEvent::StageTransition {
            round: 3,
            stage: "fan-in \"wide\"\\x",
        };
        assert_eq!(
            event.to_json(),
            "{\"event\":\"stage\",\"round\":3,\"stage\":\"fan-in \\\"wide\\\"\\\\x\"}"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&round(0, 3, 2, RouteMode::Inline));
        sink.emit(&RunEvent::Done {
            rounds: 1,
            messages: 3,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"event\":\"round\"") && lines[0].contains("\"route\":\"inline\"")
        );
        assert!(lines[1].contains("\"event\":\"done\""));
    }
}
