//! The benchmark-owned tracing layer: a [`Sink`] that timestamps every
//! [`RunEvent`] of one call, and the span tree built from those stamps.
//!
//! Spans are recorded from outside the program, at the boundaries the
//! public event stream exposes; nothing inside the engine is touched.
//! One traced call yields
//!
//! ```text
//! call                                  [call start, return]
//! ├── facade.pre_round                  [call start, first event]
//! ├── ncc.round_loop                    [first event, last Done]
//! │   └── connectivity.stage.<label>    [StageTransition, next one or Done]
//! └── connectivity.certify              [CertificationStarted, Result]
//! ```
//!
//! and `facade.assemble` is the *self time* of `call`: what is left of it
//! once its children are taken out (output assembly before, between and
//! after the round loop and the certification).

use crate::dgr::{RunEvent, Sink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Timestamped events of one call, shared between the sink handed to the
/// program and the benchmark that reads it back after the call.
pub type Stamped = Arc<Mutex<Vec<(u64, RunEvent)>>>;

/// Stamps every event with nanoseconds since `epoch` and keeps it in
/// memory; nothing is written or formatted while the call runs.
pub struct SpanSink {
    epoch: Instant,
    events: Stamped,
}

impl SpanSink {
    /// A sink whose clock starts now (the buffer is allocated first, so
    /// the traced call does not pay for it), and the handle its events
    /// are read back through once the call has consumed the sink.
    pub fn new() -> (Self, Stamped) {
        let events: Stamped = Arc::new(Mutex::new(Vec::with_capacity(1 << 14)));
        let sink = SpanSink {
            epoch: Instant::now(),
            events: Arc::clone(&events),
        };
        (sink, events)
    }

    /// The instant every stamp counts from: the traced call's start.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

impl Sink for SpanSink {
    fn emit(&mut self, event: &RunEvent) {
        let at = self.epoch.elapsed().as_nanos() as u64;
        self.events
            .lock()
            .expect("span buffer poisoned: the traced call panicked")
            .push((at, event.clone()));
    }
}

/// One span: a named interval and the span that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span tree of one traced call plus the per-round gaps.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `spans[0]` is the root `call` span.
    pub spans: Vec<Span>,
    /// Nanoseconds between consecutive `RoundCompleted` stamps (the first
    /// one measured from the first event).
    pub round_gaps_ns: Vec<u64>,
    /// `pairs_checked` of the `CertificationResult`, 0 without one.
    pub pairs_checked: usize,
}

/// A span's duration minus the part its direct children cover.
///
/// # Errors
///
/// The children must lie inside the parent and must not overlap each
/// other — otherwise the stamps are broken and no share computed from
/// them means anything.
pub fn self_time_ns(spans: &[Span], index: usize) -> Result<u64, String> {
    let parent = &spans[index];
    let mut children: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(index)).collect();
    children.sort_by_key(|s| s.start_ns);
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for child in children {
        if child.start_ns < cursor || child.end_ns < child.start_ns || child.end_ns > parent.end_ns
        {
            return Err(format!(
                "span {} [{}, {}] overlaps a sibling or leaves its parent {} [{}, {}]",
                child.name,
                child.start_ns,
                child.end_ns,
                parent.name,
                parent.start_ns,
                parent.end_ns
            ));
        }
        covered += child.duration_ns();
        cursor = child.end_ns;
    }
    Ok(parent.duration_ns() - covered)
}

impl Trace {
    /// Builds the span tree from one call's stamped events; `call_end_ns`
    /// is the stamp of the call's return on the same clock.
    ///
    /// # Errors
    ///
    /// A stream without a `Done`, or with a certification that starts
    /// and never ends.
    pub fn build(events: &[(u64, RunEvent)], call_end_ns: u64) -> Result<Trace, String> {
        let first = events.first().ok_or("the traced call emitted no event")?.0;
        let done = events
            .iter()
            .rev()
            .find(|(_, e)| matches!(e, RunEvent::Done { .. }))
            .ok_or("the traced call never emitted Done")?
            .0;
        let mut trace = Trace::default();
        let mut push = |name: &str, start_ns, end_ns, parent| {
            trace.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
            });
            trace.spans.len() - 1
        };
        let call = push("call", 0, call_end_ns, None);
        push("facade.pre_round", 0, first, Some(call));
        let round_loop = push("ncc.round_loop", first, done, Some(call));

        let mut open_stage: Option<(&'static str, u64)> = None;
        let mut certify_start = None;
        let mut last_round = first;
        for (at, event) in events {
            match event {
                RunEvent::StageTransition { stage, .. } => {
                    if let Some((label, start)) = open_stage.replace((*stage, *at)) {
                        push(
                            &format!("connectivity.stage.{label}"),
                            start,
                            *at,
                            Some(round_loop),
                        );
                    }
                }
                RunEvent::RoundCompleted { .. } => {
                    trace.round_gaps_ns.push(at - last_round);
                    last_round = *at;
                }
                RunEvent::Done { .. } => {
                    if let Some((label, start)) = open_stage.take() {
                        push(
                            &format!("connectivity.stage.{label}"),
                            start,
                            *at,
                            Some(round_loop),
                        );
                    }
                }
                RunEvent::CertificationStarted { .. } => certify_start = Some(*at),
                RunEvent::CertificationResult { pairs_checked, .. } => {
                    let start = certify_start
                        .take()
                        .ok_or("CertificationResult without CertificationStarted")?;
                    push("connectivity.certify", start, *at, Some(call));
                    trace.pairs_checked = *pairs_checked;
                }
                _ => {}
            }
        }
        if certify_start.is_some() {
            return Err("CertificationStarted without CertificationResult".into());
        }
        Ok(trace)
    }

    /// Total nanoseconds of every span called `name` (a stage label may
    /// open more than once in a run).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgr::RouteMode;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("call", 0, 100, None),
            span("pre", 0, 10, Some(0)),
            span("loop", 10, 70, Some(0)),
            span("stage", 20, 50, Some(2)),
            span("certify", 75, 95, Some(0)),
        ];
        // 100 − (10 + 60 + 20); the grandchild does not count twice.
        assert_eq!(self_time_ns(&spans, 0), Ok(10));
        assert_eq!(self_time_ns(&spans, 2), Ok(30));
        assert_eq!(self_time_ns(&spans, 3), Ok(30));
    }

    #[test]
    fn self_time_rejects_overlap_and_escape() {
        let overlap = [
            span("call", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 50, 80, Some(0)),
        ];
        assert!(self_time_ns(&overlap, 0).is_err());
        let escape = [span("call", 0, 100, None), span("a", 90, 110, Some(0))];
        assert!(self_time_ns(&escape, 0).is_err());
    }

    #[test]
    fn build_partitions_the_call() {
        let round = |round| RunEvent::RoundCompleted {
            round,
            delivered: 1,
            live: 1,
            route_mode: RouteMode::Inline,
        };
        let stage = |round, stage| RunEvent::StageTransition { round, stage };
        let events = vec![
            (10, stage(0, "establish")),
            (14, round(0)),
            (20, stage(1, "sort")),
            (26, round(1)),
            (30, stage(2, "establish")),
            (31, round(2)),
            (
                40,
                RunEvent::Done {
                    rounds: 3,
                    messages: 3,
                },
            ),
            (50, RunEvent::CertificationStarted { nodes: 4 }),
            (
                80,
                RunEvent::CertificationResult {
                    satisfied: true,
                    pairs_checked: 3,
                },
            ),
        ];
        let trace = Trace::build(&events, 100).unwrap();
        assert_eq!(trace.total_ns("facade.pre_round"), 10);
        assert_eq!(trace.total_ns("ncc.round_loop"), 30);
        assert_eq!(trace.total_ns("connectivity.certify"), 30);
        assert_eq!(trace.total_ns("connectivity.stage.establish"), 10 + 10);
        assert_eq!(trace.total_ns("connectivity.stage.sort"), 10);
        assert_eq!(trace.round_gaps_ns, vec![4, 12, 5]);
        assert_eq!(trace.pairs_checked, 3);
        // assemble = call − (pre_round + round_loop + certify): the four
        // add up to the call's wall by construction.
        assert_eq!(self_time_ns(&trace.spans, 0), Ok(30));
        // The stages tile the round loop.
        assert_eq!(self_time_ns(&trace.spans, 2), Ok(0));
    }

    #[test]
    fn build_rejects_a_stream_without_done() {
        let events = vec![(5, RunEvent::CertificationStarted { nodes: 1 })];
        assert!(Trace::build(&events, 10).is_err());
        assert!(Trace::build(&[], 10).is_err());
    }
}
