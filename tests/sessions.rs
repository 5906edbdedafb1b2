//! The streaming session against the one-shot path. A session steps its
//! run on the caller's thread, so what it hands out, what its observer
//! sees and what `finish()` returns must be what `run()` gives — on either
//! engine, under faults, and when the run fails.

use distributed_graph_realizations::ncc::event::semantic_stream;
use distributed_graph_realizations::ncc::SimError;
use distributed_graph_realizations::{
    graphgen, CapacityPolicy, Engine, Realization, RealizationError, Recording, RunEvent,
    RunSession, Scenario, Workload,
};

/// One pulled round: number, deliveries, live count and the semantic
/// projection of the events before it.
type Pulled = (u64, u64, usize, Vec<RunEvent>);

fn pull_every_round(session: &mut RunSession) -> Vec<Pulled> {
    std::iter::from_fn(|| session.next_round())
        .map(|s| (s.round, s.delivered, s.live, semantic_stream(&s.events)))
        .collect()
}

#[test]
fn a_reference_session_under_faults_matches_the_batched_one() {
    // Drops in the first rounds after the 5-round establishment, where
    // the first sort's class route moves the crashed node's record too
    // (every degree is below 8, so the control is replayed: no sweep).
    let scenario = Scenario::new(12).drop_messages(5..=7, 0.3).crash(5, 4);
    let session = |engine: Engine| {
        let recording = Recording::new();
        let mut session = Realization::new(Workload::Implicit(vec![3, 2, 2, 2, 2, 1, 1, 1, 2]))
            .engine(engine)
            .policy(CapacityPolicy::Record)
            .scenario(scenario.clone())
            .seed(23)
            .observe(recording.clone())
            .run_streaming()
            .unwrap();
        let pulled = pull_every_round(&mut session);
        let finished = session.finish();
        (pulled, semantic_stream(&recording.events()), finished)
    };
    let (batched, reference) = (session(Engine::Batched), session(Engine::Reference));
    assert_eq!(batched.0, reference.0, "snapshots");
    assert_eq!(batched.1, reference.1, "observed streams");
    let fired = |kind: fn(&RunEvent) -> bool| batched.1.iter().any(kind);
    assert!(fired(
        |e| matches!(e, RunEvent::FaultInjected { dropped, .. } if *dropped > 0)
    ));
    assert!(fired(|e| matches!(
        e,
        RunEvent::NodeCrashed { node: 5, .. }
    )));
    // A lost record panics the class route: both engines end the run at
    // the same node, with the same message.
    let (b, r) = (batched.2.unwrap_err(), reference.2.unwrap_err());
    assert!(
        matches!(b, RealizationError::Sim(SimError::NodePanic { .. })),
        "{b}"
    );
    assert_eq!(b.to_string(), r.to_string());
}

#[test]
fn a_strict_violation_ends_the_session_as_it_ends_the_run() {
    // Every message delivered twice from round 40 on: under half the
    // default capacity a doubled round overflows some node's receive
    // capacity mid-run; under the strict policy that aborts.
    let degrees = graphgen::star_heavy_sequence(512, 1, 2, 4);
    let request = || {
        Realization::new(Workload::Explicit(degrees.clone()))
            .capacity_factor(0.5)
            .policy(CapacityPolicy::Strict)
            .scenario(Scenario::new(3).duplicate_messages(40..=u64::MAX, 1.0))
            .seed(7)
    };
    let one_shot = request().run().unwrap_err();
    let mut session = request().run_streaming().unwrap();
    let rounds = pull_every_round(&mut session).len();
    assert!(rounds > 0, "the violation must come mid-run");
    assert!(session.next_round().is_none());
    let streamed = session.finish().unwrap_err();
    match (&one_shot, &streamed) {
        (
            RealizationError::Sim(SimError::Violation(a)),
            RealizationError::Sim(SimError::Violation(b)),
        ) => {
            assert_eq!(a, b);
            assert_eq!(
                a.round, rounds as u64,
                "the session stops at the violating round"
            );
        }
        _ => panic!("expected strict violations, got {one_shot} and {streamed}"),
    }
}

#[test]
fn dropping_a_session_leaves_its_observer_at_the_last_pulled_round() {
    let request = || Realization::new(Workload::Implicit(vec![3, 2, 2, 2, 1, 1, 1])).seed(17);
    let whole = Recording::new();
    request().observe(whole.clone()).run().unwrap();
    let whole = whole.events();
    let k = 5;
    let partial = Recording::new();
    let mut session = request().observe(partial.clone()).run_streaming().unwrap();
    for _ in 0..k {
        session.next_round().unwrap();
    }
    drop(session);
    let partial = partial.events();
    assert!(
        matches!(partial.last(), Some(RunEvent::RoundCompleted { round, .. }) if *round == k - 1),
        "{partial:?}"
    );
    assert_eq!(partial[..], whole[..partial.len()]);
}

#[test]
fn sessions_and_requests_are_send() {
    fn send<T: Send>() {}
    send::<RunSession>();
    send::<Realization>();
}

#[test]
fn full_duplication_realizes_the_paper_exact_thresholds_in_a_session_too() {
    // Every message delivered twice: each hand-off message is due in a
    // round its receiver can name, so the second copy is dropped there,
    // and the paper-exact threshold workload realizes its request — on
    // both engines, and through the session as through the one-shot run.
    let workload = Workload::Ncc0Exact((0..64).map(|i| 1 + i % 3).collect());
    for engine in [Engine::Batched, Engine::Reference] {
        let request = || {
            Realization::new(workload.clone())
                .engine(engine)
                .seed(7)
                .scenario(Scenario::new(1).duplicate_messages(0..=u64::MAX, 1.0))
        };
        let mut session = request().run_streaming().unwrap();
        while session.next_round().is_some() {}
        let (one_shot, streamed) = (request().run().unwrap(), session.finish().unwrap());
        for out in [&one_shot, &streamed] {
            let t = out.threshold();
            assert!(t.report.satisfied, "{engine:?}: {:?}", t.report);
            assert!(out.engine_stats.faults_duplicated > 0, "{engine:?}");
        }
        let edges =
            |out: &distributed_graph_realizations::Realized| out.threshold().graph.edge_list();
        assert_eq!(edges(&one_shot), edges(&streamed), "{engine:?}");
    }
}
