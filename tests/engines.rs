//! The two engines through the facade: everything `Realization` runs on
//! the batched executor it must run identically on the reference
//! interpreter — and both must keep reproducing the transcripts frozen
//! from the original direct-style algorithm stack.

use distributed_graph_realizations::ncc::event::semantic_stream;
use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::{Engine, Kt0};

#[path = "support/cases.rs"]
mod cases;
use cases::{fnv, FNV_OFFSET};

#[path = "support/spec.rs"]
mod spec;

/// One request of this suite: `(case, workload, seed)`.
type Request = (String, Workload, u64);

/// The requests of this suite — every workload the facade offers, at the
/// inputs and seeds the facade-vs-legacy-entry-point suite used while the
/// legacy entry points existed.
fn requests() -> Vec<Request> {
    let degrees = vec![3usize, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1];
    let rho = vec![3usize, 2, 2, 2, 1, 1, 1];
    let mut requests = Vec::new();
    for seed in [3, 19] {
        for (what, workload) in [
            ("implicit", Workload::Implicit(degrees.clone())),
            ("envelope", Workload::Envelope(degrees.clone())),
            ("explicit", Workload::Explicit(degrees.clone())),
        ] {
            requests.push((format!("{what} seed={seed}"), workload, seed));
        }
    }
    for algo in [TreeAlgo::Chain, TreeAlgo::Greedy] {
        let degrees = vec![3, 3, 2, 2, 1, 1, 1, 1];
        let workload = Workload::Tree { degrees, algo };
        requests.push((format!("tree {algo:?}"), workload, 9));
    }
    requests.push(("ncc1".into(), Workload::Ncc1(rho.clone()), 12));
    let ncc0 = Workload::Ncc0Threshold(rho.clone());
    requests.push(("ncc0".into(), ncc0, 12));
    requests.push(("ncc0-exact".into(), Workload::Ncc0Exact(rho), 12));
    requests
}

/// The builder request of one case.
fn request(workload: Workload, seed: u64) -> Realization {
    Realization::new(workload).seed(seed)
}

/// The sorted edge list of whatever a run realized (empty on a refusal).
fn overlay(out: &Realized) -> Vec<(NodeId, NodeId)> {
    match &out.output {
        RunOutput::Degrees(DriverOutput::Realized(r)) => r.graph.edge_list(),
        RunOutput::Tree(TreeRealization::Realized(t)) => t.graph.edge_list(),
        RunOutput::Threshold(t) => t.graph.edge_list(),
        _ => Vec::new(),
    }
}

/// Runs one builder request, recording its event stream.
fn record(request: Realization, engine: Engine, workers: usize) -> (Realized, Vec<RunEvent>) {
    let recording = Recording::new();
    let out = request
        .engine(engine)
        .workers(workers)
        .observe(recording.clone())
        .run()
        .unwrap();
    (out, recording.events())
}

/// The event-stream differential, for every workload: the batched raw
/// stream is bit-identical across worker counts, and batched and
/// reference agree on the overlay, on every metric (the per-phase round
/// breakdown included) and on the semantic event stream.
#[test]
fn event_streams_identical_across_engines_and_worker_counts() {
    for (name, workload, seed) in requests() {
        let make = || request(workload.clone(), seed);
        let (batched, events) = record(make(), Engine::Batched, 1);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RunEvent::RoundCompleted { .. })),
            "{name}: stream must narrate rounds"
        );
        for workers in [2, 4] {
            assert_eq!(
                events,
                record(make(), Engine::Batched, workers).1,
                "{name}: batched stream diverges at {workers} workers"
            );
        }
        let (reference, reference_events) = record(make(), Engine::Reference, 1);
        assert_eq!(overlay(&batched), overlay(&reference), "{name}: overlays");
        assert_eq!(batched.metrics(), reference.metrics(), "{name}: metrics");
        assert_eq!(
            semantic_stream(&events),
            semantic_stream(&reference_events),
            "{name}: semantic event streams diverge across engines"
        );
    }
}

/// The composed Algorithm 6 narrates its data-dependent phases: both
/// engines emit the same `PhaseChange` sequence starting at round 0, and
/// the resulting `RunMetrics::phase_rounds` breakdown is identical and
/// sums to the total round count.
#[test]
fn ncc0_exact_phase_events_agree_across_engines() {
    let rho = vec![3usize, 2, 2, 2, 1, 1, 1];
    let run = |engine: Engine| {
        let recording = Recording::new();
        let out = Realization::new(Workload::Ncc0Exact(rho.clone()))
            .seed(12)
            .engine(engine)
            .tracking(Kt0::Untracked)
            .observe(recording.clone())
            .run()
            .unwrap();
        (out, recording.events())
    };
    let (batched_out, batched_events) = run(Engine::Batched);
    let (reference_out, reference_events) = run(Engine::Reference);
    let phases = |events: &[RunEvent]| -> Vec<(u64, &'static str)> {
        events
            .iter()
            .filter_map(|e| match e {
                RunEvent::PhaseChange { round, phase } => Some((*round, *phase)),
                _ => None,
            })
            .collect()
    };
    let batched_phases = phases(&batched_events);
    assert_eq!(batched_phases, phases(&reference_events));
    assert_eq!(
        batched_phases.first(),
        Some(&(0, "setup")),
        "{batched_phases:?}"
    );
    assert!(
        batched_phases.iter().any(|&(_, p)| p == "phase1")
            && batched_phases.iter().any(|&(_, p)| p == "phase2"),
        "{batched_phases:?}"
    );
    let breakdown = &batched_out.metrics().phase_rounds;
    assert_eq!(breakdown, &reference_out.metrics().phase_rounds);
    assert_eq!(
        breakdown.iter().map(|p| p.rounds).sum::<u64>(),
        batched_out.metrics().rounds,
        "phase breakdown must sum to the total round count: {breakdown:?}"
    );
    // Workloads that never mark phases have an empty breakdown.
    let plain = Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
        .seed(7)
        .run()
        .unwrap();
    assert!(plain.metrics().phase_rounds.is_empty());
}

/// One frozen facade transcript: realized / certified?, phases (degree
/// workloads; 0 otherwise), rounds, messages, words, max sent per round,
/// max received per round, FNV-1a of the sorted edge list.
type Golden = (bool, u64, u64, u64, u64, usize, usize, u64);

/// The transcript of a run, in [`Golden`] form.
fn transcript(out: &Realized) -> Golden {
    let (ok, phases) = match &out.output {
        RunOutput::Degrees(DriverOutput::Realized(r)) => (true, r.phases),
        RunOutput::Degrees(DriverOutput::Unrealizable { .. }) => (false, 0),
        RunOutput::Tree(t) => (!t.is_unrealizable(), 0),
        RunOutput::Threshold(t) => (t.report.satisfied, 0),
    };
    let edges = overlay(out)
        .iter()
        .fold(FNV_OFFSET, |h, &(a, b)| fnv(fnv(h, a), b));
    let m = out.metrics();
    (
        ok,
        phases,
        m.rounds,
        m.messages,
        m.words,
        m.max_sent_per_round,
        m.max_received_per_round,
        edges,
    )
}

/// What the original thread-per-node engine produced on these requests —
/// for the bitonic plane it ran the direct-style twin of each algorithm,
/// for `ncc0-exact` the same state machines — recorded from it at the
/// last commit that had it.
#[rustfmt::skip]
const GOLDEN: &[(&str, Golden)] = &[
    ("implicit seed=3", (true, 4, 24, 176, 524, 2, 2, 0x1ffc7aa3c23ef5c9)),
    ("envelope seed=3", (true, 4, 32, 262, 760, 2, 2, 0x59a4682c75e872fb)),
    ("explicit seed=3", (true, 4, 25, 185, 542, 3, 3, 0x1ffc7aa3c23ef5c9)),
    ("implicit seed=19", (true, 4, 24, 176, 524, 2, 2, 0x1b2ff4882f4f245a)),
    ("envelope seed=19", (true, 4, 32, 262, 760, 2, 2, 0xa1602e8a3613c2b2)),
    ("explicit seed=19", (true, 4, 25, 185, 542, 3, 3, 0x1b2ff4882f4f245a)),
    ("tree Chain", (true, 0, 21, 89, 247, 2, 2, 0xe8b183993eb670e9)),
    ("tree Greedy", (true, 0, 21, 88, 249, 2, 2, 0xe37c6b7d50d9f1af)),
    ("ncc1", (true, 0, 39, 70, 144, 2, 2, 0xd8b85508f1bbb25d)),
    ("ncc0", (true, 0, 19, 83, 217, 2, 2, 0xbbe3a5dff2d4ba95)),
    ("ncc0-exact", (true, 0, 55, 133, 358, 3, 3, 0x19926eb11f60d1ba)),
];

/// What a change of schedule may not move: the verdict, phases and
/// edge-hash columns of every run of [`requests`], folded in order. The
/// schedule columns of [`GOLDEN`] — rounds, messages, words, the per-round
/// maxima — are re-frozen when a round budget changes; this fold is not.
const GOLDEN_OVERLAYS: u64 = 0x9f0e_9ce7_740f_b1db;

/// Holds a run to its verifier: an exact degree realization meets every
/// request with no duplicate edge, an envelope (`case` names it) covers
/// every request within twice their sum, and each realizes the spec of
/// Algorithm 3 in its flavor; a tree is a tree, a threshold overlay holds
/// its certificate.
fn assert_verified(case: &str, out: &Realized) {
    use distributed_graph_realizations::realization::distributed::Flavor;
    use distributed_graph_realizations::realization::verify;
    if let RunOutput::Degrees(degrees @ DriverOutput::Realized(r)) = &out.output {
        let flavors = [
            ("implicit", Flavor::Implicit),
            ("envelope", Flavor::Envelope),
            ("explicit", Flavor::Explicit),
        ];
        let flavor = flavors.into_iter().find(|(name, _)| case.starts_with(name));
        let requested: Vec<usize> = (r.path_order.iter()).map(|id| r.requested[id]).collect();
        spec::assert_spec(case, &requested, flavor.expect("a flavor").1, degrees);
    }
    match &out.output {
        RunOutput::Degrees(DriverOutput::Realized(r)) if case.contains("envelope") => {
            let sum: usize = r.requested.values().sum();
            assert!(
                r.requested.iter().all(|(id, &d)| r.multi_degrees[id] >= d),
                "{case}"
            );
            assert!(r.multi_degrees.values().sum::<usize>() <= 2 * sum, "{case}");
        }
        RunOutput::Degrees(DriverOutput::Realized(r)) => {
            verify::degrees_match(&r.graph, &r.requested).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(r.duplicate_edges, 0, "{case}");
        }
        RunOutput::Tree(TreeRealization::Realized(t)) => assert!(t.graph.is_tree(), "{case}"),
        RunOutput::Threshold(t) => assert!(t.report.satisfied, "{case}: {:?}", t.report),
        _ => panic!("{case}: refused"),
    }
}

/// golden == batched == reference, through the facade. The NCC1
/// star's twin was only ever overlay-identical to its state machine (it
/// built the full path context first), so that row holds on the verdict
/// and overlay columns; every other row holds in full.
#[test]
fn facade_transcripts_match_the_frozen_twins_on_both_engines() {
    let mut overlays = FNV_OFFSET;
    for (case, workload, seed) in requests() {
        let golden = GOLDEN
            .iter()
            .find(|(name, _)| *name == case)
            .unwrap_or_else(|| panic!("no golden row for case {case:?}"))
            .1;
        let run = |engine: Engine| {
            let out = request(workload.clone(), seed).engine(engine).run();
            let out = out.unwrap();
            assert_verified(&case, &out);
            transcript(&out)
        };
        let (batched, reference) = (run(Engine::Batched), run(Engine::Reference));
        assert_eq!(batched, reference, "{case}: engines");
        if case == "ncc1" {
            assert_eq!((batched.0, batched.7), (golden.0, golden.7), "{case}");
        } else {
            assert_eq!(batched, golden, "{case}: transcript drifted");
        }
        overlays = fnv(fnv(fnv(overlays, batched.0 as u64), batched.1), batched.7);
    }
    assert_eq!(
        overlays, GOLDEN_OVERLAYS,
        "an overlay or a phase count moved"
    );
}

/// Every degree request of this suite sits on the closed form of its round
/// count, so a moved round budget shows as a moved formula beside the
/// re-frozen rows.
#[test]
fn degree_rounds_follow_the_closed_form() {
    use distributed_graph_realizations::realization::distributed::{
        phase_groups, rounds_for, Flavor,
    };
    for (case, workload, seed) in requests() {
        let flavor = match &workload {
            Workload::Implicit(_) => Flavor::Implicit,
            Workload::Envelope(_) => Flavor::Envelope,
            Workload::Explicit(_) => Flavor::Explicit,
            _ => continue,
        };
        let out = request(workload, seed).run().unwrap();
        let r = out.degrees().expect_realized();
        let requested: Vec<usize> = (r.path_order.iter()).map(|id| r.requested[id]).collect();
        let groups = phase_groups(&requested, flavor);
        assert_eq!(groups.len() as u64 + 1, r.phases, "{case}");
        let explicit = flavor == Flavor::Explicit;
        let want = rounds_for(&requested, flavor, explicit, r.metrics.capacity);
        assert_eq!(r.metrics.rounds, want, "{case}");
    }
}

/// The facade's scenario oracle: a tree realization under the queueing
/// policy with half of all messages duplicated, on the reference
/// interpreter — which has a fault pass of its own — as on the batched
/// executor. Duplication through the path-context establishment (its
/// messages are idempotent: contacts, and counts the rank lane takes
/// once) leaves the run clean and the same tree realized from the same
/// transcript. Duplication throughout leaves the sweeps exact (a child's
/// `AGGREGATE` folds once, so the input check passes in either build
/// profile), and the slot prefix sums take one message a level from their
/// one sender; the realization drivers are retransmission-free by design,
/// and whatever comes of a duplicate, both engines must come to it alike.
#[test]
fn duplicated_tree_realization_agrees_with_the_reference() {
    let run = |rounds: std::ops::RangeInclusive<u64>, engine: Engine| {
        Realization::new(Workload::Tree {
            degrees: vec![3, 3, 2, 2, 1, 1, 1, 1],
            algo: TreeAlgo::Greedy,
        })
        .policy(CapacityPolicy::Queue)
        .scenario(Scenario::new(5).duplicate_messages(rounds, 0.5))
        .seed(9)
        .engine(engine)
        .run()
    };
    // Undirect (1 round), then the contacts and the rank lane (3) at n = 8.
    let batched = run(0..=3, Engine::Batched).unwrap();
    let reference = run(0..=3, Engine::Reference).unwrap();
    assert!(batched.tree().expect_realized().graph.is_tree());
    assert!(batched.engine_stats.faults_duplicated > 0);
    assert_eq!(overlay(&batched), overlay(&reference));
    assert_eq!(batched.metrics(), reference.metrics());
    assert_eq!(
        batched.engine_stats.faults_duplicated,
        reference.engine_stats.faults_duplicated
    );
    match (
        run(0..=u64::MAX, Engine::Batched),
        run(0..=u64::MAX, Engine::Reference),
    ) {
        // What happens at this seed: the run completes in the fault-free
        // 21 rounds on the fault-free tree.
        (Ok(batched), Ok(reference)) => {
            assert_eq!(transcript(&batched), transcript(&reference));
            assert_eq!(batched.metrics(), reference.metrics());
        }
        (Err(batched), Err(reference)) => assert_eq!(batched.to_string(), reference.to_string()),
        _ => panic!("one engine survived full-window duplication, the other did not"),
    }
}
