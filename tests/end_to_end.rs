//! Cross-crate integration tests: full realization pipelines on simulated
//! NCC networks, with strict capacity enforcement and KT0 knowledge
//! tracking — every green run here is a machine-checked proof that the
//! algorithms are legal NCC0 protocols on that instance. Every driver is
//! constructed through the `Realization` builder.

use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::realization::verify;
use distributed_graph_realizations::{connectivity, graph, graphgen, realization, trees};

#[test]
fn implicit_realization_of_random_graphic_sequences() {
    for (n, seed) in [(16, 1u64), (48, 2), (96, 3), (130, 4)] {
        let degrees = graphgen::random_graphic_sequence(n, n / 3, seed);
        let out = Realization::new(Workload::Implicit(degrees.clone()))
            .seed(seed)
            .run()
            .unwrap();
        let r = out.degrees().expect_realized();
        verify::degrees_match(&r.graph, &r.requested).unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert!(r.metrics.is_clean(), "n={n}: model violations");
        assert_eq!(r.duplicate_edges, 0, "n={n}");
        // Lemma 10 phase bound (generous constant).
        let seq = DegreeSequence::new(degrees);
        let bound = realization::distributed::phase_bound(&seq);
        assert!(
            (r.phases as f64) <= 2.0 * bound + 4.0,
            "n={n}: {} phases vs bound {bound}",
            r.phases
        );
    }
}

#[test]
fn explicit_realization_is_symmetric_and_exact() {
    let degrees = graphgen::power_law_sequence(80, 20, 2.5, 5);
    let out = Realization::new(Workload::Explicit(degrees))
        .seed(5)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    verify::degrees_match(&r.graph, &r.requested).unwrap();
    // Both endpoints of every edge list each other.
    for (u, v) in r.graph.edge_list() {
        assert!(r.explicit_neighbors[&u].contains(&v));
        assert!(r.explicit_neighbors[&v].contains(&u));
    }
    assert_eq!(r.metrics.undelivered, 0);
}

#[test]
fn non_graphic_sequences_get_envelopes() {
    for seed in [11u64, 12, 13] {
        let n = 40;
        // Start from a graphic sequence and break it (odd sum).
        let mut degrees = graphgen::random_graphic_sequence(n, 10, seed);
        degrees[0] += 1;
        let sum: usize = degrees.iter().sum();
        if sum.is_multiple_of(2) {
            degrees[1] += 1;
        }
        let out = Realization::new(Workload::Envelope(degrees.clone()))
            .seed(seed)
            .run()
            .unwrap();
        let r = out.degrees().expect_realized();
        let mut envelope_sum = 0;
        for (i, &id) in r.path_order.iter().enumerate() {
            let d_prime = r.multi_degrees[&id];
            assert!(d_prime >= degrees[i], "envelope below request");
            envelope_sum += d_prime;
        }
        let sum: usize = degrees.iter().sum();
        assert!(envelope_sum <= 2 * sum, "Theorem 13 bound violated");
    }
}

#[test]
fn trees_realize_and_greedy_minimizes_diameter() {
    for (n, seed) in [(32, 21u64), (64, 22), (100, 23)] {
        let degrees = graphgen::random_tree_sequence(n, seed);
        let tree = |algo| {
            Realization::new(Workload::Tree {
                degrees: degrees.clone(),
                algo,
            })
            .seed(seed)
            .run()
            .unwrap()
        };
        let (chain, greedy) = (tree(TreeAlgo::Chain), tree(TreeAlgo::Greedy));
        let (c, g) = (
            chain.tree().expect_realized(),
            greedy.tree().expect_realized(),
        );
        assert!(c.graph.is_tree() && g.graph.is_tree(), "n={n}");
        assert!(g.diameter <= c.diameter, "n={n}: greedy beaten by chain");
        // Theorem 16: matches the sequential minimum-diameter tree.
        let seq = DegreeSequence::new(degrees.clone());
        let reference = trees::greedy::greedy_tree(&seq).unwrap();
        assert_eq!(
            g.diameter,
            trees::greedy::diameter_of(&reference, n),
            "n={n}"
        );
        assert!(c.metrics.is_clean() && g.metrics.is_clean());
    }
}

#[test]
fn connectivity_thresholds_certified_by_max_flow() {
    let rho = graphgen::tiered_thresholds(48, 4, 6);
    let inst = connectivity::ThresholdInstance::new(rho.clone());
    let out = Realization::new(Workload::Ncc0Threshold(rho))
        .seed(31)
        .run()
        .unwrap();
    assert!(
        out.threshold().report.satisfied,
        "{:?}",
        out.threshold().report
    );
    assert!(out.threshold().graph.edge_count() <= 2 * connectivity::edge_lower_bound(&inst));
}

#[test]
fn composed_paper_exact_alg6_certifies_too() {
    let rho = graphgen::tiered_thresholds(48, 4, 6);
    let inst = connectivity::ThresholdInstance::new(rho.clone());
    let out = Realization::new(Workload::Ncc0Exact(rho))
        .seed(31)
        .run()
        .unwrap();
    assert!(
        out.threshold().report.satisfied,
        "{:?}",
        out.threshold().report
    );
    assert!(out.threshold().graph.edge_count() <= 2 * connectivity::edge_lower_bound(&inst));
}

#[test]
fn ncc1_connectivity_in_constant_rounds() {
    let rho = graphgen::uniform_thresholds(40, 2, 8, 41);
    let out = Realization::new(Workload::Ncc1(rho))
        .seed(41)
        .run()
        .unwrap();
    let out = out.threshold();
    assert!(out.report.satisfied);
    // O~(1): far below any Δ-dependent bill.
    assert!(out.metrics.rounds < 120, "rounds = {}", out.metrics.rounds);
}

#[test]
fn degree_realization_connects_what_it_should() {
    // A connected target: a 4-regular sequence realizes to a graph whose
    // big component covers most nodes (not guaranteed connected, but the
    // handshake totals must always match).
    let degrees = vec![4usize; 32];
    let out = Realization::new(Workload::Implicit(degrees))
        .seed(51)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    assert_eq!(r.graph.edge_count(), 64);
    let comps = graph::connected_components(&r.graph);
    let biggest = comps.iter().map(Vec::len).max().unwrap();
    assert!(biggest >= 16, "suspiciously fragmented: {biggest}");
}

#[test]
fn runs_are_deterministic_per_seed() {
    let degrees = graphgen::random_graphic_sequence(40, 8, 9);
    let run = |seed| {
        Realization::new(Workload::Implicit(degrees.clone()))
            .seed(seed)
            .run()
            .unwrap()
    };
    let (a, b) = (run(77), run(77));
    let (ra, rb) = (a.degrees().expect_realized(), b.degrees().expect_realized());
    assert_eq!(ra.graph.edge_list(), rb.graph.edge_list());
    assert_eq!(ra.metrics.rounds, rb.metrics.rounds);
    // A different seed gives a different network (IDs differ).
    let c = run(78);
    assert_ne!(
        ra.graph.edge_list(),
        c.degrees().expect_realized().graph.edge_list()
    );
}

#[test]
fn explicit_realization_at_half_capacity_matches_the_reference_overlay() {
    // A hub's explicitness hand-off under half the default capacity
    // (a quarter of the per-round budget at n = 512): the scheduled
    // delivery must still realize the degrees exactly and agree with the
    // reference interpreter message for message.
    let degrees = graphgen::star_heavy_sequence(512, 1, 2, 4);
    let run = |engine| {
        Realization::new(Workload::Explicit(degrees.clone()))
            .capacity_factor(0.5)
            .engine(engine)
            .seed(7)
            .run()
            .unwrap()
    };
    let (batched, reference) = (run(Engine::Batched), run(Engine::Reference));
    let r = batched.degrees().expect_realized();
    verify::degrees_match(&r.graph, &r.requested).unwrap();
    assert!(r.metrics.is_clean());
    let o = reference.degrees().expect_realized();
    assert_eq!(r.graph.edge_list(), o.graph.edge_list());
    assert_eq!(r.metrics, o.metrics);
}

/// Every message delivered twice (or 30 % of them): the degree
/// realizations still realize their requests, on both engines. A phase's
/// multicast runs beside the next phase, so a duplicated delegation lands
/// among the next control's and lane's messages; the explicit
/// hand-off keeps the first `EDGE` from each sender. The exact flavors
/// meet every degree with no duplicate edge, the envelope holds
/// Theorem 13's two invariants.
#[test]
fn degree_realizations_survive_message_duplication() {
    for n in [64usize, 256] {
        let degrees = graphgen::power_law_sequence(n, 8, 2.5, n as u64);
        let sum: usize = degrees.iter().sum();
        for rate in [0.3, 1.0] {
            let scenario = Scenario::new(n as u64).duplicate_messages(0..=u64::MAX, rate);
            for engine in [Engine::Batched, Engine::Reference] {
                for (flavor, workload) in [
                    ("implicit", Workload::Implicit(degrees.clone())),
                    ("envelope", Workload::Envelope(degrees.clone())),
                    ("explicit", Workload::Explicit(degrees.clone())),
                ] {
                    let what = format!("n={n} rate={rate} {engine:?} {flavor}");
                    let out = Realization::new(workload)
                        .engine(engine)
                        .seed(7)
                        .scenario(scenario.clone())
                        .run()
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(out.engine_stats.faults_duplicated > 0, "{what}");
                    let r = out.degrees().expect_realized();
                    if flavor == "envelope" {
                        for (id, &d) in &r.requested {
                            assert!(r.multi_degrees[id] >= d, "{what}: node {id}");
                        }
                        let envelope_sum: usize = r.multi_degrees.values().sum();
                        assert!(envelope_sum <= 2 * sum, "{what}: Σd' = {envelope_sum}");
                    } else {
                        verify::degrees_match(&r.graph, &r.requested)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(r.duplicate_edges, 0, "{what}");
                    }
                }
            }
        }
    }
}

/// Every message delivered twice at n = 512, where the first sort takes
/// the class route — and, on the power-law degrees, the network over the
/// overflow's window after it: a second copy of a record is dropped where
/// it lands, and a second copy of a comparator partner's record is the
/// same record, so the implicit and explicit degree realizations and the
/// NCC₀ pipeline end in their fault-free rounds with their fault-free
/// overlays, on both engines.
#[test]
fn the_class_route_survives_full_duplication() {
    use distributed_graph_realizations::primitives::{ops, sort};
    let n = 512;
    let degrees = graphgen::near_regular_sequence(n, 4, 5);
    let rho = graphgen::uniform_thresholds(n, 1, 5, 7);
    let heavy = graphgen::power_law_sequence(n, 64, 2.5, 7);
    let scenario = Scenario::new(11).duplicate_messages(0..=u64::MAX, 1.0);
    for engine in [Engine::Batched, Engine::Reference] {
        let requests = [
            ("implicit", Workload::Implicit(degrees.clone()), &degrees),
            ("ncc0", Workload::Ncc0Threshold(rho.clone()), &rho),
            ("explicit", Workload::Explicit(heavy.clone()), &heavy),
        ];
        for (name, workload, keys) in requests {
            let what = format!("{engine:?} {name}");
            let request = || Realization::new(workload.clone()).engine(engine).seed(7);
            let clean = request().run().unwrap();
            let out = request().scenario(scenario.clone()).run().unwrap();
            assert!(out.engine_stats.faults_duplicated > 0, "{what}");
            let (m, cap) = (out.metrics(), out.metrics().capacity);
            let beside = if name == "ncc0" {
                0
            } else {
                ops::sweep_load(n, cap)
            };
            let overflow = keys.iter().filter(|&&k| k > 7).count();
            assert_eq!(overflow > 1, name == "explicit", "{what}: a window");
            let keys = keys.iter().map(|&k| k as u64);
            let first = sort::first_rounds_for(keys, cap, beside);
            let routed = sort::route_rounds_for(n) + sort::rounds_for(overflow);
            assert_eq!(first, routed, "{what}: no route");
            assert!(first < sort::rounds_for(n), "{what}: the network");
            assert_eq!(m.rounds, clean.metrics().rounds, "{what}");
            let graph = match &out.output {
                RunOutput::Degrees(d) => {
                    let r = d.expect_realized();
                    verify::degrees_match(&r.graph, &r.requested).unwrap();
                    &r.graph
                }
                RunOutput::Threshold(t) => {
                    assert!(t.report.satisfied, "{what}: {:?}", t.report);
                    &t.graph
                }
                _ => unreachable!(),
            };
            let want = match &clean.output {
                RunOutput::Degrees(d) => d.expect_realized().graph.edge_list(),
                RunOutput::Threshold(t) => t.graph.edge_list(),
                _ => unreachable!(),
            };
            assert_eq!(graph.edge_list(), want, "{what}: overlay");
        }
    }
}

/// Every message delivered twice (or 30 % of them): both NCC₀ threshold
/// drivers still realize their requirements, on both engines. Every
/// hand-off message is due in a round its receiver can name, so a second
/// copy in its slot is dropped there: a pipeline token or a patch token
/// already seen, an acknowledgement already heard, an announcement
/// already in its leader's window.
#[test]
fn threshold_realizations_survive_message_duplication() {
    let n = 64;
    let rho: Vec<usize> = (0..n).map(|i| 1 + i % 3).collect();
    let inst = ThresholdInstance::new(rho.clone());
    for rate in [0.3, 1.0] {
        let scenario = Scenario::new(n as u64).duplicate_messages(0..=u64::MAX, rate);
        for engine in [Engine::Batched, Engine::Reference] {
            for (name, workload) in [
                ("ncc0", Workload::Ncc0Threshold(rho.clone())),
                ("exact", Workload::Ncc0Exact(rho.clone())),
            ] {
                let what = format!("rate={rate} {engine:?} {name}");
                let out = Realization::new(workload)
                    .engine(engine)
                    .seed(7)
                    .scenario(scenario.clone())
                    .run()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(out.engine_stats.faults_duplicated > 0, "{what}");
                let t = out.threshold();
                assert!(t.report.satisfied, "{what}: {:?}", t.report);
                let edges = t.graph.edge_count();
                assert!(edges <= inst.sum(), "{what}: {edges} edges");
            }
        }
    }
}
