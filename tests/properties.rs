//! Property-based tests on the workspace invariants, over seeded case
//! streams (`tests/support/cases.rs`).
//!
//! Simulated-network properties use modest `n` and case counts to keep
//! runtimes sane; the sequential properties run at full throttle.

use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::{graphgen, realization, trees};
use rand::Rng;

#[path = "support/cases.rs"]
mod cases;
use cases::{case_rng, vec_of};

/// Erdős–Gallai and Havel–Hakimi must agree on arbitrary sequences.
#[test]
fn eg_and_hh_agree() {
    let mut rng = case_rng(concat!(module_path!(), "::eg_and_hh_agree"));
    for _ in 0..256 {
        let degrees = vec_of(&mut rng, 0..40, |r| r.gen_range(0usize..12));
        let seq = DegreeSequence::new(degrees.clone());
        let eg = realization::erdos_gallai::is_graphic(&degrees);
        let hh = realization::havel_hakimi::realize(&seq).is_ok();
        assert_eq!(eg, hh, "disagree on {degrees:?}");
    }
}

/// Havel–Hakimi outputs realize their input exactly, as simple graphs.
#[test]
fn hh_realizations_are_exact() {
    let mut rng = case_rng(concat!(module_path!(), "::hh_realizations_are_exact"));
    for _ in 0..256 {
        let degrees = vec_of(&mut rng, 1..30, |r| r.gen_range(0usize..10));
        let seq = DegreeSequence::new(degrees.clone());
        if let Ok(r) = realization::havel_hakimi::realize(&seq) {
            assert_eq!(&r.degrees(seq.len()), seq.degrees(), "{degrees:?}");
            let mut seen = std::collections::HashSet::new();
            for &(u, v) in &r.edges {
                assert_ne!(u, v, "{degrees:?}");
                assert!(seen.insert((u.min(v), u.max(v))), "{degrees:?}");
            }
        }
    }
}

/// Graphic-sequence repair always lands on a graphic sequence and
/// never increases any degree.
#[test]
fn repair_is_sound() {
    let mut rng = case_rng(concat!(module_path!(), "::repair_is_sound"));
    for _ in 0..256 {
        let degrees = vec_of(&mut rng, 1..50, |r| r.gen_range(0usize..64));
        let mut repaired = degrees.clone();
        graphgen::repair_to_graphic(&mut repaired);
        assert!(
            realization::erdos_gallai::is_graphic(&repaired),
            "{degrees:?}"
        );
        for (a, b) in degrees.iter().zip(&repaired) {
            assert!(b <= a || *b < repaired.len(), "{degrees:?}");
        }
    }
}

/// The sequential greedy tree realizes exactly and is never beaten by
/// the brute-force minimum diameter (n ≤ 7 ⇒ it *equals* it).
#[test]
fn greedy_tree_is_minimal() {
    let mut rng = case_rng(concat!(module_path!(), "::greedy_tree_is_minimal"));
    for _ in 0..256 {
        let extra = vec_of(&mut rng, 5..=5, |r| r.gen_range(0usize..5));
        // Build a tree-realizable sequence on n = 7 from increments.
        let n = 7;
        let mut degrees = vec![1usize; n];
        let mut budget = n - 2;
        for (i, &e) in extra.iter().enumerate() {
            let take = e.min(budget);
            degrees[i % n] += take;
            budget -= take;
        }
        degrees[0] += budget;
        let seq = DegreeSequence::new(degrees.clone());
        if !seq.is_tree_realizable() {
            continue;
        }
        let g = trees::greedy::greedy_tree(&seq).unwrap();
        let got = trees::greedy::diameter_of(&g, n);
        let want = trees::greedy::min_diameter_brute(&seq).unwrap();
        assert_eq!(got, want, "greedy not minimal on {degrees:?}");
    }
}

/// Distributed implicit realization matches its input exactly on
/// random graphic sequences (full simulation, strict KT0).
#[test]
fn distributed_realization_is_exact() {
    let mut rng = case_rng(concat!(
        module_path!(),
        "::distributed_realization_is_exact"
    ));
    for _ in 0..10 {
        let (seed, n) = (rng.gen_range(0u64..500), rng.gen_range(8usize..40));
        let degrees = graphgen::random_graphic_sequence(n, n / 2, seed);
        let out = Realization::new(Workload::Implicit(degrees))
            .seed(seed)
            .run()
            .unwrap();
        let r = out.degrees().expect_realized();
        realization::verify::degrees_match(&r.graph, &r.requested).unwrap();
        assert!(r.metrics.is_clean(), "n={n} seed={seed}");
        assert_eq!(r.duplicate_edges, 0, "n={n} seed={seed}");
    }
}

/// The distributed envelope realization satisfies both Theorem 13
/// invariants on arbitrary (possibly non-graphic) inputs.
#[test]
fn distributed_envelope_invariants() {
    let mut rng = case_rng(concat!(module_path!(), "::distributed_envelope_invariants"));
    for _ in 0..10 {
        let degrees = vec_of(&mut rng, 4..24, |r| r.gen_range(0usize..10));
        let seed = rng.gen_range(0u64..100);
        let n = degrees.len();
        if degrees.iter().any(|&d| d >= n) {
            continue;
        }
        let what = format!("{degrees:?} seed={seed}");
        let out = Realization::new(Workload::Envelope(degrees.clone()))
            .seed(seed)
            .run()
            .unwrap();
        let r = out.degrees().expect_realized();
        let mut envelope_sum = 0;
        for (i, &id) in r.path_order.iter().enumerate() {
            let d_prime = r.multi_degrees[&id];
            assert!(d_prime >= degrees[i], "{what}");
            envelope_sum += d_prime;
        }
        let sum: usize = degrees.iter().sum();
        assert!(envelope_sum <= 2 * sum, "{what}");
        assert!(r.metrics.is_clean(), "{what}");
    }
}

/// Distributed greedy trees have brute-force-minimal diameter (n ≤ 8).
#[test]
fn distributed_greedy_tree_minimal() {
    let mut rng = case_rng(concat!(module_path!(), "::distributed_greedy_tree_minimal"));
    for _ in 0..10 {
        let (seed, n) = (rng.gen_range(0u64..200), rng.gen_range(3usize..8));
        let degrees = graphgen::random_tree_sequence(n, seed);
        let out = Realization::new(Workload::Tree {
            degrees: degrees.clone(),
            algo: TreeAlgo::Greedy,
        })
        .seed(seed)
        .run()
        .unwrap();
        let t = out.tree().expect_realized();
        let seq = DegreeSequence::new(degrees);
        let want = trees::greedy::min_diameter_brute(&seq).unwrap();
        assert_eq!(t.diameter, want, "n={n} seed={seed}");
    }
}
