//! Driver-level differential tests for the tree realizations.
//!
//! * **Engine differential** — the `RealizeTree` state machine
//!   (Algorithms 4 and 5) on the batched executor and on the reference
//!   interpreter: same tree, diameter and bit-identical metrics.
//! * **Frozen transcripts** — both algorithms were first written in
//!   direct style (blocking closures on a thread-per-node engine) and the
//!   state machine was held round-for-round to those twins. The twins are
//!   gone; what they produced on every case of this suite is recorded in
//!   [`GOLDEN`] — from the twin itself, at the last commit that had one —
//!   and both engines must keep reproducing it. The random sweep is
//!   frozen as one folded hash (its cases come from the test's name,
//!   through `tests/support/cases.rs`).

use dgr_ncc::{Config, EngineKind, Scenario, SimError};
use dgr_primitives::{imcast, levels_for};
use dgr_trees::distributed::rounds_for;
use dgr_trees::{prepare_tree, TreeAlgo, TreeRealization};
use rand::Rng;

#[path = "../../../tests/support/cases.rs"]
mod cases;
use cases::{fnv, FNV_OFFSET};

// White-box shorthand over the `prepare_tree` engine room.
fn realize(d: &[usize], c: Config, algo: TreeAlgo, engine: EngineKind) -> TreeRealization {
    prepare_tree(d, c, algo, engine)
        .unwrap()
        .drive(None)
        .unwrap()
        .output
}

/// One frozen transcript: realized?, diameter, rounds, messages, words,
/// max sent per round, max received per round, FNV-1a of the sorted edge
/// list (diameter 0 and the bare offset on a refusal).
type Golden = (bool, usize, u64, u64, u64, usize, usize, u64);

/// The transcript of a run, in [`Golden`] form.
fn transcript(out: &TreeRealization) -> Golden {
    let (realized, diameter, m, edges) = match out {
        TreeRealization::Realized(t) => {
            let fold = |h, &(a, b): &(u64, u64)| fnv(fnv(h, a), b);
            let edges = t.graph.edge_list().iter().fold(FNV_OFFSET, fold);
            (true, t.diameter, &t.metrics, edges)
        }
        TreeRealization::Unrealizable { metrics } => (false, 0, metrics, FNV_OFFSET),
    };
    (
        realized,
        diameter,
        m.rounds,
        m.messages,
        m.words,
        m.max_sent_per_round,
        m.max_received_per_round,
        edges,
    )
}

/// What the direct-style twin of each case produced (see the module
/// docs), keyed by case name.
#[rustfmt::skip]
const GOLDEN: &[(&str, Golden)] = &[
    ("Chain [1, 1]", (true, 1, 9, 9, 20, 1, 1, 0x082f2407b4e8902a)),
    ("Greedy [1, 1]", (true, 1, 9, 9, 22, 1, 1, 0x082f2407b4e8902a)),
    ("Chain [2, 1, 1]", (true, 2, 13, 20, 51, 2, 2, 0xde796c5e4eb5ee0d)),
    ("Greedy [2, 1, 1]", (true, 2, 13, 20, 52, 2, 2, 0xde796c5e4eb5ee0d)),
    ("Chain [2, 2, 2, 1, 1]", (true, 4, 19, 45, 119, 2, 2, 0x6cf363375626802a)),
    ("Greedy [2, 2, 2, 1, 1]", (true, 4, 19, 45, 124, 2, 2, 0x19f87c949da68724)),
    ("Chain [4, 1, 1, 1, 1]", (true, 2, 19, 45, 121, 2, 2, 0x391910203356dc13)),
    ("Greedy [4, 1, 1, 1, 1]", (true, 2, 19, 45, 122, 2, 2, 0x391910203356dc13)),
    ("Chain [3, 3, 1, 1, 1, 1]", (true, 3, 19, 60, 165, 2, 2, 0xb653d13bbdf537da)),
    ("Greedy [3, 3, 1, 1, 1, 1]", (true, 3, 19, 60, 167, 2, 2, 0x413adcbd2152199a)),
    ("Chain [3, 3, 2, 1, 1, 1, 1]", (true, 4, 19, 74, 204, 2, 2, 0x3176adde87fbc574)),
    ("Greedy [3, 3, 2, 1, 1, 1, 1]", (true, 4, 19, 74, 208, 2, 2, 0x047cd3b2c24a6050)),
    ("Chain [2, 2, 2, 2, 2, 1, 1]", (true, 6, 19, 74, 201, 2, 2, 0xbea8f440b292a7a2)),
    ("Greedy [2, 2, 2, 2, 2, 1, 1]", (true, 6, 19, 73, 206, 2, 2, 0xb442759410f368d0)),
    ("Chain [0]", (true, 0, 1, 0, 0, 0, 0, 0xcbf29ce484222325)),
    ("Greedy [0]", (true, 0, 1, 0, 0, 0, 0, 0xcbf29ce484222325)),
    ("Chain [2, 2, 2]", (false, 0, 5, 12, 34, 2, 2, 0xcbf29ce484222325)),
    ("Greedy [2, 2, 2]", (false, 0, 5, 12, 34, 2, 2, 0xcbf29ce484222325)),
    ("Chain [1, 1, 1, 1]", (false, 0, 7, 19, 55, 2, 2, 0xcbf29ce484222325)),
    ("Greedy [1, 1, 1, 1]", (false, 0, 7, 19, 55, 2, 2, 0xcbf29ce484222325)),
    ("Chain [2, 2, 1, 1, 0]", (false, 0, 8, 28, 84, 2, 2, 0xcbf29ce484222325)),
    ("Greedy [2, 2, 1, 1, 0]", (false, 0, 8, 28, 84, 2, 2, 0xcbf29ce484222325)),
];

/// The folded transcripts of the random sweep, from the twins.
const GOLDEN_SWEEP: u64 = 0x6ff7_7003_288f_001b;

/// What a change of schedule may not move: the realized?, diameter and
/// edge-hash columns of every [`GOLDEN`] row, then of every case of the
/// sweep, folded into one hash. The schedule columns — rounds, messages,
/// words, the per-round maxima — and the sweep fold above, which includes
/// them, are re-frozen when a round budget changes; this fold is not.
const GOLDEN_OVERLAYS: u64 = 0x16e0_bd7c_0fe9_7fb9;

/// Holds a run to the frozen transcript of its case.
fn assert_golden(case: &str, out: &TreeRealization) {
    let golden = GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("no golden row for case {case:?}"));
    assert_eq!(transcript(out), golden.1, "{case}: transcript drifted");
}

/// The metrics of a run, whichever way it ended.
fn metrics_of(out: &TreeRealization) -> &dgr_ncc::RunMetrics {
    match out {
        TreeRealization::Realized(t) => &t.metrics,
        TreeRealization::Unrealizable { metrics } => metrics,
    }
}

#[test]
fn tree_drivers_match_frozen_twins_on_both_engines() {
    for degrees in [
        vec![1, 1],
        vec![2, 1, 1],
        vec![2, 2, 2, 1, 1],
        vec![4, 1, 1, 1, 1],
        vec![3, 3, 1, 1, 1, 1],
        vec![3, 3, 2, 1, 1, 1, 1],
        vec![2, 2, 2, 2, 2, 1, 1],
        vec![0],             // single node
        vec![2, 2, 2],       // cycle sum: unrealizable
        vec![1, 1, 1, 1],    // forest sum: unrealizable
        vec![2, 2, 1, 1, 0], // zero degree: unrealizable
    ] {
        for algo in [TreeAlgo::Chain, TreeAlgo::Greedy] {
            // golden == batched == reference.
            let case = format!("{algo:?} {degrees:?}");
            let batched = realize(&degrees, Config::ncc0(91), algo, EngineKind::Batched);
            let reference = realize(&degrees, Config::ncc0(91), algo, EngineKind::Reference);
            assert_golden(&case, &batched);
            assert_golden(&case, &reference);
            assert_eq!(metrics_of(&batched), metrics_of(&reference), "{case}");
            // A realized row is a tree with exactly the requested degrees.
            if let TreeRealization::Realized(t) = &batched {
                assert!(t.graph.is_tree(), "{case}");
                let mut want = degrees.clone();
                want.sort_unstable_by(|a, b| b.cmp(a));
                assert_eq!(t.graph.degree_sequence(), want, "{case}");
            }
        }
    }
}

#[test]
fn batched_greedy_is_min_diameter() {
    // Theorem 16 holds on the batched engine: the realized diameter equals
    // the sequential greedy tree's (Lemma 15: minimal).
    let degrees = vec![3, 3, 3, 2, 2, 1, 1, 1, 1, 1];
    let out = realize(
        &degrees,
        Config::ncc0(92),
        TreeAlgo::Greedy,
        EngineKind::Batched,
    );
    let t = out.expect_realized();
    let seq = dgr_core::DegreeSequence::new(degrees.clone());
    let reference = dgr_trees::greedy::greedy_tree(&seq).unwrap();
    assert_eq!(
        t.diameter,
        dgr_trees::greedy::diameter_of(&reference, degrees.len())
    );
    assert!(t.metrics.is_clean());
}

/// Derives a valid tree degree sequence from random attachment choices:
/// node `i + 1` attaches to `picks[i] % (i + 1)`.
fn tree_degrees(picks: &[usize]) -> Vec<usize> {
    let n = picks.len() + 1;
    let mut degrees = vec![0usize; n];
    for (i, &p) in picks.iter().enumerate() {
        let parent = p % (i + 1);
        degrees[parent] += 1;
        degrees[i + 1] += 1;
    }
    degrees
}

/// Random attachment trees: both engines reproduce the twin's tree with
/// the requested degrees, for both algorithms. Draws the cases this test
/// first ran against the twins (its name-derived case stream); returns
/// the transcript of every run.
fn sweep() -> Vec<Golden> {
    let name = format!("{}::tree_sweep_engines_agree", module_path!());
    let mut rng = cases::case_rng(&name);
    let mut rows = Vec::new();
    for _ in 0..16 {
        let picks = cases::vec_of(&mut rng, 2..24, |r| r.gen_range(0usize..1000));
        let seed = rng.gen_range(0u64..1000);
        let degrees = tree_degrees(&picks);
        for algo in [TreeAlgo::Chain, TreeAlgo::Greedy] {
            let what = format!("{algo:?} {degrees:?}");
            let batched = realize(&degrees, Config::ncc0(seed), algo, EngineKind::Batched);
            let reference = realize(&degrees, Config::ncc0(seed), algo, EngineKind::Reference);
            assert_eq!(transcript(&batched), transcript(&reference), "{what}");
            assert_eq!(metrics_of(&batched), metrics_of(&reference), "{what}");
            let t = batched.expect_realized();
            let cap = t.metrics.capacity;
            assert_eq!(t.metrics.rounds, rounds_for(&degrees, cap), "{what}");
            assert!(t.graph.is_tree());
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(t.graph.degree_sequence(), want);
            rows.push(transcript(&batched));
        }
    }
    rows
}

/// The input check's sweep and the degree sort share their rounds: the
/// check outlasts the sort at n = 2 and 4, ties it at n = 8 and is the
/// shorter at n = 3, 5..=7 and from n = 9 on, at the default capacity.
/// At lengths on each side, one long path, at the default capacity and at
/// the capacity floor (cap = 4, where the long path's check is paced: two
/// sweep messages a round at most, beside one of the sort), both
/// algorithms run clean under the strict policy on both engines, within
/// the cap on both sides, on the closed form.
#[test]
fn check_beside_the_sort_runs_clean_at_its_edges() {
    use dgr_primitives::{ops, sort};
    use std::cmp::Ordering::{Equal, Greater, Less};
    for n in 2..=1 << 16 {
        let cap = Config::ncc0(0).capacity(n);
        let (check, sort) = (ops::rounds_for(n, cap), sort::rounds_for(n));
        let edge = match n {
            2 | 4 => Greater,
            8 => Equal,
            _ => Less,
        };
        assert_eq!(check.cmp(&sort), edge, "n={n}");
    }
    for n in [3usize, 4, 6, 9, 256] {
        // A heap-shaped tree: node i + 1 hangs below node i / 2.
        let picks: Vec<usize> = (0..n - 1).map(|i| i / 2).collect();
        let degrees = tree_degrees(&picks);
        for factor in [2.0, 0.1] {
            let config = Config::ncc0(n as u64 + 60).with_capacity_factor(factor);
            for algo in [TreeAlgo::Chain, TreeAlgo::Greedy] {
                let what = format!("n={n} factor={factor} {algo:?}");
                let batched = realize(&degrees, config.clone(), algo, EngineKind::Batched);
                let reference = realize(&degrees, config.clone(), algo, EngineKind::Reference);
                assert_eq!(metrics_of(&batched), metrics_of(&reference), "{what}");
                let t = batched.expect_realized();
                let m = &t.metrics;
                assert!(t.graph.is_tree(), "{what}");
                assert!(m.is_clean(), "{what}: {:?}", m.violations);
                assert!(
                    factor > 1.0 || m.capacity == 4,
                    "{what}: cap {}",
                    m.capacity
                );
                assert!(m.max_sent_per_round <= m.capacity, "{what}");
                assert!(m.max_received_per_round <= m.capacity, "{what}");
                assert_eq!(m.rounds, rounds_for(&degrees, m.capacity), "{what}");
            }
        }
    }
}

/// Folds transcripts into one hash: every column, or (`overlay_only`)
/// just realized?, diameter and the edge hash.
fn fold(rows: &[Golden], overlay_only: bool) -> u64 {
    let mut folded = FNV_OFFSET;
    for &(ok, diameter, rounds, messages, words, sent, received, edges) in rows {
        let schedule = [rounds, messages, words, sent as u64, received as u64];
        folded = fnv(fnv(folded, ok as u64), diameter as u64);
        if !overlay_only {
            folded = schedule.iter().fold(folded, |h, &x| fnv(h, x));
        }
        folded = fnv(folded, edges);
    }
    folded
}

#[test]
fn tree_sweep_engines_agree() {
    assert_eq!(
        fold(&sweep(), false),
        GOLDEN_SWEEP,
        "sweep transcript drifted"
    );
}

/// The schedule-independent columns of the whole suite (the table rows
/// are held to their runs by `tree_drivers_match_frozen_twins_on_both_engines`).
#[test]
fn overlays_match_the_frozen_fold() {
    let mut rows: Vec<Golden> = GOLDEN.iter().map(|(_, row)| *row).collect();
    rows.extend(sweep());
    assert_eq!(
        fold(&rows, true),
        GOLDEN_OVERLAYS,
        "a tree or a diameter moved"
    );
}

/// A node that crashes mid-run breaks the run before it can leave an
/// overlay that is not a tree: every node hears its record's status in
/// the last round, so whatever the crash round inside the run, the run
/// ends in a model violation or a typed node panic, the same on both
/// engines; a crash scheduled past the last round leaves the fault-free
/// tree. (`driver::tests` holds the assembly check that rejects a forest.)
#[test]
fn a_crash_ends_in_a_tree_or_a_typed_error() {
    let picks: Vec<usize> = (0..63).map(|i| i / 2).collect();
    let degrees = tree_degrees(&picks);
    let rounds = rounds_for(&degrees, Config::ncc0(7).capacity(degrees.len()));
    for round in 0..=rounds + 2 {
        for algo in [TreeAlgo::Chain, TreeAlgo::Greedy] {
            let config = Config::ncc0(7).with_scenario(Scenario::new(7).crash(5, round));
            let [batched, reference] = [EngineKind::Batched, EngineKind::Reference].map(|e| {
                let job = prepare_tree(&degrees, config.clone(), algo, e).unwrap();
                job.drive(None).map(|run| run.output)
            });
            let what = format!("{algo:?} crash at round {round}");
            match (batched, reference) {
                (Ok(b), Ok(r)) => {
                    assert!(round >= rounds, "{what}: the crash went unnoticed");
                    assert_eq!(transcript(&b), transcript(&r), "{what}");
                    assert!(b.expect_realized().graph.is_tree(), "{what}");
                }
                (Err(b), Err(r)) => {
                    assert_eq!(b.to_string(), r.to_string(), "{what}");
                    assert!(round < rounds, "{what}: {b}");
                    assert!(
                        matches!(b, SimError::Violation(_) | SimError::NodePanic { .. }),
                        "{what}: {b}"
                    );
                }
                (b, r) => panic!("{what}: engines disagree: {b:?} / {r:?}"),
            }
        }
    }
}

/// A hand-off that loses messages fails loudly at n = 64, on both engines
/// and for both algorithms. With the round of the statuses dropped, no
/// origin hears what its record's position learned; with the multicast's
/// leg dropped, no payload reaches its interval, and the positions there
/// know no parent.
#[test]
fn a_lost_hand_off_message_panics_on_both_engines() {
    let picks: Vec<usize> = (0..63).map(|i| i / 2).collect();
    let degrees = tree_degrees(&picks);
    let n = degrees.len();
    let last = rounds_for(&degrees, Config::ncc0(7).capacity(n)) - 1;
    let leg = last - imcast::offset_rounds_for(n);
    let cases = [
        (
            last..=last,
            "message loss: an origin missed its record's status",
        ),
        (
            leg..=leg + levels_for(n) as u64 - 1,
            "message loss: a position missed its parent",
        ),
    ];
    for (dropped, want) in cases {
        let config = Config::ncc0(7).with_scenario(Scenario::new(5).drop_messages(dropped, 1.0));
        for algo in [TreeAlgo::Chain, TreeAlgo::Greedy] {
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let job = prepare_tree(&degrees, config.clone(), algo, engine).unwrap();
                match job.drive(None) {
                    Err(SimError::NodePanic { message, .. }) => assert_eq!(message, want),
                    other => panic!("{algo:?} {engine:?}: expected a node panic, got {other:?}"),
                }
            }
        }
    }
}
