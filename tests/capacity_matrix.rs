//! The capacity matrix: ten workload shapes at n ∈ {64, 512, 2048}, five
//! capacity factors and both capacity-honest policies — 300 runs through
//! the facade, untracked. Every cell realizes its request (a threshold
//! overlay certified), and none ends in a model violation, a "message
//! loss" panic or the round limit. The steps whose fan-in depends on the
//! data — the first sort's class route, a record of every non-empty class
//! a node a round, and the scheduled hand-offs — choose their schedule
//! from the capacity; this holds them inside it at the capacities the
//! shapes meet. Release-only (`cargo test --release --test
//! capacity_matrix`; CI runs it).

use distributed_graph_realizations::graphgen;
use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::Kt0;

/// The ten shapes at `n` nodes.
fn shapes(n: usize) -> Vec<(&'static str, Workload)> {
    let star_heavy = graphgen::star_heavy_sequence(n, 1, 2, 4);
    let power_law = graphgen::power_law_sequence(n, 64.min(n - 1), 2.5, 2020);
    let tree = graphgen::random_tree_sequence(n, 98);
    let rho = graphgen::uniform_thresholds(n, 1, 5, 2020);
    vec![
        (
            "implicit near-regular",
            Workload::Implicit(graphgen::near_regular_sequence(n, 4, 5)),
        ),
        (
            "implicit star-heavy",
            Workload::Implicit(star_heavy.clone()),
        ),
        ("envelope", Workload::Envelope(power_law.clone())),
        ("explicit power-law", Workload::Explicit(power_law)),
        ("explicit star-heavy", Workload::Explicit(star_heavy)),
        (
            "tree Chain",
            Workload::Tree {
                degrees: tree.clone(),
                algo: TreeAlgo::Chain,
            },
        ),
        (
            "tree Greedy",
            Workload::Tree {
                degrees: tree,
                algo: TreeAlgo::Greedy,
            },
        ),
        ("ncc0", Workload::Ncc0Threshold(rho.clone())),
        ("ncc0-exact", Workload::Ncc0Exact(rho.clone())),
        ("ncc1", Workload::Ncc1(rho)),
    ]
}

/// Whether a run's output is what its request asked for.
fn realized(out: &Realized) -> bool {
    match &out.output {
        RunOutput::Degrees(d) => !d.is_unrealizable(),
        RunOutput::Tree(t) => !t.is_unrealizable(),
        RunOutput::Threshold(t) => t.report.satisfied,
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn every_cell_runs_clean() {
    let mut failed = Vec::new();
    let mut cells = 0;
    for n in [64, 512, 2048] {
        for (shape, workload) in shapes(n) {
            for factor in [0.01, 0.3, 0.5, 0.6, 1.0] {
                for policy in [CapacityPolicy::Strict, CapacityPolicy::Queue] {
                    cells += 1;
                    let cell = format!("{shape} n={n} c={factor} {policy:?}");
                    let run = Realization::new(workload.clone())
                        .seed(2020)
                        .capacity_factor(factor)
                        .policy(policy)
                        .tracking(Kt0::Untracked)
                        .run();
                    match run {
                        Ok(out) if realized(&out) && out.metrics().is_clean() => {}
                        Ok(out) => failed.push(format!("{cell}: {:?}", out.metrics().violations)),
                        Err(e) => failed.push(format!("{cell}: {e}")),
                    }
                }
            }
        }
    }
    assert_eq!(cells, 300);
    assert!(
        failed.is_empty(),
        "{} cells failed:\n{}",
        failed.len(),
        failed.join("\n")
    );
}
