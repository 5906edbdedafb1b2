//! Differential + guarantee tests for the composed paper-exact
//! Algorithm 6 ([`dgr_connectivity::distributed::ncc0_exact`]).
//!
//! * The batched executor and the reference interpreter run the same
//!   state machine: metrics and overlays must be bit-identical.
//! * The composition must deliver `realize_ncc0_batched`'s guarantees:
//!   max-flow-certified thresholds and full explicit symmetry —
//!   including on instances where the raw prefix envelope under-delivers
//!   distinct neighbors and the distinctness patch has to fire.

use dgr_connectivity::distributed::ncc0_exact;
use dgr_connectivity::{prepare_threshold, ThresholdAlgo, ThresholdInstance, ThresholdRealization};
use dgr_ncc::{Config, EngineKind, NodeId};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

#[path = "../../../tests/support/cases.rs"]
mod cases;

fn run(inst: &ThresholdInstance, seed: u64, engine: EngineKind) -> ThresholdRealization {
    prepare_threshold(
        inst,
        Config::ncc0(seed).with_queueing(),
        ThresholdAlgo::Ncc0Exact,
        engine,
        true,
    )
    .unwrap()
    .drive(None)
    .unwrap()
    .output
}

#[test]
fn composed_alg6_satisfies_thresholds() {
    for rho in [
        vec![1, 1],
        vec![2, 2, 1, 1, 1],
        vec![4, 3, 2, 2, 1, 1, 1, 1],
        vec![3; 9],
        vec![6, 6, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1],
        vec![1; 12],
    ] {
        let inst = ThresholdInstance::new(rho.clone());
        let out = run(&inst, 55, EngineKind::Batched);
        assert!(
            out.report.satisfied,
            "rho={rho:?}: {:?}",
            out.report.first_violation
        );
        assert!(out.metrics.undelivered == 0, "rho={rho:?}");
        // Explicit: every node's list covers at least its requirement in
        // distinct neighbors.
        for (&id, &r) in &out.rho {
            let mut nbs = out.explicit_neighbors[&id].clone();
            nbs.sort_unstable();
            nbs.dedup();
            assert!(
                nbs.len() >= r,
                "node {id} wanted {r} distinct neighbors, got {}",
                nbs.len()
            );
        }
    }
}

#[test]
fn composed_alg6_is_engine_invariant() {
    for (rho, seed) in [
        (vec![2, 2, 1, 1, 1], 7u64),
        (vec![4, 3, 2, 2, 1, 1, 1, 1], 8),
        (vec![3; 9], 9),
        (vec![5, 4, 4, 3, 2, 2, 1, 1, 1, 1, 1], 10),
    ] {
        let inst = ThresholdInstance::new(rho.clone());
        let batched = run(&inst, seed, EngineKind::Batched);
        let reference = run(&inst, seed, EngineKind::Reference);
        assert_eq!(
            batched.metrics, reference.metrics,
            "rho={rho:?}: engines disagree on the transcript"
        );
        assert_eq!(
            batched.graph.edge_list(),
            reference.graph.edge_list(),
            "rho={rho:?}: engines disagree on the realized overlay"
        );
    }
}

#[test]
fn composed_alg6_matches_pipeline_guarantees() {
    // The composed protocol and the default cyclic-pipeline substitute
    // realize different overlays, but both must certify the same
    // instance and stay within the 2x edge bound.
    for rho in [
        vec![3, 3, 2, 2, 1, 1],
        vec![4; 8],
        vec![5, 4, 3, 2, 1, 1, 1, 1, 1],
    ] {
        let inst = ThresholdInstance::new(rho.clone());
        let exact = run(&inst, 21, EngineKind::Batched);
        let pipeline = prepare_threshold(
            &inst,
            Config::ncc0(21).with_queueing(),
            ThresholdAlgo::Ncc0Pipeline,
            EngineKind::Batched,
            true,
        )
        .unwrap()
        .drive(None)
        .unwrap()
        .output;
        assert!(exact.report.satisfied, "exact failed on rho={rho:?}");
        assert!(pipeline.report.satisfied, "pipeline failed on rho={rho:?}");
        let bound = inst.sum(); // Σρ ≤ 2·OPT
        assert!(exact.graph.edge_count() <= bound, "rho={rho:?}");
    }
}

#[test]
fn composed_alg6_sweeps_random_instances() {
    // Seeded pseudo-random instances; every one must certify. This is
    // the sweep that exercises the distinctness patch: envelope
    // duplicate edges appear on skewed multi-phase prefixes.
    let mut state = 0x12345678u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for trial in 0..12 {
        let n = 6 + next() % 18;
        let rho: Vec<usize> = (0..n).map(|_| 1 + next() % (n - 1)).collect();
        let inst = ThresholdInstance::new(rho.clone());
        let out = run(&inst, 100 + trial, EngineKind::Batched);
        assert!(
            out.report.satisfied,
            "trial {trial} rho={rho:?}: {:?}",
            out.report.first_violation
        );
    }
}

/// The largest distinctness gap the prefix envelope leaves — a prefix
/// node's requirement less its distinct envelope neighbors — by a
/// sequential replay of the envelope's phase loop on the prefix of the
/// `ρ`-sorted order, the nodes in `path_order`. Each sort orders the
/// records by need, non-increasing, ties by the position the path they
/// sort on was established with, as the sorts leave them: the full path's
/// for the prefix, the prefix's own in the envelope.
fn envelope_max_shortfall(rho: &BTreeMap<NodeId, usize>, path_order: &[NodeId]) -> u64 {
    let by_rank = |records: &mut Vec<(usize, usize)>| {
        records.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    };
    let mut records: Vec<(usize, usize)> = (path_order.iter().enumerate())
        .map(|(x, id)| (rho[id], x))
        .collect();
    by_rank(&mut records);
    records.truncate(records[0].0 + 1);
    // The prefix sub-path's positions are the prefix's ranks.
    let prefix: Vec<(usize, usize)> = (records.iter().enumerate())
        .map(|(rank, &(r, _))| (r, rank))
        .collect();
    let mut records = prefix.clone();
    let mut neighbors: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    loop {
        by_rank(&mut records);
        let delta = records[0].0;
        if delta == 0 {
            break;
        }
        let stride = delta + 1;
        let q = (records.iter().take_while(|r| r.0 == delta).count() / stride).max(1);
        for x in 0..q * stride {
            let leader = records[x - x % stride].1;
            if x % stride == 0 {
                records[x].0 = 0;
                continue;
            }
            records[x].0 = records[x].0.saturating_sub(1);
            let member = records[x].1;
            neighbors.entry(member).or_default().insert(leader);
            neighbors.entry(leader).or_default().insert(member);
        }
    }
    let distinct = |id| neighbors.get(&id).map_or(0, BTreeSet::len);
    let gaps = prefix
        .iter()
        .map(|&(r, id)| r.saturating_sub(distinct(id)) as u64);
    gaps.max().unwrap_or(0)
}

/// A tiered profile on 48 nodes: `sixes` nodes at 6, sixteen at `mid`,
/// the rest at 1. Four at 6 and sixteen at 3 is the paper's multigraph
/// corner.
fn tiered(sixes: usize, mid: usize) -> Vec<usize> {
    let mut rho = vec![1usize; 48];
    rho[..sixes].fill(6);
    rho[sixes..sixes + 16].fill(mid);
    rho
}

/// The closed form is the run: [`ncc0_exact::rounds_for`], fed the
/// envelope's gap by the replay above, equals the measured rounds on both
/// engines — for uniform `ρ ∈ [1, 5]` at n ∈ {64, 256, 2048}, where the
/// six-node prefix is a clique with no gap, for three tiered profiles:
/// the multigraph corner and five nodes at 6, whose gaps (3 and 2) the
/// patch ring closes, and four at 6 over sixteen at 4, without a gap
/// (equal requirements keep their path order, so a profile's gap does not
/// depend on the seed), and for `ρ ≡ 1` at n ∈ {2, 17}: the smallest `d₀`
/// request validation admits, whose token pipeline has one round (a debug
/// build also checks that its queues are empty at that deadline).
#[test]
fn rounds_follow_the_closed_form() {
    let mut rng = cases::case_rng("ncc0_exact::rounds_follow_the_closed_form");
    let mut cases: Vec<(Vec<usize>, u64, u64)> = [64usize, 256, 2048]
        .into_iter()
        .zip([61, 62, 63])
        .map(|(n, seed)| ((0..n).map(|_| rng.gen_range(1..=5)).collect(), seed, 0))
        .collect();
    for ((sixes, mid), seed, gap) in [((4, 3), 9, 3), ((5, 3), 29, 2), ((4, 4), 31, 0)] {
        cases.push((tiered(sixes, mid), seed, gap));
    }
    cases.extend([(vec![1; 2], 64, 0), (vec![1; 17], 65, 0)]);
    for (rho, seed, gap) in cases {
        let inst = ThresholdInstance::new(rho);
        let n = inst.len();
        let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let out = run(&inst, seed, engine);
            assert!(out.report.satisfied, "n={n} seed={seed} {engine:?}");
            let shortfall = envelope_max_shortfall(&out.rho, &out.path_order);
            assert_eq!(shortfall, gap, "n={n} seed={seed}");
            let m = &out.metrics;
            let want = ncc0_exact::rounds_for(&inst.rho, gap, m.capacity);
            assert_eq!(m.rounds, want, "n={n} seed={seed} {engine:?}");
            out.metrics
        });
        assert_eq!(runs[0], runs[1], "n={n} seed={seed}");
    }
}
