//! Differential + guarantee tests for the composed paper-exact
//! Algorithm 6 ([`dgr_connectivity::distributed::ncc0_exact`]).
//!
//! * The batched executor and the reference interpreter run the same
//!   state machine: metrics and overlays must be bit-identical.
//! * The composition must deliver `realize_ncc0_batched`'s guarantees:
//!   max-flow-certified thresholds and full explicit symmetry —
//!   including on instances where the raw prefix envelope under-delivers
//!   distinct neighbors and the distinctness patch has to fire.

use dgr_connectivity::{prepare_threshold, ThresholdAlgo, ThresholdInstance, ThresholdRealization};
use dgr_ncc::{Config, EngineKind};

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
