//! Theorem 17: `O~(1)`-round *implicit* threshold realization in NCC1.
//!
//! 1. Find the maximum-`ρ` node `w` (data aggregation) and broadcast its
//!    address.
//! 2. Every node `v ≠ w` locally picks `X_v ∋ w` of size `ρ(v)` from the
//!    globally known ID list and outputs `X_v × {v}` — zero additional
//!    rounds, since NCC1 nodes already know every address.
//!
//! Correctness: `(v,w)` plus `(v, x, w)` for the other `x ∈ X_v` are
//! `ρ(v)` edge-disjoint `v`–`w` paths (every `x` also connected to `w`),
//! and Menger lifts `Conn(v₁, v₂) ≥ min(ρ(v₁), ρ(v₂))` to all pairs.
//! Edges: `Σ_{v≠w} ρ(v) ≤ Σρ ≤ 2·OPT`.

#[cfg(feature = "threaded")]
use {
    super::ThresholdOutcome,
    dgr_ncc::NodeHandle,
    dgr_primitives::{ops, PathCtx},
};

/// Runs the NCC1 star construction at one node. `rho` is this node's
/// requirement; every node must call simultaneously. Requires the NCC1
/// model (panics otherwise, via [`NodeHandle::all_ids`]).
#[cfg(feature = "threaded")]
pub fn realize(h: &mut NodeHandle, rho: usize) -> ThresholdOutcome {
    // Aggregation infrastructure: the path context (O(log n) rounds; in
    // NCC1 the knowledge path is available too, and this is the cheapest
    // O~(1) aggregation structure we have).
    let ctx = PathCtx::establish(h);
    let max_rho = ops::aggregate_broadcast(h, &ctx.vp, &ctx.tree, rho as u64, u64::max);
    // w = the smallest-ID node among the maximizers (broadcast_addr picks
    // the minimum, making the choice consistent everywhere).
    let w = ops::broadcast_addr(
        h,
        &ctx.vp,
        &ctx.tree,
        (rho as u64 == max_rho).then(|| h.id()),
    );

    let mut outcome = ThresholdOutcome {
        rho,
        neighbors: Vec::new(),
    };
    if h.id() != w {
        // X_v: w plus the first ρ(v)-1 other IDs from the global list.
        outcome.neighbors.push(w);
        outcome.neighbors.extend(
            h.all_ids()
                .iter()
                .copied()
                .filter(|&x| x != h.id() && x != w)
                .take(rho.saturating_sub(1)),
        );
        debug_assert_eq!(outcome.neighbors.len(), rho.max(1).min(h.n() - 1));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use crate::driver::{realize_threshold_run, ThresholdAlgo, ThresholdRealization};
    use dgr_ncc::EngineKind;
    use dgr_primitives::sort::SortBackend;

    fn realize_ncc1(inst: &ThresholdInstance, config: Config) -> ThresholdRealization {
        let (algo, engine) = (ThresholdAlgo::Ncc1Star, EngineKind::Batched);
        realize_threshold_run(inst, config, algo, engine, SortBackend::Bitonic, true, None)
            .unwrap()
            .output
    }
    use crate::ThresholdInstance;
    use dgr_ncc::Config;

    #[test]
    fn star_realization_meets_thresholds_and_2approx() {
        for rho in [
            vec![1usize, 1, 1, 1, 1],
            vec![3, 3, 3, 3],
            vec![4, 3, 2, 2, 1, 1, 1, 1],
        ] {
            let inst = ThresholdInstance::new(rho.clone());
            let out = realize_ncc1(&inst, Config::ncc1(61));
            assert!(out.report.satisfied, "{rho:?}: {:?}", out.report);
            assert!(
                out.graph.edge_count() <= inst.sum(),
                "{rho:?}: {} edges > Σρ",
                out.graph.edge_count()
            );
            assert!(out.metrics.is_clean());
        }
    }

    #[test]
    fn rounds_are_polylog_constant_in_rho() {
        // O~(1): round count must not depend on Δ = max ρ.
        let small = ThresholdInstance::new(vec![2; 32]);
        let large = ThresholdInstance::new(vec![20; 32]);
        let r1 = realize_ncc1(&small, Config::ncc1(62)).metrics.rounds;
        let r2 = realize_ncc1(&large, Config::ncc1(62)).metrics.rounds;
        assert_eq!(r1, r2, "rounds depend on Δ");
    }
}
