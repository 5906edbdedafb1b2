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
//!
//! The implementation is [`Ncc1Star`](super::ncc1_step::Ncc1Star): `w` is
//! the smallest-ID maximizer of `ρ`, `X_v` is `w` plus the first
//! `ρ(v) - 1` other IDs of the sorted list.

#[cfg(test)]
mod tests {
    use crate::driver::{realize_for_test, ThresholdAlgo, ThresholdRealization};

    fn realize_ncc1(inst: &ThresholdInstance, config: Config) -> ThresholdRealization {
        realize_for_test(inst, config, ThresholdAlgo::Ncc1Star)
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
}
