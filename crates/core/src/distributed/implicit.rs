//! Algorithm 3: distributed implicit degree realization in
//! `O~(min{√m, Δ})` rounds (Theorem 11).
//!
//! A parallelized Havel–Hakimi. Each phase:
//!
//! 1. sort the nodes by remaining degree, non-increasing (Theorem 3);
//! 2. broadcast the maximum remaining degree `δ`; if `δ = 0`, stop;
//! 3. broadcast `N`, the multiplicity of `δ`, and let
//!    `q = max(1, ⌊N/(δ+1)⌋)`;
//! 4. split the first `q(δ+1)` sorted ranks into `q` star groups; each
//!    group's first node multicasts its ID to the other `δ` members
//!    (interval multicast on the sorted path), which store the edge and
//!    decrement their remaining degree, while the leader is fully
//!    satisfied and drops to 0;
//! 5. a member whose degree would go negative triggers a global
//!    `UNREALIZABLE` flag (aggregated + broadcast).
//!
//! Lemma 10: every phase (or every second phase) removes the current
//! maximum degree, and at most `O(√m)` phases involve degrees above `√m`,
//! so the loop runs `O(min{√m, Δ})` times; each phase is `O~(1)` rounds.

//!
//! The implementation is [`RealizeDegrees`](super::proto::RealizeDegrees)
//! (its [`DegreesCore`](super::proto::DegreesCore) is the phase engine,
//! parameterized by a *local* path scope to realize on — which may be a
//! sorted-path prefix, as in Algorithm 6 — and a *global* one whose tree
//! carries the loop's data-dependent control values: δ, N, the error flag).

use crate::sequence::DegreeSequence;

/// Degree-handling mode for the shared phase engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Exact realization: a negative degree aborts with `UNREALIZABLE`.
    Exact,
    /// Upper-envelope realization (Theorem 13): saturated nodes accept
    /// extra edges instead of failing.
    Envelope,
}

/// The Lemma 10 phase bound: `min{√m, Δ}` up to constants — exposed so the
/// experiment harness can compare measured phase counts against it.
pub fn phase_bound(seq: &DegreeSequence) -> f64 {
    let m = seq.edge_count() as f64;
    let delta = seq.max_degree() as f64;
    m.sqrt().min(delta)
}

#[cfg(test)]
mod tests {
    use crate::distributed::proto::Flavor;
    use crate::driver::{realize_for_test, DriverOutput};
    use dgr_ncc::Config;

    fn realize(degrees: &[usize], config: Config) -> DriverOutput {
        realize_for_test(degrees, config, Flavor::Implicit)
    }

    #[test]
    fn realizes_a_triangle() {
        let out = realize(&[2, 2, 2], Config::ncc0(1));
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 3);
        assert_eq!(g.graph.degree_sequence(), vec![2, 2, 2]);
        assert!(g.metrics.is_clean());
    }

    #[test]
    fn realizes_k5_and_stars() {
        for degrees in [
            vec![4, 4, 4, 4, 4],
            vec![5, 1, 1, 1, 1, 1],
            vec![3, 3, 2, 2, 1, 1],
            vec![0, 0, 0],
            vec![1, 1, 0, 0],
        ] {
            let out = realize(&degrees, Config::ncc0(7));
            let g = out.expect_realized();
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(g.graph.degree_sequence(), want, "{degrees:?}");
            assert_eq!(g.duplicate_edges, 0, "{degrees:?}");
        }
    }

    #[test]
    fn rejects_non_graphic_sequences() {
        for degrees in [
            vec![1, 0],             // odd sum
            vec![3, 3, 1, 1],       // EG violation
            vec![4, 4, 4, 1, 1],    // EG violation
            vec![3, 1, 1],          // degree ≥ n handled mid-run
            vec![5, 5, 4, 3, 2, 1], // classic
        ] {
            let out = realize(&degrees, Config::ncc0(3));
            assert!(out.is_unrealizable(), "{degrees:?} was accepted");
        }
    }

    #[test]
    fn phase_count_is_within_lemma10() {
        // A 6-regular sequence on 32 nodes: Δ = 6, so at most ~2Δ phases.
        let degrees = vec![6usize; 32];
        let out = realize(&degrees, Config::ncc0(5));
        let g = out.expect_realized();
        assert!(
            g.phases <= 2 * 6 + 2,
            "phases {} exceed Lemma 10 allowance",
            g.phases
        );
    }

    #[test]
    fn single_node_zero_degree() {
        let out = realize(&[0], Config::ncc0(1));
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 0);
        let out = realize(&[1], Config::ncc0(1));
        assert!(out.is_unrealizable());
    }
}
