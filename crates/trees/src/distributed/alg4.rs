//! Algorithm 4 (Distributed-Tree-Realization-1), Theorem 14: implicit
//! tree realization in `O(polylog n)` rounds.
//!
//! Construction (0-based over the degree-sorted ranks, `k` = number of
//! non-leaves, `k_eff = max(k, 1)`):
//!
//! 1. chain ranks `0..=k_eff` (the rank-`k_eff` node is the first leaf,
//!    absorbed by the chain's end);
//! 2. rank `i < k_eff` still owes `slots_i = d_i - 1 - [i>0]` edges; the
//!    remaining leaves (ranks `k_eff+1..n`) are assigned to the non-leaves
//!    in order by the prefix sums of `slots` (the paper's `p_i`);
//! 3. each non-leaf announces its ID to its leaf interval.
//!
//! Step 3's intervals are far from their sources, so the paper routes the
//! announcements with the Theorem 6/7 butterfly machinery. We instead
//! **re-sort once** with keys that interleave each source immediately
//! before its leaf interval (source key `2a_i`, leaf key `2·pos + 1`),
//! after which every group is contiguous with its source at the head and
//! the plain interval multicast applies — same `O~(1)` cost, no butterfly
//! (see `DESIGN.md` §4).
//!
//! The implementation is [`RealizeTree`](super::proto::RealizeTree) with
//! [`TreeAlgo::Chain`](crate::TreeAlgo); it refuses
//! ([`Unrealizable`](dgr_core::Unrealizable)) when `Σd ≠ 2(n-1)` or some
//! degree is 0.

#[cfg(test)]
mod tests {
    use crate::driver::{realize_tree, TreeAlgo};
    use dgr_ncc::Config;

    #[test]
    fn realizes_paths_stars_and_mixed_profiles() {
        for degrees in [
            vec![1, 1],
            vec![2, 1, 1],
            vec![2, 2, 2, 1, 1],       // path of 5
            vec![4, 1, 1, 1, 1],       // star
            vec![3, 3, 1, 1, 1, 1],    // double star
            vec![3, 3, 2, 1, 1, 1, 1], // sum 12 = 2*6 ✓
        ] {
            let out = realize_tree(&degrees, Config::ncc0(91), TreeAlgo::Chain);
            let t = out.expect_realized();
            assert!(t.graph.is_tree(), "{degrees:?} not a tree");
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(t.graph.degree_sequence(), want, "{degrees:?}");
            assert!(t.metrics.is_clean());
        }
    }

    #[test]
    fn chain_diameter_matches_sequential_chain_tree() {
        let degrees = vec![3, 3, 3, 2, 2, 1, 1, 1, 1, 1];
        let out = realize_tree(&degrees, Config::ncc0(92), TreeAlgo::Chain);
        let t = out.expect_realized();
        let seq = dgr_core::DegreeSequence::new(degrees.clone());
        let reference = crate::greedy::chain_tree(&seq).unwrap();
        let want = crate::greedy::diameter_of(&reference, degrees.len());
        assert_eq!(t.diameter, want);
    }

    #[test]
    fn rejects_non_tree_sequences() {
        for degrees in [
            vec![2, 2, 2],       // cycle sum
            vec![1, 1, 1, 1],    // forest sum
            vec![2, 2, 1, 1, 0], // zero degree
        ] {
            let out = realize_tree(&degrees, Config::ncc0(93), TreeAlgo::Chain);
            assert!(out.is_unrealizable(), "{degrees:?} was accepted");
        }
    }
}
