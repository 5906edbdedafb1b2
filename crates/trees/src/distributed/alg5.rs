//! Algorithm 5 (Distributed-Tree-Realization-2), Theorem 16: implicit
//! realization of the **minimum-diameter** tree in `O(polylog n)` rounds.
//!
//! The greedy tree `T_G`: in degree-sorted order, the root (rank 0) adopts
//! the next `d_0` ranks as children; every subsequent rank `i` adopts the
//! next `d_i - 1` unparented ranks. The child intervals are the prefix
//! sums `a_i = 1 + Σ_{j<i}(d_j - [j>0])`, partitioning ranks `1..n` in
//! order. By Lemma 15, `T_G` minimizes the diameter over all realizing
//! trees.
//!
//! Internal nodes are simultaneously parents (they announce to an
//! interval) and children (they are inside someone else's interval), so
//! the interval hand-off runs on the `milestone_scan` primitive
//! ([`dgr_primitives::scatter`]): each parent emits
//! a milestone keyed just before its interval, each rank emits a filler
//! keyed at its position, and the sorted-order scan hands every rank the
//! ID of the parent covering it.
//!
//! The implementation is [`RealizeTree`](super::proto::RealizeTree) with
//! [`TreeAlgo::Greedy`](crate::TreeAlgo); it refuses
//! ([`Unrealizable`](dgr_core::Unrealizable)) when `Σd ≠ 2(n-1)` or some
//! degree is 0.

#[cfg(test)]
mod tests {
    use crate::driver::{realize_tree, TreeAlgo};
    use crate::greedy;
    use dgr_core::DegreeSequence;
    use dgr_ncc::Config;

    #[test]
    fn realizes_min_diameter_trees() {
        for degrees in [
            vec![1, 1],
            vec![2, 1, 1],
            vec![2, 2, 2, 1, 1],
            vec![4, 1, 1, 1, 1],
            vec![3, 3, 1, 1, 1, 1],
            vec![3, 3, 2, 1, 1, 1, 1],
            vec![2, 2, 2, 2, 2, 1, 1], // long path profile
        ] {
            let out = realize_tree(&degrees, Config::ncc0(95), TreeAlgo::Greedy);
            let t = out.expect_realized();
            assert!(t.graph.is_tree(), "{degrees:?} not a tree");
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(t.graph.degree_sequence(), want, "{degrees:?}");
            // Theorem 16: the diameter equals the sequential greedy tree's
            // (which Lemma 15 proves minimal).
            let seq = DegreeSequence::new(degrees.clone());
            let reference = greedy::greedy_tree(&seq).unwrap();
            let want_dia = greedy::diameter_of(&reference, degrees.len());
            assert_eq!(t.diameter, want_dia, "{degrees:?}");
            assert!(t.metrics.is_clean());
        }
    }

    #[test]
    fn diameter_is_brute_force_minimal_small_n() {
        for degrees in [
            vec![2, 2, 1, 1],
            vec![3, 2, 1, 1, 1],
            vec![2, 2, 2, 1, 1, 1, 1], // wrong sum -> filtered
            vec![3, 3, 2, 1, 1, 1, 1],
        ] {
            let seq = DegreeSequence::new(degrees.clone());
            if !seq.is_tree_realizable() {
                continue;
            }
            let out = realize_tree(&degrees, Config::ncc0(96), TreeAlgo::Greedy);
            let t = out.expect_realized();
            let want = greedy::min_diameter_brute(&seq).unwrap();
            assert_eq!(t.diameter, want, "{degrees:?}");
        }
    }

    #[test]
    fn greedy_never_beaten_by_chain() {
        let degrees = vec![3, 3, 3, 2, 2, 1, 1, 1, 1, 1];
        let g = realize_tree(&degrees, Config::ncc0(97), TreeAlgo::Greedy);
        let c = realize_tree(&degrees, Config::ncc0(97), TreeAlgo::Chain);
        assert!(g.expect_realized().diameter <= c.expect_realized().diameter);
    }

    #[test]
    fn rejects_non_tree_sequences() {
        let out = realize_tree(&[2, 2, 2], Config::ncc0(98), TreeAlgo::Greedy);
        assert!(out.is_unrealizable());
    }
}
