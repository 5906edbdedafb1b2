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

#[cfg(feature = "threaded")]
use super::TreeOutcome;
#[cfg(feature = "threaded")]
use dgr_core::Unrealizable;
#[cfg(feature = "threaded")]
use {
    super::tree_input_check,
    dgr_ncc::NodeHandle,
    dgr_primitives::scatter::{self, ScanRecord},
    dgr_primitives::sort::{self, Order},
    dgr_primitives::{contacts, prefix, PathCtx},
};

/// Runs Algorithm 5 at one node. `degree` is this node's requested tree
/// degree; every node must call simultaneously.
///
/// # Errors
///
/// [`Unrealizable`] when `Σd ≠ 2(n-1)` or some degree is 0.
#[cfg(feature = "threaded")]
pub fn realize(h: &mut NodeHandle, degree: usize) -> Result<TreeOutcome, Unrealizable> {
    let ctx = PathCtx::establish(h);
    realize_on(h, &ctx, degree)
}

/// Algorithm 5 on an established path context.
#[cfg(feature = "threaded")]
pub fn realize_on(
    h: &mut NodeHandle,
    ctx: &PathCtx,
    degree: usize,
) -> Result<TreeOutcome, Unrealizable> {
    tree_input_check(h, ctx, degree)?;
    let n = ctx.vp.len;
    let mut outcome = TreeOutcome {
        requested: degree,
        neighbors: Vec::new(),
    };
    if n == 1 {
        return Ok(outcome);
    }

    let sp = sort::sort_at(
        h,
        &ctx.vp,
        &ctx.contacts,
        ctx.position,
        degree as u64,
        Order::Descending,
    );
    let sct = contacts::build(h, &sp.vp);
    let rank = sp.rank;

    // Child slots: the root keeps all d, everyone else spends one on its
    // parent. (Leaves at rank > 0 have d = 1, hence 0 slots.)
    let slots = degree - usize::from(rank > 0);
    let excl = prefix::prefix_sum_exclusive(h, &sp.vp, &sct, slots as u64) as usize;
    let first_child = 1 + excl; // a_i

    // Milestone just before my interval; filler at my own rank. Keys:
    // milestones odd (2a - 1), fillers even (2r) — totally ordered with
    // every milestone immediately preceding its interval's first filler.
    let rec0 = if slots > 0 {
        ScanRecord::Milestone {
            key: 2 * first_child as u64 - 1,
            addr: h.id(),
        }
    } else {
        ScanRecord::Absent
    };
    let rec1 = ScanRecord::Filler {
        key: 2 * rank as u64,
    };
    let got = scatter::milestone_scan(h, &sp.vp, &sct, rank, [rec0, rec1]);

    if rank > 0 {
        let parent = got[1].expect("non-root rank received no parent");
        outcome.neighbors.push(parent);
    } else {
        debug_assert!(got[1].is_none(), "root scanned a parent");
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use crate::driver::{realize_tree_run, TreeAlgo, TreeRealization};
    use crate::greedy;
    use dgr_core::DegreeSequence;
    use dgr_ncc::{Config, EngineKind};
    use dgr_primitives::sort::SortBackend;

    fn realize_tree(degrees: &[usize], config: Config, algo: TreeAlgo) -> TreeRealization {
        let (engine, sort) = (EngineKind::Batched, SortBackend::Bitonic);
        realize_tree_run(degrees, config, algo, engine, sort, None)
            .unwrap()
            .output
    }

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
