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

use crate::sequence::DegreeSequence;
#[cfg(feature = "threaded")]
use {
    super::{ImplicitOutcome, Unrealizable},
    dgr_ncc::NodeHandle,
    dgr_primitives::imcast::{self, CoverSide, Payload},
    dgr_primitives::sort::{self, Order},
    dgr_primitives::{contacts, ops, PathCtx},
};

/// Degree-handling mode for the shared phase engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Exact realization: a negative degree aborts with `UNREALIZABLE`.
    Exact,
    /// Upper-envelope realization (Theorem 13): saturated nodes accept
    /// extra edges instead of failing.
    Envelope,
}

/// Runs Algorithm 3 at one node. `degree` is this node's requested degree
/// `d(v)`; the call must be made by every node simultaneously.
///
/// # Errors
///
/// [`Unrealizable`] (at every node consistently) when the global sequence
/// is not graphic.
#[cfg(feature = "threaded")]
pub fn realize(h: &mut NodeHandle, degree: usize) -> Result<ImplicitOutcome, Unrealizable> {
    let ctx = PathCtx::establish(h);
    realize_on(h, &ctx, &ctx, degree, Mode::Exact)
}

/// The phase engine shared by the exact and envelope realizations, running
/// on an arbitrary established path context (this generality is what lets
/// Algorithm 6 realize a degree sequence over a sorted-path *prefix*).
/// Non-members of `ctx.vp` idle through the per-phase computations — but
/// the while-loop is data-dependent, so its control values (δ, N, the
/// error flag) are aggregated over `global`, a context in which **every**
/// node of the network is a member (pass `ctx` again at top level);
/// non-members contribute the identity.
#[cfg(feature = "threaded")]
pub(crate) fn realize_on(
    h: &mut NodeHandle,
    ctx: &PathCtx,
    global: &PathCtx,
    degree: usize,
    mode: Mode,
) -> Result<ImplicitOutcome, Unrealizable> {
    debug_assert!(
        global.vp.member,
        "global control context must span all nodes"
    );
    let len = ctx.vp.len;
    let mut need = if ctx.vp.member { degree as u64 } else { 0 };
    let mut outcome = ImplicitOutcome {
        requested: degree,
        neighbors: Vec::new(),
        phases: 0,
    };

    loop {
        outcome.phases += 1;

        // Step 1: sort by remaining degree, non-increasing.
        let sp = sort::sort_at(
            h,
            &ctx.vp,
            &ctx.contacts,
            ctx.position,
            need,
            Order::Descending,
        );
        let sorted_contacts = contacts::build(h, &sp.vp);

        // Step 2: broadcast δ (on the fixed global tree — it never
        // changes, only the logical sorted order does).
        let delta = ops::aggregate_broadcast(h, &global.vp, &global.tree, need, u64::max);
        if delta == 0 {
            break;
        }
        if delta as usize >= len {
            // Some node wants more neighbors than exist: unrealizable even
            // as an envelope.
            return Err(Unrealizable);
        }
        let delta = delta as usize;

        // Step 3: broadcast N = |{x : d(x) = δ}|.
        let n_max = ops::aggregate_broadcast(
            h,
            &global.vp,
            &global.tree,
            u64::from(ctx.vp.member && need == delta as u64),
            |a, b| a + b,
        ) as usize;
        let q = (n_max / (delta + 1)).max(1);
        let group_span = q * (delta + 1);
        debug_assert!(group_span <= len, "groups exceed the path");

        // Step 4: q disjoint star groups via interval multicast.
        let rank = sp.rank;
        let is_leader = ctx.vp.member && rank < group_span && rank.is_multiple_of(delta + 1);
        let task = is_leader.then(|| {
            (
                CoverSide::After,
                delta,
                Payload {
                    addr: h.id(),
                    word: 0,
                },
            )
        });
        let got = imcast::interval_multicast(h, &sp.vp, &sorted_contacts, task);

        // Step 5: local updates + global error detection.
        let mut went_negative = false;
        if is_leader {
            debug_assert_eq!(need, delta as u64, "leader without max degree");
            need = 0;
        } else if let Some(p) = got {
            if need == 0 {
                match mode {
                    Mode::Exact => went_negative = true,
                    Mode::Envelope => outcome.neighbors.push(p.addr),
                }
            } else {
                outcome.neighbors.push(p.addr);
                need -= 1;
            }
        }
        let err = ops::aggregate_broadcast(
            h,
            &global.vp,
            &global.tree,
            u64::from(went_negative),
            |a, b| a | b,
        );
        if err != 0 {
            return Err(Unrealizable);
        }
    }
    Ok(outcome)
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
    use crate::driver::{realize_degrees, DriverOutput};
    use dgr_ncc::{Config, EngineKind};
    use dgr_primitives::sort::SortBackend;

    fn realize(degrees: &[usize], config: Config) -> DriverOutput {
        let (flavor, engine) = (Flavor::Implicit, EngineKind::Batched);
        realize_degrees(
            degrees,
            None,
            config,
            flavor,
            engine,
            SortBackend::Bitonic,
            None,
        )
        .unwrap()
        .output
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
