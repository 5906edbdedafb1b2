//! Global computational primitives over the BBST: broadcast, distributive
//! aggregation (Theorem 4) and pipelined token collection (Theorem 5).
//!
//! All operations run on a [`VPath`](crate::VPath) +
//! [`Bbst`](crate::Bbst) pair in a fixed, commonly-computable number of
//! rounds; this module holds those round budgets, the steps themselves
//! are in [`proto::ops`](crate::proto::ops).
//!
//! * **Aggregate + broadcast** ([`AggBcastStep`](crate::proto::ops::AggBcastStep)):
//!   one leaves-to-root sweep folding every member's value with a
//!   distributive aggregate, one root-to-leaves sweep pushing the total
//!   back — every member learns it. "Leader `ℓ` broadcasts a token"
//!   without anyone knowing where `ℓ` sits in the tree is the same thing
//!   with `min` over the (at most one) present value.
//! * **Address broadcast** ([`BroadcastAddrStep`](crate::proto::ops::BroadcastAddrStep)):
//!   the same two sweeps with the value in the message *address* field, so
//!   KT0 knowledge tracking sees every node legitimately learn the ID;
//!   Corollary 2's median is the node whose position is `(len - 1) / 2`
//!   announcing itself.
//! * **Collection** ([`CollectStep`](crate::proto::ops::CollectStep),
//!   Theorem 5): every member holding a token sends it to the root,
//!   pipelined up the tree in batches of `cap/2` per node per round, so a
//!   parent receives at most `cap` per round from its two children.

use crate::bbst::sweep_rounds;

/// Number of rounds for an aggregate-broadcast, an address broadcast or
/// the median on a path of `len` nodes (one up sweep + one down sweep) —
/// the Theorem 4 `O(log n)` bound made concrete.
pub fn rounds_for(len: usize) -> u64 {
    2 * sweep_rounds(len)
}

/// Number of rounds for a collection of up to `k_bound` tokens (a commonly
/// known bound — callers typically obtain it by an aggregate-broadcast
/// count first) on a path of `len` nodes, at per-round capacity `cap` — the
/// Theorem 5 `O(k + log n)` bound made concrete.
pub fn collect_rounds(len: usize, k_bound: usize, cap: usize) -> u64 {
    let batch = (cap / 2).max(1) as u64;
    sweep_rounds(len) + (k_bound as u64).div_ceil(batch) + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::PathCtx;
    use crate::proto::ops::{AggBcastStep, BroadcastAddrStep, CollectStep};
    use crate::proto::{AggOp, WithCtx};
    use dgr_ncc::{Config, Network, RoundCtx};

    #[test]
    fn aggregate_broadcast_computes_global_sum_and_max() {
        let net = Network::new(50, Config::ncc0(11));
        let ids = net.ids_in_path_order().to_vec();
        let wants = [
            (AggOp::Sum, ids.iter().map(|i| i % 100).sum::<u64>()),
            (AggOp::Max, ids.iter().map(|i| i % 100).max().unwrap()),
        ];
        for (op, want) in wants {
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        AggBcastStep::new(ctx.vp, ctx.tree.clone(), rctx.id() % 100, op)
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean());
            assert!(result.outputs.iter().all(|(_, got)| *got == want), "{op:?}");
        }
    }

    #[test]
    fn broadcast_word_reaches_everyone_from_any_holder() {
        // "Leader broadcasts a token" without anyone knowing where the
        // leader sits in the tree: a minimum over (present) values, with
        // u64::MAX as the identity.
        let net = Network::new(33, Config::ncc0(12));
        let holder = net.ids_in_path_order()[17]; // arbitrary interior node
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let value = if rctx.id() == holder { 777 } else { u64::MAX };
                    AggBcastStep::new(ctx.vp, ctx.tree.clone(), value, AggOp::Min)
                })
            })
            .unwrap();
        assert!(result.outputs.iter().all(|(_, v)| *v == 777));
    }

    #[test]
    fn broadcast_addr_is_kt0_legal() {
        // The tail's ID becomes common knowledge; knowledge tracking is on,
        // so a clean run proves the address spread legally.
        let net = Network::new(40, Config::ncc0(13));
        let tail = *net.ids_in_path_order().last().unwrap();
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let value = (rctx.id() == tail).then_some(tail);
                    BroadcastAddrStep::new(ctx.vp, ctx.tree.clone(), value)
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        assert!(result.outputs.iter().all(|(_, v)| *v == tail));
    }

    #[test]
    fn median_is_common_knowledge() {
        for n in [1usize, 2, 9, 24, 31] {
            let net = Network::new(n, Config::ncc0(14));
            let order = net.ids_in_path_order().to_vec();
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let tree = ctx.tree.clone();
                        BroadcastAddrStep::median(ctx.vp, tree, ctx.position, rctx.id())
                    })
                })
                .unwrap();
            let want = order[(n - 1) / 2];
            assert!(
                result.outputs.iter().all(|(_, m)| *m == want),
                "n={n}: median mismatch"
            );
        }
    }

    #[test]
    fn collect_gathers_all_tokens_at_root() {
        let net = Network::new(60, Config::ncc0(15));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    // Every third position holds a token.
                    let token = ctx
                        .position
                        .is_multiple_of(3)
                        .then_some(ctx.position as u64);
                    let k_bound = 60usize.div_ceil(3);
                    CollectStep::new(ctx.vp, ctx.tree.clone(), token, k_bound, rctx.id())
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        let order = net.ids_in_path_order();
        let mut want: Vec<(u64, u64)> = (0..60)
            .filter(|p| p % 3 == 0)
            .map(|p| (order[p], p as u64))
            .collect();
        want.sort_unstable();
        // The root of the tree is the head of the path; only it collects.
        assert_eq!(result.outputs[0].1, want);
        assert!(result.outputs[1..].iter().all(|(_, got)| got.is_empty()));
    }

    #[test]
    fn theorem5_rounds_scale_linearly_in_k() {
        // collect_rounds is Θ(k/cap + log n): doubling k roughly doubles
        // the k-term.
        let cap = 8;
        let base = collect_rounds(256, 0, cap);
        let r1 = collect_rounds(256, 64, cap) - base;
        let r2 = collect_rounds(256, 128, cap) - base;
        assert_eq!(r1 * 2, r2);
    }
}
