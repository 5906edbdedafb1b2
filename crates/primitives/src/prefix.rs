//! Distributed prefix sums along a virtual path by pointer doubling —
//! the `O(log n)`-round computation behind the tree-realization algorithms
//! (Algorithms 4 and 5 compute prefix sums `p_i` over sorted degrees).
//!
//! The classic parallel-prefix invariant: after step `k`, node at position
//! `r` holds the sum of values at positions `(r - 2^k, r]`. At step `k` each
//! node sends its running sum to the node `2^k` ahead, which adds it.
//! `⌈log n⌉` steps, one message per node per round.

/// Number of rounds [`PrefixStep`](crate::proto::prefix::PrefixStep) takes
/// on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    crate::levels_for(len) as u64
}

#[cfg(test)]
mod tests {
    use crate::ctx::PathCtx;
    use crate::proto::prefix::PrefixStep;
    use crate::proto::WithCtx;
    use dgr_ncc::{Config, Network, RoundCtx};

    #[test]
    fn inclusive_prefix_sums_are_exact() {
        for &n in &[1usize, 2, 3, 7, 16, 33, 100] {
            let net = Network::new(n, Config::ncc0(31));
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        let v = (ctx.position as u64 % 5) + 1;
                        PrefixStep::new(ctx.vp, ctx.contacts.clone(), v)
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean());
            let mut running = 0;
            for (position, (_, got)) in result.outputs.iter().enumerate() {
                running += (position as u64 % 5) + 1;
                assert_eq!(*got, running, "n={n}");
            }
        }
    }

    #[test]
    fn exclusive_prefix_shifts_by_own_value() {
        let net = Network::new(20, Config::ncc0(32));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                    PrefixStep::exclusive(ctx.vp, ctx.contacts.clone(), ctx.position as u64)
                })
            })
            .unwrap();
        let mut running = 0u64;
        for (i, (_, got)) in result.outputs.iter().enumerate() {
            assert_eq!(*got, running);
            running += i as u64;
        }
    }
}
