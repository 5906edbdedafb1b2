//! The NCC₀ **path-to-clique warm-up** as a whole-run protocol: the
//! undirection, then the pointer-doubling contact construction — the
//! `O(log n)`-round phase that turns the bare knowledge path into a richly
//! connected overlay (power-of-two contacts in both directions), the
//! addressing backbone of every later primitive.
//!
//! It runs the same exchanges as the context establishment
//! ([`EstablishCtx`](crate::EstablishCtx)) without the count lane:
//! [`UndirectStep`]'s, then the table's own `send_level` and
//! `learn_level` ([`crate::contacts`]). What it keeps apart is its
//! shape: a whole-run protocol that holds only the undirection's flag and
//! the table it builds, no lockstep clock and no path view, so a node's
//! slot in the round loop is no larger than the [`CliqueWarmup`] it hands
//! out.
//!
//! This is the standard scale benchmark for the batched executor: its
//! traffic is `2` messages per node per round (well under capacity), its
//! round count is `ceil(log2 n)`, and its per-node state is two pre-sized
//! contact tables — so a step never allocates, and a 10⁶-node warm-up is
//! routine (see `crates/bench/src/bin/engine_bench.rs` and
//! `crates/ncc/tests/zero_alloc.rs`).

use crate::contacts::ContactTable;
use crate::ctx::UndirectStep;
use crate::step::{Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{NodeProtocol, NodeSeed, RoundCtx, Status};

/// One node's result of the warm-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueWarmup {
    /// The undirected path view.
    pub vp: VPath,
    /// Power-of-two contacts along the path.
    pub contacts: ContactTable,
}

/// Total rounds of the warm-up on an `n`-node network: 1 (undirect) +
/// `ceil(log2 n) - 1` (doubling levels beyond the first).
pub fn rounds_for(n: usize) -> u64 {
    1 + crate::levels_for(n).saturating_sub(1) as u64
}

/// The warm-up protocol. Build one per node with [`PathToClique::new`].
#[derive(Debug)]
pub struct PathToClique {
    undirect: UndirectStep,
    contacts: ContactTable,
}

impl PathToClique {
    /// Builds the protocol for one node.
    pub fn new(_seed: &NodeSeed<'_>) -> Self {
        PathToClique {
            undirect: UndirectStep::new(),
            contacts: ContactTable::default(),
        }
    }
}

impl NodeProtocol for PathToClique {
    type Output = CliqueWarmup;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<CliqueWarmup> {
        let round = ctx.round() as usize;
        if round <= 1 {
            match self.undirect.poll(ctx) {
                Poll::Pending => return Status::Continue,
                Poll::Ready(vp) => self.contacts = ContactTable::level_zero(&vp),
            }
        } else {
            // Inbox holds the level-(round-1) exchange.
            self.contacts.learn_level(ctx);
        }
        // Next doubling level to send is `round`.
        if round < crate::levels_for(ctx.n()) {
            self.contacts.send_level(round, ctx, [&[], &[]]);
            return Status::Continue;
        }
        let contacts = std::mem::take(&mut self.contacts);
        // The level-0 contact behind is the predecessor the undirection
        // heard.
        let vp = UndirectStep::view(contacts.behind(0), ctx);
        Status::Done(CliqueWarmup { vp, contacts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_ncc::{Config, Network};

    fn check_tables(n: usize, seed: u64) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = net.run_protocol(PathToClique::new).unwrap();
        assert!(
            result.metrics.is_clean(),
            "n={n}: {:?}",
            result.metrics.violations
        );
        assert_eq!(result.metrics.rounds, rounds_for(n));
        let order = result.gk_order();
        let levels = crate::levels_for(n);
        for (i, (_, out)) in result.outputs.iter().enumerate() {
            assert_eq!(out.contacts.fwd.len(), levels, "n={n} i={i}");
            for k in 0..levels {
                let d = 1usize << k;
                assert_eq!(
                    out.contacts.ahead(k),
                    order.get(i + d).copied(),
                    "n={n} i={i} fwd[{k}]"
                );
                let expect_b = i.checked_sub(d).map(|j| order[j]);
                assert_eq!(out.contacts.behind(k), expect_b, "n={n} i={i} bwd[{k}]");
            }
            assert_eq!(out.vp.pred, i.checked_sub(1).map(|j| order[j]));
            assert_eq!(out.vp.succ, order.get(i + 1).copied());
        }
    }

    #[test]
    fn tables_are_exact_across_sizes() {
        for &(n, seed) in &[(1, 3), (2, 3), (3, 3), (7, 4), (16, 1), (33, 5), (100, 6)] {
            check_tables(n, seed);
        }
    }

    /// The warm-up at five digits of nodes in strict KT0 mode, proving the
    /// construction legal at scale.
    #[test]
    fn warmup_at_n_50k_is_clean() {
        let n = 50_000;
        let net = Network::new(n, Config::ncc0(11));
        let result = net.run_protocol(PathToClique::new).unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.metrics.rounds, rounds_for(n));
        assert!(result.metrics.max_sent_per_round <= 2);
        // Spot-check the middle of the path.
        let order = result.gk_order();
        let mid = n / 2;
        let out = result.output_of(order[mid]).unwrap();
        assert_eq!(out.contacts.ahead(10), Some(order[mid + 1024]));
        assert_eq!(out.contacts.behind(10), Some(order[mid - 1024]));
    }

    /// Each flood slot holds either a node's protocol or its output, so
    /// the protocol must stay smaller than the [`CliqueWarmup`] it hands
    /// out: a larger one would grow every slot, and the flood's peak
    /// memory with them.
    #[test]
    fn the_protocol_is_smaller_than_its_output() {
        use std::mem::size_of;
        assert!(size_of::<PathToClique>() < size_of::<CliqueWarmup>());
    }
}
