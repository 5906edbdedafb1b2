//! The NCC₀ **path-to-clique warm-up** as a whole-run protocol: undirection
//! followed by pointer-doubling contact construction — the `O(log n)`-round
//! phase that turns the bare knowledge path into a richly connected overlay
//! (power-of-two contacts in both directions), the addressing backbone of
//! every later primitive.
//!
//! This is the standard scale benchmark for the batched executor: its
//! traffic is `2` messages per node per round (well under capacity), its
//! round count is `ceil(log2 n)`, and its per-node state is two pre-sized
//! contact tables — so a step never allocates, and a 10⁶-node warm-up is
//! routine (see `crates/bench/src/bin/engine_bench.rs` and
//! `crates/ncc/tests/zero_alloc.rs`).

use crate::contacts::ContactTable;
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, NodeProtocol, NodeSeed, RoundCtx, Status, WireMsg};

/// Direction words used in contact-construction messages (the ones
/// [`ContactsStep`](crate::contacts::ContactsStep) uses).
const SET_FWD: u64 = 0;
const SET_BWD: u64 = 1;

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
    1 + crate::contacts::rounds_for(n)
}

/// The warm-up protocol. Build one per node with [`PathToClique::new`].
#[derive(Debug)]
pub struct PathToClique {
    /// Levels of the contact table (`ceil(log2 n)`).
    levels: usize,
    fwd: Vec<Option<NodeId>>,
    bwd: Vec<Option<NodeId>>,
    pred: Option<NodeId>,
}

impl PathToClique {
    /// Builds the protocol for one node.
    pub fn new(seed: &NodeSeed<'_>) -> Self {
        // The G_k path spans the participating nodes (== n unmasked).
        let levels = crate::levels_for(seed.participants);
        PathToClique {
            levels,
            fwd: Vec::with_capacity(levels),
            bwd: Vec::with_capacity(levels),
            pred: None,
        }
    }

    /// Sends the level-`k` doubling messages: tell my `2^(k-1)`-behind
    /// contact who sits `2^(k-1)` ahead of me, and vice versa.
    fn send_level(&self, k: usize, ctx: &mut RoundCtx<'_>) {
        if let (Some(b), Some(f)) = (self.bwd[k - 1], self.fwd[k - 1]) {
            ctx.send(b, WireMsg::addr_word(tags::CONTACT, f, SET_FWD));
            ctx.send(f, WireMsg::addr_word(tags::CONTACT, b, SET_BWD));
        }
    }
}

impl NodeProtocol for PathToClique {
    type Output = CliqueWarmup;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<CliqueWarmup> {
        let round = ctx.round() as usize;
        if round == 0 {
            // Undirection: signal my successor so it learns its predecessor.
            if let Some(succ) = ctx.initial_successor() {
                ctx.send(succ, WireMsg::signal(tags::UNDIRECT));
            }
            return Status::Continue;
        }
        if round == 1 {
            self.pred = ctx
                .inbox()
                .iter()
                .find(|env| env.msg.tag == tags::UNDIRECT)
                .map(|env| env.src);
            if self.levels > 0 {
                self.fwd.push(ctx.initial_successor());
                self.bwd.push(self.pred);
            }
        } else {
            // Inbox holds the level-(round-1) exchange.
            let mut new_fwd = None;
            let mut new_bwd = None;
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::CONTACT) {
                match env.word() {
                    SET_FWD => new_fwd = Some(env.addr()),
                    SET_BWD => new_bwd = Some(env.addr()),
                    other => unreachable!("bad contact direction word {other}"),
                }
            }
            self.fwd.push(new_fwd);
            self.bwd.push(new_bwd);
        }
        // Next doubling level to send is `round`; levels 1..levels exist.
        if round < self.levels {
            self.send_level(round, ctx);
            return Status::Continue;
        }
        let vp = VPath {
            member: true,
            pred: self.pred,
            succ: ctx.initial_successor(),
            len: ctx.participants(),
        };
        Status::Done(CliqueWarmup {
            vp,
            contacts: ContactTable {
                fwd: std::mem::take(&mut self.fwd),
                bwd: std::mem::take(&mut self.bwd),
            },
        })
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

    /// The bespoke whole-run protocol is the composition of the two
    /// general steps it hardcodes: same transcript, same tables.
    #[test]
    fn matches_the_composed_undirect_and_contacts_steps() {
        use crate::contacts::ContactsStep;
        use crate::ctx::UndirectStep;
        use crate::{Step, StepProtocol};
        let n = 96;
        let net = Network::new(n, Config::ncc0(21));
        let warmup = net.run_protocol(PathToClique::new).unwrap();
        let composed = net
            .run_protocol(|_| {
                StepProtocol::new(UndirectStep::new().then(|vp, _| ContactsStep::new(vp)))
            })
            .unwrap();
        assert_eq!(warmup.metrics, composed.metrics);
        for ((id_a, warm), (id_b, table)) in warmup.outputs.iter().zip(composed.outputs.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(&warm.contacts, table.as_ref());
        }
    }
}
