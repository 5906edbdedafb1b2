//! Power-of-two contact tables via pointer doubling.
//!
//! After `O(log n)` rounds every node on a virtual path knows the IDs of the
//! nodes exactly `2^k` positions ahead and behind it, for every `k`. These
//! tables are the addressing backbone for the bitonic sorting network
//! ([`crate::sort`]), interval multicast ([`crate::imcast`]) and prefix sums
//! ([`crate::prefix`]): all of those primitives only ever talk across
//! power-of-two distances.
//!
//! KT0-legality: at level `k` a node forwards the *address* of its
//! `2^(k-1)`-ahead contact to its `2^(k-1)`-behind contact (and vice versa);
//! both were learned in earlier levels, so every carried address is known to
//! the sender — the doubling construction is exactly how knowledge spreads
//! in the model.

use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// A node's power-of-two contacts on a virtual path.
///
/// `fwd[k]` is the ID of the node `2^k` positions ahead (toward the tail),
/// `bwd[k]` the node `2^k` behind (toward the head); `None` where the path
/// ends first. Tables have [`VPath::levels`](crate::VPath::levels) entries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContactTable {
    /// Contacts toward the tail; `fwd[k]` sits `2^k` ahead.
    pub fwd: Vec<Option<NodeId>>,
    /// Contacts toward the head; `bwd[k]` sits `2^k` behind.
    pub bwd: Vec<Option<NodeId>>,
}

impl ContactTable {
    /// The contact `2^k` ahead, if both the table level and the node exist.
    pub fn ahead(&self, k: usize) -> Option<NodeId> {
        self.fwd.get(k).copied().flatten()
    }

    /// The contact `2^k` behind, if both the table level and the node exist.
    pub fn behind(&self, k: usize) -> Option<NodeId> {
        self.bwd.get(k).copied().flatten()
    }

    /// The contact at signed power-of-two offset `±2^k`.
    pub fn at_offset(&self, k: usize, forward: bool) -> Option<NodeId> {
        if forward {
            self.ahead(k)
        } else {
            self.behind(k)
        }
    }
}

/// Number of rounds [`ContactsStep`] takes on a path of `len` nodes:
/// `ceil(log2 len) - 1`.
pub fn rounds_for(len: usize) -> u64 {
    crate::levels_for(len).saturating_sub(1) as u64
}

/// Direction words of the contact-construction messages.
pub(crate) const SET_FWD: u64 = 0;
pub(crate) const SET_BWD: u64 = 1;

/// Pointer-doubling contact construction as a [`Step`](crate::Step), on
/// an arbitrary virtual path (the [`PathToClique`](crate::PathToClique)
/// warm-up hardcodes the `G_k` path; this step runs on sorted paths too,
/// which is what the tree drivers need after a re-sort). The
/// finished table is handed out interned (`Arc`) so downstream steps share
/// one copy per node instead of cloning it at every stage transition.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type ContactsStep = Lockstep<Contacts>;

/// [`ContactsStep`]'s member rounds.
#[derive(Debug)]
pub struct Contacts {
    vp: VPath,
    fwd: Vec<Option<NodeId>>,
    bwd: Vec<Option<NodeId>>,
}

impl ContactsStep {
    /// Builds the step for one node's view of the path.
    pub fn new(vp: VPath) -> Self {
        Lockstep::run(vp.member, rounds_for(vp.len), Contacts::new(vp))
    }
}

impl Contacts {
    pub(crate) fn new(vp: VPath) -> Self {
        let levels = vp.levels();
        Contacts {
            vp,
            fwd: Vec::with_capacity(levels),
            bwd: Vec::with_capacity(levels),
        }
    }

    /// Table level `t` at poll `t`: level 0 from the path view, level
    /// `t > 0` from round `t - 1`'s CONTACT messages.
    pub(crate) fn learn_level(&mut self, t: u64, ctx: &RoundCtx<'_>) {
        if t > 0 {
            self.absorb_level(ctx);
        } else if self.vp.levels() > 0 {
            self.fwd.push(self.vp.succ);
            self.bwd.push(self.vp.pred);
        }
    }

    /// The learned level `k`: the contacts `2^k` ahead and `2^k` behind.
    pub(crate) fn level(&self, k: usize) -> (Option<NodeId>, Option<NodeId>) {
        (self.fwd[k], self.bwd[k])
    }

    /// Hands the finished table out, interned.
    pub(crate) fn take_table(&mut self) -> Arc<ContactTable> {
        Arc::new(ContactTable {
            fwd: std::mem::take(&mut self.fwd),
            bwd: std::mem::take(&mut self.bwd),
        })
    }

    /// Stages the level-`k` doubling exchange (`1 <= k < levels`): the
    /// message behind carries `words[0]` after its direction word, the one
    /// ahead `words[1]`.
    pub(crate) fn send_level(&self, k: usize, ctx: &mut RoundCtx<'_>, words: [&[u64]; 2]) {
        if let (Some(b), Some(f)) = (self.bwd[k - 1], self.fwd[k - 1]) {
            let msg = |to, dir, extra: &[u64]| {
                let msg = WireMsg::addr_word(tags::CONTACT, to, dir);
                extra.iter().fold(msg, |msg, &w| msg.with_word(w))
            };
            ctx.send(b, msg(f, SET_FWD, words[0]));
            ctx.send(f, msg(b, SET_BWD, words[1]));
        }
    }

    /// Consumes one round's CONTACT messages into a new table level.
    fn absorb_level(&mut self, ctx: &RoundCtx<'_>) {
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
}

impl Rounds for Contacts {
    type Out = Arc<ContactTable>;

    fn poll(&mut self, t: u64, budget: u64, ctx: &mut RoundCtx<'_>) -> Poll<Arc<ContactTable>> {
        self.learn_level(t, ctx);
        if t == budget {
            return Poll::Ready(self.take_table());
        }
        // Poll t stages level t + 1, which poll t + 1 consumes.
        self.send_level(t as usize + 1, ctx, [&[], &[]]);
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::UndirectStep;
    use crate::{Step, StepProtocol};
    use dgr_ncc::{Config, Network};

    fn check_tables(n: usize, seed: u64) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| {
                StepProtocol::new(UndirectStep::new().then(|vp, _| ContactsStep::new(vp)))
            })
            .unwrap();
        assert!(
            result.metrics.is_clean(),
            "n={n}: {:?}",
            result.metrics.violations
        );
        assert_eq!(result.metrics.rounds, 1 + rounds_for(n));
        let order = result.gk_order();
        let levels = crate::levels_for(n);
        for (i, (_, table)) in result.outputs.iter().enumerate() {
            assert_eq!(table.fwd.len(), levels, "n={n} i={i}");
            for k in 0..levels {
                let d = 1usize << k;
                assert_eq!(
                    table.ahead(k),
                    order.get(i + d).copied(),
                    "n={n} i={i} fwd[{k}]"
                );
                let expect_b = i.checked_sub(d).map(|j| order[j]);
                assert_eq!(table.behind(k), expect_b, "n={n} i={i} bwd[{k}]");
            }
        }
    }

    #[test]
    fn tables_are_exact_for_powers_of_two() {
        check_tables(16, 1);
        check_tables(64, 2);
    }

    #[test]
    fn tables_are_exact_for_odd_sizes() {
        check_tables(1, 3);
        check_tables(2, 3);
        check_tables(3, 3);
        check_tables(7, 4);
        check_tables(33, 5);
        check_tables(100, 6);
    }

    #[test]
    fn offsets_api() {
        let t = ContactTable {
            fwd: vec![Some(5), None],
            bwd: vec![None, Some(9)],
        };
        assert_eq!(t.at_offset(0, true), Some(5));
        assert_eq!(t.at_offset(1, true), None);
        assert_eq!(t.at_offset(1, false), Some(9));
        assert_eq!(t.at_offset(7, true), None); // out of table
    }
}
