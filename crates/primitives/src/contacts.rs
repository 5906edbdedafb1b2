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
//!
//! The doubling runs in two places, both through the table's own
//! `send_level` and `learn_level`, the only code that sends a `CONTACT`
//! message or learns a level from one: the context establishment
//! ([`EstablishCtx`](crate::EstablishCtx)), with its count lane beside
//! it, and the [`PathToClique`](crate::PathToClique) warm-up, which builds
//! the bare table on `G_k`.

use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};

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

/// Direction words of the contact-construction messages.
pub(crate) const SET_FWD: u64 = 0;
pub(crate) const SET_BWD: u64 = 1;

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

    /// The doubling's start on the path `vp`: level 0, the path's own
    /// neighbours, with room for every level.
    pub(crate) fn level_zero(vp: &VPath) -> Self {
        let levels = vp.levels();
        let mut table = ContactTable {
            fwd: Vec::with_capacity(levels),
            bwd: Vec::with_capacity(levels),
        };
        if levels > 0 {
            table.fwd.push(vp.succ);
            table.bwd.push(vp.pred);
        }
        table
    }

    /// Stages the level-`k` doubling exchange (`1 <= k < levels`): tell my
    /// `2^(k-1)`-behind contact who sits `2^(k-1)` ahead of me, and vice
    /// versa. The message behind carries `words[0]` after its direction
    /// word, the one ahead `words[1]`.
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

    /// Learns the next level from the exchange the last round delivered.
    pub(crate) fn learn_level(&mut self, ctx: &RoundCtx<'_>) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
