//! Interval multicast: a source delivers an address to a contiguous range
//! of ranks on a virtual path, in `O(log n)` rounds via doubling cover —
//! our congestion-free substitute for the butterfly multicast of Theorem 7
//! (ARCHITECTURE.md, *Deviations from the paper*).
//!
//! The realization algorithms only ever multicast an ID to a contiguous
//! rank interval: Algorithm 3's groups are `[i, i+δ]` with source `t_i` at
//! rank `i`, which hands its record's origin to the `δ` ranks after it;
//! Algorithms 4 and 5 hand each parent's ID to its child interval, which
//! lies ahead of the parent, through the shifted multicast below. So a
//! message carries the address and the count it delegates, nothing more.
//! (Algorithm 6's phase 2, which reaches each `x_i`'s `ρ(x_i)`
//! predecessors, is a token pipeline of its own: see
//! `dgr_connectivity::distributed::ncc0`.)
//!
//! Cover protocol: a node at rank `r` responsible for the `c` ranks after
//! it jumps the address to the contact `2^k` ahead (`2^k = ⌊c⌋₂`, the
//! largest power of two ≤ c), delegating the trailing `c - 2^k` ranks, and
//! keeps the leading `2^k - 1`. Both residues are less than `2^k`, so the
//! responsibility halves every round: `O(log c)` rounds, at most one send
//! and one receive per node per round as long as different sources'
//! intervals are disjoint. The cover is as long as the largest count any
//! source covers, which the caller names ([`ImcastStep::new`]'s `most`:
//! Algorithm 3's `δ`, which every node knows), not as the path:
//! `⌈log₂(most + 1)⌉ + 1` rounds ([`rounds_for`]`(most + 1)`), 4 for
//! `δ = 5` where a path of 2048 takes 12. The messages are the same
//! whatever the bound.
//!
//! Shifted multicast ([`ImcastStep::at_offset`]): the source at position
//! `i` names an interval of `count_i` ranks starting `o_i ≥ 0` positions
//! ahead. A *leg* of `L = ⌈log₂ len⌉` rounds carries the address there,
//! highest bit first — in round `t` a holder whose remaining offset has bit
//! `b = L - 1 - t` set forwards it `2^b` ahead, with the offset still to go
//! and the count — and the landing position keeps it and covers the next
//! `count_i - 1` ranks as above. The contract: the offsets do not decrease
//! in source position order, and the landing intervals
//! `[i + o_i, i + o_i + count_i)` are disjoint and on the path. Then the
//! leg is congestion-free: after the round of bit `b`, source `i`'s
//! address sits at `i + (o_i with its low b bits cleared)`, which strictly
//! increases in `i`, so no two addresses share a node and every node sends
//! and receives at most one leg message a round.

use crate::contacts::ContactTable;
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// Number of rounds [`ImcastStep`] takes on a path of `len` nodes, or
/// wherever no source covers more than `len - 1` ranks.
pub fn rounds_for(len: usize) -> u64 {
    crate::levels_for(len) as u64 + 1
}

/// Number of rounds [`ImcastStep::at_offset`] takes on a path of `len`
/// nodes: the leg, then the cover.
pub fn offset_rounds_for(len: usize) -> u64 {
    crate::levels_for(len) as u64 + rounds_for(len)
}

/// One interval-multicast epoch as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(most + 1)` when built by
/// [`ImcastStep::new`] with the bound `most`, or [`offset_rounds_for`]
/// when built by [`ImcastStep::at_offset`].
pub type ImcastStep = Lockstep<Imcast>;

/// [`ImcastStep`]'s member rounds.
#[derive(Debug)]
pub struct Imcast {
    contacts: Arc<ContactTable>,
    /// Rounds of the leg, 0 without one.
    legs: u64,
    /// The address on its leg at this node: the offset still to go and
    /// the interval's count.
    carried: Option<(usize, usize, NodeId)>,
    /// The ranks after this node it still covers, and the address.
    duty: Option<(usize, NodeId)>,
    received: Option<NodeId>,
}

impl ImcastStep {
    /// Builds the step; `task` is `Some((count, addr))` at the multicast
    /// sources: the `count` ranks after the source receive `addr`
    /// (intervals of distinct sources must be disjoint). No source covers
    /// more than `most` ranks, a bound every member passes alike (`vp.len
    /// - 1` holds on any path).
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        most: usize,
        task: Option<(usize, NodeId)>,
    ) -> Self {
        debug_assert!(task.is_none_or(|t| t.0 <= most), "a count past the bound");
        let imcast = Imcast {
            contacts,
            legs: 0,
            carried: None,
            duty: task.filter(|t| t.0 > 0),
            received: None,
        };
        Lockstep::run(vp.member, rounds_for(most + 1), imcast)
    }

    /// Builds the shifted multicast; `task` is `Some((offset, count,
    /// addr))` at the sources: the address lands `offset` positions
    /// ahead, and that position and the `count - 1` after it receive it
    /// (the module docs give the contract).
    pub fn at_offset(
        vp: VPath,
        contacts: Arc<ContactTable>,
        task: Option<(usize, usize, NodeId)>,
    ) -> Self {
        let imcast = Imcast {
            contacts,
            legs: crate::levels_for(vp.len) as u64,
            carried: task.filter(|t| t.1 > 0),
            duty: None,
            received: None,
        };
        Lockstep::run(vp.member, offset_rounds_for(vp.len), imcast)
    }
}

impl Imcast {
    fn absorb(&mut self, t: u64, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::IMCAST) {
            let (addr, words) = (env.addr(), env.msg.words_slice());
            if t <= self.legs {
                let carried = Some((words[0] as usize, words[1] as usize, addr));
                // A second copy of a leg message is the same address.
                if self.carried != carried {
                    debug_assert!(self.carried.is_none(), "two addresses met on the leg");
                    self.carried = carried;
                }
                continue;
            }
            // A node is covered once; a second copy of that delegation
            // hands it nothing new.
            if self.received == Some(addr) {
                continue;
            }
            debug_assert!(self.received.is_none(), "overlapping multicast intervals");
            self.received = Some(addr);
            let delegated = words[0] as usize;
            debug_assert!(self.duty.is_none(), "covered node already had a duty");
            self.duty = (delegated > 0).then_some((delegated, addr));
        }
    }

    /// Leg round `t`: the address moves `2^b` ahead if its remaining
    /// offset has bit `b = legs - 1 - t`.
    fn hop(&mut self, t: u64, ctx: &mut RoundCtx<'_>) {
        let b = (self.legs - 1 - t) as usize;
        let Some((to_go, count, addr)) = self.carried else {
            return;
        };
        if to_go >> b & 1 == 1 {
            let target = self
                .contacts
                .ahead(b)
                .expect("shifted multicast ran off the path");
            ctx.send(
                target,
                WireMsg::addr(tags::IMCAST, addr)
                    .with_word((to_go - (1 << b)) as u64)
                    .with_word(count as u64),
            );
            self.carried = None;
        }
    }
}

impl Rounds for Imcast {
    type Out = Option<NodeId>;

    fn poll(&mut self, t: u64, budget: u64, ctx: &mut RoundCtx<'_>) -> Poll<Option<NodeId>> {
        if t > 0 {
            self.absorb(t, ctx);
        }
        if t == self.legs {
            // The leg is over: the landing position keeps the address and
            // covers the rest of its interval.
            if let Some((to_go, count, addr)) = self.carried.take() {
                debug_assert_eq!(to_go, 0, "an address stopped short of its interval");
                self.received = Some(addr);
                self.duty = (count > 1).then_some((count - 1, addr));
            }
        }
        if t == budget {
            debug_assert!(self.duty.is_none(), "multicast round budget too small");
            return Poll::Ready(self.received);
        }
        if t < self.legs {
            self.hop(t, ctx);
        } else if let Some((count, addr)) = self.duty {
            debug_assert!(count >= 1);
            let k = usize::BITS as usize - 1 - count.leading_zeros() as usize;
            let target = self
                .contacts
                .ahead(k)
                .expect("interval multicast ran off the path");
            let delegated = count - (1 << k);
            ctx.send(
                target,
                WireMsg::addr(tags::IMCAST, addr).with_word(delegated as u64),
            );
            let keep = (1 << k) - 1;
            self.duty = (keep > 0).then_some((keep, addr));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathCtx, WithCtx};
    use dgr_ncc::{Config, Network, RunResult};

    /// Runs one multicast epoch, no source covering more than `most`
    /// ranks; `task(rank, id)` is each node's task.
    fn multicast(
        net: &Network,
        most: usize,
        task: impl Fn(usize, NodeId) -> Option<(usize, NodeId)> + Sync,
    ) -> RunResult<Option<NodeId>> {
        let task = &task;
        net.run_protocol(|_| {
            WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                let mine = task(ctx.position, rctx.id());
                ImcastStep::new(ctx.vp, ctx.contacts.clone(), most, mine)
            })
        })
        .unwrap()
    }

    /// Disjoint groups of width w: source at rank q*w covers the w-1 ranks
    /// after it; every covered node must learn the source's ID, in the
    /// rounds of a cover of `w - 1` ranks — sized by the bound, not the
    /// path — and with the messages of a cover sized by the path.
    fn check_after(n: usize, w: usize, seed: u64) {
        let net = Network::new(n, Config::ncc0(seed));
        let task = |r: usize, id| r.is_multiple_of(w).then(|| ((w - 1).min(n - 1 - r), id));
        let result = multicast(&net, w - 1, task);
        assert!(result.metrics.is_clean(), "n={n} w={w}");
        let (setup, rounds) = (crate::ctx::rounds_for(n), result.metrics.rounds);
        assert_eq!(rounds - setup, rounds_for(w), "n={n} w={w}");
        let long = multicast(&net, n - 1, task);
        assert_eq!(long.metrics.rounds - setup, rounds_for(n), "n={n} w={w}");
        assert_eq!(
            long.metrics.messages, result.metrics.messages,
            "n={n} w={w}"
        );
        assert_eq!(long.outputs, result.outputs, "n={n} w={w}");
        let order = result.gk_order();
        for (r, (_, got)) in result.outputs.iter().enumerate() {
            if r % w == 0 {
                assert_eq!(*got, None, "source must not receive");
            } else {
                let src_rank = (r / w) * w;
                assert_eq!(*got, Some(order[src_rank]), "n={n} w={w} rank={r}");
            }
        }
    }

    #[test]
    fn disjoint_after_groups() {
        check_after(40, 5, 61);
        check_after(64, 8, 62);
        check_after(37, 7, 63);
        check_after(16, 16, 64);
        check_after(9, 1, 65); // every node a source, nothing covered
    }

    #[test]
    fn zero_count_task_is_a_noop() {
        let net = Network::new(8, Config::ncc0(67));
        let result = multicast(&net, 0, |_, id| Some((0, id)));
        assert!(result.outputs.iter().all(|(_, got)| got.is_none()));
    }
}
