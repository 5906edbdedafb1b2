//! Interval multicast: a source delivers a payload to a contiguous range of
//! ranks *adjacent to itself* on a virtual path, in `O(log n)` rounds via
//! doubling cover — our congestion-free substitute for the butterfly
//! multicast of Theorem 7 (ARCHITECTURE.md, *Deviations from the paper*).
//!
//! The realization algorithms only ever multicast to contiguous rank
//! intervals headed (or tailed) by the source: Algorithm 3's groups are
//! `[i, i+δ]` with source `t_i` at rank `i`; Algorithm 6 phase 2 covers the
//! `ρ(x_i)` *predecessors* of `x_i`. Where the paper needs a source to reach
//! a distant interval (Algorithms 4/5), our implementations first re-sort so
//! that every group becomes contiguous with its source at its head — after
//! which this primitive applies directly.
//!
//! Cover protocol ("after" side): a node at rank `r` responsible for the
//! `c` ranks after it jumps its payload to the contact `2^k` ahead
//! (`2^k = ⌊c⌋₂`, the largest power of two ≤ c), delegating the trailing
//! `c - 2^k` ranks, and keeps the leading `2^k - 1`. Both residues are less
//! than `2^k`, so the responsibility halves every round: `O(log c)` rounds,
//! at most one send and one receive per node per round as long as different
//! sources' intervals are disjoint.

use crate::contacts::ContactTable;
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// Which side of the source the covered interval lies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoverSide {
    /// Cover the `count` ranks immediately after the source.
    After,
    /// Cover the `count` ranks immediately before the source.
    Before,
}

/// A multicast payload: one address (typically the source's ID — this is
/// how realization edges are announced) plus one data word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Address carried to every covered node.
    pub addr: NodeId,
    /// Data word carried to every covered node.
    pub word: u64,
}

/// Number of rounds [`ImcastStep`] takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    crate::levels_for(len) as u64 + 1
}

/// One interval-multicast epoch as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type ImcastStep = Lockstep<Imcast>;

/// [`ImcastStep`]'s member rounds.
#[derive(Debug)]
pub struct Imcast {
    contacts: Arc<ContactTable>,
    duty: Option<(CoverSide, usize, Payload)>,
    received: Option<Payload>,
}

impl ImcastStep {
    /// Builds the step; `task` is `Some((side, count, payload))` at the
    /// multicast sources (intervals of distinct sources must be disjoint).
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        task: Option<(CoverSide, usize, Payload)>,
    ) -> Self {
        let imcast = Imcast {
            contacts,
            duty: task.filter(|t| t.1 > 0),
            received: None,
        };
        Lockstep::run(vp.member, rounds_for(vp.len), imcast)
    }
}

impl Imcast {
    fn absorb(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::IMCAST) {
            let payload = Payload {
                addr: env.addr(),
                word: env.msg.words_slice()[0],
            };
            // A node is covered once; a second copy of that delegation
            // hands it nothing new.
            if self.received == Some(payload) {
                continue;
            }
            debug_assert!(self.received.is_none(), "overlapping multicast intervals");
            self.received = Some(payload);
            let delegated = env.msg.words_slice()[1] as usize;
            let side = if env.msg.words_slice()[2] == 0 {
                CoverSide::After
            } else {
                CoverSide::Before
            };
            debug_assert!(self.duty.is_none(), "covered node already had a duty");
            self.duty = (delegated > 0).then_some((side, delegated, payload));
        }
    }
}

impl Rounds for Imcast {
    type Out = Option<Payload>;

    fn poll(&mut self, t: u64, budget: u64, ctx: &mut RoundCtx<'_>) -> Poll<Option<Payload>> {
        if t > 0 {
            self.absorb(ctx);
        }
        if t == budget {
            debug_assert!(self.duty.is_none(), "multicast round budget too small");
            return Poll::Ready(self.received);
        }
        if let Some((side, count, payload)) = self.duty {
            debug_assert!(count >= 1);
            let k = usize::BITS as usize - 1 - count.leading_zeros() as usize;
            let forward = side == CoverSide::After;
            let target = self
                .contacts
                .at_offset(k, forward)
                .expect("interval multicast ran off the path");
            let delegated = count - (1 << k);
            let side_word = match side {
                CoverSide::After => 0u64,
                CoverSide::Before => 1,
            };
            ctx.send(
                target,
                WireMsg::addr(tags::IMCAST, payload.addr)
                    .with_word(payload.word)
                    .with_word(delegated as u64)
                    .with_word(side_word),
            );
            let keep = (1 << k) - 1;
            self.duty = (keep > 0).then_some((side, keep, payload));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathCtx, WithCtx};
    use dgr_ncc::{Config, Network, RunResult};

    /// Runs one multicast epoch; `task(rank, id)` is each node's task.
    fn multicast(
        net: &Network,
        task: impl Fn(usize, NodeId) -> Option<(CoverSide, usize, Payload)> + Sync,
    ) -> RunResult<Option<Payload>> {
        let task = &task;
        net.run_protocol(|_| {
            WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                let mine = task(ctx.position, rctx.id());
                ImcastStep::new(ctx.vp, ctx.contacts.clone(), mine)
            })
        })
        .unwrap()
    }

    /// Disjoint groups of width w: source at rank q*w covers the w-1 ranks
    /// after it; every covered node must learn the source's ID.
    fn check_after(n: usize, w: usize, seed: u64) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = multicast(&net, |r, id| {
            r.is_multiple_of(w).then(|| {
                let count = (w - 1).min(n - 1 - r);
                let payload = Payload {
                    addr: id,
                    word: r as u64,
                };
                (CoverSide::After, count, payload)
            })
        });
        assert!(result.metrics.is_clean(), "n={n} w={w}");
        let order = result.gk_order();
        for (r, (_, got)) in result.outputs.iter().enumerate() {
            if r % w == 0 {
                assert_eq!(*got, None, "source must not receive");
            } else {
                let src_rank = (r / w) * w;
                let want = Payload {
                    addr: order[src_rank],
                    word: src_rank as u64,
                };
                assert_eq!(*got, Some(want), "n={n} w={w} rank={r}");
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
    fn before_side_covers_predecessors() {
        // The tail covers the whole rest of the path backwards.
        let n = 23;
        let net = Network::new(n, Config::ncc0(66));
        let result = multicast(&net, |r, id| {
            let payload = Payload { addr: id, word: 9 };
            (r == n - 1).then_some((CoverSide::Before, n - 1, payload))
        });
        assert!(result.metrics.is_clean());
        let tail = *result.gk_order().last().unwrap();
        for (id, got) in &result.outputs {
            if *id == tail {
                assert_eq!(*got, None);
            } else {
                assert_eq!(
                    *got,
                    Some(Payload {
                        addr: tail,
                        word: 9
                    })
                );
            }
        }
    }

    #[test]
    fn zero_count_task_is_a_noop() {
        let net = Network::new(8, Config::ncc0(67));
        let result = multicast(&net, |_, id| {
            Some((CoverSide::After, 0, Payload { addr: id, word: 0 }))
        });
        assert!(result.outputs.iter().all(|(_, got)| got.is_none()));
    }
}
