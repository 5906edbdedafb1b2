//! Milestone scan: a sorted-order *segmented broadcast* in `O(log² n)`
//! rounds — the primitive behind the tree realizations' parent hand-off.
//!
//! ## Problem
//!
//! Nodes on a path hold *records* with totally ordered keys. Some records
//! are **milestones** carrying an address; the rest are **fillers**. Every
//! filler must learn the address of the latest milestone preceding it in
//! key order. This expresses "the node of sorted rank `r` learns the ID of
//! the unique source whose interval `[a_i, b_i]` contains `r`" without any
//! node knowing the interval boundaries of others: source `i` emits a
//! milestone keyed just before `a_i`, rank `r` emits a filler keyed at `r`,
//! and the scan hands every rank its covering source.
//!
//! The twist is that one node may need to act as both a source (emit a
//! milestone) *and* a covered rank (emit a filler) — Algorithm 5's internal
//! tree nodes are both parents and children. So the primitive lets **every
//! node emit two records**, hosted on `2n` virtual slots (node at position
//! `p` hosts slots `2p` and `2p+1`).
//!
//! A record's *origin* — the node its answer goes to — need not be the
//! node that hosts it. A caller that works in position space after a sort
//! (the tree drivers: position `x` emits rank `x`'s records) names the
//! sorted record's owner as the origin, and that node gets the answers
//! without ever learning its rank. Every origin must be a member, and the
//! origin of one member's records at most.
//!
//! ## Mechanics
//!
//! 1. The records are sorted by `(key, origin, slot)` with the same
//!    odd-even mergesort network as [`crate::sort`], run over virtual
//!    slots: a comparator at virtual distance `2^j` connects hosts at
//!    physical distance `2^(j-1)` (or the same/adjacent node for `j = 0`),
//!    so the ordinary contact table provides all addressing and each node
//!    runs at most two comparators per stage.
//! 2. A Hillis–Steele doubling scan over the sorted virtual order
//!    propagates "latest milestone so far".
//! 3. Each slot returns the scanned value to its record's origin.
//!
//! ## Contract
//!
//! Every member emits exactly two records (pad with
//! [`ScanRecord::Absent`]) and its records' origin gets one answer per
//! record, in order: the address of the latest milestone at or before the
//! record in `(key, origin, slot)` order, or `None` if there is none. For
//! a [`ScanRecord::Filler`] that is the milestone preceding it — the
//! answer the scan exists for. A milestone answers its own address, and
//! an absent record, which sorts after every other, answers the last
//! milestone of all, not `None` — so a caller reads only its fillers'
//! answers. Keys need not be distinct across nodes; ties are broken by
//! `(origin, slot)`.

use crate::contacts::ContactTable;
use crate::sort::StageIter;
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// A record emitted into the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanRecord {
    /// A milestone: fillers after it (until the next milestone) learn
    /// `addr`.
    Milestone {
        /// Sort key.
        key: u64,
        /// The address this milestone announces.
        addr: NodeId,
    },
    /// A filler: wants the latest milestone address before `key`.
    Filler {
        /// Sort key.
        key: u64,
    },
    /// No record — sorts to the very end; its answer is the last
    /// milestone of all, which callers ignore.
    Absent,
}

/// Number of rounds [`ScanStep`] takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    let virt = 2 * len;
    crate::sort::stage_count(virt) as u64          // comparator network
        + crate::levels_for(virt) as u64           // doubling scan
        + 1 // origin delivery
}

/// Words distinguishing the sub-protocols in flight.
const W_EXCHANGE: u64 = 0;
const W_SCAN: u64 = 1;
const W_DELIVER: u64 = 2;

/// A record in flight: sort key, origin + emission slot (for total order
/// and final delivery), and the milestone payload if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Flight {
    key: u64,
    origin: NodeId,
    slot: u8,
    milestone: Option<NodeId>,
}

impl Flight {
    fn order(&self) -> (u64, NodeId, u8) {
        (self.key, self.origin, self.slot)
    }
}

fn encode(tag_word: u64, vpos: u64, f: &Flight) -> WireMsg {
    let flags = u64::from(f.slot) | (u64::from(f.milestone.is_some()) << 1);
    let mut m =
        WireMsg::words(tags::SORT_XCHG, &[tag_word, vpos, f.key, flags]).with_addr(f.origin);
    if let Some(a) = f.milestone {
        m = m.with_addr(a);
    }
    m
}

fn decode(msg: &WireMsg) -> (u64, u64, Flight) {
    let words = msg.words_slice();
    let addrs = msg.addrs_slice();
    let flags = words[3];
    (
        words[0],
        words[1],
        Flight {
            key: words[2],
            origin: addrs[0],
            slot: (flags & 1) as u8,
            milestone: (flags & 2 != 0).then(|| addrs[1]),
        },
    )
}

/// The host path position of a virtual slot.
fn host(vpos: usize) -> usize {
    vpos / 2
}

/// The milestone scan as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
pub type ScanStep = Lockstep<Scan>;

/// [`ScanStep`]'s member rounds: the comparator network, the doubling
/// scan, then the delivery round.
#[derive(Debug)]
pub struct Scan {
    contacts: Arc<ContactTable>,
    position: usize,
    /// Virtual slots, two per path position.
    virt: usize,
    it: StageIter,
    stage_count: u64,
    held: [Flight; 2],
    plan: [Option<(usize, bool)>; 2],
    acc: [Option<NodeId>; 2],
    result: [Option<NodeId>; 2],
}

impl ScanStep {
    /// Builds the step; every member emits exactly two records, whose
    /// answers go to `origin` — this node, or the node whose records this
    /// position holds (see the module docs).
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        records: [ScanRecord; 2],
        origin: NodeId,
    ) -> Self {
        let virt = 2 * vp.len;
        let held = std::array::from_fn(|s| Flight {
            key: match records[s] {
                ScanRecord::Milestone { key, .. } | ScanRecord::Filler { key } => key,
                ScanRecord::Absent => u64::MAX,
            },
            origin,
            slot: s as u8,
            milestone: match records[s] {
                ScanRecord::Milestone { addr, .. } => Some(addr),
                _ => None,
            },
        });
        let scan = Scan {
            contacts,
            position,
            virt,
            it: StageIter::new(virt),
            stage_count: crate::sort::stage_count(virt) as u64,
            held,
            plan: [None, None],
            acc: [None, None],
            result: [None, None],
        };
        Lockstep::run(vp.member, rounds_for(vp.len), scan)
    }
}

impl Scan {
    /// The ID of the node hosting `target_host` (a power-of-two distance
    /// from this node's position, or itself).
    fn host_id(&self, target_host: usize, my_id: NodeId) -> Option<NodeId> {
        use std::cmp::Ordering;
        match target_host.cmp(&self.position) {
            Ordering::Equal => Some(my_id),
            Ordering::Greater => {
                let d = target_host - self.position;
                debug_assert!(d.is_power_of_two());
                self.contacts.ahead(d.trailing_zeros() as usize)
            }
            Ordering::Less => {
                let d = self.position - target_host;
                debug_assert!(d.is_power_of_two());
                self.contacts.behind(d.trailing_zeros() as usize)
            }
        }
    }

    fn absorb_exchange(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::SORT_XCHG) {
            let (w, partner_vpos, theirs) = decode(&env.msg);
            debug_assert_eq!(w, W_EXCHANGE);
            let s = (0..2)
                .find(|&s| {
                    self.plan[s] == Some((partner_vpos as usize, true))
                        || self.plan[s] == Some((partner_vpos as usize, false))
                })
                .expect("unexpected exchange partner");
            let (_, i_am_low) = self.plan[s].unwrap();
            self.held[s] = if i_am_low {
                if self.held[s].order() <= theirs.order() {
                    self.held[s]
                } else {
                    theirs
                }
            } else if self.held[s].order() > theirs.order() {
                self.held[s]
            } else {
                theirs
            };
        }
    }

    fn stage_comparators(&mut self, ctx: &mut RoundCtx<'_>) {
        let (p, k) = self.it.next().expect("scan stage out of range");
        let my_id = ctx.id();
        self.plan = [None, None];
        for s in 0..2 {
            let v = 2 * self.position + s;
            if let Some((partner, i_am_low)) = crate::sort::comparator_at(v, self.virt, p, k) {
                if host(partner) == self.position {
                    // Local comparator between my own two slots.
                    if s == 0 {
                        debug_assert!(partner == v + 1 && i_am_low);
                        if self.held[0].order() > self.held[1].order() {
                            self.held.swap(0, 1);
                        }
                    }
                } else {
                    self.plan[s] = Some((partner, i_am_low));
                    let target = self
                        .host_id(host(partner), my_id)
                        .expect("comparator partner off the path");
                    ctx.send(target, encode(W_EXCHANGE, v as u64, &self.held[s]));
                }
            }
        }
    }

    fn absorb_scan(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::PREFIX) {
            let tv = env.msg.words_slice()[1] as usize;
            let s = tv - 2 * self.position;
            debug_assert!(s < 2);
            if self.acc[s].is_none() {
                self.acc[s] = Some(env.addr());
            }
        }
    }

    fn stage_scan(&mut self, level: u64, ctx: &mut RoundCtx<'_>) {
        let my_id = ctx.id();
        for (s, &slot_acc) in self.acc.iter().enumerate() {
            let v = 2 * self.position + s;
            let tv = v + (1usize << level);
            if tv < self.virt {
                if let Some(a) = slot_acc {
                    let target = self
                        .host_id(host(tv), my_id)
                        .expect("scan target off the path");
                    ctx.send(
                        target,
                        WireMsg::words(tags::PREFIX, &[W_SCAN, tv as u64]).with_addr(a),
                    );
                }
            }
        }
    }

    fn stage_delivery(&mut self, ctx: &mut RoundCtx<'_>) {
        let my_id = ctx.id();
        for s in 0..2 {
            let value = self.acc[s];
            if self.held[s].origin == my_id {
                self.result[self.held[s].slot as usize] = value;
            } else {
                let mut msg = WireMsg::words(
                    tags::TOKEN,
                    &[
                        W_DELIVER,
                        u64::from(self.held[s].slot),
                        u64::from(value.is_some()),
                    ],
                );
                if let Some(a) = value {
                    msg = msg.with_addr(a);
                }
                ctx.send(self.held[s].origin, msg);
            }
        }
    }
}

impl Rounds for Scan {
    type Out = [Option<NodeId>; 2];

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        let s_end = self.stage_count;
        let scan_end = rounds - 1;
        if t > 0 && t <= s_end {
            self.absorb_exchange(ctx);
            if t == s_end {
                // The network is sorted; seed the scan accumulators.
                self.acc = std::array::from_fn(|s| self.held[s].milestone);
            }
        } else if t > s_end && t <= scan_end {
            self.absorb_scan(ctx);
        } else if t == rounds {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::TOKEN) {
                let s = env.msg.words_slice()[1] as usize;
                if env.msg.words_slice()[2] != 0 {
                    self.result[s] = Some(env.msg.addrs_slice()[0]);
                }
            }
            return Poll::Ready(self.result);
        }
        if t < s_end {
            self.stage_comparators(ctx);
        } else if t < scan_end {
            self.stage_scan(t - s_end, ctx);
        } else {
            debug_assert_eq!(t, scan_end);
            self.stage_delivery(ctx);
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::{Held, Order, SortStep};
    use crate::{PathCtx, Step, WithCtx};
    use dgr_ncc::{Config, EngineKind, Network, RunResult};

    /// Runs one scan; `records(rank, id)` are each node's two records.
    fn scan(
        net: &Network,
        records: impl Fn(usize, NodeId) -> [ScanRecord; 2] + Sync,
    ) -> RunResult<[Option<NodeId>; 2]> {
        let records = &records;
        net.run_protocol(|_| {
            WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                let mine = records(ctx.position, rctx.id());
                ScanStep::new(ctx.vp, ctx.contacts.clone(), ctx.position, mine, rctx.id())
            })
        })
        .unwrap()
    }

    /// Sources at every multiple of w announce themselves for the w-1
    /// following ranks — but *every* node (including sources) must learn
    /// the announcement covering its own rank: exactly the two-role case.
    #[test]
    fn two_role_segmented_broadcast() {
        let n = 24;
        let w = 4;
        let net = Network::new(n, Config::ncc0(81));
        let result = scan(&net, |position, id| {
            let r = position as u64;
            let rec0 = if position.is_multiple_of(w) {
                // Milestone just before my own filler key: covers me too.
                ScanRecord::Milestone {
                    key: 2 * r,
                    addr: id,
                }
            } else {
                ScanRecord::Absent
            };
            [rec0, ScanRecord::Filler { key: 2 * r + 1 }]
        });
        assert!(result.metrics.is_clean());
        let order = result.gk_order();
        for (i, (_, got)) in result.outputs.iter().enumerate() {
            let src = order[(i / w) * w];
            assert_eq!(got[1], Some(src), "rank {i}");
        }
    }

    #[test]
    fn filler_before_all_milestones_gets_none() {
        let n = 9;
        let net = Network::new(n, Config::ncc0(82));
        let result = scan(&net, |position, id| {
            // One milestone in the middle (rank 4).
            let rec0 = if position == 4 {
                ScanRecord::Milestone { key: 9, addr: id }
            } else {
                ScanRecord::Absent
            };
            let key = 2 * position as u64;
            [rec0, ScanRecord::Filler { key }]
        });
        let order = result.gk_order();
        for (i, (_, got)) in result.outputs.iter().enumerate() {
            if i <= 4 {
                assert_eq!(got[1], None, "rank {i} (key {} < 9)", 2 * i);
            } else {
                assert_eq!(got[1], Some(order[4]), "rank {i}");
            }
        }
    }

    #[test]
    fn single_node_path() {
        let net = Network::new(1, Config::ncc0(83));
        let result = scan(&net, |_, id| {
            [
                ScanRecord::Milestone { key: 0, addr: id },
                ScanRecord::Filler { key: 1 },
            ]
        });
        assert_eq!(result.outputs[0].1[1], Some(result.outputs[0].0));
    }

    /// A descending sort by path position leaves at position `p` the
    /// record of the node at position `n - 1 - p`, which then emits that
    /// node's records into the scan, as a caller in position space does:
    /// the answers reach the origins, not the hosts, on both engines. A
    /// milestone answers its own address and an absent record the last
    /// milestone of all.
    #[test]
    fn records_hosted_away_from_their_origin_answer_the_origin() {
        let (n, w) = (21, 4);
        let net = Network::new(n, Config::ncc0(85));
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let result = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let (vp, x, contacts) = (ctx.vp, ctx.position, ctx.contacts.clone());
                        let table = contacts.clone();
                        SortStep::new(vp, contacts, x, x as u64, Order::Descending, rctx.id()).then(
                            move |held, _| {
                                let Held { key: r, origin } = held.expect("a full sort");
                                assert_eq!(r as usize, n - 1 - x);
                                let rec0 = if r.is_multiple_of(w as u64) {
                                    ScanRecord::Milestone {
                                        key: 2 * r,
                                        addr: origin,
                                    }
                                } else {
                                    ScanRecord::Absent
                                };
                                let records = [rec0, ScanRecord::Filler { key: 2 * r + 1 }];
                                ScanStep::new(vp, table, x, records, origin)
                            },
                        )
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean(), "{engine:?}");
            let ids = result.gk_order();
            let last = Some(ids[(n - 1) / w * w]);
            for (r, (_, got)) in result.outputs.iter().enumerate() {
                let own = if r.is_multiple_of(w) {
                    Some(ids[r])
                } else {
                    last
                };
                assert_eq!(got[0], own, "{engine:?} rank {r}: first record");
                assert_eq!(got[1], Some(ids[r / w * w]), "{engine:?} rank {r}: filler");
            }
        }
    }

    #[test]
    fn round_budget_matches() {
        // The scan's own rounds: the run minus the context establishment
        // it starts with.
        let n = 20;
        let net = Network::new(n, Config::ncc0(84));
        let result = scan(&net, |_, _| {
            [ScanRecord::Absent, ScanRecord::Filler { key: 0 }]
        });
        let spent = result.metrics.rounds - crate::ctx::rounds_for(n);
        assert_eq!(spent, rounds_for(n));
    }
}
