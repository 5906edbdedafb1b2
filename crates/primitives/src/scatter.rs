//! Milestone scan: a sorted-order *segmented broadcast* in `O(log² n)`
//! rounds — the primitive behind Algorithm 5's child assignment.
//!
//! ## Problem
//!
//! Nodes on a path hold *records* with totally ordered keys. Some records
//! are **milestones** carrying an address; the rest are **fillers**. Every
//! filler must learn the address of the latest milestone preceding it in
//! key order. This expresses "node of sorted rank `r` learns the ID of the
//! unique source whose interval `[a_i, b_i]` contains `r`" without any
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

#[cfg(feature = "threaded")]
use crate::contacts::ContactTable;
#[cfg(feature = "threaded")]
use crate::sort::comparator_at;
#[cfg(feature = "threaded")]
use crate::vpath::VPath;
use dgr_ncc::NodeId;
#[cfg(feature = "threaded")]
use dgr_ncc::{tags, Msg, NodeHandle};

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
    /// No record — sorts to the very end and receives nothing.
    Absent,
}

#[cfg(feature = "threaded")]
impl ScanRecord {
    fn key(&self) -> u64 {
        match self {
            ScanRecord::Milestone { key, .. } | ScanRecord::Filler { key } => *key,
            ScanRecord::Absent => u64::MAX,
        }
    }
}

/// A record in flight: sort key, origin + emission slot (for total order
/// and final delivery), and the milestone payload if any.
#[cfg(feature = "threaded")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Flight {
    key: u64,
    origin: NodeId,
    slot: u8,
    milestone: Option<NodeId>,
}

#[cfg(feature = "threaded")]
impl Flight {
    fn order(&self) -> (u64, NodeId, u8) {
        (self.key, self.origin, self.slot)
    }
}

/// Tag words distinguishing the sub-protocols in flight.
#[cfg(feature = "threaded")]
const W_EXCHANGE: u64 = 0;
#[cfg(feature = "threaded")]
const W_SCAN: u64 = 1;
#[cfg(feature = "threaded")]
const W_DELIVER: u64 = 2;

/// Number of rounds [`milestone_scan`] takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    let virt = 2 * len;
    crate::sort::stage_count(virt) as u64          // comparator network
        + crate::levels_for(virt) as u64           // doubling scan
        + 1 // origin delivery
}

/// Encodes a flight record into a message. Flags word packs the slot and
/// presence bits; `addrs[0]` = origin, `addrs[1]` = milestone (if any).
#[cfg(feature = "threaded")]
fn encode(tag_word: u64, vpos: u64, f: &Flight) -> Msg {
    let flags = u64::from(f.slot) | (u64::from(f.milestone.is_some()) << 1);
    let mut m = Msg::words(tags::SORT_XCHG, vec![tag_word, vpos, f.key, flags]).with_addr(f.origin);
    if let Some(a) = f.milestone {
        m = m.with_addr(a);
    }
    m
}

#[cfg(feature = "threaded")]
fn decode(msg: &Msg) -> (u64, u64, Flight) {
    let tag_word = msg.words[0];
    let vpos = msg.words[1];
    let key = msg.words[2];
    let flags = msg.words[3];
    let origin = msg.addrs[0];
    let milestone = (flags & 2 != 0).then(|| msg.addrs[1]);
    (
        tag_word,
        vpos,
        Flight {
            key,
            origin,
            slot: (flags & 1) as u8,
            milestone,
        },
    )
}

/// The host path position of a virtual slot.
#[cfg(feature = "threaded")]
fn host(vpos: usize) -> usize {
    vpos / 2
}

/// Runs the milestone scan. Every member emits exactly two records (use
/// [`ScanRecord::Absent`] to pad); the return value gives, for each
/// emitted record in order, the latest milestone address strictly... —
/// precisely: for a [`ScanRecord::Filler`], the address of the milestone
/// with the greatest `(key, origin, slot)` smaller than the filler's, or
/// `None` if no milestone precedes it. Milestone and absent records return
/// their own/no address and should be ignored by callers.
///
/// Keys need not be distinct across nodes; ties are broken by
/// `(origin, slot)`. Non-members idle.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn milestone_scan(
    h: &mut NodeHandle,
    vp: &VPath,
    contacts: &ContactTable,
    position: usize,
    records: [ScanRecord; 2],
) -> [Option<NodeId>; 2] {
    let len = vp.len;
    if !vp.member {
        h.idle_quiet(rounds_for(len));
        return [None, None];
    }
    let virt = 2 * len;

    // My two hosted slots start holding my own two records.
    let mut held: [Flight; 2] = std::array::from_fn(|s| Flight {
        key: records[s].key(),
        origin: h.id(),
        slot: s as u8,
        milestone: match records[s] {
            ScanRecord::Milestone { addr, .. } => Some(addr),
            _ => None,
        },
    });

    // The ID of the node hosting the virtual slot at the given distance
    // from one of my slots (None off the ends).
    let my_host = position;
    let host_id = |target_host: usize, h_id: NodeId| -> Option<NodeId> {
        use std::cmp::Ordering;
        match target_host.cmp(&my_host) {
            Ordering::Equal => Some(h_id),
            Ordering::Greater => {
                let d = target_host - my_host;
                debug_assert!(d.is_power_of_two());
                contacts.ahead(d.trailing_zeros() as usize)
            }
            Ordering::Less => {
                let d = my_host - target_host;
                debug_assert!(d.is_power_of_two());
                contacts.behind(d.trailing_zeros() as usize)
            }
        }
    };

    // --- Phase 1: odd-even mergesort over the 2·len virtual slots. ---
    let my_id = h.id();
    for (p, k) in crate::sort::stages_of(virt) {
        // Comparators touching my slots; handle same-node pairs locally.
        let mut out = Vec::new();
        let mut plan: [Option<(usize, bool)>; 2] = [None, None];
        for s in 0..2 {
            let v = 2 * position + s;
            if let Some((partner, i_am_low)) = comparator_at(v, virt, p, k) {
                if host(partner) == my_host {
                    // Local comparator between my own two slots.
                    if s == 0 {
                        let (lo, hi) = (held[0], held[1]);
                        debug_assert!(partner == v + 1 && i_am_low);
                        if lo.order() > hi.order() {
                            held.swap(0, 1);
                        }
                    }
                } else {
                    plan[s] = Some((partner, i_am_low));
                    let target =
                        host_id(host(partner), my_id).expect("comparator partner off the path");
                    out.push((target, encode(W_EXCHANGE, v as u64, &held[s])));
                }
            }
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::SORT_XCHG) {
            let (w, partner_vpos, theirs) = decode(&env.msg);
            debug_assert_eq!(w, W_EXCHANGE);
            // Which of my slots has this partner?
            let s = (0..2)
                .find(|&s| {
                    plan[s] == Some((partner_vpos as usize, true))
                        || plan[s] == Some((partner_vpos as usize, false))
                })
                .expect("unexpected exchange partner");
            let (_, i_am_low) = plan[s].unwrap();
            held[s] = if i_am_low {
                if held[s].order() <= theirs.order() {
                    held[s]
                } else {
                    theirs
                }
            } else if held[s].order() > theirs.order() {
                held[s]
            } else {
                theirs
            };
        }
    }

    // --- Phase 2: Hillis–Steele scan of "latest milestone so far" over
    // the sorted virtual order. acc[s] starts as the slot's own milestone;
    // at step k, slot v pushes its acc to slot v + 2^k, where an incoming
    // Some overrides (the sender is earlier, so it only fills gaps). ---
    let mut acc: [Option<NodeId>; 2] = std::array::from_fn(|s| held[s].milestone);
    // Incoming accumulators override only if I have nothing: wrong — the
    // *latest* milestone wins, and later positions are further right, so
    // my own Some always beats an incoming one. Incoming fills None only.
    for k in 0..crate::levels_for(virt) {
        let mut out = Vec::new();
        for (s, &slot_acc) in acc.iter().enumerate() {
            let v = 2 * position + s;
            let tv = v + (1 << k);
            if tv < virt {
                if let Some(a) = slot_acc {
                    let target = host_id(host(tv), my_id).expect("scan target off the path");
                    let msg = Msg::words(tags::PREFIX, vec![W_SCAN, tv as u64]).with_addr(a);
                    out.push((target, msg));
                }
            }
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::PREFIX) {
            let tv = env.msg.words[1] as usize;
            let s = tv - 2 * position;
            debug_assert!(s < 2);
            if acc[s].is_none() {
                acc[s] = Some(env.addr());
            }
        }
    }

    // --- Phase 3: deliver each slot's result to its record's origin. ---
    let mut out = Vec::new();
    let mut result: [Option<NodeId>; 2] = [None, None];
    for s in 0..2 {
        // A filler's answer excludes itself automatically (it is not a
        // milestone); a milestone slot's acc is itself — callers ignore it.
        let value = acc[s];
        if held[s].origin == my_id {
            result[held[s].slot as usize] = value;
        } else {
            let mut msg = Msg::words(
                tags::TOKEN,
                vec![
                    W_DELIVER,
                    u64::from(held[s].slot),
                    u64::from(value.is_some()),
                ],
            );
            if let Some(a) = value {
                msg = msg.with_addr(a);
            }
            out.push((held[s].origin, msg));
        }
    }
    let inbox = h.step(out);
    for env in inbox.iter().filter(|e| e.msg.tag == tags::TOKEN) {
        let s = env.msg.words[1] as usize;
        if env.msg.words[2] != 0 {
            result[s] = Some(env.msg.addrs[0]);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::PathCtx;
    use crate::proto::scatter::ScanStep;
    use crate::proto::WithCtx;
    use dgr_ncc::{Config, Network, RoundCtx, RunResult};

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
