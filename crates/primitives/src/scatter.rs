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
//!
//! ## Contract
//!
//! Every member emits exactly two records (pad with
//! [`ScanRecord::Absent`]) and gets one answer per record, in order: for a
//! [`ScanRecord::Filler`], the address of the milestone with the greatest
//! `(key, origin, slot)` smaller than the filler's, or `None` if no
//! milestone precedes it. Milestone and absent records return their
//! own/no address and should be ignored by callers. Keys need not be
//! distinct across nodes; ties are broken by `(origin, slot)`.

use dgr_ncc::NodeId;

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

/// Number of rounds [`ScanStep`](crate::proto::scatter::ScanStep) takes on
/// a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    let virt = 2 * len;
    crate::sort::stage_count(virt) as u64          // comparator network
        + crate::levels_for(virt) as u64           // doubling scan
        + 1 // origin delivery
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
