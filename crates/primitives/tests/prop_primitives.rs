//! Property-based tests of the NCC primitives under full simulation.
//! Case counts are modest (each case spins up a simulated network), but
//! the inputs are adversarially random: arbitrary path lengths, keys with
//! ties, random interval layouts, random milestone placements.

use dgr_ncc::{Config, Network, RoundCtx};
use dgr_primitives::imcast::{CoverSide, ImcastStep, Payload};
use dgr_primitives::ops::AggBcastStep;
use dgr_primitives::prefix::PrefixStep;
use dgr_primitives::scatter::{ScanRecord, ScanStep};
use dgr_primitives::sort::{Order, SortStep};
use dgr_primitives::{AggOp, PathCtx, WithCtx};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Sorting: the rank assignment is a permutation, keys are ordered
    /// along ranks, and the sorted-path links are consistent — for any
    /// path length and any key multiset (dense keys force many ties).
    #[test]
    fn sort_is_a_sorted_permutation(n in 1usize..48, seed in 0u64..1000) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let (key, id) = (rctx.id() % 5, rctx.id()); // heavy ties
                    SortStep::new(c.vp, c.contacts.clone(), c.position, key, Order::Descending, id)
                })
            })
            .unwrap();
        prop_assert!(result.metrics.is_clean());
        let mut by_rank: Vec<(usize, u64, u64)> = result
            .outputs
            .iter()
            .map(|(id, sp)| (sp.rank, id % 5, *id))
            .collect();
        by_rank.sort_unstable();
        for (want, (got, ..)) in by_rank.iter().enumerate() {
            prop_assert_eq!(*got, want);
        }
        for w in by_rank.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "descending order violated");
        }
        // Link consistency.
        let by_id: std::collections::HashMap<u64, (usize, Option<u64>, Option<u64>)> =
            result
                .outputs
                .iter()
                .map(|(id, sp)| (*id, (sp.rank, sp.vp.pred, sp.vp.succ)))
                .collect();
        for (rank, _, id) in &by_rank {
            let (_, pred, succ) = by_id[id];
            let want_pred =
                rank.checked_sub(1).map(|r| by_rank[r].2);
            let want_succ = by_rank.get(rank + 1).map(|t| t.2);
            prop_assert_eq!(pred, want_pred);
            prop_assert_eq!(succ, want_succ);
        }
    }

    /// Prefix sums are exact for arbitrary values.
    #[test]
    fn prefix_sums_are_exact(n in 1usize..48, seed in 0u64..1000) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    PrefixStep::new(c.vp, c.contacts.clone(), rctx.id() % 23)
                })
            })
            .unwrap();
        let mut running = 0;
        for (id, got) in &result.outputs {
            running += id % 23;
            prop_assert_eq!(*got, running);
        }
    }

    /// Interval multicast with randomly sized disjoint intervals delivers
    /// exactly inside each interval.
    #[test]
    fn imcast_random_layout(
        n in 2usize..40,
        widths in prop::collection::vec(1usize..7, 1..12),
        seed in 0u64..1000,
    ) {
        // Build a disjoint layout [start, start+w) from the widths,
        // truncated to n.
        let mut layout = Vec::new(); // (source_rank, count)
        let mut at = 0usize;
        for w in widths {
            if at >= n {
                break;
            }
            let count = (w - 1).min(n - 1 - at);
            layout.push((at, count));
            at += w;
        }
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let task = layout
                        .iter()
                        .find(|(s, _)| *s == c.position)
                        .map(|&(_, count)| {
                            (CoverSide::After, count, Payload { addr: rctx.id(), word: 1 })
                        });
                    ImcastStep::new(c.vp, c.contacts.clone(), task)
                })
            })
            .unwrap();
        prop_assert!(result.metrics.is_clean());
        let order = result.gk_order();
        for (pos, (_, got)) in result.outputs.iter().enumerate() {
            let pos = &pos;
            let covering = layout
                .iter()
                .find(|&&(s, count)| *pos > s && *pos <= s + count);
            match covering {
                Some(&(s, _)) => {
                    prop_assert_eq!(
                        got.map(|p| p.addr),
                        Some(order[s]),
                        "pos {} expected coverage from rank {}", pos, s
                    );
                }
                None => prop_assert!(got.is_none(), "pos {} covered unexpectedly", pos),
            }
        }
    }

    /// Milestone scan: random milestone placement; every filler must learn
    /// the closest milestone at-or-before its own key.
    #[test]
    fn milestone_scan_matches_reference(
        n in 1usize..32,
        milestone_mask in prop::collection::vec(any::<bool>(), 32),
        seed in 0u64..1000,
    ) {
        let mask: Vec<bool> = (0..n).map(|i| milestone_mask[i]).collect();
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let r = c.position as u64;
                    let rec0 = if mask[c.position] {
                        // Milestone placed *just before* my filler: covers me.
                        ScanRecord::Milestone { key: 2 * r, addr: rctx.id() }
                    } else {
                        ScanRecord::Absent
                    };
                    let records = [rec0, ScanRecord::Filler { key: 2 * r + 1 }];
                    ScanStep::new(c.vp, c.contacts.clone(), c.position, records, rctx.id())
                })
            })
            .unwrap();
        prop_assert!(result.metrics.is_clean());
        let order = result.gk_order();
        for (pos, (_, got)) in result.outputs.iter().enumerate() {
            // Reference: the last milestone position ≤ pos.
            let want = (0..=pos).rev().find(|&i| mask[i]).map(|i| order[i]);
            prop_assert_eq!(got[1], want, "pos {}", pos);
        }
    }

    /// Aggregation with different operators agrees with the sequential
    /// fold for arbitrary values.
    #[test]
    fn aggregate_matches_fold(n in 1usize..40, seed in 0u64..1000) {
        let net = Network::new(n, Config::ncc0(seed));
        let vals: Vec<u64> =
            net.ids_in_path_order().iter().map(|i| i % 41).collect();
        let want_sum: u64 = vals.iter().sum();
        let want_max: u64 = *vals.iter().max().unwrap();
        let want_min: u64 = *vals.iter().min().unwrap();
        for (op, want) in [(AggOp::Sum, want_sum), (AggOp::Max, want_max), (AggOp::Min, want_min)] {
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(move |c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        AggBcastStep::new(c.vp, c.tree.clone(), rctx.id() % 41, op)
                    })
                })
                .unwrap();
            for (_, got) in &result.outputs {
                prop_assert_eq!(*got, want, "{:?}", op);
            }
        }
    }
}
