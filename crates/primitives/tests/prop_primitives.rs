//! Property-based tests of the NCC primitives under full simulation.
//! Case counts are modest (each case spins up a simulated network), but
//! the inputs are adversarially random: arbitrary path lengths, keys with
//! ties, random interval layouts, random shifted layouts.

use dgr_ncc::{tags, Config, EngineKind, Network, RoundCtx};
use dgr_primitives::imcast::{self, ImcastStep};
use dgr_primitives::ops::{Fold, SweepStep};
use dgr_primitives::prefix::PrefixStep;
use dgr_primitives::sort::{Order::Descending, RankStep, SortStep};
use dgr_primitives::{ctx, PathCtx, Poll, Step, WithCtx};
use rand::Rng;

#[path = "../../../tests/support/cases.rs"]
mod cases;
use cases::{case_rng, vec_of};

#[path = "support/busiest.rs"]
mod busiest;
use busiest::Busiest;

/// Sorting: the rank assignment is a permutation, keys are ordered
/// along ranks, and the sorted-path links are consistent — for any
/// path length and any key multiset (dense keys force many ties).
#[test]
fn sort_is_a_sorted_permutation() {
    let mut rng = case_rng(concat!(module_path!(), "::sort_is_a_sorted_permutation"));
    for case in 0..12 {
        let (n, seed) = (rng.gen_range(1usize..48), rng.gen_range(0u64..1000));
        let what = format!("case {case}: n={n} seed={seed}");
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let (key, id) = (rctx.id() % 5, rctx.id()); // heavy ties
                    let (vp, x) = (c.vp, c.position);
                    SortStep::new(vp, c.contacts.clone(), x, key, Descending, id)
                        .then(move |held, _| RankStep::new(vp, x, held))
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean(), "{what}");
        let mut by_rank: Vec<(usize, u64, u64)> = result
            .outputs
            .iter()
            .map(|(id, sp)| (sp.rank, id % 5, *id))
            .collect();
        by_rank.sort_unstable();
        for (want, (got, ..)) in by_rank.iter().enumerate() {
            assert_eq!(*got, want, "{what}");
        }
        for w in by_rank.windows(2) {
            assert!(w[0].1 >= w[1].1, "{what}: descending order violated");
        }
        // Link consistency.
        let by_id: std::collections::HashMap<u64, (usize, Option<u64>, Option<u64>)> = result
            .outputs
            .iter()
            .map(|(id, sp)| (*id, (sp.rank, sp.vp.pred, sp.vp.succ)))
            .collect();
        for (rank, _, id) in &by_rank {
            let (_, pred, succ) = by_id[id];
            let want_pred = rank.checked_sub(1).map(|r| by_rank[r].2);
            let want_succ = by_rank.get(rank + 1).map(|t| t.2);
            assert_eq!(pred, want_pred, "{what}");
            assert_eq!(succ, want_succ, "{what}");
        }
    }
}

/// Prefix sums are exact for arbitrary values.
#[test]
fn prefix_sums_are_exact() {
    let mut rng = case_rng(concat!(module_path!(), "::prefix_sums_are_exact"));
    for case in 0..12 {
        let (n, seed) = (rng.gen_range(1usize..48), rng.gen_range(0u64..1000));
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
            assert_eq!(*got, running, "case {case}: n={n} seed={seed}");
        }
    }
}

/// Interval multicast with randomly sized disjoint intervals delivers
/// exactly inside each interval.
#[test]
fn imcast_random_layout() {
    let mut rng = case_rng(concat!(module_path!(), "::imcast_random_layout"));
    for case in 0..12 {
        let n = rng.gen_range(2usize..40);
        let widths = vec_of(&mut rng, 1..12, |r| r.gen_range(1usize..7));
        let seed = rng.gen_range(0u64..1000);
        let what = format!("case {case}: n={n} widths={widths:?} seed={seed}");
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
                    let addr = rctx.id();
                    let task = layout
                        .iter()
                        .find(|(s, _)| *s == c.position)
                        .map(|&(_, count)| (count, addr));
                    ImcastStep::new(c.vp, c.contacts.clone(), n - 1, task)
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean(), "{what}");
        let order = result.gk_order();
        for (pos, (_, got)) in result.outputs.iter().enumerate() {
            let covering = layout
                .iter()
                .find(|&&(s, count)| pos > s && pos <= s + count);
            match covering {
                Some(&(s, _)) => assert_eq!(
                    *got,
                    Some(order[s]),
                    "{what}: pos {pos} expected coverage from rank {s}"
                ),
                None => assert!(got.is_none(), "{what}: pos {pos} covered unexpectedly"),
            }
        }
    }
    for case in 0..12 {
        let layout = offset_layout(&mut rng);
        let n = layout.last().map_or(0, |&(a, count)| a + count) + rng.gen_range(0usize..4);
        let seed = rng.gen_range(0u64..1000);
        let what = format!("offset case {case}: n={n} layout={layout:?} seed={seed}");
        let net = Network::new(n, Config::ncc0(seed));
        // The sequential replay: source i's address at every rank of
        // [a_i, a_i + count_i).
        let order = net.ids_in_path_order();
        let mut want = vec![None; n];
        for (i, &(a, count)) in layout.iter().enumerate() {
            want[a..a + count].fill(Some(order[i]));
        }
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let result = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let x = c.position;
                        let task = layout.get(x).map(|&(a, count)| (a - x, count, rctx.id()));
                        let step = ImcastStep::at_offset(c.vp, c.contacts.clone(), task);
                        Busiest::new(step, &[tags::IMCAST])
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean(), "{what} {engine:?}");
            let spent = result.metrics.rounds - ctx::rounds_for(n);
            assert_eq!(spent, imcast::offset_rounds_for(n), "{what} {engine:?}");
            for (pos, (_, (got, busiest))) in result.outputs.iter().enumerate() {
                assert!(*busiest <= 1, "{what} {engine:?}: pos {pos} got {busiest}");
                assert_eq!(*got, want[pos], "{what} {engine:?}: pos {pos}");
            }
        }
    }
}

/// A shifted multicast's layout: the landing intervals `(a_i, count_i)`
/// of the sources at positions `0..s`, a random prefix — disjoint, in
/// order, with offsets `a_i - i` that never decrease.
fn offset_layout(rng: &mut impl Rng) -> Vec<(usize, usize)> {
    let mut at = rng.gen_range(0usize..4);
    let mut layout = Vec::new();
    for _ in 0..rng.gen_range(1usize..8) {
        let count = rng.gen_range(1usize..6);
        layout.push((at, count));
        at += count + rng.gen_range(0usize..3);
    }
    layout
}

/// Aggregation with different operators agrees with the sequential
/// fold for arbitrary values.
#[test]
fn aggregate_matches_fold() {
    let mut rng = case_rng(concat!(module_path!(), "::aggregate_matches_fold"));
    for case in 0..12 {
        let (n, seed) = (rng.gen_range(1usize..40), rng.gen_range(0u64..1000));
        let net = Network::new(n, Config::ncc0(seed));
        let vals: Vec<u64> = net.ids_in_path_order().iter().map(|i| i % 41).collect();
        let want_sum: u64 = vals.iter().sum();
        let want_max: u64 = *vals.iter().max().unwrap();
        let want_min: u64 = *vals.iter().min().unwrap();
        let folds: [(&str, Fold, u64); 3] = [
            ("sum", |acc, x| acc[0] += x[0], want_sum),
            ("max", |acc, x| acc[0] = acc[0].max(x[0]), want_max),
            ("min", |acc, x| acc[0] = acc[0].min(x[0]), want_min),
        ];
        for (op, fold, want) in folds {
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(move |c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let (vp, contacts, value) = (c.vp, c.contacts.clone(), [rctx.id() % 41]);
                        SweepStep::new(vp, contacts, c.position, &value, None, fold)
                    })
                })
                .unwrap();
            for (_, got) in &result.outputs {
                assert_eq!(got.words[0], want, "case {case}: n={n} seed={seed} {op}");
            }
        }
    }
}
