//! Primitive round-complexity experiments (Corollary 2, Theorems 3 and
//! 4): measured rounds vs. the predicted growth along `n` sweeps. Rounds
//! here are *exact model quantities* reported by the simulator, not
//! wall-clock. A primitive's own round count is the difference of two
//! runs: the composition ending in it, and the same composition without
//! it.

use crate::experiments::ratios_flat;
use crate::table::{f2, Table};
use dgr_ncc::{Config, Network, RoundCtx, RunResult};
use dgr_primitives::ops::{self, SweepStep};
use dgr_primitives::sort::{Order, RankStep, SortStep};
use dgr_primitives::{EstablishCtx, PathCtx, PathToClique, Step, StepProtocol, WithCtx};

/// The full context establishment, standalone.
fn establish(net: &Network) -> RunResult<PathCtx> {
    net.run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
        .unwrap()
}

const SWEEP: &[usize] = &[16, 32, 64, 128, 256, 512, 1024];

fn lg(n: usize) -> f64 {
    (n as f64).log2()
}

/// Corollary 2: positions + median in `O(log n)` rounds. The positions
/// come from the rank lane beside the contact doubling (one round past
/// it, at most `n - 1` messages beside it); the median is the
/// address-only sweep.
pub fn c2_positions() -> Vec<Table> {
    let mut t = Table::new(
        "Corollary 2 — path positions (rank lane) and median in O(log n) rounds",
        &[
            "n",
            "pos rounds",
            "rank msgs",
            "median rounds",
            "total/log2(n)",
            "all correct",
        ],
    );
    let mut ratios = Vec::new();
    let mut correct = true;
    for &n in SWEEP {
        let net = Network::new(n, Config::ncc0(2));
        let order = net.ids_in_path_order().to_vec();
        // Three runs, each one stage longer: the bare doubling, + the
        // rank lane (the establishment), + the median sweep.
        let doubling = net.run_protocol(PathToClique::new).unwrap();
        let positions = establish(&net);
        let median = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let mine = (c.position == (c.vp.len - 1) / 2).then(|| rctx.id());
                    let (vp, contacts) = (c.vp, c.contacts.clone());
                    SweepStep::new(vp, contacts, c.position, &[], mine, |_, _| {})
                })
            })
            .unwrap();
        let pos_rounds = positions.metrics.rounds;
        let counts = positions.metrics.messages - doubling.metrics.messages;
        let med_rounds = median.metrics.rounds - positions.metrics.rounds;
        correct &= counts < n as u64;
        for (i, (_, ctx)) in positions.outputs.iter().enumerate() {
            correct &= ctx.position == i;
        }
        for (_, med) in &median.outputs {
            correct &= med.addr == Some(order[(n - 1) / 2]);
        }
        let total = (pos_rounds + med_rounds) as f64;
        ratios.push(total / lg(n));
        t.row(vec![
            n.to_string(),
            pos_rounds.to_string(),
            counts.to_string(),
            med_rounds.to_string(),
            f2(total / lg(n)),
            correct.to_string(),
        ]);
    }
    t.verdict(
        correct && ratios_flat(&ratios, 2.0),
        "every node learns its exact position (under n extra messages) and \
         the median ID; rounds/log n flat",
    );
    vec![t]
}

/// Theorem 3: sorting into a sorted path — paper `O(log³ n)`, ours
/// `O(log² n)` via the odd-even network.
pub fn t3_sort() -> Vec<Table> {
    let mut t = Table::new(
        "Theorem 3 — distributed sorting into a sorted path",
        &[
            "n",
            "rounds",
            "log2²(n)",
            "rounds/log²",
            "paper budget log³",
        ],
    );
    let mut ratios = Vec::new();
    let mut sorted_ok = true;
    for &n in SWEEP {
        let net = Network::new(n, Config::ncc0(3));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let (key, id) = (rctx.id() % 97, rctx.id());
                    let (vp, x) = (c.vp, c.position);
                    SortStep::new(vp, c.contacts.clone(), x, key, Order::Ascending, id)
                        .then(move |held, _| RankStep::new(vp, x, held))
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        let rounds = result.metrics.rounds - establish(&net).metrics.rounds;
        let mut by_rank: Vec<(usize, u64)> = result
            .outputs
            .iter()
            .map(|(id, sp)| (sp.rank, id % 97))
            .collect();
        by_rank.sort_unstable();
        sorted_ok &= by_rank.windows(2).all(|w| w[0].1 <= w[1].1);
        let ratio = rounds as f64 / (lg(n) * lg(n));
        ratios.push(ratio);
        t.row(vec![
            n.to_string(),
            rounds.to_string(),
            f2(lg(n) * lg(n)),
            f2(ratio),
            f2(lg(n).powi(3)),
        ]);
    }
    t.verdict(
        sorted_ok && ratios_flat(&ratios, 2.5),
        "keys sorted at every n; rounds/log² n flat — comfortably inside \
         the paper's O(log³ n) budget",
    );
    vec![t]
}

/// Theorem 4: global broadcast + aggregation in `O(log n)` rounds, as
/// the sweep over the shallow NAF tree of the contacts: exactly
/// `ops::rounds_for(n, cap)` rounds, at the default capacity twice the
/// tree's depth, at most `2(⌈⌈log₂ n⌉/2⌉ + 1)`, and `2(n - 1)` messages.
pub fn t4_aggregate() -> Vec<Table> {
    let mut t = Table::new(
        "Theorem 4 — global aggregation + broadcast (shallow sweep tree)",
        &[
            "n",
            "rounds",
            "messages",
            "log2(n)",
            "rounds/log2(n)",
            "sum correct",
        ],
    );
    let mut ratios = Vec::new();
    let mut correct = true;
    for &n in SWEEP {
        let net = Network::new(n, Config::ncc0(4));
        let want: u64 = net.ids_in_path_order().iter().map(|i| i % 64).sum();
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let (vp, contacts) = (c.vp, c.contacts.clone());
                    let value = [rctx.id() % 64];
                    SweepStep::new(vp, contacts, c.position, &value, None, |acc, x| {
                        acc[0] += x[0]
                    })
                })
            })
            .unwrap();
        let base = establish(&net).metrics;
        let rounds = result.metrics.rounds - base.rounds;
        let messages = result.metrics.messages - base.messages;
        let shallow = 2 * (dgr_primitives::levels_for(n).div_ceil(2) as u64 + 1);
        let cap = result.metrics.capacity;
        correct &= rounds == ops::rounds_for(n, cap) && rounds <= shallow;
        correct &= messages == 2 * (n as u64 - 1);
        correct &= result.outputs.iter().all(|(_, s)| s.words[0] == want);
        ratios.push(rounds as f64 / lg(n));
        t.row(vec![
            n.to_string(),
            rounds.to_string(),
            messages.to_string(),
            f2(lg(n)),
            f2(rounds as f64 / lg(n)),
            correct.to_string(),
        ]);
    }
    t.verdict(
        correct && ratios_flat(&ratios, 2.0),
        "every node learns the global aggregate in twice the sweep tree's \
         depth, at most 2(⌈⌈log₂ n⌉/2⌉ + 1) rounds, and 2(n - 1) messages; \
         rounds/log n flat",
    );
    vec![t]
}
