//! Primitive round-complexity experiments (Theorems 1, 3, 4, 5 and
//! Corollary 2): measured rounds vs. the predicted growth along `n`
//! sweeps. Rounds here are *exact model quantities* reported by the
//! simulator, not wall-clock. A primitive's own round count is the
//! difference of two runs: the composition ending in it, and the same
//! composition without it.

use crate::experiments::ratios_flat;
use crate::table::{f2, Table};
use dgr_ncc::{Config, Network, NodeProtocol, RoundCtx, RunResult};
use dgr_primitives::bbst::{Bbst, BbstStep};
use dgr_primitives::contacts::ContactsStep;
use dgr_primitives::ctx::UndirectStep;
use dgr_primitives::ops::{AggBcastStep, BroadcastAddrStep, CollectStep};
use dgr_primitives::sort::{Order, RankStep, SortStep};
use dgr_primitives::{AggOp, EstablishCtx, PathCtx, Step, StepProtocol, WithCtx};
use std::sync::Arc;

/// Undirect, contacts, then Algorithm 1 — the establishment chain up to
/// (not including) the traversal.
pub(crate) fn bbst_protocol() -> impl NodeProtocol<Output = Arc<Bbst>> {
    StepProtocol::new(
        UndirectStep::new().then(|vp, _| {
            ContactsStep::new(vp).then(move |contacts, _| BbstStep::new(vp, contacts))
        }),
    )
}

/// The full context establishment, standalone.
fn establish(net: &Network) -> RunResult<PathCtx> {
    net.run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
        .unwrap()
}

const SWEEP: &[usize] = &[16, 32, 64, 128, 256, 512, 1024];

fn lg(n: usize) -> f64 {
    (n as f64).log2()
}

/// Theorem 1: BBST height ≤ ⌈log n⌉+1, construction rounds `O(log n)`.
pub fn t1_bbst() -> Vec<Table> {
    let mut t = Table::new(
        "Theorem 1 — balanced binary search tree construction",
        &[
            "n",
            "rounds",
            "log2(n)",
            "rounds/log2(n)",
            "max depth",
            "bound",
        ],
    );
    let mut ratios = Vec::new();
    let mut heights_ok = true;
    for &n in SWEEP {
        let net = Network::new(n, Config::ncc0(1));
        let result = net.run_protocol(|_| bbst_protocol()).unwrap();
        assert!(result.metrics.is_clean());
        let rounds = result.metrics.rounds;
        let depth = result.outputs.iter().map(|(_, b)| b.depth).max().unwrap();
        let bound = Bbst::depth_bound(n);
        heights_ok &= depth <= bound;
        let ratio = rounds as f64 / lg(n);
        ratios.push(ratio);
        t.row(vec![
            n.to_string(),
            rounds.to_string(),
            f2(lg(n)),
            f2(ratio),
            depth.to_string(),
            bound.to_string(),
        ]);
    }
    t.verdict(
        heights_ok && ratios_flat(&ratios, 2.0),
        "height within ⌈log n⌉+1 at every n; rounds/log n flat \
         (construction is Θ(log n) rounds)",
    );
    vec![t]
}

/// Corollary 2: positions + median in `O(log n)` rounds.
pub fn c2_positions() -> Vec<Table> {
    let mut t = Table::new(
        "Corollary 2 — path positions and median in O(log n) rounds",
        &[
            "n",
            "pos rounds",
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
        // Three runs, each one stage longer: tree, + positions, + median.
        let tree = net.run_protocol(|_| bbst_protocol()).unwrap();
        let positions = establish(&net);
        let median = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    BroadcastAddrStep::median(c.vp, c.tree.clone(), c.position, rctx.id())
                })
            })
            .unwrap();
        let pos_rounds = positions.metrics.rounds - tree.metrics.rounds;
        let med_rounds = median.metrics.rounds - positions.metrics.rounds;
        for (i, (_, ctx)) in positions.outputs.iter().enumerate() {
            correct &= ctx.position == i;
        }
        for (_, med) in &median.outputs {
            correct &= *med == order[(n - 1) / 2];
        }
        let total = (pos_rounds + med_rounds) as f64;
        ratios.push(total / lg(n));
        t.row(vec![
            n.to_string(),
            pos_rounds.to_string(),
            med_rounds.to_string(),
            f2(total / lg(n)),
            correct.to_string(),
        ]);
    }
    t.verdict(
        correct && ratios_flat(&ratios, 2.0),
        "every node learns its exact position and the median ID; \
         rounds/log n flat",
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

/// Theorem 4: global broadcast + aggregation in `O(log n)` rounds.
pub fn t4_aggregate() -> Vec<Table> {
    let mut t = Table::new(
        "Theorem 4 — global aggregation + broadcast",
        &["n", "rounds", "log2(n)", "rounds/log2(n)", "sum correct"],
    );
    let mut ratios = Vec::new();
    let mut correct = true;
    for &n in SWEEP {
        let net = Network::new(n, Config::ncc0(4));
        let want: u64 = net.ids_in_path_order().iter().map(|i| i % 64).sum();
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    AggBcastStep::new(c.vp, c.tree.clone(), rctx.id() % 64, AggOp::Sum)
                })
            })
            .unwrap();
        let rounds = result.metrics.rounds - establish(&net).metrics.rounds;
        correct &= result.outputs.iter().all(|(_, s)| *s == want);
        ratios.push(rounds as f64 / lg(n));
        t.row(vec![
            n.to_string(),
            rounds.to_string(),
            f2(lg(n)),
            f2(rounds as f64 / lg(n)),
            correct.to_string(),
        ]);
    }
    t.verdict(
        correct && ratios_flat(&ratios, 2.0),
        "every node learns the global aggregate; rounds/log n flat",
    );
    vec![t]
}

/// Theorem 5: global collection in `O(k + log n)` rounds — linear in `k`
/// at fixed `n`.
pub fn t5_collect() -> Vec<Table> {
    let n = 256;
    let mut t = Table::new(
        format!("Theorem 5 — global collection of k tokens (n = {n})"),
        &["k", "rounds", "k/cap + log2(n)", "ratio", "tokens at root"],
    );
    let mut ratios = Vec::new();
    let mut complete = true;
    for &k in &[8usize, 32, 64, 128, 255] {
        let net = Network::new(n, Config::ncc0(5));
        let cap = net.capacity();
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let token = (c.position > 0 && c.position <= k).then_some(c.position as u64);
                    CollectStep::new(c.vp, c.tree.clone(), token, k, rctx.capacity(), rctx.id())
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        let rounds = result.metrics.rounds - establish(&net).metrics.rounds;
        // The root of the tree is the head of the path; only it collects.
        let at_root = result.outputs[0].1.len();
        complete &= at_root == k;
        let budget = k as f64 / cap as f64 + lg(n);
        ratios.push(rounds as f64 / budget);
        t.row(vec![
            k.to_string(),
            rounds.to_string(),
            f2(budget),
            f2(rounds as f64 / budget),
            at_root.to_string(),
        ]);
    }
    t.verdict(
        complete && ratios_flat(&ratios, 3.0),
        "root receives all k tokens; rounds track k/cap + log n \
         (linear in k, as Theorem 5 predicts)",
    );
    vec![t]
}
