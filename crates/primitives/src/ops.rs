//! Global computational primitives over the BBST: broadcast, distributive
//! aggregation (Theorem 4) and pipelined token collection (Theorem 5).
//!
//! All operations run on a [`VPath`] + [`Bbst`] pair in a fixed,
//! commonly-computable number of rounds.

use crate::bbst::sweep_rounds;
#[cfg(feature = "threaded")]
use crate::bbst::Bbst;
#[cfg(feature = "threaded")]
use crate::vpath::VPath;
#[cfg(feature = "threaded")]
use dgr_ncc::NodeId;
#[cfg(feature = "threaded")]
use dgr_ncc::{tags, Msg, NodeHandle};

/// Number of rounds for one root-to-leaves broadcast on a path of `len`.
pub fn broadcast_rounds(len: usize) -> u64 {
    sweep_rounds(len)
}

/// Number of rounds for one leaves-to-root aggregation on a path of `len`.
pub fn aggregate_rounds(len: usize) -> u64 {
    sweep_rounds(len)
}

/// Number of rounds for [`aggregate_broadcast`] / [`broadcast_word`] /
/// [`broadcast_addr`] / [`median`] on a path of `len` nodes (one up sweep +
/// one down sweep) — the Theorem 4 `O(log n)` bound made concrete.
pub fn rounds_for(len: usize) -> u64 {
    2 * sweep_rounds(len)
}

/// Pushes a value from the root down to every tree member. Only the root's
/// `value` matters (it must be `Some` there). Returns the value at every
/// member; non-members idle and return 0.
///
/// Rounds: exactly [`broadcast_rounds`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn broadcast_down(h: &mut NodeHandle, vp: &VPath, tree: &Bbst, value: Option<u64>) -> u64 {
    let rounds = broadcast_rounds(vp.len);
    if !vp.member {
        h.idle_quiet(rounds);
        return 0;
    }
    debug_assert_eq!(
        tree.is_root,
        value.is_some(),
        "only the root supplies a value"
    );
    let mut got = value;
    let mut sent = tree.is_root && tree.child_count() == 0;
    for _ in 0..rounds {
        let mut out = Vec::new();
        if let (Some(v), false) = (got, sent) {
            for child in [tree.left, tree.right].into_iter().flatten() {
                out.push((child, Msg::word(tags::BCAST, v)));
            }
            sent = true;
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::BCAST) {
            got = Some(env.word());
        }
    }
    got.expect("broadcast did not reach node")
}

/// Aggregates every member's `value` to the root with a distributive
/// aggregate function `op` (must be associative and commutative, e.g. sum,
/// max, min). Returns `Some(total)` at the root, `None` elsewhere.
///
/// Rounds: exactly [`aggregate_rounds`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn aggregate_up(
    h: &mut NodeHandle,
    vp: &VPath,
    tree: &Bbst,
    value: u64,
    op: impl Fn(u64, u64) -> u64,
) -> Option<u64> {
    let rounds = aggregate_rounds(vp.len);
    if !vp.member {
        h.idle_quiet(rounds);
        return None;
    }
    let mut acc = value;
    let mut pending = tree.child_count();
    let mut sent = false;
    for _ in 0..rounds {
        let mut out = Vec::new();
        if pending == 0 && !sent {
            if let Some(p) = tree.parent {
                out.push((p, Msg::word(tags::AGGREGATE, acc)));
            }
            sent = true;
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::AGGREGATE) {
            acc = op(acc, env.word());
            pending -= 1;
        }
    }
    debug_assert!(sent || tree.is_root, "aggregation did not finish");
    if tree.is_root {
        Some(acc)
    } else {
        None
    }
}

/// Aggregation followed by a broadcast of the result: every member learns
/// `op` over all members' values — the workhorse of Theorem 4.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn aggregate_broadcast(
    h: &mut NodeHandle,
    vp: &VPath,
    tree: &Bbst,
    value: u64,
    op: impl Fn(u64, u64) -> u64,
) -> u64 {
    let total = aggregate_up(h, vp, tree, value, op);
    broadcast_down(h, vp, tree, total)
}

/// Broadcasts a value held by (at most) one member to every member: the
/// holders' values are aggregated as "any present value" (ties: minimum) and
/// pushed back down. This implements "leader `ℓ` broadcasts a token" without
/// anyone needing to know where `ℓ` sits in the tree.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn broadcast_word(h: &mut NodeHandle, vp: &VPath, tree: &Bbst, value: Option<u64>) -> u64 {
    // Encode Option<u64> as (present, value): combiner keeps the smaller
    // present value. u64::MAX is the identity.
    let enc = value.unwrap_or(u64::MAX);
    let got = aggregate_broadcast(h, vp, tree, enc, u64::min);
    debug_assert_ne!(got, u64::MAX, "broadcast_word: no member held a value");
    got
}

/// Like [`broadcast_word`], but the value is a node *address*: it travels in
/// the message address field so that KT0 knowledge tracking sees every node
/// legitimately learn the broadcast ID.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn broadcast_addr(
    h: &mut NodeHandle,
    vp: &VPath,
    tree: &Bbst,
    value: Option<NodeId>,
) -> NodeId {
    let rounds = rounds_for(vp.len);
    if !vp.member {
        h.idle_quiet(rounds);
        return 0;
    }
    // Up sweep: forward any seen address to the parent once children have
    // reported (children may report "nothing" implicitly — we wait for all
    // children like an aggregation, with an explicit presence word).
    let mut acc: Option<NodeId> = value;
    let mut pending = tree.child_count();
    let mut sent = false;
    for _ in 0..sweep_rounds(vp.len) {
        let mut out = Vec::new();
        if pending == 0 && !sent {
            if let Some(p) = tree.parent {
                let msg = match acc {
                    Some(a) => Msg::addr(tags::AGGREGATE, a),
                    None => Msg::signal(tags::AGGREGATE),
                };
                out.push((p, msg));
            }
            sent = true;
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::AGGREGATE) {
            if let Some(&a) = env.msg.addrs.first() {
                acc = Some(match acc {
                    Some(b) => a.min(b),
                    None => a,
                });
            }
            pending -= 1;
        }
    }
    // Down sweep.
    let mut got = if tree.is_root {
        Some(acc.expect("broadcast_addr: no member held an address"))
    } else {
        None
    };
    let mut sent = tree.is_root && tree.child_count() == 0;
    for _ in 0..sweep_rounds(vp.len) {
        let mut out = Vec::new();
        if let (Some(a), false) = (got, sent) {
            for child in [tree.left, tree.right].into_iter().flatten() {
                out.push((child, Msg::addr(tags::BCAST, a)));
            }
            sent = true;
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::BCAST) {
            got = Some(env.addr());
        }
    }
    got.expect("broadcast_addr did not reach node")
}

/// Corollary 2 (second part): makes the median node's address common
/// knowledge. `position` is this node's path position from
/// [`crate::traversal::positions`].
///
/// Rounds: exactly [`rounds_for`]`(vp.len)`.
#[cfg(feature = "threaded")]
pub fn median(h: &mut NodeHandle, vp: &VPath, tree: &Bbst, position: usize) -> NodeId {
    let target = (vp.len - 1) / 2;
    let mine = (vp.member && position == target).then(|| h.id());
    broadcast_addr(h, vp, tree, mine)
}

/// Number of rounds for [`collect`] with `k_bound` tokens on a path of
/// `len` nodes, at per-round capacity `cap` — the Theorem 5
/// `O(k + log n)` bound made concrete.
pub fn collect_rounds(len: usize, k_bound: usize, cap: usize) -> u64 {
    let batch = (cap / 2).max(1) as u64;
    sweep_rounds(len) + (k_bound as u64).div_ceil(batch) + 2
}

/// Global collection (Theorem 5): every member holding a token sends it to
/// the root; the root returns the full list of `(origin, value)` pairs.
/// Tokens are pipelined up the tree in batches of `cap/2` per node per
/// round, so a parent receives at most `cap` per round from its two
/// children.
///
/// `k_bound` must be a commonly-known upper bound on the number of tokens
/// (callers typically obtain it by an [`aggregate_broadcast`] count first).
///
/// Rounds: exactly [`collect_rounds`]`(vp.len, k_bound, h.capacity())`.
#[cfg(feature = "threaded")]
pub fn collect(
    h: &mut NodeHandle,
    vp: &VPath,
    tree: &Bbst,
    token: Option<u64>,
    k_bound: usize,
) -> Vec<(NodeId, u64)> {
    let cap = h.capacity();
    let rounds = collect_rounds(vp.len, k_bound, cap);
    if !vp.member {
        h.idle_quiet(rounds);
        return Vec::new();
    }
    let batch = (cap / 2).max(1);
    let mut buffer: Vec<(NodeId, u64)> = Vec::new();
    if let Some(t) = token {
        buffer.push((h.id(), t));
    }
    let mut collected: Vec<(NodeId, u64)> = Vec::new();
    for _ in 0..rounds {
        let mut out = Vec::new();
        if let Some(p) = tree.parent {
            for (origin, value) in buffer.drain(..buffer.len().min(batch)) {
                out.push((p, Msg::addr_words(tags::COLLECT, origin, vec![value])));
            }
        }
        let inbox = h.step(out);
        for env in inbox.iter().filter(|e| e.msg.tag == tags::COLLECT) {
            let pair = (env.addr(), env.word());
            if tree.is_root {
                collected.push(pair);
            } else {
                buffer.push(pair);
            }
        }
    }
    if tree.is_root {
        // The root's own token, if any, never traveled.
        collected.append(&mut buffer);
        collected.sort_unstable();
    } else {
        debug_assert!(buffer.is_empty(), "collection round budget too small");
    }
    collected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::PathCtx;
    use crate::proto::ops::{AggBcastStep, BroadcastAddrStep, CollectStep};
    use crate::proto::{AggOp, WithCtx};
    use dgr_ncc::{Config, Network, RoundCtx};

    #[test]
    fn aggregate_broadcast_computes_global_sum_and_max() {
        let net = Network::new(50, Config::ncc0(11));
        let ids = net.ids_in_path_order().to_vec();
        let wants = [
            (AggOp::Sum, ids.iter().map(|i| i % 100).sum::<u64>()),
            (AggOp::Max, ids.iter().map(|i| i % 100).max().unwrap()),
        ];
        for (op, want) in wants {
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        AggBcastStep::new(ctx.vp, ctx.tree.clone(), rctx.id() % 100, op)
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean());
            assert!(result.outputs.iter().all(|(_, got)| *got == want), "{op:?}");
        }
    }

    #[test]
    fn broadcast_word_reaches_everyone_from_any_holder() {
        // "Leader broadcasts a token" without anyone knowing where the
        // leader sits in the tree: a minimum over (present) values, with
        // u64::MAX as the identity.
        let net = Network::new(33, Config::ncc0(12));
        let holder = net.ids_in_path_order()[17]; // arbitrary interior node
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let value = if rctx.id() == holder { 777 } else { u64::MAX };
                    AggBcastStep::new(ctx.vp, ctx.tree.clone(), value, AggOp::Min)
                })
            })
            .unwrap();
        assert!(result.outputs.iter().all(|(_, v)| *v == 777));
    }

    #[test]
    fn broadcast_addr_is_kt0_legal() {
        // The tail's ID becomes common knowledge; knowledge tracking is on,
        // so a clean run proves the address spread legally.
        let net = Network::new(40, Config::ncc0(13));
        let tail = *net.ids_in_path_order().last().unwrap();
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let value = (rctx.id() == tail).then_some(tail);
                    BroadcastAddrStep::new(ctx.vp, ctx.tree.clone(), value)
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        assert!(result.outputs.iter().all(|(_, v)| *v == tail));
    }

    #[test]
    fn median_is_common_knowledge() {
        for n in [1usize, 2, 9, 24, 31] {
            let net = Network::new(n, Config::ncc0(14));
            let order = net.ids_in_path_order().to_vec();
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let tree = ctx.tree.clone();
                        BroadcastAddrStep::median(ctx.vp, tree, ctx.position, rctx.id())
                    })
                })
                .unwrap();
            let want = order[(n - 1) / 2];
            assert!(
                result.outputs.iter().all(|(_, m)| *m == want),
                "n={n}: median mismatch"
            );
        }
    }

    #[test]
    fn collect_gathers_all_tokens_at_root() {
        let net = Network::new(60, Config::ncc0(15));
        let result = net
            .run_protocol(|_| {
                WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    // Every third position holds a token.
                    let token = ctx
                        .position
                        .is_multiple_of(3)
                        .then_some(ctx.position as u64);
                    let k_bound = 60usize.div_ceil(3);
                    CollectStep::new(ctx.vp, ctx.tree.clone(), token, k_bound, rctx.id())
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        let order = net.ids_in_path_order();
        let mut want: Vec<(u64, u64)> = (0..60)
            .filter(|p| p % 3 == 0)
            .map(|p| (order[p], p as u64))
            .collect();
        want.sort_unstable();
        // The root of the tree is the head of the path; only it collects.
        assert_eq!(result.outputs[0].1, want);
        assert!(result.outputs[1..].iter().all(|(_, got)| got.is_empty()));
    }

    #[test]
    fn theorem5_rounds_scale_linearly_in_k() {
        // collect_rounds is Θ(k/cap + log n): doubling k roughly doubles
        // the k-term.
        let cap = 8;
        let base = collect_rounds(256, 0, cap);
        let r1 = collect_rounds(256, 64, cap) - base;
        let r2 = collect_rounds(256, 128, cap) - base;
        assert_eq!(r1 * 2, r2);
    }
}
