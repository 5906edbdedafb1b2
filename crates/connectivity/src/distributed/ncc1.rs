//! Theorem 17: `O~(1)`-round *implicit* threshold realization in NCC1.
//!
//! 1. Find the maximum-`ρ` node `w` (data aggregation) and broadcast its
//!    address.
//! 2. Every node `v ≠ w` locally picks `X_v ∋ w` of size `ρ(v)` from the
//!    globally known ID list and outputs `X_v × {v}` — zero additional
//!    rounds, since NCC1 nodes already know every address.
//!
//! Correctness: `(v,w)` plus `(v, x, w)` for the other `x ∈ X_v` are
//! `ρ(v)` edge-disjoint `v`–`w` paths (every `x` also connected to `w`),
//! and Menger lifts `Conn(v₁, v₂) ≥ min(ρ(v₁), ρ(v₂))` to all pairs.
//! Edges: `Σ_{v≠w} ρ(v) ≤ Σρ ≤ 2·OPT`.
//!
//! [`Ncc1Star`] is the construction, with NCC1-native aggregation
//! machinery: instead of building a `PathCtx`, the protocol aggregates
//! `(ρ, ID)` over the **rank tree** — the binary-heap ordering of the
//! globally known sorted ID list, where rank `r`'s parent is rank
//! `(r-1)/2`. Every node computes its own rank locally (NCC1 makes the
//! sorted list common knowledge), so the tree needs zero rounds to build;
//! the up-aggregation and down-broadcast each take `⌊log2 n⌋` rounds with
//! at most 2 messages per node per round.
//!
//! `w` is the smallest-ID maximizer of `ρ`, `X_v` is `w` plus the first
//! `ρ(v) - 1` other IDs of the sorted list; the overlays this choice
//! realizes are frozen in `crates/connectivity/tests/batched_ncc0.rs`.

use super::ThresholdOutcome;
use dgr_ncc::{tags, NodeId, NodeProtocol, NodeSeed, RoundCtx, Status, WireMsg};
use std::sync::Arc;

/// Up-aggregation payload: (best ρ so far, its smallest ID).
const TAG_AGG_UP: u16 = tags::USER_BASE + 40;
/// Down-broadcast payload: the global (max ρ, hub ID).
const TAG_AGG_DOWN: u16 = tags::USER_BASE + 41;

/// Depth of rank `r` in the binary-heap rank tree.
fn depth(rank: usize) -> u32 {
    usize::BITS - 1 - (rank + 1).leading_zeros()
}

/// Rounds the protocol takes on `n` nodes: one up pass and one down pass
/// over the rank tree (0 for `n = 1`).
pub fn rounds_for(n: usize) -> u64 {
    2 * depth(n - 1) as u64
}

/// The NCC1 star construction at one node.
#[derive(Debug)]
pub struct Ncc1Star {
    /// This node's requirement `ρ(v)`.
    rho: usize,
    /// The globally known sorted ID list.
    all_ids: Arc<Vec<NodeId>>,
    /// My rank in the sorted list.
    rank: usize,
    /// Deepest rank's depth (the up phase takes this many rounds).
    max_depth: u32,
    /// Running aggregate: smallest ID among the largest-ρ nodes seen.
    best: (u64, NodeId),
    /// The global result, once known.
    global: Option<(u64, NodeId)>,
}

impl Ncc1Star {
    /// Builds the protocol for one node with requirement `rho`.
    ///
    /// # Panics
    ///
    /// Panics under NCC0 (the construction needs the global ID list).
    pub fn new(seed: &NodeSeed<'_>, rho: usize) -> Self {
        let all_ids = Arc::clone(seed.all_ids());
        let rank = all_ids
            .binary_search(&seed.id)
            .expect("own ID missing from the global list");
        // The rank tree spans the *participants* (the global list), which
        // under a masked run is smaller than the network's n.
        let max_depth = depth(all_ids.len() - 1);
        Ncc1Star {
            rho,
            rank,
            max_depth,
            best: (rho as u64, seed.id),
            all_ids,
            global: None,
        }
    }

    /// Folds one candidate into the running (max ρ, min ID) aggregate.
    fn fold(&mut self, rho: u64, id: NodeId) {
        if rho > self.best.0 || (rho == self.best.0 && id < self.best.1) {
            self.best = (rho, id);
        }
    }

    /// Child ranks of `rank` that exist in the participant rank tree.
    fn children(&self) -> impl Iterator<Item = usize> {
        let r = self.rank;
        let participants = self.all_ids.len();
        [2 * r + 1, 2 * r + 2]
            .into_iter()
            .filter(move |&c| c < participants)
    }

    /// The final outcome once the hub is known.
    fn outcome(&self, my_id: NodeId, w: NodeId) -> ThresholdOutcome {
        let mut outcome = ThresholdOutcome {
            rho: self.rho,
            neighbors: Vec::new(),
        };
        if my_id != w {
            // X_v: w plus the first ρ(v)-1 other IDs from the global list
            // (the frozen overlays pin this choice).
            outcome.neighbors.push(w);
            outcome.neighbors.extend(
                self.all_ids
                    .iter()
                    .copied()
                    .filter(|&x| x != my_id && x != w)
                    .take(self.rho.saturating_sub(1)),
            );
        }
        outcome
    }
}

impl NodeProtocol for Ncc1Star {
    type Output = ThresholdOutcome;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<ThresholdOutcome> {
        let round = ctx.round();
        let d = depth(self.rank);

        // Fold in whatever arrived: child aggregates during the up phase,
        // the global result during the down phase.
        for env in ctx.inbox() {
            match env.msg.tag {
                TAG_AGG_UP => {
                    let (rho, id) = (env.word(), env.addr());
                    self.fold(rho, id);
                }
                TAG_AGG_DOWN => {
                    self.global = Some((env.word(), env.addr()));
                }
                _ => {}
            }
        }

        // Up phase: depth-d nodes send their aggregate at round
        // `max_depth - d`; the root just finishes aggregating.
        if self.rank > 0 && round == (self.max_depth - d) as u64 {
            let parent = self.all_ids[(self.rank - 1) / 2];
            let (rho, id) = self.best;
            ctx.send(parent, WireMsg::addr_word(TAG_AGG_UP, id, rho));
            return Status::Continue;
        }

        // The root turns its aggregate into the global result.
        if self.rank == 0 && round == self.max_depth as u64 {
            self.global = Some(self.best);
        }

        // Down phase: on learning the global result, forward it to the
        // children (if any) in this node's designated round, then retire.
        if let Some((max_rho, w)) = self.global {
            if round == (self.max_depth + d) as u64 {
                let mut has_children = false;
                for c in self.children() {
                    has_children = true;
                    let child = self.all_ids[c];
                    ctx.send(child, WireMsg::addr_word(TAG_AGG_DOWN, w, max_rho));
                }
                if has_children {
                    // Participate in the round that carries the forwards;
                    // the outcome is emitted on the next step.
                    return Status::Continue;
                }
            }
            return Status::Done(self.outcome(ctx.id(), w));
        }

        Status::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{realize_for_test, ThresholdAlgo};
    use crate::ThresholdInstance;
    use dgr_ncc::{Config, EngineKind, Network};
    use std::collections::HashMap;

    fn run(rho: Vec<usize>, seed: u64) -> dgr_ncc::RunResult<ThresholdOutcome> {
        let net = Network::new(rho.len(), Config::ncc1(seed));
        let by_id: HashMap<NodeId, usize> = net
            .ids_in_path_order()
            .iter()
            .copied()
            .zip(rho.iter().copied())
            .collect();
        net.run_protocol(|s| Ncc1Star::new(s, by_id[&s.id]))
            .unwrap()
    }

    #[test]
    fn hub_is_smallest_id_maximizer() {
        let rho = vec![2, 4, 4, 1, 3];
        let result = run(rho.clone(), 31);
        assert!(result.metrics.is_clean());
        // Reconstruct the expected hub.
        let order = result.gk_order();
        let max = 4;
        let w = order
            .iter()
            .zip(&rho)
            .filter(|(_, &r)| r == max)
            .map(|(&id, _)| id)
            .min()
            .unwrap();
        // Every non-hub node's first neighbor is the hub; the hub itself
        // outputs no edges.
        for (id, out) in &result.outputs {
            if *id == w {
                assert!(out.neighbors.is_empty());
            } else {
                assert_eq!(out.neighbors[0], w);
                assert_eq!(out.neighbors.len(), rho_of(&order, &rho, *id).min(4));
            }
        }
    }

    fn rho_of(order: &[NodeId], rho: &[usize], id: NodeId) -> usize {
        rho[order.iter().position(|&x| x == id).unwrap()]
    }

    #[test]
    fn rounds_are_logarithmic_and_independent_of_delta() {
        let small = run(vec![2; 32], 62);
        let large = run(vec![20; 32], 62);
        assert_eq!(small.metrics.rounds, large.metrics.rounds);
        assert_eq!(small.metrics.rounds, rounds_for(32));
    }

    #[test]
    fn masked_run_spans_only_participants() {
        // 20 network slots, 13 participants: the rank tree must be sized
        // from the participant list, not the full network.
        let n = 20;
        let net = Network::new(n, Config::ncc1(41));
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let order = net.ids_in_path_order().to_vec();
        let rho: HashMap<NodeId, usize> = order
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, 1 + i % 3))
            .collect();
        let result = net
            .run_protocol_on(EngineKind::Batched, Some(&mask), None, |s| {
                Ncc1Star::new(s, rho[&s.id])
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.outputs.len(), 13);
        // Hub: smallest-ID participant among the rho-maximizers.
        let max = result.outputs.iter().map(|(id, _)| rho[id]).max().unwrap();
        let w = result
            .outputs
            .iter()
            .filter(|(id, _)| rho[id] == max)
            .map(|(id, _)| *id)
            .min()
            .unwrap();
        for (id, out) in &result.outputs {
            if *id == w {
                assert!(out.neighbors.is_empty());
            } else {
                assert_eq!(out.neighbors[0], w);
                // Edges only to participants.
                assert!(out
                    .neighbors
                    .iter()
                    .all(|x| result.outputs.iter().any(|(p, _)| p == x)));
            }
        }
    }

    #[test]
    fn single_node_realizes_trivially() {
        let result = run(vec![1], 1);
        // A single node cannot need edges (ρ < n is enforced upstream; we
        // pass 1 here to exercise the degenerate tree).
        assert!(result.outputs[0].1.neighbors.is_empty());
    }

    #[test]
    fn star_realization_meets_thresholds_and_2approx() {
        for rho in [
            vec![1usize, 1, 1, 1, 1],
            vec![3, 3, 3, 3],
            vec![4, 3, 2, 2, 1, 1, 1, 1],
        ] {
            let inst = ThresholdInstance::new(rho.clone());
            let out = realize_for_test(&inst, Config::ncc1(61), ThresholdAlgo::Ncc1Star);
            assert!(out.report.satisfied, "{rho:?}: {:?}", out.report);
            assert!(
                out.graph.edge_count() <= inst.sum(),
                "{rho:?}: {} edges > Σρ",
                out.graph.edge_count()
            );
            assert!(out.metrics.is_clean());
        }
    }
}
