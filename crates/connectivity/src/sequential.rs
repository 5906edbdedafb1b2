//! Centralized baseline and bounds for threshold realization.
//!
//! The baseline mirrors the structure of Frank–Chou \[15\] (and of the
//! paper's Algorithm 6): sort by `ρ` non-increasing; the maximum node
//! connects to the next `d₀` nodes... — concretely we build the same
//! two-phase graph the distributed algorithm builds, giving the
//! experiments an apples-to-apples edge-count and quality reference.

use crate::ThresholdInstance;
use dgr_graph::Graph;

/// The universal lower bound on edges: every node `v` needs degree at
/// least `ρ(v)`, so any realization has `≥ ⌈Σρ/2⌉` edges.
pub fn edge_lower_bound(inst: &ThresholdInstance) -> usize {
    inst.sum().div_ceil(2)
}

/// Builds a centralized 2-approximate threshold realization over node
/// indices `0..n`: phase 1 realizes (an upper envelope of) the `ρ`-values
/// of the `d₀+1` largest-`ρ` nodes among themselves; phase 2 connects
/// every later node to its `ρ` sorted predecessors.
pub fn sequential_realization(inst: &ThresholdInstance) -> Graph {
    let n = inst.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(inst.rho[i]), i));
    let rho_at = |rank: usize| inst.rho[order[rank]];
    let d0 = if n > 0 { rho_at(0) } else { 0 };
    let prefix = (d0 + 1).min(n);

    let mut g = Graph::new(0..n as u64);
    // Phase 1: realize (ρ(x₁), …, ρ(x_{d0+1})) over the prefix — via
    // Havel–Hakimi on the prefix, envelope-style: saturated nodes accept
    // extra edges (sequential mirror of Theorem 13; duplicates skipped
    // because the graph is simple).
    let prefix_degrees: Vec<usize> = (0..prefix).map(rho_at).collect();
    sequential_envelope_into(&mut g, &order[..prefix], &prefix_degrees);

    // Phase 2: rank i ≥ d0+1 connects to its ρ sorted predecessors.
    for rank in prefix..n {
        let r = rho_at(rank);
        for back in 1..=r {
            let u = order[rank] as u64;
            let v = order[rank - back] as u64;
            let _ = g.add_edge(u, v); // ignore (rare) duplicates
        }
    }
    g
}

/// Sequential upper-envelope Havel–Hakimi over a node subset: satisfy the
/// maximum-remaining-degree node by connecting it to the next-highest
/// ones; when targets run out, reuse saturated nodes (envelope growth).
fn sequential_envelope_into(g: &mut Graph, nodes: &[usize], degrees: &[usize]) {
    let k = nodes.len();
    let mut rem: Vec<(usize, usize)> = degrees.iter().enumerate().map(|(i, &d)| (d, i)).collect();
    loop {
        rem.sort_unstable_by(|a, b| b.cmp(a));
        let (d, u) = rem[0];
        if d == 0 {
            break;
        }
        rem[0].0 = 0;
        let mut connected = 0;
        for other in rem.iter_mut().take(k).skip(1) {
            if connected == d {
                break;
            }
            let v = other.1;
            let (a, b) = (nodes[u] as u64, nodes[v] as u64);
            if g.add_edge(a, b).is_ok() {
                other.0 = other.0.saturating_sub(1);
                connected += 1;
            }
        }
        // Fewer than d simple-graph slots: the envelope (multigraph)
        // theory would add parallel edges; a simple graph just leaves u
        // slightly under target — acceptable for the baseline (the
        // distributed algorithm is what the experiments certify).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_thresholds;

    #[test]
    fn lower_bound_rounds_up() {
        assert_eq!(edge_lower_bound(&ThresholdInstance::new(vec![1, 1, 1])), 2);
        assert_eq!(edge_lower_bound(&ThresholdInstance::new(vec![2, 2, 2])), 3);
        assert_eq!(
            edge_lower_bound(&ThresholdInstance::new(vec![3, 1, 1, 1])),
            3
        );
    }

    #[test]
    fn sequential_baseline_meets_thresholds() {
        for rho in [
            vec![1usize, 1, 1, 1],
            vec![3, 3, 3, 3],
            vec![3, 2, 2, 1, 1, 1],
            vec![5, 4, 3, 2, 2, 1, 1, 1, 1, 1],
        ] {
            let inst = ThresholdInstance::new(rho.clone());
            let g = sequential_realization(&inst);
            let by_id: std::collections::BTreeMap<u64, usize> =
                (0..rho.len()).map(|i| (i as u64, rho[i])).collect();
            let report = check_thresholds(&g, &by_id, true);
            assert!(report.satisfied, "{rho:?}: {report:?}");
            // 2-approximation.
            assert!(g.edge_count() <= inst.sum(), "{rho:?}");
        }
    }
}
