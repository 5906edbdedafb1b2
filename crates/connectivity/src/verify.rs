//! Max-flow certification of threshold realizations: by Menger's theorem,
//! `Conn_G(u, v)` equals the maximum number of edge-disjoint `u`–`v`
//! paths, which Dinic computes exactly — and is min-transitive
//! (`Conn(a, c) ≥ min(Conn(a, b), Conn(b, c))`), so `n − 1` well-chosen
//! flows certify all `n(n − 1)/2` requirements.

use dgr_graph::{Dinic, Graph};
use std::collections::BTreeMap;

/// Node identifier (matches `dgr_ncc::NodeId`).
type NodeId = u64;

/// The result of checking a realization against its thresholds.
#[derive(Clone, Debug)]
pub struct ThresholdReport {
    /// Were all checked pairs satisfied? **Vacuously true when the
    /// certification was skipped** — check [`ThresholdReport::certified`]
    /// (or `skipped`) before trusting it.
    pub satisfied: bool,
    /// True when the max-flow certification was skipped entirely
    /// (`certify(false)`): no pair was checked and `satisfied` carries no
    /// information.
    pub skipped: bool,
    /// Number of pairs checked.
    pub pairs_checked: usize,
    /// The first violated pair in check order, if any: `(u, v, required,
    /// actual)` — always a requirement that genuinely fails, with its
    /// exact connectivity. All-pairs mode checks in id order; the anchor
    /// chain checks each node, in descending `(ρ, id)`, against its
    /// anchor (see [`check_thresholds`]).
    pub first_violation: Option<(NodeId, NodeId, usize, usize)>,
    /// Edge count of the realization.
    pub edges: usize,
}

impl ThresholdReport {
    /// True when the certification actually ran and every checked pair
    /// held — the assertion-safe reading of `satisfied`.
    pub fn certified(&self) -> bool {
        !self.skipped && self.satisfied
    }
}

/// Verifies `Conn_G(u, v) ≥ min(ρ(u), ρ(v))`.
///
/// With `all_pairs = true`, every pair is flow-checked (`O(n²)` flows —
/// the small-instance oracle). Otherwise `n − 1` pairs are, along an
/// **anchor chain**: the nodes are taken in descending `(ρ, id)`, and
/// each newcomer `v` is flow-checked against its *anchor* — the nearest
/// node already taken, or the top node when none is reachable — for
/// `ρ(v)` edge-disjoint paths. If every link holds, induction along the
/// chain gives `Conn(top, v) ≥ ρ(v)` for all `v`
/// (`Conn(top, v) ≥ min(Conn(top, anchor), Conn(anchor, v))` by Menger,
/// and `ρ(anchor) ≥ ρ(v)`), hence every pair through `top`; and a link
/// that fails is itself a violated requirement, so both modes return the
/// same `satisfied`. ARCHITECTURE.md, *Certification*, has the argument
/// in full.
///
/// A `ρ` key that is not a vertex of `g` has connectivity 0 to everyone
/// (as [`dgr_graph::edge_connectivity`] defines it): its pair is counted
/// and violated unless it requires nothing.
pub fn check_thresholds(
    g: &Graph,
    rho: &BTreeMap<NodeId, usize>,
    all_pairs: bool,
) -> ThresholdReport {
    let mut report = ThresholdReport {
        satisfied: true,
        skipped: false,
        pairs_checked: 0,
        first_violation: None,
        edges: g.edge_count(),
    };
    if rho.len() < 2 {
        return report;
    }
    let mut dinic = Dinic::from_graph(g);
    // A requirement asks only whether `Conn ≥ need`, so the flow is
    // capped there; a capped result below `need` is the exact `Conn`.
    let mut check = |u: NodeId, v: NodeId, report: &mut ThresholdReport| {
        let need = rho[&u].min(rho[&v]);
        let got = match (g.index_of(u), g.index_of(v)) {
            (Some(ui), Some(vi)) => dinic.flow_up_to(ui, vi, need),
            _ => 0,
        };
        report.pairs_checked += 1;
        if got < need && report.first_violation.is_none() {
            report.satisfied = false;
            report.first_violation = Some((u, v, need, got));
        }
    };
    if all_pairs {
        let ids: Vec<NodeId> = rho.keys().copied().collect();
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                check(ids[i], ids[j], &mut report);
            }
        }
    } else {
        let mut order: Vec<(usize, NodeId)> = rho.iter().map(|(&id, &r)| (r, id)).collect();
        order.sort_unstable_by(|a, b| b.cmp(a));
        let top = order[0].1;
        let mut chain = AnchorChain::new(g);
        chain.admit(top);
        for &(_, v) in &order[1..] {
            // The flow starts at the newcomer: its `ρ` — on a realized
            // overlay, its degree — is the smaller, so the search front
            // stays narrow.
            check(v, chain.anchor_of(v).unwrap_or(top), &mut report);
            chain.admit(v);
        }
    }
    report
}

/// The nodes the anchor chain has taken so far, with the scratch of its
/// nearest-member search.
struct AnchorChain<'g> {
    g: &'g Graph,
    /// Per dense index: [`AnchorChain::TAKEN`] for a member, else the
    /// number of the last search that visited the node.
    mark: Vec<usize>,
    /// The running search's number (`mark` starts at 0: never visited).
    search: usize,
    queue: Vec<usize>,
}

impl<'g> AnchorChain<'g> {
    const TAKEN: usize = usize::MAX;

    fn new(g: &'g Graph) -> Self {
        AnchorChain {
            g,
            mark: vec![0; g.node_count()],
            search: 0,
            queue: Vec::new(),
        }
    }

    /// Takes `id` into the chain (a non-vertex can anchor nobody).
    fn admit(&mut self, id: NodeId) {
        if let Some(i) = self.g.index_of(id) {
            self.mark[i] = Self::TAKEN;
        }
    }

    /// The member nearest to `id`: a BFS over `Graph::neighbors` order
    /// that stops at the first member it sees. `None` when `id`'s
    /// component holds no member, or `id` is not a vertex.
    fn anchor_of(&mut self, id: NodeId) -> Option<NodeId> {
        let from = self.g.index_of(id)?;
        self.search += 1;
        self.mark[from] = self.search;
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &v in self.g.neighbors(u) {
                if self.mark[v] == Self::TAKEN {
                    return Some(self.g.id_of(v));
                }
                if self.mark[v] != self.search {
                    self.mark[v] = self.search;
                    self.queue.push(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_satisfies_rho_two() {
        let g = Graph::from_edges(0..4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let rho: BTreeMap<u64, usize> = (0..4).map(|i| (i, 2)).collect();
        let r = check_thresholds(&g, &rho, true);
        assert!(r.satisfied);
        assert_eq!(r.pairs_checked, 6);
    }

    #[test]
    fn path_fails_rho_two() {
        let g = Graph::from_edges(0..3, [(0, 1), (1, 2)]).unwrap();
        let rho: BTreeMap<u64, usize> = (0..3).map(|i| (i, 2)).collect();
        let r = check_thresholds(&g, &rho, true);
        assert!(!r.satisfied);
        let (_, _, need, got) = r.first_violation.unwrap();
        assert_eq!((need, got), (2, 1));
    }

    #[test]
    fn hub_mode_agrees_with_all_pairs_here() {
        let g = Graph::from_edges(0..5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]).unwrap();
        let mut rho: BTreeMap<u64, usize> = (1..5).map(|i| (i, 2)).collect();
        rho.insert(0, 4);
        assert!(check_thresholds(&g, &rho, true).satisfied);
        assert!(check_thresholds(&g, &rho, false).satisfied);
    }

    #[test]
    fn rho_key_outside_the_graph_is_a_violation_not_a_panic() {
        let g = Graph::from_edges(0..3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut rho: BTreeMap<u64, usize> = (0..3).map(|i| (i, 2)).collect();
        rho.insert(99, 1);
        for all_pairs in [false, true] {
            let r = check_thresholds(&g, &rho, all_pairs);
            assert!(!r.satisfied);
            assert_eq!(r.pairs_checked, if all_pairs { 6 } else { 3 });
            let (u, v, need, got) = r.first_violation.unwrap();
            assert!(u == 99 || v == 99, "({u}, {v})");
            assert_eq!((need, got), (1, 0));
        }
        // A stranger that requires nothing violates nothing.
        rho.insert(99, 0);
        assert!(check_thresholds(&g, &rho, false).satisfied);
        assert!(check_thresholds(&g, &rho, true).satisfied);
    }
}
