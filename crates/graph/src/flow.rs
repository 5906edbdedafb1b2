//! Dinic max-flow and pairwise edge connectivity.
//!
//! Edge connectivity `Conn_G(u, v)` — the maximum number of edge-disjoint
//! `u`–`v` paths, by Menger's theorem equal to the minimum `u`–`v` edge cut
//! — is computed as max-flow in the graph with every undirected edge
//! modeled as two opposed unit-capacity arcs. This is the exact quantity
//! the connectivity-threshold realizations (Theorems 17/18) must certify:
//! `Conn_G(u, v) ≥ min(ρ(u), ρ(v))`.
//!
//! There is one kernel, [`Dinic::flow_up_to`]: a certificate only ever
//! asks whether `Conn ≥ need`, so the flow stops at `need` augmenting
//! paths instead of running to exhaustion, and everything else in this
//! module is that kernel with a particular limit.

use crate::graph::Graph;

/// A Dinic max-flow solver over one flat residual arena.
///
/// Arcs live in CSR order — node `u` owns `first[u]..first[u + 1]` — so a
/// scan of a node's arcs is one contiguous read of `to` and `cap`; `rev`
/// pairs each arc with its opposite. Every residual is 1 between queries
/// (an undirected unit edge is two opposed unit arcs), a query logs each
/// arc it pushes along and restores exactly those on the way out, and the
/// scratch arrays are stamped per phase rather than cleared: a query costs
/// what it touches, not `O(n + m)`, and allocates nothing once the undo
/// log has reached its longest query.
pub struct Dinic {
    /// CSR row offsets into the arc arrays (`n + 1` entries).
    first: Vec<u32>,
    /// Arc targets.
    to: Vec<u32>,
    /// The opposite arc of each arc.
    rev: Vec<u32>,
    /// Residual capacities: 1 at rest, 0 or 2 while a query holds flow.
    cap: Vec<u8>,
    /// `phase << 32 | BFS level`, valid only when stamped with the current
    /// phase — so "one level deeper in this phase's level graph" is the
    /// single comparison `label[v] == label[u] + 1`.
    label: Vec<u64>,
    /// Next arc each node tries in the current phase (reset on labelling).
    next: Vec<u32>,
    /// The current phase's stamp, `phase << 32`.
    phase: u64,
    /// BFS queue (at most `n` entries).
    queue: Vec<u32>,
    /// Arcs of the DFS path under construction (fewer than `n`).
    path: Vec<u32>,
    /// Undo log: every arc the running query pushed a unit along.
    pushed: Vec<u32>,
}

/// One phase in the units of [`Dinic::label`].
const PHASE: u64 = 1 << 32;

impl Dinic {
    /// Builds the flow network for an undirected graph with unit edge
    /// capacities: each edge becomes two opposed arcs of capacity 1
    /// (standard undirected-flow modeling: an edge can carry one unit in
    /// either direction, and the pairing makes residual updates correct).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` nodes or arcs (two per
    /// edge).
    pub fn from_graph(g: &Graph) -> Self {
        let (n, arcs) = (g.node_count(), 2 * g.edge_count());
        assert!(
            n.max(arcs) <= u32::MAX as usize,
            "node and arc indices are u32"
        );
        let mut first = Vec::with_capacity(n + 1);
        let mut end = 0u32;
        first.push(end);
        for u in 0..n {
            end += g.neighbors(u).len() as u32;
            first.push(end);
        }
        debug_assert_eq!(end as usize, arcs);
        let mut to = vec![0u32; arcs];
        let mut rev = vec![0u32; arcs];
        // `fill[u]` is the next free slot of `u`'s row; an edge claims one
        // slot at each endpoint, which is where the two arcs learn of
        // each other.
        let mut fill = first.clone();
        for u in 0..n {
            for &v in g.neighbors(u) {
                if u < v {
                    let (a, b) = (fill[u], fill[v]);
                    fill[u] += 1;
                    fill[v] += 1;
                    to[a as usize] = v as u32;
                    to[b as usize] = u as u32;
                    rev[a as usize] = b;
                    rev[b as usize] = a;
                }
            }
        }
        Dinic {
            first,
            to,
            rev,
            cap: vec![1; arcs],
            label: vec![0; n],
            next: vec![0; n],
            phase: 0,
            queue: Vec::with_capacity(n),
            path: Vec::with_capacity(n),
            pushed: Vec::with_capacity(arcs),
        }
    }

    /// Maximum `s`–`t` flow. Calls are independent: every query leaves
    /// the residuals as it found them.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        self.flow_up_to(s, t, usize::MAX) as i64
    }

    /// `min(Conn(s, t), limit)`: augments until `limit` edge-disjoint
    /// `s`–`t` paths are found or none is left. A result below `limit`
    /// is therefore the exact connectivity, and a result equal to it cost
    /// `limit` augmenting paths — no final search to prove exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn flow_up_to(&mut self, s: usize, t: usize, limit: usize) -> usize {
        assert_ne!(s, t, "max_flow endpoints must differ");
        // No flow exceeds either endpoint's degree, so reaching it is
        // also proof of exhaustion.
        let limit = limit.min(self.degree(s)).min(self.degree(t));
        let mut flow = 0;
        while flow < limit && self.label_until(s, t) {
            while flow < limit && self.augment(s, t) {
                flow += 1;
            }
        }
        for a in self.pushed.drain(..) {
            self.cap[a as usize] = 1;
            self.cap[self.rev[a as usize] as usize] = 1;
        }
        flow
    }

    fn degree(&self, u: usize) -> usize {
        (self.first[u + 1] - self.first[u]) as usize
    }

    /// Opens a new phase and BFS-labels the residual graph from `s`,
    /// stopping the moment `t` is labelled: every node nearer than `t`
    /// has its level by then, and those are all a shortest augmenting
    /// path can visit. Returns whether `t` was reached.
    fn label_until(&mut self, s: usize, t: usize) -> bool {
        self.phase = match self.phase.checked_add(PHASE) {
            Some(phase) => phase,
            None => {
                self.label.fill(0);
                PHASE
            }
        };
        self.queue.clear();
        self.label[s] = self.phase;
        self.next[s] = self.first[s];
        self.queue.push(s as u32);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let deeper = self.label[u] + 1;
            for a in self.first[u] as usize..self.first[u + 1] as usize {
                let v = self.to[a] as usize;
                if self.cap[a] > 0 && self.label[v] < self.phase {
                    self.label[v] = deeper;
                    self.next[v] = self.first[v];
                    if v == t {
                        return true;
                    }
                    self.queue.push(v as u32);
                }
            }
        }
        false
    }

    /// Depth-first search for one `s`–`t` path in the current level
    /// graph, on an explicit stack; pushes one unit along it and logs the
    /// arcs. `next` persists across the calls of a phase, so an arc found
    /// dead or saturated is never tried again.
    fn augment(&mut self, s: usize, t: usize) -> bool {
        self.path.clear();
        let mut u = s;
        while u != t {
            let deeper = self.label[u] + 1;
            let end = self.first[u + 1];
            while self.next[u] < end {
                let a = self.next[u] as usize;
                if self.cap[a] > 0 && self.label[self.to[a] as usize] == deeper {
                    break;
                }
                self.next[u] += 1;
            }
            if self.next[u] < end {
                let a = self.next[u];
                self.path.push(a);
                u = self.to[a as usize] as usize;
            } else if let Some(a) = self.path.pop() {
                // Dead end: step back and retire the arc that led here.
                u = self.to[self.rev[a as usize] as usize] as usize;
                self.next[u] += 1;
            } else {
                return false;
            }
        }
        for &a in &self.path {
            let r = self.rev[a as usize] as usize;
            self.cap[a as usize] -= 1;
            self.cap[r] += 1;
        }
        self.pushed.extend_from_slice(&self.path);
        true
    }
}

/// Exact edge connectivity between two node IDs (0 if either is missing or
/// they are disconnected).
pub fn edge_connectivity(g: &Graph, u: u64, v: u64) -> usize {
    let (Some(ui), Some(vi)) = (g.index_of(u), g.index_of(v)) else {
        return 0;
    };
    if ui == vi {
        return 0;
    }
    Dinic::from_graph(g).flow_up_to(ui, vi, usize::MAX)
}

/// Global edge connectivity: `min_u Conn(v0, u)` over a fixed `v0` (valid
/// because a global min cut separates `v0` from someone). Each flow is
/// capped at the minimum so far — it can only matter by undercutting it.
pub fn global_edge_connectivity(g: &Graph) -> usize {
    let n = g.node_count();
    if n <= 1 {
        return 0;
    }
    let mut dinic = Dinic::from_graph(g);
    (1..n).fold(usize::MAX, |min, t| dinic.flow_up_to(0, t, min))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_has_connectivity_one() {
        let g = Graph::from_edges(1..=4, [(1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 4), 1);
        assert_eq!(global_edge_connectivity(&g), 1);
    }

    #[test]
    fn cycle_has_connectivity_two() {
        let g = Graph::from_edges(1..=4, [(1, 2), (2, 3), (3, 4), (4, 1)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 3), 2);
        assert_eq!(global_edge_connectivity(&g), 2);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for u in 1..=5u64 {
            for v in (u + 1)..=5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(1..=5, edges).unwrap();
        for u in 1..=5u64 {
            for v in (u + 1)..=5 {
                assert_eq!(edge_connectivity(&g, u, v), 4);
            }
        }
        assert_eq!(global_edge_connectivity(&g), 4);
    }

    #[test]
    fn disconnected_pairs_have_zero() {
        let g = Graph::from_edges(1..=4, [(1, 2), (3, 4)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 3), 0);
        assert_eq!(global_edge_connectivity(&g), 0);
    }

    #[test]
    fn two_triangles_joined_by_a_bridge() {
        let g = Graph::from_edges(
            1..=6,
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)],
        )
        .unwrap();
        assert_eq!(edge_connectivity(&g, 1, 2), 2);
        assert_eq!(edge_connectivity(&g, 1, 6), 1); // through the bridge
        assert_eq!(global_edge_connectivity(&g), 1);
    }

    #[test]
    fn long_path_does_not_recurse() {
        // One augmenting path of 199 999 arcs: a DFS that recurses once
        // per arc overflows the thread's stack and aborts the process.
        let n = 200_000u64;
        let g = Graph::from_edges(0..n, (1..n).map(|v| (v - 1, v))).unwrap();
        assert_eq!(edge_connectivity(&g, 0, n - 1), 1);
    }

    #[test]
    fn matches_menger_on_star_plus_matching() {
        // Star on 0..=4 plus edges (1,2) and (3,4): Conn(1,2)=2 via the
        // direct edge and via the hub.
        let g = Graph::from_edges(0..=4, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 2), 2);
        assert_eq!(edge_connectivity(&g, 1, 3), 2);
    }
}
