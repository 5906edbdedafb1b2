//! The flow kernel against two oracles that share no code with it: on
//! graphs small enough to enumerate every cut, `Dinic` must return the
//! minimum cut (Menger), be symmetric, honour its limit exactly, and
//! leave no trace of one query in the next; on banded graphs — long
//! augmenting paths, several phases, dead ends to back out of — it must
//! agree with an adjacency-matrix Edmonds–Karp.

use dgr_graph::{edge_connectivity, global_edge_connectivity, Dinic, Graph};
use rand::Rng;

#[path = "../../../tests/support/cases.rs"]
mod cases;

/// The minimum, over every vertex set containing `s` but not `t`, of the
/// number of edges leaving it.
fn brute_force_min_cut(g: &Graph, s: usize, t: usize) -> usize {
    let n = g.node_count();
    (0u32..1 << n)
        .filter(|side| side >> s & 1 == 1 && side >> t & 1 == 0)
        .map(|side| {
            (0..n)
                .filter(|&u| side >> u & 1 == 1)
                .flat_map(|u| g.neighbors(u))
                .filter(|&&v| side >> v & 1 == 0)
                .count()
        })
        .min()
        .unwrap()
}

#[test]
fn kernel_matches_brute_force_min_cut_and_honours_its_limit() {
    let mut rng = cases::case_rng(concat!(module_path!(), "::brute_force"));
    let mut positive = 0;
    for case in 0..300u64 {
        // Edge density sweeps from 1/8 (isolated vertices, several
        // components) to 7/8 (near-cliques).
        let (n, density) = (rng.gen_range(2u64..=9), 1 + case % 7);
        let mut g = Graph::new(0..n);
        for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
            if rng.gen_range(0u64..8) < density {
                g.add_edge(u, v).unwrap();
            }
        }
        // One solver for the whole case: every answer below is checked
        // against the oracle, so a residual that leaked from an earlier
        // query — capped ones stop mid-phase — would show.
        let mut dinic = Dinic::from_graph(&g);
        let mut global = usize::MAX;
        let n = n as usize;
        for (s, t) in (0..n).flat_map(|s| (0..n).map(move |t| (s, t))) {
            if s == t {
                continue;
            }
            let what = format!("case {case}: {s}->{t} in {:?}", g.edge_list());
            let cut = brute_force_min_cut(&g, s, t);
            assert_eq!(dinic.max_flow(s, t), cut as i64, "{what}");
            assert_eq!(dinic.max_flow(t, s), cut as i64, "{what}");
            for k in 0..=cut + 2 {
                assert_eq!(dinic.flow_up_to(s, t, k), cut.min(k), "limit {k}, {what}");
            }
            assert_eq!(dinic.max_flow(s, t), cut as i64, "after capped, {what}");
            assert_eq!(edge_connectivity(&g, s as u64, t as u64), cut, "{what}");
            global = global.min(cut);
            positive += usize::from(cut > 0);
        }
        assert_eq!(global_edge_connectivity(&g), global, "case {case}");
    }
    assert!(positive > 1000, "the draws must not all be disconnected");
}

/// Edmonds–Karp on an `n × n` residual matrix: shortest augmenting paths,
/// one unit at a time, nothing shared with the kernel under test.
fn matrix_max_flow(g: &Graph, s: usize, t: usize) -> usize {
    let n = g.node_count();
    let mut residual = vec![vec![0u8; n]; n];
    for (u, row) in residual.iter_mut().enumerate() {
        for &v in g.neighbors(u) {
            row[v] = 1;
        }
    }
    let mut flow = 0;
    loop {
        let mut parent = vec![usize::MAX; n];
        parent[s] = s;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for v in 0..n {
                if residual[u][v] > 0 && parent[v] == usize::MAX {
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if parent[t] == usize::MAX {
            return flow;
        }
        let mut v = t;
        while v != s {
            let u = parent[v];
            residual[u][v] -= 1;
            residual[v][u] += 1;
            v = u;
        }
        flow += 1;
    }
}

#[test]
fn kernel_matches_edmonds_karp_on_banded_graphs() {
    let mut rng = cases::case_rng(concat!(module_path!(), "::banded"));
    let mut longest = 0;
    for case in 0..60 {
        // A path with chords up to `band` positions ahead, thinned at
        // random: the shape of a realized threshold overlay, where the
        // far pairs are dozens of hops apart and a flow takes several
        // phases of ever longer paths.
        let (n, band) = (rng.gen_range(20u64..=48), rng.gen_range(1u64..=4));
        let mut g = Graph::new(0..n);
        for (u, v) in (0..n).flat_map(|u| (u + 1..=u + band).map(move |v| (u, v))) {
            if v < n && rng.gen_range(0u64..10) < 8 {
                g.add_edge(u, v).unwrap();
            }
        }
        let mut dinic = Dinic::from_graph(&g);
        let n = n as usize;
        for _ in 0..40 {
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s == t {
                continue;
            }
            let want = matrix_max_flow(&g, s, t);
            let limit = rng.gen_range(0..=want + 1);
            let what = format!("case {case}: {s}->{t} in {:?}", g.edge_list());
            assert_eq!(dinic.flow_up_to(s, t, limit), want.min(limit), "{what}");
            assert_eq!(dinic.max_flow(s, t), want as i64, "{what}");
            if want > 0 {
                longest = longest.max(s.abs_diff(t) / band as usize);
            }
        }
    }
    assert!(
        longest >= 10,
        "no long augmenting path was drawn: {longest}"
    );
}
