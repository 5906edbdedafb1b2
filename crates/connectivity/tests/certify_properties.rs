//! The anchor-chain certificate against the all-pairs oracle: on random
//! `(graph, ρ)` instances — satisfied and violated, connected and not —
//! `check_thresholds(.., false)` must reach the oracle's verdict from
//! exactly `n − 1` flows, and whatever violation either mode reports
//! must be a real one with its exact connectivity.

use dgr_connectivity::{check_thresholds, ThresholdReport};
use dgr_graph::{connected_components, edge_connectivity, Graph};
use rand::Rng;
use std::collections::BTreeMap;

#[path = "../../../tests/support/cases.rs"]
mod cases;

fn assert_violation_is_real(
    g: &Graph,
    rho: &BTreeMap<u64, usize>,
    r: &ThresholdReport,
    what: &str,
) {
    assert_eq!(r.satisfied, r.first_violation.is_none(), "{what}");
    assert!(!r.skipped, "{what}");
    if let Some((u, v, need, got)) = r.first_violation {
        assert_eq!(need, rho[&u].min(rho[&v]), "{what}");
        assert_eq!(got, edge_connectivity(g, u, v), "{what}");
        assert!(got < need, "{what}");
    }
}

#[test]
fn anchor_chain_verdict_equals_all_pairs_oracle() {
    let mut rng = cases::case_rng(concat!(module_path!(), "::verdicts"));
    let (cases, mut satisfied, mut disconnected, mut isolated) = (1200u64, 0, 0, 0);
    for case in 0..cases {
        // Sparse-to-dense graphs under low-to-high requirements: the two
        // sweeps are coprime, so every density meets every ceiling.
        let (density, ceiling) = (1 + case % 7, 1 + case % 4);
        // Mostly tiny; every fifth instance is large enough for chains of
        // anchors several links deep.
        let n = if case % 5 == 0 {
            rng.gen_range(11u64..=32)
        } else {
            rng.gen_range(2u64..=10)
        };
        // Scattered ids in shuffled insertion order, so neither id order
        // nor dense-index order coincides with the `(ρ, id)` order.
        let mut ids: Vec<u64> = (0..n)
            .map(|i| i * 1000 + rng.gen_range(0u64..1000))
            .collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut g = Graph::new(ids.iter().copied());
        for (i, j) in (0..ids.len()).flat_map(|i| (i + 1..ids.len()).map(move |j| (i, j))) {
            if rng.gen_range(0u64..8) < density {
                g.add_edge(ids[i], ids[j]).unwrap();
            }
        }
        // Every tenth instance also requires something of a node the
        // graph does not have (connectivity 0 to everyone).
        let stranger = (case % 10 == 9).then_some(u64::MAX);
        let rho: BTreeMap<u64, usize> = ids
            .iter()
            .copied()
            .chain(stranger)
            .map(|id| (id, rng.gen_range(0..=ceiling as usize)))
            .collect();
        let what = format!("case {case}: rho {rho:?} on {:?}", g.edge_list());

        let chain = check_thresholds(&g, &rho, false);
        let oracle = check_thresholds(&g, &rho, true);
        assert_eq!(chain.satisfied, oracle.satisfied, "{what}");
        assert_eq!(chain.pairs_checked, rho.len() - 1, "{what}");
        assert_eq!(
            oracle.pairs_checked,
            rho.len() * (rho.len() - 1) / 2,
            "{what}"
        );
        assert_violation_is_real(&g, &rho, &chain, &what);
        assert_violation_is_real(&g, &rho, &oracle, &what);

        satisfied += u64::from(chain.satisfied);
        disconnected += u64::from(connected_components(&g).len() > 1);
        isolated += u64::from(ids.iter().any(|&id| g.degree_of(id) == 0));
    }
    // Both verdicts well represented, and the no-anchor fallback (a
    // newcomer whose component holds no certified node) well exercised.
    let violated = cases - satisfied;
    assert!(satisfied * 10 >= cases, "{satisfied} satisfied of {cases}");
    assert!(violated * 10 >= cases, "{violated} violated of {cases}");
    assert!(disconnected * 10 >= cases, "{disconnected} disconnected");
    assert!(isolated * 10 >= cases, "{isolated} with an isolated vertex");
}
