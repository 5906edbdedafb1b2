//! The check that holds a degree realization to Algorithm 3's sequential
//! specification, `core::distributed::spec`. A test file includes it as
//! `#[path = "…/tests/support/spec.rs"] mod spec;`.

use dgr_core::distributed::{spec, Flavor};
use dgr_core::driver::DriverOutput;
use std::collections::BTreeMap;

/// Holds a run over `degrees` (one a position of the path) to the
/// sequential spec of Algorithm 3: its verdict and, when realized, its
/// overlay edge for edge through the path order — as a multiset where the
/// envelope may repeat an edge — and, when explicit, every node's
/// neighbour list.
pub fn assert_spec(case: &str, degrees: &[usize], flavor: Flavor, out: &DriverOutput) {
    let spec = spec(degrees, flavor);
    let DriverOutput::Realized(r) = out else {
        assert!(spec.verdict.is_err(), "{case}: the spec realizes");
        return;
    };
    assert!(spec.verdict.is_ok(), "{case}: the spec refuses");
    let at = |x: usize| r.path_order[x];
    let mut want: Vec<_> = (spec.edges.iter())
        .map(|&(a, b)| (at(a).min(at(b)), at(a).max(at(b))))
        .collect();
    want.sort_unstable();
    let mut degree = BTreeMap::new();
    for &(a, b) in &want {
        *degree.entry(a).or_insert(0) += 1;
        *degree.entry(b).or_insert(0) += 1;
    }
    let multi = r.multi_degrees.iter().filter(|&(_, &d)| d > 0);
    assert!(multi.eq(degree.iter()), "{case}: multiset degrees");
    want.dedup();
    assert_eq!(r.graph.edge_list(), want, "{case}: overlay");
    if flavor == Flavor::Explicit {
        for (&id, listed) in &r.explicit_neighbors {
            let mut listed = listed.clone();
            listed.sort_unstable();
            let mut adjacent = r.graph.neighbors_of(id);
            adjacent.sort_unstable();
            assert_eq!(listed, adjacent, "{case}: node {id}'s list");
        }
    }
}
