//! Differential determinism tests for the assembly/verification surface.
//!
//! The driver-output maps (`multi_degrees`, `requested`,
//! `explicit_neighbors`) and the claim map inside
//! [`dgr_core::verify::assemble_explicit`] moved from `HashMap` to
//! `BTreeMap` so that everything downstream of an iteration — `Graph`
//! adjacency-list order, blame messages, duplicate accounting — is a
//! function of the claims alone, never of a per-process hash seed. These
//! tests pin that property differentially: the same logical input, fed in
//! scrambled construction orders and across repeated runs, must reproduce
//! bit-identical outputs.

use dgr_core::distributed::Flavor;
use dgr_core::driver::{prepare_degrees, DriverOutput, RealizedOutput};
use dgr_core::verify::{assemble_explicit, degrees_match};
use dgr_graph::Graph;
use dgr_ncc::{Config, EngineKind, NodeId};
use std::collections::BTreeMap;

/// Batched-engine realization.
fn realize_batched(degrees: &[usize], config: Config, flavor: Flavor) -> DriverOutput {
    prepare_degrees(degrees, config, flavor, EngineKind::Batched)
        .unwrap()
        .drive(None)
        .map(|run| run.output)
        .unwrap()
}

/// Everything order-sensitive that assembly produces, flattened for
/// comparison. `neighbor_lists` keeps the *adjacency order* (not a sorted
/// view): it is exactly the artifact hash-order used to scramble.
#[derive(Debug, PartialEq, Eq)]
struct AssemblyFingerprint {
    edge_list: Vec<(NodeId, NodeId)>,
    neighbor_lists: Vec<(NodeId, Vec<NodeId>)>,
    multi_degrees: Vec<(NodeId, usize)>,
    duplicate_edges: usize,
}

fn fingerprint(graph: &Graph, multi: &BTreeMap<NodeId, usize>, dups: usize) -> AssemblyFingerprint {
    AssemblyFingerprint {
        edge_list: graph.edge_list(),
        neighbor_lists: graph
            .ids()
            .iter()
            .map(|&id| (id, graph.neighbors_of(id)))
            .collect(),
        multi_degrees: multi.iter().map(|(&k, &v)| (k, v)).collect(),
        duplicate_edges: dups,
    }
}

fn realized_fingerprint(out: &RealizedOutput) -> AssemblyFingerprint {
    fingerprint(&out.graph, &out.multi_degrees, out.duplicate_edges)
}

/// A small symmetric claim set over sparse 64-bit IDs: a 4-cycle plus a
/// chord and a pendant, the kind of overlay explicit realizations emit.
fn claim_set() -> (Vec<NodeId>, Vec<(NodeId, Vec<NodeId>)>) {
    let nodes = vec![3, 11, 400, 7_000, 52_001];
    let lists = vec![
        (3, vec![11, 400, 7_000]),
        (11, vec![3, 400]),
        (400, vec![7_000, 3, 11]),
        (7_000, vec![400, 3, 52_001]),
        (52_001, vec![7_000]),
    ];
    (nodes, lists)
}

#[test]
fn explicit_assembly_ignores_claim_construction_order() {
    let (nodes, lists) = claim_set();
    let forward: BTreeMap<NodeId, Vec<NodeId>> = lists.iter().cloned().collect();
    let reversed: BTreeMap<NodeId, Vec<NodeId>> = lists.iter().rev().cloned().collect();
    let a = assemble_explicit(&nodes, &forward).unwrap();
    let b = assemble_explicit(&nodes, &reversed).unwrap();
    let fa = fingerprint(&a.graph, &a.multi_degrees, a.duplicate_edges);
    let fb = fingerprint(&b.graph, &b.multi_degrees, b.duplicate_edges);
    assert_eq!(fa, fb, "assembly depends on map construction order");
    // The adjacency order itself must be canonical (claims sorted by
    // (min, max) endpoint), not merely stable: pin it explicitly.
    assert_eq!(
        fa.neighbor_lists[0],
        (3, vec![11, 400, 7_000]),
        "adjacency push order is not the sorted claim order"
    );
}

#[test]
fn asymmetry_blame_is_the_smallest_offending_edge() {
    // Two asymmetric claims; the reported one must be the (min, max)
    // smallest regardless of construction order, because the claim map
    // iterates in key order.
    let nodes = vec![1, 2, 9];
    for build_order in [
        [(9, vec![2]), (1, vec![2]), (2, vec![])],
        [(1, vec![2]), (2, vec![]), (9, vec![2])],
    ] {
        let lists: BTreeMap<NodeId, Vec<NodeId>> = build_order.into_iter().collect();
        let err = assemble_explicit(&nodes, &lists).unwrap_err();
        assert!(
            err.contains("(1, 2)"),
            "blame should name the smallest asymmetric edge, got: {err}"
        );
    }
}

#[test]
fn degree_mismatch_blame_is_the_smallest_node_id() {
    let g = Graph::from_edges([1, 2, 3], [(1, 2)]).unwrap();
    // Two mismatches (nodes 2 and 3); blame must land on node 2.
    let requested: BTreeMap<NodeId, usize> = [(1, 1), (2, 5), (3, 5)].into();
    let err = degrees_match(&g, &requested).unwrap_err();
    assert!(
        err.starts_with("node 2:"),
        "blame should be the first mismatch in ID order, got: {err}"
    );
}

#[test]
fn repeated_runs_reassemble_bit_identically() {
    // Same seed, same sequence, run twice end to end: every order-bearing
    // artifact of the driver output must match exactly — including the
    // raw adjacency order that pre-migration flowed through a HashMap.
    let degrees = vec![3, 3, 2, 2, 2, 1, 1, 1, 1, 2];
    for seed in [7, 41] {
        let a = realize_batched(&degrees, Config::ncc0(seed), Flavor::Implicit)
            .expect_realized()
            .clone();
        let b = realize_batched(&degrees, Config::ncc0(seed), Flavor::Implicit)
            .expect_realized()
            .clone();
        assert_eq!(
            realized_fingerprint(&a),
            realized_fingerprint(&b),
            "implicit driver output differs across identical runs (seed {seed})"
        );
        assert_eq!(a.path_order, b.path_order);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }
}

#[test]
fn explicit_driver_neighbor_lists_are_reproducible() {
    let degrees = vec![2, 2, 2, 1, 1];
    let a = realize_batched(&degrees, Config::ncc0(23), Flavor::Explicit)
        .expect_realized()
        .clone();
    let b = realize_batched(&degrees, Config::ncc0(23), Flavor::Explicit)
        .expect_realized()
        .clone();
    assert_eq!(realized_fingerprint(&a), realized_fingerprint(&b));
    // The per-node claimed lists are maps now; their iteration must agree
    // entry for entry (keys *and* claimed-neighbor order).
    let av: Vec<_> = a.explicit_neighbors.iter().collect();
    let bv: Vec<_> = b.explicit_neighbors.iter().collect();
    assert_eq!(av, bv, "explicit neighbor claims differ across runs");
}
