//! Driver: run a distributed tree realization on a simulated network and
//! assemble + verify the resulting tree.
//!
//! Engine note: one driver, [`prepare_tree`], runs the
//! [`RealizeTree`] state machine on the engine it is given — the **batched
//! executor** in production, practical at six-digit `n`
//! (`tests/scale.rs`); the reference interpreter in the differential suite
//! (`crates/trees/tests/batched_trees.rs`, which also holds both to the
//! frozen transcripts).

use crate::distributed::{RealizeTree, TreeOutcome};
use dgr_core::{verify, Unrealizable};
use dgr_graph::Graph;
use dgr_ncc::{Config, EngineKind, Job, Network, NodeId, RunMetrics, SimError};
use std::collections::BTreeMap;

/// Which tree construction to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeAlgo {
    /// Algorithm 4: chain the non-leaves (maximum diameter).
    Chain,
    /// Algorithm 5: the greedy tree `T_G` (minimum diameter).
    Greedy,
}

/// A realized tree overlay with its verification data.
#[derive(Clone, Debug)]
pub struct RealizedTree {
    /// The tree as a graph.
    pub graph: Graph,
    /// Its exact diameter.
    pub diameter: usize,
    /// Requested degree per node.
    pub requested: BTreeMap<NodeId, usize>,
    /// Node IDs in knowledge-path order.
    pub path_order: Vec<NodeId>,
    /// Simulator metrics.
    pub metrics: RunMetrics,
}

/// Outcome of a tree-realization run.
#[derive(Clone, Debug)]
pub enum TreeRealization {
    /// A tree was realized.
    Realized(Box<RealizedTree>),
    /// Every node reported the sequence non-tree-realizable.
    Unrealizable {
        /// Metrics of the refusing run.
        metrics: RunMetrics,
    },
}

impl TreeRealization {
    /// Unwraps the realized tree, panicking otherwise.
    pub fn expect_realized(&self) -> &RealizedTree {
        match self {
            TreeRealization::Realized(t) => t,
            TreeRealization::Unrealizable { .. } => {
                panic!("expected a tree, got UNREALIZABLE")
            }
        }
    }

    /// Did the run (correctly) refuse the sequence?
    pub fn is_unrealizable(&self) -> bool {
        matches!(self, TreeRealization::Unrealizable { .. })
    }
}

/// Assembly + verification of a tree-realization run. A verdict the nodes
/// split on, or an overlay that is not a tree (a crash mid-run can leave
/// one), is `SimError::Assembly`.
fn assemble(
    net: &Network,
    by_id: BTreeMap<NodeId, usize>,
    result: dgr_ncc::RunResult<Result<TreeOutcome, Unrealizable>>,
) -> Result<TreeRealization, SimError> {
    let (metrics, n) = (result.metrics, result.outputs.len());
    let stored: Vec<_> = result
        .outputs
        .into_iter()
        .filter_map(|(id, r)| Some((id, r.ok()?.neighbors)))
        .collect();
    if stored.len() < n {
        if !stored.is_empty() {
            let why = format!(
                "inconsistent refusal: {} of {n} nodes refused",
                n - stored.len()
            );
            return Err(SimError::Assembly(why));
        }
        return Ok(TreeRealization::Unrealizable { metrics });
    }
    let assembled = verify::assemble_implicit(net.ids_in_path_order(), stored);
    if assembled.duplicate_edges > 0 {
        let why = format!("tree with {} duplicate edges", assembled.duplicate_edges);
        return Err(SimError::Assembly(why));
    }
    let graph = assembled.graph;
    if !graph.is_tree() {
        let (nodes, edges) = (graph.node_count(), graph.edge_count());
        let why = format!("the overlay is not a tree ({edges} edges on {nodes} nodes)");
        return Err(SimError::Assembly(why));
    }
    // Double BFS is exact on trees and O(n) — all-pairs BFS would make
    // six-digit realizations driver-bound.
    // Cannot fire: `is_tree` above holds the graph non-empty and connected.
    let diameter = dgr_graph::tree_diameter(&graph).expect("tree is connected");
    Ok(TreeRealization::Realized(Box::new(RealizedTree {
        diameter,
        requested: by_id,
        path_order: net.ids_in_path_order().to_vec(),
        metrics,
        graph,
    })))
}

/// The **engine room** of the tree realizations (Algorithms 4 and 5) —
/// one typed entry point over algorithm × engine,
/// driven by the `dgr::Realization` facade builder. `degrees[i]` is
/// assigned to the `i`-th node of the knowledge path. The run comes back
/// as a [`Job`] its caller steps (or drives to the end with
/// [`Job::drive`]), with the tree's assembly and verification.
///
/// Either [`EngineKind`] runs the same state machine; transcripts are
/// identical (`crates/trees/tests/batched_trees.rs`). The sink each step
/// is given receives the run's typed [`RunEvent`](dgr_ncc::RunEvent)
/// stream (`None` = unobserved).
///
/// # Errors
///
/// Propagates simulator errors, here and from stepping the job; a run
/// whose overlay is not a tree ends in `SimError::Assembly`.
pub fn prepare_tree(
    degrees: &[usize],
    config: Config,
    algo: TreeAlgo,
    engine: EngineKind,
) -> Result<Job<TreeRealization>, SimError> {
    let net = Network::new(degrees.len(), config);
    let by_id = net.assign_in_path_order(degrees);
    let run = net.start(engine, None, |s| RealizeTree::new(by_id[&s.id], algo))?;
    Ok(Job::new(run, move |net, result, _| {
        assemble(net, by_id, result)
    }))
}

/// Test fixture: one realization on the batched engine.
#[cfg(test)]
pub(crate) fn realize_tree(degrees: &[usize], config: Config, algo: TreeAlgo) -> TreeRealization {
    prepare_tree(degrees, config, algo, EngineKind::Batched)
        .unwrap()
        .drive(None)
        .unwrap()
        .output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_verifies_degrees() {
        let degrees = vec![2, 2, 1, 1];
        for algo in [TreeAlgo::Chain, TreeAlgo::Greedy] {
            let out = realize_tree(&degrees, Config::ncc0(90), algo);
            let t = out.expect_realized();
            verify::degrees_match(&t.graph, &t.requested).unwrap();
        }
    }

    /// Runs `assemble` on hand-made outputs of a 3-node network.
    fn assemble_outputs(
        outputs: impl Fn(&[NodeId]) -> Vec<Result<Vec<NodeId>, Unrealizable>>,
    ) -> Result<TreeRealization, SimError> {
        let net = Network::new(3, Config::ncc0(88));
        let ids = net.ids_in_path_order().to_vec();
        let by_id = ids.iter().map(|&id| (id, 1)).collect();
        let outputs = ids.iter().zip(outputs(&ids)).map(|(&id, r)| {
            let outcome = r.map(|neighbors| TreeOutcome {
                requested: 1,
                neighbors,
            });
            (id, outcome)
        });
        let result = dgr_ncc::RunResult {
            outputs: outputs.collect(),
            metrics: RunMetrics::default(),
            engine: Default::default(),
        };
        assemble(&net, by_id, result)
    }

    #[test]
    fn a_split_refusal_is_an_assembly_error() {
        let out = assemble_outputs(|_| vec![Ok(vec![]), Err(Unrealizable), Err(Unrealizable)]);
        let Err(SimError::Assembly(why)) = out else {
            panic!("a split refusal was accepted");
        };
        assert!(why.contains("inconsistent refusal: 2 of 3"), "{why}");
        let out = assemble_outputs(|_| vec![Err(Unrealizable); 3]);
        assert!(out.unwrap().is_unrealizable());
    }

    #[test]
    fn a_duplicate_tree_edge_is_an_assembly_error() {
        // Both endpoints store the edge between the first two nodes.
        let out = assemble_outputs(|ids| vec![Ok(vec![ids[1]]), Ok(vec![ids[0]]), Ok(vec![])]);
        let Err(SimError::Assembly(why)) = out else {
            panic!("a duplicate edge was accepted");
        };
        assert_eq!(why, "tree with 1 duplicate edges");
    }

    #[test]
    fn a_forest_is_an_assembly_error() {
        // One edge on three nodes: no duplicate, but not connected.
        let out = assemble_outputs(|ids| vec![Ok(vec![ids[1]]), Ok(vec![]), Ok(vec![])]);
        let Err(SimError::Assembly(why)) = out else {
            panic!("a forest was accepted");
        };
        assert_eq!(why, "the overlay is not a tree (1 edges on 3 nodes)");
    }

    #[test]
    fn single_node_tree() {
        let out = realize_tree(&[0], Config::ncc0(89), TreeAlgo::Greedy);
        let t = out.expect_realized();
        assert_eq!(t.diameter, 0);
        assert_eq!(t.graph.edge_count(), 0);
    }
}
