//! Drivers: wire a degree sequence onto a simulated NCC network, run a
//! distributed realization, and re-assemble + sanity-check the output.
//!
//! Degrees are assigned to nodes by knowledge-path position: `degrees[i]`
//! goes to the `i`-th node of `G_k`. (The algorithms themselves never use
//! path positions as input — assignment order is just bookkeeping.)
//!
//! Engine note: one driver, [`prepare_degrees`], runs the protocol —
//! context establishment keyed by the degrees, then the [`DegreesCore`]
//! phase loop over the full path — on the engine it is given: the **batched executor** in
//! production, practical at six-digit `n` (`tests/scale.rs`); the
//! reference interpreter in the differential suites
//! (`crates/core/tests/batched_drivers.rs`, which also holds both to the
//! frozen transcripts).

use crate::distributed::{DegreesCore, Flavor};
use crate::verify::{self, Assembled};
use dgr_graph::Graph;
use dgr_ncc::{Config, EngineKind, Job, Network, NodeId, RoundCtx, RunMetrics, SimError};
use dgr_primitives::{PathCtx, WithCtx};
use std::collections::BTreeMap;

/// A realized overlay together with everything needed to verify it.
#[derive(Clone, Debug)]
pub struct RealizedOutput {
    /// The overlay as a simple graph.
    pub graph: Graph,
    /// Multiset degrees (duplicates counted; equals simple degrees on all
    /// exact runs).
    pub multi_degrees: BTreeMap<NodeId, usize>,
    /// Requested degree per node.
    pub requested: BTreeMap<NodeId, usize>,
    /// Node IDs in knowledge-path order (position `i` requested
    /// `degrees[i]`).
    pub path_order: Vec<NodeId>,
    /// Explicit-mode only: each node's full claimed neighbor list.
    pub explicit_neighbors: BTreeMap<NodeId, Vec<NodeId>>,
    /// Duplicate edge claims (multigraph bookkeeping; 0 in exact mode).
    pub duplicate_edges: usize,
    /// Algorithm 3 phase count (the Lemma 10 quantity).
    pub phases: u64,
    /// Simulator metrics (rounds, messages, capacity compliance).
    pub metrics: RunMetrics,
}

/// Outcome of a driver run: realized, or correctly refused.
#[derive(Clone, Debug)]
pub enum DriverOutput {
    /// The sequence was realized.
    Realized(Box<RealizedOutput>),
    /// Every node reported `UNREALIZABLE`.
    Unrealizable {
        /// Metrics of the refusing run.
        metrics: RunMetrics,
    },
}

impl DriverOutput {
    /// Unwraps the realized output, panicking (with context) otherwise.
    pub fn expect_realized(&self) -> &RealizedOutput {
        match self {
            DriverOutput::Realized(r) => r,
            DriverOutput::Unrealizable { .. } => {
                panic!("expected a realization, got UNREALIZABLE")
            }
        }
    }

    /// Did the run (correctly) refuse the sequence?
    pub fn is_unrealizable(&self) -> bool {
        matches!(self, DriverOutput::Unrealizable { .. })
    }

    /// The run metrics, whichever way it ended.
    pub fn metrics(&self) -> &RunMetrics {
        match self {
            DriverOutput::Realized(r) => &r.metrics,
            DriverOutput::Unrealizable { metrics } => metrics,
        }
    }
}

/// Checks that either every node realized or every node refused; returns
/// the per-node successes or `None` for a (consistent) refusal, and
/// [`SimError::Assembly`] when the nodes disagree.
fn split_consistent<T>(
    outputs: Vec<(NodeId, Result<T, crate::distributed::Unrealizable>)>,
) -> Result<Option<Vec<(NodeId, T)>>, SimError> {
    let n = outputs.len();
    let successes: Vec<_> = outputs
        .into_iter()
        .filter_map(|(id, r)| Some((id, r.ok()?)))
        .collect();
    match successes.len() {
        0 if n > 0 => Ok(None),
        k if k == n => Ok(Some(successes)),
        k => Err(SimError::Assembly(format!(
            "nodes disagree about realizability: {} of {n} refused",
            n - k
        ))),
    }
}

/// The **engine room** of every degree-sequence realization — one typed
/// entry point over workload flavor × engine, handed back as a [`Job`]
/// its caller steps (or drives to the end with [`Job::drive`]): the
/// network with the degrees assigned along its knowledge path, the
/// engine run set up on it, and the overlay's assembly.
/// This is what the `dgr::Realization` facade builder drives.
///
/// Either [`EngineKind`] runs the same state machine; transcripts are
/// identical (`crates/core/tests/batched_drivers.rs`).
///
/// # Errors
///
/// Propagates simulator errors (model violations, round-limit), here and
/// from stepping the job. The sink each step is given receives the run's
/// typed [`RunEvent`](dgr_ncc::RunEvent) stream (`None` runs unobserved);
/// both engines emit semantically identical streams.
pub fn prepare_degrees(
    degrees: &[usize],
    config: Config,
    flavor: Flavor,
    engine: EngineKind,
) -> Result<Job<DriverOutput>, SimError> {
    let net = Network::new(degrees.len(), config);
    let by_id = net.assign_in_path_order(degrees);
    let run = net.start(engine, |s| {
        let degree = by_id[&s.id];
        WithCtx::keyed(degree as u64, move |ctx: &PathCtx, _: &mut RoundCtx<'_>| {
            DegreesCore::new(degree, flavor, ctx.clone())
        })
    })?;
    let explicit = flavor == Flavor::Explicit;
    Ok(Job::new(run, move |net, result, _| {
        assemble(net, by_id, result, explicit)
    }))
}

/// Assembles a run's outputs into the realized overlay.
fn assemble(
    net: &Network,
    requested: BTreeMap<NodeId, usize>,
    result: dgr_ncc::RunResult<Result<crate::distributed::ImplicitOutcome, crate::Unrealizable>>,
    explicit: bool,
) -> Result<DriverOutput, SimError> {
    let metrics = result.metrics;
    let Some(outs) = split_consistent(result.outputs)? else {
        return Ok(DriverOutput::Unrealizable { metrics });
    };
    let phases = outs.first().map(|(_, o)| o.phases).unwrap_or(0);
    let members = net.ids_in_path_order().to_vec();
    let claims = outs.into_iter().map(|(id, o)| (id, o.neighbors));
    let (assembled, explicit_neighbors): (Assembled, _) = if explicit {
        let lists: BTreeMap<NodeId, Vec<NodeId>> = claims.collect();
        let assembled = verify::assemble_explicit(&members, &lists).map_err(SimError::Assembly)?;
        (assembled, lists)
    } else {
        (verify::assemble_implicit(&members, claims), BTreeMap::new())
    };
    Ok(DriverOutput::Realized(Box::new(RealizedOutput {
        graph: assembled.graph,
        multi_degrees: assembled.multi_degrees,
        requested,
        path_order: members,
        explicit_neighbors,
        duplicate_edges: assembled.duplicate_edges,
        phases,
        metrics,
    })))
}

/// Test fixture: one realization on the batched engine.
#[cfg(test)]
pub(crate) fn realize_for_test(degrees: &[usize], config: Config, flavor: Flavor) -> DriverOutput {
    prepare_degrees(degrees, config, flavor, EngineKind::Batched)
        .unwrap()
        .drive(None)
        .unwrap()
        .output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_driver_end_to_end() {
        let degrees = vec![2, 2, 1, 1];
        let out = realize_for_test(&degrees, Config::ncc0(41), Flavor::Implicit);
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 3);
        verify::degrees_match(&g.graph, &g.requested).unwrap();
        assert!(g.metrics.is_clean());
        assert!(g.phases >= 1);
    }

    #[test]
    fn a_split_verdict_is_an_assembly_error() {
        use crate::distributed::Unrealizable;
        let refused = |id| (id, Err(Unrealizable));
        let split = split_consistent(vec![(1, Ok(())), refused(2), refused(3)]);
        let Err(SimError::Assembly(why)) = split else {
            panic!("a split verdict was accepted: {split:?}");
        };
        assert!(why.contains("2 of 3 refused"), "{why}");
        let refusal = split_consistent::<()>(vec![refused(1), refused(2)]);
        assert!(matches!(refusal, Ok(None)), "{refusal:?}");
        let realized = split_consistent(vec![(1, Ok(()))]);
        assert!(
            matches!(&realized, Ok(Some(v)) if v == &[(1, ())]),
            "{realized:?}"
        );
    }

    #[test]
    fn metrics_accessible_on_refusal() {
        let out = realize_for_test(&[1, 1, 1], Config::ncc0(42), Flavor::Implicit);
        assert!(out.is_unrealizable());
        assert!(out.metrics().rounds > 0);
    }
}
