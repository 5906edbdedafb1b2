//! Drivers: run the distributed threshold realizations on simulated
//! networks, assemble the overlay, and certify it with max-flow.
//!
//! One driver, [`prepare_threshold`], runs the chosen construction's
//! state machine on the engine it is given; the differential suites
//! (`crates/connectivity/tests/`) hold the batched executor to the
//! reference interpreter, and both to the frozen transcripts.

use crate::distributed::{ncc0, ncc0_exact, ncc1, ThresholdOutcome};
use crate::verify::{check_thresholds, ThresholdReport};
use crate::ThresholdInstance;
use dgr_core::verify as core_verify;
use dgr_graph::Graph;
use dgr_ncc::{
    Config, EngineKind, Job, Model, Network, NodeId, NodeProtocol, NodeSeed, RunEvent, RunMetrics,
    SimError, Sink,
};
use std::collections::BTreeMap;

/// How many nodes at most get the full `O(n²)`-flow all-pairs check;
/// larger instances are certified along the anchor chain (`n − 1` flows;
/// see [`check_thresholds`]).
const ALL_PAIRS_LIMIT: usize = 24;

/// A certified threshold realization.
#[derive(Clone, Debug)]
pub struct ThresholdRealization {
    /// The realized overlay.
    pub graph: Graph,
    /// Requirement per node.
    pub rho: BTreeMap<NodeId, usize>,
    /// Node IDs in knowledge-path order.
    pub path_order: Vec<NodeId>,
    /// Explicit neighbor lists (NCC0 driver only; empty for NCC1).
    pub explicit_neighbors: BTreeMap<NodeId, Vec<NodeId>>,
    /// The max-flow certification report.
    pub report: ThresholdReport,
    /// Simulator metrics.
    pub metrics: RunMetrics,
}

/// Which threshold construction the engine room runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdAlgo {
    /// Theorem 17: the NCC1 star construction (`O~(1)` rounds; requires
    /// an NCC1 configuration; implicit overlay).
    Ncc1Star,
    /// Algorithm 6 / Theorem 18 with the default cyclic-pipeline phase 1
    /// (`O~(Δ)` rounds; explicit overlay).
    Ncc0Pipeline,
    /// Algorithm 6 **paper-exact**: phase 1 via the envelope realized on
    /// the prefix sub-path, plus the distinctness patch, phase-2 pipeline
    /// and explicitness acks — see
    /// [`crate::distributed::ncc0_exact`].
    Ncc0Exact,
}

/// The **engine room** of the threshold realizations — one typed entry
/// point over construction × engine, driven by the `dgr::Realization`
/// facade builder. The run comes back as a [`Job`] its caller steps (or
/// drives to the end with [`Job::drive`]): the network with the
/// requirements assigned along its knowledge path, the chosen
/// construction's run set up on it, and the overlay's assembly and
/// certification.
///
/// `certify = false` skips the max-flow certification (`n − 1` capped
/// flows — milliseconds at `n = 2048`, a fraction of a second at 10⁵);
/// the returned report is then marked `skipped` with
/// `pairs_checked == 0`.
///
/// # Errors
///
/// Propagates simulator errors, here and from stepping the job. An
/// explicit construction that loses edge symmetry (a protocol bug, not an
/// input condition) ends the job with [`SimError::Assembly`].
///
/// # Panics
///
/// Panics if `algo` is [`ThresholdAlgo::Ncc1Star`] and `config` is not an
/// NCC1 configuration.
pub fn prepare_threshold(
    inst: &ThresholdInstance,
    config: Config,
    algo: ThresholdAlgo,
    engine: EngineKind,
    certify: bool,
) -> Result<Job<ThresholdRealization>, SimError> {
    let net = Network::new(inst.len(), config);
    // The star is an implicit overlay: each edge is stored at its adding
    // endpoint. Algorithm 6 is explicit: both endpoints list every edge.
    match algo {
        ThresholdAlgo::Ncc1Star => {
            assert_eq!(net.model(), Model::Ncc1, "Theorem 17 requires NCC1");
            prepare(net, inst, engine, false, certify, ncc1::Ncc1Star::new)
        }
        ThresholdAlgo::Ncc0Pipeline => prepare(net, inst, engine, true, certify, |_, rho| {
            ncc0::Ncc0Threshold::new(rho)
        }),
        ThresholdAlgo::Ncc0Exact => prepare(net, inst, engine, true, certify, |_, rho| {
            ncc0_exact::Ncc0Exact::new(rho)
        }),
    }
}

/// [`prepare_threshold`] for one construction, built at each node by
/// `make` from its seed and requirement.
fn prepare<P>(
    net: Network,
    inst: &ThresholdInstance,
    engine: EngineKind,
    explicit: bool,
    certify: bool,
    make: impl Fn(&NodeSeed<'_>, usize) -> P,
) -> Result<Job<ThresholdRealization>, SimError>
where
    P: NodeProtocol<Output = ThresholdOutcome> + 'static,
{
    let by_id = net.assign_in_path_order(&inst.rho);
    let run = net.start(engine, |s| make(s, by_id[&s.id]))?;
    Ok(Job::new(run, move |net, result, sink| {
        certify_run(net, by_id, result, explicit, certify, sink)
    }))
}

/// Assembly + optional certification of a threshold run. The
/// certification narrates itself into the sink (driver-level events,
/// after the engine's `Done`).
fn certify_run(
    net: &Network,
    by_id: BTreeMap<NodeId, usize>,
    result: dgr_ncc::RunResult<ThresholdOutcome>,
    explicit: bool,
    certify: bool,
    sink: Option<&mut dyn Sink>,
) -> Result<ThresholdRealization, SimError> {
    let metrics = result.metrics.clone();
    let claims = result.outputs.into_iter().map(|(id, o)| (id, o.neighbors));
    let (assembled, explicit_neighbors) = if explicit {
        let lists: BTreeMap<NodeId, Vec<NodeId>> = claims.collect();
        let assembled = core_verify::assemble_explicit(net.ids_in_path_order(), &lists)
            .map_err(SimError::Assembly)?;
        (assembled, lists)
    } else {
        let assembled = core_verify::assemble_implicit(net.ids_in_path_order(), claims);
        (assembled, BTreeMap::new())
    };
    let report = run_certification(&assembled.graph, &by_id, certify, sink);
    Ok(ThresholdRealization {
        graph: assembled.graph,
        rho: by_id,
        path_order: net.ids_in_path_order().to_vec(),
        explicit_neighbors,
        report,
        metrics,
    })
}

/// Runs (or skips) the max-flow certification, narrating it into the
/// sink: `CertificationStarted` before the flows, `CertificationResult`
/// after. A skipped certification emits nothing — there is no event to
/// mistake for a verdict.
fn run_certification(
    graph: &Graph,
    by_id: &BTreeMap<NodeId, usize>,
    certify: bool,
    mut sink: Option<&mut dyn Sink>,
) -> ThresholdReport {
    if !certify {
        return skipped_report(graph);
    }
    if let Some(sink) = sink.as_mut() {
        sink.emit(&RunEvent::CertificationStarted { nodes: by_id.len() });
    }
    let report = check_thresholds(graph, by_id, by_id.len() <= ALL_PAIRS_LIMIT);
    if let Some(sink) = sink.as_mut() {
        sink.emit(&RunEvent::CertificationResult {
            satisfied: report.satisfied,
            pairs_checked: report.pairs_checked,
        });
    }
    report
}

/// A report marking the certification as skipped: `skipped` is set, so
/// the vacuous `satisfied` cannot be mistaken for a real verdict
/// ([`ThresholdReport::certified`] returns false).
fn skipped_report(graph: &Graph) -> ThresholdReport {
    ThresholdReport {
        satisfied: true,
        skipped: true,
        pairs_checked: 0,
        first_violation: None,
        edges: graph.edge_count(),
    }
}

/// Test fixture: one certified realization on the batched engine.
#[cfg(test)]
pub(crate) fn realize_for_test(
    inst: &ThresholdInstance,
    config: Config,
    algo: ThresholdAlgo,
) -> ThresholdRealization {
    prepare_threshold(inst, config, algo, EngineKind::Batched, true)
        .unwrap()
        .drive(None)
        .unwrap()
        .output
}

#[cfg(test)]
mod tests {
    use super::*;

    fn realize_ncc1(inst: &ThresholdInstance, config: Config) -> ThresholdRealization {
        realize_for_test(inst, config, ThresholdAlgo::Ncc1Star)
    }

    #[test]
    fn ncc1_driver_smoke() {
        let inst = ThresholdInstance::new(vec![2, 2, 1, 1, 1]);
        let out = realize_ncc1(&inst, Config::ncc1(55));
        assert!(out.report.satisfied);
        assert!(out.explicit_neighbors.is_empty());
    }

    #[test]
    fn ncc1_star_certifies_at_n_2000() {
        // 2k nodes, fully certified: n - 1 capped flows along the anchor
        // chain (tests/scale.rs certifies Algorithm 6 at 10^5 the same way).
        let n = 2_000;
        let inst = ThresholdInstance::new(vec![3; n]);
        let out = realize_ncc1(&inst, Config::ncc1(88));
        assert!(out.report.satisfied);
        assert!(out.metrics.is_clean());
        assert!(out.metrics.rounds <= 2 * 13);
    }

    #[test]
    #[should_panic(expected = "NCC1")]
    fn ncc1_driver_rejects_ncc0_config() {
        let inst = ThresholdInstance::new(vec![1, 1]);
        let _ = realize_ncc1(&inst, Config::ncc0(1));
    }
}
