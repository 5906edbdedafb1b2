//! Drivers: wire a degree sequence onto a simulated NCC network, run a
//! distributed realization, and re-assemble + sanity-check the output.
//!
//! Degrees are assigned to nodes by knowledge-path position: `degrees[i]`
//! goes to the `i`-th node of `G_k`. (The algorithms themselves never use
//! path positions as input — assignment order is just bookkeeping.)
//!
//! Engine note: every realization has two drivers. The `*_batched`
//! functions run the [`RealizeDegrees`](crate::distributed::proto)
//! state machine on the **batched executor** — the production path,
//! practical at six-digit `n` (`tests/scale.rs`). The plain functions run
//! the direct-style closures on the threaded oracle (feature `threaded`,
//! on by default) and serve as the differential twins: both paths realize
//! the same overlay in the same number of rounds
//! (`crates/core/tests/batched_drivers.rs`).

use crate::distributed::proto::{Flavor, RealizeDegrees};
#[cfg(feature = "threaded")]
use crate::distributed::{approx, explicit, implicit};
use crate::verify::{self, Assembled};
use dgr_graph::Graph;
use dgr_ncc::{Config, EngineKind, EngineStats, Network, NodeId, RunMetrics, SimError, Sink};
use dgr_primitives::sort::SortBackend;
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

fn degree_assignment(net: &Network, degrees: &[usize]) -> BTreeMap<NodeId, usize> {
    net.assign_in_path_order(degrees)
}

fn finish(
    net: &Network,
    degrees: &[usize],
    assembled: Assembled,
    explicit_neighbors: BTreeMap<NodeId, Vec<NodeId>>,
    phases: u64,
    metrics: RunMetrics,
) -> DriverOutput {
    let path_order = net.ids_in_path_order().to_vec();
    let requested = degree_assignment(net, degrees);
    DriverOutput::Realized(Box::new(RealizedOutput {
        graph: assembled.graph,
        multi_degrees: assembled.multi_degrees,
        requested,
        path_order,
        explicit_neighbors,
        duplicate_edges: assembled.duplicate_edges,
        phases,
        metrics,
    }))
}

/// Checks that either every node realized or every node refused; returns
/// the per-node successes or `None` for a (consistent) refusal.
fn split_consistent<T>(
    outputs: Vec<(NodeId, Result<T, crate::distributed::Unrealizable>)>,
) -> Option<Vec<(NodeId, T)>> {
    let failures = outputs.iter().filter(|(_, r)| r.is_err()).count();
    if failures == 0 {
        Some(
            outputs
                .into_iter()
                .map(|(id, r)| (id, r.ok().unwrap()))
                .collect(),
        )
    } else {
        assert_eq!(
            failures,
            outputs.len(),
            "nodes disagree about realizability"
        );
        None
    }
}

/// A completed degree-realization run: the driver output plus the
/// executor's internal statistics (all-zero on the threaded oracle).
#[derive(Clone, Debug)]
pub struct DegreesRun {
    /// Realized overlay or consistent refusal.
    pub output: DriverOutput,
    /// Executor-internal statistics (compactions, routing paths).
    pub engine: EngineStats,
}

/// The **engine room** of every degree-sequence realization — one typed
/// entry point over workload flavor × engine × mask × sorting backend.
/// This is what the `dgr::Realization` facade builder drives; the legacy
/// `realize_*` free functions are deprecated delegating shims around it.
///
/// * `participants: None` realizes over the whole network; `Some(mask)`
///   runs the masked sub-network capability (the knowledge path links
///   across masked-out positions, which produce no output) — the
///   engine-level form of Algorithm 6's paper-exact prefix recursion.
/// * [`EngineKind::Threaded`] runs the direct-style oracle twins where
///   they exist (unmasked, bitonic), and the same state machines as the
///   batched executor otherwise — transcripts are identical either way
///   (`crates/core/tests/batched_drivers.rs`).
/// * [`SortBackend::RandomizedLogN`] requires a queueing (or recording)
///   capacity policy; see
///   [`rand_sort`](dgr_primitives::proto::rand_sort).
///
/// # Errors
///
/// Propagates simulator errors (model violations, round-limit), and
/// [`SimError::EngineUnavailable`] when the threaded oracle is requested
/// without the `threaded` feature.
///
/// `sink` receives the run's typed [`RunEvent`](dgr_ncc::RunEvent)
/// stream (`None` runs unobserved); both engines emit semantically
/// identical streams.
///
/// # Panics
///
/// Panics if a mask's length differs from `degrees.len()`.
pub fn realize_degrees(
    degrees: &[usize],
    participants: Option<&[bool]>,
    config: Config,
    flavor: Flavor,
    engine: EngineKind,
    sort: SortBackend,
    sink: Option<&mut dyn Sink>,
) -> Result<DegreesRun, SimError> {
    let net = Network::new(degrees.len(), config);
    let by_id = degree_assignment(&net, degrees);
    // The direct-style oracle twins cover the unmasked bitonic plane;
    // everything else runs the state machines on the requested engine.
    #[cfg(feature = "threaded")]
    if engine == EngineKind::Threaded && participants.is_none() && sort == SortBackend::Bitonic {
        return realize_direct_threaded(&net, degrees, &by_id, flavor, sink);
    }
    if let Some(mask) = participants {
        assert_eq!(
            degrees.len(),
            mask.len(),
            "one degree per path position is required"
        );
        let result = net.run_protocol_on(engine, Some(mask), sink, |s| {
            RealizeDegrees::with_sort(by_id[&s.id], flavor, sort)
        })?;
        let engine_stats = result.engine.clone();
        return Ok(DegreesRun {
            output: finish_masked(&net, degrees, mask, result),
            engine: engine_stats,
        });
    }
    let result = net.run_protocol_on(engine, None, sink, |s| {
        RealizeDegrees::with_sort(by_id[&s.id], flavor, sort)
    })?;
    let engine_stats = result.engine.clone();
    Ok(DegreesRun {
        output: finish_batched(&net, degrees, result, flavor == Flavor::Explicit),
        engine: engine_stats,
    })
}

/// The direct-style (blocking closure) drivers on the threaded oracle —
/// the obviously-correct twins the differential suites compare against.
#[cfg(feature = "threaded")]
fn realize_direct_threaded(
    net: &Network,
    degrees: &[usize],
    by_id: &BTreeMap<NodeId, usize>,
    flavor: Flavor,
    sink: Option<&mut dyn Sink>,
) -> Result<DegreesRun, SimError> {
    type DirectOut = Result<(u64, Vec<NodeId>), crate::distributed::Unrealizable>;
    let result: dgr_ncc::RunResult<DirectOut> = match flavor {
        Flavor::Implicit => net.run_observed(sink, |h| {
            implicit::realize(h, by_id[&h.id()]).map(|o| (o.phases, o.neighbors))
        })?,
        Flavor::Envelope => net.run_observed(sink, |h| {
            approx::realize(h, by_id[&h.id()]).map(|o| (o.phases, o.neighbors))
        })?,
        Flavor::Explicit => net.run_observed(sink, |h| {
            explicit::realize(h, by_id[&h.id()]).map(|o| (o.phases, o.neighbors))
        })?,
    };
    let metrics = result.metrics.clone();
    let engine_stats = result.engine.clone();
    let output = match split_consistent(result.outputs) {
        None => DriverOutput::Unrealizable { metrics },
        Some(outs) => {
            let phases = outs.first().map(|(_, (p, _))| *p).unwrap_or(0);
            if flavor == Flavor::Explicit {
                let lists: BTreeMap<NodeId, Vec<NodeId>> = outs
                    .into_iter()
                    .map(|(id, (_, neighbors))| (id, neighbors))
                    .collect();
                let assembled = verify::assemble_explicit(net.ids_in_path_order(), &lists)
                    .expect("explicit realization lost symmetry");
                finish(net, degrees, assembled, lists, phases, metrics)
            } else {
                let assembled = verify::assemble_implicit(
                    net.ids_in_path_order(),
                    outs.into_iter().map(|(id, (_, neighbors))| (id, neighbors)),
                );
                finish(net, degrees, assembled, BTreeMap::new(), phases, metrics)
            }
        }
    };
    Ok(DegreesRun {
        output,
        engine: engine_stats,
    })
}

/// Runs Algorithm 3 (implicit, exact) on a fresh network.
///
/// # Errors
///
/// Propagates simulator errors (model violations, round-limit).
#[cfg(feature = "threaded")]
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_implicit(degrees: &[usize], config: Config) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        None,
        config,
        Flavor::Implicit,
        EngineKind::Threaded,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// Runs the Theorem 13 upper-envelope realization (implicit, multigraph
/// semantics) on a fresh network.
///
/// # Errors
///
/// Propagates simulator errors.
#[cfg(feature = "threaded")]
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_approx(degrees: &[usize], config: Config) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        None,
        config,
        Flavor::Envelope,
        EngineKind::Threaded,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// Runs the Theorem 12 explicit realization on a fresh network. Use a
/// [`Config::with_queueing`] configuration — the staggered hand-off relies
/// on receive-side queueing.
///
/// # Errors
///
/// Propagates simulator errors, and reports asymmetric explicit claims as
/// a node panic (they indicate a protocol bug).
#[cfg(feature = "threaded")]
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_explicit(degrees: &[usize], config: Config) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        None,
        config,
        Flavor::Explicit,
        EngineKind::Threaded,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// Shared assembly of a batched [`RealizeDegrees`] run.
fn finish_batched(
    net: &Network,
    degrees: &[usize],
    result: dgr_ncc::RunResult<Result<crate::distributed::ImplicitOutcome, crate::Unrealizable>>,
    explicit: bool,
) -> DriverOutput {
    let metrics = result.metrics;
    match split_consistent(result.outputs) {
        None => DriverOutput::Unrealizable { metrics },
        Some(outs) => {
            let phases = outs.first().map(|(_, o)| o.phases).unwrap_or(0);
            if explicit {
                let lists: BTreeMap<NodeId, Vec<NodeId>> =
                    outs.into_iter().map(|(id, o)| (id, o.neighbors)).collect();
                let assembled = verify::assemble_explicit(net.ids_in_path_order(), &lists)
                    .expect("explicit realization lost symmetry");
                finish(net, degrees, assembled, lists, phases, metrics)
            } else {
                let assembled = verify::assemble_implicit(
                    net.ids_in_path_order(),
                    outs.into_iter().map(|(id, o)| (id, o.neighbors)),
                );
                finish(net, degrees, assembled, BTreeMap::new(), phases, metrics)
            }
        }
    }
}

/// Runs Algorithm 3 (implicit, exact) on the batched executor.
///
/// # Errors
///
/// Propagates simulator errors (model violations, round-limit).
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_implicit_batched(
    degrees: &[usize],
    config: Config,
) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        None,
        config,
        Flavor::Implicit,
        EngineKind::Batched,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// Runs the Theorem 13 upper-envelope realization on the batched executor.
///
/// # Errors
///
/// Propagates simulator errors.
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_approx_batched(degrees: &[usize], config: Config) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        None,
        config,
        Flavor::Envelope,
        EngineKind::Batched,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// Runs the Theorem 12 explicit realization on the batched executor. Use a
/// [`Config::with_queueing`] configuration — the staggered hand-off relies
/// on receive-side queueing.
///
/// # Errors
///
/// Propagates simulator errors, and reports asymmetric explicit claims as
/// a panic (they indicate a protocol bug).
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_explicit_batched(
    degrees: &[usize],
    config: Config,
) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        None,
        config,
        Flavor::Explicit,
        EngineKind::Batched,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// Assembles a masked run's outputs against the *participating* nodes
/// only (masked-out positions have no outputs and request nothing).
fn finish_masked(
    net: &Network,
    degrees: &[usize],
    participants: &[bool],
    result: dgr_ncc::RunResult<Result<crate::distributed::ImplicitOutcome, crate::Unrealizable>>,
) -> DriverOutput {
    let metrics = result.metrics;
    match split_consistent(result.outputs) {
        None => DriverOutput::Unrealizable { metrics },
        Some(outs) => {
            let phases = outs.first().map(|(_, o)| o.phases).unwrap_or(0);
            let members: Vec<NodeId> = net
                .ids_in_path_order()
                .iter()
                .zip(participants.iter())
                .filter(|&(_, &p)| p)
                .map(|(&id, _)| id)
                .collect();
            let requested: BTreeMap<NodeId, usize> = net
                .ids_in_path_order()
                .iter()
                .zip(degrees.iter())
                .zip(participants.iter())
                .filter(|&(_, &p)| p)
                .map(|((&id, &d), _)| (id, d))
                .collect();
            let assembled = verify::assemble_implicit(
                &members,
                outs.into_iter().map(|(id, o)| (id, o.neighbors)),
            );
            DriverOutput::Realized(Box::new(RealizedOutput {
                graph: assembled.graph,
                multi_degrees: assembled.multi_degrees,
                requested,
                path_order: members,
                explicit_neighbors: BTreeMap::new(),
                duplicate_edges: assembled.duplicate_edges,
                phases,
                metrics,
            }))
        }
    }
}

/// `realize_on`-over-a-sub-network on the **batched executor**: only the
/// masked-in path positions participate (the knowledge path `G_k` links
/// across the rest — [`Network::run_protocol_masked`]), and the node at
/// participating position `i` requests `degrees[i]`. This is the
/// engine-level capability behind Algorithm 6's paper-exact prefix
/// recursion: realizing the prefix degrees by a sub-network Algorithm 3 /
/// Theorem 13 run instead of the cyclic-pipeline substitute — at scales
/// the threaded `realize_on` cannot touch.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `degrees.len() != participants.len()`.
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_masked_batched(
    degrees: &[usize],
    participants: &[bool],
    config: Config,
    flavor: Flavor,
) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        Some(participants),
        config,
        flavor,
        EngineKind::Batched,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// The threaded differential twin of [`realize_masked_batched`]: the same
/// state machines on the thread-per-node oracle over the same mask, for
/// transcript-identical comparison.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `degrees.len() != participants.len()`.
#[cfg(feature = "threaded")]
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_masked_threaded(
    degrees: &[usize],
    participants: &[bool],
    config: Config,
    flavor: Flavor,
) -> Result<DriverOutput, SimError> {
    realize_degrees(
        degrees,
        Some(participants),
        config,
        flavor,
        EngineKind::Threaded,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

/// [`realize_masked_batched`] over the first `prefix` path positions —
/// the exact sub-network shape of the paper's Algorithm 6 phase 1
/// (`degrees[i]` for `i < prefix` is realized; later entries idle out).
///
/// # Errors
///
/// Propagates simulator errors.
#[deprecated(note = "use `dgr::Realization` (or the `realize_degrees` engine room)")]
pub fn realize_prefix_batched(
    degrees: &[usize],
    prefix: usize,
    config: Config,
    flavor: Flavor,
) -> Result<DriverOutput, SimError> {
    let mask: Vec<bool> = (0..degrees.len()).map(|i| i < prefix).collect();
    realize_degrees(
        degrees,
        Some(&mask),
        config,
        flavor,
        EngineKind::Batched,
        SortBackend::Bitonic,
        None,
    )
    .map(|run| run.output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn realize_implicit(degrees: &[usize], config: Config) -> DriverOutput {
        let (flavor, engine) = (Flavor::Implicit, EngineKind::Batched);
        realize_degrees(
            degrees,
            None,
            config,
            flavor,
            engine,
            SortBackend::Bitonic,
            None,
        )
        .unwrap()
        .output
    }

    #[test]
    fn implicit_driver_end_to_end() {
        let degrees = vec![2, 2, 1, 1];
        let out = realize_implicit(&degrees, Config::ncc0(41));
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 3);
        verify::degrees_match(&g.graph, &g.requested).unwrap();
        assert!(g.metrics.is_clean());
        assert!(g.phases >= 1);
    }

    #[test]
    fn metrics_accessible_on_refusal() {
        let out = realize_implicit(&[1, 1, 1], Config::ncc0(42));
        assert!(out.is_unrealizable());
        assert!(out.metrics().rounds > 0);
    }
}
