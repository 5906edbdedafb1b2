//! Builder-backed driver shorthands for the benches and experiments:
//! every realization in this crate is constructed through the
//! `dgr::Realization` facade, with the handful of knobs the experiment
//! tables sweep (seed, capacity factor) exposed as plain arguments.

pub use dgr::{CapacityPolicy, Kt0, Realization, Workload};
use dgr_connectivity::ThresholdRealization;
use dgr_core::distributed::{DegreesCore, Flavor, ImplicitOutcome, Unrealizable};
use dgr_core::DriverOutput;
use dgr_ncc::{tags, Config, Network, RoundCtx};
use dgr_primitives::{PathCtx, Poll, Step, WithCtx};
use dgr_trees::{TreeAlgo, TreeRealization};
use distributed_graph_realizations as dgr;

/// One fully-knobbed degree realization through the builder.
pub fn degrees(workload: Workload, seed: u64, capacity_factor: Option<f64>) -> DriverOutput {
    let mut b = Realization::new(workload).seed(seed);
    if let Some(factor) = capacity_factor {
        b = b.capacity_factor(factor);
    }
    b.run().expect("realization failed").degrees().clone()
}

/// Implicit realization (Algorithm 3) at the given seed.
pub fn implicit(d: &[usize], seed: u64) -> DriverOutput {
    degrees(Workload::Implicit(d.to_vec()), seed, None)
}

/// Explicit realization (Theorem 12).
pub fn explicit(d: &[usize], seed: u64) -> DriverOutput {
    degrees(Workload::Explicit(d.to_vec()), seed, None)
}

/// Upper-envelope realization (Theorem 13).
pub fn envelope(d: &[usize], seed: u64) -> DriverOutput {
    degrees(Workload::Envelope(d.to_vec()), seed, None)
}

/// Tree realization (Algorithms 4/5).
pub fn tree(d: &[usize], algo: TreeAlgo, seed: u64) -> TreeRealization {
    Realization::new(Workload::Tree {
        degrees: d.to_vec(),
        algo,
    })
    .seed(seed)
    .run()
    .expect("tree realization failed")
    .tree()
    .clone()
}

/// NCC1 star threshold realization (Theorem 17).
pub fn ncc1(rho: &[usize], seed: u64) -> ThresholdRealization {
    Realization::new(Workload::Ncc1(rho.to_vec()))
        .seed(seed)
        .run()
        .expect("NCC1 realization failed")
        .threshold()
        .clone()
}

/// NCC0 explicit threshold realization (Algorithm 6, pipeline phase 1).
pub fn ncc0(rho: &[usize], seed: u64) -> ThresholdRealization {
    Realization::new(Workload::Ncc0Threshold(rho.to_vec()))
        .seed(seed)
        .run()
        .expect("NCC0 realization failed")
        .threshold()
        .clone()
}

/// A degree core that notes the rounds the first and the last
/// announcement (`EDGE`) reached this node in.
struct Heard {
    core: DegreesCore,
    window: Option<(u64, u64)>,
}

impl Step for Heard {
    type Out = (Result<ImplicitOutcome, Unrealizable>, Option<(u64, u64)>);

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        if rctx.inbox().iter().any(|e| e.msg.tag == tags::EDGE) {
            let r = rctx.round();
            self.window = Some(self.window.map_or((r, r), |(first, _)| (first, r)));
        }
        self.core.poll(rctx).map(|out| (out, self.window))
    }
}

/// The hub's announcement window in an explicit realization of `degrees`
/// (the hub first) under `config`, queueing: the rounds from the first
/// announcement sent to it to the last one received — the hand-off's own
/// span, which the explicit run's rounds less the implicit run's do not
/// measure where the hand-off runs beside the phase loop.
pub fn hub_window(degrees: &[usize], config: Config) -> u64 {
    let net = Network::new(degrees.len(), config.with_queueing());
    let by_id = net.assign_in_path_order(degrees);
    let hub = net.ids_in_path_order()[0];
    let result = net
        .run_protocol(|s| {
            let degree = by_id[&s.id];
            WithCtx::new(move |ctx: &PathCtx, _: &mut RoundCtx<'_>| Heard {
                core: DegreesCore::new(degree, Flavor::Explicit, ctx.clone()),
                window: None,
            })
        })
        .expect("explicit realization failed");
    let (out, window) = result.output_of(hub).expect("the hub ran");
    assert!(out.is_ok(), "explicit realization refused");
    let (first, last) = window.expect("the hub heard no announcement");
    last - first + 1
}
