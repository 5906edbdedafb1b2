//! Builder-backed driver shorthands for the benches and experiments:
//! every realization in this crate is constructed through the
//! `dgr::Realization` facade, with the handful of knobs the experiment
//! tables sweep (seed, capacity factor) exposed as plain arguments.

pub use dgr::{CapacityPolicy, Kt0, Realization, Workload};
use dgr_connectivity::ThresholdRealization;
use dgr_core::DriverOutput;
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

/// Explicit realization (Theorem 12; queueing policy by default).
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
