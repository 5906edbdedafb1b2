//! Distributed threshold realization (Section 6).
//!
//! [`ncc1`] and [`ncc0`] describe the two constructions and hold their
//! property tests; [`ncc1_step`] and [`ncc0_step`] implement them as
//! step-function protocols, [`ncc0_exact`] the composed paper-exact
//! Algorithm 6.

pub mod ncc0;
pub mod ncc0_exact;
pub mod ncc0_step;
pub mod ncc1;
pub mod ncc1_step;

use dgr_ncc::NodeId;

/// One node's realized edge set for a threshold realization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThresholdOutcome {
    /// This node's requirement `ρ(v)`.
    pub rho: usize,
    /// Neighbors this node knows about. For the explicit NCC0 algorithm
    /// both endpoints of every edge list each other; for the implicit
    /// NCC1 algorithm only the edge-adding endpoint does.
    pub neighbors: Vec<NodeId>,
}
