//! Distributed threshold realization (Section 6).
//!
//! One module per construction — description, protocol and tests:
//! [`ncc1`] the Theorem 17 star, [`ncc0`] Algorithm 6 with the cyclic
//! pipeline phase 1, [`ncc0_exact`] the composed paper-exact Algorithm 6.

pub mod ncc0;
pub mod ncc0_exact;
pub mod ncc1;

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
