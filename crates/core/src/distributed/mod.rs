//! Distributed degree realization in the NCC model (Section 4 of the
//! paper): the implicit Algorithm 3, its explicit extension, and the
//! upper-envelope variant for non-graphic sequences.

pub mod approx;
pub mod explicit;
pub mod implicit;
pub mod proto;

use dgr_ncc::NodeId;

/// Returned (consistently by *every* node) when the degree sequence is not
/// realizable — the distributed analogue of a node broadcasting
/// `UNREALIZABLE` in Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unrealizable;

impl std::fmt::Display for Unrealizable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degree sequence is unrealizable")
    }
}

impl std::error::Error for Unrealizable {}

/// One node's result of an implicit realization: the edges *this node*
/// stores. In an implicit overlay each edge is known to at least one
/// endpoint; here the storing endpoint is always the group member, the
/// group leader being the one satisfied without learning its neighbors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImplicitOutcome {
    /// The degree this node asked for.
    pub requested: usize,
    /// IDs of neighbors whose edge is stored at this node.
    pub neighbors: Vec<NodeId>,
    /// Number of while-loop phases the algorithm ran (identical at every
    /// node; the Lemma 10 quantity).
    pub phases: u64,
}

/// Umbrella re-export target: the per-node outcome types of the
/// distributed realizations.
pub type DistributedRealization = ImplicitOutcome;
