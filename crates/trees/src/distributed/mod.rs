//! Distributed tree realization (Section 5): Algorithms 4 and 5.

pub mod alg4;
pub mod alg5;
pub mod proto;

use dgr_ncc::NodeId;

/// One node's result of a tree realization: the tree edges stored here
/// (implicit realization — each edge lives at exactly one endpoint).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeOutcome {
    /// The degree this node asked for.
    pub requested: usize,
    /// IDs of neighbors whose tree edge is stored at this node.
    pub neighbors: Vec<NodeId>,
}
