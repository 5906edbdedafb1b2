//! Virtual paths: the universal substrate for all primitives.
//!
//! A [`VPath`] describes one node's view of a linked path over some subset of
//! the network: its predecessor and successor on that path, the path's total
//! length, and whether this node is a member at all. The initial knowledge
//! graph `G_k` yields the first virtual path (via
//! [`UndirectStep`](crate::ctx::UndirectStep), the 1-round construction of
//! §3.1: every node sends its ID to its out-neighbor, so each node learns
//! its predecessor, and the node that hears nothing is the head); sorting
//! yields new ones; taking a prefix of a sorted path yields sub-network
//! paths for recursive algorithms.
//!
//! Non-members still participate in the *rounds* of any primitive run on the
//! path (idling in lockstep on the [`Lockstep`](crate::Lockstep) clock) —
//! they simply never send or receive. This keeps
//! the whole network synchronized through sub-network computations, which is
//! how Algorithm 6 runs a degree realization on only its first `d₀+1` nodes.

use dgr_ncc::NodeId;

/// One node's view of a virtual path.
///
/// Deliberately `Copy`: a path view is four machine words, and the
/// composite stage machines pass it between sub-protocol stages every
/// phase — it is a *handle*, not a table (the heap-backed per-path state
/// — contact tables, trees — is interned behind `Arc`s instead; see
/// [`crate::ctx::PathCtx`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VPath {
    /// Is this node on the path? Non-members only idle through primitives.
    pub member: bool,
    /// ID of the previous node on the path (None for the head, and for
    /// non-members).
    pub pred: Option<NodeId>,
    /// ID of the next node on the path (None for the tail, and for
    /// non-members).
    pub succ: Option<NodeId>,
    /// Total number of nodes on the path — common knowledge among all
    /// participants of the primitives run on it.
    pub len: usize,
}

impl VPath {
    /// A view for a node that is not on the path but must stay in lockstep.
    pub fn non_member(len: usize) -> Self {
        VPath {
            member: false,
            pred: None,
            succ: None,
            len,
        }
    }

    /// True if this node is the path's head (member with no predecessor).
    pub fn is_head(&self) -> bool {
        self.member && self.pred.is_none()
    }

    /// True if this node is the path's tail (member with no successor).
    pub fn is_tail(&self) -> bool {
        self.member && self.succ.is_none()
    }

    /// Number of doubling levels for this path: `ceil(log2(len))`.
    pub fn levels(&self) -> usize {
        crate::levels_for(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::UndirectStep;
    use crate::StepProtocol;
    use dgr_ncc::{Config, Network};

    #[test]
    fn head_and_tail_predicates() {
        let vp = VPath {
            member: true,
            pred: None,
            succ: Some(3),
            len: 4,
        };
        assert!(vp.is_head());
        assert!(!vp.is_tail());
        let vp = VPath {
            member: true,
            pred: Some(2),
            succ: None,
            len: 4,
        };
        assert!(vp.is_tail());
        let vp = VPath::non_member(4);
        assert!(!vp.is_head() && !vp.is_tail());
    }

    #[test]
    fn single_node_path() {
        let net = Network::new(1, Config::ncc0(5));
        let result = net
            .run_protocol(|_| StepProtocol::new(UndirectStep::new()))
            .unwrap();
        let vp = &result.outputs[0].1;
        assert!(vp.is_head() && vp.is_tail());
        assert_eq!(vp.levels(), 0);
    }
}
