//! Simulation errors and model-constraint violations.

use crate::message::NodeId;
use std::fmt;

/// A violation of the NCC model constraints, attributed to a node and round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The round in which the violation occurred (0-based).
    pub round: u64,
    /// The offending node.
    pub node: NodeId,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// The kinds of model-constraint violations the engine detects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Node sent more than `cap` messages in one round.
    SendCapacity { sent: usize, cap: usize },
    /// Node would receive more than `cap` messages in one round.
    ReceiveCapacity { received: usize, cap: usize },
    /// Message exceeded the word budget.
    MessageTooLarge { words: usize, addrs: usize },
    /// Node addressed an ID it has not learned (KT0 illegality).
    UnknownAddressee { dst: NodeId },
    /// Node attached an address it has not learned to a message payload.
    UnknownCarriedAddress { carried: NodeId },
    /// Message addressed to an ID that does not exist in the network.
    NoSuchNode { dst: NodeId },
    /// Message addressed to a node that already terminated.
    DeadRecipient { dst: NodeId },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {} node {}: ", self.round, self.node)?;
        match &self.kind {
            ViolationKind::SendCapacity { sent, cap } => {
                write!(f, "sent {sent} messages, capacity is {cap}")
            }
            ViolationKind::ReceiveCapacity { received, cap } => {
                write!(f, "would receive {received} messages, capacity is {cap}")
            }
            ViolationKind::MessageTooLarge { words, addrs } => {
                write!(f, "message too large ({words} words, {addrs} addrs)")
            }
            ViolationKind::UnknownAddressee { dst } => {
                write!(f, "sent to unknown ID {dst} (KT0 violation)")
            }
            ViolationKind::UnknownCarriedAddress { carried } => {
                write!(f, "carried unknown address {carried} (KT0 violation)")
            }
            ViolationKind::NoSuchNode { dst } => write!(f, "no such node {dst}"),
            ViolationKind::DeadRecipient { dst } => {
                write!(f, "recipient {dst} already terminated")
            }
        }
    }
}

/// A fatal simulation error.
#[derive(Debug)]
pub enum SimError {
    /// A model violation under [`CapacityPolicy::Strict`](crate::CapacityPolicy::Strict).
    Violation(Violation),
    /// The protocol exceeded [`Config::max_rounds`](crate::Config::max_rounds).
    RoundLimitExceeded { limit: u64 },
    /// A node thread panicked; the payload is the panic message when it was a
    /// string.
    NodePanic { node: NodeId, message: String },
    /// The configured [`Scenario`](crate::Scenario) is inconsistent with
    /// the run it was attached to (node outside the participant mask,
    /// recovery scheduled at or before its crash, reorder faults without
    /// the queue policy). The payload names the offending schedule entry.
    InvalidScenario(String),
    /// The run ended, but its outputs do not assemble (an explicit
    /// realization's edge claimed asymmetrically); the payload names it.
    Assembly(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Violation(v) => write!(f, "model violation: {v}"),
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "round limit exceeded ({limit} rounds)")
            }
            SimError::NodePanic { node, message } => {
                write!(f, "node {node} panicked: {message}")
            }
            SimError::InvalidScenario(why) => write!(f, "invalid scenario: {why}"),
            SimError::Assembly(why) => write!(f, "assembly failed: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Extracts a printable message from a panic payload (shared by both
/// engines' panic-to-[`SimError::NodePanic`] conversion).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render() {
        let v = Violation {
            round: 3,
            node: 17,
            kind: ViolationKind::SendCapacity { sent: 12, cap: 8 },
        };
        let s = v.to_string();
        assert!(s.contains("round 3"));
        assert!(s.contains("node 17"));
        assert!(s.contains("12"));
    }

    #[test]
    fn sim_errors_render() {
        let e = SimError::RoundLimitExceeded { limit: 10 };
        assert!(e.to_string().contains("10"));
        let e = SimError::NodePanic {
            node: 1,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }
}
