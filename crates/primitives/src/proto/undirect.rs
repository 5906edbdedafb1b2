//! The 1-round path undirection from §3.1 of the paper, as a whole-run
//! protocol.

use crate::vpath::VPath;
use dgr_ncc::{tags, NodeProtocol, NodeSeed, RoundCtx, Status, WireMsg};

/// Undirects the knowledge path: every node signals its successor, so each
/// node learns its predecessor; the node that hears nothing is the head.
///
/// Rounds: exactly 1. Output: this node's [`VPath`] view of `G_k`.
#[derive(Debug)]
pub struct Undirect {
    sent: bool,
}

impl Undirect {
    /// Builds the protocol for one node (ignores the seed — the context
    /// carries everything this protocol needs).
    pub fn new(_seed: &NodeSeed<'_>) -> Self {
        Undirect { sent: false }
    }
}

impl NodeProtocol for Undirect {
    type Output = VPath;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<VPath> {
        if !self.sent {
            if let Some(succ) = ctx.initial_successor() {
                ctx.send(succ, WireMsg::signal(tags::UNDIRECT));
            }
            self.sent = true;
            return Status::Continue;
        }
        let pred = ctx
            .inbox()
            .iter()
            .find(|env| env.msg.tag == tags::UNDIRECT)
            .map(|env| env.src);
        Status::Done(VPath {
            member: true,
            pred,
            succ: ctx.initial_successor(),
            len: ctx.participants(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_ncc::{Config, Network};

    #[test]
    fn undirect_reconstructs_the_path_batched() {
        let net = Network::new(100, Config::ncc0(5));
        let result = net.run_protocol(Undirect::new).unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.metrics.rounds, 1);
        let order = result.gk_order();
        for (i, (_, vp)) in result.outputs.iter().enumerate() {
            assert!(vp.member);
            assert_eq!(vp.len, 100);
            assert_eq!(vp.pred, if i == 0 { None } else { Some(order[i - 1]) });
            assert_eq!(vp.succ, order.get(i + 1).copied(),);
        }
    }

    #[test]
    fn batched_and_reference_agree() {
        let net = Network::new(64, Config::ncc0(9));
        let a = net.run_protocol(Undirect::new).unwrap();
        let b = net
            .run_protocol_on(dgr_ncc::EngineKind::Reference, None, None, Undirect::new)
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn masked_run_links_across_dead_nodes() {
        let net = Network::new(10, Config::ncc0(7));
        // Odd path positions are filtered out of the network.
        let mask: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let result = net.run_protocol_masked(&mask, Undirect::new).unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.outputs.len(), 5);
        let order = result.gk_order();
        let full: Vec<_> = net.ids_in_path_order().to_vec();
        // Participants are the even positions, in path order.
        let expected: Vec<_> = (0..10).step_by(2).map(|i| full[i]).collect();
        assert_eq!(order, expected);
        // The filtered path is seamless: pred/succ skip dead nodes.
        for (i, (_, vp)) in result.outputs.iter().enumerate() {
            assert_eq!(vp.pred, if i == 0 { None } else { Some(order[i - 1]) });
            assert_eq!(vp.succ, order.get(i + 1).copied());
        }
    }
}
