//! A step wrapper that counts, per poll, the messages of some tags in a
//! node's inbox — the per-round fan-in a primitive promises — and, when
//! given a tally shared by the run's nodes, what each sender put in them a
//! round: the fan-out. Shared by the crates' unit tests and property tests
//! through `#[path]`; the including crate has `Poll` and `Step` at its
//! root.

use crate::{Poll, Step};
use dgr_ncc::{NodeId, RoundCtx};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Messages under the counted tags that each `(round, sender)` had
/// delivered, across a run's nodes.
#[allow(dead_code)] // not every including crate counts sends
pub type Senders = Arc<Mutex<HashMap<(u64, NodeId), usize>>>;

/// A step and the most messages under one of `tags` that one of its
/// polls found in this node's inbox.
pub struct Busiest<S> {
    step: S,
    tags: &'static [u16],
    most: usize,
    sent: Option<Senders>,
}

impl<S> Busiest<S> {
    pub fn new(step: S, tags: &'static [u16]) -> Self {
        Busiest {
            step,
            tags,
            most: 0,
            sent: None,
        }
    }

    /// Also tallies every counted message against its sender and the
    /// round it was sent in.
    #[allow(dead_code)] // not every including crate counts sends
    pub fn counting(step: S, tags: &'static [u16], sent: Senders) -> Self {
        Busiest {
            sent: Some(sent),
            ..Busiest::new(step, tags)
        }
    }
}

/// The most messages one sender had delivered in one round, in `sent`.
#[allow(dead_code)] // not every including crate counts sends
pub fn busiest_sender(sent: &Senders) -> usize {
    sent.lock().unwrap().values().copied().max().unwrap_or(0)
}

impl<S: Step> Step for Busiest<S> {
    type Out = (S::Out, usize);

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        let got = rctx
            .inbox()
            .iter()
            .filter(|e| self.tags.contains(&e.msg.tag));
        if let Some(sent) = &self.sent {
            let mut sent = sent.lock().unwrap();
            for env in got.clone() {
                *sent.entry((rctx.round() - 1, env.src)).or_default() += 1;
            }
        }
        self.most = self.most.max(got.count());
        self.step.poll(rctx).map(|out| (out, self.most))
    }
}
