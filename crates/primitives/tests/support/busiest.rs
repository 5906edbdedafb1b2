//! A step wrapper that counts, per poll, the messages of some tags in a
//! node's inbox — the per-round fan-in a primitive promises. Shared by the
//! crate's unit tests and its property tests through `#[path]`; the
//! including crate has `Poll` and `Step` at its root.

use crate::{Poll, Step};
use dgr_ncc::RoundCtx;

/// A step and the most messages under one of `tags` that one of its
/// polls found in this node's inbox.
pub struct Busiest<S> {
    step: S,
    tags: &'static [u16],
    most: usize,
}

impl<S> Busiest<S> {
    pub fn new(step: S, tags: &'static [u16]) -> Self {
        Busiest {
            step,
            tags,
            most: 0,
        }
    }
}

impl<S: Step> Step for Busiest<S> {
    type Out = (S::Out, usize);

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        let got = rctx
            .inbox()
            .iter()
            .filter(|e| self.tags.contains(&e.msg.tag));
        self.most = self.most.max(got.count());
        self.step.poll(rctx).map(|out| (out, self.most))
    }
}
