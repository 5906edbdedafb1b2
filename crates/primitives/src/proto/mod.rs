//! Step-function ports of the primitives: [`NodeProtocol`] state machines
//! and composable [`Step`] sub-protocols for the batched executor.
//!
//! The direct-style primitives in the sibling modules block inside
//! `NodeHandle::step` and therefore need the threaded oracle engine. The
//! ports here are the same algorithms unrolled into explicit state
//! machines — one poll per round — so they run on the batched executor at
//! scales the threaded engine cannot touch (hundreds of thousands to
//! millions of nodes), and on the threaded oracle for differential
//! testing.
//!
//! Two layers:
//!
//! * [`step::Step`] — a primitive as a pollable sub-protocol that can be
//!   *chained* with others inside one run (the [`step`] module documents
//!   the polling discipline). This is what the realization drivers in
//!   `dgr-core`, `dgr-trees` and `dgr-connectivity` compose.
//! * [`NodeProtocol`] — a whole-run protocol. Single primitives run
//!   standalone through [`step::StepProtocol`]; bespoke whole-run
//!   protocols ([`Undirect`], [`PathToClique`]) remain for the warm-up
//!   benchmarks.
//!
//! Every port is round-for-round and message-for-message identical to its
//! direct-style twin (same budgets, same tags, same payloads, same RNG
//! draws), which `crates/primitives/tests/proto_differential.rs` asserts.
//!
//! | Step | Direct-style twin | Rounds |
//! |---|---|---|
//! | [`ctx::UndirectStep`] | [`vpath::undirect`](crate::vpath::undirect) | 1 |
//! | [`contacts::ContactsStep`] | [`contacts::build`](crate::contacts::build) | `ceil(log2 n) - 1` |
//! | [`bbst::BbstStep`] | [`bbst::build`](crate::bbst::build) | `2 ceil(log2 n)` |
//! | [`traversal::TraversalStep`] | [`traversal::positions`](crate::traversal::positions) | `O(log n)` |
//! | [`ops::AggBcastStep`] | [`ops::aggregate_broadcast`](crate::ops::aggregate_broadcast) | `O(log n)` |
//! | [`ops::BroadcastAddrStep`] | [`ops::broadcast_addr`](crate::ops::broadcast_addr) | `O(log n)` |
//! | [`ops::CollectStep`] | [`ops::collect`](crate::ops::collect) | `O(k + log n)` |
//! | [`sort::SortStep`] | [`sort::sort_at`](crate::sort::sort_at) | `O(log² n)` |
//! | [`prefix::PrefixStep`] | [`prefix::prefix_sum`](crate::prefix::prefix_sum) | `O(log n)` |
//! | [`imcast::ImcastStep`] | [`imcast::interval_multicast`](crate::imcast::interval_multicast) | `O(log n)` |
//! | [`scatter::ScanStep`] | [`scatter::milestone_scan`](crate::scatter::milestone_scan) | `O(log² n)` |
//! | [`stagger::StaggerStep`] | [`stagger::staggered_send`](crate::stagger::staggered_send) | `spread + drain` |
//! | [`ctx::EstablishCtx`] | [`PathCtx::establish`](crate::ctx::PathCtx::establish) | `O(log n)` |
//!
//! [`NodeProtocol`]: dgr_ncc::NodeProtocol

pub mod bbst;
pub mod clique;
pub mod contacts;
pub mod ctx;
pub mod imcast;
pub mod ops;
pub mod prefix;
pub mod rand_sort;
pub mod scatter;
pub mod sort;
pub mod stagger;
pub mod step;
pub mod traversal;
pub mod undirect;
pub mod warmup;

pub use clique::PathToClique;
pub use ctx::{EstablishCtx, WithCtx};
pub use step::{AggOp, Poll, Step, StepProtocol, Then};
pub use undirect::Undirect;
