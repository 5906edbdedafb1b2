//! The primitives as step functions: composable [`Step`] sub-protocols
//! and whole-run [`NodeProtocol`] state machines.
//!
//! Each primitive is an explicit state machine — one poll per round — so
//! it runs on the batched executor at hundreds of thousands to millions
//! of nodes, and on the reference interpreter for differential testing.
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
//! Every step was ported from a direct-style original (a blocking closure
//! per node) and held to it round for round and message for message; the
//! originals are gone, their transcripts are frozen in
//! `crates/primitives/tests/proto_differential.rs`, which the steps must
//! keep reproducing on both engines.
//!
//! | Step | Described in | Rounds |
//! |---|---|---|
//! | [`ctx::UndirectStep`] | [`vpath`](crate::vpath) | 1 |
//! | [`warmup::WarmupStep`] | [`warmup`](crate::warmup) | `2 (ceil(log2 n) + 1)` |
//! | [`contacts::ContactsStep`] | [`contacts`](crate::contacts) | `ceil(log2 n) - 1` |
//! | [`bbst::BbstStep`] | [`bbst`](crate::bbst) | `2 ceil(log2 n)` |
//! | [`traversal::TraversalStep`] | [`traversal`](crate::traversal) | `O(log n)` |
//! | [`ops::AggBcastStep`] | [`ops`](crate::ops) | `O(log n)` |
//! | [`ops::BroadcastAddrStep`] | [`ops`](crate::ops) | `O(log n)` |
//! | [`ops::CollectStep`] | [`ops`](crate::ops) | `O(k + log n)` |
//! | [`sort::SortStep`] | [`sort`](crate::sort) | `O(log² n)` |
//! | [`prefix::PrefixStep`] | [`prefix`](crate::prefix) | `O(log n)` |
//! | [`imcast::ImcastStep`] | [`imcast`](crate::imcast) | `O(log n)` |
//! | [`scatter::ScanStep`] | [`scatter`](crate::scatter) | `O(log² n)` |
//! | [`stagger::StaggerStep`] | [`stagger`](crate::stagger) | `spread + drain` |
//! | [`ctx::EstablishCtx`] | [`ctx`](crate::ctx) | `O(log n)` |
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
