//! Simulator for the **node-capacitated clique** (NCC) model of distributed
//! computing, as defined in *Distributed Graph Realizations* (Augustine,
//! Choudhary, Cohen, Peleg, Sivasubramaniam, Sourav — IPDPS 2020) and
//! originally introduced by Augustine et al. (SPAA 2019).
//!
//! # The model
//!
//! The network consists of `n` nodes with unique IDs drawn from a space much
//! larger than `n`. Computation proceeds in **synchronous rounds**. In every
//! round each node may send at most `cap = Θ(log n)` messages of `O(log n)`
//! bits each, and receive at most `cap` messages. A node `u` can address a
//! message to `v` only if `u` *knows* `v`'s ID (think of the ID as `v`'s IP
//! address).
//!
//! Two variants differ in the initial knowledge:
//!
//! * **NCC1** (the SPAA'19 model, KT1-like): every node knows every other
//!   node's ID from the start.
//! * **NCC0** (KT0-like): each node initially knows only the IDs of its
//!   out-neighbors in a directed *initial knowledge graph* `G_k`; following
//!   the paper, `G_k` is a directed path over the `n` nodes in an arbitrary
//!   (here: seeded random) order.
//!
//! # One engine, one reference interpreter
//!
//! The round structure of NCC — all outboxes, then validate/route, then all
//! inboxes — is embarrassingly parallel and allocation-free by design, and
//! the simulator exploits that with a **batched step-function executor**
//! ([`Network::run_protocol`]): node protocols are state machines
//! implementing [`NodeProtocol`] (`fn step(&mut self, ctx: &mut RoundCtx)
//! -> Status`), stepped in bulk each round, one ownership shard of the
//! node space per worker thread. Routing is a stable counting sort of
//! fixed-size [`WireMsg`] envelopes into reusable flat arenas, bucketed by
//! dense destination index — no hashing, and at steady state no heap
//! allocation anywhere in the round loop. This engine simulates
//! **millions** of nodes.
//!
//! Beside it sits the **reference interpreter** ([`EngineKind::Reference`],
//! through [`Network::run_protocol_on`]): the same round written the
//! naive way — one thread, one loop, one inbox, queue and knowledge set
//! per node — in 300 lines that share nothing with the batched executor's
//! layout. It runs the *same* step machines and scenarios, so the
//! differential suites hold the two to identical outputs, metrics and
//! event streams (see `crates/ncc/tests/differential.rs`,
//! `scenario_matrix.rs` and `ARCHITECTURE.md`). It is the oracle, not a
//! second production engine: use it to check, never to scale.
//!
//! # A step-function protocol
//!
//! ```
//! use dgr_ncc::{tags, Config, Network, NodeProtocol, RoundCtx, Status, WireMsg};
//!
//! // Every node learns its predecessor on the knowledge path (the paper's
//! // "undirecting" step): each node sends its ID to its successor.
//! struct Undirect {
//!     sent: bool,
//! }
//!
//! impl NodeProtocol for Undirect {
//!     type Output = Option<u64>; // my predecessor, if any
//!
//!     fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<Self::Output> {
//!         if !self.sent {
//!             if let Some(succ) = ctx.initial_successor() {
//!                 ctx.send(succ, WireMsg::signal(tags::UNDIRECT));
//!             }
//!             self.sent = true;
//!             return Status::Continue;
//!         }
//!         Status::Done(ctx.inbox().first().map(|env| env.src))
//!     }
//! }
//!
//! let net = Network::new(1024, Config::ncc0(42));
//! let result = net.run_protocol(|_seed| Undirect { sent: false }).unwrap();
//! assert_eq!(result.metrics.rounds, 1);
//! // Exactly one node (the head of the path) has no predecessor.
//! assert_eq!(result.outputs.iter().filter(|(_, p)| p.is_none()).count(), 1);
//! ```
//!
//! All runs are deterministic given [`Config::seed`] — independent of the
//! worker-thread and shard counts: node-local randomness is derived from the seed and
//! the node ID, and routing follows a canonical (dense source index) order.

#![forbid(unsafe_code)]

mod batch;
mod config;
mod error;
pub mod event;
mod knowledge;
mod message;
mod metrics;
mod network;
mod protocol;
mod reference;
mod route;
mod scenario;
mod shard;
mod wire;

pub use config::{CapacityPolicy, Config, EngineKind, IdAssignment, Model, MIN_SHARD_WIDTH};
pub use error::{SimError, Violation, ViolationKind};
pub use event::{
    JsonlSink, MetricsRecorder, NullSink, ProgressSink, Recording, RouteMode, RunEvent, Sink,
};
pub use message::{tags, NodeId};
pub use metrics::{
    EngineRun, EngineStats, Footprint, PhaseRounds, RunMetrics, ViolationCounts, ROUND_TRACE_LIMIT,
};
pub use network::{Job, Network, Run, RunResult};
pub use protocol::{NodeProtocol, NodeSeed, RoundCtx, Status};
pub use scenario::{Scenario, ScenarioEvent};
pub use wire::{WireEnvelope, WireMsg, WIRE_ADDRS, WIRE_WORDS};

/// Computes the per-round send/receive capacity for an `n`-node network:
/// `max(min_capacity, ceil(factor * log2(n)))` messages per node per round.
///
/// This is the `O(log n)` bound of the NCC model made concrete; the constants
/// are part of [`Config`].
pub fn capacity_for(n: usize, factor: f64, min_capacity: usize) -> usize {
    let lg = (n.max(2) as f64).log2();
    let cap = (factor * lg).ceil() as usize;
    cap.max(min_capacity).max(1)
}

#[cfg(test)]
mod capacity_tests {
    use super::capacity_for;

    #[test]
    fn grows_logarithmically() {
        assert_eq!(capacity_for(2, 1.0, 1), 1);
        assert_eq!(capacity_for(1024, 1.0, 1), 10);
        assert_eq!(capacity_for(1 << 20, 1.0, 1), 20);
    }

    #[test]
    fn respects_minimum() {
        assert_eq!(capacity_for(2, 1.0, 4), 4);
        assert_eq!(capacity_for(1024, 2.0, 4), 20);
    }

    #[test]
    fn never_zero() {
        assert_eq!(capacity_for(1, 0.0, 0), 1);
    }
}
