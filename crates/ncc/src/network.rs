//! Network construction and the engine entry points.
//!
//! A [`Network`] owns the simulated ID space and configuration; protocols
//! run on it through one of two engines:
//!
//! * [`Network::run_protocol`] — the **batched step-function executor**
//!   ([`batch`](crate::batch)): protocols are [`NodeProtocol`] state
//!   machines stepped in bulk by a rayon worker pool, with allocation-free
//!   counting-sort routing. This is the production engine; it simulates
//!   millions of nodes.
//! * [`Network::run`] — the **threaded oracle** (`threaded` feature):
//!   direct-style blocking closures, one OS thread per node. Tops out
//!   around `n ≈ 10⁴`; kept for the direct-style algorithm stack and as
//!   the differential-testing oracle
//!   ([`Network::run_protocol_threaded`] runs the *same* state machines
//!   on it, for transcript comparison).

use crate::config::{Config, IdAssignment};
use crate::error::SimError;
use crate::event::Sink;
use crate::message::NodeId;
use crate::metrics::{EngineStats, RunMetrics};
use crate::protocol::{NodeProtocol, NodeSeed};
use crate::route::Resolver;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The result of a completed simulation.
#[derive(Debug)]
pub struct RunResult<R> {
    /// Per-node outputs in knowledge-path (`G_k`) order, one entry per
    /// participating node. The path order is *omniscient* test information
    /// — the nodes themselves never see it.
    pub outputs: Vec<(NodeId, R)>,
    /// Round/message/violation metrics for the run.
    pub metrics: RunMetrics,
    /// Executor-internal statistics (compactions, routing-path choices).
    /// Not part of the model semantics: the threaded oracle reports
    /// all-zero stats, and differential tests must not compare them.
    pub engine: EngineStats,
}

impl<R> RunResult<R> {
    /// Output of the node with the given ID.
    pub fn output_of(&self, id: NodeId) -> Option<&R> {
        self.outputs.iter().find(|(i, _)| *i == id).map(|(_, r)| r)
    }

    /// IDs in knowledge-path order (ground truth for verification).
    pub fn gk_order(&self) -> Vec<NodeId> {
        self.outputs.iter().map(|(id, _)| *id).collect()
    }
}

/// A configured NCC network, ready to run a protocol.
pub struct Network {
    n: usize,
    config: Config,
    /// IDs in `G_k` path order (index = path position).
    ids: Vec<NodeId>,
    /// Dense ID→index resolution (no hashing on the send path).
    resolver: Resolver,
}

impl Network {
    /// Creates an `n`-node network. IDs and the knowledge-path order are
    /// derived deterministically from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, config: Config) -> Self {
        assert!(n > 0, "a network needs at least one node");
        let ids = assign_ids(n, &config);
        let resolver = Resolver::build(&ids, config.id_assignment);
        Network {
            n,
            config,
            ids,
            resolver,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-round capacity this network enforces.
    pub fn capacity(&self) -> usize {
        self.config.capacity(self.n)
    }

    /// The model variant this network runs under.
    pub fn model(&self) -> crate::Model {
        self.config.model
    }

    /// IDs in knowledge-path order (omniscient information, for tests and
    /// workload setup).
    pub fn ids_in_path_order(&self) -> &[NodeId] {
        &self.ids
    }

    /// Zips per-node inputs onto the IDs in knowledge-path order:
    /// `values[i]` is assigned to the `i`-th node of `G_k`. The standard
    /// driver bookkeeping for wiring a workload onto a network. Returns
    /// an ordered map: driver output assembly iterates these
    /// assignments, and iteration order must not depend on a per-process
    /// hash seed (the `unordered-iteration` detlint rule).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    pub fn assign_in_path_order<T: Copy>(
        &self,
        values: &[T],
    ) -> std::collections::BTreeMap<NodeId, T> {
        assert_eq!(self.n, values.len(), "one input value per node is required");
        self.ids
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect()
    }

    pub(crate) fn config(&self) -> &Config {
        &self.config
    }

    pub(crate) fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Runs a [`NodeProtocol`] state machine at every node on the
    /// **batched executor**. `factory` builds each node's protocol from
    /// its [`NodeSeed`] (the model's initial knowledge); the same factory
    /// runs at every node — exactly the "same algorithm at every node"
    /// setting of the model.
    ///
    /// # Errors
    ///
    /// Propagates model violations (strict policy), round-limit overruns
    /// and protocol panics, like the threaded engine.
    pub fn run_protocol<P, F>(&self, factory: F) -> Result<RunResult<P::Output>, SimError>
    where
        P: NodeProtocol,
        F: Fn(&NodeSeed<'_>) -> P + Sync,
    {
        crate::shard::run(self, None, None, factory)
    }

    /// Unified engine dispatch: runs a [`NodeProtocol`] on the chosen
    /// [`EngineKind`](crate::EngineKind), optionally masked to a
    /// participant subset, with the run's [`RunEvent`](crate::RunEvent)
    /// stream delivered into `sink` (pass `None` to run unobserved).
    /// This is the single entry point the `Realization` facade drives;
    /// the per-engine methods remain for direct use.
    ///
    /// # Errors
    ///
    /// As for [`Network::run_protocol`]. Requesting
    /// [`EngineKind::Threaded`](crate::EngineKind) in a build without the
    /// `threaded` feature returns [`SimError::EngineUnavailable`].
    ///
    /// # Panics
    ///
    /// Panics if a mask is given and `participants.len() != n`.
    pub fn run_protocol_on<P, F>(
        &self,
        engine: crate::EngineKind,
        participants: Option<&[bool]>,
        sink: Option<&mut dyn Sink>,
        factory: F,
    ) -> Result<RunResult<P::Output>, SimError>
    where
        P: NodeProtocol,
        F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
    {
        match engine {
            crate::EngineKind::Batched => crate::shard::run(self, participants, sink, factory),
            crate::EngineKind::Reference => {
                crate::reference::run(self, participants, sink, factory)
            }
            #[cfg(feature = "threaded")]
            crate::EngineKind::Threaded => {
                let alive;
                let mask = match participants {
                    Some(mask) => mask,
                    None => {
                        alive = vec![true; self.n];
                        &alive
                    }
                };
                self.protocol_threaded(mask, sink, factory)
            }
            #[cfg(not(feature = "threaded"))]
            crate::EngineKind::Threaded => {
                let _ = sink;
                Err(SimError::EngineUnavailable)
            }
        }
    }

    /// Like [`Network::run_protocol`], but only the masked-in nodes
    /// participate: masked-out indices are dead from round zero, the
    /// knowledge path `G_k` links across them, and they produce no output.
    /// (The capacity is still derived from the full `n`.)
    ///
    /// # Errors
    ///
    /// As for [`Network::run_protocol`].
    ///
    /// # Panics
    ///
    /// Panics if `participants.len() != n`.
    pub fn run_protocol_masked<P, F>(
        &self,
        participants: &[bool],
        factory: F,
    ) -> Result<RunResult<P::Output>, SimError>
    where
        P: NodeProtocol,
        F: Fn(&NodeSeed<'_>) -> P + Sync,
    {
        crate::shard::run(self, Some(participants), None, factory)
    }
}

/// The thread-per-node oracle entry points.
#[cfg(feature = "threaded")]
mod threaded_runner {
    use super::*;
    use crate::engine::{Coordinator, Delivery, Submission};
    use crate::error::panic_message;
    use crate::handle::{NodeHandle, POISON_PANIC};
    use crate::message::Msg;
    use crate::protocol::{RoundCtx, Status};
    use crate::wire::{WireEnvelope, NO_INDEX};
    use crate::Model;
    use crossbeam::channel;
    use parking_lot::Mutex;
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    /// Stack size for node threads. Protocols are shallow (no deep
    /// recursion on the node side), so small stacks let us simulate
    /// thousands of nodes.
    const NODE_STACK_BYTES: usize = 512 * 1024;

    impl Network {
        /// Runs `node_fn` on every node (thread-per-node) until all
        /// protocol functions return. Direct style: the closure blocks in
        /// [`NodeHandle::step`] at every round boundary.
        ///
        /// # Errors
        ///
        /// Propagates model violations (strict policy), round-limit
        /// overruns and protocol panics.
        pub fn run<F, R>(&self, node_fn: F) -> Result<RunResult<R>, SimError>
        where
            F: Fn(&mut NodeHandle) -> R + Send + Sync,
            R: Send,
        {
            let alive = vec![true; self.n];
            self.run_threaded_masked(&alive, None, node_fn)
        }

        /// Like [`Network::run`], with the run's
        /// [`RunEvent`](crate::RunEvent) stream delivered into `sink`.
        ///
        /// # Errors
        ///
        /// As for [`Network::run`].
        pub fn run_observed<F, R>(
            &self,
            sink: Option<&mut dyn Sink>,
            node_fn: F,
        ) -> Result<RunResult<R>, SimError>
        where
            F: Fn(&mut NodeHandle) -> R + Send + Sync,
            R: Send,
        {
            let alive = vec![true; self.n];
            self.run_threaded_masked(&alive, sink, node_fn)
        }

        /// Runs the same [`NodeProtocol`] state machines the batched
        /// executor runs, but on the threaded oracle — the differential
        /// tests compare the two transcripts.
        ///
        /// # Errors
        ///
        /// As for [`Network::run`].
        pub fn run_protocol_threaded<P, F>(
            &self,
            factory: F,
        ) -> Result<RunResult<P::Output>, SimError>
        where
            P: NodeProtocol,
            F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
        {
            let alive = vec![true; self.n];
            self.protocol_threaded(&alive, None, factory)
        }

        /// The threaded twin of [`Network::run_protocol_masked`]: runs the
        /// state machines over the masked-in nodes only, with the
        /// knowledge path linking across masked-out indices. Exists so
        /// masked batched runs (the paper-exact sub-network recursions)
        /// have a transcript-identical differential oracle.
        ///
        /// # Errors
        ///
        /// As for [`Network::run`].
        ///
        /// # Panics
        ///
        /// Panics if `participants.len() != n`.
        pub fn run_protocol_threaded_masked<P, F>(
            &self,
            participants: &[bool],
            factory: F,
        ) -> Result<RunResult<P::Output>, SimError>
        where
            P: NodeProtocol,
            F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
        {
            self.protocol_threaded(participants, None, factory)
        }

        /// The state-machine wrapper over the thread-per-node engine: the
        /// sink-threading target of [`Network::run_protocol_on`].
        pub(crate) fn protocol_threaded<P, F>(
            &self,
            participants: &[bool],
            sink: Option<&mut dyn Sink>,
            factory: F,
        ) -> Result<RunResult<P::Output>, SimError>
        where
            P: NodeProtocol,
            F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
        {
            let resolver = self.resolver();
            self.run_threaded_masked(participants, sink, move |h| {
                let seed = NodeSeed {
                    id: h.id,
                    n: h.n,
                    participants: h.participants,
                    capacity: h.capacity,
                    model: h.model,
                    initial_successor: h.initial_successor,
                    all_ids: h.all_ids.as_ref(),
                };
                let mut proto = factory(&seed);
                let mut inbox: Vec<WireEnvelope> = Vec::new();
                let mut out: Vec<WireEnvelope> = Vec::new();
                loop {
                    let mut phase_mark = None;
                    let mut stage_mark = None;
                    let status = {
                        let mut ctx = RoundCtx {
                            id: h.id,
                            n: h.n,
                            participants: h.participants,
                            capacity: h.capacity,
                            model: h.model,
                            initial_successor: h.initial_successor,
                            all_ids: h.all_ids.as_deref().map(Vec::as_slice),
                            round: h.round,
                            rng: &mut h.rng,
                            inbox: &inbox,
                            out: &mut out,
                            resolver,
                            // The threaded oracle keeps full-width per-node
                            // state even on masked runs; no dense remap.
                            dense_of: None,
                            phase_mark: &mut phase_mark,
                            stage_mark: &mut stage_mark,
                        };
                        proto.step(&mut ctx)
                    };
                    match status {
                        Status::Done(output) => {
                            // Marks staged in a Done step are discarded,
                            // exactly like the batched executor.
                            debug_assert!(
                                out.is_empty(),
                                "node {} staged sends in a Done step (discarded)",
                                h.id
                            );
                            return output;
                        }
                        Status::Continue => {
                            let sends: Vec<(NodeId, Msg)> = out
                                .drain(..)
                                .map(|env| (env.dst, env.msg.to_msg()))
                                .collect();
                            h.marks = (phase_mark, stage_mark);
                            inbox = h
                                .step(sends)
                                .iter()
                                .map(|e| WireEnvelope {
                                    src: e.src,
                                    msg: crate::wire::WireMsg::from_msg(&e.msg),
                                    dst: h.id,
                                    dst_idx: NO_INDEX,
                                })
                                .collect();
                        }
                    }
                }
            })
        }

        /// Thread-per-node run over a participant mask (masked-out nodes
        /// never spawn; the knowledge path links across them).
        fn run_threaded_masked<F, R>(
            &self,
            alive: &[bool],
            sink: Option<&mut dyn Sink>,
            node_fn: F,
        ) -> Result<RunResult<R>, SimError>
        where
            F: Fn(&mut NodeHandle) -> R + Send + Sync,
            R: Send,
        {
            let n = self.n;
            assert_eq!(alive.len(), n, "participant mask length must equal n");
            if let Some(s) = &self.config().scenario {
                return Err(SimError::InvalidScenario(format!(
                    "the threaded oracle cannot run scenarios (scenario seed {} \
                     with {} event(s) was configured); use the batched engine",
                    s.seed(),
                    s.events().len(),
                )));
            }
            let capacity = self.capacity();
            let (to_coord, from_nodes) = channel::unbounded::<Submission>();
            let mut to_nodes = Vec::with_capacity(n);
            let mut node_rx = Vec::with_capacity(n);
            for _ in 0..n {
                let (tx, rx) = channel::unbounded::<Delivery>();
                to_nodes.push(tx);
                node_rx.push(Some(rx));
            }

            let all_ids: Option<Arc<Vec<NodeId>>> = match self.config.model {
                Model::Ncc1 => {
                    let mut sorted: Vec<NodeId> =
                        (0..n).filter(|&i| alive[i]).map(|i| self.ids[i]).collect();
                    sorted.sort_unstable();
                    Some(Arc::new(sorted))
                }
                Model::Ncc0 => None,
            };

            // detlint: allow(relaxed-atomic) — threaded-oracle output collection: each node
            // thread writes only its own pre-assigned slot index, exactly once at Done, and
            // the vec is read only after every thread is joined — slot-indexed writes are
            // order-independent.
            let outputs: Arc<Mutex<Vec<Option<R>>>> =
                Arc::new(Mutex::new((0..n).map(|_| None).collect())); // detlint: allow(relaxed-atomic) — continuation of the slot-indexed statement above
            let node_fn = &node_fn;
            let participant_count = alive.iter().filter(|&&a| a).count();

            let mut coordinator = Coordinator::new(
                self.config.clone(),
                self.ids.clone(),
                alive.to_vec(),
                from_nodes,
                to_nodes,
                sink,
            );

            let result: Result<(), SimError> = std::thread::scope(|scope| {
                for index in (0..n).filter(|&i| alive[i]) {
                    let id = self.ids[index];
                    let succ = (index + 1..n).find(|&j| alive[j]).map(|j| self.ids[j]);
                    let rx = node_rx[index].take().expect("receiver taken twice");
                    let to_coord = to_coord.clone();
                    let all_ids = all_ids.clone();
                    let outputs = Arc::clone(&outputs);
                    let model = self.config.model;
                    let seed = self.config.seed;
                    std::thread::Builder::new()
                        .name(format!("ncc-node-{id}"))
                        .stack_size(NODE_STACK_BYTES)
                        .spawn_scoped(scope, move || {
                            let mut handle = NodeHandle::new(
                                id,
                                index,
                                n,
                                participant_count,
                                capacity,
                                model,
                                succ,
                                all_ids,
                                seed,
                                to_coord.clone(),
                                rx,
                            );
                            let run =
                                std::panic::catch_unwind(AssertUnwindSafe(|| node_fn(&mut handle)));
                            match run {
                                Ok(out) => {
                                    outputs.lock()[index] = Some(out);
                                    let _ = to_coord.send(Submission::Done { index });
                                }
                                Err(payload) => {
                                    let message = panic_message(payload.as_ref());
                                    if message == POISON_PANIC {
                                        // Engine-initiated unwind; the engine
                                        // already knows why.
                                        let _ = to_coord.send(Submission::Done { index });
                                    } else {
                                        let _ =
                                            to_coord.send(Submission::Panicked { index, message });
                                    }
                                }
                            }
                        })
                        .expect("failed to spawn node thread");
                }
                drop(to_coord); // coordinator's recv() errors once all nodes finish
                coordinator.run_rounds()
            });

            result?;
            let engine = coordinator.engine_stats();
            let metrics = coordinator.metrics;
            let mut outs = Vec::with_capacity(n);
            let mut guard = outputs.lock();
            for (index, slot) in guard.iter_mut().enumerate() {
                if !alive[index] {
                    continue;
                }
                let r = slot.take().expect("node finished without output");
                outs.push((self.ids[index], r));
            }
            Ok(RunResult {
                outputs: outs,
                metrics,
                engine,
            })
        }
    }
}

/// Generates distinct IDs in path order according to the config.
fn assign_ids(n: usize, config: &Config) -> Vec<NodeId> {
    match config.id_assignment {
        IdAssignment::Sequential => (1..=n as NodeId).collect(),
        IdAssignment::Random => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD1CE_CAFE_F00D_BEEF);
            // IDs from [1, n^3] (c = 3), distinct.
            let hi = (n as u128).pow(3).min(u64::MAX as u128) as u64;
            let hi = hi.max(n as u64 + 1);
            let mut seen = HashSet::with_capacity(n);
            let mut ids: Vec<NodeId> = Vec::with_capacity(n);
            while ids.len() < n {
                let id = rng.gen_range(1..=hi);
                if seen.insert(id) {
                    ids.push(id);
                }
            }
            // Shuffle so ID magnitude carries no correlation with draw order.
            ids.shuffle(&mut rng);
            ids
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{tags, Msg};

    #[test]
    fn ids_are_distinct_and_deterministic() {
        let a = assign_ids(100, &Config::ncc0(7));
        let b = assign_ids(100, &Config::ncc0(7));
        assert_eq!(a, b);
        let set: HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 100);
        let c = assign_ids(100, &Config::ncc0(8));
        assert_ne!(a, c);
    }

    #[test]
    fn sequential_ids_follow_path_order() {
        let ids = assign_ids(5, &Config::ncc0(0).with_sequential_ids());
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[cfg(feature = "threaded")]
    mod threaded {
        use super::*;
        use crate::SimError;

        #[test]
        fn zero_round_protocol() {
            let net = Network::new(4, Config::ncc0(1));
            let result = net.run(|h| h.id()).unwrap();
            assert_eq!(result.metrics.rounds, 0);
            assert_eq!(result.outputs.len(), 4);
            for (id, out) in &result.outputs {
                assert_eq!(id, out);
            }
        }

        #[test]
        fn single_node_network() {
            let net = Network::new(1, Config::ncc0(1));
            let result = net.run(|h| {
                assert!(h.initial_successor().is_none());
                h.idle();
                h.n()
            });
            let result = result.unwrap();
            assert_eq!(result.metrics.rounds, 1);
            assert_eq!(result.outputs[0].1, 1);
        }

        #[test]
        fn undirect_round_finds_unique_head() {
            let net = Network::new(16, Config::ncc0(3));
            let result = net
                .run(|h| {
                    let out = h
                        .initial_successor()
                        .map(|s| (s, Msg::signal(tags::UNDIRECT)))
                        .into_iter()
                        .collect();
                    let inbox = h.step(out);
                    inbox.first().map(|e| e.src)
                })
                .unwrap();
            let heads = result.outputs.iter().filter(|(_, p)| p.is_none()).count();
            assert_eq!(heads, 1);
            // The head is the first node in path order.
            assert!(result.outputs[0].1.is_none());
            // Everyone else's predecessor is the previous node on the path.
            let order = result.gk_order();
            for i in 1..order.len() {
                assert_eq!(result.outputs[i].1, Some(order[i - 1]));
            }
            assert!(result.metrics.is_clean());
        }

        #[test]
        fn ncc1_exposes_sorted_ids() {
            let net = Network::new(8, Config::ncc1(9));
            let result = net
                .run(|h| {
                    let ids = h.all_ids().to_vec();
                    assert!(ids.windows(2).all(|w| w[0] < w[1]));
                    ids.len()
                })
                .unwrap();
            assert!(result.outputs.iter().all(|(_, l)| *l == 8));
        }

        #[test]
        fn node_panic_is_reported() {
            let net = Network::new(3, Config::ncc0(1));
            let err = net
                .run(|h| {
                    if h.initial_successor().is_none() {
                        panic!("intentional test panic");
                    }
                    h.idle();
                })
                .unwrap_err();
            match err {
                SimError::NodePanic { message, .. } => {
                    assert!(message.contains("intentional"))
                }
                other => panic!("expected NodePanic, got {other}"),
            }
        }

        #[test]
        fn strict_unknown_addressee_is_fatal() {
            let net = Network::new(4, Config::ncc0(1));
            let bogus: NodeId = net.ids_in_path_order()[0];
            // Node 3 (tail) does not know the head's ID; sending to it is a
            // KT0 violation.
            let tail = *net.ids_in_path_order().last().unwrap();
            let err = net
                .run(move |h| {
                    let out = if h.id() == tail && bogus != tail {
                        vec![(bogus, Msg::signal(tags::GENERIC))]
                    } else {
                        vec![]
                    };
                    h.step(out);
                })
                .unwrap_err();
            assert!(matches!(err, SimError::Violation(_)), "got {err}");
        }

        #[test]
        fn record_policy_counts_but_continues() {
            let mut config = Config::ncc0(1);
            config.capacity_policy = crate::CapacityPolicy::Record;
            let net = Network::new(4, config);
            let head = net.ids_in_path_order()[0];
            let tail = *net.ids_in_path_order().last().unwrap();
            let result = net
                .run(move |h| {
                    let out = if h.id() == tail {
                        vec![(head, Msg::signal(tags::GENERIC))]
                    } else {
                        vec![]
                    };
                    h.step(out).len()
                })
                .unwrap();
            assert_eq!(result.metrics.violations.unknown_addressee, 1);
            // Lenient policy still delivers when physically possible.
            assert_eq!(*result.output_of(head).unwrap(), 1);
        }

        #[test]
        fn round_limit_aborts() {
            let mut config = Config::ncc0(1);
            config.max_rounds = 5;
            let net = Network::new(2, config);
            let err = net
                .run(|h| {
                    for _ in 0..100 {
                        h.idle();
                    }
                })
                .unwrap_err();
            assert!(matches!(err, SimError::RoundLimitExceeded { .. }));
        }

        #[test]
        fn queue_policy_paces_fan_in() {
            // Everyone sends to the head in the same round; with n=64 and
            // cap well below 63 the queue policy must spread delivery over
            // rounds.
            let mut config = Config::ncc0(1);
            config.capacity_policy = crate::CapacityPolicy::Queue;
            config.track_knowledge = false; // everyone addresses the head
            let net = Network::new(64, config.clone());
            let cap = net.capacity();
            assert!(cap < 63, "test requires cap < n-1, got {cap}");
            let head = net.ids_in_path_order()[0];
            let wait = (63 / cap) as u64 + 2;
            let result = net
                .run(move |h| {
                    let out = if h.id() == head {
                        vec![]
                    } else {
                        vec![(head, Msg::signal(tags::GENERIC))]
                    };
                    let mut got = h.step(out).len();
                    for _ in 0..wait {
                        got += h.idle().len();
                    }
                    got
                })
                .unwrap();
            assert_eq!(*result.output_of(head).unwrap(), 63);
            assert_eq!(result.metrics.max_received_per_round, cap);
            assert!(result.metrics.max_queue_len > 0);
            assert_eq!(result.metrics.undelivered, 0);
        }

        #[test]
        fn deterministic_replay() {
            let run = || {
                let net = Network::new(32, Config::ncc0(42));
                net.run(|h| {
                    // Las Vegas-style random messaging to the successor.
                    let r: u64 = rand::Rng::gen_range(h.rng(), 0..100);
                    let out = h
                        .initial_successor()
                        .map(|s| (s, Msg::word(tags::GENERIC, r)))
                        .into_iter()
                        .collect();
                    let inbox = h.step(out);
                    inbox.first().map(|e| e.word()).unwrap_or(0)
                })
                .unwrap()
            };
            let a = run();
            let b = run();
            assert_eq!(
                a.outputs.iter().map(|(i, o)| (*i, *o)).collect::<Vec<_>>(),
                b.outputs.iter().map(|(i, o)| (*i, *o)).collect::<Vec<_>>()
            );
            assert_eq!(a.metrics.messages, b.metrics.messages);
        }
    }
}
