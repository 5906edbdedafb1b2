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
    use crate::message::tags;
    use crate::protocol::{RoundCtx, Status};
    use crate::{EngineKind, WireMsg};

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

    /// A protocol from a closure polled once per round.
    struct Script<F>(F);

    impl<R: Send, F: FnMut(&mut RoundCtx<'_>) -> Status<R> + Send> NodeProtocol for Script<F> {
        type Output = R;

        fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<R> {
            (self.0)(ctx)
        }
    }

    /// Runs the scripted protocol on both engines, asserting they agree
    /// on outputs and metrics (or on the error), and returns one result.
    fn on_both_engines<R, F, S>(net: &Network, script: S) -> Result<RunResult<R>, SimError>
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: FnMut(&mut RoundCtx<'_>) -> Status<R> + Send,
        S: Fn(&NodeSeed<'_>) -> F + Send + Sync,
    {
        let run = |engine| net.run_protocol_on(engine, None, None, |seed| Script(script(seed)));
        let (batched, reference) = (run(EngineKind::Batched), run(EngineKind::Reference));
        match (&batched, &reference) {
            (Ok(b), Ok(r)) => {
                assert_eq!(b.outputs, r.outputs);
                assert_eq!(b.metrics, r.metrics);
            }
            (Err(b), Err(r)) => assert_eq!(b.to_string(), r.to_string()),
            _ => panic!("one engine failed, the other did not"),
        }
        batched
    }

    /// Sends `out` in round 0, then listens for `wait` more rounds;
    /// outputs the number of messages received.
    fn send_then_count(
        out: Vec<NodeId>,
        wait: u64,
    ) -> impl FnMut(&mut RoundCtx<'_>) -> Status<usize> + Send {
        let mut got = 0;
        move |ctx| {
            got += ctx.inbox().len();
            if ctx.round() == 0 {
                for &dst in &out {
                    ctx.send(dst, WireMsg::signal(tags::GENERIC));
                }
            }
            if ctx.round() > wait {
                return Status::Done(got);
            }
            Status::Continue
        }
    }

    #[test]
    fn zero_round_protocol() {
        let net = Network::new(4, Config::ncc0(1));
        let result = on_both_engines(&net, |_| |ctx| Status::Done(ctx.id())).unwrap();
        assert_eq!(result.metrics.rounds, 0);
        assert_eq!(result.outputs.len(), 4);
        for (id, out) in &result.outputs {
            assert_eq!(id, out);
        }
    }

    #[test]
    fn single_node_network() {
        let net = Network::new(1, Config::ncc0(1));
        let result = on_both_engines(&net, |_| {
            |ctx| {
                assert!(ctx.initial_successor().is_none());
                match ctx.round() {
                    0 => Status::Continue,
                    _ => Status::Done(ctx.n()),
                }
            }
        })
        .unwrap();
        assert_eq!(result.metrics.rounds, 1);
        assert_eq!(result.outputs[0].1, 1);
    }

    #[test]
    fn undirect_round_finds_unique_head() {
        let net = Network::new(16, Config::ncc0(3));
        let result = on_both_engines(&net, |_| {
            |ctx| {
                if ctx.round() == 0 {
                    if let Some(succ) = ctx.initial_successor() {
                        ctx.send(succ, WireMsg::signal(tags::UNDIRECT));
                    }
                    return Status::Continue;
                }
                Status::Done(ctx.inbox().first().map(|e| e.src))
            }
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
        let result = on_both_engines(&net, |seed| {
            assert!(seed.all_ids().windows(2).all(|w| w[0] < w[1]));
            |ctx| {
                assert!(ctx.all_ids().windows(2).all(|w| w[0] < w[1]));
                Status::Done(ctx.all_ids().len())
            }
        })
        .unwrap();
        assert!(result.outputs.iter().all(|(_, l)| *l == 8));
    }

    #[test]
    fn node_panic_is_reported() {
        let net = Network::new(3, Config::ncc0(1));
        let err = on_both_engines(&net, |_| {
            |ctx| {
                if ctx.initial_successor().is_none() {
                    panic!("intentional test panic");
                }
                match ctx.round() {
                    0 => Status::Continue,
                    _ => Status::Done(()),
                }
            }
        })
        .unwrap_err();
        match err {
            SimError::NodePanic { message, node } => {
                assert!(message.contains("intentional"));
                assert_eq!(node, *net.ids_in_path_order().last().unwrap());
            }
            other => panic!("expected NodePanic, got {other}"),
        }
    }

    #[test]
    fn strict_unknown_addressee_is_fatal() {
        // The tail does not know the head's ID; sending to it is a KT0
        // violation.
        let net = Network::new(4, Config::ncc0(1));
        let head = net.ids_in_path_order()[0];
        let tail = *net.ids_in_path_order().last().unwrap();
        let err = on_both_engines(&net, |seed| {
            send_then_count(if seed.id == tail { vec![head] } else { vec![] }, 0)
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
        let result = on_both_engines(&net, |seed| {
            send_then_count(if seed.id == tail { vec![head] } else { vec![] }, 0)
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
        let err = on_both_engines(&net, |_| send_then_count(vec![], 100)).unwrap_err();
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
        let result = on_both_engines(&net, |seed| {
            send_then_count(if seed.id == head { vec![] } else { vec![head] }, wait)
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
            on_both_engines(&net, |_| {
                |ctx| {
                    // Las Vegas-style random messaging to the successor.
                    if ctx.round() == 0 {
                        let r: u64 = rand::Rng::gen_range(ctx.rng(), 0..100);
                        if let Some(succ) = ctx.initial_successor() {
                            ctx.send(succ, WireMsg::word(tags::GENERIC, r));
                        }
                        return Status::Continue;
                    }
                    Status::Done(ctx.inbox().first().map(|e| e.word()).unwrap_or(0))
                }
            })
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics.messages, b.metrics.messages);
        assert!(a.outputs.iter().any(|(_, word)| *word != 0));
    }
}
