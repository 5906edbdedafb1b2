//! Network construction and the engine entry points.
//!
//! A [`Network`] owns the simulated ID space and configuration; protocols
//! — [`NodeProtocol`] state machines — run on it through
//! [`Network::run_protocol`] (the **batched step-function executor**,
//! `shard.rs`: stepped in bulk over ownership shards, allocation-free
//! counting-sort routing, millions of nodes) or
//! [`Network::run_protocol_on`], which also takes a sink and reaches the
//! **reference interpreter** (`reference.rs`) the differential suites
//! compare against. Both are a loop over a [`Run`],
//! which [`Network::start`] hands back as a value its caller steps one
//! round at a time; a [`Job`] owns a run and the assembly of its result.

use crate::config::{Config, EngineKind, IdAssignment};
use crate::error::SimError;
use crate::event::{reborrow, Sink};
use crate::message::NodeId;
use crate::metrics::{EngineRun, EngineStats, RunMetrics};
use crate::protocol::{NodeProtocol, NodeSeed};
use crate::route::Resolver;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// The result of a completed simulation.
#[derive(Debug)]
pub struct RunResult<R> {
    /// Per-node outputs in knowledge-path (`G_k`) order, one entry per
    /// node that finished with an output. The path order is *omniscient* test information
    /// — the nodes themselves never see it.
    pub outputs: Vec<(NodeId, R)>,
    /// Round/message/violation metrics for the run.
    pub metrics: RunMetrics,
    /// Executor-internal statistics (compactions, routing-path choices,
    /// layout, phase timers, scenario counters). Not part of the model
    /// semantics: the reference interpreter reports only what folds out of
    /// the event stream (the scenario counters; no compactions, no layout),
    /// and differential tests compare nothing else of it.
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

/// A configured NCC network, ready to run a protocol: a handle to its ID
/// list, ID resolver and configuration. A clone shares them, so every
/// [`Run`] started on the network holds one and copies no table.
#[derive(Clone)]
pub struct Network(Arc<Tables>);

/// What a [`Network`] handle shares.
struct Tables {
    config: Config,
    /// IDs in `G_k` path order (index = path position).
    ids: Vec<NodeId>,
    /// Dense ID→index resolution (one probe a send).
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
        Network(Arc::new(Tables {
            config,
            ids,
            resolver,
        }))
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.0.ids.len()
    }

    /// The per-round capacity this network enforces.
    pub fn capacity(&self) -> usize {
        self.0.config.capacity(self.n())
    }

    /// The model variant this network runs under.
    pub fn model(&self) -> crate::Model {
        self.0.config.model
    }

    /// IDs in knowledge-path order (omniscient information, for tests and
    /// workload setup).
    pub fn ids_in_path_order(&self) -> &[NodeId] {
        &self.0.ids
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
        assert_eq!(
            self.n(),
            values.len(),
            "one input value per node is required"
        );
        self.0
            .ids
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect()
    }

    pub(crate) fn config(&self) -> &Config {
        &self.0.config
    }

    pub(crate) fn resolver(&self) -> &Resolver {
        &self.0.resolver
    }

    /// Sets up a run of `factory`-built protocols on the chosen engine,
    /// one at every path position, and hands it back for its caller to
    /// step. The run keeps a handle to this network.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidScenario`] if the configured scenario does not
    /// fit the network.
    pub fn start<P, F>(&self, engine: EngineKind, factory: F) -> Result<Run<P>, SimError>
    where
        P: NodeProtocol,
        F: Fn(&NodeSeed<'_>) -> P,
    {
        let engine = match engine {
            EngineKind::Batched => {
                Engine::Batched(Box::new(crate::shard::Run::new(self, factory)?))
            }
            EngineKind::Reference => {
                Engine::Reference(Box::new(crate::reference::Run::new(self, factory)?))
            }
        };
        Ok(Run {
            net: self.clone(),
            engine,
        })
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
    /// and protocol panics.
    pub fn run_protocol<P, F>(&self, factory: F) -> Result<RunResult<P::Output>, SimError>
    where
        P: NodeProtocol,
        F: Fn(&NodeSeed<'_>) -> P + Sync,
    {
        let mut run = self.start(EngineKind::Batched, factory)?;
        while run.round(None)? {}
        Ok(run.finish(None))
    }

    /// Unified engine dispatch: runs a [`NodeProtocol`] on the chosen
    /// [`EngineKind`](crate::EngineKind), with the run's
    /// [`RunEvent`](crate::RunEvent) stream delivered into `sink` (pass
    /// `None` to run unobserved).
    ///
    /// The second parameter is a placeholder only `None` fits, kept so
    /// the frozen `e2e` benchmark's call compiles; the next benchmark
    /// change drops it.
    ///
    /// # Errors
    ///
    /// As for [`Network::run_protocol`].
    pub fn run_protocol_on<P, F>(
        &self,
        engine: EngineKind,
        _: Option<std::convert::Infallible>,
        mut sink: Option<&mut dyn Sink>,
        factory: F,
    ) -> Result<RunResult<P::Output>, SimError>
    where
        P: NodeProtocol,
        F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
    {
        let mut run = self.start(engine, factory)?;
        while run.round(reborrow(&mut sink))? {}
        Ok(run.finish(sink))
    }
}

/// One protocol run as a value its caller steps: built by
/// [`Network::start`], advanced by [`Run::round`] until that returns
/// `Ok(false)`, closed by [`Run::finish`]. It holds a handle to the
/// network it was started on and borrows nothing, so its owner can keep
/// it anywhere and stand between any two rounds.
pub struct Run<P: NodeProtocol> {
    net: Network,
    engine: Engine<P>,
}

/// The engine a [`Run`] executes on.
enum Engine<P: NodeProtocol> {
    Batched(Box<crate::shard::Run<P>>),
    Reference(Box<crate::reference::Run<P>>),
}

impl<P: NodeProtocol> Run<P> {
    /// Executes one round, narrating it into `sink` (`None` runs it
    /// unobserved). `Ok(false)` once every node has retired: the rounds
    /// are over and [`Run::finish`] is left.
    ///
    /// # Errors
    ///
    /// As for [`Network::run_protocol`]; the run is over then.
    pub fn round(&mut self, sink: Option<&mut dyn Sink>) -> Result<bool, SimError> {
        match &mut self.engine {
            Engine::Batched(run) => run.round(sink),
            Engine::Reference(run) => run.round(sink),
        }
    }

    /// Closes the run after its last round: narrates
    /// [`RunEvent::Done`](crate::RunEvent::Done) into `sink` and returns
    /// the outputs, metrics and executor statistics.
    pub fn finish(self, sink: Option<&mut dyn Sink>) -> RunResult<P::Output> {
        match self.engine {
            Engine::Batched(run) => run.finish(sink),
            Engine::Reference(run) => run.finish(sink),
        }
    }
}

/// Something stepped round by round and then closed into an `R`: either
/// engine's run, and what a [`Job`] boxes.
pub(crate) trait Steps<R>: Send {
    fn round(&mut self, sink: Option<&mut dyn Sink>) -> Result<bool, SimError>;
    fn finish(self: Box<Self>, sink: Option<&mut dyn Sink>) -> R;
}

/// A run and the assembly that turns its result into its caller's
/// output: what an engine room hands out, so that its caller can step the
/// run, round by round or to the end ([`Job::drive`]).
pub struct Job<T>(Box<dyn Steps<Result<EngineRun<T>, SimError>>>);

/// A run and its assembly.
struct Owned<P: NodeProtocol, A> {
    run: Run<P>,
    assemble: A,
}

impl<P, A, T> Steps<Result<EngineRun<T>, SimError>> for Owned<P, A>
where
    P: NodeProtocol,
    A: FnOnce(&Network, RunResult<P::Output>, Option<&mut dyn Sink>) -> Result<T, SimError> + Send,
{
    fn round(&mut self, sink: Option<&mut dyn Sink>) -> Result<bool, SimError> {
        self.run.round(sink)
    }

    fn finish(self: Box<Self>, mut sink: Option<&mut dyn Sink>) -> Result<EngineRun<T>, SimError> {
        let Owned { run, assemble } = *self;
        let net = run.net.clone();
        let mut result = run.finish(reborrow(&mut sink));
        let engine = std::mem::take(&mut result.engine);
        let output = assemble(&net, result, sink)?;
        Ok(EngineRun { output, engine })
    }
}

/// A job whose output is mapped ([`Job::map`]).
struct Mapped<T, F>(Job<T>, F);

impl<T, U, F: FnOnce(T) -> U + Send> Steps<Result<EngineRun<U>, SimError>> for Mapped<T, F> {
    fn round(&mut self, sink: Option<&mut dyn Sink>) -> Result<bool, SimError> {
        self.0.round(sink)
    }

    fn finish(self: Box<Self>, sink: Option<&mut dyn Sink>) -> Result<EngineRun<U>, SimError> {
        let EngineRun { output, engine } = self.0.finish(sink)?;
        Ok(EngineRun {
            output: (self.1)(output),
            engine,
        })
    }
}

impl<T> Job<T> {
    /// Owns `run` and its assembly. `assemble` turns the closed run's
    /// result (its statistics taken out) into the job's output, given the
    /// run's network; it gets the sink after the engine's `Done` and may
    /// keep narrating. An output that does not assemble is an error
    /// ([`SimError::Assembly`]).
    pub fn new<P, A>(run: Run<P>, assemble: A) -> Self
    where
        P: NodeProtocol + 'static,
        A: FnOnce(&Network, RunResult<P::Output>, Option<&mut dyn Sink>) -> Result<T, SimError>
            + Send
            + 'static,
    {
        Job(Box::new(Owned { run, assemble }))
    }

    /// Executes one round of the run ([`Run::round`]).
    ///
    /// # Errors
    ///
    /// As for [`Run::round`].
    pub fn round(&mut self, sink: Option<&mut dyn Sink>) -> Result<bool, SimError> {
        self.0.round(sink)
    }

    /// Closes the run after its last round and assembles the output.
    ///
    /// # Errors
    ///
    /// [`SimError::Assembly`] when the outputs do not assemble.
    pub fn finish(self, sink: Option<&mut dyn Sink>) -> Result<EngineRun<T>, SimError> {
        self.0.finish(sink)
    }

    /// Steps the run to its end, then closes it.
    ///
    /// # Errors
    ///
    /// As for [`Run::round`] and [`Job::finish`].
    pub fn drive(mut self, mut sink: Option<&mut dyn Sink>) -> Result<EngineRun<T>, SimError> {
        while self.round(reborrow(&mut sink))? {}
        self.finish(sink)
    }

    /// The same job with `f` applied to its output.
    pub fn map<U>(self, f: impl FnOnce(T) -> U + Send + 'static) -> Job<U>
    where
        T: 'static,
    {
        Job(Box::new(Mapped(self, f)))
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

/// Fixtures shared by the engine unit tests of this crate.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::message::tags;
    use crate::protocol::{RoundCtx, Status};
    use crate::{EngineKind, WireMsg};

    /// A protocol from a closure polled once per round.
    pub(crate) struct Script<F>(pub(crate) F);

    impl<R: Send, F: FnMut(&mut RoundCtx<'_>) -> Status<R> + Send> NodeProtocol for Script<F> {
        type Output = R;

        fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<R> {
            (self.0)(ctx)
        }
    }

    /// Runs the scripted protocol on both engines, asserting they agree
    /// on outputs and metrics (or on the error), and returns one result.
    pub(crate) fn on_both_engines<R, F, S>(
        net: &Network,
        script: S,
    ) -> Result<RunResult<R>, SimError>
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
    pub(crate) fn send_then_count(
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
}

#[cfg(test)]
mod tests {
    use super::testing::{on_both_engines, send_then_count, Script};
    use super::*;
    use crate::message::tags;
    use crate::protocol::{RoundCtx, Status};
    use crate::WireMsg;

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

    #[test]
    fn a_clone_shares_the_networks_tables() {
        let net = Network::new(16, Config::ncc0(5));
        let clone = net.clone();
        assert!(std::ptr::eq(
            clone.ids_in_path_order(),
            net.ids_in_path_order()
        ));
    }

    /// A run stepped from outside holds the same tables as the loop
    /// `run_protocol` drives: its handle to the network copies none.
    #[test]
    fn stepping_from_outside_holds_the_same_tables() {
        for shards in [1, 4] {
            let net = Network::new(64, Config::ncc0(6).with_shards(shards));
            let factory = |seed: &NodeSeed<'_>| {
                Script(send_then_count(
                    seed.initial_successor.into_iter().collect(),
                    3,
                ))
            };
            let looped = net.run_protocol(factory).unwrap();
            let mut run = net.start(EngineKind::Batched, factory).unwrap();
            while run.round(None).unwrap() {}
            let stepped = run.finish(None);
            assert_eq!(stepped.outputs, looped.outputs);
            let tables = |result: &RunResult<usize>| result.engine.footprint.tables;
            assert!(tables(&looped) > 0);
            assert_eq!(tables(&stepped), tables(&looped), "{shards} shard(s)");
        }
    }

    /// Runs and jobs can be handed to a long-lived worker thread for
    /// good: a compile-time check over every protocol and output.
    #[test]
    fn runs_and_jobs_can_move_to_a_worker() {
        fn send_static<X: Send + 'static>() {}
        fn send<X: Send>() {}
        fn every<P: NodeProtocol + 'static, T>() {
            send_static::<Run<P>>();
            send::<Job<T>>();
        }
        every::<Script<fn(&mut RoundCtx<'_>) -> Status<()>>, ()>();
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
