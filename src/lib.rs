//! # Distributed Graph Realizations
//!
//! A Rust implementation of the algorithms from *Distributed Graph
//! Realizations* (Augustine, Choudhary, Cohen, Peleg, Sivasubramaniam,
//! Sourav — IPDPS 2020, arXiv:2002.05376): constructing overlay networks
//! that realize degree sequences, trees, and connectivity thresholds in the
//! node-capacitated clique (NCC) model of distributed computing.
//!
//! # The `Realization` builder
//!
//! Every realization — degree sequences (implicit, explicit, upper
//! envelope), trees (Algorithms 4 and 5), and connectivity thresholds
//! (NCC1 star, Algorithm 6, and the composed paper-exact Algorithm 6) —
//! runs through one typed entry point:
//!
//! ```
//! use distributed_graph_realizations as dgr;
//! use dgr::{Realization, Workload};
//!
//! let out = Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
//!     .seed(7)
//!     .run()
//!     .unwrap();
//! let overlay = out.degrees().expect_realized();
//! assert_eq!(overlay.graph.edge_count(), 3);
//! assert!(out.metrics().is_clean());
//! ```
//!
//! Every capability is a builder knob instead of a separate entry point:
//! the executor ([`Engine::Batched`] production engine vs the
//! [`Engine::Reference`] interpreter, the differential oracle), the
//! capacity policy, masked sub-network runs, KT0 knowledge tracking, and
//! the certification depth:
//!
//! ```
//! use distributed_graph_realizations as dgr;
//! use dgr::{CapacityPolicy, Engine, Kt0, Realization, Workload};
//!
//! // An explicit realization on the batched executor, queueing policy
//! // (the workload's default), KT0 tracking on.
//! let out = Realization::new(Workload::Explicit(vec![3, 2, 2, 2, 2, 2, 2, 1]))
//!     .engine(Engine::Batched)
//!     .policy(CapacityPolicy::Queue)
//!     .tracking(Kt0::Tracked)
//!     .seed(2026)
//!     .run()
//!     .unwrap();
//! let overlay = out.degrees().expect_realized();
//! assert_eq!(overlay.graph.edge_count(), 8);
//!
//! // A masked sub-network run: only the first three path positions
//! // participate (the engine-level form of Algorithm 6's recursion).
//! let masked = Realization::new(Workload::Envelope(vec![2, 1, 1, 0, 0]))
//!     .mask(vec![true, true, true, false, false])
//!     .seed(5)
//!     .run()
//!     .unwrap();
//! assert_eq!(masked.degrees().expect_realized().path_order.len(), 3);
//! ```
//!
//! The composed paper-exact Algorithm 6 ([`Workload::Ncc0Exact`]) and the
//! other threshold constructions return a certified
//! [`ThresholdRealization`]:
//!
//! ```
//! use distributed_graph_realizations as dgr;
//! use dgr::{Realization, Workload};
//!
//! let out = Realization::new(Workload::Ncc0Exact(vec![2, 2, 1, 1, 1]))
//!     .seed(55)
//!     .run()
//!     .unwrap();
//! assert!(out.threshold().report.satisfied);
//! ```
//!
//! # Watching runs live
//!
//! Every run narrates itself as a typed [`RunEvent`] stream.
//! [`Realization::observe`] attaches a [`Sink`] to the one-shot path;
//! [`Realization::run_streaming`] turns the run into a pull-based
//! [`RunSession`] whose `next_round()` steps the engine one round at a
//! time — six-digit runs become inspectable mid-flight:
//!
//! ```
//! use distributed_graph_realizations as dgr;
//! use dgr::{Realization, Workload};
//!
//! let mut session = Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
//!     .seed(7)
//!     .run_streaming()
//!     .unwrap();
//! let mut rounds = 0;
//! while let Some(snapshot) = session.next_round() {
//!     assert_eq!(snapshot.round, rounds);
//!     rounds += 1;
//! }
//! let out = session.finish().unwrap();
//! assert_eq!(rounds, out.metrics().rounds);
//! ```
//!
//! The workspace crates remain available underneath for white-box use:
//!
//! * [`ncc`] — the NCC0/NCC1 model simulator (rounds, capacities, KT0
//!   knowledge tracking).
//! * [`primitives`] — structural and computational primitives (contact
//!   tables and positions on a path, distributed sorting, broadcast,
//!   aggregation, multicast).
//! * [`graph`] — the verification substrate (BFS, diameter, Dinic max-flow
//!   edge connectivity).
//! * [`graphgen`] — seeded workload generators (graphic sequences,
//!   power-law, trees, thresholds).
//! * [`realization`] — degree-sequence realization, sequential
//!   (Erdős–Gallai, Havel–Hakimi) and distributed (implicit, explicit,
//!   approximate).
//! * [`trees`] — tree realization (Algorithms 4 and 5, minimum diameter).
//! * [`connectivity`] — connectivity-threshold realization (NCC1 `O~(1)`
//!   and NCC0 `O~(Δ)` 2-approximations, plus the composed paper-exact
//!   Algorithm 6).
//!
//! See `README.md` for a guided tour and `ARCHITECTURE.md` for the system
//! design (including the builder's full knob matrix).

pub use dgr_connectivity as connectivity;
pub use dgr_core as realization;
pub use dgr_graph as graph;
pub use dgr_graphgen as graphgen;
pub use dgr_ncc as ncc;
pub use dgr_primitives as primitives;
pub use dgr_trees as trees;

use dgr_connectivity::{ThresholdAlgo, ThresholdInstance, ThresholdRealization};
use dgr_core::distributed::Flavor;
use dgr_core::DriverOutput;
use dgr_ncc::{Config, EngineRun, EngineStats, Job, Model, RunMetrics, SimError};
use dgr_trees::{TreeAlgo, TreeRealization};
use std::collections::VecDeque;

pub use dgr_ncc::EngineKind as Engine;
pub use dgr_ncc::{
    CapacityPolicy, JsonlSink, MetricsRecorder, NodeId, NullSink, PhaseRounds, ProgressSink,
    Recording, RouteMode, RunEvent, Scenario, ScenarioEvent, Sink,
};
// Named by the frozen end-to-end benchmark alone (see its doc).
pub use dgr_primitives::sort::SortBackend;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use crate::{
        Engine, Kt0, Realization, Realized, RoundSnapshot, RunOutput, RunSession, Workload,
    };
    pub use dgr_connectivity::{ThresholdInstance, ThresholdRealization};
    pub use dgr_core::{DegreeSequence, DistributedRealization, DriverOutput, RealizeError};
    pub use dgr_graph::Graph;
    pub use dgr_ncc::{
        CapacityPolicy, Config, Model, Network, NodeId, NullSink, ProgressSink, Recording,
        RunEvent, RunMetrics, Scenario, ScenarioEvent, Sink,
    };
    pub use dgr_trees::{TreeAlgo, TreeRealization};
}

/// What to realize. Degree workloads take one requested degree per
/// knowledge-path position; threshold workloads take one requirement
/// `ρ ≥ 1` per position.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Algorithm 3: implicit degree realization, exact (Theorem 11).
    Implicit(Vec<usize>),
    /// Theorem 13: the upper-envelope realization (implicit, multigraph
    /// semantics; accepts non-graphic sequences).
    Envelope(Vec<usize>),
    /// Theorem 12: explicit degree realization (both endpoints know every
    /// edge; runs under the queueing policy by default).
    Explicit(Vec<usize>),
    /// Algorithms 4/5: tree realization with the chosen construction.
    Tree {
        /// Requested tree degrees (`Σd = 2(n-1)`, all positive).
        degrees: Vec<usize>,
        /// Chain (Algorithm 4) or minimum-diameter greedy (Algorithm 5).
        algo: TreeAlgo,
    },
    /// Theorem 17: the NCC1 star threshold construction (`O~(1)` rounds;
    /// automatically runs under an NCC1 configuration).
    Ncc1(Vec<usize>),
    /// Algorithm 6 / Theorem 18 with the default cyclic-pipeline phase 1.
    Ncc0Threshold(Vec<usize>),
    /// Algorithm 6 **paper-exact**, composed end to end: phase 1 via the
    /// prefix envelope recursion, the distinctness patch, the phase-2
    /// pipeline, and the explicitness acknowledgements
    /// ([`connectivity::distributed::ncc0_exact`]).
    Ncc0Exact(Vec<usize>),
}

/// KT0 knowledge-tracking switch: when tracked, the engine verifies that
/// every send addresses an ID the sender has legitimately learned — a
/// machine-checked proof of NCC0 legality. Ignored under NCC1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kt0 {
    /// Track knowledge and flag violations (the NCC0 default).
    Tracked,
    /// Skip tracking (cheaper; use for throughput measurements).
    Untracked,
}

/// A rejected [`Realization`] request (before any simulation ran), or a
/// simulator error from the run itself.
#[derive(Debug)]
pub enum RealizationError {
    /// The knob combination is invalid; the message says why.
    InvalidRequest(String),
    /// The simulation failed (model violation, round limit, panic).
    Sim(SimError),
}

impl std::fmt::Display for RealizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealizationError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            RealizationError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for RealizationError {}

impl From<SimError> for RealizationError {
    fn from(e: SimError) -> Self {
        RealizationError::Sim(e)
    }
}

/// The realized output, by workload family.
///
/// The accessors on [`Realized`] panic with the *family name* on a
/// mismatch (never the full realization — at six-digit `n` that debug
/// dump would be enormous).
#[derive(Clone, Debug)]
pub enum RunOutput {
    /// Degree workloads (implicit/envelope/explicit/masked).
    Degrees(DriverOutput),
    /// Tree workloads.
    Tree(TreeRealization),
    /// Threshold workloads (boxed: the certification report and neighbor
    /// maps dominate the enum's footprint).
    Threshold(Box<ThresholdRealization>),
}

impl RunOutput {
    /// The family name (for error messages).
    fn family(&self) -> &'static str {
        match self {
            RunOutput::Degrees(_) => "a degree realization",
            RunOutput::Tree(_) => "a tree realization",
            RunOutput::Threshold(_) => "a threshold realization",
        }
    }
}

/// A completed [`Realization`] run: the workload-family output plus the
/// executor's internal statistics.
#[derive(Clone, Debug)]
pub struct Realized {
    /// The realized output.
    pub output: RunOutput,
    /// Executor-internal statistics (compactions, routing-path choices,
    /// layout, scenario counters; the reference interpreter reports the
    /// scenario counters only).
    pub engine_stats: EngineStats,
}

impl From<EngineRun<RunOutput>> for Realized {
    fn from(run: EngineRun<RunOutput>) -> Self {
        Realized {
            output: run.output,
            engine_stats: run.engine,
        }
    }
}

impl Realized {
    /// The degree-workload output.
    ///
    /// # Panics
    ///
    /// Panics if the workload was not a degree realization.
    pub fn degrees(&self) -> &DriverOutput {
        match &self.output {
            RunOutput::Degrees(d) => d,
            other => panic!("expected a degree realization, got {}", other.family()),
        }
    }

    /// The tree-workload output.
    ///
    /// # Panics
    ///
    /// Panics if the workload was not a tree realization.
    pub fn tree(&self) -> &TreeRealization {
        match &self.output {
            RunOutput::Tree(t) => t,
            other => panic!("expected a tree realization, got {}", other.family()),
        }
    }

    /// The threshold-workload output.
    ///
    /// # Panics
    ///
    /// Panics if the workload was not a threshold realization.
    pub fn threshold(&self) -> &ThresholdRealization {
        match &self.output {
            RunOutput::Threshold(t) => t,
            other => panic!("expected a threshold realization, got {}", other.family()),
        }
    }

    /// The run metrics, whichever family the workload belongs to.
    pub fn metrics(&self) -> &RunMetrics {
        match &self.output {
            RunOutput::Degrees(d) => d.metrics(),
            RunOutput::Tree(TreeRealization::Realized(t)) => &t.metrics,
            RunOutput::Tree(TreeRealization::Unrealizable { metrics }) => metrics,
            RunOutput::Threshold(t) => &t.metrics,
        }
    }
}

/// The builder facade over the whole driver stack: workload × engine ×
/// capacity policy × mask × tracking × certification × observation, one
/// knob each. See the crate docs for examples and
/// `ARCHITECTURE.md` for the full knob matrix (including the
/// "Observability" section on sinks and streaming sessions).
pub struct Realization {
    workload: Workload,
    engine: Engine,
    policy: Option<CapacityPolicy>,
    mask: Option<Vec<bool>>,
    tracking: Option<Kt0>,
    seed: u64,
    model: Option<Model>,
    capacity_factor: Option<f64>,
    sequential_ids: bool,
    workers: Option<usize>,
    shards: Option<usize>,
    max_rounds: Option<u64>,
    certify: bool,
    scenario: Option<Scenario>,
    sink: Option<Box<dyn Sink>>,
}

impl Clone for Realization {
    /// Clones every knob. The observation sink is **not** cloned — sinks
    /// are stateful stream consumers with no general copy semantics — so
    /// the clone starts unobserved; attach its own with
    /// [`Realization::observe`] (a shared [`Recording`] clone works for
    /// fan-out capture).
    fn clone(&self) -> Self {
        Realization {
            workload: self.workload.clone(),
            engine: self.engine,
            policy: self.policy,
            mask: self.mask.clone(),
            tracking: self.tracking,
            seed: self.seed,
            model: self.model,
            capacity_factor: self.capacity_factor,
            sequential_ids: self.sequential_ids,
            workers: self.workers,
            shards: self.shards,
            max_rounds: self.max_rounds,
            certify: self.certify,
            scenario: self.scenario.clone(),
            sink: None,
        }
    }
}

impl std::fmt::Debug for Realization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Realization")
            .field("workload", &self.workload)
            .field("engine", &self.engine)
            .field("policy", &self.policy)
            .field("mask", &self.mask.as_ref().map(Vec::len))
            .field("tracking", &self.tracking)
            .field("seed", &self.seed)
            .field("model", &self.model)
            .field("capacity_factor", &self.capacity_factor)
            .field("sequential_ids", &self.sequential_ids)
            .field("workers", &self.workers)
            .field("shards", &self.shards)
            .field("max_rounds", &self.max_rounds)
            .field("certify", &self.certify)
            .field("scenario", &self.scenario)
            .field("observed", &self.sink.is_some())
            .finish()
    }
}

impl Realization {
    /// Starts a request for the given workload. Defaults: batched
    /// engine, seed 0, tracking on under NCC0, the
    /// workload's natural capacity policy (queueing for the explicit and
    /// NCC0-threshold constructions, strict otherwise), certification on.
    pub fn new(workload: Workload) -> Self {
        Realization {
            workload,
            engine: Engine::Batched,
            policy: None,
            mask: None,
            tracking: None,
            seed: 0,
            model: None,
            capacity_factor: None,
            sequential_ids: false,
            workers: None,
            shards: None,
            max_rounds: None,
            certify: true,
            scenario: None,
            sink: None,
        }
    }

    /// Selects the executor (default: [`Engine::Batched`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the capacity policy (default: the workload's natural
    /// policy — queueing for the three workloads with explicitness
    /// hand-offs, strict otherwise; the hand-offs also run strict).
    pub fn policy(mut self, policy: CapacityPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Restricts the run to a sub-network: only masked-in path positions
    /// participate (degree workloads only; the knowledge path links
    /// across the rest).
    pub fn mask(mut self, participants: Vec<bool>) -> Self {
        self.mask = Some(participants);
        self
    }

    /// Switches KT0 knowledge tracking (default: tracked under NCC0).
    pub fn tracking(mut self, tracking: Kt0) -> Self {
        self.tracking = Some(tracking);
        self
    }

    /// Sets the master seed (IDs, path order, node RNGs). Identical
    /// requests with identical seeds replay identically, on either engine
    /// and any worker count.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the model variant (default: NCC1 for the
    /// [`Workload::Ncc1`] star, NCC0 otherwise). Per the paper's remark,
    /// every NCC0 algorithm runs unchanged under NCC1.
    pub fn model(mut self, model: Model) -> Self {
        self.model = Some(model);
        self
    }

    /// Overrides the capacity multiplier `c` in `cap = c·log₂ n`.
    pub fn capacity_factor(mut self, factor: f64) -> Self {
        self.capacity_factor = Some(factor);
        self
    }

    /// Uses sequential IDs `1..=n` (figure-exact runs; the honest
    /// random-ID setting is the default).
    pub fn sequential_ids(mut self) -> Self {
        self.sequential_ids = true;
        self
    }

    /// Pins the batched executor's worker count (`0`/default = auto): the
    /// most threads a per-shard phase runs on, the caller included. More
    /// workers than shards start no extra threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Pins the number of ownership shards the batched executor splits
    /// each engine run into. Default: derived per run — one shard per
    /// worker once each would own at least [`ncc::MIN_SHARD_WIDTH`]
    /// participants, a single inline shard below that. Each shard owns a
    /// private slot arena,
    /// wire/queue buffers and knowledge-tracker arena for a contiguous
    /// dense-index range; a per-shard phase runs on `min(workers, shards)`
    /// threads, the caller included (more workers than shards start no
    /// extra threads), and the shards are joined per round by a
    /// deterministic exchange phase. A layout
    /// knob like [`Realization::workers`] — transcripts, metrics and event
    /// streams are bit-identical at every shard count, and the reference
    /// interpreter ignores it.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Attaches a seeded adversary: a [`Scenario`] schedule of message
    /// faults (drop / duplicate / reorder rates over round windows) and
    /// node churn (crash-stop, crash-recovery, late joins), injected
    /// deterministically between routing and delivery. The schedule rides
    /// the simulator configuration, so it applies to **every** protocol
    /// run the workload performs (round numbers restart per run). Fault
    /// injection never changes what a scenario-free run would do — an
    /// empty schedule is bit-identical to no scenario at all, and a given
    /// `(seed, scenario)` pair replays identically at any worker or shard
    /// count and on either engine (each applies it with code of its own).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Overrides the round-limit safety valve.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Switches the threshold workloads' max-flow certification:
    /// `n − 1` flows along an anchor chain, each capped at the pair's
    /// requirement (see [`connectivity::check_thresholds`]) — about
    /// 0.3 s at `n = 10⁵`, so there is rarely a reason to switch it
    /// off. When off, the returned report is marked `skipped` and
    /// `report.certified()` stays false. Ignored by non-threshold
    /// workloads.
    pub fn certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }

    /// Attaches an observer: every [`RunEvent`] of the run — rounds,
    /// phase changes, compactions, certification — streams into `sink`
    /// while the run executes. Use [`Recording`] to capture (clones
    /// share the buffer), [`ProgressSink`] for live stderr progress,
    /// [`JsonlSink`] for a machine-readable feed. A second call replaces
    /// the first sink. Works with both [`Realization::run`] and
    /// [`Realization::run_streaming`] (the session sees the same events).
    pub fn observe<S: Sink + 'static>(mut self, sink: S) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// The workload's input length.
    fn input_len(&self) -> usize {
        match &self.workload {
            Workload::Implicit(d) | Workload::Envelope(d) | Workload::Explicit(d) => d.len(),
            Workload::Tree { degrees, .. } => degrees.len(),
            Workload::Ncc1(r) | Workload::Ncc0Threshold(r) | Workload::Ncc0Exact(r) => r.len(),
        }
    }

    /// The workload's natural capacity policy.
    fn default_policy(&self) -> CapacityPolicy {
        match &self.workload {
            Workload::Explicit(_) | Workload::Ncc0Threshold(_) | Workload::Ncc0Exact(_) => {
                CapacityPolicy::Queue
            }
            _ => CapacityPolicy::Strict,
        }
    }

    /// The workload knob's constructor name, for error messages that
    /// point at the offending builder call.
    fn workload_name(&self) -> &'static str {
        match &self.workload {
            Workload::Implicit(_) => "Workload::Implicit",
            Workload::Envelope(_) => "Workload::Envelope",
            Workload::Explicit(_) => "Workload::Explicit",
            Workload::Tree { .. } => "Workload::Tree",
            Workload::Ncc1(_) => "Workload::Ncc1",
            Workload::Ncc0Threshold(_) => "Workload::Ncc0Threshold",
            Workload::Ncc0Exact(_) => "Workload::Ncc0Exact",
        }
    }

    /// Builds the simulator configuration from the knobs. Every rejection
    /// names the offending builder call and the value it was given.
    fn config(&self) -> Result<Config, RealizationError> {
        let default_model = match &self.workload {
            Workload::Ncc1(_) => Model::Ncc1,
            _ => Model::Ncc0,
        };
        let model = self.model.unwrap_or(default_model);
        if matches!(self.workload, Workload::Ncc1(_)) && model == Model::Ncc0 {
            return Err(RealizationError::InvalidRequest(
                ".model(Model::Ncc0) contradicts Workload::Ncc1: the Theorem 17 star \
                 construction needs the NCC1 model (all IDs common knowledge)"
                    .into(),
            ));
        }
        let mut config = match model {
            Model::Ncc1 => Config::ncc1(self.seed),
            Model::Ncc0 => Config::ncc0(self.seed),
        };
        config.capacity_policy = self.policy.unwrap_or_else(|| self.default_policy());
        if let Some(tracking) = self.tracking {
            config.track_knowledge = tracking == Kt0::Tracked && config.model == Model::Ncc0;
        }
        if let Some(factor) = self.capacity_factor {
            if !factor.is_finite() || factor <= 0.0 {
                return Err(RealizationError::InvalidRequest(format!(
                    ".capacity_factor({factor}) is not a usable multiplier — the per-round \
                     capacity c·log₂ n needs a finite, positive c"
                )));
            }
            config.capacity_factor = factor;
        }
        if self.sequential_ids {
            config = config.with_sequential_ids();
        }
        if let Some(workers) = self.workers {
            config.worker_threads = workers;
        }
        if let Some(shards) = self.shards {
            if shards == 0 {
                return Err(RealizationError::InvalidRequest(
                    ".shards(0) leaves the engine without a layout — the executor needs at \
                     least one ownership shard (omit the call for the derived default)"
                        .into(),
                ));
            }
            let participants = match &self.mask {
                Some(mask) => mask.iter().filter(|&&p| p).count(),
                None => self.input_len(),
            };
            if shards > participants {
                return Err(RealizationError::InvalidRequest(format!(
                    ".shards({shards}) exceeds the {participants} participating nodes — \
                     every ownership shard needs a non-empty dense-index range"
                )));
            }
            config.shards = shards;
        }
        if let Some(max_rounds) = self.max_rounds {
            config.max_rounds = max_rounds;
        }
        if let Some(scenario) = &self.scenario {
            if let Err(why) = scenario.validate(
                self.input_len(),
                self.mask.as_deref(),
                config.capacity_policy,
            ) {
                return Err(RealizationError::InvalidRequest(format!(
                    ".scenario(seed {}) is inconsistent with this request: {why}",
                    scenario.seed()
                )));
            }
            config.scenario = Some(scenario.clone());
        }
        Ok(config)
    }

    /// Validates the whole knob combination, returning the simulator
    /// configuration a run would use.
    fn validate(&self) -> Result<Config, RealizationError> {
        if self.input_len() == 0 {
            return Err(RealizationError::InvalidRequest(format!(
                "{} was given an empty input — the workload needs at least one node",
                self.workload_name()
            )));
        }
        if let Some(mask) = &self.mask {
            let degree_workload = matches!(
                self.workload,
                Workload::Implicit(_) | Workload::Envelope(_) | Workload::Explicit(_)
            );
            if !degree_workload {
                return Err(RealizationError::InvalidRequest(format!(
                    ".mask({} entries) applies to degree workloads only — {} realizes \
                     over the whole network",
                    mask.len(),
                    self.workload_name()
                )));
            }
            if mask.len() != self.input_len() {
                return Err(RealizationError::InvalidRequest(format!(
                    ".mask({} entries) does not match the {}-node {} input \
                     (one mask entry per path position is required)",
                    mask.len(),
                    self.input_len(),
                    self.workload_name()
                )));
            }
        }
        if let Workload::Ncc1(rho) | Workload::Ncc0Threshold(rho) | Workload::Ncc0Exact(rho) =
            &self.workload
        {
            // A lone node has nothing to connect to; its ρ = 1 is vacuous.
            let max = rho.len().max(2) - 1;
            let bad = |&(_, &r): &(usize, &usize)| r == 0 || r > max;
            if let Some((position, r)) = rho.iter().enumerate().find(bad) {
                return Err(RealizationError::InvalidRequest(format!(
                    "{} was given threshold ρ = {r} at path position {position} — every \
                     requirement must lie in [1, n-1] = [1, {max}] (a node can be \
                     ρ-connected to at most its n-1 possible neighbors, and ρ = 0 asks \
                     for nothing)",
                    self.workload_name(),
                )));
            }
        }
        self.config()
    }

    /// Validates the knob combination and runs the realization to
    /// completion, returning the whole-run output: the session of
    /// [`Realization::run_streaming`], finished at once. For a live view of
    /// the run attach a sink ([`Realization::observe`]) or pull the session
    /// round by round.
    ///
    /// # Errors
    ///
    /// [`RealizationError::InvalidRequest`] for contradictory knobs
    /// (mask on a non-degree workload, mask length mismatch, a threshold
    /// outside `[1, n-1]` — the message names the offending builder call
    /// and value),
    /// [`RealizationError::Sim`] for simulator failures.
    pub fn run(self) -> Result<Realized, RealizationError> {
        self.run_streaming()?.finish()
    }

    /// Validates the knob combination and sets the realization up as a
    /// pull-based **streaming session**. Nothing runs between pulls: each
    /// [`RunSession::next_round`] executes one round of the engine on the
    /// caller's thread, so six-digit runs become inspectable mid-flight
    /// instead of post-hoc. [`RunSession::finish`] runs the rest and returns
    /// the final output. An [`Realization::observe`] sink sees the same
    /// stream, in the same order, as the session hands it out.
    ///
    /// # Errors
    ///
    /// As for [`Realization::run`]; validation and the engine's set-up
    /// happen here, so an invalid request fails before any round runs.
    pub fn run_streaming(self) -> Result<RunSession, RealizationError> {
        let config = self.validate()?;
        let (engine, mask) = (self.engine, self.mask.as_deref());
        let job = match &self.workload {
            Workload::Implicit(d) | Workload::Envelope(d) | Workload::Explicit(d) => {
                let flavor = match &self.workload {
                    Workload::Implicit(_) => Flavor::Implicit,
                    Workload::Envelope(_) => Flavor::Envelope,
                    _ => Flavor::Explicit,
                };
                dgr_core::prepare_degrees(d, mask, config, flavor, engine)?.map(RunOutput::Degrees)
            }
            Workload::Tree { degrees, algo } => {
                dgr_trees::prepare_tree(degrees, config, *algo, engine)?.map(RunOutput::Tree)
            }
            Workload::Ncc1(r) | Workload::Ncc0Threshold(r) | Workload::Ncc0Exact(r) => {
                let algo = match &self.workload {
                    Workload::Ncc1(_) => ThresholdAlgo::Ncc1Star,
                    Workload::Ncc0Threshold(_) => ThresholdAlgo::Ncc0Pipeline,
                    _ => ThresholdAlgo::Ncc0Exact,
                };
                let inst = ThresholdInstance::new(r.clone());
                dgr_connectivity::prepare_threshold(&inst, config, algo, engine, self.certify)?
                    .map(|t| RunOutput::Threshold(Box::new(t)))
            }
        };
        Ok(RunSession {
            job: Some(job),
            ended: None,
            sink: self.sink.unwrap_or_else(|| Box::new(NullSink)),
            pending: VecDeque::new(),
            rounds_done: false,
        })
    }
}

/// One completed round pulled from a [`RunSession`]: the round's headline
/// numbers plus every event that preceded it since the last pull (phase
/// changes, stage transitions, compactions).
#[derive(Clone, Debug)]
pub struct RoundSnapshot {
    /// 0-based round index.
    pub round: u64,
    /// Messages delivered this round.
    pub delivered: u64,
    /// Nodes still live after the round's step phase.
    pub live: usize,
    /// The batched executor's dense/sparse classification of this round
    /// (worker-count-invariant scheduling detail;
    /// [`RouteMode::Unspecified`] on the reference interpreter).
    pub route_mode: RouteMode,
    /// Events emitted since the previous snapshot, excluding the
    /// [`RunEvent::RoundCompleted`] this snapshot summarizes.
    pub events: Vec<RunEvent>,
}

/// A live, pull-based realization run (from
/// [`Realization::run_streaming`]): the prepared run, the
/// [`Realization::observe`] sink, and the events stepped but not yet
/// pulled. Nothing executes between pulls — [`RunSession::next_round`]
/// (or [`RunSession::next_event`]) steps the engine on the caller's
/// thread, so the session is a stepper, not a spectator. Dropping the
/// session abandons the run.
pub struct RunSession {
    /// The prepared run, until a pull steps it past its end.
    job: Option<Job<RunOutput>>,
    /// How the run ended, once a pull stepped it past its end.
    ended: Option<Result<Realized, RealizationError>>,
    /// The `observe()` sink ([`NullSink`] when none was attached).
    sink: Box<dyn Sink>,
    /// Events of stepped rounds not pulled yet.
    pending: VecDeque<RunEvent>,
    /// Has a pull passed the engine's `Done`?
    rounds_done: bool,
}

impl RunSession {
    /// Steps the run to its next completed round and returns its snapshot,
    /// or `None` once the engine's rounds are over (or failed —
    /// [`RunSession::finish`] reports which).
    pub fn next_round(&mut self) -> Option<RoundSnapshot> {
        let mut events = Vec::new();
        while !self.rounds_done {
            match self.next_event()? {
                RunEvent::RoundCompleted {
                    round,
                    delivered,
                    live,
                    route_mode,
                } => {
                    return Some(RoundSnapshot {
                        round,
                        delivered,
                        live,
                        route_mode,
                        events,
                    })
                }
                RunEvent::Done { .. } => {}
                event => events.push(event),
            }
        }
        None
    }

    /// Pulls the next single event, stepping the run a round when none is
    /// waiting (finer-grained than [`RunSession::next_round`]; also yields
    /// `Done` and the driver-level events after it, such as
    /// certification). `None` once the stream has ended.
    pub fn next_event(&mut self) -> Option<RunEvent> {
        if self.pending.is_empty() {
            self.advance();
        }
        let event = self.pending.pop_front()?;
        self.sink.emit(&event);
        self.rounds_done |= matches!(event, RunEvent::Done { .. });
        Some(event)
    }

    /// Runs the rest of the realization and returns its final output —
    /// exactly what [`Realization::run`] would have returned. Events
    /// stepped but not pulled reach the `observe()` sink first; the rest of
    /// the run streams straight into it.
    pub fn finish(self) -> Result<Realized, RealizationError> {
        let RunSession {
            job,
            ended,
            mut sink,
            pending,
            ..
        } = self;
        pending.iter().for_each(|event| sink.emit(event));
        match (job, ended) {
            (Some(job), _) => Ok(job.drive(Some(&mut *sink))?.into()),
            (None, Some(ended)) => ended,
            (None, None) => unreachable!("a session keeps its run until it records how it ended"),
        }
    }

    /// Steps the run one round, queueing its events; once the rounds are
    /// over, closes it, queueing `Done` and the driver's events after it.
    fn advance(&mut self) {
        let Some(mut job) = self.job.take() else {
            return;
        };
        match job.round(Some(&mut self.pending)) {
            Ok(true) => self.job = Some(job),
            Ok(false) => {
                let ended = job.finish(Some(&mut self.pending));
                self.ended = Some(ended.map(Into::into).map_err(Into::into));
            }
            Err(e) => self.ended = Some(Err(e.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_contradictory_knobs_naming_the_offender() {
        // Mask on a tree workload: the message names the knob and the
        // workload that rejected it.
        let err = Realization::new(Workload::Tree {
            degrees: vec![1, 2, 1],
            algo: TreeAlgo::Greedy,
        })
        .mask(vec![true, true, false])
        .run()
        .unwrap_err();
        assert!(matches!(err, RealizationError::InvalidRequest(_)), "{err}");
        assert!(err.to_string().contains(".mask(3 entries)"), "{err}");
        assert!(err.to_string().contains("Workload::Tree"), "{err}");

        // Mask length mismatch: both lengths named.
        let err = Realization::new(Workload::Implicit(vec![1, 1]))
            .mask(vec![true])
            .run()
            .unwrap_err();
        assert!(err.to_string().contains(".mask(1 entries)"), "{err}");
        assert!(err.to_string().contains("2-node"), "{err}");

        // Empty workload: names the workload variant.
        let err = Realization::new(Workload::Implicit(vec![]))
            .run()
            .unwrap_err();
        assert!(matches!(err, RealizationError::InvalidRequest(_)));
        assert!(err.to_string().contains("Workload::Implicit"), "{err}");

        // A broken capacity factor names the knob and its value.
        let err = Realization::new(Workload::Implicit(vec![1, 1]))
            .capacity_factor(-1.0)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains(".capacity_factor(-1)"), "{err}");

        // NCC0 model forced onto the NCC1 star: the model knob is named.
        let err = Realization::new(Workload::Ncc1(vec![1, 1]))
            .model(Model::Ncc0)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains(".model(Model::Ncc0)"), "{err}");

        // Streaming validates eagerly: a contradictory request gets no
        // session.
        let err = Realization::new(Workload::Implicit(vec![]))
            .run_streaming()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, RealizationError::InvalidRequest(_)));
    }

    #[test]
    fn out_of_range_thresholds_are_invalid_requests() {
        // ρ = 0 asks for nothing and ρ ≥ n for more neighbors than exist:
        // every threshold workload rejects both before simulating, naming
        // the workload, the path position and the value.
        type Make = fn(Vec<usize>) -> Workload;
        let workloads: [(&str, Make); 3] = [
            ("Workload::Ncc1", Workload::Ncc1),
            ("Workload::Ncc0Threshold", Workload::Ncc0Threshold),
            ("Workload::Ncc0Exact", Workload::Ncc0Exact),
        ];
        for (name, make) in workloads {
            for (rho, position, value) in [(vec![1, 1, 0], 2, 0), (vec![2, 3, 1], 1, 3)] {
                let err = Realization::new(make(rho)).run().unwrap_err();
                assert!(matches!(err, RealizationError::InvalidRequest(_)), "{err}");
                let text = err.to_string();
                assert!(text.contains(name), "{text}");
                assert!(text.contains(&format!("ρ = {value}")), "{text}");
                assert!(text.contains(&format!("position {position}")), "{text}");
                assert!(text.contains("[1, 2]"), "{text}");
            }
            // The streaming path validates the same way, eagerly.
            let err = Realization::new(make(vec![0, 1])).run_streaming();
            assert!(matches!(err, Err(RealizationError::InvalidRequest(_))));
            // The boundary values are accepted.
            assert!(
                Realization::new(make(vec![1, 2, 2])).run().is_ok(),
                "{name}"
            );
        }
    }

    #[test]
    fn scenarios_run_on_the_reference_engine() {
        // A schedule is a property of the request, not of the executor:
        // the oracle applies it too, and an inconsistent one is rejected
        // whichever engine was asked for.
        let build = |engine: Engine| {
            Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
                .seed(7)
                .engine(engine)
        };
        let quiet = Scenario::new(3).crash(0, 1 << 40);
        let batched = build(Engine::Batched)
            .scenario(quiet.clone())
            .run()
            .unwrap();
        let reference = build(Engine::Reference).scenario(quiet).run().unwrap();
        assert_eq!(batched.metrics(), reference.metrics());
        assert_eq!(
            batched.metrics(),
            build(Engine::Batched).run().unwrap().metrics()
        );
        for engine in [Engine::Batched, Engine::Reference] {
            let err = build(engine).scenario(Scenario::new(3).crash(9, 2)).run();
            let text = err.unwrap_err().to_string();
            assert!(text.contains(".scenario(seed 3)"), "{text}");
            assert!(text.contains("not a participant"), "{text}");
        }
    }

    #[test]
    fn shards_knob_validates_and_threads_through() {
        // Zero shards: no layout at all — named knob and value.
        let err = Realization::new(Workload::Implicit(vec![1, 1]))
            .shards(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, RealizationError::InvalidRequest(_)), "{err}");
        assert!(err.to_string().contains(".shards(0)"), "{err}");

        // More shards than nodes: both numbers named.
        let err = Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
            .shards(5)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains(".shards(5)"), "{err}");
        assert!(err.to_string().contains("4 participating"), "{err}");

        // The participant count is mask-aware: ownership shards split the
        // dense (masked-in) space, not the raw input length.
        let err = Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
            .mask(vec![true, true, true, false])
            .shards(4)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains(".shards(4)"), "{err}");
        assert!(err.to_string().contains("3 participating"), "{err}");

        // A legal shard count reaches the engine, and the realization is
        // bit-identical to the default layout.
        let build = || Realization::new(Workload::Implicit(vec![3, 2, 2, 2, 1, 1, 1])).seed(17);
        let flat = build().run().unwrap();
        let sharded = build().shards(3).run().unwrap();
        assert_eq!(sharded.engine_stats.shards, 3);
        assert_eq!(sharded.engine_stats.shard_windows.iter().sum::<usize>(), 7);
        assert_eq!(flat.metrics(), sharded.metrics());
        assert_eq!(
            flat.degrees().expect_realized().graph.edge_list(),
            sharded.degrees().expect_realized().graph.edge_list()
        );
    }

    #[test]
    fn streaming_session_steps_rounds_and_matches_one_shot() {
        let build = || Realization::new(Workload::Implicit(vec![3, 2, 2, 2, 1, 1, 1])).seed(17);
        let one_shot = build().run().unwrap();

        let recording = Recording::new();
        let mut session = build().observe(recording.clone()).run_streaming().unwrap();
        let mut rounds = 0u64;
        while let Some(snapshot) = session.next_round() {
            assert_eq!(snapshot.round, rounds, "rounds must arrive in order");
            rounds += 1;
        }
        let streamed = session.finish().unwrap();
        assert_eq!(rounds, streamed.metrics().rounds, "a snapshot per round");
        assert_eq!(one_shot.metrics(), streamed.metrics());
        assert_eq!(
            one_shot.degrees().expect_realized().graph.edge_list(),
            streamed.degrees().expect_realized().graph.edge_list()
        );
        // The observe() sink saw the same stream the session consumed,
        // and replaying it through a MetricsRecorder reproduces the
        // executor statistics — the stats are a pure stream derivation.
        let events = recording.events();
        assert!(matches!(events.last(), Some(RunEvent::Done { .. })));
        let mut recorder = MetricsRecorder::new();
        for event in &events {
            recorder.emit(event);
        }
        assert_eq!(recorder.rounds(), streamed.metrics().rounds);
        assert_eq!(recorder.messages(), streamed.metrics().messages);
        let replayed = recorder.engine_stats();
        assert_eq!(replayed.compactions, streamed.engine_stats.compactions);
        assert_eq!(
            replayed.inline_route_rounds,
            streamed.engine_stats.inline_route_rounds
        );
        assert_eq!(
            replayed.parallel_route_rounds,
            streamed.engine_stats.parallel_route_rounds
        );
    }

    #[test]
    fn dropping_a_session_mid_run_detaches_cleanly() {
        let mut session = Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
            .seed(7)
            .run_streaming()
            .unwrap();
        // Pull one round, then walk away: dropping the session abandons
        // the rest of the run.
        assert!(session.next_round().is_some());
        drop(session);
    }

    #[test]
    fn certification_events_follow_done() {
        let recording = Recording::new();
        let out = Realization::new(Workload::Ncc1(vec![2, 2, 1, 1, 1]))
            .seed(55)
            .observe(recording.clone())
            .run()
            .unwrap();
        assert!(out.threshold().report.certified());
        let events = recording.events();
        let done_at = events
            .iter()
            .position(|e| matches!(e, RunEvent::Done { .. }))
            .expect("engine Done");
        let started_at = events
            .iter()
            .position(|e| matches!(e, RunEvent::CertificationStarted { .. }))
            .expect("certification started");
        assert!(started_at > done_at);
        assert!(matches!(
            events.last(),
            Some(RunEvent::CertificationResult {
                satisfied: true,
                ..
            })
        ));
        // Skipped certification stays silent.
        let silent = Recording::new();
        Realization::new(Workload::Ncc1(vec![2, 2, 1, 1, 1]))
            .seed(55)
            .certify(false)
            .observe(silent.clone())
            .run()
            .unwrap();
        assert!(!silent
            .events()
            .iter()
            .any(|e| matches!(e, RunEvent::CertificationStarted { .. })));
    }

    #[test]
    fn builder_covers_every_workload() {
        let out = Realization::new(Workload::Implicit(vec![2, 2, 1, 1]))
            .seed(41)
            .run()
            .unwrap();
        assert_eq!(out.degrees().expect_realized().graph.edge_count(), 3);

        let out = Realization::new(Workload::Envelope(vec![3, 3, 1, 0]))
            .seed(5)
            .run()
            .unwrap();
        assert!(!out.degrees().is_unrealizable());

        let out = Realization::new(Workload::Explicit(vec![1, 1, 2, 2]))
            .seed(9)
            .run()
            .unwrap();
        assert!(!out
            .degrees()
            .expect_realized()
            .explicit_neighbors
            .is_empty());

        let out = Realization::new(Workload::Tree {
            degrees: vec![2, 2, 1, 1],
            algo: TreeAlgo::Greedy,
        })
        .seed(90)
        .run()
        .unwrap();
        assert!(out.tree().expect_realized().graph.is_tree());

        let out = Realization::new(Workload::Ncc1(vec![2, 2, 1, 1, 1]))
            .seed(55)
            .run()
            .unwrap();
        assert!(out.threshold().report.satisfied);

        let out = Realization::new(Workload::Ncc0Threshold(vec![2, 2, 1, 1, 1]))
            .seed(55)
            .run()
            .unwrap();
        assert!(out.threshold().report.satisfied);

        let out = Realization::new(Workload::Ncc0Exact(vec![2, 2, 1, 1, 1]))
            .seed(55)
            .run()
            .unwrap();
        assert!(out.threshold().report.satisfied);
    }

    #[test]
    fn certification_can_be_skipped() {
        let out = Realization::new(Workload::Ncc1(vec![2, 1, 1, 1]))
            .certify(false)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(out.threshold().report.pairs_checked, 0);
        assert!(out.threshold().report.skipped);
        assert!(!out.threshold().report.certified());
    }

    #[test]
    fn engines_agree_through_the_builder() {
        let run = |engine: Engine| {
            Realization::new(Workload::Implicit(vec![3, 2, 2, 2, 1, 1, 1]))
                .engine(engine)
                .seed(17)
                .run()
                .unwrap()
        };
        let batched = run(Engine::Batched);
        let reference = run(Engine::Reference);
        assert_eq!(batched.metrics(), reference.metrics());
        assert_eq!(
            batched.degrees().expect_realized().graph.edge_list(),
            reference.degrees().expect_realized().graph.edge_list()
        );
    }
}
