//! Simulation configuration: model variant, capacities, policies, seeding.

/// Which executor drives a protocol run.
///
/// Both implement the same round semantics — [`Scenario`](crate::Scenario)s
/// included — and produce bit-identical
/// outputs and metrics for the same protocol (the differential suites
/// hold them to it); they differ in scale and purpose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The batched step-function executor — the production engine,
    /// practical at six- and seven-digit `n`.
    Batched,
    /// The single-threaded reference interpreter: the round written the
    /// naive way (one inbox, queue and knowledge set per node, one loop),
    /// independent of the batched executor's layout. The differential
    /// oracle; ignores the layout knobs (`worker_threads`, `shards`).
    Reference,
}

/// Which NCC variant the network starts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// KT0-like: each node initially knows only its out-neighbor on a
    /// directed path `G_k` over the nodes (seeded random order).
    Ncc0,
    /// KT1-like (the SPAA'19 NCC): all node IDs are common knowledge.
    Ncc1,
}

/// What the engine does when a node exceeds its per-round send or receive
/// capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapacityPolicy {
    /// Any violation aborts the run with
    /// [`SimError::Violation`](crate::SimError::Violation). Use this in
    /// tests to *prove* an
    /// algorithm is capacity-legal.
    Strict,
    /// Violations are counted in the metrics but messages are still
    /// delivered. Useful for measuring how far an algorithm overshoots.
    Record,
    /// Receive-side congestion is modeled honestly: each node owns a FIFO
    /// delivery queue from which at most `cap` messages are handed over per
    /// round. Send-side violations are still hard errors (a node must pace
    /// itself), but bursty fan-in is absorbed and paid for in rounds.
    Queue,
}

/// How node IDs are assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdAssignment {
    /// IDs `1..=n`. Convenient for debugging and for reproducing the paper's
    /// figures, and the paper notes NCC1 may w.l.o.g. use `[1, n]`.
    Sequential,
    /// Distinct IDs sampled from `[1, n^3]` — the honest NCC0 setting where
    /// IDs carry no positional information.
    Random,
}

/// Fewest nodes a shard owns under the derived shard count
/// ([`Config::shards`] `= 0`): a run over `n` nodes is split only
/// once `n / MIN_SHARD_WIDTH >= 2`.
///
/// Chosen by measurement (PR 14; 2-vCPU host, two workers, whole
/// `Implicit` near-regular d≈4 realizations, median of 6 interleaved
/// calls, two shards against one): at 1024 nodes per shard the second
/// worker *costs* 28 % (1.17 s vs 0.92 s at n = 2048 — starting threads
/// five times a round outweighs halving sub-millisecond phases), at 1536
/// per shard it is a wash (1.72 s vs 1.78 s at n = 3072), at 2048 per
/// shard it saves 14 % (2.44 s vs 2.83 s at n = 4096), and the saving
/// grows from there (ARCHITECTURE.md has the table). That probe paid
/// S thread spawns a phase; the fan-out now pays S − 1, the caller
/// walking the first shard group itself.
pub const MIN_SHARD_WIDTH: usize = 2048;

/// Full configuration of a simulated NCC network.
#[derive(Clone, Debug)]
pub struct Config {
    /// NCC0 or NCC1.
    pub model: Model,
    /// Capacity enforcement policy.
    pub capacity_policy: CapacityPolicy,
    /// Multiplier `c` in `cap = max(min_capacity, ceil(c * log2 n))`.
    pub capacity_factor: f64,
    /// Floor on the per-round capacity (avoids degenerate tiny-`n` caps).
    pub min_capacity: usize,
    /// Maximum data words per message.
    pub max_words: usize,
    /// Maximum addresses per message.
    pub max_addrs: usize,
    /// When true, the engine tracks the set of IDs each node has learned and
    /// flags any send addressed to an unknown ID (KT0 legality checking).
    /// Ignored under [`Model::Ncc1`], where everything is known.
    pub track_knowledge: bool,
    /// ID assignment scheme.
    pub id_assignment: IdAssignment,
    /// Master seed: drives ID assignment, the `G_k` permutation, and each
    /// node's local RNG (derived per node). Identical configs replay
    /// identically.
    pub seed: u64,
    /// Safety valve: abort if the protocol runs longer than this many rounds.
    pub max_rounds: u64,
    /// Worker threads for the batched executor: `0` (default) takes the
    /// machine's available parallelism, `1` walks every phase inline on
    /// the calling thread (useful for allocation probes and debugging).
    /// The count bounds the threads, the caller included, that a per-shard
    /// phase (step, seal, exchange, deliver, learn) runs on:
    /// `min(workers, shards)`, so more workers than shards start no extra
    /// threads. Results are identical for every value — shards own disjoint
    /// state, their journals replay in a fixed order, and the narrated
    /// dense/sparse round classification is a pure function of the
    /// transcript, so event streams are bit-identical too.
    pub worker_threads: usize,
    /// Ownership shards for the batched executor: the dense index space
    /// (the path positions) is split into this many contiguous ranges, each owning a
    /// private slot arena, wire/queue buffers and knowledge-tracker arena.
    /// Cross-shard sends move in a deterministic all-to-all exchange
    /// phase, so transcripts, metrics and raw event streams are
    /// bit-identical for every shard count. `0` (the default) derives the
    /// count per engine run from the node count `n` and the worker
    /// count: `clamp(n / MIN_SHARD_WIDTH, 1, workers)` — one shard per
    /// worker once each would own at least [`MIN_SHARD_WIDTH`] nodes, a
    /// single inline shard below that or on one worker. An explicit count
    /// is used as given, clamped to the node count. Like
    /// `worker_threads` this is a layout knob, ignored by the reference
    /// interpreter.
    pub shards: usize,
    /// Optional seeded fault schedule ([`Scenario`](crate::Scenario))
    /// applied between routing and delivery: message
    /// drop/duplication/reordering plus crash-stop, crash-recovery and
    /// mid-run joins at scheduled rounds. `None` (the default) is
    /// bit-identical to a scenario-free run, as is `Some` with an empty
    /// schedule. Both engines apply it, each with code of its own.
    pub scenario: Option<crate::Scenario>,
}

impl Config {
    /// A strict NCC0 configuration with knowledge tracking on — the default
    /// for tests, since a green run certifies NCC0 legality.
    pub fn ncc0(seed: u64) -> Self {
        Config {
            model: Model::Ncc0,
            capacity_policy: CapacityPolicy::Strict,
            capacity_factor: 2.0,
            min_capacity: 4,
            max_words: 4,
            max_addrs: 2,
            track_knowledge: true,
            id_assignment: IdAssignment::Random,
            seed,
            max_rounds: 10_000_000,
            worker_threads: 0,
            shards: 0,
            scenario: None,
        }
    }

    /// A strict NCC1 configuration.
    pub fn ncc1(seed: u64) -> Self {
        Config {
            model: Model::Ncc1,
            track_knowledge: false,
            ..Config::ncc0(seed)
        }
    }

    /// Switches to the queueing capacity policy: a send over the
    /// capacity waits in the receiver's queue instead of ending the run.
    /// No workload needs it — every realization driver runs strict.
    pub fn with_queueing(mut self) -> Self {
        self.capacity_policy = CapacityPolicy::Queue;
        self
    }

    /// Overrides the capacity multiplier.
    pub fn with_capacity_factor(mut self, factor: f64) -> Self {
        self.capacity_factor = factor;
        self
    }

    /// Uses sequential IDs `1..=n` (handy for figure-exact tests).
    pub fn with_sequential_ids(mut self) -> Self {
        self.id_assignment = IdAssignment::Sequential;
        self
    }

    /// Pins the batched executor's worker count (`0` = auto): the most
    /// threads a shard phase runs on, the caller included — more workers
    /// than shards start no extra threads.
    pub fn with_worker_threads(mut self, workers: usize) -> Self {
        self.worker_threads = workers;
        self
    }

    /// Splits the batched executor's state into `shards` ownership shards
    /// (clamped to the node count; `0` = derived, the default —
    /// see [`Config::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Installs a seeded fault schedule (drops, duplicates, reorders,
    /// crashes, recoveries, joins).
    pub fn with_scenario(mut self, scenario: crate::Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// The shard count of an engine run over `n` nodes on `workers`
    /// worker threads: an explicit [`Config::shards`] wins (clamped to
    /// `n`); the derived default gives every worker a shard
    /// once each would own [`MIN_SHARD_WIDTH`] nodes, and never shards a
    /// one-worker run — walking shards one after another buys nothing.
    pub(crate) fn shard_count(&self, n: usize, workers: usize) -> usize {
        match self.shards {
            0 => (n / MIN_SHARD_WIDTH).clamp(1, workers.max(1)),
            explicit => explicit.min(n.max(1)),
        }
    }

    /// The concrete per-round send/receive capacity for an `n`-node network
    /// under this configuration.
    pub fn capacity(&self, n: usize) -> usize {
        crate::capacity_for(n, self.capacity_factor, self.min_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_strict_kt0() {
        let c = Config::ncc0(1);
        assert_eq!(c.model, Model::Ncc0);
        assert_eq!(c.capacity_policy, CapacityPolicy::Strict);
        assert!(c.track_knowledge);
    }

    #[test]
    fn ncc1_disables_knowledge_tracking() {
        let c = Config::ncc1(1);
        assert_eq!(c.model, Model::Ncc1);
        assert!(!c.track_knowledge);
    }

    #[test]
    fn capacity_uses_factor_and_floor() {
        let c = Config::ncc0(0).with_capacity_factor(1.0);
        assert_eq!(c.capacity(2), 4); // floor
        assert_eq!(c.capacity(1 << 16), 16);
    }

    #[test]
    fn shard_count_explicit_wins_and_derived_follows_k_and_workers() {
        const WORKERS: [usize; 3] = [1, 2, 8];
        // k -> expected shard count per WORKERS entry, for `shards` = 0
        // (derived), 1 and 3 (explicit).
        #[rustfmt::skip]
        let table = [
            (0,       [1, 1, 1], [1, 1, 1], [1, 1, 1]),
            (1,       [1, 1, 1], [1, 1, 1], [1, 1, 1]),
            (2047,    [1, 1, 1], [1, 1, 1], [3, 3, 3]),
            (2048,    [1, 1, 1], [1, 1, 1], [3, 3, 3]),
            (4096,    [1, 2, 2], [1, 1, 1], [3, 3, 3]),
            (100_000, [1, 2, 8], [1, 1, 1], [3, 3, 3]),
        ];
        assert_eq!(Config::ncc0(0).shards, 0, "derived is the default");
        for (k, derived, one, three) in table {
            for (configured, want) in [(0, derived), (1, one), (3, three)] {
                let config = Config::ncc0(0).with_shards(configured);
                for (w, &workers) in WORKERS.iter().enumerate() {
                    assert_eq!(
                        config.shard_count(k, workers),
                        want[w],
                        "k={k} workers={workers} shards={configured}"
                    );
                }
            }
        }
    }

    #[test]
    fn builders_chain() {
        let c = Config::ncc0(7).with_queueing().with_sequential_ids();
        assert_eq!(c.capacity_policy, CapacityPolicy::Queue);
        assert_eq!(c.id_assignment, IdAssignment::Sequential);
        assert_eq!(c.seed, 7);
    }
}
