//! The four workloads: input generation from the seed, the one timed
//! public call each of them is, and the output check.
//!
//! Everything the program sees is generated here from `--seed`; the same
//! seed is also the run seed, so one number reproduces a run exactly.

use crate::dgr::connectivity::edge_lower_bound;
use crate::dgr::connectivity::ThresholdInstance;
use crate::dgr::graphgen;
use crate::dgr::ncc::{Config, EngineKind, EngineStats, Network, RoundCtx, RunMetrics, RunResult};
use crate::dgr::primitives::proto::clique::{self, CliqueWarmup};
use crate::dgr::primitives::proto::sort::SortStep;
use crate::dgr::primitives::proto::{EstablishCtx, PathToClique, StepProtocol, WithCtx};
use crate::dgr::primitives::{Order, PathCtx};
use crate::dgr::realization::{havel_hakimi, verify, DegreeSequence, DriverOutput};
use crate::dgr::{Kt0, NodeId, Realization, Realized, RunOutput, Scenario, SortBackend, Workload};
use crate::trace::SpanSink;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    DegreesDefault,
    ExplicitPowerlaw,
    ThresholdCertified,
    FloodShardedFaulty,
}

/// One named workload at its committed size. `BENCHMARK.json` records the
/// one-line reason for each; README.md has the long form.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Node count of the committed size.
    pub n: usize,
    /// Worker threads of the timed calls; 0 sizes the pool to the machine,
    /// the default a user gets.
    pub workers: usize,
    kind: Kind,
}

/// The three facade workloads run at the smallest size at which the layer
/// each was chosen for carries the share of the call README.md predicts;
/// one call is then 1–2 s on the 2-core reference host, the most the
/// driver's 92 runs an hour leave room for. They are small-n workloads: a
/// claim about n ≥ 10⁴ needs its own measurement.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "degrees_default",
        n: 2048,
        workers: 0,
        kind: Kind::DegreesDefault,
    },
    Spec {
        name: "explicit_powerlaw",
        n: 2048,
        // One worker: the engine starts threads for every phase of every
        // round, and at 3057 rounds of 0.6 ms their wake-ups on a shared
        // 2-vCPU host swing the call by 2× in spells no single-threaded
        // yardstick follows (the A/A check failed at 33 % spread; README.md).
        workers: 1,
        kind: Kind::ExplicitPowerlaw,
    },
    Spec {
        name: "threshold_certified",
        n: 2048,
        workers: 0,
        kind: Kind::ThresholdCertified,
    },
    Spec {
        name: "flood_sharded_faulty",
        n: 100_000,
        workers: 0,
        kind: Kind::FloodShardedFaulty,
    },
];

/// `degrees_default` draws the *multiset* of its degrees from this fixed
/// seed, and `--seed` rotates it along the path: the jitter of
/// `near_regular_sequence` moves Algorithm 3's phase count between 6 and
/// 10 from one generator seed to the next, ±25 % of the rounds and the
/// wall-clock, while the driver holds `sim_rounds` and `run_wall_s` to
/// their bounds *across* seeds. `--seed` also draws the IDs and the
/// knowledge path. The other generators' round counts do not depend on
/// their seed.
const DEGREES_SHAPE_SEED: u64 = 5;

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What makes two calls the same run: the paper's cost measures and a
/// stable hash of the output. Printed so that a parent commit and a
/// change can be compared exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub rounds: u64,
    pub messages: u64,
    pub words: u64,
    /// FNV-1a of the sorted edge list (of the per-node contact tables for
    /// the flood, which builds no graph).
    pub output_fnv: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} messages={} words={} output_fnv={:016x}",
            self.rounds, self.messages, self.words, self.output_fnv
        )
    }
}

/// FNV-1a, a hash that is stable across toolchains (std's default hasher
/// is not).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one call returned.
pub enum Output {
    Facade(Realized),
    Flood(RunResult<CliqueWarmup>),
}

impl Output {
    pub fn metrics(&self) -> &RunMetrics {
        match self {
            Output::Facade(r) => r.metrics(),
            Output::Flood(r) => &r.metrics,
        }
    }

    pub fn stats(&self) -> &EngineStats {
        match self {
            Output::Facade(r) => &r.engine_stats,
            Output::Flood(r) => &r.engine,
        }
    }

    pub fn fingerprint(&self) -> Fingerprint {
        let mut fnv = Fnv::new();
        match self {
            Output::Facade(r) => {
                let graph = match &r.output {
                    RunOutput::Degrees(DriverOutput::Realized(o)) => Some(&o.graph),
                    RunOutput::Threshold(t) => Some(&t.graph),
                    _ => None,
                };
                let mut edges: Vec<(NodeId, NodeId)> = graph
                    .map(|g| g.edge_list())
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(u, v)| (u.min(v), u.max(v)))
                    .collect();
                edges.sort_unstable();
                for (u, v) in edges {
                    fnv.write(u);
                    fnv.write(v);
                }
            }
            Output::Flood(r) => {
                for (id, warm) in &r.outputs {
                    fnv.write(*id);
                    for c in warm.contacts.fwd.iter().chain(&warm.contacts.bwd) {
                        fnv.write(c.unwrap_or(0));
                    }
                }
            }
        }
        let m = self.metrics();
        Fingerprint {
            rounds: m.rounds,
            messages: m.messages,
            words: m.words,
            output_fnv: fnv.0,
        }
    }
}

/// A workload with its inputs generated, ready to be called.
pub struct Prepared {
    pub spec: &'static Spec,
    pub seed: u64,
    pub n: usize,
    /// Requested degrees or thresholds, one per path position (empty for
    /// the flood, whose only input is `n`).
    input: Vec<usize>,
    /// Seconds `graphgen` took.
    pub gen_s: f64,
}

impl Prepared {
    /// Generates the workload's inputs from `seed` at `spec.n / divisor`
    /// nodes (`divisor` is 1 outside the unit tests).
    pub fn generate(spec: &'static Spec, seed: u64, divisor: usize) -> Prepared {
        let n = spec.n / divisor;
        let start = Instant::now();
        let input = match spec.kind {
            Kind::DegreesDefault => {
                let mut degrees = graphgen::near_regular_sequence(n, 4, DEGREES_SHAPE_SEED);
                degrees.rotate_left((seed % n as u64) as usize);
                degrees
            }
            Kind::ExplicitPowerlaw => graphgen::power_law_sequence(n, 64, 2.5, seed),
            Kind::ThresholdCertified => graphgen::uniform_thresholds(n, 1, 5, seed),
            Kind::FloodShardedFaulty => Vec::new(),
        };
        Prepared {
            spec,
            seed,
            n,
            input,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    /// The engine configuration the workload runs under (the facade
    /// derives the same one from its knobs; the flood and the standalone
    /// primitive rows build it here).
    fn config(&self, workers: usize) -> Config {
        let mut config = Config::ncc0(self.seed).with_worker_threads(workers);
        match self.spec.kind {
            Kind::DegreesDefault => {}
            Kind::ExplicitPowerlaw => {
                config = config.with_queueing();
                config.track_knowledge = false;
            }
            Kind::ThresholdCertified => config = config.with_queueing(),
            Kind::FloodShardedFaulty => {
                let scenario = Scenario::new(self.seed).drop_messages(0..=u64::MAX, 0.01);
                config = config
                    .with_queueing()
                    .with_shards(2)
                    .with_scenario(scenario);
            }
        }
        config
    }

    /// The one public call the workload is: `Realization::…run()`, or for
    /// the flood `Network::new` + `run_protocol`. A sink, when given, rides
    /// the public observation seam.
    pub fn call(&self, workers: usize, sink: Option<SpanSink>) -> Result<Output, String> {
        let request = match self.spec.kind {
            Kind::FloodShardedFaulty => {
                let net = Network::new(self.n, self.config(workers));
                let result = match sink {
                    None => net.run_protocol(PathToClique::new),
                    Some(mut sink) => net.run_protocol_on(
                        EngineKind::Batched,
                        None,
                        Some(&mut sink),
                        PathToClique::new,
                    ),
                };
                return result.map(Output::Flood).map_err(|e| e.to_string());
            }
            Kind::DegreesDefault => Realization::new(Workload::Implicit(self.input.clone())),
            Kind::ExplicitPowerlaw => {
                Realization::new(Workload::Explicit(self.input.clone())).tracking(Kt0::Untracked)
            }
            Kind::ThresholdCertified => Realization::new(Workload::Ncc0Exact(self.input.clone())),
        };
        let mut request = request.seed(self.seed).workers(workers);
        if let Some(sink) = sink {
            request = request.observe(sink);
        }
        request.run().map(Output::Facade).map_err(|e| e.to_string())
    }

    /// Checks one call's output; returns the threshold workload's
    /// `edges ÷ ⌈Σρ/2⌉` (the 2-approximation ratio), 0 elsewhere.
    pub fn check(&self, output: &Output) -> Result<f64, String> {
        if !output.metrics().is_clean() {
            return Err(format!(
                "run not clean: {:?}, {} undelivered",
                output.metrics().violations,
                output.metrics().undelivered
            ));
        }
        match (self.spec.kind, output) {
            (Kind::FloodShardedFaulty, Output::Flood(r)) => {
                let want = clique::rounds_for(self.n);
                if r.metrics.rounds != want {
                    return Err(format!("{} rounds, expected {want}", r.metrics.rounds));
                }
                if r.outputs.len() != self.n {
                    return Err(format!("{} of {} nodes retired", r.outputs.len(), self.n));
                }
                if r.engine.faults_dropped == 0 {
                    return Err("the drop schedule never fired".into());
                }
                Ok(0.0)
            }
            (Kind::ThresholdCertified, Output::Facade(r)) => {
                let t = r.threshold();
                if !t.report.certified() {
                    return Err(format!("not certified: {:?}", t.report));
                }
                if t.report.edges != t.graph.edge_count() {
                    return Err("report and overlay disagree on the edge count".into());
                }
                let bound = edge_lower_bound(&ThresholdInstance::new(self.input.clone()));
                let ratio = t.report.edges as f64 / bound as f64;
                if ratio > 2.0 {
                    return Err(format!("edge ratio {ratio} breaks the 2-approximation"));
                }
                Ok(ratio)
            }
            (_, Output::Facade(r)) => {
                let DriverOutput::Realized(o) = r.degrees() else {
                    return Err("a graphic sequence was refused".into());
                };
                if o.path_order.len() != self.n
                    || o.path_order
                        .iter()
                        .zip(&self.input)
                        .any(|(id, want)| o.requested[id] != *want)
                {
                    return Err("requested degrees are not the generated input".into());
                }
                verify::degrees_match(&o.graph, &o.requested)?;
                if o.duplicate_edges != 0 {
                    return Err(format!("{} duplicate edges", o.duplicate_edges));
                }
                if self.spec.kind == Kind::ExplicitPowerlaw {
                    // Explicit means both endpoints list every edge: the
                    // neighbor lists alone must rebuild the same overlay.
                    let again = verify::assemble_explicit(&o.path_order, &o.explicit_neighbors)?;
                    verify::degrees_match(&again.graph, &o.requested)?;
                    if again.graph.edge_count() != o.graph.edge_count() {
                        return Err("neighbor lists and overlay disagree".into());
                    }
                }
                Ok(0.0)
            }
            (_, Output::Flood(_)) => unreachable!("only the flood returns a flood output"),
        }
    }

    /// Seconds the sequential Havel–Hakimi reference takes on the same
    /// input (degree workloads only).
    pub fn havel_hakimi_s(&self) -> Result<Option<f64>, String> {
        if !matches!(
            self.spec.kind,
            Kind::DegreesDefault | Kind::ExplicitPowerlaw
        ) {
            return Ok(None);
        }
        let seq = DegreeSequence::new(self.input.clone());
        let start = Instant::now();
        let reference = havel_hakimi::realize(&seq).map_err(|e| format!("{e:?}"))?;
        let elapsed = start.elapsed().as_secs_f64();
        if reference.degrees(self.n) != self.input {
            return Err("Havel–Hakimi reference misses the requested degrees".into());
        }
        Ok(Some(elapsed))
    }

    /// Standalone `run_protocol` calls of the two primitives every
    /// realization driver is built from — context establishment and the
    /// bitonic sort (which includes an establishment) — at the workload's
    /// `n` and configuration: `[(seconds, rounds); 2]`. The flood uses
    /// neither.
    pub fn primitives(&self) -> Result<Option<[(f64, u64); 2]>, String> {
        if self.spec.kind == Kind::FloodShardedFaulty {
            return Ok(None);
        }
        let net = Network::new(self.n, self.config(self.spec.workers));
        let start = Instant::now();
        let establish = net
            .run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
            .map_err(|e| e.to_string())?;
        let establish_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let sort = net
            .run_protocol(|_| {
                WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    SortStep::on_ctx(
                        ctx,
                        rctx.id() % 1000,
                        Order::Descending,
                        rctx.id(),
                        SortBackend::Bitonic,
                    )
                })
            })
            .map_err(|e| e.to_string())?;
        let sort_s = start.elapsed().as_secs_f64();
        Ok(Some([
            (establish_s, establish.metrics.rounds),
            (sort_s, sort.metrics.rounds),
        ]))
    }
}
