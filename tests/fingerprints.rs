//! The benchmark's four calls, rebuilt through the public facade, held to
//! the fingerprints `e2e` prints for them: rounds, messages, words and an
//! FNV-1a hash of the output (the sorted edge list; for the flood, every
//! node's contact table), at the benchmark's seed and its hold-out seed.
//! An engine change must leave all four fields alone on every tuple, and
//! this is the test that says so without anyone running the benchmark.
//! Release-only (`cargo test --release --test fingerprints`; CI runs it):
//! the flood alone is 10⁵ nodes.

use distributed_graph_realizations::graphgen;
use distributed_graph_realizations::ncc::Network;
use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::primitives::PathToClique;

#[path = "support/cases.rs"]
mod cases;
use cases::{fnv, FNV_OFFSET};

#[path = "support/spec.rs"]
mod spec;

/// FNV-1a over the little-endian bytes of `word` — the benchmark's.
fn fnv_le(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .into_iter()
        .fold(h, |h, b| fnv(h, b.into()))
}

/// `(rounds, messages, words, output_fnv)`.
type Fingerprint = (u64, u64, u64, u64);

fn of(metrics: &RunMetrics, output_fnv: u64) -> Fingerprint {
    (metrics.rounds, metrics.messages, metrics.words, output_fnv)
}

/// One facade workload at n = 2048, as `crates/bench/src/bin/e2e`'s
/// `workloads.rs` builds it; a degree realization's overlay is the spec's
/// of Algorithm 3.
fn facade(workload: &str, seed: u64) -> Fingerprint {
    use distributed_graph_realizations::realization::distributed::Flavor;
    let n = 2048;
    let request = match workload {
        "degrees_default" => {
            let mut degrees = graphgen::near_regular_sequence(n, 4, 5);
            degrees.rotate_left((seed % n as u64) as usize);
            Realization::new(Workload::Implicit(degrees)).workers(0)
        }
        "explicit_powerlaw" => {
            let degrees = graphgen::power_law_sequence(n, 64, 2.5, seed);
            let request = Realization::new(Workload::Explicit(degrees));
            request.tracking(Kt0::Untracked).workers(1)
        }
        "threshold_certified" => {
            let rho = graphgen::uniform_thresholds(n, 1, 5, seed);
            Realization::new(Workload::Ncc0Exact(rho)).workers(0)
        }
        other => unreachable!("{other} is not a facade workload"),
    };
    let realized = request.seed(seed).run().unwrap();
    if let RunOutput::Degrees(degrees @ DriverOutput::Realized(r)) = &realized.output {
        let flavor = match workload {
            "degrees_default" => Flavor::Implicit,
            _ => Flavor::Explicit,
        };
        let requested: Vec<usize> = (r.path_order.iter()).map(|id| r.requested[id]).collect();
        spec::assert_spec(workload, &requested, flavor, degrees);
    }
    let graph = match &realized.output {
        RunOutput::Degrees(DriverOutput::Realized(o)) => &o.graph,
        RunOutput::Threshold(t) => &t.graph,
        _ => panic!("{workload}: no graph"),
    };
    let mut edges: Vec<_> = graph
        .edge_list()
        .into_iter()
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    edges.sort_unstable();
    let hash = edges
        .into_iter()
        .fold(FNV_OFFSET, |h, (u, v)| fnv_le(fnv_le(h, u), v));
    of(realized.metrics(), hash)
}

/// `flood_sharded_faulty`: the NCC₀ warm-up on 10⁵ nodes, two shards,
/// queue policy, 1 % drop.
fn flood(seed: u64) -> Fingerprint {
    let config = Config::ncc0(seed)
        .with_worker_threads(0)
        .with_queueing()
        .with_shards(2)
        .with_scenario(Scenario::new(seed).drop_messages(0..=u64::MAX, 0.01));
    let result = Network::new(100_000, config)
        .run_protocol(PathToClique::new)
        .unwrap();
    let mut hash = FNV_OFFSET;
    for (id, warm) in &result.outputs {
        hash = fnv_le(hash, *id);
        for c in warm.contacts.fwd.iter().chain(&warm.contacts.bwd) {
            hash = fnv_le(hash, c.unwrap_or(0));
        }
    }
    of(&result.metrics, hash)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn benchmark_calls_keep_their_fingerprints() {
    let expected: [(&str, u64, Fingerprint); 8] = [
        (
            "degrees_default",
            2020,
            (138, 173_265, 660_441, 0x486a_dfda_c475_1a96),
        ),
        (
            "degrees_default",
            5376,
            (138, 173_197, 660_169, 0xd805_c997_2b0a_8ec7),
        ),
        (
            "explicit_powerlaw",
            2020,
            (276, 454_561, 1_531_781, 0x5c99_7163_9b8d_d261),
        ),
        (
            "explicit_powerlaw",
            5376,
            (276, 454_176, 1_530_241, 0x5d87_0705_7c08_86bf),
        ),
        (
            "threshold_certified",
            2020,
            (86, 76_122, 293_566, 0xae97_6a94_0f56_7634),
        ),
        (
            "threshold_certified",
            5376,
            (86, 75_830, 292_650, 0x8e11_aac1_0f98_3ac6),
        ),
        (
            "flood_sharded_faulty",
            2020,
            (17, 1_064_276, 2_994_790, 0x7f29_8523_92c2_bb2a),
        ),
        (
            "flood_sharded_faulty",
            5376,
            (17, 1_056_801, 2_972_443, 0x19cb_9264_535c_0269),
        ),
    ];
    for (workload, seed, want) in expected {
        let got = match workload {
            "flood_sharded_faulty" => flood(seed),
            _ => facade(workload, seed),
        };
        assert_eq!(got, want, "{workload} at seed {seed}");
    }
}
