//! Driver-level differential tests for Algorithm 6 with the cyclic
//! pipeline phase 1 (NCC0 explicit threshold realization) and for the
//! Theorem 17 NCC1 star.
//!
//! * **Engine differential** — the `Ncc0Threshold` and `Ncc1Star` state
//!   machines on the batched executor and on the reference interpreter:
//!   same certified overlay, bit-identical metrics.
//! * **Frozen transcripts** — both constructions were first written in
//!   direct style (blocking closures on a thread-per-node engine). What
//!   those twins produced on every case of this suite was recorded from
//!   the twin itself, at the last commit that had one, and both engines
//!   must keep reproducing it: the whole transcript for the pipeline
//!   ([`GOLDEN`]), the overlay for the star ([`GOLDEN_STAR_OVERLAYS`] —
//!   the star's twin built the full path context first and the state
//!   machine never did, so the two were only ever overlay-identical).

use dgr_connectivity::{prepare_threshold, ThresholdAlgo, ThresholdInstance, ThresholdRealization};
use dgr_ncc::{Config, EngineKind};
use dgr_primitives::{Poll, Step};

#[path = "../../../tests/support/cases.rs"]
mod cases;
use cases::{fnv, FNV_OFFSET};

#[path = "../../primitives/tests/support/busiest.rs"]
mod busiest;

// White-box shorthand over the `prepare_threshold` engine room.
fn realize(
    inst: &ThresholdInstance,
    config: Config,
    algo: ThresholdAlgo,
    engine: EngineKind,
) -> ThresholdRealization {
    prepare_threshold(inst, config, algo, engine, true)
        .unwrap()
        .drive(None)
        .unwrap()
        .output
}
fn realize_ncc0_batched(inst: &ThresholdInstance, c: Config) -> ThresholdRealization {
    realize(inst, c, ThresholdAlgo::Ncc0Pipeline, EngineKind::Batched)
}

/// One frozen transcript: certified?, rounds, messages, words, max sent
/// per round, max received per round, FNV-1a of the sorted edge list.
type Golden = (bool, u64, u64, u64, usize, usize, u64);

/// The transcript of a run, in [`Golden`] form.
fn transcript(out: &ThresholdRealization) -> Golden {
    let edges = out
        .graph
        .edge_list()
        .iter()
        .fold(FNV_OFFSET, |h, &(a, b)| fnv(fnv(h, a), b));
    let m = &out.metrics;
    (
        out.report.satisfied,
        m.rounds,
        m.messages,
        m.words,
        m.max_sent_per_round,
        m.max_received_per_round,
        edges,
    )
}

/// What the pipeline's direct-style twin produced on each case.
#[rustfmt::skip]
const GOLDEN: &[(&str, Golden)] = &[
    ("ncc0 [1, 1, 1, 1]", (true, 13, 34, 86, 2, 2, 0x1136f5c16163ceed)),
    ("ncc0 [2, 2, 2, 2, 2]", (true, 17, 57, 143, 2, 2, 0xd87bf74751ecc63a)),
    ("ncc0 [3, 2, 2, 1, 1, 1]", (true, 19, 68, 176, 2, 2, 0xc599f9b607ab4c36)),
    ("ncc0 [4, 4, 3, 2, 2, 1, 1, 1, 1, 1]", (true, 23, 136, 364, 3, 2, 0xf66ddd62fcc60884)),
    ("ncc0 [5; 12]", (true, 26, 242, 606, 4, 2, 0xf1dd06de3916356f)),
];

/// What a change of schedule may not move: the certified? and edge-hash
/// columns of every pipeline case, folded in order. The schedule columns
/// of [`GOLDEN`] — rounds, messages, words, the per-round maxima — are
/// re-frozen when a round budget changes; this fold is not.
const GOLDEN_OVERLAYS: u64 = 0xcb7c_8017_ff9c_0136;

/// The overlay (edge-list hash) the star's direct-style twin realized.
#[rustfmt::skip]
const GOLDEN_STAR_OVERLAYS: &[(&str, u64)] = &[
    ("ncc1 [2, 2, 1, 1, 1]", 0x3b879d2050d2a17f),
    ("ncc1 [4, 3, 2, 2, 1, 1, 1, 1]", 0x15c8eed5d54e4106),
    ("ncc1 [3; 9]", 0xbcc5c9904afa63de),
];

/// The frozen entry of `case` in `table`.
fn golden<T: Copy>(table: &[(&str, T)], case: &str) -> T {
    let row = table.iter().find(|(name, _)| *name == case);
    row.unwrap_or_else(|| panic!("no golden row for case {case:?}"))
        .1
}

/// `"{what} {rho:?}"`, with a long constant vector as `[r; n]`.
fn case_name(what: &str, rho: &[usize]) -> String {
    match rho {
        [r, rest @ ..] if rest.len() >= 8 && rest.iter().all(|x| x == r) => {
            format!("{what} [{r}; {}]", rho.len())
        }
        _ => format!("{what} {rho:?}"),
    }
}

#[test]
fn ncc0_pipeline_matches_frozen_twin_on_both_engines() {
    let mut overlays = FNV_OFFSET;
    for rho in [
        vec![1usize, 1, 1, 1],
        vec![2, 2, 2, 2, 2],
        vec![3, 2, 2, 1, 1, 1],
        vec![4, 4, 3, 2, 2, 1, 1, 1, 1, 1],
        vec![5; 12],
    ] {
        let inst = ThresholdInstance::new(rho.clone());
        let config = Config::ncc0(71).with_queueing();
        let algo = ThresholdAlgo::Ncc0Pipeline;
        let case = case_name("ncc0", &rho);
        let batched = realize(&inst, config.clone(), algo, EngineKind::Batched);
        let reference = realize(&inst, config, algo, EngineKind::Reference);
        // golden == batched == reference.
        let row = golden(GOLDEN, &case);
        assert_eq!(transcript(&batched), row, "{case}: transcript drifted");
        assert_eq!(transcript(&reference), row, "{case}: reference");
        assert_eq!(batched.metrics, reference.metrics, "{case}: engines");
        assert!(batched.report.satisfied, "{rho:?}: {:?}", batched.report);
        assert_eq!(batched.metrics.undelivered, 0);
        let (certified, .., edges) = transcript(&batched);
        overlays = fnv(fnv(overlays, certified as u64), edges);
    }
    assert_eq!(overlays, GOLDEN_OVERLAYS, "an overlay moved");
}

#[test]
fn ncc1_star_matches_frozen_twin_overlays_on_both_engines() {
    for rho in [
        vec![2, 2, 1, 1, 1],
        vec![4, 3, 2, 2, 1, 1, 1, 1],
        vec![3; 9],
    ] {
        let inst = ThresholdInstance::new(rho.clone());
        let algo = ThresholdAlgo::Ncc1Star;
        let case = case_name("ncc1", &rho);
        let batched = realize(&inst, Config::ncc1(77), algo, EngineKind::Batched);
        let reference = realize(&inst, Config::ncc1(77), algo, EngineKind::Reference);
        // golden == batched == reference, on the overlay.
        let overlay = golden(GOLDEN_STAR_OVERLAYS, &case);
        assert_eq!(transcript(&batched).6, overlay, "{case}: overlay drifted");
        assert_eq!(transcript(&batched), transcript(&reference), "{case}");
        assert_eq!(batched.metrics, reference.metrics, "{case}: engines");
        assert!(batched.report.satisfied);
    }
}

#[test]
fn batched_ncc0_survives_the_multigraph_corner() {
    // The tiered profile that broke the paper's Theorem-13-based phase 1;
    // the cyclic construction must satisfy it on the batched engine too.
    let mut rho = vec![1usize; 48];
    for r in rho.iter_mut().take(4) {
        *r = 6;
    }
    for r in rho.iter_mut().take(20).skip(4) {
        *r = 3;
    }
    let inst = ThresholdInstance::new(rho);
    let out = realize_ncc0_batched(&inst, Config::ncc0(31).with_queueing());
    assert!(out.report.satisfied, "{:?}", out.report);
}

#[test]
fn batched_ncc0_all_max_rho_is_complete() {
    let n = 8;
    let inst = ThresholdInstance::new(vec![n - 1; n]);
    let out = realize_ncc0_batched(&inst, Config::ncc0(74).with_queueing());
    assert!(out.report.satisfied);
    assert_eq!(out.graph.edge_count(), n * (n - 1) / 2);
}

#[test]
fn paper_exact_prefix_envelope_realizes_the_prefix_degrees() {
    use dgr_core::distributed::Flavor;
    // The tiered profile from the paper's multigraph corner, ρ-sorted
    // (6 × 4, 3 × 16, 1 × 28): d₀ = 6, so the prefix is the 7 highest-ρ
    // nodes, realized as a masked sub-network — Algorithm 6's paper-exact
    // phase 1 in isolation.
    let mut sorted = vec![1usize; 48];
    for r in sorted.iter_mut().take(4) {
        *r = 6;
    }
    for r in sorted.iter_mut().take(20).skip(4) {
        *r = 3;
    }
    let mask: Vec<bool> = (0..48).map(|i| i < 7).collect();
    let (flavor, engine) = (Flavor::Envelope, EngineKind::Batched);
    let config = Config::ncc0(41);
    let job = dgr_core::prepare_degrees(&sorted, Some(&mask), config, flavor, engine);
    let out = job.unwrap().drive(None).unwrap().output;
    let g = out.expect_realized();
    // Exactly the d₀ + 1 prefix nodes participated.
    assert_eq!(g.path_order.len(), 7);
    assert!(g.metrics.is_clean());
    // Theorem 13 over the sub-network: every prefix node's (multiset)
    // degree covers its requirement, within the 2Σρ budget.
    let mut envelope_sum = 0;
    for (i, &id) in g.path_order.iter().enumerate() {
        let d_prime = g.multi_degrees[&id];
        assert!(
            d_prime >= sorted[i],
            "prefix rank {i}: envelope {d_prime} < ρ {}",
            sorted[i]
        );
        envelope_sum += d_prime;
    }
    let prefix_sum: usize = sorted[..7].iter().sum();
    assert!(envelope_sum <= 2 * prefix_sum);
    // The sub-network run pays sub-network round budgets: its per-phase
    // primitives run on a 7-node path (log₂ 7 ≈ 3 levels), not the
    // 48-node one.
    assert!(g.metrics.rounds < 400, "rounds = {}", g.metrics.rounds);
}

/// The token pipeline's fan-in and fan-out with its acknowledgements,
/// measured on both engines at every capacity from the floor to 24, every
/// position from 1 on injecting a token of up to `d₀` hops head-ward: a
/// node hears at most one token and one acknowledgement a round and sends
/// at most one of each, the run stays within the capacity under the
/// strict policy, and both endpoints of every edge list each other, in
/// `d₀ + 1` rounds past the establishment.
#[test]
fn the_pipeline_hears_one_token_and_one_ack_a_round() {
    use busiest::{busiest_sender, Busiest, Senders};
    use dgr_connectivity::distributed::ncc0::PipelineStep;
    use dgr_ncc::{tags, Network, RoundCtx};
    use dgr_primitives::{ctx, PathCtx, WithCtx};
    for (n, d0) in [(9usize, 3usize), (40, 7), (64, 12)] {
        for cap in 4..=24 {
            let mut config = Config::ncc0(cap as u64).with_capacity_factor(0.0);
            config.min_capacity = cap;
            let net = Network::new(n, config);
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let what = format!("n={n} d0={d0} cap={cap} {engine:?}");
                let sent = Senders::default();
                let run = net.run_protocol_on(engine, None, None, |_| {
                    let sent = sent.clone();
                    WithCtx::new(move |c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let ttl = c.position.min(d0);
                        let pipeline =
                            PipelineStep::new(c.vp.pred, Some(ttl), d0 as u64 + 1, rctx.id());
                        let tokens = Busiest::new(pipeline, &[tags::EDGE]);
                        Busiest::counting(tokens, &[tags::EDGE, tags::EDGE_ACK], sent)
                    })
                });
                let run = run.unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(run.metrics.is_clean(), "{what}: {:?}", run.metrics);
                assert_eq!(
                    run.metrics.rounds,
                    ctx::rounds_for(n) + d0 as u64 + 1,
                    "{what}"
                );
                assert_eq!(busiest_sender(&sent), 2, "{what}");
                let order = net.ids_in_path_order();
                let most = run.outputs.iter().map(|(_, (_, both))| *both).max();
                assert_eq!(most, Some(2), "{what}");
                for (x, (id, ((gained, tokens), both))) in run.outputs.iter().enumerate() {
                    assert_eq!(*id, order[x], "{what}");
                    assert!(*tokens <= 1 && *both <= 2, "{what}: position {x}");
                    // The origins within d₀ ahead whose tokens reached x,
                    // then the recipients behind it that acknowledged.
                    let ahead = (x + 1..n).filter(|&y| y - x <= y.min(d0));
                    let behind = (x - x.min(d0)..x).rev();
                    let want: Vec<_> = ahead.chain(behind).map(|y| order[y]).collect();
                    assert_eq!(gained, &want, "{what}: position {x}");
                }
            }
        }
    }
}

/// [`ncc0::rounds_for`] is the pipeline run's round count on both
/// engines, strict, at n ∈ {2, 17, 64, 512}: with every `ρ` below 8 the
/// first sort takes the class route, with some `ρ` of 8 or more the
/// network.
///
/// [`ncc0::rounds_for`]: dgr_connectivity::distributed::ncc0::rounds_for
#[test]
fn ncc0_rounds_follow_the_closed_form() {
    use dgr_connectivity::distributed::ncc0;
    use dgr_primitives::sort;
    for n in [2usize, 17, 64, 512] {
        for top in [5, 12] {
            let rho: Vec<usize> = (0..n).map(|i| (1 + i * 7 % top).min(n - 1)).collect();
            let inst = ThresholdInstance::new(rho.clone());
            let config = Config::ncc0(n as u64);
            let algo = ThresholdAlgo::Ncc0Pipeline;
            let what = format!("n={n} top={top}");
            let [batched, reference] = [EngineKind::Batched, EngineKind::Reference]
                .map(|engine| realize(&inst, config.clone(), algo, engine));
            assert_eq!(batched.metrics, reference.metrics, "{what}: engines");
            let m = &batched.metrics;
            assert!(batched.report.satisfied, "{what}: {:?}", batched.report);
            assert!(m.is_clean(), "{what}: {:?}", m.violations);
            assert_eq!(m.rounds, ncc0::rounds_for(&rho, m.capacity), "{what}");
            let keys = rho.iter().map(|&r| r as u64);
            let routed = sort::first_rounds_for(keys, m.capacity, 0) == sort::route_rounds_for(n);
            assert_eq!(routed, rho.iter().all(|&r| r < 8), "{what}");
        }
    }
}

/// A token never waits, so every acknowledgement is due in a round its
/// origin can name: losing a round of phase 2 — the tokens it forwards and
/// the acknowledgements it carries — is a typed panic at an origin, on
/// both engines, never an edge one endpoint lacks.
#[test]
fn a_lost_ack_panics_its_origin() {
    use dgr_ncc::{Scenario, SimError};
    let inst = ThresholdInstance::new((0..64).map(|i| 1 + i % 3).collect());
    let algo = ThresholdAlgo::Ncc0Pipeline;
    let job = |config, engine| prepare_threshold(&inst, config, algo, engine, false).unwrap();
    let clean = job(Config::ncc0(19), EngineKind::Batched)
        .drive(None)
        .unwrap();
    // Phase 2 (d₀ = 3) is the run's last 4 rounds: 3 hops and the last
    // acknowledgement. Its second round forwards the tokens and sends the
    // first acknowledgements.
    let lost = clean.output.metrics.rounds - 4 + 1;
    let scenario = Scenario::new(5).drop_messages(lost..=lost, 1.0);
    for engine in [EngineKind::Batched, EngineKind::Reference] {
        match job(Config::ncc0(19).with_scenario(scenario.clone()), engine).drive(None) {
            Err(SimError::NodePanic { message, .. }) => {
                assert_eq!(message, "message loss: an origin missed an acknowledgement");
            }
            other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
        }
    }
}
