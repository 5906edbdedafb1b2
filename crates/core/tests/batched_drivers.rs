//! Driver-level differential tests for the degree realizations.
//!
//! * **Engine differential** — the `RealizeDegrees` state machine on the
//!   batched executor and on the reference interpreter: same verdict,
//!   overlay, phases and bit-identical metrics.
//! * **Frozen transcripts** — Algorithm 3 and its extensions were first
//!   written in direct style (blocking closures on a thread-per-node
//!   engine) and the state machine was held round-for-round to those
//!   twins. The twins are gone; what they produced on every case of this
//!   suite is recorded in [`GOLDEN`] — from the twin itself, at the last
//!   commit that had one — and both engines must keep reproducing it.
//!   The two random sweeps are frozen as one folded hash each (their
//!   cases come from the test's name, through `tests/support/cases.rs`).

use dgr_core::distributed::{phase_groups, rounds_for, Flavor};
use dgr_core::driver::{prepare_degrees, DriverOutput};
use dgr_core::verify;
use dgr_ncc::{Config, EngineKind};
use dgr_primitives::{Poll, Step};
use rand::Rng;

#[path = "../../../tests/support/cases.rs"]
mod cases;
use cases::{fnv, FNV_OFFSET};

#[path = "../../primitives/tests/support/busiest.rs"]
mod busiest;

#[path = "../../../tests/support/spec.rs"]
mod spec;
use spec::assert_spec;

/// One frozen transcript: realized?, phases, rounds, messages, words,
/// max sent per round, max received per round, FNV-1a of the sorted edge
/// list (phases 0 and the bare offset on a refusal).
type Golden = (bool, u64, u64, u64, u64, usize, usize, u64);

/// The transcript of a run, in [`Golden`] form.
fn transcript(out: &DriverOutput) -> Golden {
    let m = out.metrics();
    let (realized, phases, edges) = match out {
        DriverOutput::Realized(r) => {
            let edges = r.graph.edge_list();
            let fold = |h, &(a, b): &(u64, u64)| fnv(fnv(h, a), b);
            (true, r.phases, edges.iter().fold(FNV_OFFSET, fold))
        }
        DriverOutput::Unrealizable { .. } => (false, 0, FNV_OFFSET),
    };
    (
        realized,
        phases,
        m.rounds,
        m.messages,
        m.words,
        m.max_sent_per_round,
        m.max_received_per_round,
        edges,
    )
}

/// What the direct-style twin of each case produced (see the module
/// docs), keyed by case name.
#[rustfmt::skip]
const GOLDEN: &[(&str, Golden)] = &[
    ("implicit [2, 2, 2]", (true, 3, 13, 39, 120, 4, 3, 0xd572d3c814555449)),
    ("implicit [4, 4, 4, 4, 4]", (true, 5, 31, 156, 490, 3, 3, 0xb12d0f276738b029)),
    ("implicit [5, 1, 1, 1, 1, 1]", (true, 2, 13, 74, 233, 3, 4, 0x5ecdf9ac82dc147d)),
    ("implicit [3, 3, 2, 2, 1, 1]", (true, 4, 25, 155, 485, 3, 3, 0x56ad7d569778abe2)),
    ("implicit [0, 0, 0]", (true, 1, 5, 12, 34, 2, 2, 0xcbf29ce484222325)),
    ("implicit [6; 32]", (true, 10, 86, 1546, 5415, 6, 6, 0xe538dd2ee2cd3463)),
    ("implicit [3, 3, 1, 1]", (false, 0, 15, 64, 197, 2, 2, 0xcbf29ce484222325)),
    ("implicit [5, 5, 4, 3, 2, 1]", (false, 0, 21, 142, 444, 3, 4, 0xcbf29ce484222325)),
    ("approx [3, 3, 1, 0]", (true, 3, 15, 74, 229, 2, 2, 0x4f27d6687daeee44)),
    ("approx [4, 4, 4, 1, 1]", (true, 4, 25, 124, 390, 3, 3, 0xd71c1c5fa54f934a)),
    ("approx [5, 5, 4, 3, 2, 1]", (true, 4, 27, 184, 577, 3, 4, 0xdef273ded157d5a4)),
    ("approx [3, 2, 2, 2, 1]", (true, 3, 19, 89, 278, 3, 3, 0xd076bf6c97b28641)),
    ("explicit [4, 3, 3, 2, 2, 2, 1, 1]", (true, 4, 30, 253, 783, 4, 3, 0xa6b5a77eafec61a9)),
    ("explicit [2, 2, 1, 1]", (true, 3, 16, 65, 197, 2, 3, 0x031520908d08b7d5)),
    ("explicit [3, 3, 1, 1]", (false, 0, 15, 64, 197, 2, 2, 0xcbf29ce484222325)),
];

/// The folded transcripts of the two random sweeps, from the twins.
const GOLDEN_IMPLICIT_SWEEP: u64 = 0x0220_8fb3_294e_206f;
const GOLDEN_APPROX_SWEEP: u64 = 0x85ac_d328_6fb4_f13a;

/// What a change of schedule may not move: the realized?, phases and
/// edge-hash columns of every [`GOLDEN`] row, then of every case of the
/// two sweeps, folded into one hash. The schedule columns — rounds,
/// messages, words, the per-round maxima — and the two sweep folds above,
/// which include them, are re-frozen when a round budget changes; this
/// fold is not.
const GOLDEN_OVERLAYS: u64 = 0x782e_6627_2750_97f1;

/// `"{what} {degrees:?}"`, with a long constant sequence as `[d; n]`.
fn case_name(what: &str, degrees: &[usize]) -> String {
    match degrees {
        [d, rest @ ..] if rest.len() >= 8 && rest.iter().all(|x| x == d) => {
            format!("{what} [{d}; {}]", degrees.len())
        }
        _ => format!("{what} {degrees:?}"),
    }
}

/// Holds a run to the frozen transcript of its case.
fn assert_golden(case: &str, out: &DriverOutput) {
    let golden = GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("no golden row for case {case:?}"));
    assert_eq!(transcript(out), golden.1, "{case}: transcript drifted");
}

/// Holds a run over `degrees` (one per node) to the
/// closed form of its round count: at its phase count when realized; a
/// refusal ends on some phase's control sweep, before any hand-off.
fn assert_closed_form(case: &str, degrees: &[usize], flavor: Flavor, out: &DriverOutput) {
    let m = out.metrics();
    let groups = phase_groups(degrees, flavor);
    if let DriverOutput::Realized(r) = out {
        assert_eq!(groups.len() as u64 + 1, r.phases, "{case}: phases");
    }
    // A refusal ends on a phase's control sweep, before any hand-off.
    let flavor = if out.is_unrealizable() {
        Flavor::Implicit
    } else {
        flavor
    };
    let explicit = flavor == Flavor::Explicit;
    let want = rounds_for(degrees, flavor, explicit, m.capacity);
    assert_eq!(m.rounds, want, "{case}: {} phases", groups.len() + 1);
}

/// Holds a realized run to its verifier: an exact flavor meets every
/// requested degree with no duplicate edge ([`verify::degrees_match`]),
/// the envelope covers every request within twice their sum (Theorem 13).
fn assert_verified(case: &str, flavor: Flavor, out: &DriverOutput) {
    let DriverOutput::Realized(r) = out else {
        return;
    };
    if flavor == Flavor::Envelope {
        let sum: usize = r.requested.values().sum();
        let covered = r.requested.iter().all(|(id, &d)| r.multi_degrees[id] >= d);
        assert!(covered, "{case}: a request uncovered");
        let envelope_sum: usize = r.multi_degrees.values().sum();
        assert!(
            envelope_sum <= 2 * sum,
            "{case}: Σd' = {envelope_sum} > 2Σd"
        );
    } else {
        verify::degrees_match(&r.graph, &r.requested).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(r.duplicate_edges, 0, "{case}");
    }
}

/// Runs one case on both engines: golden == batched ==
/// reference (the two engines on every metric), rounds on the closed
/// form, the overlay verified and the spec's.
fn assert_case(case: &str, degrees: &[usize], config: Config, flavor: Flavor) {
    let batched = realize(degrees, config.clone(), flavor, EngineKind::Batched);
    let reference = realize(degrees, config, flavor, EngineKind::Reference);
    assert_spec(case, degrees, flavor, &batched);
    assert_spec(case, degrees, flavor, &reference);
    assert_golden(case, &batched);
    assert_golden(case, &reference);
    assert_eq!(batched.metrics(), reference.metrics(), "{case}: engines");
    assert_closed_form(case, degrees, flavor, &batched);
    assert_verified(case, flavor, &batched);
}

// White-box shorthand over the `prepare_degrees` engine room.
fn realize(degrees: &[usize], config: Config, flavor: Flavor, engine: EngineKind) -> DriverOutput {
    prepare_degrees(degrees, config, flavor, engine)
        .unwrap()
        .drive(None)
        .unwrap()
        .output
}

#[test]
fn implicit_matches_frozen_twin_on_both_engines() {
    for degrees in [
        vec![2, 2, 2],
        vec![4, 4, 4, 4, 4],
        vec![5, 1, 1, 1, 1, 1],
        vec![3, 3, 2, 2, 1, 1],
        vec![0, 0, 0],
        vec![6; 32],
        vec![3, 3, 1, 1],       // non-graphic
        vec![5, 5, 4, 3, 2, 1], // non-graphic
    ] {
        let case = case_name("implicit", &degrees);
        assert_case(&case, &degrees, Config::ncc0(7), Flavor::Implicit);
    }
}

#[test]
fn approx_matches_frozen_twin_on_both_engines() {
    for degrees in [
        vec![3, 3, 1, 0],
        vec![4, 4, 4, 1, 1],
        vec![5, 5, 4, 3, 2, 1],
        vec![3, 2, 2, 2, 1], // graphic input: exact realization
    ] {
        let case = case_name("approx", &degrees);
        assert_case(&case, &degrees, Config::ncc0(13), Flavor::Envelope);
    }
}

#[test]
fn explicit_matches_frozen_twin_on_both_engines() {
    for degrees in [
        vec![4, 3, 3, 2, 2, 2, 1, 1],
        vec![2, 2, 1, 1],
        vec![3, 3, 1, 1], // non-graphic
    ] {
        let config = Config::ncc0(31).with_queueing();
        let case = case_name("explicit", &degrees);
        assert_case(&case, &degrees, config, Flavor::Explicit);
    }
}

#[test]
fn explicit_batched_star_fan_in_is_paced() {
    // Δ = n-1 at the hub: the scheduled hand-off must keep delivery under
    // capacity on the batched engine too.
    let n = 48;
    let mut degrees = vec![1usize; n];
    degrees[0] = n - 1;
    let config = Config::ncc0(35).with_queueing();
    let out = realize(&degrees, config, Flavor::Explicit, EngineKind::Batched);
    let g = out.expect_realized();
    assert!(g.metrics.max_received_per_round <= g.metrics.capacity);
    assert_eq!(g.graph.degree_sequence()[0], n - 1);
    assert_eq!(g.metrics.undelivered, 0);
}

/// The closed form at the sizes the golden cases do not reach, both
/// engines: a moved round budget shows as a moved formula, not as a moved
/// row.
#[test]
fn round_counts_follow_the_closed_form_at_scale() {
    for n in [64usize, 300, 2048] {
        // Near-regular, graphic (even sum, far inside Erdős–Gallai).
        let degrees: Vec<usize> = (0..n).map(|i| 2 + 2 * (i % 3)).collect();
        let flavors = [
            (Flavor::Implicit, Config::ncc0(5)),
            (Flavor::Explicit, Config::ncc0(5).with_queueing()),
        ];
        for (flavor, config) in flavors {
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let what = format!("n={n} {flavor:?} {engine:?}");
                let out = realize(&degrees, config.clone(), flavor, engine);
                assert!(out.expect_realized().phases > 2, "{what}");
                assert_closed_form(&what, &degrees, flavor, &out);
            }
        }
    }
}

/// The control sweep and the lane (the sort or the merge lane, in place)
/// share their rounds, and so does the last phase's hop back to the
/// origins (multicast, then status), which ends inside the sweep at some
/// lengths and outlasts it at others. At the edges of that overlap — the
/// paths the sweep outlasts the sort on (two and four nodes), the one it
/// ties the sort on (eight, the last a later phase still sorts again on),
/// the short ones the sort outlasts it on (three, five), the first it
/// merges on (nine), and longer ones; with the hop inside the sweep or
/// past it, at the default capacity — and at the capacity floor (cap = 4,
/// where the sweep is paced from ten nodes on: two sweep messages a round
/// at most, beside one of the lane and one of the hop), every flavour
/// runs clean under the strict policy on both engines, the per-round
/// maxima within the cap on both sides, on the closed form, where the
/// merge lane fits the control sweep exactly while the groups stay under
/// `2^(control - ⌈log₂ n⌉ - 1)`.
#[test]
fn sweep_beside_the_sort_runs_clean_at_its_edges() {
    use dgr_core::distributed::{hop_rounds_for, merges};
    use dgr_primitives::{levels_for, ops, sort};
    use std::cmp::Ordering::{Equal, Greater, Less};
    let edges = [
        (2usize, Greater, false),
        (3, Less, false),
        (4, Greater, true),
        (5, Less, false),
        (8, Equal, true),
        (9, Less, false),
        (16, Less, true),
        (17, Less, false),
        (256, Less, true),
    ];
    for (n, edge, hop_inside) in edges {
        let control = ops::rounds_for(n, Config::ncc0(0).capacity(n));
        assert_eq!(control.cmp(&sort::rounds_for(n)), edge, "n={n}: wrong edge");
        assert_eq!(hop_rounds_for(n) <= control, hop_inside, "n={n}");
        assert_eq!(merges(Flavor::Implicit, n), n > 8, "n={n}");
        // Graphic, Δ ≤ 4: a strict-cap hand-off never exceeds the floor.
        let degrees: Vec<usize> = (0..n).map(|i| (2 + 2 * (i % 2)).min(n - 1)).collect();
        for factor in [2.0, 0.1] {
            let config = Config::ncc0(n as u64 + 40).with_capacity_factor(factor);
            for flavor in [Flavor::Implicit, Flavor::Envelope, Flavor::Explicit] {
                let what = format!("n={n} factor={factor} {flavor:?}");
                let run = |engine| realize(&degrees, config.clone(), flavor, engine);
                let (batched, reference) = (run(EngineKind::Batched), run(EngineKind::Reference));
                assert_eq!(batched.metrics(), reference.metrics(), "{what}: engines");
                let r = batched.expect_realized();
                let m = &r.metrics;
                assert!(m.is_clean(), "{what}: {:?}", m.violations);
                assert!(
                    factor > 1.0 || m.capacity == 4,
                    "{what}: cap {}",
                    m.capacity
                );
                assert!(m.max_sent_per_round <= m.capacity, "{what}");
                assert!(m.max_received_per_round <= m.capacity, "{what}");
                assert!(r.phases > 2 || n == 2, "{what}: no later phase");
                let groups = phase_groups(&degrees, flavor);
                assert_eq!(groups.len() as u64 + 1, r.phases, "{what}");
                let control = ops::rounds_for(n, m.capacity);
                let spare = control.checked_sub(levels_for(n) as u64 + 1);
                let edge = spare.map_or(0, |bits| 1 << bits);
                for &(g, ..) in groups.iter().filter(|_| merges(flavor, n)) {
                    let fits = sort::merge_rounds_for(n, g) <= control;
                    assert_eq!(fits, g < edge, "{what}: {g} groups");
                }
                let explicit = flavor == Flavor::Explicit;
                let want = rounds_for(&degrees, flavor, explicit, m.capacity);
                assert_eq!(m.rounds, want, "{what}: {} phases", r.phases);
            }
        }
    }
}

/// One random sweep: `cases` draws from the test's name-derived case
/// stream (the cases this test first ran against the twin), each run on
/// both engines; returns the transcript of every case.
fn sweep(
    name: &str,
    cases: u32,
    flavor: Flavor,
    degree: std::ops::Range<usize>,
    len: std::ops::Range<usize>,
    check: impl Fn(&[usize], &DriverOutput),
) -> Vec<Golden> {
    let mut rng = cases::case_rng(&format!("{}::{name}", module_path!()));
    let mut rows = Vec::new();
    for _ in 0..cases {
        let degrees = cases::vec_of(&mut rng, len.clone(), |r| r.gen_range(degree.clone()));
        let seed = rng.gen_range(0u64..1000);
        let run = |engine| realize(&degrees, Config::ncc0(seed), flavor, engine);
        let (batched, reference) = (run(EngineKind::Batched), run(EngineKind::Reference));
        let what = format!("{name} {degrees:?} seed {seed}");
        assert_eq!(transcript(&batched), transcript(&reference), "{what}");
        assert_eq!(batched.metrics(), reference.metrics(), "{what}: engines");
        check(&degrees, &batched);
        assert_spec(&what, &degrees, flavor, &batched);
        assert_spec(&what, &degrees, flavor, &reference);
        assert_closed_form(&what, &degrees, flavor, &batched);
        assert_verified(&what, flavor, &batched);
        rows.push(transcript(&batched));
    }
    rows
}

/// Folds transcripts into one hash: every column, or (`overlay_only`)
/// just realized?, phases and the edge hash.
fn fold(rows: &[Golden], overlay_only: bool) -> u64 {
    let mut folded = FNV_OFFSET;
    for &(ok, phases, rounds, messages, words, sent, received, edges) in rows {
        let schedule = [rounds, messages, words, sent as u64, received as u64];
        folded = fnv(fnv(folded, ok as u64), phases);
        if !overlay_only {
            folded = schedule.iter().fold(folded, |h, &x| fnv(h, x));
        }
        folded = fnv(folded, edges);
    }
    folded
}

/// Random degree sequences (graphic or not): both engines must reproduce
/// the twin's verdict and, when realized, its exact overlay.
fn implicit_sweep() -> Vec<Golden> {
    sweep(
        "implicit_sweep_engines_agree",
        24,
        Flavor::Implicit,
        0..9,
        4..20,
        |degrees, batched| {
            // When realized, the overlay's degrees are exactly the request.
            if let DriverOutput::Realized(b) = batched {
                let mut want = degrees.to_vec();
                want.sort_unstable_by(|a, b| b.cmp(a));
                assert_eq!(b.graph.degree_sequence(), want);
            }
        },
    )
}

#[test]
fn implicit_sweep_engines_agree() {
    let folded = fold(&implicit_sweep(), false);
    assert_eq!(folded, GOLDEN_IMPLICIT_SWEEP, "sweep transcript drifted");
}

/// The envelope realization: always succeeds (absent oversized degrees)
/// with the Theorem 13 bounds, identically on both engines.
fn approx_sweep() -> Vec<Golden> {
    sweep(
        "approx_sweep_engines_agree",
        24,
        Flavor::Envelope,
        0..7,
        4..16,
        |degrees, batched| {
            if let DriverOutput::Realized(b) = batched {
                let sum: usize = degrees.iter().sum();
                let envelope_sum: usize = b.multi_degrees.values().sum();
                assert!(envelope_sum <= 2 * sum.max(1), "Σd' = {envelope_sum} > 2Σd");
            }
        },
    )
}

#[test]
fn approx_sweep_engines_agree() {
    let folded = fold(&approx_sweep(), false);
    assert_eq!(folded, GOLDEN_APPROX_SWEEP, "sweep transcript drifted");
}

/// The schedule-independent columns of the whole suite (the table rows
/// are held to their runs by the tests above).
#[test]
fn overlays_match_the_frozen_fold() {
    let mut rows: Vec<Golden> = GOLDEN.iter().map(|(_, row)| *row).collect();
    rows.extend(implicit_sweep());
    rows.extend(approx_sweep());
    assert_eq!(
        fold(&rows, true),
        GOLDEN_OVERLAYS,
        "an overlay or a phase count moved"
    );
}

/// The exact flavors' overlays equal the spec's on both engines at
/// every path length from 1 to 300, on requests drawn from the test's
/// case stream: degrees below `min(n, 12)`, the odd sums evened by one
/// more at the first position — graphic or not.
#[test]
fn overlays_equal_the_spec_at_every_length() {
    let mut rng = cases::case_rng(&format!("{}::overlays_equal_the_spec", module_path!()));
    for n in 1..=300usize {
        let mut degrees = cases::vec_of(&mut rng, n..=n, |r| r.gen_range(0..n.min(12)));
        if degrees.iter().sum::<usize>() % 2 == 1 {
            degrees[0] = (degrees[0] + 1) % n;
        }
        let seed = rng.gen_range(0u64..1000);
        for flavor in [Flavor::Implicit, Flavor::Explicit] {
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let what = format!("n={n} seed {seed} {flavor:?} {engine:?}");
                let out = realize(&degrees, Config::ncc0(seed), flavor, engine);
                assert_spec(&what, &degrees, flavor, &out);
                assert_closed_form(&what, &degrees, flavor, &out);
            }
        }
    }
}

/// The hand-off's fan-in and fan-out, measured on both engines at every
/// capacity from the floor to 24, on a star, a near-regular request and a
/// two-tier one (graphic), in the explicit flavor and in the explicit envelope core
/// of Algorithm 6: no leader's origin hears more announcements in a round
/// than its phase's rate — what half the capacity leaves beside the loop,
/// or half the capacity in a block after it — no position sends more than
/// one a round beside the loop, nor more than one a lane in the blocks,
/// and the whole run stays within the capacity under the strict policy,
/// on the closed form.
#[test]
fn the_hand_off_stays_within_its_rate() {
    use busiest::{busiest_sender, Busiest, Senders};
    use dgr_core::distributed::{beside_rate, block_rate, DegreesCore};
    use dgr_ncc::{tags, Network, RoundCtx};
    use dgr_primitives::{PathCtx, WithCtx};
    for n in [12usize, 33, 80] {
        let star: Vec<usize> = (0..n).map(|i| if i == 0 { n - 1 } else { 1 }).collect();
        let regular: Vec<usize> = (0..n).map(|i| 2 + 2 * (i % 3)).collect();
        let tiers: Vec<usize> = (0..n)
            .map(|i| if i < n / 3 { n / 6 * 2 } else { 2 })
            .collect();
        for degrees in [star, regular, tiers] {
            assert!(dgr_core::erdos_gallai::is_graphic(&degrees), "{degrees:?}");
            for cap in 4..=24 {
                let mut config = Config::ncc0(cap as u64).with_capacity_factor(0.0);
                config.min_capacity = cap;
                let net = Network::new(n, config);
                let by_id = net.assign_in_path_order(&degrees);
                for flavor in [Flavor::Explicit, Flavor::Envelope] {
                    let phases = phase_groups(&degrees, flavor);
                    let rate = phases
                        .iter()
                        .map(|&(_, d, _)| beside_rate(n, d, cap).unwrap_or(block_rate(cap)))
                        .max()
                        .unwrap_or(0);
                    for engine in [EngineKind::Batched, EngineKind::Reference] {
                        let what = format!("n={n} cap={cap} {flavor:?} {engine:?} {degrees:?}");
                        let sent = Senders::default();
                        let run = net.run_protocol_on(engine, None, None, |s| {
                            let (degree, sent) = (by_id[&s.id], sent.clone());
                            let key = degree as u64;
                            WithCtx::keyed(key, move |ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                                let core = DegreesCore::new(degree, flavor, ctx.clone());
                                Busiest::counting(core.explicit(), &[tags::EDGE], sent)
                            })
                        });
                        let run = run.unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert!(run.metrics.is_clean(), "{what}: {:?}", run.metrics);
                        let mut heard = 0;
                        for (_, (out, most)) in &run.outputs {
                            assert!(out.is_ok(), "{what}: refused");
                            heard = heard.max(*most);
                        }
                        assert!(heard <= rate, "{what}: {heard} a round over {rate}");
                        assert!(heard > 0, "{what}: no announcement");
                        let blocks = phases
                            .iter()
                            .any(|&(_, d, _)| beside_rate(n, d, cap).is_none());
                        let most = if blocks { cap } else { 1 };
                        assert!((1..=most).contains(&busiest_sender(&sent)), "{what}");
                        let want = rounds_for(&degrees, flavor, true, cap);
                        assert_eq!(run.metrics.rounds, want, "{what}");
                    }
                }
            }
        }
    }
}

/// Every announcement is due in a round its leader can name, so losing a
/// round of them is a typed panic at the leader's origin when its window
/// closes, on both engines — never a one-sided edge. At the capacity
/// floor a star's announcements go out in a block after the loop, where
/// nothing else is in flight: the block's first round is lost here.
#[test]
fn a_lost_announcement_panics_its_leader() {
    use dgr_core::distributed::beside_rate;
    use dgr_ncc::{Scenario, SimError};
    let n = 16;
    let star: Vec<usize> = (0..n).map(|i| if i == 0 { n - 1 } else { 1 }).collect();
    let config = Config::ncc0(7).with_capacity_factor(0.1);
    let cap = config.capacity(n);
    assert_eq!((cap, beside_rate(n, n - 1, cap)), (4, None));
    let block = rounds_for(&star, Flavor::Explicit, false, cap);
    assert!(rounds_for(&star, Flavor::Explicit, true, cap) > block);
    let lost = Scenario::new(3).drop_messages(block..=block, 1.0);
    for engine in [EngineKind::Batched, EngineKind::Reference] {
        let config = config.clone().with_scenario(lost.clone());
        let job = prepare_degrees(&star, config, Flavor::Explicit, engine);
        match job.unwrap().drive(None) {
            Err(SimError::NodePanic { message, .. }) => {
                assert_eq!(message, "message loss: a leader missed an announcement");
            }
            other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
        }
    }
}
