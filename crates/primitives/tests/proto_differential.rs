//! Differential tests for the step-function primitives.
//!
//! Two layers of evidence, per primitive:
//!
//! 1. **Engine differential** — the same state machine on the batched
//!    executor and on the reference interpreter must produce identical
//!    outputs and bit-identical [`RunMetrics`].
//! 2. **Frozen transcripts** — every primitive was first written in
//!    direct style (a blocking closure per node on a thread-per-node
//!    engine) and ported to a step machine held round-for-round to that
//!    twin. The twins are gone; what they produced on each case of this
//!    suite — rounds, messages, words, max sent, max received and a hash
//!    of every node's output — was recorded in [`GOLDEN`] from the twin
//!    itself, at the last commit that had one, and the step machine must
//!    keep reproducing it on both engines. A change of schedule re-freezes
//!    the first five columns, never the output hash — but for the
//!    establishment's, whose context no longer holds the twin's search
//!    tree and traversal, and the sort's, whose sorted path also names
//!    the holder of each record (rendered without that field, the
//!    outputs still hash to the twin's). The sweep cases hash the value
//!    the twin handed out: the one word, or the median's address; the
//!    multicast cases the twin's payload, the source's address and its
//!    rank.

use dgr_ncc::{Config, EngineKind, Network, NodeId, NodeProtocol, RoundCtx, RunResult};
use dgr_primitives::ctx::UndirectStep;
use dgr_primitives::imcast::ImcastStep;
use dgr_primitives::ops::{Fold, SweepStep};
use dgr_primitives::prefix::PrefixStep;
use dgr_primitives::sort::{Order, RankStep, SortStep};
use dgr_primitives::warmup::WarmupStep;
use dgr_primitives::WithCtx as CtxThen;
use dgr_primitives::{EstablishCtx, PathCtx, Step, StepProtocol};

#[path = "../../../tests/support/cases.rs"]
mod cases;

/// Asserts full observational equality of a protocol on both engines and
/// returns the batched run.
fn engines_agree<P, F>(net: &Network, factory: F) -> RunResult<P::Output>
where
    P: NodeProtocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(&dgr_ncc::NodeSeed<'_>) -> P + Send + Sync,
{
    let batched = net.run_protocol(&factory).unwrap();
    let reference = net
        .run_protocol_on(EngineKind::Reference, None, None, &factory)
        .unwrap();
    assert_eq!(batched.outputs, reference.outputs, "engine outputs diverge");
    assert_eq!(batched.metrics, reference.metrics, "engine metrics diverge");
    batched
}

/// One frozen transcript: rounds, messages, words, max sent per round,
/// max received per round, FNV-1a of the `Debug` rendering of every
/// node's `(id, output)` in path order.
type Golden = (u64, u64, u64, usize, usize, u64);

/// The transcript of a run, in [`Golden`] form.
fn transcript<T: std::fmt::Debug>(result: &RunResult<T>) -> Golden {
    transcript_of(&result.outputs, &result.metrics)
}

/// [`transcript`] with the outputs given apart from the metrics: a sweep's
/// the value the twin handed out, its one word or its address.
fn transcript_of(outputs: &impl std::fmt::Debug, m: &dgr_ncc::RunMetrics) -> Golden {
    let hash = format!("{outputs:?}")
        .bytes()
        .fold(cases::FNV_OFFSET, |h, b| cases::fnv(h, u64::from(b)));
    (
        m.rounds,
        m.messages,
        m.words,
        m.max_sent_per_round,
        m.max_received_per_round,
        hash,
    )
}

/// What the direct-style twin of each case produced (see the module
/// docs), keyed by case name.
#[rustfmt::skip]
const GOLDEN: &[(&str, Golden)] = &[
    ("sort n=21 seed=1", (23, 433, 1239, 2, 2, 0x66012929fd4d2206)),
    ("sort n=48 seed=2", (30, 1360, 3939, 2, 2, 0xca5d84c53d617551)),
    ("sort n=100 seed=3", (38, 3652, 10659, 2, 2, 0xaa06db3a4052fc05)),
    ("prefix", (15, 984, 2432, 2, 2, 0x3fdd578ce513362d)),
    ("prefix exclusive", (13, 531, 1299, 2, 2, 0xbad081cc3c1f2cd9)),
    ("aggregate-broadcast Sum", (15, 572, 1471, 4, 4, 0x1550242f8b97d603)),
    ("aggregate-broadcast Max", (15, 572, 1471, 4, 4, 0x702198311380198b)),
    ("aggregate-broadcast Min", (15, 572, 1471, 4, 4, 0x51c495eee33ec395)),
    ("median", (13, 446, 1100, 4, 4, 0xbb0b4ada90c40310)),
    ("imcast n=40 w=5", (14, 386, 1041, 2, 2, 0xf72d604209bc1766)),
    ("imcast n=37 w=7", (14, 349, 939, 2, 2, 0xc143af34fb4d83e2)),
    ("imcast n=64 w=8", (14, 698, 1905, 2, 2, 0x517f669192246aea)),
    ("establish", (7, 510, 1374, 2, 2, 0x9c4441f1ae6bd7c6)),
    ("warmup n=8 seed=1", (9, 32, 75, 2, 2, 0xc22be1b81834bf15)),
    ("warmup n=50 seed=2", (15, 422, 1119, 2, 2, 0xd687dbe6a1b03721)),
    ("warmup n=128 seed=3", (17, 1424, 3891, 2, 2, 0x518e11b8bc4db2db)),
];

/// Holds a run to the frozen transcript of its case.
fn assert_golden<T: std::fmt::Debug>(case: &str, result: &RunResult<T>) {
    assert_transcript(case, transcript(result));
}

fn assert_transcript(case: &str, got: Golden) {
    let golden = GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("no golden row for case {case:?}"));
    assert_eq!(got, golden.1, "{case}: transcript drifted");
}

#[test]
fn sort_matches_frozen_twin_on_both_engines() {
    for (n, seed) in [(21usize, 1u64), (48, 2), (100, 3)] {
        let net = Network::new(n, Config::ncc0(seed));
        let batched = engines_agree(&net, |_| {
            CtxThen::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                let (vp, x, key) = (ctx.vp, ctx.position, rctx.id() % 17);
                SortStep::new(
                    vp,
                    ctx.contacts.clone(),
                    x,
                    key,
                    Order::Descending,
                    rctx.id(),
                )
                .then(move |held, _| RankStep::new(vp, x, held))
            })
        });
        let case = format!("sort n={n} seed={seed}");
        assert_golden(&case, &batched);
        assert!(batched.metrics.is_clean());
    }
}

#[test]
fn prefix_matches_frozen_twin_on_both_engines() {
    let n = 65;
    let net = Network::new(n, Config::ncc0(7));
    let batched = engines_agree(&net, |_| {
        CtxThen::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
            PrefixStep::new(ctx.vp, ctx.contacts.clone(), ctx.position as u64 + 1)
        })
    });
    assert_golden("prefix", &batched);
    // Inclusive prefix sums of 1..=n are the triangular numbers.
    for (i, (_, got)) in batched.outputs.iter().enumerate() {
        let k = i as u64 + 1;
        assert_eq!(*got, k * (k + 1) / 2);
    }
}

#[test]
fn exclusive_prefix_matches_frozen_twin_on_both_engines() {
    let n = 40;
    let net = Network::new(n, Config::ncc0(8));
    let batched = engines_agree(&net, |_| {
        CtxThen::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
            PrefixStep::exclusive(ctx.vp, ctx.contacts.clone(), ctx.position as u64)
        })
    });
    assert_golden("prefix exclusive", &batched);
}

/// The one-word sweep under each aggregate the twin offered; its
/// transcript hashes the word every node learns.
#[test]
fn aggregate_broadcast_matches_frozen_twin_on_both_engines() {
    let folds: [(&str, Fold); 3] = [
        ("Sum", |acc, x| acc[0] += x[0]),
        ("Max", |acc, x| acc[0] = acc[0].max(x[0])),
        ("Min", |acc, x| acc[0] = acc[0].min(x[0])),
    ];
    for (op, fold) in folds {
        let n = 50;
        let net = Network::new(n, Config::ncc0(11));
        let batched = engines_agree(&net, move |_| {
            CtxThen::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                let (vp, contacts, value) = (ctx.vp, ctx.contacts.clone(), [rctx.id() % 100]);
                SweepStep::new(vp, contacts, ctx.position, &value, None, fold)
            })
        });
        let words: Vec<_> = (batched.outputs.iter())
            .map(|(id, s)| (*id, s.words[0]))
            .collect();
        let case = format!("aggregate-broadcast {op}");
        assert_transcript(&case, transcript_of(&words, &batched.metrics));
    }
}

/// The median position announces itself in the address-only sweep; the
/// transcript hashes the address every node learns.
#[test]
fn median_matches_frozen_twin_on_both_engines() {
    let n = 41;
    let net = Network::new(n, Config::ncc0(13));
    let batched = engines_agree(&net, |_| {
        CtxThen::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let median = (ctx.position == (ctx.vp.len - 1) / 2).then(|| rctx.id());
            let (vp, contacts) = (ctx.vp, ctx.contacts.clone());
            SweepStep::new(vp, contacts, ctx.position, &[], median, |_, _| {})
        })
    });
    let addrs: Vec<_> = (batched.outputs.iter())
        .map(|(id, s)| (*id, s.addr.unwrap()))
        .collect();
    assert_transcript("median", transcript_of(&addrs, &batched.metrics));
    assert!(batched.metrics.is_clean(), "KT0-legal address spread");
}

/// The twin's multicast payload: the source's address and a data word,
/// here its rank.
#[derive(Debug)]
#[allow(dead_code)] // read through `Debug` alone
struct Payload {
    addr: NodeId,
    word: u64,
}

#[test]
fn imcast_matches_frozen_twin_on_both_engines() {
    for (n, w, seed) in [(40usize, 5usize, 61u64), (37, 7, 63), (64, 8, 62)] {
        let net = Network::new(n, Config::ncc0(seed));
        let batched = engines_agree(&net, move |_| {
            CtxThen::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                let r = ctx.position;
                let task = (r.is_multiple_of(w)).then(|| ((w - 1).min(n - 1 - r), rctx.id()));
                ImcastStep::new(ctx.vp, ctx.contacts.clone(), n - 1, task)
            })
        });
        // Each covered rank's payload came from the source of its group.
        let payloads: Vec<_> = (batched.outputs.iter().enumerate())
            .map(|(r, (id, got))| {
                let word = (r / w * w) as u64;
                (*id, got.map(|addr| Payload { addr, word }))
            })
            .collect();
        let case = format!("imcast n={n} w={w}");
        assert_transcript(&case, transcript_of(&payloads, &batched.metrics));
        assert!(batched.metrics.is_clean());
    }
}

#[test]
fn establish_matches_frozen_twin_on_both_engines() {
    // The whole setup chain — undirect, then the contacts with the rank
    // lane beside them — with every table it builds in the hashed output.
    let net = Network::new(53, Config::ncc0(8));
    let batched = engines_agree(&net, |_| StepProtocol::new(EstablishCtx::new()));
    assert_golden("establish", &batched);
    assert_eq!(batched.metrics.rounds, dgr_primitives::ctx::rounds_for(53));
}

#[test]
fn warmup_matches_frozen_twin_on_both_engines() {
    for (n, seed) in [(8usize, 1u64), (50, 2), (128, 3)] {
        let net = Network::new(n, Config::ncc0(seed));
        let batched = engines_agree(&net, |_| {
            StepProtocol::new(UndirectStep::new().then(|vp, _| WarmupStep::new(vp)))
        });
        let case = format!("warmup n={n} seed={seed}");
        assert_golden(&case, &batched);
        assert!(batched.metrics.is_clean());
    }
}

#[test]
fn establish_chains_into_a_second_stage_for_free() {
    let net = Network::new(96, Config::ncc0(5));
    let result = engines_agree(&net, |_| {
        CtxThen::new(|_ctx: &PathCtx, _: &mut RoundCtx<'_>| {
            // A trivial second stage: a zero-round idle, checking that
            // chaining across the Ready boundary costs no extra round.
            dgr_primitives::step::Idle::new(0)
        })
    });
    assert_eq!(result.metrics.rounds, dgr_primitives::ctx::rounds_for(96));
}
