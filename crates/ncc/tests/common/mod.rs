//! Shared protocol fixtures for the engine test suites.
// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use dgr_ncc::event::semantic_stream;
use dgr_ncc::{
    EngineKind, Network, NodeId, NodeProtocol, NodeSeed, Recording, RoundCtx, RunEvent, RunResult,
    SimError, Status, WireMsg,
};
use rand::Rng;

#[path = "../../../../tests/support/cases.rs"]
mod cases;
use cases::{fnv, FNV_OFFSET};

/// The oracle check every differential suite shares: runs `factory` on
/// the reference interpreter over the same network and holds a batched
/// run to it — same outputs, bit-identical `RunMetrics`, the
/// same semantic event stream. Returns the reference run.
pub fn assert_matches_reference<P, F>(
    net: &Network,
    batched: &RunResult<P::Output>,
    batched_events: &[RunEvent],
    factory: F,
    what: &str,
) -> RunResult<P::Output>
where
    P: NodeProtocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
{
    let mut events = Recording::new();
    let reference = net
        .run_protocol_on(EngineKind::Reference, None, Some(&mut events), factory)
        .unwrap();
    assert_eq!(
        batched.outputs, reference.outputs,
        "{what}: outputs diverge from the reference interpreter"
    );
    assert_eq!(
        batched.metrics, reference.metrics,
        "{what}: metrics diverge from the reference interpreter"
    );
    assert_eq!(
        semantic_stream(batched_events),
        semantic_stream(&events.events()),
        "{what}: semantic event streams diverge from the reference interpreter"
    );
    reference
}

/// A protocol from a closure polled once per round.
pub struct Script<F>(pub F);

impl<R: Send, F: FnMut(&mut RoundCtx<'_>) -> Status<R> + Send> NodeProtocol for Script<F> {
    type Output = R;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<R> {
        (self.0)(ctx)
    }
}

/// Runs the scripted protocol on both engines, asserting they agree on
/// outputs and metrics (or on the error), and returns one result.
pub fn on_both_engines<R, F, S>(net: &Network, script: S) -> Result<RunResult<R>, SimError>
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

/// The shard count the default layout derives for an `n`-node
/// run on `workers` workers (`Config::shards` = 0).
pub fn derived_shards(n: usize, workers: usize) -> usize {
    (n / dgr_ncc::MIN_SHARD_WIDTH).clamp(1, workers)
}

/// A randomized gossip protocol that exercises most of the engine surface:
/// random fan-out to learned addresses, address-carrying payloads (KT0
/// knowledge spreading), per-node lifetimes (staggered `Done`), and a
/// per-node transcript hash over everything received.
///
/// The protocol is deterministic given the engine-provided RNG stream, so
/// two engines (or two worker counts) running it must produce identical
/// outputs and metrics.
pub struct Gossip {
    /// Rounds this node participates in before retiring.
    lifetime: u64,
    /// Messages staged per round (possibly exceeding capacity, to
    /// exercise violation accounting under lenient policies).
    fan_out: usize,
    /// Learned addresses (bounded; initial successor first).
    known: Vec<NodeId>,
    /// FNV transcript hash over all received envelopes.
    hash: u64,
}

/// Bound on the gossip knowledge list (keeps steps allocation-free).
const KNOWN_LIMIT: usize = 64;

impl Gossip {
    /// Base lifetime + per-node stagger derived from the ID.
    pub fn new(seed: &NodeSeed<'_>, base_rounds: u64, stagger: u64, fan_out: usize) -> Self {
        let lifetime = base_rounds + if stagger == 0 { 0 } else { seed.id % stagger };
        let mut known = Vec::with_capacity(KNOWN_LIMIT);
        known.extend(seed.initial_successor);
        Gossip {
            lifetime,
            fan_out,
            known,
            hash: FNV_OFFSET,
        }
    }

    fn learn(&mut self, id: NodeId) {
        if self.known.len() < KNOWN_LIMIT && !self.known.contains(&id) {
            self.known.push(id);
        }
    }
}

impl NodeProtocol for Gossip {
    type Output = u64;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<u64> {
        // Fold the inbox into the transcript hash, in delivery order, and
        // learn every visible address.
        let round = ctx.round();
        for i in 0..ctx.inbox().len() {
            let env = ctx.inbox()[i];
            let mut h = self.hash;
            h = fnv(h, round);
            h = fnv(h, env.src);
            h = fnv(h, env.msg.tag as u64);
            for &w in env.msg.words_slice() {
                h = fnv(h, w);
            }
            for &a in env.msg.addrs_slice() {
                h = fnv(h, a);
            }
            self.hash = h;
            self.learn(env.src);
            for k in 0..env.msg.addrs_slice().len() {
                self.learn(env.msg.addrs_slice()[k]);
            }
        }
        if round >= self.lifetime {
            return Status::Done(self.hash);
        }
        // Random fan-out to learned addresses, sometimes carrying another
        // learned address (all KT0-legal by construction).
        if !self.known.is_empty() {
            for _ in 0..self.fan_out {
                let pick = ctx.rng().gen_range(0..self.known.len() as u64) as usize;
                let dst = self.known[pick];
                let word: u64 = ctx.rng().gen_range(0..1_000_000);
                let mut msg = WireMsg::word(7, word);
                if self.known.len() > 1 && word.is_multiple_of(3) {
                    let carry = ctx.rng().gen_range(0..self.known.len() as u64) as usize;
                    msg = msg.with_addr(self.known[carry]);
                }
                ctx.send(dst, msg);
            }
        }
        Status::Continue
    }
}

/// A KT0-legal fan-in that keeps receive queues backlogged for rounds on
/// end. Round 0 introduces every node to its predecessor, round 1 has it
/// name its successor to that predecessor; then for `burst` rounds every
/// node spends its whole send capacity on whichever of its next two path
/// nodes has the smaller ID. A local ID minimum is picked by both of its
/// predecessors, takes `2 · cap` a round, and its FIFO queue grows by
/// `cap` a round — then drains at `cap` a round, all of it delivered
/// before every node retires, `burst + 2` rounds after the burst. The
/// output is an FNV hash over every envelope received, in delivery order.
pub struct FanIn {
    burst: u64,
    lifetime: u64,
    pred: Option<NodeId>,
    succ: Option<NodeId>,
    second: Option<NodeId>,
    hash: u64,
}

impl FanIn {
    pub fn new(seed: &NodeSeed<'_>, burst: u64) -> Self {
        FanIn {
            burst,
            lifetime: 2 * burst + 4,
            pred: None,
            succ: seed.initial_successor,
            second: None,
            hash: FNV_OFFSET,
        }
    }
}

impl NodeProtocol for FanIn {
    type Output = u64;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<u64> {
        let round = ctx.round();
        for env in ctx.inbox() {
            self.hash = [round, env.src, env.msg.tag as u64]
                .into_iter()
                .chain(env.msg.words_slice().iter().copied())
                .fold(self.hash, fnv);
            match env.msg.tag {
                1 => self.pred = Some(env.src),
                2 if Some(env.src) == self.succ => {
                    self.second = env.msg.addrs_slice().first().copied()
                }
                _ => {}
            }
        }
        if round >= self.lifetime {
            return Status::Done(self.hash);
        }
        match round {
            0 => self
                .succ
                .into_iter()
                .for_each(|s| ctx.send(s, WireMsg::signal(1))),
            1 => {
                if let (Some(pred), Some(succ)) = (self.pred, self.succ) {
                    ctx.send(pred, WireMsg::signal(2).with_addr(succ));
                }
            }
            r if r < 2 + self.burst => {
                if let Some(target) = [self.succ, self.second].into_iter().flatten().min() {
                    for k in 0..ctx.capacity() as u64 {
                        ctx.send(target, WireMsg::word(3, r << 8 | k));
                    }
                }
            }
            _ => {}
        }
        Status::Continue
    }
}

/// A minimal fixed-duration protocol: ping the initial successor every
/// round with a constant word. Its steps perform no allocation at all,
/// which makes it the fixture for the zero-allocation probe.
pub struct Ping {
    rounds: u64,
    received: u64,
}

impl Ping {
    pub fn new(_seed: &NodeSeed<'_>, rounds: u64) -> Self {
        Ping {
            rounds,
            received: 0,
        }
    }
}

impl NodeProtocol for Ping {
    type Output = u64;

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<u64> {
        self.received += ctx.inbox().len() as u64;
        if ctx.round() >= self.rounds {
            return Status::Done(self.received);
        }
        if let Some(succ) = ctx.initial_successor() {
            ctx.send(succ, WireMsg::word(1, 42));
        }
        Status::Continue
    }
}
