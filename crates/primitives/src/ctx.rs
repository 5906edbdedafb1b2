//! [`PathCtx`]: what every algorithm establishes on a path before doing
//! real work — the contact table and this node's position, and, keyed,
//! what the position needs to sort by class.
//!
//! [`EstablishCtx`] establishes it as a single [`Step`]: the undirection,
//! then the contact doubling with a **count lane** beside it, so composite
//! protocols (the realization drivers) get the full path context in one
//! stage. The paper builds a balanced binary search tree on the path
//! (Theorem 1) and walks it for the positions (Corollary 2); the contacts
//! alone are enough (ARCHITECTURE.md, *Deviations from the paper*).
//!
//! The count lane is a Hillis–Steele scan on the doubling's own links.
//! Every position holds a key, and the keys fall into [`CLASSES`] classes
//! and an overflow class for every larger key ([`Tally`]). Before level
//! `k` a node knows the tally of the `2^k` positions ending at it (fewer
//! at the head). At level `k` every node with a `2^k`-ahead contact sends
//! it its tally: on the doubling's `SET_BWD`, or, at a node without a
//! `2^k`-behind contact, which the doubling skips, on a [`tags::RANK`]
//! message of its own. A node with a `2^k`-behind contact hears from it
//! once and adds that tally to its own, so after `⌈log₂ len⌉` levels — one
//! round of counts past the doubling's last table level — it holds the
//! tally of every position up to its own. `⌈log₂ len⌉` rounds in all, at
//! most `len - 1` messages beside the doubling's, and no word more than a
//! count: unkeyed, every key is in one class, a full window (a `SET_BWD`)
//! counts `2^k` without saying so, and a `RANK` carries one count. The
//! position is that count less one — Wyllie's list ranking.
//!
//! **Keyed** ([`EstablishCtx::keyed`]), the tallies count classes apart,
//! packed a few bits a class into the messages' spare words, and the same
//! scan runs toward the tail on the doubling's `SET_FWD`, the nodes
//! without a `2^k`-ahead contact adding a `RANK` toward the head, at most
//! `len - 1` messages more. No node hears more than two messages a round,
//! as in the doubling alone. At the end a position knows its rank among
//! the earlier keys of its class and every class total ([`Classes`]):
//! what a stable counting sort by class needs ([`SortStep::by_class`]).
//! The overflow class's total is the length of the window that sort
//! lands every key past the classes in, then orders with the network
//! alone, so every node knows that length at the sort's first poll.
//!
//! A missing count is a lost message, and it panics.
//!
//! [`SortStep::by_class`]: crate::sort::SortStep::by_class

use crate::contacts::{ContactTable, SET_BWD, SET_FWD};
use crate::step::{Lockstep, Poll, Rounds, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireEnvelope, WireMsg, WIRE_WORDS};
use std::sync::Arc;

/// Everything a node knows about one virtual path after the standard
/// `O(log n)`-round setup: the path view itself, its power-of-two
/// contacts and its exact position.
///
/// The contact table is **interned** behind an `Arc`: it is built exactly
/// once per establishment and every consumer (the sort network, the
/// interval multicast, the sweeps, each phase of a realization driver)
/// holds a reference-counted handle instead of a deep copy. A composite
/// stage machine's transition therefore moves a pointer, not kilobytes of
/// table — the memory discipline that carries the batched drivers from
/// 2·10⁵ to 10⁶ nodes. The scalar members ([`VPath`], the position, the
/// classes) stay plain `Copy` data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathCtx {
    /// The path view this context was built on.
    pub vp: VPath,
    /// Power-of-two contacts along the path (interned; clone = handle).
    pub contacts: Arc<ContactTable>,
    /// This node's position on the path, 0 at the head.
    pub position: usize,
    /// The keys' classes, where the establishment was keyed and the path
    /// is short enough to count them (under 2^21 nodes).
    pub classes: Option<Classes>,
}

/// Key classes the keyed establishment counts apart: one for each key
/// below `CLASSES`, and one more, the overflow, for every larger key.
pub const CLASSES: usize = 8;

/// Records per key class over a stretch of a path: entry `c` counts the
/// keys `c < CLASSES`, entry `CLASSES` every larger key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally(pub [u32; CLASSES + 1]);

/// Words a tally may take in a message: all but the doubling's direction.
const TALLY_WORDS: usize = WIRE_WORDS - 1;

impl Tally {
    /// The class of `key`.
    pub(crate) fn class(key: u64) -> usize {
        key.min(CLASSES as u64) as usize
    }

    /// The tally of the keys `of`.
    pub(crate) fn of(of: impl IntoIterator<Item = u64>) -> Self {
        let mut tally = Tally::default();
        for key in of {
            tally.0[Self::class(key)] += 1;
        }
        tally
    }

    /// `count` records, all of class 0: the unkeyed lane's tally.
    fn single(count: u32) -> Self {
        let mut tally = Tally::default();
        tally.0[0] = count;
        tally
    }

    /// Records counted, every class.
    pub(crate) fn count(&self) -> usize {
        self.0.iter().map(|&c| c as usize).sum()
    }

    /// Classes holding a record.
    pub(crate) fn classes(&self) -> usize {
        self.0.iter().filter(|&&c| c > 0).count()
    }

    fn add(&mut self, other: &Tally) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// The tally as words, `width` bits a class, and how many words.
    fn pack(&self, width: u32) -> ([u64; TALLY_WORDS], usize) {
        let mut words = [0; TALLY_WORDS];
        for (i, &count) in self.0.iter().enumerate() {
            let bit = i * width as usize;
            let (word, shift) = (bit / 64, bit % 64);
            words[word] |= u64::from(count) << shift;
            if shift + width as usize > 64 {
                words[word + 1] |= u64::from(count) >> (64 - shift);
            }
        }
        (words, (self.0.len() * width as usize).div_ceil(64))
    }

    /// [`Tally::pack`]'s inverse.
    fn unpack(words: &[u64], width: u32) -> Self {
        let mut tally = Tally::default();
        let mask = (1u64 << width) - 1;
        for (i, count) in tally.0.iter_mut().enumerate() {
            let bit = i * width as usize;
            let (word, shift) = (bit / 64, bit % 64);
            let mut value = words[word] >> shift;
            if shift + width as usize > 64 {
                value |= words[word + 1] << (64 - shift);
            }
            *count = (value & mask) as u32;
        }
        tally
    }
}

/// Bits a class a tally takes on a path of `len` nodes, where its classes
/// fit a message beside the doubling's direction word.
fn tally_width(len: usize) -> Option<u32> {
    let width = usize::BITS - len.leading_zeros();
    ((CLASSES + 1) * width as usize <= 64 * TALLY_WORDS).then_some(width)
}

/// Whether a keyed establishment on a path of `len` nodes counts the
/// classes: where its tallies fit a message, `len < 2^21`. A longer path
/// establishes as if unkeyed, without [`Classes`].
pub fn counts_classes(len: usize) -> bool {
    tally_width(len).is_some()
}

/// What the keyed establishment tells a position about the keys on its
/// path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Classes {
    /// Keys per class over the whole path.
    pub totals: Tally,
    /// This position's class: its key's.
    pub class: usize,
    /// The earlier positions whose key is of this class.
    pub rank: usize,
}

/// Rounds for [`EstablishCtx::on_keyed`] — the context on an
/// already-linked virtual path of `len` nodes: the contact doubling's
/// `⌈log₂ len⌉ - 1` levels past the first and one round of counts past
/// them, `⌈log₂ len⌉` (0 for a single node), keyed or not.
pub fn rounds_on(len: usize) -> u64 {
    crate::levels_for(len) as u64
}

/// Rounds for [`EstablishCtx::new`] — the context on `G_k` (includes the
/// 1-round undirection).
pub fn rounds_for(len: usize) -> u64 {
    1 + rounds_on(len)
}

/// The 1-round undirection of `G_k` (§3.1) as a [`Step`], chainable ahead
/// of the other primitives: every node signals its successor, so each
/// node learns its predecessor; the node that hears nothing is the head.
#[derive(Debug)]
pub struct UndirectStep {
    sent: bool,
}

impl UndirectStep {
    /// Builds the step.
    pub fn new() -> Self {
        UndirectStep { sent: false }
    }

    /// The `G_k` path view of a node whose predecessor is `pred`.
    pub(crate) fn view(pred: Option<NodeId>, ctx: &RoundCtx<'_>) -> VPath {
        VPath {
            member: true,
            pred,
            succ: ctx.initial_successor(),
            len: ctx.n(),
        }
    }
}

impl Default for UndirectStep {
    fn default() -> Self {
        Self::new()
    }
}

impl Step for UndirectStep {
    type Out = VPath;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<VPath> {
        if !self.sent {
            if let Some(succ) = ctx.initial_successor() {
                ctx.send(succ, WireMsg::signal(tags::UNDIRECT));
            }
            self.sent = true;
            return Poll::Pending;
        }
        let pred = ctx
            .inbox()
            .iter()
            .find(|env| env.msg.tag == tags::UNDIRECT)
            .map(|env| env.src);
        Poll::Ready(Self::view(pred, ctx))
    }
}

/// The contact doubling with the count lane beside it (see the module
/// docs) on an already-linked path. Rounds: exactly [`rounds_on`].
type PositionsStep = Lockstep<Positions>;

/// [`PositionsStep`]'s member rounds.
#[derive(Debug)]
struct Positions {
    vp: VPath,
    contacts: ContactTable,
    /// Keyed: the tallies' bits a class, and this position's class.
    keyed: Option<(u32, usize)>,
    /// At poll `t`: the tally of the `2^t` positions ending here.
    behind: Tally,
    /// Keyed, at poll `t`: the tally of the `2^t` positions starting here.
    ahead: Tally,
}

impl Positions {
    fn step(vp: VPath, key: Option<u64>) -> PositionsStep {
        let keyed = key.and_then(|key| Some((tally_width(vp.len)?, Tally::class(key))));
        // Unkeyed, every position is of class 0.
        let own = Tally::of([keyed.map_or(0, |(_, class)| class as u64)]);
        let positions = Positions {
            vp,
            contacts: ContactTable::level_zero(&vp),
            keyed,
            behind: own,
            ahead: own,
        };
        Lockstep::run(vp.member, rounds_on(vp.len), positions)
    }

    /// The words a count message carries for `tally`: keyed, the packed
    /// classes; else the one count.
    fn words(&self, tally: &Tally) -> ([u64; TALLY_WORDS], usize) {
        match self.keyed {
            Some((width, _)) => tally.pack(width),
            None => ([u64::from(tally.0[0]), 0, 0], 1),
        }
    }

    /// Consumes level `k`'s count from the contact `2^k` away on the
    /// side `ahead`, if there is one: its `RANK`, or its doubling message
    /// in direction `dir`, whose window is full.
    fn absorb_count(&mut self, k: usize, ahead: bool, ctx: &RoundCtx<'_>) {
        let (from, dir) = if ahead {
            (self.contacts.ahead(k), SET_FWD)
        } else {
            (self.contacts.behind(k), SET_BWD)
        };
        let Some(from) = from else {
            return;
        };
        let is_count = |e: &&WireEnvelope| {
            e.src == from
                && (e.msg.tag == tags::RANK || e.msg.tag == tags::CONTACT && e.word() == dir)
        };
        let env = ctx
            .inbox()
            .iter()
            .find(is_count)
            .unwrap_or_else(|| match ahead {
                true => panic!("message loss: a node missed the count of its contact ahead"),
                false => panic!("message loss: a node missed the count of its contact behind"),
            });
        let words = env.msg.words_slice();
        let theirs = match (self.keyed, env.msg.tag == tags::RANK) {
            (Some((width, _)), rank) => Tally::unpack(&words[usize::from(!rank)..], width),
            (None, true) => Tally::single(words[0] as u32),
            (None, false) => Tally::single(1 << k),
        };
        let mine = if ahead {
            &mut self.ahead
        } else {
            &mut self.behind
        };
        mine.add(&theirs);
    }
}

impl Rounds for Positions {
    type Out = PathCtx;

    fn poll(&mut self, t: u64, budget: u64, ctx: &mut RoundCtx<'_>) -> Poll<PathCtx> {
        let k = t as usize;
        if 0 < t && t < budget {
            self.contacts.learn_level(ctx);
        }
        if t > 0 {
            self.absorb_count(k - 1, false, ctx);
            if self.keyed.is_some() {
                self.absorb_count(k - 1, true, ctx);
            }
        }
        if t == budget {
            let classes = self.keyed.map(|(_, class)| {
                let mut totals = self.behind;
                totals.add(&self.ahead);
                totals.0[class] -= 1;
                let rank = self.behind.0[class] as usize - 1;
                Classes {
                    totals,
                    class,
                    rank,
                }
            });
            return Poll::Ready(PathCtx {
                vp: self.vp,
                contacts: Arc::new(std::mem::take(&mut self.contacts)),
                position: self.behind.count() - 1,
                classes,
            });
        }
        // The doubling's own exchange, carrying the keyed tallies, then
        // the counts where the doubling sends nothing.
        let (behind, n_behind) = self.words(&self.behind);
        let (ahead, n_ahead) = self.words(&self.ahead);
        if k + 1 < self.vp.levels() {
            let words = match self.keyed {
                Some(_) => [&ahead[..n_ahead], &behind[..n_behind]],
                None => [&[][..], &[]],
            };
            self.contacts.send_level(k + 1, ctx, words);
        }
        let count = |words: &[u64]| WireMsg::words(tags::RANK, words);
        match (self.contacts.ahead(k), self.contacts.behind(k)) {
            (Some(fwd), None) => ctx.send(fwd, count(&behind[..n_behind])),
            (None, Some(bwd)) if self.keyed.is_some() => ctx.send(bwd, count(&ahead[..n_ahead])),
            _ => {}
        }
        Poll::Pending
    }

    fn non_member(&mut self) -> PathCtx {
        PathCtx {
            vp: self.vp,
            ..PathCtx::default()
        }
    }
}

/// The `O(log n)`-round context establishment as one chainable [`Step`]
/// producing a [`PathCtx`]: the undirection (on `G_k`), then the contact
/// doubling with its count lane, keyed or not. The contact table is built
/// once and handed on as an interned `Arc`.
pub struct EstablishCtx {
    undirect: Option<UndirectStep>,
    key: Option<u64>,
    positions: Option<PositionsStep>,
}

impl EstablishCtx {
    /// Establishes the context on the physical knowledge path `G_k`
    /// (undirection first).
    pub fn new() -> Self {
        EstablishCtx {
            undirect: Some(UndirectStep::new()),
            key: None,
            positions: None,
        }
    }

    /// [`EstablishCtx::new`], keyed: every node passes its `key`, and the
    /// context counts the keys' classes (module docs) in the same rounds.
    pub fn keyed(key: u64) -> Self {
        EstablishCtx {
            key: Some(key),
            ..Self::new()
        }
    }

    /// Establishes the context on an already-linked virtual path (e.g. a
    /// sorted path's prefix), keyed as [`EstablishCtx::keyed`]. Non-members
    /// idle in lockstep.
    pub fn on_keyed(vp: VPath, key: u64) -> Self {
        EstablishCtx {
            undirect: None,
            key: Some(key),
            positions: Some(Positions::step(vp, Some(key))),
        }
    }
}

impl Default for EstablishCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl Step for EstablishCtx {
    type Out = PathCtx;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<PathCtx> {
        if let Some(undirect) = &mut self.undirect {
            let Poll::Ready(vp) = undirect.poll(ctx) else {
                return Poll::Pending;
            };
            self.undirect = None;
            self.positions = Some(Positions::step(vp, self.key));
        }
        let positions = self.positions.as_mut().expect("built above");
        positions.poll(ctx)
    }
}

/// A whole-run protocol that establishes the [`PathCtx`] and then runs one
/// more [`Step`] built from it: `make(&ctx, round_ctx)` is called in the
/// very round the establishment completes — so the total round count is
/// the sum of the two budgets. The work-horse for running a single primitive
/// standalone (tests, benches), and the whole of the degree-realization
/// protocol (establishment, then `DegreesCore`).
pub struct WithCtx<S: Step, F> {
    stage: Stage<S, F>,
}

/// [`WithCtx`]'s stages: the establishment (boxed: it is dropped once it
/// completes) holds the second stage's maker until then.
enum Stage<S, F> {
    Establish(Box<EstablishCtx>, Option<F>),
    Run(S),
}

impl<S: Step, F> WithCtx<S, F> {
    /// Builds the protocol; `make` constructs the second stage from the
    /// established context.
    pub fn new(make: F) -> Self {
        WithCtx {
            stage: Stage::Establish(Box::default(), Some(make)),
        }
    }

    /// [`WithCtx::new`] on a keyed establishment ([`EstablishCtx::keyed`]).
    pub fn keyed(key: u64, make: F) -> Self {
        WithCtx {
            stage: Stage::Establish(Box::new(EstablishCtx::keyed(key)), Some(make)),
        }
    }
}

impl<S, F> dgr_ncc::NodeProtocol for WithCtx<S, F>
where
    S: Step,
    S::Out: Send,
    F: FnOnce(&PathCtx, &mut RoundCtx<'_>) -> S + Send,
{
    type Output = S::Out;

    fn step(&mut self, rctx: &mut RoundCtx<'_>) -> dgr_ncc::Status<S::Out> {
        loop {
            match &mut self.stage {
                Stage::Run(stage) => {
                    return match stage.poll(rctx) {
                        Poll::Pending => dgr_ncc::Status::Continue,
                        Poll::Ready(out) => dgr_ncc::Status::Done(out),
                    };
                }
                Stage::Establish(establish, make) => match establish.poll(rctx) {
                    Poll::Pending => return dgr_ncc::Status::Continue,
                    Poll::Ready(ctx) => {
                        let make = make.take().expect("stage built twice");
                        // The context is dropped here: the stage keeps what
                        // it needs, so the per-node tables do not outlive
                        // setup.
                        self.stage = Stage::Run(make(&ctx, rctx));
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepProtocol;
    use crate::PathToClique;
    use dgr_ncc::{Config, EngineKind, Network, RunResult, SimError};

    /// The undirection alone, on the chosen engine.
    fn undirect(net: &Network, engine: EngineKind) -> Result<RunResult<VPath>, SimError> {
        net.run_protocol_on(engine, None, None, |_| {
            StepProtocol::new(UndirectStep::new())
        })
    }

    #[test]
    fn establish_is_o_log_n_rounds() {
        // The undirection, then one round per doubling level.
        assert_eq!(rounds_for(1), 1);
        assert_eq!(rounds_for(2), 2);
        assert_eq!(rounds_for(64), 7);
        assert_eq!(rounds_for(2048), 12);
    }

    /// The establishment on the chosen engine, strict at capacity factor
    /// 0.1 (the floor, 4).
    fn establish(n: usize, engine: EngineKind) -> RunResult<PathCtx> {
        let net = Network::new(n, Config::ncc0(n as u64).with_capacity_factor(0.1));
        let result = net
            .run_protocol_on(engine, None, None, |_| {
                StepProtocol::new(EstablishCtx::new())
            })
            .unwrap();
        let m = &result.metrics;
        assert!(m.is_clean(), "n={n} {engine:?}: {:?}", m.violations);
        assert_eq!(m.capacity, 4, "n={n}");
        result
    }

    /// Every node learns its exact position at every path length from 1
    /// to 300, on both engines, in the budgeted rounds; the count messages
    /// are at most `len - 1` beside the doubling's.
    #[test]
    fn positions_equal_path_order_at_every_length() {
        for n in 1..=300 {
            let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                let result = establish(n, engine);
                assert_eq!(result.metrics.rounds, rounds_for(n), "n={n}");
                for (x, (_, ctx)) in result.outputs.iter().enumerate() {
                    assert_eq!(ctx.position, x, "n={n} {engine:?}");
                    assert_eq!(ctx.contacts.fwd.len(), crate::levels_for(n));
                }
                result
            });
            assert_eq!(runs[0].outputs, runs[1].outputs, "n={n}");
            assert_eq!(runs[0].metrics, runs[1].metrics, "n={n}");
            let net = Network::new(n, Config::ncc0(n as u64));
            let doubling = net.run_protocol(PathToClique::new).unwrap();
            let counts = runs[0].metrics.messages - doubling.metrics.messages;
            assert!(counts < n.max(1) as u64, "n={n}: {counts} counts");
        }
    }

    /// Keyed, at every path length from 1 to 300 and on both engines:
    /// every position learns its position, its class, its rank among the
    /// earlier keys of its class and every class total, in the unkeyed
    /// rounds, with at most `len - 1` messages more than unkeyed and no
    /// node hearing more than two a round.
    #[test]
    fn keyed_classes_equal_a_sequential_count_at_every_length() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
        for n in 1..=300 {
            let net = Network::new(n, Config::ncc0(n as u64).with_capacity_factor(0.1));
            let order = net.ids_in_path_order().to_vec();
            let top = [3, 8, 12][n % 3];
            let keys: std::collections::HashMap<_, u64> = order
                .iter()
                .map(|&id| (id, rng.gen_range(0..top)))
                .collect();
            let unkeyed = establish(n, EngineKind::Batched);
            let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                let keys = &keys;
                net.run_protocol_on(engine, None, None, |s| {
                    StepProtocol::new(EstablishCtx::keyed(keys[&s.id]))
                })
                .unwrap()
            });
            assert_eq!(runs[0].outputs, runs[1].outputs, "n={n}");
            assert_eq!(runs[0].metrics, runs[1].metrics, "n={n}");
            let m = &runs[0].metrics;
            assert!(m.is_clean(), "n={n}: {:?}", m.violations);
            assert_eq!(m.rounds, rounds_for(n), "n={n}");
            assert!(m.max_received_per_round <= 2, "n={n}");
            assert!(
                m.messages - unkeyed.metrics.messages < n.max(1) as u64,
                "n={n}"
            );
            let totals = Tally::of(order.iter().map(|id| keys[id]));
            for (x, (id, ctx)) in runs[0].outputs.iter().enumerate() {
                let class = Tally::class(keys[id]);
                let before = order[..x].iter().filter(|b| Tally::class(keys[b]) == class);
                let want = Classes {
                    totals,
                    class,
                    rank: before.count(),
                };
                assert_eq!(ctx.position, x, "n={n}");
                assert_eq!(ctx.classes, Some(want), "n={n} x={x}");
            }
        }
    }

    /// A tally survives its packing at every width the lane uses, each
    /// class at its largest count.
    #[test]
    fn tallies_pack_and_unpack_at_every_width() {
        for len in [1, 2, 3, 255, 256, 2048, (1 << 21) - 1] {
            let width = tally_width(len).expect("counted");
            let full = Tally([len as u32; CLASSES + 1]);
            let (words, used) = full.pack(width);
            assert_eq!(Tally::unpack(&words[..used], width), full, "len={len}");
            let one = Tally::of([CLASSES as u64 + 5]);
            assert_eq!(Tally::unpack(&one.pack(width).0, width), one, "len={len}");
        }
        assert_eq!(Tally::of([4; 2048]).pack(12).1, 2);
        assert!(!counts_classes(1 << 21));
    }

    /// Losing the round of counts past the doubling leaves every node
    /// with a contact `2^5` behind without its count: a typed panic,
    /// the same on both engines — never a wrong position.
    #[test]
    fn a_lost_rank_panics_its_receiver() {
        use dgr_ncc::Scenario;
        let n = 64;
        let last = rounds_for(n) - 1;
        let lost = Scenario::new(5).drop_messages(last..=last, 1.0);
        let net = Network::new(n, Config::ncc0(3).with_scenario(lost));
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run = net.run_protocol_on(engine, None, None, |_| {
                StepProtocol::new(EstablishCtx::new())
            });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        assert_eq!(
            messages[0],
            "message loss: a node missed the count of its contact behind"
        );
    }

    #[test]
    fn undirect_reconstructs_the_path_batched() {
        let net = Network::new(100, Config::ncc0(5));
        let result = undirect(&net, EngineKind::Batched).unwrap();
        assert!(result.metrics.is_clean());
        assert_eq!(result.metrics.rounds, 1);
        let order = result.gk_order();
        for (i, (_, vp)) in result.outputs.iter().enumerate() {
            assert!(vp.member);
            assert_eq!(vp.len, 100);
            assert_eq!(vp.pred, if i == 0 { None } else { Some(order[i - 1]) });
            assert_eq!(vp.succ, order.get(i + 1).copied(),);
        }
    }

    #[test]
    fn batched_and_reference_agree() {
        let net = Network::new(64, Config::ncc0(9));
        let a = undirect(&net, EngineKind::Batched).unwrap();
        let b = undirect(&net, EngineKind::Reference).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }
}
