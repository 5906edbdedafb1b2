//! Distributed sorting over path positions — the Theorem 3 primitive.
//!
//! The paper sorts by recursively merging sorted sub-paths with median
//! splitting (`O(log³ n)` rounds). We substitute a **Batcher odd-even
//! mergesort network** over path positions, which achieves the same
//! primitive contract in `O(log² n)` rounds (ARCHITECTURE.md, *Deviations
//! from the paper*):
//!
//! * every comparator connects two positions a power-of-two apart, so the
//!   [`ContactTable`] provides the addressing;
//! * every comparator points the same way (minimum to the lower position),
//!   so the network is correct for arbitrary `n` with no virtual padding;
//! * records `(key, origin)` migrate between positions; the nodes
//!   themselves never move.
//!
//! **One tie rule.** Equal keys keep the order of their [`Held::home`]
//! positions: in the network, in the merge lane and in the class route
//! alike, so that a merge joins runs a route left just as it joins runs
//! the network left. A first sort's home is the position each record
//! started at, its origin's establishment position; a caller re-sorting
//! after a group phase may write the rank a record held instead, which
//! makes every lane's order a stable re-sort ([`SortStep::regroup`]). The
//! position rides in the low `⌈log₂ n⌉` bits of the key word, so no
//! message carries a word for it; keys are below `2^(64 - ⌈log₂ n⌉)`.
//!
//! **A class sort for the first sort.** Where the establishment was keyed
//! ([`EstablishCtx::keyed`](crate::EstablishCtx::keyed)), every position
//! knows its record's class, its rank among the earlier records of that
//! class and every class total ([`Classes`]): keys 0 to 7 a class each,
//! and every larger key one overflow class. Where the capacity takes a
//! record of every non-empty class, the overflow counted, a round beside
//! what runs with the sort, [`SortStep::by_class`] runs a stable counting
//! sort by class instead of the network — Blelloch's radix "split", every
//! class at once: each record goes to `offset[class] + rank`, one bit of
//! its signed displacement a round, least significant first, over the
//! contacts ([`route_rounds_for`]: `⌈log₂ n⌉` rounds). Within a class the
//! destinations keep the positions' order and the displacements do not
//! increase along the path, so — as in Nassimi and Sahni's monotone
//! "concentrate" routes — two records of one class never meet at a
//! position: a node sends and receives at most one record a class a
//! round. A class below the overflow holds one key, so the route leaves
//! its records in the network's `(key, home)` order. The overflow's `k`
//! records land in home order in a window of `k` positions — the first
//! in [`Order::Descending`], the last in [`Order::Ascending`] — and the
//! network runs over that window alone ([`rounds_for`]`(k)` rounds; every
//! other position idles), its comparator partners contacts inside it.
//! Where the route and the window network would take longer than the
//! network over the whole path — a window longer than `2^(⌈log₂ n⌉ - 1)`
//! — that network runs. Every node takes the same choice from `(totals,
//! n, cap)` at its first poll ([`first_rounds_for`]), and the route ends
//! in the network's contract, with the network's order.
//!
//! Every lane of [`SortStep`] is a route, then the network over a window:
//! the class route and the overflow's window; after a group phase the
//! regroup route, with no window, or the merge lane's compaction and one
//! merge pass; or no route and the whole path. Each ends with the
//! rank-`x` record [`Held`] at position `x`, wherever the records
//! started. A caller that keeps working in position space — Algorithm 3's
//! phase loop, the tree drivers, whose hand-off ends in a status to each
//! record's origin — needs no more. A caller that needs a *sorted path*
//! chains [`RankStep`], the 2-round epilogue that tells each record's
//! origin its rank and the IDs of its sorted predecessor/successor — a
//! new [`VPath`] in sorted order, on which every other primitive can be
//! established (Algorithm 6's token pipelines run along it).
//!
//! **Re-sorting after a group phase in `O(log n)` rounds.** Algorithm 3
//! re-sorts records whose order one phase barely changed: the heads of the
//! first `q` groups of `δ + 1` ranks leave, their `qδ` members each lose
//! one, the tail does not change — two runs that are still sorted. With
//! each record's rank as its home, the re-sort is stable: equal keys keep
//! the order the phase held them in. [`SortStep::regroup`] re-orders them
//! in place, one of two ways, the same at every node:
//!
//! * **The route**, where the top key `δ` fills a group — `N ≥ δ + 1`
//!   records held it, the control's count, so every grouped rank
//!   held `δ`. Then every survivor's new rank has a closed form
//!   ([`Regroup`]): the `t = N - q(δ + 1)` tail records still at `δ` go
//!   first, then the members, which now hold `δ - 1` and come before every
//!   later record at `δ - 1`, then the rest, each past the `q` departed
//!   heads. Each record goes there one bit of its signed displacement a
//!   round, least significant first, over the contacts, as in the class
//!   route: [`route_rounds_for`] rounds and no comparator. The members and
//!   the records after that tail keep their destinations' order and their
//!   displacements `t - g - 1 ≥ t - q ≥ -q` do not increase along the
//!   path, and the tail moves `q(δ + 1)` behind as one, so two records of
//!   one of these two streams never meet at a position; a node sends and
//!   receives at most one record a stream a round. The route runs where
//!   the capacity takes a record of each non-empty stream a round beside
//!   the steps around it ([`Regroup::routes`]), the first sort's rule.
//! * **The merge lane** elsewhere: the heads' records are dropped, and
//!   the compaction routes every other record toward the head past each
//!   head at or before it ([`Regroup`]'s shift) — the same route, its
//!   displacement that shift — then one merge pass of the network at a
//!   virtual offset joins the two runs. The longest shift is the number
//!   of groups `g`, which every node knows, so the compaction takes
//!   `⌈log₂(g + 1)⌉` rounds and the lane `⌈log₂(g + 1)⌉ + ⌈log₂ n⌉ + 1`
//!   ([`merge_rounds_for`]). The shifts are non-decreasing in the rank, so
//!   no two records ever meet at a position.
//!
//! Either way the path keeps its length; the departed ranks' positions
//! stay vacant at the end.

use crate::contacts::ContactTable;
use crate::ctx::{self, Classes, PathCtx, Tally, CLASSES};
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use std::sync::Arc;

/// The one sort there is, named as an argument of [`SortStep::on_ctx`].
///
/// The frozen end-to-end benchmark (`crates/bench/src/bin/e2e`) passes
/// `SortBackend::Bitonic` there; it exists for that caller alone, nothing
/// else may name it, and the next `benchmark` change deletes it together
/// with `on_ctx`'s fifth parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortBackend {
    /// The Batcher odd-even mergesort network of [`SortStep`].
    #[default]
    Bitonic,
}

/// Sort direction. The paper's algorithms sort by *non-increasing* degree,
/// i.e. [`Order::Descending`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Smallest key at rank 0.
    Ascending,
    /// Largest key at rank 0.
    Descending,
}

impl Order {
    /// Packs a key and its record's home position, below `2^width`, into
    /// one word whose ascending order is this order on the key, ties by
    /// the position.
    fn pack(self, key: u64, home: usize, width: u32) -> u64 {
        let top = u64::MAX >> width;
        assert!(key <= top, "a sort key past 2^(64 - ⌈log₂ n⌉)");
        debug_assert!(home as u64 >> width == 0, "a home past the path");
        let key = match self {
            Order::Ascending => key,
            Order::Descending => top - key,
        };
        key << width | home as u64
    }

    /// [`Order::pack`]'s inverse: the key and the home position.
    fn unpack(self, word: u64, width: u32) -> (u64, usize) {
        let (top, key) = (u64::MAX >> width, word >> width);
        let key = match self {
            Order::Ascending => key,
            Order::Descending => top - key,
        };
        (key, (word & !(u64::MAX << width)) as usize)
    }

    /// Whether the records of class `a` come before those of class `b`.
    fn before(self, a: usize, b: usize) -> bool {
        match self {
            Order::Ascending => a < b,
            Order::Descending => a > b,
        }
    }
}

/// A record where a [`SortStep`] leaves it: the key it was sorted by, as
/// the caller passed it, the node it belongs to and the position it
/// started at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Held {
    /// The record's key.
    pub key: u64,
    /// The node whose record it is.
    pub origin: NodeId,
    /// The position that breaks ties between equal keys: where the record
    /// started the first sort, its origin's establishment position, or the
    /// rank a caller re-sorting after a group phase wrote in, so that the
    /// re-sort keeps equal keys in the order they held.
    pub home: usize,
}

/// The sorted-path handle [`RankStep`] hands a node for its own record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortedPath {
    /// This node's rank in sorted order (0-based; rank 0 = head).
    pub rank: usize,
    /// The sorted path as a [`VPath`]: predecessor = rank-1 node,
    /// successor = rank+1 node.
    pub vp: VPath,
    /// The node at position `rank` of the path sorted over, which held
    /// this node's record and told it the rank (so the rank-0 node learns
    /// who sits at position 0).
    pub holder: NodeId,
}

/// The comparator schedule of Batcher's odd-even mergesort: the stages
/// `(p, k)`, `p` doubling below `len` and `k` halving from `p`; within a
/// stage, position `x` compares with `x ± k`. The steps walk it one stage
/// a round, without materializing the `O(log² n)` list per node.
#[derive(Clone, Copy, Debug)]
struct StageIter {
    p: usize,
    k: usize,
    len: usize,
}

impl StageIter {
    fn new(len: usize) -> Self {
        StageIter { p: 1, k: 1, len }
    }

    /// The merge pass `p = half` alone: it sorts `2 · half` positions
    /// whose halves are each sorted, in `log₂ half + 1` stages.
    fn merge_pass(half: usize) -> Self {
        StageIter {
            p: half,
            k: half,
            len: 2 * half,
        }
    }
}

impl Iterator for StageIter {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let stage = (self.p < self.len).then_some((self.p, self.k))?;
        if self.k > 1 {
            self.k /= 2;
        } else {
            self.p *= 2;
            self.k = self.p;
        }
        Some(stage)
    }
}

/// Number of comparator stages for a path of `len` nodes: `O(log² len)`.
pub fn stage_count(len: usize) -> usize {
    StageIter::new(len).count()
}

/// Number of rounds the bitonic [`SortStep`] takes on a path of `len`
/// nodes: one per comparator stage.
pub fn rounds_for(len: usize) -> u64 {
    stage_count(len) as u64
}

/// Number of rounds the merge lane of [`SortStep::regroup`] takes on a
/// path of `len` nodes after a phase of `groups` groups: a compaction
/// round per bit of the longest shift, `groups`, and the `⌈log₂ len⌉ + 1`
/// stages of one merge pass. Shorter than [`rounds_for`] from `len = 9`
/// on, whatever `groups` (`< len`).
pub fn merge_rounds_for(len: usize, groups: usize) -> u64 {
    (crate::levels_for(groups + 1) + crate::levels_for(len)) as u64 + 1
}

/// Number of rounds the class route of [`SortStep::by_class`] and the
/// route of [`SortStep::regroup`] take on a path of `len` nodes: a round a
/// bit of the longest displacement, `⌈log₂ len⌉`.
pub fn route_rounds_for(len: usize) -> u64 {
    crate::levels_for(len) as u64
}

/// Number of rounds [`SortStep::regroup`] takes on a path of `len` nodes
/// after `phase` at capacity `cap`, beside steps that send and receive up
/// to `beside` messages a node a round: the route's where
/// [`Regroup::routes`], else the merge lane's.
pub fn regroup_rounds_for(len: usize, phase: &Regroup, cap: usize, beside: usize) -> u64 {
    match phase.routes(cap, beside) {
        true => route_rounds_for(len),
        false => merge_rounds_for(len, phase.groups),
    }
}

/// Rounds of a first sort over keys whose classes tally `totals` that
/// takes the class route at capacity `cap`, beside steps that send and
/// receive up to `beside` messages a node a round: the route's, then the
/// window network's over the overflow. `None` where the capacity does not
/// take a record of every non-empty class, the overflow one of them, a
/// round beside those steps, or where the route and the window take
/// longer than the network over the whole path, which then runs.
fn routed_rounds(totals: &Tally, cap: usize, beside: usize) -> Option<u64> {
    let len = totals.count();
    let rounds = route_rounds_for(len) + rounds_for(totals.0[CLASSES] as usize);
    (totals.classes() + beside <= cap && rounds <= rounds_for(len)).then_some(rounds)
}

/// Rounds of [`SortStep::by_class`] over `keys`, one a position of a path
/// established keyed, at capacity `cap` beside `beside` messages a node a
/// round: the class route's and the overflow window's network after it
/// where the establishment counted the classes, the capacity takes a
/// record of every non-empty class — the overflow counted — a round
/// beside those messages and the two are no longer than the network over
/// the whole path, else that network's.
pub fn first_rounds_for(keys: impl IntoIterator<Item = u64>, cap: usize, beside: usize) -> u64 {
    let totals = Tally::of(keys);
    let len = totals.count();
    let routed = ctx::counts_classes(len).then(|| routed_rounds(&totals, cap, beside));
    routed.flatten().unwrap_or_else(|| rounds_for(len))
}

/// Number of rounds [`RankStep`] takes, at any path length.
pub const RANK_ROUNDS: u64 = 2;

/// What one group phase did to sorted records, the input of
/// [`SortStep::regroup`]: of the `live` records, position `x` holding the
/// rank-`x` one, ranks `[0, groups · stride)` form `groups` groups of
/// `stride` ranks; each group's head leaves, and the rest of each group
/// and the tail `[groups · stride, live)` keep their relative order under
/// the new keys. The first `top` records held the top key, `stride - 1`,
/// before the phase, and each member lost one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Regroup {
    /// Records held, at positions (ranks) `[0, live)`.
    pub live: usize,
    /// Ranks per group: its head and `stride - 1` members.
    pub stride: usize,
    /// Number of groups.
    pub groups: usize,
    /// Records that held the top key `stride - 1`, at ranks `[0, top)`:
    /// the control's `N`, swept or replayed.
    pub top: usize,
}

impl Regroup {
    /// Ranks the groups cover, `groups · stride`.
    pub fn span(&self) -> usize {
        self.groups * self.stride
    }

    /// Where the route of [`SortStep::regroup`] takes the record at
    /// `rank`, its rank in a stable re-sort by the new keys, once the top
    /// key fills every group: the `t = top - span` tail records still at
    /// the top key go first, then the members (the one at `g · stride + i`
    /// to `t + g(stride - 1) + i - 1`), then every later record, each
    /// moved past the `groups` departed heads. `None` for a head, whose
    /// record leaves, and wherever the top key fills no group (`top <
    /// stride`), where the merge lane re-orders instead.
    fn rank(&self, rank: usize) -> Option<usize> {
        let (stride, span) = (self.stride, self.span());
        let tail = self.top.checked_sub(span).filter(|_| self.top >= stride)?;
        if rank >= self.top {
            Some(rank - self.groups)
        } else if rank >= span {
            Some(rank - span)
        } else if rank.is_multiple_of(stride) {
            None
        } else {
            Some(tail + rank / stride * (stride - 1) + rank % stride - 1)
        }
    }

    /// The route's streams that hold records: the members and the records
    /// after the tail at the top key, whose displacements `t - g - 1 ≥ t -
    /// groups ≥ -groups` do not increase along the path; and that tail,
    /// all `span` behind, where it is not empty.
    fn streams(&self) -> usize {
        1 + usize::from(self.top > self.span())
    }

    /// Whether [`SortStep::regroup`] routes after this phase at capacity
    /// `cap`, beside steps that send and receive up to `beside` messages a
    /// node a round: where the top key fills a group (`top ≥ stride`), and
    /// the capacity takes a record of each of the route's streams a round
    /// beside those steps — the rule of the first sort's class route.
    pub fn routes(&self, cap: usize, beside: usize) -> bool {
        self.top >= self.stride && self.streams() + beside <= cap
    }

    /// How far toward the head the merge lane's compaction moves the
    /// record at `rank`: past every head at or before it. `None` for a
    /// head, whose record leaves.
    fn shift(&self, rank: usize) -> Option<usize> {
        if rank >= self.span() {
            Some(self.groups)
        } else if rank.is_multiple_of(self.stride) {
            None
        } else {
            Some(rank / self.stride + 1)
        }
    }

    /// Where position 0 sits in the merge pass over `2 · half` virtual
    /// positions: the members' run ends where the lower half does, so the
    /// tail's run starts the upper half.
    fn offset(&self, half: usize) -> usize {
        half - self.groups * (self.stride - 1)
    }
}

/// Whether position `x` participates in stage `(p, k)` of the network, and
/// with which partner. Returns `(partner_position, i_am_low)`.
///
/// Derived from the classic triple loop
/// `for j in (k%p..).step_by(2k) { for i in 0..k { compare(i+j, i+j+k) if
/// same 2p-block } }` — solved for `x` in O(1). `p` and `k ≤ p` are powers
/// of two, so every division of that form is a mask or a shift.
fn comparator_at(x: usize, len: usize, p: usize, k: usize) -> Option<(usize, bool)> {
    debug_assert!(p.is_power_of_two() && k.is_power_of_two() && k <= p);
    // k mod p, and log₂ of the 2p-block width.
    let j0 = k & (p - 1);
    let block = p.trailing_zeros() + 1;
    // Is `lo` the low endpoint of a stage comparator? lo = i + j with
    // i ∈ [0, k), j ≡ j0 (mod 2k), j ≥ j0 — equivalently lo ≥ j0 and
    // (lo - j0) mod 2k < k, i.e. its `k` bit is clear — and lo, lo+k
    // must share a 2p-block.
    let is_low = |lo: usize| -> bool {
        lo >= j0 && (lo - j0) & k == 0 && lo + k < len && lo >> block == (lo + k) >> block
    };
    if is_low(x) {
        return Some((x + k, true));
    }
    if x >= k && is_low(x - k) {
        return Some((x - k, false));
    }
    None
}

/// [`comparator_at`] in a network whose position 0 sits at virtual
/// position `offset` and whose records fill positions `[0, live)`: the
/// positions outside act as −∞ below and +∞ above, never swap, and so
/// have no comparator.
fn comparator_within(
    x: usize,
    offset: usize,
    live: usize,
    p: usize,
    k: usize,
) -> Option<(usize, bool)> {
    comparator_at(x + offset, offset + live, p, k)
        .filter(|&(partner, _)| partner >= offset)
        .map(|(partner, low)| (partner - offset, low))
}

/// A record traveling between positions: its key and home position
/// packed for ascending order ([`Order::pack`]), and its origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Record {
    key: u64,
    origin: NodeId,
}

impl Record {
    /// `held`, on a path whose positions take `width` bits.
    fn encode(held: Held, order: Order, width: u32) -> Self {
        Record {
            key: order.pack(held.key, held.home, width),
            origin: held.origin,
        }
    }

    fn decode(self, order: Order, width: u32) -> Held {
        let (key, home) = order.unpack(self.key, width);
        Held {
            key,
            origin: self.origin,
            home,
        }
    }

    /// The record from a message carrying it: its origin's address, the
    /// packed key and one more word.
    fn received(env: &dgr_ncc::WireEnvelope) -> (Self, u64) {
        let record = Record {
            key: env.word(),
            origin: env.addr(),
        };
        (record, env.msg.words_slice()[1])
    }

    /// The message carrying this record and `word` between positions.
    fn moving(self, word: u64) -> WireMsg {
        WireMsg::addr_word(tags::SORT_SHIFT, self.origin, self.key).with_word(word)
    }
}

/// Theorem 3 as a [`Step`](crate::Step): a route, then the Batcher
/// odd-even mergesort network over a window of path positions. Built by
/// [`SortStep::new`] or [`SortStep::in_place`], no route and the network
/// over the whole path (rounds: exactly [`rounds_for`]`(vp.len)`); by
/// [`SortStep::by_class`], where the keys allow it, the class route and
/// the network over the overflow's window; by [`SortStep::regroup`] after
/// a group phase, the route to the survivors' closed-form ranks and no
/// window where the phase allows it, else the merge lane's compaction
/// route and one merge pass. Each ends with the rank-`x` record [`Held`]
/// at position `x` (`None` past the last record). Ties break by home
/// position, making the result deterministic. Legal under the strict
/// capacity policy; a non-member view idles through the same rounds and
/// holds nothing.
pub type SortStep = Lockstep<Sort>;

/// [`SortStep`]'s member rounds: the route's, then the comparator stages
/// of the network over the window.
#[derive(Debug)]
pub struct Sort {
    contacts: Arc<ContactTable>,
    x: usize,
    order: Order,
    /// Bits a position takes in a record's key word: `⌈log₂ len⌉`.
    width: u32,
    it: StageIter,
    /// The window the comparator network runs over once the route has
    /// landed, positions `[from, from + live)` (`from` is 0 but in an
    /// ascending overflow window), and the network's virtual position of
    /// `from`.
    from: usize,
    live: usize,
    offset: usize,
    held: Option<Record>,
    /// Whether this position keeps the lower record of the comparator
    /// staged last round, if it staged one.
    cmp: Option<bool>,
    /// The route, until it lands this position's record; [`Sort::budget`]
    /// drops it at the first poll where none runs, and the network runs
    /// over the whole path.
    route: Option<Route>,
}

/// A route at one position: every record moves to its destination, one
/// bit of its signed displacement a round, least significant first, over
/// the contacts — the class route of [`SortStep::by_class`], or after a
/// group phase the route of [`SortStep::regroup`] or its merge lane's
/// compaction. The position's record joins it at the first poll
/// ([`Sort::budget`]), with the destination the route gives it.
#[derive(Debug)]
struct Route {
    /// What decides at the first poll whether the route runs, and where
    /// it takes this position's record.
    fit: Fit,
    /// Messages a node a round the steps beside the route may take.
    beside: usize,
    /// The route's rounds: [`route_rounds_for`] the path, or the
    /// compaction's `⌈log₂(groups + 1)⌉`.
    rounds: u64,
    /// Whether a record lands at this position.
    lands: bool,
    /// The records at this position, each with its destination.
    here: Vec<(Record, usize)>,
}

/// Which route a [`Route`] is, with what decides whether it runs.
#[derive(Clone, Copy, Debug)]
enum Fit {
    /// A first sort's class route over keys whose classes tally so
    /// ([`routed_rounds`]), this position's record bound for `dest`
    /// ([`destination`]).
    Classes { totals: Tally, dest: usize },
    /// A later phase's route after this group phase ([`Regroup::routes`],
    /// [`Regroup::rank`]); where it does not run, the compaction.
    Regroup(Regroup),
    /// The merge lane's compaction, which the first poll picked for a
    /// group phase the route does not take ([`Regroup::shift`]).
    Compaction,
}

impl SortStep {
    /// Builds the step: sort the members of `vp` by `key`, each starting
    /// with its own record at its `position` (which comes from the
    /// establishment's count lane).
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        key: u64,
        order: Order,
        my_id: NodeId,
    ) -> Self {
        let held = Held {
            key,
            origin: my_id,
            home: position,
        };
        Self::in_place(vp, contacts, position, Some(held), order)
    }

    /// The first sort on a path established keyed, each member starting
    /// with its own record keyed `key`, the key it was established with:
    /// the class route, then the network over the overflow's window, where
    /// the run's capacity takes a record of every non-empty class — the
    /// overflow one of them — a round beside steps taking up to `beside`
    /// messages a node a round and the two are no longer than the network
    /// over the whole path, else that network (rounds: exactly
    /// [`first_rounds_for`]; the network's where `ctx` has no
    /// [`Classes`]). Every member takes the same choice at its first poll.
    pub fn by_class(ctx: &PathCtx, key: u64, order: Order, my_id: NodeId, beside: usize) -> Self {
        let (vp, x) = (ctx.vp, ctx.position);
        let held = Held {
            key,
            origin: my_id,
            home: x,
        };
        let Some(classes) = ctx.classes else {
            return Self::in_place(vp, ctx.contacts.clone(), x, Some(held), order);
        };
        debug_assert_eq!(classes.class, Tally::class(key), "keyed with another key");
        let sort = Sort::network(ctx.contacts.clone(), x, vp.len, Some(held), order);
        let (totals, dest) = (classes.totals, destination(&classes, order));
        let fit = Fit::Classes { totals, dest };
        Lockstep::sized(vp.member, sort.routed(fit, beside, true))
    }

    /// Sorts the records where they are held: `held` is the record at this
    /// node's `position`, if any — every position of the path must hold
    /// one. The result does not depend on where the records start.
    pub fn in_place(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        held: Option<Held>,
        order: Order,
    ) -> Self {
        let sort = Sort::network(contacts, position, vp.len, held, order);
        Lockstep::run(vp.member, rounds_for(vp.len), sort)
    }

    /// Re-sorts the records of positions `[0, phase.live)`, position `x`
    /// holding the rank-`x` record in [`Order::Descending`], after the
    /// group phase `phase`, whose members each lost one from the top key;
    /// `held` is this node's record with its new key, its home the rank
    /// `x` it held (rounds: exactly [`regroup_rounds_for`] at the run's
    /// capacity). The survivors end in a stable re-sort by the new keys,
    /// ties in the order they held, at positions `[0, live - groups)`, and
    /// the positions after them hold nothing.
    ///
    /// Where the top key fills a group and the capacity takes the route's
    /// streams beside steps taking up to `beside` messages a node a round
    /// ([`Regroup::routes`]), every survivor goes straight to its rank
    /// ([`Regroup`]'s closed form) in [`route_rounds_for`] rounds, with no
    /// comparator. Else the merge lane runs (rounds: exactly
    /// [`merge_rounds_for`]`(vp.len, phase.groups)`): the compaction
    /// routes every survivor toward the head past each head at or before
    /// it, and one merge pass joins the members' run and the tail's, which
    /// the caller guarantees are each still in `(key, home)` order; the
    /// homes make that order the stable one. Every member takes the same
    /// choice at its first poll.
    pub fn regroup(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        held: Option<Held>,
        phase: Regroup,
        beside: usize,
    ) -> Self {
        let sort = Sort::network(contacts, position, vp.len, held, Order::Descending);
        let lands = position < phase.live - phase.groups;
        Lockstep::sized(vp.member, sort.routed(Fit::Regroup(phase), beside, lands))
    }

    /// [`SortStep::by_class`] over an established [`PathCtx`], alone in
    /// its rounds: on an unkeyed context, the network. The fifth parameter
    /// is ignored: the frozen benchmark passes it (see [`SortBackend`]),
    /// and it goes with that type.
    pub fn on_ctx(ctx: &PathCtx, key: u64, order: Order, my_id: NodeId, _: SortBackend) -> Self {
        Self::by_class(ctx, key, order, my_id, 0)
    }
}

/// The position the class route takes a record to: past every record of
/// the classes before its own, and past the earlier ones of its own.
fn destination(classes: &Classes, order: Order) -> usize {
    classes.rank + start(&classes.totals, classes.class, order)
}

/// The first position the class route fills with records of `class`:
/// past every record of the classes before it.
fn start(totals: &Tally, class: usize, order: Order) -> usize {
    let before = (0..=CLASSES).filter(|&c| order.before(c, class));
    before.map(|c| totals.0[c] as usize).sum()
}

impl Route {
    /// Route poll `t` at position `x`: the records that arrived, then the
    /// move of bit `t` of every held record's displacement; at the last
    /// poll, [`route_rounds_for`] the path, the record landed here, if one
    /// lands here.
    fn poll(
        &mut self,
        t: u64,
        x: usize,
        contacts: &ContactTable,
        ctx: &mut RoundCtx<'_>,
    ) -> Poll<Option<Record>> {
        if t > 0 {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::SORT_SHIFT) {
                let (record, dest) = Record::received(env);
                // A second copy of a record is a duplicate.
                if self.here.iter().all(|(r, _)| r.origin != record.origin) {
                    self.here.push((record, dest as usize));
                }
            }
        }
        if t == self.rounds {
            let landed = self.here.pop();
            if self.lands && landed.is_none() {
                let route = match self.fit {
                    Fit::Classes { .. } => "class route",
                    Fit::Regroup(_) => "regroup route",
                    Fit::Compaction => "merge's compaction",
                };
                panic!("message loss: a position missed its record in the {route}");
            }
            debug_assert!(self.here.is_empty(), "two records landed at one position");
            debug_assert!(landed.is_none_or(|(_, dest)| dest == x && self.lands));
            return Poll::Ready(landed.map(|(record, _)| record));
        }
        let bit = t as usize;
        self.here.retain(|&(record, dest)| {
            if dest.abs_diff(x) >> bit & 1 == 0 {
                return true;
            }
            let to = (contacts.at_offset(bit, dest > x)).expect("a route past the path");
            ctx.send(to, record.moving(dest as u64));
            false
        });
        Poll::Pending
    }
}

impl Sort {
    /// A full sort's network at position `x` of `len`, holding `held`.
    fn network(
        contacts: Arc<ContactTable>,
        x: usize,
        len: usize,
        held: Option<Held>,
        order: Order,
    ) -> Self {
        let width = crate::levels_for(len) as u32;
        Sort {
            contacts,
            x,
            order,
            width,
            it: StageIter::new(len),
            from: 0,
            live: len,
            offset: 0,
            held: held.map(|h| Record::encode(h, order, width)),
            cmp: None,
            route: None,
        }
    }

    /// This network after a route that `fit` picks at the first poll
    /// ([`Sort::budget`]), beside steps taking up to `beside` messages a
    /// node a round; `lands` where a record lands at this position.
    fn routed(self, fit: Fit, beside: usize, lands: bool) -> Self {
        let route = Route {
            fit,
            beside,
            rounds: route_rounds_for(self.live),
            lands,
            here: Vec::new(),
        };
        let route = Some(route);
        Sort { route, ..self }
    }

    /// Consumes the comparator partner's record staged last round, if any.
    fn absorb_exchange(&mut self, ctx: &RoundCtx<'_>) {
        if let Some(i_am_low) = self.cmp.take() {
            let env = ctx
                .inbox()
                .iter()
                .find(|e| e.msg.tag == tags::SORT_XCHG)
                .expect("message loss: a position missed its comparator partner's record");
            let theirs = Record {
                key: env.word(),
                origin: env.addr(),
            };
            let held = self.held.as_mut().expect("comparator without a record");
            *held = if i_am_low {
                (*held).min(theirs)
            } else {
                (*held).max(theirs)
            };
        } else {
            debug_assert!(ctx.inbox().iter().all(|e| e.msg.tag != tags::SORT_XCHG));
        }
    }

    /// This position's comparator in stage `(p, k)` of the network over
    /// positions `[from, from + live)`: its partner's position and whether
    /// it keeps the lower record ([`comparator_within`]).
    fn comparator(&self, p: usize, k: usize) -> Option<(usize, bool)> {
        let i = self.x.checked_sub(self.from)?;
        let cmp = comparator_within(i, self.offset, self.live, p, k);
        cmp.map(|(partner, low)| (partner + self.from, low))
    }

    /// Stages this round's network comparator, if any.
    fn stage_comparator(&mut self, ctx: &mut RoundCtx<'_>) {
        let (p, k) = self.it.next().expect("comparator stage out of range");
        let cmp = self.comparator(p, k);
        if let (Some((partner, _)), Some(r)) = (cmp, self.held) {
            let level = k.trailing_zeros() as usize;
            debug_assert_eq!(1 << level, k);
            let partner_id = self
                .contacts
                .at_offset(level, partner > self.x)
                .expect("comparator partner outside contact table");
            ctx.send(
                partner_id,
                WireMsg::addr_word(tags::SORT_XCHG, r.origin, r.key),
            );
        }
        self.cmp = cmp.map(|(_, low)| low);
    }
}

impl Rounds for Sort {
    type Out = Option<Held>;

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Option<Held>> {
        let (order, width) = (self.order, self.width);
        if let Some(route) = &mut self.route {
            let Poll::Ready(record) = route.poll(t, self.x, &self.contacts, ctx) else {
                return Poll::Pending;
            };
            // Landed: the network over the window takes over, if any.
            (self.held, self.route) = (record, None);
        } else if t > 0 {
            self.absorb_exchange(ctx);
        }
        if t == rounds {
            return Poll::Ready(self.held.map(|r| r.decode(order, width)));
        }
        self.stage_comparator(ctx);
        Poll::Pending
    }

    /// The route and this position's record's destination on it, and the
    /// window, the same at every member: the class route and the
    /// overflow's window where the capacity takes them and they are no
    /// longer, else no route and the network over the whole path
    /// ([`SortStep::by_class`]); the regroup route and no window where the
    /// phase lets it and the capacity takes it, else the compaction and
    /// one merge pass ([`SortStep::regroup`]).
    fn budget(&mut self, ctx: &RoundCtx<'_>) -> Option<u64> {
        let route = self.route.as_mut()?;
        let (cap, beside, x) = (ctx.capacity(), route.beside, self.x);
        let dest = match route.fit {
            Fit::Classes { totals, dest } => {
                let Some(rounds) = routed_rounds(&totals, cap, beside) else {
                    self.route = None;
                    return Some(rounds_for(self.live));
                };
                // The route lands the overflow's records in home order at
                // the window the network then sorts alone.
                self.from = start(&totals, CLASSES, self.order);
                self.live = totals.0[CLASSES] as usize;
                self.it = StageIter::new(self.live);
                debug_assert_eq!(rounds, route.rounds + self.it.count() as u64);
                Some(dest)
            }
            Fit::Regroup(phase) if phase.routes(cap, beside) => {
                // Every record lands at its rank: no window.
                self.it = StageIter::new(0);
                phase.rank(x)
            }
            Fit::Regroup(phase) => {
                let half = 1 << self.width;
                route.fit = Fit::Compaction;
                route.rounds = crate::levels_for(phase.groups + 1) as u64;
                self.it = StageIter::merge_pass(half);
                (self.live, self.offset) = (phase.live - phase.groups, phase.offset(half));
                phase.shift(x).map(|shift| x - shift)
            }
            Fit::Compaction => unreachable!("a route picked twice"),
        };
        route.here.extend(self.held.take().zip(dest));
        Some(route.rounds + self.it.count() as u64)
    }
}

/// The sort's 2-round epilogue, chained after a [`SortStep`] by a caller
/// that needs a sorted path: every position exchanges its record's origin
/// with its path neighbours, then tells that origin its rank and its
/// sorted neighbours' IDs (rounds: exactly [`RANK_ROUNDS`]). Each member
/// of the path must hold a record, as a full sort leaves it.
pub type RankStep = Lockstep<Rank>;

/// [`RankStep`]'s member rounds.
#[derive(Debug)]
pub struct Rank {
    vp: VPath,
    x: usize,
    held: Option<NodeId>,
    pred_origin: Option<NodeId>,
    succ_origin: Option<NodeId>,
}

impl RankStep {
    /// Builds the step at `position` of `vp`, which holds `held`.
    pub fn new(vp: VPath, position: usize, held: Option<Held>) -> Self {
        let rank = Rank {
            vp,
            x: position,
            held: held.map(|h| h.origin),
            pred_origin: None,
            succ_origin: None,
        };
        Lockstep::run(vp.member, RANK_ROUNDS, rank)
    }
}

impl Rounds for Rank {
    type Out = SortedPath;

    fn poll(&mut self, t: u64, _: u64, ctx: &mut RoundCtx<'_>) -> Poll<SortedPath> {
        if t == 0 {
            // Exchange held origins with the path neighbours.
            if let Some(origin) = self.held {
                for nb in [self.vp.pred, self.vp.succ].into_iter().flatten() {
                    ctx.send(nb, WireMsg::addr(tags::SORT_LINK, origin));
                }
            }
        } else if t == 1 {
            for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::SORT_LINK) {
                if Some(env.src) == self.vp.pred {
                    self.pred_origin = Some(env.addr());
                } else if Some(env.src) == self.vp.succ {
                    self.succ_origin = Some(env.addr());
                }
            }
            // Tell the held record's origin its rank and sorted
            // neighbours (flags: bit0 = has pred, bit1 = has succ).
            if let Some(origin) = self.held {
                let flags = u64::from(self.pred_origin.is_some())
                    | (u64::from(self.succ_origin.is_some()) << 1);
                let mut msg = WireMsg::words(tags::SORT_LINK, &[self.x as u64, flags]);
                if let Some(a) = self.pred_origin {
                    msg = msg.with_addr(a);
                }
                if let Some(a) = self.succ_origin {
                    msg = msg.with_addr(a);
                }
                ctx.send(origin, msg);
            }
        } else {
            let env = ctx
                .inbox()
                .iter()
                .find(|e| e.msg.tag == tags::SORT_LINK)
                .expect("no rank notification received");
            let rank = env.msg.words_slice()[0] as usize;
            let flags = env.msg.words_slice()[1];
            let mut addrs = env.msg.addrs_slice().iter().copied();
            let pred = (flags & 1 != 0).then(|| addrs.next().unwrap());
            let succ = (flags & 2 != 0).then(|| addrs.next().unwrap());
            return Poll::Ready(SortedPath {
                rank,
                vp: VPath {
                    member: true,
                    pred,
                    succ,
                    len: self.vp.len,
                },
                holder: env.src,
            });
        }
        Poll::Pending
    }

    fn non_member(&mut self) -> SortedPath {
        SortedPath {
            vp: VPath::non_member(self.vp.len),
            ..SortedPath::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Step, WithCtx};
    use dgr_ncc::{Config, Network};
    use std::collections::HashMap;

    /// Sequential reference for the comparator network.
    fn network_sorts(len: usize, keys: &[u64]) -> Vec<u64> {
        let mut a: Vec<Record> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Record {
                key: k,
                origin: i as u64,
            })
            .collect();
        for (p, k) in StageIter::new(len) {
            // Apply all comparators of this stage simultaneously.
            let snapshot = a.clone();
            for x in 0..len {
                if let Some((partner, i_am_low)) = comparator_at(x, len, p, k) {
                    // Sanity: the relation is symmetric.
                    let back = comparator_at(partner, len, p, k);
                    assert_eq!(back, Some((x, !i_am_low)), "p={p} k={k} x={x}");
                    let pair = (snapshot[x], snapshot[partner]);
                    a[x] = if i_am_low {
                        pair.0.min(pair.1)
                    } else {
                        pair.0.max(pair.1)
                    };
                }
            }
        }
        a.iter().map(|r| r.key).collect()
    }

    #[test]
    fn comparator_masks_equal_the_division_form() {
        // The schedule written with the divisions it was derived with.
        let by_division = |x: usize, len: usize, p: usize, k: usize| {
            let j0 = k % p;
            let is_low = |lo: usize| {
                lo >= j0
                    && (lo - j0) % (2 * k) < k
                    && lo + k < len
                    && lo / (2 * p) == (lo + k) / (2 * p)
            };
            match (is_low(x), x >= k && is_low(x - k)) {
                (true, _) => Some((x + k, true)),
                (false, true) => Some((x - k, false)),
                (false, false) => None,
            }
        };
        for len in 0..=300 {
            for (p, k) in StageIter::new(len) {
                for x in 0..len {
                    let want = by_division(x, len, p, k);
                    assert_eq!(
                        comparator_at(x, len, p, k),
                        want,
                        "len={len} p={p} k={k} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn comparator_network_sorts_sequentially() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        for len in 1..=48 {
            for _ in 0..8 {
                let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..32)).collect();
                let sorted = network_sorts(len, &keys);
                let mut want = keys.clone();
                want.sort_unstable();
                assert_eq!(sorted, want, "len={len} keys={keys:?}");
            }
        }
    }

    /// Random group-phase states at every path length up to 300 (a
    /// prefix of the live records in groups, each group's head leaving and
    /// its members losing one, some vacant ranks at the end): each of the
    /// `⌈log₂(groups + 1)⌉` compaction rounds holds at most one record per
    /// position, they leave the survivors at the front, and the merge
    /// pass leaves them in exactly their sorted order.
    #[test]
    fn merge_lane_compacts_without_collisions_and_merges_to_the_sort() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(32);
        let order = Order::Descending;
        for len in 2..=300 {
            for _ in 0..12 {
                let live = rng.gen_range(2..=len);
                let stride = rng.gen_range(2..=live);
                let groups = rng.gen_range(1..=live / stride);
                let phase = Regroup {
                    live,
                    stride,
                    groups,
                    top: 0,
                };
                // Needs in sorted order, ties by home position; a group
                // member has one to lose, the tail may hold zeros.
                let zeros = rng.gen_range(0..=live - phase.span());
                let mut needs: Vec<u64> = (0..live)
                    .map(|i| if i < zeros { 0 } else { rng.gen_range(1..6) })
                    .collect();
                needs.sort_unstable_by(|a, b| b.cmp(a));
                let mut homes: Vec<usize> = (0..live).collect();
                homes.shuffle(&mut rng);
                let mut ranked: Vec<(u64, usize)> = needs.into_iter().zip(homes).collect();
                let width = crate::levels_for(len) as u32;
                ranked.sort_unstable_by_key(|&(need, home)| order.pack(need, home, width));
                let mut at: Vec<Option<(Record, usize)>> = vec![None; len];
                for (rank, &(need, home)) in ranked.iter().enumerate() {
                    let shift = phase.shift(rank);
                    let need = need - u64::from(rank < phase.span());
                    let key = order.pack(need, home, width);
                    let origin = home as NodeId * 7 + 3;
                    at[rank] = shift.map(|s| (Record { key, origin }, s));
                }
                let mut want: Vec<Record> = at.iter().flatten().map(|&(r, _)| r).collect();
                want.sort_unstable();
                let what = format!("len={len} {phase:?}");
                for bit in 0..crate::levels_for(groups + 1) {
                    let mut next = vec![None; len];
                    for (x, slot) in at.iter().enumerate() {
                        if let Some((r, s)) = *slot {
                            let to = x - (s >> bit & 1) * (1 << bit);
                            assert!(next[to].is_none(), "{what}: collision at {to}");
                            next[to] = Some((r, s));
                        }
                    }
                    at = next;
                }
                let live = live - groups;
                assert!(at[..live].iter().all(Option::is_some), "{what}");
                assert!(at[live..].iter().all(Option::is_none), "{what}");
                let half = 1 << crate::levels_for(len);
                let offset = phase.offset(half);
                for (p, k) in StageIter::merge_pass(half) {
                    let snapshot = at.clone();
                    for x in 0..len {
                        if let Some((partner, low)) = comparator_within(x, offset, live, p, k) {
                            let (a, b) = (snapshot[x].unwrap(), snapshot[partner].unwrap());
                            at[x] = Some(if low { a.min(b) } else { a.max(b) });
                        }
                    }
                }
                let got: Vec<Record> = at.iter().flatten().map(|&(r, _)| r).collect();
                assert_eq!(got, want, "{what}");
            }
        }
        assert_eq!(StageIter::merge_pass(2048).count(), 12);
        assert_eq!(merge_rounds_for(2048, 1023), 22);
        assert_eq!(merge_rounds_for(2048, 1024), 23);
    }

    fn run_sort(n: usize, seed: u64, order: Order) {
        let net = Network::new(n, Config::ncc0(seed));
        let key = |id: NodeId| id % 17; // plenty of ties
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let (vp, x) = (ctx.vp, ctx.position);
                    SortStep::on_ctx(ctx, key(rctx.id()), order, rctx.id(), SortBackend::Bitonic)
                        .then(move |held, _| RankStep::new(vp, x, held))
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean(), "n={n}");
        // Ranks form a permutation and keys are ordered along ranks.
        let mut by_rank: Vec<(usize, u64, NodeId, &SortedPath)> = result
            .outputs
            .iter()
            .map(|(id, sp)| (sp.rank, key(*id), *id, sp))
            .collect();
        by_rank.sort_unstable_by_key(|(r, ..)| *r);
        for (want, (got, ..)) in by_rank.iter().enumerate() {
            assert_eq!(*got, want, "ranks not a permutation");
        }
        for w in by_rank.windows(2) {
            match order {
                Order::Ascending => assert!(w[0].1 <= w[1].1),
                Order::Descending => assert!(w[0].1 >= w[1].1),
            }
        }
        // The sorted-path links agree with the rank order.
        let id_at: HashMap<usize, NodeId> = by_rank.iter().map(|(r, _, id, _)| (*r, *id)).collect();
        for (rank, _, _, sp) in &by_rank {
            let want_pred = rank.checked_sub(1).map(|r| id_at[&r]);
            let want_succ = id_at.get(&(rank + 1)).copied();
            assert_eq!(sp.vp.pred, want_pred, "rank {rank} pred");
            assert_eq!(sp.vp.succ, want_succ, "rank {rank} succ");
            assert!(sp.vp.member);
            assert_eq!(sp.vp.len, n);
        }
    }

    #[test]
    fn distributed_sort_small_sizes() {
        for n in [1, 2, 3, 5, 8, 13, 16, 21] {
            run_sort(n, n as u64 + 500, Order::Ascending);
            run_sort(n, n as u64 + 900, Order::Descending);
        }
    }

    #[test]
    fn distributed_sort_medium() {
        run_sort(100, 4, Order::Descending);
        run_sort(128, 5, Order::Ascending);
    }

    /// The in-place lanes over two group phases on both engines, at path
    /// lengths from 2 to 300: a sort, then two merge lanes — regroups
    /// whose top key fills no group — the second on records the first
    /// left vacant positions behind. Position `x` ends
    /// holding the rank-`x` survivor record — the `(key, home)` order of
    /// `SortStep` — the group heads' records leave, the positions past the
    /// survivors hold nothing, and every run stays clean under the strict
    /// policy at the capacity floor.
    #[test]
    fn merge_lane_equals_the_sort_of_the_survivors() {
        use dgr_ncc::EngineKind;
        let order = Order::Descending;
        for n in 2usize..=300 {
            let need = |id: NodeId| 2 + id * 7 % 5;
            let first = Regroup {
                live: n,
                stride: 3.min(n),
                groups: (n / 6).max(1),
                top: 0,
            };
            let live = n - first.groups;
            let second = Regroup {
                live,
                stride: 2,
                groups: live / 4,
                top: 0,
            };
            // One phase, sequentially: the survivors' new needs, sorted.
            let by_rank = move |h: &Held| order.pack(h.key, h.home, crate::levels_for(n) as u32);
            let regroup = |ranked: &[Held], phase: Regroup| {
                let mut next: Vec<Held> = (0..phase.live)
                    .filter(|&r| phase.shift(r).is_some())
                    .map(|r| Held {
                        key: ranked[r].key - u64::from(r < phase.span()),
                        ..ranked[r]
                    })
                    .collect();
                next.sort_unstable_by_key(by_rank);
                next
            };
            // The held record's key after `phase`, from its position.
            let after = |held: Option<Held>, x: usize, phase: Regroup| {
                held.map(|h| Held {
                    key: h.key - u64::from(x < phase.span()),
                    ..h
                })
            };
            let net = Network::new(n, Config::ncc0(n as u64).with_capacity_factor(0.1));
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let result = net
                    .run_protocol_on(engine, None, None, |_| {
                        WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                            let (vp, x, contacts) = (ctx.vp, ctx.position, ctx.contacts.clone());
                            let table = contacts.clone();
                            let sort =
                                SortStep::new(vp, contacts, x, need(rctx.id()), order, rctx.id());
                            sort.then(move |held, _| {
                                let held = after(held, x, first);
                                let table2 = table.clone();
                                SortStep::regroup(vp, table, x, held, first, 0).then(
                                    move |held, _| {
                                        let held = after(held, x, second);
                                        SortStep::regroup(vp, table2, x, held, second, 0)
                                    },
                                )
                            })
                        })
                    })
                    .unwrap();
                let what = format!("n={n} {engine:?}");
                let m = &result.metrics;
                assert!(m.is_clean(), "{what}: {:?}", m.violations);
                assert_eq!(m.capacity, 4, "{what}");
                // The outputs come in path order: entry `x` is position `x`.
                let mut ranked: Vec<Held> = (result.outputs.iter().enumerate())
                    .map(|(home, &(id, _))| Held {
                        key: need(id),
                        origin: id,
                        home,
                    })
                    .collect();
                ranked.sort_unstable_by_key(by_rank);
                let want = regroup(&regroup(&ranked, first), second);
                assert_eq!(want.len(), n - first.groups - second.groups, "{what}");
                for (x, (_, held)) in result.outputs.iter().enumerate() {
                    assert_eq!(*held, want.get(x).copied(), "{what}: position {x}");
                }
            }
        }
    }

    /// The class route, replayed sequentially at every path length from 1
    /// to 4096, in both orders, twice: on random keys in up to eight
    /// classes, then on keys that may pass 7 too: every record lands at
    /// its stable `(class, home)` rank — its `(key, home)` rank below the
    /// overflow, the overflow's window in home order — in
    /// [`route_rounds_for`] rounds, no two records of one class ever share
    /// a position, and no position sends or receives more records a round
    /// than there are non-empty classes.
    #[test]
    fn class_route_lands_every_record_at_its_stable_rank_without_collisions() {
        use rand::SeedableRng;
        for (seed, most) in [(42, CLASSES as u64), (43, CLASSES as u64 + 4)] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            for len in 1..=4096usize {
                route_lands_stably(len, most, &mut rng);
            }
        }
    }

    /// [`class_route_lands_every_record_at_its_stable_rank_without_collisions`]
    /// at `len`, on keys below a draw from `1..=most`.
    fn route_lands_stably(len: usize, most: u64, rng: &mut rand::rngs::SmallRng) {
        use rand::Rng;
        let order = [Order::Ascending, Order::Descending][len % 2];
        let top = rng.gen_range(1..=most);
        let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..top)).collect();
        let totals = Tally::of(keys.iter().copied());
        let mut seen = [0; CLASSES + 1];
        // (position, destination, class) of every record.
        let mut records: Vec<(usize, usize, usize)> = (keys.iter().enumerate())
            .map(|(home, &key)| {
                let class = Tally::class(key);
                let rank = seen[class];
                seen[class] += 1;
                let dest = destination(
                    &Classes {
                        totals,
                        class,
                        rank,
                    },
                    order,
                );
                (home, dest, class)
            })
            .collect();
        let mut stable: Vec<usize> = (0..len).collect();
        let width = crate::levels_for(len) as u32;
        let class = |home: usize| Tally::class(keys[home]) as u64;
        stable.sort_unstable_by_key(|&home| order.pack(class(home), home, width));
        for (rank, &home) in stable.iter().enumerate() {
            assert_eq!(records[home].1, rank, "len={len}: home {home}");
        }
        let what = format!("len={len} {order:?} {} classes", totals.classes());
        let mut at = vec![usize::MAX; len * (CLASSES + 1)];
        for bit in 0..route_rounds_for(len) as usize {
            let (mut sent, mut heard) = (vec![0; len], vec![0; len]);
            for (x, dest, class) in &mut records {
                if dest.abs_diff(*x) >> bit & 1 == 1 {
                    sent[*x] += 1;
                    *x = if *dest > *x {
                        *x + (1 << bit)
                    } else {
                        *x - (1 << bit)
                    };
                    heard[*x] += 1;
                }
                let slot = &mut at[*x * (CLASSES + 1) + *class];
                assert_ne!(*slot, bit, "{what}: class {class} meets at {x}");
                *slot = bit;
            }
            let most = sent.iter().chain(&heard).max().copied().unwrap_or(0);
            assert!(most <= totals.classes(), "{what}: {most} a round");
        }
        assert!(records.iter().all(|&(x, dest, _)| x == dest), "{what}");
    }

    /// Keyed runs of the first sort on both engines and in both orders,
    /// strict at the capacity floor, 4: with four classes or fewer, the
    /// overflow one of them, the route is chosen, and the network over
    /// the overflow's window after it — at the head descending, at the
    /// tail ascending — where the two are no longer than the network over
    /// the whole path; with more classes, or a window longer than
    /// `2^(⌈log₂ n⌉ - 1)`, that network. Either way position `x` holds the
    /// rank-`x` record of a sequential stable sort by key, ties by home,
    /// in [`first_rounds_for`] rounds past the establishment.
    #[test]
    fn class_sort_equals_a_stable_sort_on_both_engines() {
        use dgr_ncc::EngineKind;
        // (n, classes below the overflow, overflow records, routed).
        for (n, classes, k, routed) in [
            (1, 1, 0, true),
            (2, 2, 0, true),
            (3, 3, 0, true),
            (17, 4, 0, true),
            (64, 4, 0, true),
            (100, 2, 0, true),
            (300, 4, 0, true),
            (77, 6, 0, false),
            (2, 1, 1, true),
            (64, 3, 1, true),
            (64, 3, 2, true),
            (100, 3, 5, true),
            (300, 3, 100, true),
            // A window of 2^(⌈log₂ n⌉ - 1): as long as the network.
            (64, 3, 32, true),
            // Longer: the network over the whole path.
            (100, 2, 70, false),
        ] {
            let net = Network::new(n, Config::ncc0(n as u64 + 3).with_capacity_factor(0.01));
            let ids = net.ids_in_path_order();
            // Positions spread over the path hold the overflow's keys,
            // 8 to 16, ties among them from ten on.
            let keys: HashMap<NodeId, u64> = (ids.iter().enumerate())
                .map(|(x, &id)| {
                    let overflow = (x * 7 + 3) % n < k;
                    (
                        id,
                        if overflow {
                            8 + (x * 5 % 9) as u64
                        } else {
                            id * 13 % classes
                        },
                    )
                })
                .collect();
            let in_path_order = || ids.iter().map(|id| keys[id]);
            assert_eq!(Tally::of(in_path_order()).0[CLASSES] as usize, k, "n={n}");
            for order in [Order::Ascending, Order::Descending] {
                let what = format!("n={n} k={k} {order:?}");
                let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                    let run = net.run_protocol_on(engine, None, None, |s| {
                        let key = keys[&s.id];
                        WithCtx::keyed(key, move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                            SortStep::by_class(ctx, key, order, rctx.id(), 0)
                        })
                    });
                    run.unwrap()
                });
                assert_eq!(runs[0].outputs, runs[1].outputs, "{what}");
                assert_eq!(runs[0].metrics, runs[1].metrics, "{what}");
                let m = &runs[0].metrics;
                assert!(m.is_clean(), "{what}: {:?}", m.violations);
                assert_eq!(m.capacity, 4);
                let sort = first_rounds_for(in_path_order(), m.capacity, 0);
                let want = if routed {
                    route_rounds_for(n) + rounds_for(k)
                } else {
                    rounds_for(n)
                };
                assert_eq!(sort, want, "{what}");
                assert_eq!(m.rounds - crate::ctx::rounds_for(n), sort, "{what}");
                let mut want: Vec<Held> = (ids.iter().enumerate())
                    .map(|(home, &id)| Held {
                        key: keys[&id],
                        origin: id,
                        home,
                    })
                    .collect();
                want.sort_by_key(|h| order.pack(h.key, h.home, crate::levels_for(n) as u32));
                let got: Vec<Held> = runs[0].outputs.iter().map(|(_, h)| h.unwrap()).collect();
                assert_eq!(got, want, "{what}");
            }
        }
    }

    /// Losing the class route's first round of moves leaves the positions
    /// those records were bound for empty at the end: a typed panic, the
    /// same on both engines — never a wrong order.
    #[test]
    fn a_lost_route_message_panics_its_position() {
        use dgr_ncc::{EngineKind, Scenario, SimError};
        let n = 64;
        let lost = crate::ctx::rounds_for(n);
        let scenario = Scenario::new(5).drop_messages(lost..=lost, 1.0);
        let net = Network::new(n, Config::ncc0(3).with_scenario(scenario));
        let key = |id: NodeId| id % 3;
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run = net.run_protocol_on(engine, None, None, |s| {
                WithCtx::keyed(key(s.id), move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    SortStep::by_class(ctx, key(rctx.id()), Order::Descending, rctx.id(), 0)
                })
            });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        assert_eq!(
            messages[0],
            "message loss: a position missed its record in the class route"
        );
    }

    /// Losing the first round of comparator exchanges — of the network
    /// over the overflow's window after the class route (n = 64, four
    /// keys past 7, descending), and of the network over the whole path
    /// on an unkeyed context — leaves the positions of that round's
    /// comparators without their partners' records: a typed panic, the
    /// same on both engines.
    #[test]
    fn a_lost_comparator_exchange_panics_its_position() {
        use dgr_ncc::{EngineKind, Scenario, SimError};
        let n = 64;
        let establish = crate::ctx::rounds_for(n);
        for (keyed, lost) in [(true, establish + route_rounds_for(n)), (false, establish)] {
            let scenario = Scenario::new(5).drop_messages(lost..=lost, 1.0);
            let net = Network::new(n, Config::ncc0(3).with_scenario(scenario));
            let ids = net.ids_in_path_order();
            let keys: HashMap<NodeId, u64> = (ids.iter().enumerate())
                .map(|(x, &id)| {
                    (
                        id,
                        if x % 16 == 5 {
                            9 + x as u64 % 3
                        } else {
                            id % 3
                        },
                    )
                })
                .collect();
            let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                let run = net.run_protocol_on(engine, None, None, |s| {
                    let key = keys[&s.id];
                    let make = move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        SortStep::by_class(ctx, key, Order::Descending, rctx.id(), 0)
                    };
                    if keyed {
                        WithCtx::keyed(key, make)
                    } else {
                        WithCtx::new(make)
                    }
                });
                match run {
                    Err(SimError::NodePanic { message, .. }) => message,
                    other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
                }
            });
            assert_eq!(messages[0], messages[1], "keyed={keyed}: engines");
            assert_eq!(
                messages[0], "message loss: a position missed its comparator partner's record",
                "keyed={keyed}"
            );
        }
    }

    /// A random group phase over `live ≤ len` records whose first `top`
    /// held the top need — `top` a multiple of the stride where `exact`,
    /// so that no record at the top need trails the groups — and the needs
    /// held at ranks `[0, live)` after it: each head's 0, each member's
    /// top less one, every later need drawn below the top, non-increasing.
    fn random_phase(
        len: usize,
        exact: bool,
        rng: &mut rand::rngs::SmallRng,
    ) -> (Regroup, Vec<u64>) {
        use rand::Rng;
        let live = rng.gen_range(2..=len);
        let stride = rng.gen_range(2..=live);
        let groups = rng.gen_range(1..=live / stride);
        let span = groups * stride;
        let top = match exact {
            true => span,
            false => rng.gen_range(span..=(span + stride - 1).min(live)),
        };
        let delta = stride as u64 - 1;
        let mut later: Vec<u64> = (top..live).map(|_| rng.gen_range(0..delta)).collect();
        later.sort_unstable_by(|a, b| b.cmp(a));
        let grouped = (0..top).map(|x| match (x < span, x % stride) {
            (true, 0) => 0,
            (true, _) => delta - 1,
            (false, _) => delta,
        });
        let needs = grouped.chain(later).collect();
        let phase = Regroup {
            live,
            stride,
            groups,
            top,
        };
        (phase, needs)
    }

    /// The ranks of a stable re-sort of `needs` — held at ranks `[0,
    /// live)` after `phase` — by need, non-increasing: the survivors'
    /// ranks in the order they land, every head left out.
    fn stable_resort(phase: &Regroup, needs: &[u64]) -> Vec<usize> {
        let leaves = |x: usize| x < phase.span() && x.is_multiple_of(phase.stride);
        let mut ranks: Vec<usize> = (0..phase.live).filter(|&x| !leaves(x)).collect();
        ranks.sort_by_key(|&x| std::cmp::Reverse(needs[x]));
        ranks
    }

    /// The route of [`SortStep::regroup`], replayed sequentially at every
    /// path length from 2 to 600 on random group phases, with no record
    /// at the top need past the groups (`t = 0`) and with some: every
    /// survivor's closed-form rank is its rank in a stable re-sort by the
    /// new needs, every head's record leaves, every record lands there in
    /// [`route_rounds_for`] rounds, no two records of one stream — the
    /// tail still at the top need, and everything else — ever share a
    /// position, and no position sends or receives more records a round
    /// than the route has streams.
    #[test]
    fn regroup_route_lands_every_record_at_its_stable_rank_without_collisions() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(47);
        for len in 2..=600usize {
            for draw in 0..8 {
                let (phase, needs) = random_phase(len, draw % 2 == 0, &mut rng);
                let what = format!("len={len} {phase:?}");
                let mut records = Vec::new();
                for (rank, &x) in stable_resort(&phase, &needs).iter().enumerate() {
                    assert_eq!(phase.rank(x), Some(rank), "{what}: rank {x}");
                    let stream = usize::from((phase.span()..phase.top).contains(&x));
                    records.push((x, rank, stream));
                }
                assert_eq!(records.len(), phase.live - phase.groups, "{what}");
                let streams = phase.streams();
                assert_eq!(streams, 1 + usize::from(phase.top > phase.span()));
                let mut at = vec![usize::MAX; 2 * len];
                for bit in 0..route_rounds_for(len) as usize {
                    let (mut sent, mut heard) = (vec![0; len], vec![0; len]);
                    for (x, dest, stream) in &mut records {
                        if dest.abs_diff(*x) >> bit & 1 == 1 {
                            sent[*x] += 1;
                            *x = if *dest > *x {
                                *x + (1 << bit)
                            } else {
                                *x - (1 << bit)
                            };
                            heard[*x] += 1;
                        }
                        let slot = &mut at[*x * 2 + *stream];
                        assert_ne!(*slot, bit, "{what}: stream {stream} meets at {x}");
                        *slot = bit;
                    }
                    let most = sent.iter().chain(&heard).max().copied().unwrap_or(0);
                    assert!(most <= streams, "{what}: {most} a round");
                }
                assert!(records.iter().all(|&(x, dest, _)| x == dest), "{what}");
            }
        }
    }

    /// [`SortStep::regroup`] on both engines at every path length from 2
    /// to 600, strict at the capacity floor, 4, on a random group phase a
    /// length, alternately with and without records at the top need past
    /// the groups: the route runs, in [`route_rounds_for`] rounds past the
    /// establishment; position `y` ends holding the record of rank `y` in
    /// a stable re-sort by the new needs, its home the rank it held, and
    /// every position from `live - groups` on — the heads' and the vacant
    /// ones — holds nothing. At every seventh length the same phase runs
    /// again with three messages a node a round beside it: where the tail
    /// at the top need is a second stream the capacity no longer takes
    /// the route, the merge lane runs in [`merge_rounds_for`] rounds, and
    /// every position ends holding the same record.
    #[test]
    fn regroup_equals_a_stable_resort_on_both_engines() {
        use dgr_ncc::EngineKind;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(48);
        for n in 2..=600usize {
            let (phase, needs) = random_phase(n, n % 2 == 0, &mut rng);
            let net = Network::new(n, Config::ncc0(n as u64).with_capacity_factor(0.01));
            let ids = net.ids_in_path_order();
            let mut want = vec![None; n];
            for (rank, x) in stable_resort(&phase, &needs).into_iter().enumerate() {
                want[rank] = Some(Held {
                    key: needs[x],
                    origin: ids[x],
                    home: x,
                });
            }
            let besides: &[usize] = if n % 7 == 0 { &[0, 3] } else { &[0] };
            for &beside in besides {
                let what = format!("n={n} {phase:?} beside {beside}");
                let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                    let needs = needs.clone();
                    let run = net.run_protocol_on(engine, None, None, move |_| {
                        let needs = needs.clone();
                        WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                            let x = ctx.position;
                            let held = needs.get(x).map(|&key| Held {
                                key,
                                origin: rctx.id(),
                                home: x,
                            });
                            let contacts = ctx.contacts.clone();
                            SortStep::regroup(ctx.vp, contacts, x, held, phase, beside)
                        })
                    });
                    run.unwrap()
                });
                assert_eq!(runs[0].outputs, runs[1].outputs, "{what}");
                assert_eq!(runs[0].metrics, runs[1].metrics, "{what}");
                let m = &runs[0].metrics;
                assert!(m.is_clean(), "{what}: {:?}", m.violations);
                assert_eq!(m.capacity, 4, "{what}");
                let routes = phase.routes(m.capacity, beside);
                assert_eq!(routes, beside == 0 || phase.top == phase.span(), "{what}");
                let lane = regroup_rounds_for(n, &phase, m.capacity, beside);
                let want_lane = match routes {
                    true => route_rounds_for(n),
                    false => merge_rounds_for(n, phase.groups),
                };
                assert_eq!(lane, want_lane, "{what}");
                assert_eq!(m.rounds - crate::ctx::rounds_for(n), lane, "{what}");
                for (y, (_, held)) in runs[0].outputs.iter().enumerate() {
                    assert_eq!(*held, want[y], "{what}: position {y}");
                }
                let vacant = &runs[0].outputs[phase.live - phase.groups..];
                assert!(vacant.iter().all(|(_, held)| held.is_none()), "{what}");
            }
        }
    }

    /// Losing the regroup route's first round of moves leaves the
    /// positions those records were bound for empty at the end: a typed
    /// panic, the same on both engines — never a wrong order.
    #[test]
    fn a_lost_regroup_route_message_panics_its_position() {
        use dgr_ncc::{EngineKind, Scenario, SimError};
        let n = 64;
        let lost = crate::ctx::rounds_for(n);
        let scenario = Scenario::new(5).drop_messages(lost..=lost, 1.0);
        let net = Network::new(n, Config::ncc0(3).with_scenario(scenario));
        // Ten groups of three at need 2, then a tail of two still at 2.
        let phase = Regroup {
            live: n,
            stride: 3,
            groups: 10,
            top: 32,
        };
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run = net.run_protocol_on(engine, None, None, |_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let x = ctx.position;
                    let key = match x < phase.span() {
                        true => u64::from(!x.is_multiple_of(3)),
                        false => 2 - u64::from(x >= phase.top),
                    };
                    let held = Held {
                        key,
                        origin: rctx.id(),
                        home: x,
                    };
                    let contacts = ctx.contacts.clone();
                    SortStep::regroup(ctx.vp, contacts, x, Some(held), phase, 0)
                })
            });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        assert_eq!(
            messages[0],
            "message loss: a position missed its record in the regroup route"
        );
    }

    /// Losing the first round of compaction moves of the merge lane — a
    /// regroup whose top key fills no group — leaves positions below the
    /// survivors' count empty when the compaction ends: a typed panic in
    /// that round, the same on both engines — never a comparator without a
    /// record a stage later.
    #[test]
    fn a_lost_compaction_move_panics_its_position() {
        use dgr_ncc::{EngineKind, Scenario, SimError};
        let n = 64;
        let lost = crate::ctx::rounds_for(n);
        let scenario = Scenario::new(5).drop_messages(lost..=lost, 1.0);
        let net = Network::new(n, Config::ncc0(3).with_scenario(scenario));
        let phase = Regroup {
            live: n,
            stride: 3,
            groups: 10,
            top: 0,
        };
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run = net.run_protocol_on(engine, None, None, |_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    // Equal keys: every run is in (key, home) order.
                    let held = Held {
                        key: 0,
                        origin: rctx.id(),
                        home: ctx.position,
                    };
                    let (vp, contacts) = (ctx.vp, ctx.contacts.clone());
                    SortStep::regroup(vp, contacts, ctx.position, Some(held), phase, 0)
                })
            });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        assert_eq!(
            messages[0],
            "message loss: a position missed its record in the merge's compaction"
        );
    }

    #[test]
    fn theorem3_rounds_are_polylog() {
        // O(log² n): stage count for n=1024 is 10*11/2 = 55.
        assert_eq!(stage_count(1024), 55);
        assert_eq!(stage_count(1), 0);
        // Sub-quadratic growth in log n.
        assert!(stage_count(1 << 16) <= 16 * 17 / 2);
    }

    #[test]
    fn stage_iter_walks_the_batcher_schedule() {
        for len in 0..80 {
            let got: Vec<_> = StageIter::new(len).collect();
            // One merge pass of 1, 2, …, levels stages per doubling of p.
            let levels = crate::levels_for(len);
            assert_eq!(got.len(), levels * (levels + 1) / 2, "len={len}");
            // The schedule is (p, k) with p doubling and k halving from p.
            for w in got.windows(2) {
                let ((p0, k0), (p1, k1)) = (w[0], w[1]);
                if k0 > 1 {
                    assert_eq!((p1, k1), (p0, k0 / 2));
                } else {
                    assert_eq!((p1, k1), (2 * p0, 2 * p0));
                }
            }
        }
    }
}
