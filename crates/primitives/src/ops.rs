//! The global sweep over a path's contacts: broadcast and distributive
//! aggregation (Theorem 4).
//!
//! [`SweepStep`] folds every member's contribution toward position 0 and
//! pushes the total back, so every member learns it. A contribution is
//! what one message holds: up to [`WIRE_WORDS`] data words under one
//! [`Fold`], and the (at most one) held address, which travels in the
//! *address* field so KT0 tracking sees every node legitimately learn the
//! ID. Independent aggregations of one path share a sweep instead of
//! paying one each: "leader `ℓ` broadcasts a token" without anyone knowing
//! where `ℓ` sits is a fold over the (at most one) held value, and
//! Corollary 2's median is the address-only sweep of the node at position
//! `(len - 1) / 2`.
//!
//! The paper sweeps a balanced binary search tree (Theorem 1). The sweep
//! here is a **shallow spanning tree over the contact table** instead
//! (ARCHITECTURE.md, *Deviations from the paper*), rooted at position 0.
//! Every position is a sum of signed powers of two, and its non-adjacent
//! form (NAF, Reitwiesner's: no two adjacent digits nonzero) has the
//! fewest nonzero digits. Position `x > 0` hangs below `x` less its
//! lowest NAF digit `±2^j` — its `2^j`-behind or `2^j`-ahead contact,
//! whose NAF is a prefix of `x`'s — so it sits as deep as its NAF has
//! digits, at most `⌈L/2⌉` for `L = ⌈log₂ len⌉` — unless a high-to-low
//! partial sum of its NAF reaches past the path. Those positions are a
//! suffix of the path, and each hangs below `x - 2^(L-1)` as a leaf, a
//! *spare*. So the tree is at most `⌈L/2⌉ + 1` deep (7 at `len = 2048`,
//! where the binomial tree over the same contacts is 11), which is the
//! eccentricity of position 0 over the contacts at every power of two up
//! to 4096.
//!
//! Each half of the sweep takes the tree's depth in rounds
//! ([`broadcast_rounds_for`]). A spare sends its fold up in reduce round
//! 0; any other position whose lowest digit is `±2^j`, in round `⌊j/2⌋`,
//! or a round later when its parent's subtree (for a child of the root,
//! its own) holds a spare's parent. So a node's children on levels `2r` and
//! `2r + 1` report together, at most four a round, every child before its
//! parent; the broadcast mirrors the reduce, the total going down to a
//! child in the round that mirrors its report. A sweep costs `2(len - 1)`
//! messages, and no node sends or receives more than four of them a
//! round — but where it runs paced (below).
//!
//! **Paced.** The steps that run beside a sweep take up to two messages a
//! node a round of their own ([`BESIDE`]: the degree core's lane and hop,
//! the trees' sort). Where the capacity cannot take the sweep's four
//! besides (`cap < 6`, from ten positions on: on shorter paths no node
//! hears more than two), the sweep is paced. A whole sweep then runs as a
//! **recursive doubling** (the butterfly allreduce) instead of the tree:
//! with `m = 2^⌊log₂ len⌋`, each position from `m` on first hands its
//! words to its contact `m` behind; round `i` of the doubling exchanges
//! each position's fold so far with its contact `2^i` away across bit `i`
//! of its position, so after `⌊log₂ len⌋` rounds every position below `m`
//! holds the total; then it goes back `m` ahead
//! ([`doubling_rounds_for`]: `⌈log₂ len⌉ + 1` rounds, 9 at `len = 192`
//! where the tree run one level a round took 14). Each round a node sends
//! and receives one sweep message, so the steps beside it keep three of
//! the capacity floor's four; the cost is messages, `⌊log₂ len⌋` a
//! position instead of two, which is why an unpaced sweep keeps the tree.
//! The folds are disjoint at every exchange, so no contribution counts
//! twice. A broadcast half alone (below) runs paced on the same tree one
//! level a round: a position whose lowest digit is `±2^j` hears in the
//! round that mirrors report round `j` — a child of the root round `j - 1`,
//! the root having one child a level — or a round later when late, as
//! above, and a spare round 0. Then no node sends more than two messages a
//! round, and the half takes at most `L` rounds (11 at `len = 2048`). Every
//! node knows the capacity, so the pace is common knowledge, fixed at the
//! sweep's first poll ([`Lockstep::sized`]).
//!
//! Each position derives its place — parent, children, rounds — from its
//! position, `len` and the pace in `O(log len)` word operations, with no
//! table. Every message is due in a known round, so a missing one is a
//! lost message, and it panics.
//!
//! A value that position 0 already holds needs only the broadcast half
//! ([`SweepStep::broadcast`]: [`broadcast_rounds_for`] rounds, `len - 1`
//! messages). The broadcast half also runs **released**
//! ([`SweepStep::released`]), for members that cannot know when it
//! starts: position 0 starts it when a [`tags::RELEASE`] message reaches
//! it, and every other member, waiting, places itself in the schedule by
//! the round its parent's total arrives, which its own report round
//! fixes. So every member is ready in the same round, the depth after the
//! root heard, and a member that has not heard by its deadline has lost a
//! message, and panics.

use crate::contacts::ContactTable;
use crate::step::{Lockstep, Poll, Rounds};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireEnvelope, WireMsg, WIRE_WORDS};
use std::sync::Arc;

/// Number of rounds for a sweep on a path of `len` nodes at per-round
/// capacity `cap`: the reduce and the broadcast, [`broadcast_rounds_for`]
/// each — the Theorem 4 `O(log n)` bound made concrete — or, paced, the
/// recursive doubling's [`doubling_rounds_for`].
pub fn rounds_for(len: usize, cap: usize) -> u64 {
    let tree = Tree::new(len, cap);
    match tree.paced {
        true => doubling_rounds_for(len),
        false => 2 * tree.rounds as u64,
    }
}

/// Number of rounds of the recursive doubling a paced sweep runs on a path
/// of `len` nodes: a round a bit of `m = 2^⌊log₂ len⌋`, and where `len`
/// is not a power of two a round ahead for the positions from `m` on to
/// hand their words `m` behind and one after for the total to come back
/// — `⌈log₂ len⌉ + 1` (9 at `len = 192`), `⌈log₂ len⌉` at a power of two.
pub fn doubling_rounds_for(len: usize) -> u64 {
    let bits = len.max(1).ilog2() as u64;
    bits + 2 * u64::from(!len.max(1).is_power_of_two())
}

/// Number of rounds for the broadcast half alone on a path of `len`
/// nodes at per-round capacity `cap`, [`SweepStep::broadcast`]'s: the
/// sweep tree's depth, at most `⌈L/2⌉ + 1` and at most `L` for
/// `L = ⌈log₂ len⌉` — paced, at most `L` (the module docs).
pub fn broadcast_rounds_for(len: usize, cap: usize) -> u64 {
    Tree::new(len, cap).rounds as u64
}

/// Messages a node a round that a sweep leaves to the steps running beside
/// it: the degree core's lane and its hop (multicast or status), the
/// trees' sort.
pub const BESIDE: usize = 2;

/// Messages a node a round that a sweep on a path of `len` nodes and the
/// steps beside it ([`BESIDE`]) take at capacity `cap`.
pub fn load(len: usize, cap: usize) -> usize {
    sweep_load(len, cap) + BESIDE
}

/// Messages a node a round that a sweep on a path of `len` nodes takes at
/// capacity `cap`: four, or two where the path is under ten positions, or
/// one where it runs paced, as a recursive doubling.
pub fn sweep_load(len: usize, cap: usize) -> usize {
    let tree = Tree::new(len, cap);
    if tree.paced {
        1
    } else {
        tree.load
    }
}

/// A contact of the sweep tree: its level `j` and whether it sits `2^j`
/// ahead (else `2^j` behind).
type Link = (usize, bool);

/// The lowest set bit of `y`: the magnitude of its lowest NAF digit.
fn lowest(y: usize) -> usize {
    y & y.wrapping_neg()
}

/// The levels below `k`, as a mask.
fn below(k: usize) -> u64 {
    1u64.checked_shl(k as u32).map_or(u64::MAX, |bit| bit - 1)
}

/// The sweep tree over a path of `len` positions (the module docs).
#[derive(Clone, Copy, Debug)]
struct Tree {
    len: usize,
    /// `⌈log₂ len⌉`.
    levels: usize,
    /// The first spare: from here on a position's NAF has a partial sum of
    /// `len` or more; `len` when none has.
    far: usize,
    /// Whether the sweep runs one level a round (the module docs).
    paced: bool,
    /// The most sweep messages a node sends or receives in a round.
    load: usize,
    /// The rounds of each half of the sweep: the root's report round.
    rounds: usize,
}

impl Tree {
    fn new(len: usize, cap: usize) -> Self {
        let levels = crate::levels_for(len);
        // The least position with a partial sum `p ≥ len` is `p` less the
        // longest negative tail below `p`'s lowest digit, `lowest(p) / 3`;
        // among the `p` that end on level `t` or above, the first multiple
        // of `2^t` from `len` on gives the least.
        let far = (0..=levels)
            .map(|t| {
                let p = (len + (1 << t) - 1) & !((1 << t) - 1);
                p - lowest(p) / 3
            })
            .fold(len, usize::min);
        // Below ten positions no node hears more than two in a round.
        let unpaced = if len < 10 { 2 } else { 4 };
        let paced = unpaced + BESIDE > cap;
        let mut tree = Tree {
            len,
            levels,
            far,
            paced,
            load: if paced { 2 } else { unpaced },
            rounds: 0,
        };
        // The root's children `2^j` report in round `⌊j/2⌋` (paced,
        // `j - 1`) or one later, so one of the top two reports last.
        let top = levels.saturating_sub(2)..levels;
        tree.rounds = top.map(|j| tree.round(1 << j) + 1).max().unwrap_or(0);
        tree
    }

    /// `2^(L-1)`, the offset of a spare from its parent.
    fn half(&self) -> usize {
        1 << (self.levels - 1)
    }

    /// Whether the subtree of `y > 0`, which spans `lowest(y) / 3` either
    /// side of it, holds a spare's parent: a position from
    /// `far - 2^(L-1)` up to `len - 2^(L-1)`.
    fn late(&self, y: usize) -> bool {
        let reach = lowest(y) / 3;
        self.far < self.len
            && y + reach + self.half() >= self.far
            && y - reach + self.half() < self.len
    }

    /// The parent of position `x > 0`, and the link to it.
    fn parent(&self, x: usize) -> (usize, Link) {
        if x >= self.far {
            return (x - self.half(), (self.levels - 1, false));
        }
        let low = lowest(x);
        let level = low.ilog2() as usize;
        match x & (low << 1) == 0 {
            // The lowest digit is `+2^level`.
            true => (x - low, (level, false)),
            false => (x + low, (level, true)),
        }
    }

    /// The reduce round position `x > 0` sends its fold up in.
    fn round(&self, x: usize) -> usize {
        if x >= self.far {
            return 0;
        }
        let (p, _) = self.parent(x);
        let late = usize::from(self.late(if p == 0 { x } else { p }));
        let level = lowest(x).ilog2() as usize;
        match (self.paced, p) {
            (false, _) => level / 2 + late,
            (true, 0) => level.max(1) - 1 + late,
            (true, _) => level + late,
        }
    }

    /// Position `x`'s place in the tree.
    fn place(&self, x: usize) -> Place {
        let paced = self.paced;
        if x == 0 {
            let late = (0..self.levels).filter(|&j| self.late(1 << j));
            return Place {
                parent: None,
                up: self.rounds,
                kids: [0, below(self.levels)],
                late: late.fold(0, |mask, j| mask | 1 << j),
                spare: None,
                paced,
            };
        }
        let (_, link) = self.parent(x);
        let up = self.round(x);
        if x >= self.far {
            return Place {
                parent: Some(link),
                up,
                kids: [0; 2],
                late: 0,
                spare: None,
                paced,
            };
        }
        // The children extend `x`'s NAF by a digit `±2^j`, `j` at least two
        // levels below its lowest; those ahead must stay short of `far`.
        let levels = below((lowest(x).ilog2() as usize).saturating_sub(1));
        let room = self.far - x - 1;
        let reach = room.checked_ilog2().map_or(0, |j| below(j as usize + 1));
        let spare = x + self.half();
        Place {
            parent: Some(link),
            up,
            kids: [levels, levels & reach],
            late: if self.late(x) { u64::MAX } else { 0 },
            spare: (self.far..self.len)
                .contains(&spare)
                .then_some(self.levels - 1),
            paced,
        }
    }
}

/// One position's place in the sweep tree.
#[derive(Clone, Copy, Debug, Default)]
struct Place {
    /// The link to the parent; `None` at the root.
    parent: Option<Link>,
    /// The reduce round this position's fold goes up in; at the root the
    /// rounds of the reduce, which ends then.
    up: usize,
    /// The children's levels, `2^j` behind (`kids[0]`) and ahead
    /// (`kids[1]`), bit `j`; a spare child is apart.
    kids: [u64; 2],
    /// The levels whose children report a round late.
    late: u64,
    /// The level of the spare child `2^(L-1)` ahead, if any; it reports in
    /// the tree's round 0.
    spare: Option<usize>,
    /// Whether the tree runs one level a round.
    paced: bool,
}

impl Place {
    /// The children that report in reduce round `round`: those on levels
    /// `2 round` and `2 round + 1`, or a level pair lower when late —
    /// paced, on level `round`, or one lower when late (at the root, one
    /// level higher: levels 0 and 1 in round 0).
    fn kids_in(self, round: usize) -> impl Iterator<Item = Link> {
        let shift = usize::from(self.parent.is_none());
        let on_time = |r: usize| match (self.paced, r) {
            (false, _) => 3u64.checked_shl(2 * r as u32).unwrap_or(0),
            (true, 0) => below(shift + 1),
            (true, _) => 1u64.checked_shl((r + shift) as u32).unwrap_or(0),
        };
        let late = round.checked_sub(1).map_or(0, on_time);
        let due = on_time(round) & !self.late | late & self.late;
        let spare = self.spare.filter(|_| round == 0).map(|j| (j, true));
        [false, true]
            .into_iter()
            .flat_map(move |ahead| {
                let mut levels = self.kids[usize::from(ahead)] & due;
                std::iter::from_fn(move || {
                    let low = levels & levels.wrapping_neg();
                    levels ^= low;
                    (low != 0).then(|| (low.ilog2() as usize, ahead))
                })
            })
            .chain(spare)
    }
}

/// The data words of one sweep message; a sweep of `k` lanes uses the
/// first `k` and leaves the rest zero.
pub type Words = [u64; WIRE_WORDS];

/// Folds another subtree's words into an accumulator. Must be associative
/// and commutative (lanes may be coupled: "maximum, and how many hold
/// it"), since the tree fixes neither the grouping nor the order.
pub type Fold = fn(&mut Words, &Words);

/// What a sweep hands every member (non-members get the default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Swept {
    /// The fold of every member's words.
    pub words: Words,
    /// The smallest address any member held, if any did.
    pub addr: Option<NodeId>,
}

impl Swept {
    fn new(words: &[u64], addr: Option<NodeId>) -> Self {
        let mut padded = [0; WIRE_WORDS];
        padded[..words.len()].copy_from_slice(words);
        Swept {
            words: padded,
            addr,
        }
    }

    fn of(msg: &WireMsg) -> Self {
        Swept::new(msg.words_slice(), msg.addrs_slice().first().copied())
    }
}

/// The reduce and broadcast over the sweep tree (Theorem 4) — paced, the
/// recursive doubling (the module docs) — as a [`Step`](crate::Step).
///
/// Rounds: exactly [`rounds_for`]`(vp.len, cap)` at the network's capacity
/// `cap`, whatever the width: the lanes are one message's data words (more
/// than [`Config::max_words`](dgr_ncc::Config::max_words) of them is a
/// `MessageTooLarge` violation), the address rides the address field.
pub type SweepStep = Lockstep<Sweep>;

/// [`SweepStep`]'s member rounds: the reduce, then the broadcast — or
/// the broadcast alone.
#[derive(Debug)]
pub struct Sweep {
    contacts: Arc<ContactTable>,
    len: usize,
    position: usize,
    /// The rounds of each half, fixed at the first poll with the place.
    depth: usize,
    place: Place,
    /// Whether a whole sweep runs paced, as a recursive doubling; fixed at
    /// the first poll.
    doubling: bool,
    lanes: usize,
    /// The reduce's fold; `None` for the broadcast half alone.
    fold: Option<Fold>,
    /// The poll in which the root sends the broadcast's first round;
    /// `None` until a released broadcast has reached this member.
    start: Option<usize>,
    /// This subtree's fold so far; the total once the broadcast is in.
    acc: Swept,
}

impl SweepStep {
    /// Builds the step at `position` of `vp`, over the path's `contacts`;
    /// `words` (one per lane, the same count at every node) and `addr` are
    /// this node's contribution.
    ///
    /// # Panics
    ///
    /// Panics if more than [`WIRE_WORDS`] words are given.
    pub fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        words: &[u64],
        addr: Option<NodeId>,
        fold: Fold,
    ) -> Self {
        let sweep = Sweep::new(vp, contacts, position, words, addr, Some(fold), None);
        Lockstep::sized(vp.member, sweep)
    }

    /// The broadcast half alone: position 0's `words` and `addr` reach
    /// every member (rounds: exactly
    /// [`broadcast_rounds_for`]`(vp.len, cap)`, `len - 1` messages). The
    /// other members' words only give the lane count.
    pub fn broadcast(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        words: &[u64],
        addr: Option<NodeId>,
    ) -> Self {
        let sweep = Sweep::new(vp, contacts, position, words, addr, None, Some(0));
        Lockstep::sized(vp.member, sweep)
    }

    /// The broadcast half, released: position 0 broadcasts the words and
    /// address of the first [`tags::RELEASE`] message it receives, from
    /// anyone; every other member waits for its parent's total. Every
    /// member is ready [`broadcast_rounds_for`]`(vp.len, cap)` rounds after
    /// the root received the release, so all in one round; a member not ready
    /// by poll `deadline` panics ("message loss: a node missed the
    /// release").
    pub fn released(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        deadline: u64,
    ) -> Self {
        let sweep = Sweep::new(vp, contacts, position, &[], None, None, None);
        Lockstep::until(deadline, sweep)
    }
}

impl Sweep {
    /// The sweep at `position`, its broadcast starting at poll `start`;
    /// its place waits for the capacity ([`Rounds::budget`]).
    fn new(
        vp: VPath,
        contacts: Arc<ContactTable>,
        position: usize,
        words: &[u64],
        addr: Option<NodeId>,
        fold: Option<Fold>,
        start: Option<usize>,
    ) -> Self {
        Sweep {
            contacts,
            len: vp.len,
            position,
            depth: 0,
            place: Place::default(),
            doubling: false,
            lanes: words.len(),
            fold,
            start,
            acc: Swept::new(words, addr),
        }
    }

    /// The message carrying `value` under `tag`.
    fn msg(&self, tag: u16, value: &Swept) -> WireMsg {
        let msg = WireMsg::words(tag, &value.words[..self.lanes]);
        value.addr.map_or(msg, |a| msg.with_addr(a))
    }

    /// The `tag` message `from` sent last round; its absence is a lost
    /// message. A repeated message is the same message: the first stands.
    fn received<'a>(ctx: &'a RoundCtx<'_>, tag: u16, from: NodeId, loss: &str) -> &'a WireEnvelope {
        Self::heard(ctx, tag, Some(from)).unwrap_or_else(|| panic!("message loss: {loss}"))
    }

    /// The first `tag` message in the inbox, from `from` or, when `None`,
    /// from anyone.
    fn heard<'a>(
        ctx: &'a RoundCtx<'_>,
        tag: u16,
        from: Option<NodeId>,
    ) -> Option<&'a WireEnvelope> {
        ctx.inbox()
            .iter()
            .find(|e| e.msg.tag == tag && from.is_none_or(|f| e.src == f))
    }

    /// The contact on `link`, inside the path.
    fn contact(&self, (level, ahead): Link) -> NodeId {
        self.contacts
            .at_offset(level, ahead)
            .expect("a sweep tree link inside the path")
    }

    /// Folds another member's words and address into this one's.
    fn absorb(&mut self, theirs: Swept) {
        let fold = self.fold.expect("a reduce has a fold");
        fold(&mut self.acc.words, &theirs.words);
        self.acc.addr = [self.acc.addr, theirs.addr].into_iter().flatten().min();
    }

    /// Poll `t` of the paced whole sweep, a recursive doubling over the
    /// first `m = 2^⌊log₂ len⌋` positions (the module docs): a position
    /// from `m` on hands its words `m` behind in round 0 where `len` is not
    /// a power of two; then round `i` of the doubling exchanges the fold so
    /// far with the contact `2^i` away across bit `i`; then the total goes
    /// back `m` ahead. One message a node a round; a missing one is lost.
    fn poll_doubling(&mut self, t: usize, rounds: usize, ctx: &mut RoundCtx<'_>) -> Poll<Swept> {
        let (x, len) = (self.position, self.len);
        let bits = len.ilog2() as usize;
        let m = 1 << bits;
        let pre = usize::from(m < len);
        let partner = |i: usize| (i, x >> i & 1 == 0);
        let doubled = pre..pre + bits;
        if x < m {
            if pre == 1 && t == 1 && x + m < len {
                let loss = "a doubling position missed the words from past its half";
                let from = self.contact((bits, true));
                let theirs = Swept::of(&Self::received(ctx, tags::AGGREGATE, from, loss).msg);
                self.absorb(theirs);
            }
            if let Some(i) = t.checked_sub(1).filter(|i| doubled.contains(i)) {
                let loss = "a doubling position missed its partner's fold";
                let from = self.contact(partner(i - pre));
                let theirs = Swept::of(&Self::received(ctx, tags::AGGREGATE, from, loss).msg);
                self.absorb(theirs);
            }
        } else if t == rounds {
            let loss = "a position past the doubling's half missed the total";
            let from = self.contact((bits, false));
            self.acc = Swept::of(&Self::received(ctx, tags::BCAST, from, loss).msg);
        }
        if t == rounds {
            return Poll::Ready(self.acc);
        }
        if x >= m && t == 0 {
            ctx.send(
                self.contact((bits, false)),
                self.msg(tags::AGGREGATE, &self.acc),
            );
        } else if x < m && doubled.contains(&t) {
            let to = self.contact(partner(t - pre));
            ctx.send(to, self.msg(tags::AGGREGATE, &self.acc));
        } else if x + m < len && t == pre + bits {
            ctx.send(self.contact((bits, true)), self.msg(tags::BCAST, &self.acc));
        }
        Poll::Pending
    }

    /// A released broadcast at poll `t`: the release at the root, the
    /// parent's total elsewhere, fixes the start — the total reaches a
    /// child that reports in round `up` in the `depth - up`-th poll after
    /// it.
    fn hear_release(&mut self, t: usize, ctx: &RoundCtx<'_>) {
        let (tag, from) = match self.place.parent {
            Some(link) => (tags::BCAST, Some(self.contact(link))),
            None => (tags::RELEASE, None),
        };
        if let Some(env) = Self::heard(ctx, tag, from) {
            self.lanes = env.msg.words_slice().len();
            self.acc = Swept::of(&env.msg);
            self.start = Some(t - (self.depth - self.place.up));
        }
    }
}

impl Rounds for Sweep {
    type Out = Swept;

    /// The place at the network's capacity; a whole sweep's broadcast
    /// starts when its reduce ends. Budget: the broadcast's end, but a
    /// released one's deadline.
    fn budget(&mut self, ctx: &RoundCtx<'_>) -> Option<u64> {
        let tree = Tree::new(self.len, ctx.capacity());
        if tree.paced && self.fold.is_some() {
            self.doubling = true;
            return Some(doubling_rounds_for(self.len));
        }
        (self.depth, self.place) = (tree.rounds, tree.place(self.position));
        if self.fold.is_some() {
            self.start = Some(self.depth);
        }
        self.start.map(|start| (start + self.depth) as u64)
    }

    fn poll(&mut self, t: u64, rounds: u64, ctx: &mut RoundCtx<'_>) -> Poll<Swept> {
        if self.doubling {
            return self.poll_doubling(t as usize, rounds as usize, ctx);
        }
        let (t, depth, place) = (t as usize, self.depth, self.place);
        if self.fold.is_some() && (1..=place.up).contains(&t) {
            // Reduce round `t - 1`: the children that report in it.
            for kid in place.kids_in(t - 1) {
                let loss = "a reduce parent missed its child's aggregate";
                let from = self.contact(kid);
                let theirs = Swept::of(&Self::received(ctx, tags::AGGREGATE, from, loss).msg);
                self.absorb(theirs);
            }
        }
        match (self.start, place.parent) {
            (None, _) if t > 0 => self.hear_release(t, ctx),
            (Some(start), Some(parent)) if t == start + depth - place.up => {
                // The broadcast reached this position: the total.
                let loss = "a broadcast child missed its parent's total";
                let from = self.contact(parent);
                self.acc = Swept::of(&Self::received(ctx, tags::BCAST, from, loss).msg);
            }
            _ => {}
        }
        let Some(start) = self.start.filter(|&start| t >= start) else {
            if t as u64 == rounds {
                panic!("message loss: a node missed the release");
            }
            if let Some(parent) = place
                .parent
                .filter(|_| self.fold.is_some() && t == place.up)
            {
                ctx.send(self.contact(parent), self.msg(tags::AGGREGATE, &self.acc));
            }
            return Poll::Pending;
        };
        if t == start + depth {
            return Poll::Ready(self.acc);
        }
        // Broadcast round `t - start` mirrors reduce round
        // `depth - 1 - (t - start)`: the total goes down to the children
        // that reported in it.
        for kid in place.kids_in(depth - 1 - (t - start)) {
            ctx.send(self.contact(kid), self.msg(tags::BCAST, &self.acc));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::busiest::Busiest;
    use crate::{PathCtx, Step, WithCtx};
    use dgr_ncc::{
        CapacityPolicy, Config, EngineKind, Network, RunResult, Scenario, SimError, ViolationKind,
    };

    /// A fold with coupled lanes: maximum, how many hold it, or, sum.
    fn fold4(acc: &mut Words, x: &Words) {
        match x[0].cmp(&acc[0]) {
            std::cmp::Ordering::Greater => (acc[0], acc[1]) = (x[0], x[1]),
            std::cmp::Ordering::Equal => acc[1] += x[1],
            std::cmp::Ordering::Less => {}
        }
        acc[2] |= x[2];
        acc[3] += x[3];
    }

    /// A node's contribution to the four-lane sweeps below, derived from
    /// its (randomly assigned) ID; every fifth-or-so node holds an address.
    fn contribution(id: NodeId) -> (Words, Option<NodeId>) {
        let words = [id % 7, 1, 1 << (id % 64), id % 1000];
        (words, id.is_multiple_of(5).then_some(id))
    }

    /// What a sequential fold over `ids` gives.
    fn folded(ids: &[NodeId]) -> Swept {
        let (mut words, _) = contribution(ids[0]);
        for &id in &ids[1..] {
            fold4(&mut words, &contribution(id).0);
        }
        let addr = ids.iter().filter_map(|&id| contribution(id).1).min();
        Swept { words, addr }
    }

    /// The four-lane sweep of every node's [`contribution`].
    fn sweep4(ctx: &PathCtx, rctx: &mut RoundCtx<'_>) -> SweepStep {
        let (words, addr) = contribution(rctx.id());
        SweepStep::new(
            ctx.vp,
            ctx.contacts.clone(),
            ctx.position,
            &words,
            addr,
            fold4,
        )
    }

    /// The one-lane sweep of `value` under `fold`, or the address-only
    /// sweep of `addr` when `value` is `None`.
    fn sweep1(ctx: &PathCtx, value: Option<u64>, addr: Option<NodeId>, fold: Fold) -> SweepStep {
        let words: &[u64] = value.as_slice();
        SweepStep::new(
            ctx.vp,
            ctx.contacts.clone(),
            ctx.position,
            words,
            addr,
            fold,
        )
    }

    fn sum(acc: &mut Words, x: &Words) {
        acc[0] += x[0];
    }

    fn max(acc: &mut Words, x: &Words) {
        acc[0] = acc[0].max(x[0]);
    }

    fn min(acc: &mut Words, x: &Words) {
        acc[0] = acc[0].min(x[0]);
    }

    /// The sweep tree at every path length up to 4096, at 10⁵ and at 2¹⁷,
    /// at every capacity from 3 to 7 — both sides of the pace threshold
    /// `4 + BESIDE` and of the floor of 4: every parent is a power-of-two contact inside the
    /// path, and every child reports in a round before its parent's, in
    /// which the parent expects it over the reverse link — so the tree
    /// spans the path and has no cycle — and a parent expects no one else.
    /// No position hears from more than [`sweep_load`] children in one
    /// round: four, and more than two only from ten positions on; paced
    /// (below `2 + BESIDE`, and from ten positions on below `4 + BESIDE`),
    /// two. The deepest
    /// position is [`broadcast_rounds_for`] hops from position 0, at most
    /// `⌈L/2⌉ + 1` and at most `L`, and at every power of two that is
    /// position 0's eccentricity over the contacts. Paced, a half takes at
    /// most `L` rounds, the binomial tree's (11 at `len = 2048`).
    #[test]
    fn the_sweep_tree_is_shallow_and_spans_the_path() {
        for len in (1..=4096).chain([100_000, 1 << 17]) {
            let levels = crate::levels_for(len);
            let depth = broadcast_rounds_for(len, 4 + BESIDE) as usize;
            assert!(
                depth <= levels.div_ceil(2) + 1 && depth <= levels,
                "len={len}"
            );
            // The tree hangs on its pace alone, so each pace is spanned
            // once, unpaced in slot 0.
            let mut spanned: [Option<(usize, usize)>; 2] = [None; 2];
            for cap in 3..=7 {
                let tree = Tree::new(len, cap);
                let paced = cap < 2 + BESIDE || (len >= 10 && cap < 4 + BESIDE);
                assert_eq!(tree.paced, paced, "len={len} cap={cap}");
                let slot = &mut spanned[usize::from(paced)];
                let (_, most) = *slot.get_or_insert_with(|| spans(len, tree));
                let load = tree.load;
                assert!(most <= load, "len={len} cap={cap}: {most} > {load}");
                assert!(load <= 4 && (load > 2) == (len >= 10 && !paced));
                assert_eq!(sweep_load(len, cap) == 1, paced, "len={len} cap={cap}");
            }
            let (hops, most) = spanned[0].expect("capacity 7 runs unpaced");
            assert_eq!(hops, depth, "len={len}");
            assert_eq!(most > 2, len >= 10, "len={len}: {most}");
            let rounds = broadcast_rounds_for(len, 4) as usize;
            assert!(rounds <= levels, "len={len}: paced {rounds}");
            assert!(len != 2048 || rounds == 11, "len={len}: paced {rounds}");
            if len.is_power_of_two() && len <= 4096 {
                assert_eq!(eccentricity(len), depth, "len={len}");
            }
        }
    }

    /// Checks that `tree` spans the `len` positions, every child reporting
    /// before its parent and the root last, and returns the tree's depth in
    /// hops and the most children one position hears from in one round.
    fn spans(len: usize, tree: Tree) -> (usize, usize) {
        let levels = crate::levels_for(len);
        let places: Vec<Place> = (0..len).map(|x| tree.place(x)).collect();
        let at = |x: usize, (level, ahead): Link| {
            assert!(level < levels, "len={len} x={x}");
            let hop = if ahead {
                x.checked_add(1 << level)
            } else {
                x.checked_sub(1 << level)
            };
            hop.filter(|&y| y < len).expect("a link inside the path")
        };
        // Hops to position 0, filled in parent before child: the
        // report rounds strictly rise toward the root.
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by_key(|&x| std::cmp::Reverse(places[x].up));
        assert_eq!(order[0], 0, "len={len}: the root reports last");
        let mut hops = vec![0; len];
        let mut kids = vec![0; len];
        for &x in &order[1..] {
            let link = places[x].parent.expect("a parent below the root");
            let (p, up) = (at(x, link), places[x].up);
            assert!(up < places[p].up, "len={len} x={x}");
            let back = (link.0, !link.1);
            assert!(places[p].kids_in(up).any(|k| k == back), "len={len} x={x}");
            hops[x] = hops[p] + 1;
            kids[p] += 1;
        }
        assert_eq!(places[0].up, tree.rounds, "len={len}");
        let mut most = 0;
        for (p, place) in places.iter().enumerate() {
            let per_round = (0..place.up).map(|r| place.kids_in(r).count());
            most = per_round.clone().fold(most, usize::max);
            assert_eq!(per_round.sum::<usize>(), kids[p], "len={len} p={p}");
        }
        (hops.into_iter().max().unwrap_or(0), most)
    }

    /// Position 0's eccentricity in the graph of `±2^j` hops over `len`
    /// positions: a breadth-first search.
    fn eccentricity(len: usize) -> usize {
        let mut dist = vec![usize::MAX; len];
        let mut queue = std::collections::VecDeque::from([0usize]);
        dist[0] = 0;
        while let Some(x) = queue.pop_front() {
            for hop in (0..crate::levels_for(len)).map(|j| 1 << j) {
                for y in [x + hop, x.wrapping_sub(hop)] {
                    if y < len && dist[y] == usize::MAX {
                        dist[y] = dist[x] + 1;
                        queue.push_back(y);
                    }
                }
            }
        }
        dist.into_iter().max().unwrap_or(0)
    }

    /// At every path length from 1 to 300, on both engines, strict at the
    /// capacity floor of 4: every member ends on the sequential fold, in
    /// [`rounds_for`] rounds past the establishment, whatever the width —
    /// in `2(len - 1)` messages on the tree, and paced (from ten positions
    /// on) in the doubling's: `⌊log₂ len⌋` a position below `m =
    /// 2^⌊log₂ len⌋` and two for each past it — and no poll of the sweep
    /// finds more than two sweep messages in a node's inbox (paced, one):
    /// the sweep leaves [`BESIDE`] of the four to the steps beside it.
    #[test]
    fn multi_lane_sweep_matches_a_sequential_fold() {
        for n in 1usize..=300 {
            let net = Network::new(n, Config::ncc0(n as u64).with_capacity_factor(0.1));
            let want = folded(net.ids_in_path_order());
            let establish = net
                .run_protocol(|_| crate::StepProtocol::new(crate::EstablishCtx::new()))
                .unwrap();
            let runs = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
                let result = net
                    .run_protocol_on(engine, None, None, |_| {
                        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                            Busiest::new(sweep4(ctx, rctx), SWEEP)
                        })
                    })
                    .unwrap();
                // Tracking is on: the folded address spread legally.
                let m = &result.metrics;
                assert!(m.is_clean(), "n={n} {engine:?}: {:?}", m.violations);
                assert_eq!(m.capacity, 4, "n={n}");
                for (_, (got, busiest)) in &result.outputs {
                    assert_eq!(*got, want, "n={n}");
                    assert!(*busiest <= 4 - BESIDE, "n={n} {engine:?}: {busiest}");
                }
                assert_eq!(m.rounds - establish.metrics.rounds, rounds_for(n, 4));
                let sent = m.messages - establish.metrics.messages;
                let half = 1 << n.ilog2();
                let want = match Tree::new(n, 4).paced {
                    true => half * n.ilog2() as usize + 2 * (n - half),
                    false => 2 * (n - 1),
                };
                assert_eq!(sent, want as u64, "n={n}");
                result
            });
            assert_eq!(runs[0].metrics, runs[1].metrics, "n={n}");
        }
    }

    /// The broadcast half, at every path length from 1 to 100 on both
    /// engines, at the default capacity and strict at the floor of 4:
    /// alone, position 0's words and address reach every member in
    /// [`broadcast_rounds_for`] rounds and `len - 1` messages past the
    /// establishment. Released, the same broadcast waits for position 1
    /// (at one node, the head itself), which idles `delay` rounds, then hands
    /// position 0 the value: every member ends on it in the same round,
    /// one round and the broadcast's rounds after the hand-off, before its
    /// deadline. Neither run hands a node more sweep messages in a poll,
    /// nor has it send more in a round, than the capacity leaves beside
    /// [`BESIDE`], and never more than four.
    #[test]
    fn broadcast_halves_reach_every_member_in_one_round() {
        for n in 1usize..=100 {
            for factor in [2.0, 0.1] {
                let config = Config::ncc0(n as u64).with_capacity_factor(factor);
                broadcast_halves(&Network::new(n, config));
            }
        }
    }

    /// [`broadcast_halves_reach_every_member_in_one_round`] on `net`.
    fn broadcast_halves(net: &Network) {
        use crate::step::Idle;
        let (n, cap) = (net.n(), net.capacity());
        let order = net.ids_in_path_order().to_vec();
        let establish = crate::ctx::rounds_for(n);
        let depth = broadcast_rounds_for(n, cap);
        let most = cap.saturating_sub(BESIDE).clamp(2, 4);
        let delay = 3;
        let releaser = order[n.min(2) - 1];
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let alone = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let head = ctx.position == 0;
                        let words = [if head { rctx.id() % 1000 } else { 7 }, 5];
                        let addr = head.then(|| rctx.id());
                        let c = ctx.contacts.clone();
                        let step = SweepStep::broadcast(ctx.vp, c, ctx.position, &words, addr);
                        Busiest::new(step, SWEEP)
                    })
                })
                .unwrap();
            let want = Swept::new(&[order[0] % 1000, 5], Some(order[0]));
            assert_busiest(&alone, want, most);
            assert_eq!(alone.metrics.rounds, establish + depth, "n={n}");
            assert_eq!(
                alone.metrics.messages,
                establish_messages(net) + n as u64 - 1
            );
            let released = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let (vp, x, c) = (ctx.vp, ctx.position, ctx.contacts.clone());
                        let me = rctx.id();
                        let idle = if me == releaser { delay } else { 0 };
                        Idle::new(idle).then(move |(), rctx: &mut RoundCtx<'_>| {
                            if me == releaser {
                                let head = vp.pred.unwrap_or(me);
                                let msg = WireMsg::words(tags::RELEASE, &[me % 1000]);
                                rctx.send(head, msg.with_addr(me));
                            }
                            let deadline = delay + 1 + depth + 4 - idle;
                            let step = SweepStep::released(vp, c, x, deadline);
                            Busiest::new(step, SWEEP)
                        })
                    })
                })
                .unwrap();
            let want = Swept::new(&[releaser % 1000], Some(releaser));
            assert_busiest(&released, want, most);
            assert!(released.metrics.is_clean(), "n={n}");
            assert_eq!(released.metrics.rounds, establish + delay + 1 + depth);
            assert_eq!(released.metrics.messages, alone.metrics.messages + 1);
        }
    }

    /// The sweep's tags.
    const SWEEP: &[u16] = &[tags::AGGREGATE, tags::BCAST];

    /// Every member of `run` ended on `want`, and no poll handed a node
    /// more than `most` sweep messages, nor did a node send more than
    /// `most` in a round.
    fn assert_busiest(run: &RunResult<(Swept, usize)>, want: Swept, most: usize) {
        let n = run.outputs.len();
        assert!(run.metrics.max_sent_per_round <= most, "n={n}");
        for (_, (got, busiest)) in &run.outputs {
            assert_eq!(*got, want, "n={n}");
            assert!(*busiest <= most, "n={n}: {busiest}");
        }
    }

    /// Messages of the establishment alone on `net`.
    fn establish_messages(net: &Network) -> u64 {
        let run = net.run_protocol(|_| crate::StepProtocol::new(crate::EstablishCtx::new()));
        run.unwrap().metrics.messages
    }

    /// A sweep wider than the configured message budget is the model's
    /// `MessageTooLarge` violation — fatal under the strict policy, counted
    /// (and the sweep still exact) under the recording one.
    #[test]
    fn sweep_wider_than_the_message_budget_is_a_violation() {
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let mut config = Config::ncc0(25);
            config.max_words = 3;
            let net = Network::new(20, config.clone());
            let strict = net.run_protocol_on(engine, None, None, |_| WithCtx::new(sweep4));
            match strict {
                Err(SimError::Violation(v)) => assert_eq!(
                    v.kind,
                    ViolationKind::MessageTooLarge { words: 4, addrs: 0 }
                ),
                other => panic!(
                    "expected MessageTooLarge, got {:?}",
                    other.map(|r| r.metrics)
                ),
            }
            config.capacity_policy = CapacityPolicy::Record;
            let net = Network::new(20, config);
            let want = folded(net.ids_in_path_order());
            let recorded = net
                .run_protocol_on(engine, None, None, |_| WithCtx::new(sweep4))
                .unwrap();
            assert!(recorded.metrics.violations.message_too_large > 0);
            assert!(recorded.outputs.iter().all(|(_, got)| *got == want));
        }
    }

    #[test]
    fn aggregate_broadcast_computes_global_sum_and_max() {
        let net = Network::new(50, Config::ncc0(11));
        let ids = net.ids_in_path_order().to_vec();
        let wants = [
            (sum as Fold, ids.iter().map(|i| i % 100).sum::<u64>()),
            (max, ids.iter().map(|i| i % 100).max().unwrap()),
        ];
        for (fold, want) in wants {
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        sweep1(ctx, Some(rctx.id() % 100), None, fold)
                    })
                })
                .unwrap();
            assert!(result.metrics.is_clean());
            assert!(result.outputs.iter().all(|(_, got)| got.words[0] == want));
        }
    }

    #[test]
    fn broadcast_word_reaches_everyone_from_any_holder() {
        // "Leader broadcasts a token" without anyone knowing where the
        // leader sits: a minimum over (present) values, with u64::MAX as
        // the identity.
        let net = Network::new(33, Config::ncc0(12));
        let holder = net.ids_in_path_order()[17]; // arbitrary interior node
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let value = if rctx.id() == holder { 777 } else { u64::MAX };
                    sweep1(ctx, Some(value), None, min)
                })
            })
            .unwrap();
        assert!(result.outputs.iter().all(|(_, v)| v.words[0] == 777));
    }

    #[test]
    fn broadcast_addr_is_kt0_legal() {
        // The tail's ID becomes common knowledge; knowledge tracking is on,
        // so a clean run proves the address spread legally.
        let net = Network::new(40, Config::ncc0(13));
        let tail = *net.ids_in_path_order().last().unwrap();
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    sweep1(ctx, None, (rctx.id() == tail).then_some(tail), |_, _| {})
                })
            })
            .unwrap();
        assert!(result.metrics.is_clean());
        assert!(result.outputs.iter().all(|(_, v)| v.addr == Some(tail)));
    }

    /// A duplicated `AGGREGATE` folds once: with every message of the run
    /// delivered twice (the establishment's are idempotent), every sweep —
    /// one word, one address, four coupled lanes beside an address — still
    /// ends on the fault-free result, on both engines, on the tree and,
    /// paced at the capacity floor, in the recursive doubling.
    #[test]
    fn sweeps_fold_each_child_once_under_full_duplication() {
        for factor in [2.0, 0.1] {
            sweeps_fold_once_under_duplication(factor);
        }
    }

    /// [`sweeps_fold_each_child_once_under_full_duplication`] at capacity
    /// factor `factor`.
    fn sweeps_fold_once_under_duplication(factor: f64) {
        let n = 37;
        let scenario = Scenario::new(3).duplicate_messages(0..=u64::MAX, 1.0);
        let config = Config::ncc0(16)
            .with_capacity_factor(factor)
            .with_queueing()
            .with_scenario(scenario);
        let net = Network::new(n, config);
        assert_eq!(Tree::new(n, net.capacity()).paced, factor < 1.0);
        let tail = *net.ids_in_path_order().last().unwrap();
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let total = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        sweep1(ctx, Some(1), None, sum)
                    })
                })
                .unwrap();
            assert!(total.engine.faults_duplicated > 0);
            assert!(total
                .outputs
                .iter()
                .all(|(_, got)| got.words[0] == n as u64));
            let addr = net
                .run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        sweep1(ctx, None, (rctx.id() == tail).then_some(tail), |_, _| {})
                    })
                })
                .unwrap();
            assert!(addr.outputs.iter().all(|(_, got)| got.addr == Some(tail)));
            let wide = net
                .run_protocol_on(engine, None, None, |_| WithCtx::new(sweep4))
                .unwrap();
            let want = folded(net.ids_in_path_order());
            assert!(wide.outputs.iter().all(|(_, got)| *got == want));
        }
    }

    #[test]
    fn median_is_common_knowledge() {
        for n in [1usize, 2, 9, 24, 31] {
            let net = Network::new(n, Config::ncc0(14));
            let order = net.ids_in_path_order().to_vec();
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        let median = (ctx.position == (ctx.vp.len - 1) / 2).then(|| rctx.id());
                        sweep1(ctx, None, median, |_, _| {})
                    })
                })
                .unwrap();
            let want = order[(n - 1) / 2];
            assert!(
                result.outputs.iter().all(|(_, m)| m.addr == Some(want)),
                "n={n}: median mismatch"
            );
        }
    }

    /// Drops every message of sweep round `lost` (counted from the end of
    /// the establishment) of a one-lane sum at `n` at capacity factor
    /// `factor` and returns the node panic's message, the same on both
    /// engines.
    fn panic_of_a_lost_sweep_round(n: usize, factor: f64, lost: u64) -> String {
        let round = crate::ctx::rounds_for(n) + lost;
        let scenario = Scenario::new(9).drop_messages(round..=round, 1.0);
        let config = Config::ncc0(17).with_capacity_factor(factor);
        let net = Network::new(n, config.with_scenario(scenario));
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run: Result<RunResult<Swept>, SimError> =
                net.run_protocol_on(engine, None, None, |_| {
                    WithCtx::new(|ctx: &PathCtx, _: &mut RoundCtx<'_>| {
                        sweep1(ctx, Some(1), None, sum)
                    })
                });
            match run {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        messages[0].clone()
    }

    /// Every aggregate is due in a known round: losing one is a typed
    /// panic at the parent, and losing a round of the broadcast one at the
    /// children, on both engines — never a short total. Paced (n = 100 at
    /// the capacity floor), losing the doubling's first round, a round of
    /// its exchanges or its last round is a typed panic where the message
    /// was due.
    #[test]
    fn a_lost_aggregate_panics_its_parent() {
        let cap = Config::ncc0(17).capacity(64);
        assert_eq!(
            panic_of_a_lost_sweep_round(64, 2.0, 2),
            "message loss: a reduce parent missed its child's aggregate"
        );
        assert_eq!(
            panic_of_a_lost_sweep_round(64, 2.0, rounds_for(64, cap) - 1),
            "message loss: a broadcast child missed its parent's total"
        );
        assert_eq!(doubling_rounds_for(100), 8);
        for (lost, what) in [
            (0, "a doubling position missed the words from past its half"),
            (3, "a doubling position missed its partner's fold"),
            (7, "a position past the doubling's half missed the total"),
        ] {
            let got = panic_of_a_lost_sweep_round(100, 0.1, lost);
            assert_eq!(got, format!("message loss: {what}"), "round {lost}");
        }
    }
}
