//! Distributed degree realization in the NCC model (Section 4 of the
//! paper): the implicit Algorithm 3, its explicit extension, and the
//! upper-envelope variant for non-graphic sequences — one phase engine,
//! [`DegreesCore`], in three [`Flavor`]s.
//!
//! # Algorithm 3: implicit realization in `O~(min{√m, Δ})` rounds (Theorem 11)
//!
//! A parallelized Havel–Hakimi. Each node's record `(need, ID)` travels
//! between the positions of the path; the nodes never move. Each
//! phase:
//!
//! 1. **control**: one sweep of the whole path learns the maximum
//!    remaining degree `δ`, its multiplicity `N` and whether the phase
//!    before drove a node negative; the flag or `δ ≥ n` ends the run on
//!    `UNREALIZABLE`, `δ = 0` ends it realized;
//! 2. in the same rounds, sort the records by need, non-increasing
//!    (Theorem 3), so that position `x` holds the rank-`x` record — in
//!    phase 1; a later phase re-orders the records in place instead, in
//!    `O(log n)` rounds (the regroup below). In phase 1 equal needs keep
//!    the order of their origins' positions, which the establishment is
//!    keyed with, so phase 1's sort is the class route where the capacity
//!    takes it beside the control sweep, the degrees past 7 then ordered
//!    by the network over their window alone: `⌈log₂ n⌉` rounds and the
//!    window's instead of the network's `O(log² n)` over the whole path
//!    ([`SortStep::by_class`]);
//! 3. with `q = max(1, ⌊N/(δ+1)⌋)`, split the first `q(δ+1)` positions
//!    into `q` star groups: the leader, each group's first record, is fully
//!    satisfied and drops to 0; each of the other `δ` members decrements
//!    its remaining degree (an exact-flavor member already at 0 raises the
//!    flag instead). The position holding a record decides all of it, in
//!    the round both halves of the phase are in, since it depends only on
//!    the rank, `δ` and `q`, and commits the new need as the record's key;
//! 4. in that round the leader's origin ID goes out to its members
//!    (interval multicast over the positions), the next phase opens beside
//!    the multicast, and when the multicast ends each position sends one
//!    **status** to the origin of the record it held: a member's carries
//!    the leader's ID, which the origin stores as its edge.
//!
//! **Sort once, then regroup.** A phase barely changes the sorted order:
//! the `q` leaders drop to 0, the `qδ` members each lose one, the tail
//! `[q(δ+1), len)` does not change. In the exact flavors a record at need
//! 0 is inert — never a leader again, and a run that picks it as a member
//! goes negative and is refused — so the leaders' records leave, and the
//! members and the tail are two runs that are still sorted. Equal needs
//! keep the order the phase before held them in — at the commit each
//! position writes its rank into its record's tie bits — and Havel–Hakimi
//! is correct for any order of equal needs, so the re-sort is a stable
//! one, and [`SortStep::regroup`] makes it where the records are held,
//! over the path's contacts (ARCHITECTURE.md, *Deviations from the
//! paper*). Where the top need `δ` fills a group (`N ≥ δ + 1`), every
//! grouped rank held `δ`, so every survivor's new rank has a closed form
//! in `q`, `δ` and `N`, which the control sweep told everyone: the route
//! takes each record there in `⌈log₂ n⌉` rounds, inside the control
//! sweep, with no comparator. Elsewhere — one group reaching lower needs,
//! or a capacity that does not take the route's two streams beside the
//! sweep and the hop — the merge lane joins the two runs: a compaction of
//! `⌈log₂(q + 1)⌉` rounds (the longest shift is `q`) and one merge pass of
//! `⌈log₂ n⌉ + 1` stages. Every phase count and `(q, δ, N)` is the one a
//! full sort by `(need, position)` gives, which depends only on the
//! multiset of needs, and the edges are [`spec`]'s. The departed ranks'
//! positions stay vacant at the end of the path, so every budget stays a
//! function of `len` ([`merges`] says where the exact flavors regroup).
//!
//! **Records stay in place.** Positions are the path's nodes, and
//! that path is fixed for the whole run, so its contact table from the
//! establishment addresses every comparator, compaction move and
//! multicast hop of every phase. No record goes home between phases: no
//! rank epilogue, no sorted path, no contact table rebuilt per phase. The
//! one hop back to the origins is the status, a round after the
//! multicast.
//!
//! The paper sorts first, then broadcasts `δ`, `N` and the flag one by one
//! (its steps 2, 3 and 5); none needs the sorted order, and the sort needs
//! none of them, so they share one sweep that runs *alongside* the sort
//! (ARCHITECTURE.md, *Deviations from the paper*): same groups, edges and
//! phase count, one sweep a phase instead of three, spent in the sort's
//! rounds. Its words are each position's held need and a has-record
//! count, and the went-negative flag. Nor does the next phase need
//! anything the multicast carries: its control sweep and its lane read
//! only the committed needs. So the multicast and
//! the status (`⌈log₂ n⌉ + 2` rounds) run beside the next phase's control
//! sweep (twice the depth of the shallow sweep tree over the contacts, at
//! most `2(⌈⌈log₂ n⌉/2⌉ + 1)`: 14 rounds at `n = 2048`, where the hop
//! takes 13) and its lane — a phase costs `max(control, hop, lane)`, and
//! the hop outlasts the control by up to two rounds at some `n` (14
//! against 12 at `n = 2049`) — and in the closing phase a partial lane is
//! dropped when the control ends the run, once the last hop is in
//! ([`rounds_for`]). Every
//! origin whose record is on the path expects one status a phase, and a
//! member's position expects its leader's multicast: a missing one can
//! only be a lost message, and it panics, so a run never ends with a
//! silently short degree.
//!
//! Lemma 10: every phase (or every second phase) removes the current
//! maximum degree, and at most `O(√m)` phases involve degrees above `√m`,
//! so the loop runs `O(min{√m, Δ})` times; each phase is `O~(1)` rounds.
//! The data-dependent while-loop stays in lockstep because its control
//! values (δ, N, the error flag) are globally aggregated, so every node
//! transitions identically.
//!
//! # Theorem 12: explicit realization in `O(m/n + Δ/log n + log n)` rounds
//!
//! After Algorithm 3, every edge `(u, v)` is stored at exactly one endpoint
//! (the group member `u`); `v` must learn `u` to make the realization
//! explicit. [`Flavor::Explicit`] (and [`DegreesCore::explicit`]) hands
//! that over beside the phase loop, on a schedule every receiver can
//! name, in place of Theorem 8's butterfly collection (ARCHITECTURE.md,
//! *Deviations from the paper*). When a phase commits, a member's
//! position knows its offset `i ∈ [1, δ]` in its star, its record's
//! origin `u`, and — once the multicast ends — the leader's origin `v`;
//! it announces `u` to `v` (an `EDGE` carrying `u`'s address) in round
//! `⌊(i - 1)/k⌋` after the multicast ends. The rate `k` is what half the
//! capacity leaves beside the sweep, the lane and the hop ([`ops::load`],
//! [`beside_rate`]); the other half stays free, so a round in which every
//! message comes twice still fits a receiver's capacity, as the patch
//! ring's batch does in Algorithm 6. A record leads once — its need drops
//! to 0 and never grows back — so a leader's origin hears its own star
//! alone, at most `k` a round, and the leader's status carries `δ`, so it
//! knows the rounds its announcements land in. The announcements hold up
//! no commit: the next phases run beside them, and only the run's end
//! waits for the last one ([`rounds_for`]).
//!
//! A phase whose window, `⌈δ/k⌉` rounds, would outlast a hop, which every
//! later phase outlasts (or where `k` is 0, as at the capacity floor),
//! keeps the rule with another start and rate: its announcements go out
//! in a block of its own after the loop, at half the capacity a round
//! ([`block_rate`]). The blocks run on `cap` lanes side by side, each
//! block on the first lane to come free: a position announces once a
//! phase, so it sends at most one announcement a round beside the loop
//! and at most one a lane in the blocks, where nothing else runs. Every
//! announcement is due in a known round, so a second copy in its slot is
//! a duplicate and is dropped, and a leader whose window closes short of
//! `δ` has lost a message, and panics.
//!
//! # Theorem 13: an upper envelope for (possibly) non-graphic sequences
//!
//! [`Flavor::Envelope`] realizes `D' = (d'_1, …, d'_n)` with `d'_i ≥ d_i`
//! and `Σ d'_i ≤ 2 Σ d_i`. The construction is Algorithm 3 with one altered
//! step: a node whose remaining degree would go negative resets it to 0
//! (i.e. accepts the extra edge) instead of declaring failure. Whenever a
//! node is reset, the re-sorting guarantees it is used as a neighbor at
//! most `d_i` more times, which bounds the total discrepancy
//! `Σ(d'_i - d_i)` by `Σ d_i`. It refuses ([`Unrealizable`]) only when some
//! degree is `≥ n` (no envelope exists in that case either).
//!
//! **Multigraph semantics.** Late phases may connect a pair of nodes that
//! is already adjacent (a retired group leader can re-enter a later group).
//! The paper's degree guarantees hold for the resulting *multiset* of
//! edges (ARCHITECTURE.md, *Deviations from the paper*). The driver
//! reports duplicate counts so callers can quantify it (it is zero on
//! every exact-mode run).
//!
//! # Composition
//!
//! The algorithm is a sequence of primitives, composed as
//! [`Step`] sub-protocols chained through one state machine that
//! transitions stages *within* a round — a stage boundary costs no round.
//! `crates/core/tests/batched_drivers.rs` pins its transcripts on both
//! engines; `tests/scale.rs` runs it at hundreds of thousands of nodes.

use crate::sequence::DegreeSequence;
use dgr_ncc::{tags, NodeId, RoundCtx, WireEnvelope, WireMsg};
use dgr_primitives::imcast::{self, ImcastStep};
use dgr_primitives::ops::{self, SweepStep, Words};
use dgr_primitives::sort::{self, Held, Order, Regroup, SortStep};
use dgr_primitives::{ctx, PathCtx, Poll, Step};

/// Returned (consistently by *every* node) when the degree sequence is not
/// realizable — the distributed analogue of a node broadcasting
/// `UNREALIZABLE` in Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unrealizable;

impl std::fmt::Display for Unrealizable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degree sequence is unrealizable")
    }
}

impl std::error::Error for Unrealizable {}

/// One node's result of an implicit realization: the edges *this node*
/// stores. In an implicit overlay each edge is known to at least one
/// endpoint; here the storing endpoint is always the group member, the
/// group leader being the one satisfied without learning its neighbors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImplicitOutcome {
    /// The degree this node asked for.
    pub requested: usize,
    /// IDs of neighbors whose edge is stored at this node.
    pub neighbors: Vec<NodeId>,
    /// Number of while-loop phases the algorithm ran (identical at every
    /// node; the Lemma 10 quantity).
    pub phases: u64,
}

/// Umbrella re-export target: the per-node outcome types of the
/// distributed realizations.
pub type DistributedRealization = ImplicitOutcome;

/// The Lemma 10 phase bound: `min{√m, Δ}` up to constants — exposed so the
/// experiment harness can compare measured phase counts against it.
pub fn phase_bound(seq: &DegreeSequence) -> f64 {
    let m = seq.edge_count() as f64;
    let delta = seq.max_degree() as f64;
    m.sqrt().min(delta)
}

/// Which driver behavior the protocol reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Algorithm 3, implicit realization (Theorem 11).
    Implicit,
    /// Theorem 13 upper envelope (implicit, multigraph semantics).
    Envelope,
    /// Theorem 12 explicit realization (Algorithm 3 and the scheduled
    /// hand-off beside it).
    Explicit,
}

/// Rounds of a whole realization of `degrees`, one a member of the path —
/// context establishment, keyed by the degrees, then [`DegreesCore`] — at
/// capacity `cap`: the schedule of the run's [`phase_groups`] (below),
/// the first phase's lane the class route (with its overflow window) or
/// the network as [`sort::first_rounds_for`] decides beside the control
/// sweep.
pub fn rounds_for(degrees: &[usize], flavor: Flavor, explicit: bool, cap: usize) -> u64 {
    let len = degrees.len();
    let keys = degrees.iter().map(|&d| d as u64);
    let first = sort::first_rounds_for(keys, cap, ops::sweep_load(len, cap));
    let phases = phase_groups(degrees, flavor);
    schedule_rounds(len, first, &phases, flavor, explicit, cap)
}

/// Rounds of a whole realization — context establishment, then
/// [`DegreesCore`] — on a path of `len` nodes whose phases formed
/// `phases[i] = (q, δ, N)`, `q` stars of `δ` members after `N` records
/// held `δ`, in phase `i + 1`: one entry per phase but the last, the
/// run's [`phase_groups`]. Every phase but the last runs the control
/// sweep ([`ops::rounds_for`] at `cap`: paced under a capacity of six, the
/// doubling's `⌈log₂ len⌉ + 1`) beside the lane: the first phase's lane is
/// the first sort, `first` rounds, a later one's the regroup where
/// [`merges`] says so, [`sort::regroup_rounds_for`] after the phase before:
/// the route's `⌈log₂ len⌉` rounds, inside the sweep at every length, where
/// that phase's `N ≥ δ + 1` and the capacity takes the route's streams
/// beside the sweep and the hop, else the merge lane's
/// [`sort::merge_rounds_for`]`(len, q)`, which ends inside the sweep while
/// `q < 2^(control - ⌈log₂ len⌉ - 1)` (4 at `len = 2048`); the last phase
/// (a refusal's included) ends on its control sweep, dropping the partial
/// lane beside it. Each phase's multicast and status ([`hop_rounds_for`])
/// open with the next phase, which lasts until they are in too: every
/// phase after the first takes at least `max(control, hop)`, and the hop
/// sets it where it is the longer (by one or two rounds: at `len = 2`, 3
/// against 2, and at `len = 2049`, 14 against 12). A realized run with the
/// hand-off (`explicit`) ends once the last announcement beside the loop
/// has landed too, then runs the blocks of the phases whose announcements
/// wait for the loop's end, `⌈δ/r⌉` rounds each at the [`block_rate`] `r`,
/// on `cap` lanes (module docs).
fn schedule_rounds(
    len: usize,
    first: u64,
    phases: &[(usize, usize, usize)],
    flavor: Flavor,
    explicit: bool,
    cap: usize,
) -> u64 {
    let control = ops::rounds_for(len, cap);
    let beside_hop = control.max(hop_rounds_for(len));
    let mut commit = ctx::rounds_for(len);
    if phases.is_empty() {
        return commit + control;
    }
    let (mut landed, mut blocks) = (0, Blocks::default());
    let mut phase = control.max(first);
    for &(groups, delta, top) in phases {
        commit += phase;
        match beside_rate(len, delta, cap) {
            Some(rate) => landed = landed.max(commit + imcast::rounds_for(len) + div(delta, rate)),
            None => _ = blocks.place(div(delta, block_rate(cap)), cap),
        }
        let lane = if merges(flavor, len) {
            let shape = Regroup {
                stride: delta + 1,
                groups,
                top,
                ..Regroup::default()
            };
            sort::regroup_rounds_for(len, &shape, cap, lane_beside(len, cap))
        } else {
            sort::rounds_for(len)
        };
        phase = beside_hop.max(lane);
    }
    let end = commit + beside_hop;
    match explicit {
        true => end.max(landed) + blocks.rounds(),
        false => end,
    }
}

/// Messages a node a round that the steps beside a later phase's lane
/// take on a path of `len` nodes at capacity `cap`: the control sweep's
/// and the hop's one ([`ops::BESIDE`] counts the lane's one besides). The
/// hand-off's rate is reckoned from [`ops::load`], a lane of one, so where
/// a route's second stream runs beside announcements a node may receive
/// one message a round past half the capacity, which the capacity still
/// takes.
fn lane_beside(len: usize, cap: usize) -> usize {
    ops::sweep_load(len, cap) + 1
}

/// `⌈a/b⌉`.
fn div(a: usize, b: usize) -> u64 {
    a.div_ceil(b) as u64
}

/// The rate at which a phase with stars of `delta` members announces
/// beside the loop on a path of `len` nodes at capacity `cap`: what half
/// the capacity leaves beside the sweep, the lane and the hop
/// ([`ops::load`]), where the phase's window fits a hop, which every later
/// phase outlasts, so that a position never owes two announcements in one
/// round. `None` where it does not, or where half the capacity leaves
/// nothing: the phase then announces in a block after the loop, at
/// [`block_rate`].
pub fn beside_rate(len: usize, delta: usize, cap: usize) -> Option<usize> {
    let rate = (cap / 2).saturating_sub(ops::load(len, cap));
    (rate > 0 && div(delta, rate) <= hop_rounds_for(len)).then_some(rate)
}

/// The rate of the hand-off's blocks after the loop at capacity `cap`:
/// half of it, so that a receiver whose every message comes twice still
/// takes a block's round in that round.
pub fn block_rate(cap: usize) -> usize {
    (cap / 2).max(1)
}

/// The stars of every phase but the last that [`DegreesCore`] forms on a
/// path whose members request `degrees`, the input [`rounds_for`] takes:
/// `(q, δ, N)`, `q` groups of `δ` members after a control sweep that
/// found `N` records at the top need `δ` — the [`spec`]'s trace. A
/// phase's `δ`, `N` and so its `q` depend only on the multiset of needs,
/// and so does what the phase leaves of it, whatever the ID order.
pub fn phase_groups(degrees: &[usize], flavor: Flavor) -> Vec<(usize, usize, usize)> {
    spec(degrees, flavor).phases
}

/// What Algorithm 3 does on a path whose members request `degrees`, one a
/// position: the [`spec`] of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Every edge a group forms, `(member, leader)` as the establishment
    /// positions of their origins, phase by phase.
    pub edges: Vec<(usize, usize)>,
    /// `(q, δ, N)` of every phase but the last ([`phase_groups`]).
    pub phases: Vec<(usize, usize, usize)>,
    /// How the run ends.
    pub verdict: Result<(), Unrealizable>,
}

/// Algorithm 3 in `flavor`, replayed sequentially on `degrees` (one a
/// position of the path): the records `(need, establishment position)`
/// start in `(need, position)` order, need non-increasing; each phase
/// reads `δ` and `N` off the first records, forms the groups over the
/// first `q(δ + 1)` ranks — a rank past the records holds nothing —
/// drops the leaders' records where [`merges`] says so (else they stay
/// at need 0), decrements the members and sorts again by need: in the
/// exact flavors a stable sort, equal needs in the order the phase held
/// them; in the envelope's, ties by the establishment position.
/// [`DegreesCore`] forms exactly these edges and phases on either engine,
/// and ends on this verdict.
pub fn spec(degrees: &[usize], flavor: Flavor) -> Spec {
    let len = degrees.len();
    let by_need = |&(need, home): &(usize, usize)| (std::cmp::Reverse(need), home);
    let mut records: Vec<(usize, usize)> = degrees.iter().copied().zip(0..).collect();
    records.sort_by_key(by_need);
    let stable = flavor != Flavor::Envelope;
    let (mut edges, mut phases, mut went_negative) = (Vec::new(), Vec::new(), false);
    loop {
        let delta = records.first().map_or(0, |&(need, _)| need);
        if went_negative || delta >= len || delta == 0 {
            let verdict = if delta == 0 && !went_negative {
                Ok(())
            } else {
                Err(Unrealizable)
            };
            return Spec {
                edges,
                phases,
                verdict,
            };
        }
        let stride = delta + 1;
        let top = records
            .iter()
            .take_while(|&&(need, _)| need == delta)
            .count();
        let q = (top / stride).max(1);
        phases.push((q, delta, top));
        let mut leader = 0;
        for (rank, (need, home)) in records.iter_mut().enumerate().take(q * stride) {
            if rank % stride == 0 {
                (*need, leader) = (0, *home);
            } else if *need == 0 && flavor != Flavor::Envelope {
                went_negative = true;
            } else {
                *need = need.saturating_sub(1);
                edges.push((*home, leader));
            }
        }
        if merges(flavor, len) {
            // The leaders' records leave the path.
            let mut rank = 0;
            records.retain(|_| {
                rank += 1;
                rank > q * stride || (rank - 1) % stride != 0
            });
        }
        match stable {
            true => records.sort_by_key(|&(need, _)| std::cmp::Reverse(need)),
            false => records.sort_by_key(by_need),
        }
    }
}

/// Rounds of a phase's hop back to the origins on a path of `len` nodes:
/// the leaders' multicast, then the one round of the status.
pub fn hop_rounds_for(len: usize) -> u64 {
    imcast::rounds_for(len) + 1
}

/// Whether a later phase re-orders the sorted path in place
/// ([`SortStep::regroup`]: the route, or the merge lane) instead of
/// sorting it again: in the exact flavors, where the merge lane's rounds
/// are fewer whatever the groups (`len > 8`). A node at need 0 is inert
/// there — never a leader again, and a run that picks it as a member is
/// refused — so a group's leader can leave the sorted path. The envelope
/// keeps the full sort: its zero-need members take edges, and which of
/// them a group reaches depends on the whole path's ID order.
pub fn merges(flavor: Flavor, len: usize) -> bool {
    flavor != Flavor::Envelope
        && sort::merge_rounds_for(len, len.saturating_sub(1)) < sort::rounds_for(len)
}

/// Folds the control words: maximum remaining need, how many members hold
/// it, whether anyone went negative.
fn fold_control(acc: &mut Words, x: &Words) {
    match x[0].cmp(&acc[0]) {
        std::cmp::Ordering::Greater => (acc[0], acc[1]) = (x[0], x[1]),
        std::cmp::Ordering::Equal => acc[1] += x[1],
        std::cmp::Ordering::Less => {}
    }
    acc[2] |= x[2];
}

/// A phase in progress: the control sweep beside the lane, and the last
/// phase's hop back to the origins beside both, each polled until it is
/// ready (`None` from then on).
struct Phase {
    hop: Option<Hop>,
    control: Option<Box<SweepStep>>,
    lane: Option<SortStep>,
}

/// A phase's hop back to the origins, opened when the phase commits
/// (rounds: exactly [`hop_rounds_for`]): the leaders' multicast over the
/// positions, then, in the round it ends, one status from each position to
/// the origin of the record it held at the commit.
struct Hop {
    /// The multicast, until it ends.
    mcast: Option<ImcastStep>,
    /// This position's status: to whom, its word (a leader's `δ`, else
    /// 0), and whether it carries the leader's ID (a member's edge).
    status: Option<(NodeId, u64, bool)>,
    /// A member's offset `i ≥ 1` in its star, 0 elsewhere.
    offset: usize,
}

impl Hop {
    /// Polls the hop at a node whose own record is on the path if
    /// `expects`; its result is the status that node got: the edge it
    /// carries, if any, and its word. When the multicast ends, a member's
    /// position owes its leader's origin an announcement in `handoff`.
    fn poll(
        &mut self,
        rctx: &mut RoundCtx<'_>,
        expects: bool,
        handoff: Option<&mut Handoff>,
    ) -> Poll<Option<(Option<NodeId>, u64)>> {
        if let Some(mcast) = &mut self.mcast {
            let Poll::Ready(got) = mcast.poll(rctx) else {
                return Poll::Pending;
            };
            self.mcast = None;
            if let Some((origin, word, edge)) = self.status {
                if let (Some(handoff), Some(leader), 1..) = (handoff, got, self.offset) {
                    handoff.owe(self.offset, leader, origin);
                }
                let mut msg = WireMsg::word(tags::STATUS, word);
                if edge {
                    let leader =
                        got.expect("message loss: a committed member missed the multicast");
                    msg = msg.with_addr(leader);
                }
                rctx.send(origin, msg);
            }
            return Poll::Pending;
        }
        if !expects {
            return Poll::Ready(None);
        }
        // A repeated status is the same status: the first one stands.
        let env = rctx
            .inbox()
            .iter()
            .find(|e| e.msg.tag == tags::STATUS)
            .expect("message loss: an origin missed its record's status");
        let edge = env.msg.addrs_slice().first().copied();
        Poll::Ready(Some((edge, env.word())))
    }
}

/// The hand-off's blocks after the loop: `cap` lanes side by side, each a
/// run of phases' blocks back to back, and what this position owes in
/// them: `(round, the leader's origin, the member's origin)`, counted from
/// the blocks' start until the loop ends, then latest first.
#[derive(Debug, Default)]
struct Blocks {
    lanes: Vec<u64>,
    owed: Vec<(u64, NodeId, NodeId)>,
}

impl Blocks {
    /// Places a block of `rounds` rounds on the first lane to come free
    /// and returns its first round, counted from the blocks' start.
    fn place(&mut self, rounds: u64, cap: usize) -> u64 {
        if self.lanes.is_empty() {
            self.lanes = vec![0; cap];
        }
        let lane = self
            .lanes
            .iter_mut()
            .min_by_key(|end| **end)
            .expect("a lane");
        let first = *lane;
        *lane += rounds;
        first
    }

    /// The rounds all the blocks take.
    fn rounds(&self) -> u64 {
        self.lanes.iter().copied().max().unwrap_or(0)
    }
}

/// The explicit hand-off at one node (module docs, Theorem 12), from its
/// first commit on.
#[derive(Default)]
struct Handoff {
    /// The slots of the phase that committed last, `(first, rate,
    /// block)`: its offset-`i` member announces in round
    /// `first + ⌊(i - 1)/rate⌋`, counted from the blocks' start where
    /// `block`.
    slots: (u64, usize, bool),
    /// The round the last announcement beside the loop lands in.
    landed: u64,
    /// The round the last announcement lands in, once the loop has ended.
    until: Option<u64>,
    /// What this position owes beside the loop: one announcement at a
    /// time, since a window fits a hop.
    beside: Option<(u64, NodeId, NodeId)>,
    /// The blocks, once a phase announces after the loop.
    blocks: Option<Box<Blocks>>,
    /// At a leader's origin: the round its window closes in (counted like
    /// its slots), whether that counts from the blocks' start, and how
    /// many announcements are still due.
    window: Option<(u64, bool, usize)>,
}

impl Handoff {
    /// Fixes the slots of a phase with stars of `delta` members that
    /// commits in round `now` on a path of `len` nodes.
    fn commit(&mut self, len: usize, delta: usize, now: u64, cap: usize) {
        self.slots = match beside_rate(len, delta, cap) {
            Some(rate) => (now + imcast::rounds_for(len), rate, false),
            None => {
                let (rate, blocks) = (block_rate(cap), self.blocks.get_or_insert_default());
                (blocks.place(div(delta, rate), cap), rate, true)
            }
        };
        let (first, rate, block) = self.slots;
        if !block {
            self.landed = self.landed.max(first + div(delta, rate));
        }
    }

    /// This node's record led the phase that committed last, with `delta`
    /// members: its window is that phase's slots.
    fn lead(&mut self, delta: usize) {
        let (first, rate, block) = self.slots;
        self.window = Some((first + div(delta, rate), block, delta));
    }

    /// The member at offset `i` owes `leader` an announcement of `origin`.
    fn owe(&mut self, i: usize, leader: NodeId, origin: NodeId) {
        let (first, rate, block) = self.slots;
        let owed = (first + ((i - 1) / rate) as u64, leader, origin);
        match self.blocks.as_mut().filter(|_| block) {
            Some(blocks) => blocks.owed.push(owed),
            None => {
                debug_assert!(self.beside.is_none(), "two announcements beside the loop");
                self.beside = Some(owed);
            }
        }
    }

    /// The loop has realized in round `now`: the blocks start once the
    /// last announcement beside it has landed.
    fn close(&mut self, now: u64) {
        let base = now.max(self.landed);
        let blocks = self.blocks.as_deref_mut().map_or(0, |blocks| {
            for (round, ..) in &mut blocks.owed {
                *round += base;
            }
            // Blocks on different lanes interleave.
            blocks
                .owed
                .sort_by_key(|&(round, ..)| std::cmp::Reverse(round));
            blocks.rounds()
        });
        if let Some((closes, block @ true, _)) = &mut self.window {
            (*closes, *block) = (*closes + base, false);
        }
        self.until = Some(base + blocks);
    }

    /// One round of the hand-off: takes this round's announcements in (a
    /// second copy in its slot is a duplicate) and, at a leader's origin
    /// whose window closes, checks that all have come; then, unless the
    /// core is done this round, sends what falls due. Returns the next
    /// round it has anything to do in.
    fn exchange(
        &mut self,
        rctx: &mut RoundCtx<'_>,
        neighbors: &mut Vec<NodeId>,
        done: bool,
    ) -> u64 {
        let now = rctx.round();
        if let Some((closes, block, due)) = &mut self.window {
            let inbox = rctx.inbox();
            for (j, env) in inbox.iter().enumerate() {
                let edge = |e: &WireEnvelope| e.msg.tag == tags::EDGE;
                if edge(env) && !inbox[..j].iter().any(|e| edge(e) && e.addr() == env.addr()) {
                    neighbors.push(env.addr());
                    *due = due.checked_sub(1).expect("more announcements than members");
                }
            }
            if (*closes, *block) == (now, false) {
                assert!(*due == 0, "message loss: a leader missed an announcement");
                self.window = None;
            }
        }
        if done {
            return u64::MAX;
        }
        if let Some((_, leader, origin)) = self.beside.filter(|&(round, ..)| round == now) {
            rctx.send(leader, WireMsg::addr(tags::EDGE, origin));
            self.beside = None;
        }
        if let Some(blocks) = self.blocks.as_mut().filter(|_| self.until.is_some()) {
            while let Some(&(round, leader, origin)) = blocks.owed.last() {
                if round > now {
                    break;
                }
                debug_assert_eq!(round, now, "an announcement missed its round");
                rctx.send(leader, WireMsg::addr(tags::EDGE, origin));
                blocks.owed.pop();
            }
        }
        let window = self.window.map(|_| now + 1);
        let beside = self.beside.map(|(round, ..)| round);
        let blocks = self.blocks.as_ref().filter(|_| self.until.is_some());
        let block = blocks.and_then(|b| b.owed.last()).map(|&(round, ..)| round);
        [window, beside, block]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// The post-establishment core of the degree realization — the Algorithm
/// 3 phase loop (and the Theorem 12/13 extensions) as a composable
/// [`Step`].
///
/// The core runs on **one** path scope, the [`PathCtx`] it is built on:
/// the records travel between its positions, and the sort, the merge
/// lane, the interval multicast and the control sweep all run over its
/// contacts, for the whole run. Every member of that path runs the core,
/// since the control sweep is what keeps them in lockstep with the
/// data-dependent phase loop. At the top level it is the establishment
/// context, which the whole protocol, [`WithCtx`](dgr_primitives::WithCtx),
/// hands it ([`prepare_degrees`](crate::prepare_degrees)); in Algorithm
/// 6's paper-exact recursion it is the ρ-sorted prefix sub-path, which
/// only the prefix runs, everyone else waiting for its result.
pub struct DegreesCore {
    flavor: Flavor,
    ctx: PathCtx,
    stage: Phase,
    /// How the run ends, once a control sweep has said so and until the
    /// last hop is in.
    closing: Option<Result<(), Unrealizable>>,
    /// The record at this node's position: its own in phase 1, the one
    /// the last lane left here after that; `None` at a vacant position.
    held: Option<Held>,
    /// Was a group member's record here with nothing left to give?
    went_negative: bool,
    outcome: ImplicitOutcome,
    /// This phase's `q` groups of `δ + 1` ranks after `N` records held
    /// `δ`, over `live` records: `len` less every leader a regroup took
    /// off.
    shape: Regroup,
    /// Is this node's own record still on the path, so that every phase
    /// owes it a status?
    on_path: bool,
    /// Whether the realization is explicit, and its Theorem 12 hand-off
    /// from the first commit on.
    explicit: bool,
    handoff: Option<Box<Handoff>>,
    /// The first round the hand-off has anything to do in, so that a
    /// quiet round does not touch it.
    wake: u64,
}

impl DegreesCore {
    /// Builds the core for a member of `ctx` requesting `degree`; the
    /// first poll opens phase 1. The explicit flavor hands its edges off.
    pub fn new(degree: usize, flavor: Flavor, ctx: PathCtx) -> Self {
        DegreesCore {
            flavor,
            closing: None,
            // Placeholder; the first poll's `begin_phase` installs phase 1.
            stage: Phase {
                hop: None,
                control: None,
                lane: None,
            },
            held: None,
            went_negative: false,
            outcome: ImplicitOutcome {
                requested: degree,
                neighbors: Vec::new(),
                phases: 0,
            },
            shape: Regroup {
                live: ctx.vp.len,
                ..Regroup::default()
            },
            on_path: true,
            ctx,
            explicit: flavor == Flavor::Explicit,
            handoff: None,
            wake: 0,
        }
    }

    /// Makes the realization explicit in any flavor: every edge is handed
    /// off to its leader's origin too ([`rounds_for`] with `explicit`).
    pub fn explicit(mut self) -> Self {
        self.explicit = true;
        self
    }

    /// Opens a new Algorithm 3 phase at capacity `cap`: the control sweep
    /// and, in the same rounds, the lane over the positions — the first
    /// sort, the regroup after a phase where [`merges`] says so, else the
    /// sort again; none needs anything the sweep computes — beside `hop`,
    /// the last phase's hop back to the origins.
    fn begin_phase(&mut self, hop: Option<Hop>, cap: usize) {
        self.outcome.phases += 1;
        let words = [
            self.held.map_or(0, |h| h.key),
            u64::from(self.held.is_some()),
            u64::from(self.went_negative),
        ];
        let ctx = &self.ctx;
        let (vp, x) = (ctx.vp, ctx.position);
        let control = SweepStep::new(vp, ctx.contacts.clone(), x, &words, None, fold_control);
        let (contacts, held) = (ctx.contacts.clone(), self.held.take());
        let lane = if self.outcome.phases == 1 {
            let held = held.expect("a member starts with its own record");
            let beside = ops::sweep_load(vp.len, cap);
            SortStep::by_class(ctx, held.key, Order::Descending, held.origin, beside)
        } else if merges(self.flavor, vp.len) {
            let beside = lane_beside(vp.len, cap);
            let lane = SortStep::regroup(vp, contacts, x, held, self.shape, beside);
            self.shape.live -= self.shape.groups;
            lane
        } else {
            SortStep::in_place(vp, contacts, x, held, Order::Descending)
        };
        self.stage = Phase {
            hop,
            control: Some(Box::new(control)),
            lane: Some(lane),
        };
    }

    /// The phase loop, then the wait for the hand-off: `Ready` once the
    /// run has ended at this node.
    fn advance(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Result<(), Unrealizable>> {
        loop {
            let Phase { hop, control, lane } = &mut self.stage;
            // The hop goes first. It may end before the control sweep or
            // after it; the phase commits once the hop, the control and
            // the lane are all in.
            if let Some(h) = hop {
                let multicasting = h.mcast.is_some() && h.offset > 0;
                let polled = h.poll(rctx, self.on_path, self.handoff.as_deref_mut());
                if multicasting && h.mcast.is_none() {
                    // A member's position owes its announcement from now.
                    self.wake = 0;
                }
                if let Poll::Ready(status) = polled {
                    *hop = None;
                    if let Some((edge, word)) = status {
                        self.outcome.neighbors.extend(edge);
                        let led = word as usize;
                        self.on_path = led == 0 || !merges(self.flavor, self.ctx.vp.len);
                        if let Some(handoff) = self.handoff.as_mut().filter(|_| led > 0) {
                            handoff.lead(led);
                            self.wake = 0;
                        }
                    }
                }
            }
            // The control goes next: a refusing or closing phase drops
            // the lane before it stages this round's sends.
            if let Some(Poll::Ready(swept)) = control.as_mut().map(|s| s.poll(rctx)) {
                *control = None;
                let [delta, n_max, err, _] = swept.words;
                // Some node went negative, or wants more neighbors than
                // exist.
                if err != 0 || delta as usize >= self.ctx.vp.len {
                    self.closing = Some(Err(Unrealizable));
                    *lane = None;
                } else if delta == 0 {
                    self.closing = Some(Ok(()));
                    *lane = None;
                } else {
                    let stride = delta as usize + 1;
                    self.shape.stride = stride;
                    self.shape.groups = (n_max as usize / stride).max(1);
                    self.shape.top = n_max as usize;
                    debug_assert!(
                        self.shape.span() <= self.shape.live,
                        "groups exceed the path"
                    );
                }
            }
            if let Some(Poll::Ready(held)) = lane.as_mut().map(|s| s.poll(rctx)) {
                *lane = None;
                self.held = held;
            }
            if hop.is_some() || control.is_some() || lane.is_some() {
                return Poll::Pending;
            }
            // A realized loop waits for the hand-off's last announcement.
            if let Some(until) = self.handoff.as_ref().and_then(|h| h.until) {
                return match rctx.round() == until {
                    true => Poll::Ready(Ok(())),
                    false => Poll::Pending,
                };
            }
            match (self.closing.take(), &mut self.handoff) {
                (Some(Ok(())), Some(handoff)) => {
                    handoff.close(rctx.round());
                    self.wake = 0;
                    continue;
                }
                (Some(closed), _) => return Poll::Ready(closed),
                (None, _) => {}
            }
            // Both halves are in. What the phase makes of the record
            // here depends only on its rank — this position — and the
            // groups, so the new need is committed now, and the hop and
            // the next phase open together this round.
            let (x, stride) = (self.ctx.position, self.shape.stride);
            let grouped = self.held.is_some() && x < self.shape.span();
            let is_leader = grouped && x.is_multiple_of(stride);
            let mut edge = false;
            if let Some(held) = self.held.as_mut() {
                // The exact flavors' next lane keeps equal needs in the
                // order this phase holds them.
                if self.flavor != Flavor::Envelope {
                    held.home = x;
                }
                if is_leader {
                    debug_assert_eq!(held.key, stride as u64 - 1, "leader without max degree");
                    held.key = 0;
                } else if grouped {
                    // Exact flavors fail on a saturated record; the
                    // envelope accepts the extra edge.
                    if held.key == 0 && self.flavor != Flavor::Envelope {
                        self.went_negative = true;
                    } else {
                        held.key = held.key.saturating_sub(1);
                        edge = true;
                    }
                }
            }
            if self.explicit {
                let handoff = self.handoff.get_or_insert_default();
                let len = self.ctx.vp.len;
                handoff.commit(len, stride - 1, rctx.round(), rctx.capacity());
            }
            let led = if is_leader { stride as u64 - 1 } else { 0 };
            let status = self.held.map(|h| (h.origin, led, edge));
            let offset = if grouped && !is_leader { x % stride } else { 0 };
            let task = (self.held)
                .filter(|_| is_leader)
                .map(|h| (stride - 1, h.origin));
            let ctx = &self.ctx;
            let mcast = Some(ImcastStep::new(ctx.vp, ctx.contacts.clone(), task));
            let hop = Hop {
                mcast,
                status,
                offset,
            };
            self.begin_phase(Some(hop), rctx.capacity());
        }
    }
}

impl Step for DegreesCore {
    type Out = Result<ImplicitOutcome, Unrealizable>;

    fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
        if self.outcome.phases == 0 {
            let held = Held {
                key: self.outcome.requested as u64,
                origin: rctx.id(),
                home: self.ctx.position,
            };
            self.held = Some(held);
            self.begin_phase(None, rctx.capacity());
        }
        let polled = self.advance(rctx);
        let now = rctx.round();
        if let Some(handoff) = self.handoff.as_deref_mut().filter(|_| now >= self.wake) {
            self.wake = handoff.exchange(rctx, &mut self.outcome.neighbors, polled.is_ready());
        }
        polled.map(|closed| closed.map(|()| std::mem::take(&mut self.outcome)))
    }
}

#[cfg(test)]
mod tests {
    use super::{phase_groups, rounds_for, schedule_rounds, Flavor};
    use crate::driver::{prepare_degrees, realize_for_test};
    use dgr_ncc::{Config, EngineKind, Recording, RunEvent};

    /// The multicast and the status ride the next phase, which lasts
    /// exactly `max(control, hop)` when its lane is shorter: here the
    /// closing phase after one group, whose lane is dropped. The hop is
    /// `⌈log₂ len⌉ + 2` rounds and outlasts the control sweep by at most
    /// two: by one at two positions, by two at 2049, and it ends a round
    /// inside the sweep at 2048 — at a capacity that takes the sweep
    /// unpaced.
    #[test]
    fn the_multicast_ends_inside_the_next_control_sweep() {
        use super::hop_rounds_for;
        use dgr_primitives::{ctx, levels_for, ops, sort};
        let cap = 22;
        for len in 2..=1 << 20 {
            let (control, hop) = (ops::rounds_for(len, cap), hop_rounds_for(len));
            assert_eq!(hop, levels_for(len) as u64 + 2, "len={len}");
            assert!(hop <= control + 2, "len={len}");
            if len.is_power_of_two() || len % 997 == 0 {
                let sort = sort::rounds_for(len);
                let first = ctx::rounds_for(len) + control.max(sort);
                let run = schedule_rounds(len, sort, &[(1, 1, 2)], Flavor::Implicit, false, cap);
                assert_eq!(run - first, control.max(hop), "len={len}");
            }
        }
        let pairs = [2, 2048, 2049].map(|len| (ops::rounds_for(len, cap), hop_rounds_for(len)));
        assert_eq!(pairs, [(2, 3), (14, 13), (12, 14)]);
    }

    /// A later phase that routes is its control sweep: the route's
    /// `⌈log₂ len⌉` rounds end inside the sweep at every length, paced or
    /// not. Where a later phase merges instead, the merge lane fits the
    /// sweep exactly while the phase before formed fewer than
    /// `2^(control - ⌈log₂ len⌉ - 1)` groups, none where the sweep is no
    /// longer than `⌈log₂ len⌉`: the compaction takes one round a bit of
    /// the groups, the merge pass `⌈log₂ len⌉ + 1`. At n = 2048 a run of 9
    /// phases is the establishment (12), a first phase of the 14-round
    /// sweep beside the 11-round class route (66 beside the network), then
    /// seven phases of 14 rounds — the route after 118, 251, 419 and 418
    /// groups, the 13-round merge lane after the three phases of one group
    /// whose top need fills none — and the 14-round closing sweep.
    #[test]
    fn a_later_phase_is_its_control_sweep() {
        use dgr_primitives::{levels_for, ops, sort};
        for (len, cap) in (9..=1 << 20).flat_map(|len| [(len, 22), (len, 4)]) {
            let control = ops::rounds_for(len, cap);
            assert!(
                sort::route_rounds_for(len) <= control,
                "len={len} cap={cap}"
            );
            let fits = |groups| sort::merge_rounds_for(len, groups) <= control;
            let spare = control.checked_sub(levels_for(len) as u64 + 1);
            let edge = spare.map_or(0, |bits| 1 << bits);
            for groups in [0, 1, edge.max(1) - 1, edge, len - 1] {
                assert_eq!(fits(groups), groups < edge, "len={len} groups={groups}");
            }
        }
        assert_eq!(ops::rounds_for(2048, 22), 14);
        assert_eq!(sort::merge_rounds_for(2048, 1), 13);
        let groups = [
            (118, 5, 709),
            (1, 5, 1),
            (251, 4, 1255),
            (419, 3, 1678),
            (1, 3, 2),
            (418, 2, 1256),
            (1, 2, 2),
            (419, 1, 838),
        ];
        let run = |first| schedule_rounds(2048, first, &groups, Flavor::Implicit, false, 22);
        assert_eq!(
            [sort::route_rounds_for(2048), sort::rounds_for(2048)].map(run),
            [138, 190]
        );
    }

    /// The replay of the phase loop counts the phases a run takes; a
    /// refusal stops it at the phase before the refusing one.
    #[test]
    fn phase_groups_replays_the_phase_loop() {
        let none: [(usize, usize, usize); 0] = [];
        assert_eq!(
            phase_groups(&[2, 2, 2], Flavor::Implicit),
            [(1, 2, 3), (1, 1, 2)]
        );
        assert_eq!(phase_groups(&[0, 0], Flavor::Implicit), none);
        assert_eq!(phase_groups(&[3, 1, 1], Flavor::Implicit), none);
        assert_eq!(
            phase_groups(&[3, 3, 1, 1], Flavor::Implicit),
            [(1, 3, 2), (1, 2, 1)]
        );
        for flavor in [Flavor::Implicit, Flavor::Envelope] {
            let out = realize_for_test(&[6; 32], Config::ncc0(5), flavor);
            let groups = phase_groups(&[6; 32], flavor);
            assert_eq!(groups.len() as u64 + 1, out.expect_realized().phases);
        }
    }

    /// Drops every message of round `lost` in an implicit run at n = 64
    /// and returns the node panic's message, the same on both engines.
    fn panic_of_a_lost_round(lost: u64) -> String {
        use dgr_ncc::{Scenario, SimError};
        let n = 64;
        let degrees: Vec<usize> = (0..n).map(|i| 2 + 2 * (i % 3)).collect();
        let lost = Scenario::new(3).drop_messages(lost..=lost, 1.0);
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let config = Config::ncc0(7).with_scenario(lost.clone());
            let job = prepare_degrees(&degrees, config, Flavor::Implicit, engine);
            match job.unwrap().drive(None) {
                Err(SimError::NodePanic { message, .. }) => message,
                other => panic!("{engine:?}: expected a node panic, got {:?}", other.err()),
            }
        });
        assert_eq!(messages[0], messages[1], "engines");
        messages[0].clone()
    }

    /// The round the first phase commits in, at n = 64: the multicast
    /// and the second phase open in it.
    fn first_commit() -> u64 {
        use dgr_primitives::{ctx, ops, sort};
        let (n, cap) = (64, Config::ncc0(7).capacity(64));
        let keys = (0..n as u64).map(|i| 2 + 2 * (i % 3));
        let first = sort::first_rounds_for(keys, cap, ops::sweep_load(n, cap));
        ctx::rounds_for(n) + ops::rounds_for(n, cap).max(first)
    }

    /// A member commits its need before its leader's ID arrives, so losing
    /// the multicast's first round of sends is a typed panic that names
    /// the cause, on both engines — never a silently short degree. In a
    /// run the control sweep and the lane share every round of the
    /// multicast, and their own loss checks fire first; so the hop runs
    /// alone here, position 0 leading positions 1 to 3.
    #[test]
    fn a_lost_multicast_panics_its_committed_member() {
        use super::Hop;
        use dgr_ncc::{Network, NodeId, RoundCtx, Scenario, SimError};
        use dgr_primitives::imcast::ImcastStep;
        use dgr_primitives::{ctx, PathCtx, Poll, Step, WithCtx};
        struct LoneHop(Hop);
        impl Step for LoneHop {
            type Out = Option<(Option<NodeId>, u64)>;
            fn poll(&mut self, rctx: &mut RoundCtx<'_>) -> Poll<Self::Out> {
                self.0.poll(rctx, true, None)
            }
        }
        let n = 16;
        let lost = ctx::rounds_for(n);
        let scenario = Scenario::new(3).drop_messages(lost..=lost, 1.0);
        let net = Network::new(n, Config::ncc0(7).with_scenario(scenario));
        let messages = [EngineKind::Batched, EngineKind::Reference].map(|engine| {
            let run = net.run_protocol_on(engine, None, None, |_| {
                WithCtx::new(|c: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    let (x, id) = (c.position, rctx.id());
                    let task = (x == 0).then_some((3, id));
                    let mcast = Some(ImcastStep::new(c.vp, c.contacts.clone(), task));
                    LoneHop(Hop {
                        mcast,
                        status: Some((id, 0, (1..=3).contains(&x))),
                        offset: 0,
                    })
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
            "message loss: a committed member missed the multicast"
        );
    }

    /// Every origin whose record is on the path expects one status a
    /// phase, so losing the round the first statuses go out in is a typed
    /// panic at the origins, on both engines — never a missing edge.
    #[test]
    fn a_lost_status_panics_its_origin() {
        use dgr_primitives::imcast;
        let sent = first_commit() + imcast::rounds_for(64);
        assert_eq!(
            panic_of_a_lost_round(sent),
            "message loss: an origin missed its record's status"
        );
    }

    #[test]
    fn realizes_a_triangle() {
        let out = realize_for_test(&[2, 2, 2], Config::ncc0(1), Flavor::Implicit);
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 3);
        assert_eq!(g.graph.degree_sequence(), vec![2, 2, 2]);
        assert!(g.metrics.is_clean());
    }

    #[test]
    fn realizes_k5_and_stars() {
        for degrees in [
            vec![4, 4, 4, 4, 4],
            vec![5, 1, 1, 1, 1, 1],
            vec![3, 3, 2, 2, 1, 1],
            vec![0, 0, 0],
            vec![1, 1, 0, 0],
        ] {
            let out = realize_for_test(&degrees, Config::ncc0(7), Flavor::Implicit);
            let g = out.expect_realized();
            let mut want = degrees.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(g.graph.degree_sequence(), want, "{degrees:?}");
            assert_eq!(g.duplicate_edges, 0, "{degrees:?}");
        }
    }

    #[test]
    fn rejects_non_graphic_sequences() {
        for degrees in [
            vec![1, 0],             // odd sum
            vec![3, 3, 1, 1],       // EG violation
            vec![4, 4, 4, 1, 1],    // EG violation
            vec![3, 1, 1],          // degree ≥ n handled mid-run
            vec![5, 5, 4, 3, 2, 1], // classic
        ] {
            let out = realize_for_test(&degrees, Config::ncc0(3), Flavor::Implicit);
            assert!(out.is_unrealizable(), "{degrees:?} was accepted");
        }
    }

    /// `[3, 1, 1]` (δ ≥ n) is refused by the first control sweep — at
    /// three nodes the sweep outlasts the sort beside it, so the sorted
    /// path is already built and goes unused; `[3, 3, 1, 1]` (a node goes
    /// negative in phase 2) by the third. Every node gets there in the
    /// same round: no round completes with only some of them still
    /// running.
    #[test]
    fn refusals_reach_every_node_in_the_same_round() {
        for (degrees, phases) in [(vec![3, 1, 1], 1), (vec![3, 3, 1, 1], 3)] {
            for engine in [EngineKind::Batched, EngineKind::Reference] {
                let mut recording = Recording::new();
                let flavor = Flavor::Implicit;
                let sink = Some(&mut recording as &mut dyn dgr_ncc::Sink);
                let job = prepare_degrees(&degrees, Config::ncc0(3), flavor, engine);
                let out = job.unwrap().drive(sink).unwrap().output;
                assert!(out.is_unrealizable(), "{degrees:?} was accepted");
                let (n, m) = (degrees.len(), out.metrics());
                let groups = phase_groups(&degrees, flavor);
                assert_eq!(groups.len() as u64 + 1, phases, "{degrees:?}");
                assert_eq!(m.rounds, rounds_for(&degrees, flavor, false, m.capacity));
                let rounds = recording.events().into_iter().filter_map(|e| match e {
                    RunEvent::RoundCompleted { live, .. } => Some(live),
                    _ => None,
                });
                assert!(rounds.clone().count() as u64 >= m.rounds);
                assert!(rounds.clone().all(|live| live == n), "{degrees:?}");
            }
        }
    }

    #[test]
    fn phase_count_is_within_lemma10() {
        // A 6-regular sequence on 32 nodes: Δ = 6, so at most ~2Δ phases.
        let degrees = vec![6usize; 32];
        let out = realize_for_test(&degrees, Config::ncc0(5), Flavor::Implicit);
        let g = out.expect_realized();
        assert!(
            g.phases <= 2 * 6 + 2,
            "phases {} exceed Lemma 10 allowance",
            g.phases
        );
    }

    #[test]
    fn single_node_zero_degree() {
        let out = realize_for_test(&[0], Config::ncc0(1), Flavor::Implicit);
        let g = out.expect_realized();
        assert_eq!(g.graph.edge_count(), 0);
        let out = realize_for_test(&[1], Config::ncc0(1), Flavor::Implicit);
        assert!(out.is_unrealizable());
    }

    #[test]
    fn both_endpoints_know_every_edge() {
        let degrees = vec![4, 3, 3, 2, 2, 2, 1, 1];
        let out = realize_for_test(&degrees, Config::ncc0(31), Flavor::Explicit);
        let g = out.expect_realized();
        // Explicit: every node's neighbor list is exactly its graph
        // adjacency — symmetric by construction of the check in the driver.
        for &id in &g.path_order {
            let mut listed = g.explicit_neighbors[&id].clone();
            listed.sort_unstable();
            listed.dedup();
            let mut actual = g.graph.neighbors_of(id);
            actual.sort_unstable();
            assert_eq!(listed, actual, "node {id}");
        }
        let mut want = degrees.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(g.graph.degree_sequence(), want);
        assert_eq!(g.metrics.undelivered, 0);
    }

    /// The closing phase drops a sort still in flight: at 64 nodes the
    /// control sweep ends inside the comparator network, so its last
    /// exchanges land in the round the hand-off opens, whose first poll
    /// reads no inbox. Nothing is left undelivered and every node lists
    /// exactly its overlay adjacency, on both engines.
    #[test]
    fn explicit_hand_off_ignores_the_dropped_sort() {
        use dgr_primitives::{ops, sort};
        let n = 64;
        let degrees: Vec<usize> = (0..n).map(|i| 1 + i % 4).collect();
        let config = Config::ncc0(37);
        assert!(ops::rounds_for(n, config.capacity(n)) < sort::rounds_for(n));
        for engine in [EngineKind::Batched, EngineKind::Reference] {
            let flavor = Flavor::Explicit;
            let job = prepare_degrees(&degrees, config.clone(), flavor, engine);
            let out = job.unwrap().drive(None).unwrap().output;
            let g = out.expect_realized();
            assert_eq!(g.metrics.undelivered, 0, "{engine:?}");
            assert!(g.metrics.is_clean(), "{engine:?}");
            let groups = phase_groups(&degrees, flavor);
            assert_eq!(groups.len() as u64 + 1, g.phases, "{engine:?}");
            let want = rounds_for(&degrees, flavor, true, g.metrics.capacity);
            assert_eq!(g.metrics.rounds, want, "{engine:?}");
            for &id in &g.path_order {
                let mut listed = g.explicit_neighbors[&id].clone();
                listed.sort_unstable();
                let mut actual = g.graph.neighbors_of(id);
                actual.sort_unstable();
                assert_eq!(listed, actual, "{engine:?} node {id}");
            }
        }
    }

    #[test]
    fn explicit_rejects_non_graphic() {
        let out = realize_for_test(&[3, 3, 1, 1], Config::ncc0(33), Flavor::Explicit);
        assert!(out.is_unrealizable());
    }

    #[test]
    fn star_fan_in_is_paced() {
        // A star forces Δ = n-1 announcements at the hub; receive capacity
        // must never be exceeded at delivery time.
        let n = 48;
        let mut degrees = vec![1usize; n];
        degrees[0] = n - 1;
        let out = realize_for_test(&degrees, Config::ncc0(35), Flavor::Explicit);
        let g = out.expect_realized();
        assert!(g.metrics.max_received_per_round <= g.metrics.capacity);
        assert_eq!(g.graph.degree_sequence()[0], n - 1);
    }

    /// Checks the two Theorem 13 invariants on a realized envelope.
    fn check_envelope(degrees: &[usize], seed: u64) {
        let out = realize_for_test(degrees, Config::ncc0(seed), Flavor::Envelope);
        let g = out.expect_realized();
        let sum: usize = degrees.iter().sum();
        let mut envelope_sum = 0;
        for (i, &id) in g.path_order.iter().enumerate() {
            let d_prime = g.multi_degrees[&id];
            assert!(
                d_prime >= degrees[i],
                "node {i}: envelope {d_prime} < requested {}",
                degrees[i]
            );
            envelope_sum += d_prime;
        }
        assert!(
            envelope_sum <= 2 * sum,
            "Σd' = {envelope_sum} exceeds 2Σd = {}",
            2 * sum
        );
    }

    #[test]
    fn envelopes_odd_sum_sequences() {
        check_envelope(&[3, 3, 1, 0], 11);
        check_envelope(&[1, 0, 0], 12);
        check_envelope(&[5, 3, 3, 2, 2, 2, 1, 1], 13);
    }

    #[test]
    fn envelopes_eg_violating_sequences() {
        check_envelope(&[4, 4, 4, 1, 1], 14);
        check_envelope(&[3, 3, 1, 1], 15);
        check_envelope(&[5, 5, 4, 3, 2, 1], 16);
    }

    #[test]
    fn graphic_input_realizes_exactly() {
        // On a graphic sequence the envelope variant must produce an exact
        // realization with zero discrepancy and zero duplicates.
        let degrees = vec![3, 2, 2, 2, 1];
        let out = realize_for_test(&degrees, Config::ncc0(17), Flavor::Envelope);
        let g = out.expect_realized();
        assert_eq!(g.duplicate_edges, 0);
        let mut want = degrees.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(g.graph.degree_sequence(), want);
    }

    #[test]
    fn rejects_oversized_degrees() {
        let out = realize_for_test(&[3, 1, 1], Config::ncc0(18), Flavor::Envelope);
        assert!(out.is_unrealizable());
    }
}
