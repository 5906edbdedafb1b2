//! The Theorem 3 **randomized** sort backend: a seeded sample-splitter
//! sort over a full-member path, selected via
//! [`SortBackend::RandomizedLogN`](crate::sort::SortBackend).
//!
//! The bitonic backend pays `O(log² n)` comparator stages because every
//! record learns its rank one comparison per round. This backend instead
//! spends the per-round capacity `κ = Θ(log n)` on *data movement*:
//!
//! 1. **Sample** — `S₀ = 3S` path positions are chosen by a seeded
//!    stride rotation (the knowledge path is a uniformly random
//!    permutation of the nodes, so positional samples are uniform node
//!    samples); each carries its `(key, id)` pair.
//! 2. **All-gather** — every node learns every sample pair by a
//!    `⌈log n⌉`-stage doubling all-gather over the power-of-two contact
//!    table: at stage `j` each node trades the halves of its sample
//!    window that its `±2^j` partners lack, two pairs per message,
//!    rate-limited to the capacity. The schedule is a fixed function of
//!    `(n, S₀, κ)`, latency `log n` plus a bandwidth tail of
//!    `~S₀/κ` rounds — no tree funnel, no root bottleneck, and
//!    KT0-legal (the addresses ride in message payloads). Sorted
//!    locally, every third pair is a *bucket boundary* (ties broken by
//!    the sampled node's ID, so equal-key inputs still split uniformly),
//!    and each bucket's three consecutive sample origins form its
//!    **sub-leader trio**.
//! 3. **Scatter** — every node sends its record to a hash-chosen member
//!    of its bucket's trio, at a random round in a spread window that
//!    opens the moment its own splitter list completes (the Las Vegas
//!    Theorem 8 pattern). Hash-splitting — unlike more splitters — cuts
//!    *inside* sample-free key gaps, so the heaviest sub-leader load is
//!    close to a third of the heaviest bucket; receive-side bursts are
//!    absorbed by the **queueing capacity policy**, which this backend
//!    requires. Siblings continuously report their count and extrema to
//!    the bucket's primary.
//! 4. **Scan** — the `S` primaries run hypercube prefix scans (`log S`
//!    rounds per scan, repeated back to back) over the reported bucket
//!    counts. A scan whose grand total equals the path length proves
//!    every record has been delivered *and* reported — and, because
//!    undelivered traffic is exactly what delays scan messages in the
//!    FIFO queues, such a scan is automatically skew-free and unanimous:
//!    either every primary sees the full total or none does. The
//!    successful scan also yields each bucket's exclusive rank offset,
//!    the maximum sub-leader load, and the boundary neighbors across
//!    empty buckets.
//! 5. **Merge + notify** — each primary hands its siblings the bucket
//!    offset and the commonly computed **end round**; the trio exchanges
//!    subsets, so each sub-leader ranks and notifies its own arrivals in
//!    parallel. Every node returns its [`SortedPath`] in lockstep at the
//!    end round.
//!
//! Round complexity: `O(S/κ + n/(Sκ) + log n)` = `O(√n/κ + log n)` at
//! `S ≈ √(n/2)` — asymptotically `o(log² n)`, and concretely below the
//! bitonic stage count from `n ≈ 2¹⁴` (see `engine_bench`'s `sort+rand`
//! rows). The schedule is deterministic for a fixed seed: identical
//! transcripts on both engines and for every worker count.
//!
//! Contract differences from the bitonic backend (enforced by
//! [`SortStep::on_ctx`](crate::sort::SortStep::on_ctx)):
//! the path must be full-member (the total round count is data-dependent,
//! so a non-member cannot idle through it), and the run must use a
//! queueing or recording capacity policy. Below [`RAND_MIN`] nodes the
//! dispatcher silently uses the bitonic network instead.

use crate::contacts::ContactTable;
use crate::ctx::PathCtx;
use crate::sort::{Order, SortedPath};
use crate::step::{Poll, Step};
use crate::vpath::VPath;
use dgr_ncc::{tags, NodeId, RoundCtx, WireMsg};
use rand::Rng;
use std::sync::Arc;

/// Below this path length the randomized backend delegates to the bitonic
/// network: the sample/scatter pipeline only amortizes once the
/// comparator network's `O(log² n)` stage count hurts.
pub const RAND_MIN: usize = 1024;

/// Samples per bucket: the bucket boundary plus two interior samples
/// whose origins complete the sub-leader trio.
const OVERSAMPLE: usize = 3;

/// A record: order-encoded key plus its origin's ID (the tie-breaker).
type Rec = (u64, NodeId);

/// splitmix64 — seeds the sampling rotation and the sub-leader hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of buckets (and hypercube scan participants) for a path of
/// `len` nodes: the power of two near `√(len/2)` (clamped), balancing the
/// root-funnelled sample pipeline against the per-trio bucket drain.
pub fn bucket_count(len: usize) -> usize {
    let root = ((len / 2) as f64).sqrt() as usize;
    root.next_power_of_two().clamp(16, 2048)
}

/// Stride-sampled positions in rotated coordinates: position `q` of `len`
/// is sampled iff the Bresenham accumulator `⌊(q+1)·s0/len⌋` advances.
fn sampled_q(q: usize, s0: usize, len: usize) -> bool {
    ((q as u64 + 1) * s0 as u64) / len as u64 > (q as u64 * s0 as u64) / len as u64
}

/// Number of sampled positions with rotated coordinate in `[a, b]`.
fn sampled_in_q(a: usize, b: usize, s0: usize, len: usize) -> usize {
    debug_assert!(a <= b && b < len);
    (((b as u64 + 1) * s0 as u64) / len as u64 - (a as u64 * s0 as u64) / len as u64) as usize
}

/// One subcube aggregate of the primary scan: record count, maximum
/// sub-leader load, and the origins of the subcube's first and last
/// records.
#[derive(Clone, Copy, Debug, Default)]
struct Agg {
    count: u64,
    max: u64,
    first: Option<NodeId>,
    last: Option<NodeId>,
}

impl Agg {
    /// Concatenation `lo ++ hi` of two aggregates over disjoint,
    /// index-ordered bucket ranges.
    fn concat(lo: Agg, hi: Agg) -> Agg {
        Agg {
            count: lo.count + hi.count,
            max: lo.max.max(hi.max),
            first: lo.first.or(hi.first),
            last: hi.last.or(lo.last),
        }
    }
}

/// In-flight hypercube scan state at a primary.
#[derive(Clone, Copy, Debug)]
struct Scan {
    /// Aggregate of my `j`-subcube so far.
    sub: Agg,
    /// Aggregate of all buckets strictly below mine (exclusive prefix).
    pre: Agg,
    /// Aggregate of all buckets strictly above mine (exclusive suffix).
    suf: Agg,
    /// Whether any expected partner message failed to arrive on time.
    incomplete: bool,
}

/// One sub-leader subset summary: count and extreme records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SubStat {
    count: u64,
    min: Option<Rec>,
    max: Option<Rec>,
}

impl SubStat {
    fn absorb(&mut self, r: Rec) {
        self.count += 1;
        self.min = Some(self.min.map_or(r, |m| m.min(r)));
        self.max = Some(self.max.map_or(r, |m| m.max(r)));
    }
}

/// What phase the step is in (schedule-driven; see the module docs).
#[derive(Debug, PartialEq, Eq)]
enum Phase {
    /// The doubling all-gather of the sample pairs.
    Gather,
    /// Scatter + primary scans until the full total is proven.
    Settle,
    /// Sub-leaders only: subset exchange, ranking, notification.
    Finish,
}

/// The randomized sort as a [`Step`]. Construct through
/// [`SortStep::on_ctx`](crate::sort::SortStep::on_ctx).
#[derive(Debug)]
pub struct RandSortStep {
    // --- immutable setup ---
    vp: VPath,
    contacts: Arc<ContactTable>,
    my_rec: Rec,
    position: usize,
    /// Bucket count (power of two).
    s: usize,
    /// Sample count (`OVERSAMPLE · s`).
    s0: usize,
    phi: usize,
    // --- schedule (internal rounds) ---
    t: u64,
    /// Per-stage round budgets of the all-gather (`r_j` send rounds each,
    /// plus one absorb round).
    stage_rounds: Vec<u64>,
    /// First round after the all-gather completes everywhere.
    gather_end: u64,
    spread: u64,
    delta: u64,
    // --- phase A: doubling all-gather of the samples ---
    /// Sample pairs gathered so far, in *position* order; covers the
    /// contiguous sample-index interval starting at `have_lo`.
    have: Vec<Rec>,
    have_lo: usize,
    /// Current stage and its first round.
    stage: usize,
    stage_start: u64,
    /// Arrivals from the left partner this stage (ascending; merged in
    /// front of `have` when the stage closes).
    left_in: Vec<Rec>,
    /// Per-direction send cursors (absolute sample indices): next and
    /// one-past-last. `[left, right]`.
    send_next: [usize; 2],
    send_end: [usize; 2],
    /// All `s0` sample pairs sorted by record, once the gather is done;
    /// every `OVERSAMPLE`-th is a bucket boundary, each triple's origins
    /// a sub-leader trio.
    samples: Vec<Rec>,
    // --- phase C/D: scatter + sub-leader state ---
    scatter_round: Option<u64>,
    /// My global sample index, if I am a sub-leader.
    my_gi: Option<usize>,
    /// My subset of scattered records (sub-leaders).
    sub: Vec<Rec>,
    own_stat: SubStat,
    /// Primary only: the latest sibling reports (slots 1 and 2).
    sib: [SubStat; 2],
    /// Sibling only: the last report sent.
    reported: SubStat,
    scan: Option<Scan>,
    // --- phase E: merge + notify ---
    /// Bucket rank offset, boundary origins, expected exchange records.
    go: Option<(u64, Option<NodeId>, Option<NodeId>, u64)>,
    merged: Vec<Rec>,
    exch_next: [usize; 2],
    notify: Vec<(NodeId, u64, Option<NodeId>, Option<NodeId>)>,
    ranked: bool,
    my_rank: Option<(usize, Option<NodeId>, Option<NodeId>)>,
    t_end: Option<u64>,
    phase: Phase,
}

impl RandSortStep {
    /// Builds the step from an established [`PathCtx`].
    ///
    /// # Panics
    ///
    /// Panics if the context is not a member view — the randomized
    /// backend's round count is data-dependent, so non-members cannot
    /// idle through it (use the bitonic backend for sub-path sorts).
    pub fn new(ctx: &PathCtx, key: u64, order: Order, my_id: NodeId, seed: u64) -> Self {
        assert!(
            ctx.vp.member,
            "randomized sort requires a full-member path (non-members cannot \
             idle through a data-dependent round count)"
        );
        let len = ctx.vp.len;
        let s = bucket_count(len);
        let s0 = OVERSAMPLE * s;
        debug_assert!(s0 <= len, "sample count exceeds the path");
        let phi = (mix(seed) % len as u64) as usize;
        RandSortStep {
            vp: ctx.vp,
            contacts: ctx.contacts.clone(),
            my_rec: (order.encode_key(key), my_id),
            position: ctx.position,
            s,
            s0,
            phi,
            t: 0,
            stage_rounds: Vec::new(),
            gather_end: 0,
            spread: 0,
            delta: s.trailing_zeros() as u64 + 1,
            have: Vec::new(),
            have_lo: 0,
            stage: 0,
            stage_start: 0,
            left_in: Vec::new(),
            send_next: [0; 2],
            send_end: [0; 2],
            samples: Vec::new(),
            scatter_round: None,
            my_gi: None,
            sub: Vec::new(),
            own_stat: SubStat::default(),
            sib: [SubStat::default(); 2],
            reported: SubStat::default(),
            scan: None,
            go: None,
            merged: Vec::new(),
            exch_next: [0; 2],
            notify: Vec::new(),
            ranked: false,
            my_rank: None,
            t_end: None,
            phase: Phase::Gather,
        }
    }

    /// Is rotated-coordinate sampling active at `position`?
    fn sampled(&self, position: usize) -> bool {
        let len = self.vp.len;
        sampled_q((position + self.phi) % len, self.s0, len)
    }

    /// Samples inside the inclusive position interval `[lo, hi]`.
    fn samples_in(&self, lo: usize, hi: usize) -> usize {
        let len = self.vp.len;
        let a = (lo + self.phi) % len;
        let b = (hi + self.phi) % len;
        if a <= b {
            sampled_in_q(a, b, self.s0, len)
        } else {
            sampled_in_q(a, len - 1, self.s0, len) + sampled_in_q(0, b, self.s0, len)
        }
    }

    /// The bucket of a record: index of the greatest boundary sample
    /// `≤` it (records below every boundary share bucket 0).
    fn bucket_of(&self, rec: Rec) -> usize {
        let p = self.samples.partition_point(|s| *s <= rec);
        p.saturating_sub(1) / OVERSAMPLE
    }

    /// The sub-leader trio of a bucket (origins of its three samples).
    fn trio(&self, bucket: usize) -> [NodeId; 3] {
        let base = bucket * OVERSAMPLE;
        [
            self.samples[base].1,
            self.samples[base + 1].1,
            self.samples[base + 2].1,
        ]
    }

    /// The hash-chosen sub-leader for a record (its scatter target).
    fn sub_target(&self, rec: Rec) -> NodeId {
        let bucket = self.bucket_of(rec);
        self.trio(bucket)[(mix(rec.1) % OVERSAMPLE as u64) as usize]
    }

    /// Sample-index prefix: number of sampled positions strictly below
    /// position `x`.
    fn si(&self, x: usize) -> usize {
        if x == 0 {
            0
        } else {
            self.samples_in(0, x.min(self.vp.len) - 1)
        }
    }

    /// Per-direction message budget of one all-gather round (a node
    /// exchanges with both its stage partners, plus two rounds of slack
    /// for unrelated traffic).
    fn gather_batch(cap: usize) -> u64 {
        (cap.saturating_sub(2) / 2).max(1) as u64
    }

    /// Fixed schedule, derivable once the capacity is known.
    fn set_budgets(&mut self, cap: usize) {
        let len = self.vp.len;
        let bd = Self::gather_batch(cap);
        self.stage_rounds = (0..self.vp.levels())
            .map(|j| {
                // Worst-case pairs handed to one partner in stage j: the
                // samples in a window of 2^j positions (stride bound).
                let pairs = ((1u64 << j) * self.s0 as u64) / len as u64 + 1;
                pairs.div_ceil(2).div_ceil(bd).max(1)
            })
            .collect();
        self.gather_end = self.stage_rounds.iter().map(|r| r + 1).sum();
        let bbar = (len as u64).div_ceil(self.s as u64);
        self.spread = bbar.div_ceil(OVERSAMPLE as u64 * cap as u64).max(1);
    }

    /// Opens all-gather stage `j`: computes the two directed send ranges
    /// (sample-index intervals) from the window geometry.
    fn begin_stage(&mut self, j: usize) {
        let (p, len, w) = (self.position, self.vp.len, 1usize << j);
        self.stage = j;
        self.left_in.clear();
        // To the left partner: my positions [p, p + w - 1] (its missing
        // right half); to the right partner: [p - w + 1, p] (its missing
        // left half). Both are within my current window.
        let left_range = (self.si(p), self.si((p + w - 1).min(len - 1) + 1));
        let right_range = (self.si(p.saturating_sub(w - 1)), self.si(p + 1));
        let has_left = self.contacts.behind(j).is_some();
        let has_right = self.contacts.ahead(j).is_some();
        self.send_next = [left_range.0, right_range.0];
        self.send_end = [
            if has_left { left_range.1 } else { left_range.0 },
            if has_right {
                right_range.1
            } else {
                right_range.0
            },
        ];
    }

    /// One all-gather round: absorb partner slices, stream my own.
    fn gather_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let j = self.stage;
        let (left, right) = (self.contacts.behind(j), self.contacts.ahead(j));
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::RSORT_UP) {
            let words = env.msg.words_slice();
            let addrs = env.msg.addrs_slice();
            let pairs = words.iter().zip(addrs.iter()).map(|(w, a)| (*w, *a));
            if Some(env.src) == left {
                self.left_in.extend(pairs);
            } else {
                debug_assert_eq!(Some(env.src), right, "gather message off-stage");
                self.have.extend(pairs);
            }
        }
        if self.t >= self.stage_start + self.stage_rounds[j] {
            return; // the stage's absorb round: no more sends
        }
        let bd = Self::gather_batch(ctx.capacity());
        for dir in 0..2 {
            let Some(partner) = (if dir == 0 { left } else { right }) else {
                continue;
            };
            let mut staged = 0;
            while staged < bd && self.send_next[dir] < self.send_end[dir] {
                let at = self.send_next[dir] - self.have_lo;
                let a = self.have[at];
                let b = (self.send_next[dir] + 1 < self.send_end[dir]).then(|| self.have[at + 1]);
                let mut msg = WireMsg::addr_word(tags::RSORT_UP, a.1, a.0);
                if let Some(b) = b {
                    msg = msg.with_word(b.0).with_addr(b.1);
                }
                ctx.send(partner, msg);
                self.send_next[dir] += if b.is_some() { 2 } else { 1 };
                staged += 1;
            }
        }
    }

    /// Closes the current stage (its absorb round has run): merges the
    /// left arrivals in front and advances. Returns true when the gather
    /// is complete.
    fn close_stage(&mut self) -> bool {
        self.have_lo -= self.left_in.len();
        let mut merged = std::mem::take(&mut self.left_in);
        merged.append(&mut self.have);
        self.have = merged;
        if self.stage + 1 < self.stage_rounds.len() {
            let next = self.stage + 1;
            self.begin_stage(next);
            self.stage_start = self.t + 1;
            return false;
        }
        assert_eq!(self.have.len(), self.s0, "all-gather missed samples");
        self.samples = std::mem::take(&mut self.have);
        self.samples.sort_unstable();
        true
    }

    /// Sample list complete (lockstep): discover a sub-leader role and
    /// schedule (or locally apply) the scatter.
    fn on_samples_complete(&mut self, ctx: &mut RoundCtx<'_>) {
        debug_assert_eq!(self.samples.len(), self.s0);
        self.my_gi = self.samples.iter().position(|&(_, o)| o == self.my_rec.1);
        let target = self.sub_target(self.my_rec);
        if target == self.my_rec.1 {
            self.sub.push(self.my_rec);
            self.own_stat.absorb(self.my_rec);
        } else {
            let r = ctx.rng().gen_range(0..self.spread);
            self.scatter_round = Some(self.t + 1 + r);
        }
    }

    /// Absorb scattered records (sub-leaders may receive them before
    /// their own sample list completes, so absorption is unconditional).
    fn absorb_records(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::RSORT_REC) {
            let rec = (env.word(), env.src);
            self.sub.push(rec);
            self.own_stat.absorb(rec);
        }
    }

    /// Primary: absorb sibling count/extrema reports.
    fn absorb_reports(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::RSORT_CNT) {
            let (Some(gi), true) = (self.my_gi, self.samples.len() == self.s0) else {
                continue;
            };
            let trio = self.trio(gi / OVERSAMPLE);
            let slot = if env.src == trio[1] {
                0
            } else if env.src == trio[2] {
                1
            } else {
                continue;
            };
            let words = env.msg.words_slice();
            let addrs = env.msg.addrs_slice();
            self.sib[slot] = SubStat {
                count: words[0],
                min: addrs.first().map(|&a| (words[1], a)),
                max: addrs.get(1).map(|&a| (words[2], a)),
            };
        }
    }

    /// Sibling: report count/extrema to the primary when they changed.
    fn report_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let Some(gi) = self.my_gi else { return };
        if gi % OVERSAMPLE == 0 || self.go.is_some() || self.own_stat == self.reported {
            return;
        }
        let primary = self.trio(gi / OVERSAMPLE)[0];
        let stat = self.own_stat;
        let (min, max) = (stat.min.expect("count>0"), stat.max.expect("count>0"));
        let msg = WireMsg::words(tags::RSORT_CNT, &[stat.count, min.0, max.0])
            .with_addr(min.1)
            .with_addr(max.1);
        ctx.send(primary, msg);
        self.reported = stat;
    }

    /// The bucket-level stat a primary scans with: its own subset plus
    /// the latest sibling reports.
    fn bucket_stat(&self) -> (u64, u64, Option<Rec>, Option<Rec>) {
        let mut count = self.own_stat.count;
        let mut maxload = self.own_stat.count;
        let mut min = self.own_stat.min;
        let mut max = self.own_stat.max;
        for s in &self.sib {
            count += s.count;
            maxload = maxload.max(s.count);
            min = match (min, s.min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            max = match (max, s.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        (count, maxload, min, max)
    }

    /// The scan's step-`j` partner exchange; returns success at `j = d`.
    fn scan_round(&mut self, ctx: &mut RoundCtx<'_>, scan_idx: u64, j: u64) -> bool {
        let b = (self.my_gi.expect("scan at a non-leader") / OVERSAMPLE) as u64;
        let d = self.s.trailing_zeros() as u64;
        if j == 0 {
            let (count, maxload, min, max) = self.bucket_stat();
            self.scan = Some(Scan {
                sub: Agg {
                    count,
                    max: maxload,
                    first: min.map(|m| m.1),
                    last: max.map(|m| m.1),
                },
                pre: Agg::default(),
                suf: Agg::default(),
                incomplete: false,
            });
        } else {
            // Absorb the step-(j-1) partner message.
            let expected = b ^ (1 << (j - 1));
            let mut scan = self.scan.take().expect("scan state missing");
            let env = ctx.inbox().iter().find(|e| {
                e.msg.tag == tags::RSORT_SCAN
                    && e.msg.words_slice()[0] == scan_idx
                    && e.msg.words_slice()[1] == expected
            });
            match env {
                None => scan.incomplete = true,
                Some(env) => {
                    let words = env.msg.words_slice();
                    let addrs = env.msg.addrs_slice();
                    let partner = Agg {
                        count: words[2],
                        max: words[3],
                        first: addrs.first().copied(),
                        last: addrs.get(1).copied(),
                    };
                    if expected < b {
                        scan.pre = Agg::concat(partner, scan.pre);
                        scan.sub = Agg::concat(partner, scan.sub);
                    } else {
                        scan.suf = Agg::concat(scan.suf, partner);
                        scan.sub = Agg::concat(scan.sub, partner);
                    }
                }
            }
            self.scan = Some(scan);
        }
        if j == d {
            let scan = self.scan.expect("scan state missing");
            return !scan.incomplete && scan.sub.count == self.vp.len as u64;
        }
        // Send my current subcube aggregate to the step-j partner.
        let scan = self.scan.as_ref().expect("scan state missing");
        let partner = (b ^ (1 << j)) as usize;
        let partner_id = self.samples[partner * OVERSAMPLE].1;
        let mut msg = WireMsg::words(
            tags::RSORT_SCAN,
            &[scan_idx, b, scan.sub.count, scan.sub.max],
        );
        if let Some(first) = scan.sub.first {
            msg = msg.with_addr(first);
            msg = msg.with_addr(scan.sub.last.expect("first without last"));
        }
        ctx.send(partner_id, msg);
        false
    }

    /// Successful scan at a primary: fix the end round, hand the bucket
    /// offset to the siblings, and enter the merge phase.
    fn succeed(&mut self, ctx: &mut RoundCtx<'_>) {
        let scan = self.scan.expect("success without a scan");
        let cap = ctx.capacity().max(1) as u64;
        let exch = scan
            .sub
            .max
            .div_ceil(2)
            .div_ceil((cap.saturating_sub(2) / 2).max(1));
        let notify = scan.sub.max.div_ceil(cap.saturating_sub(2).max(1));
        let t_end = ctx.round() + exch + notify + 8;
        self.t_end = Some(t_end);
        let gi = self.my_gi.expect("primary without a sample index");
        let trio = self.trio(gi / OVERSAMPLE);
        let offset = scan.pre.count;
        for (slot, &sib_id) in trio.iter().enumerate().skip(1) {
            // Each sibling learns the two *other* subset counts so it can
            // detect the completion of its own merge.
            let others = match slot {
                1 => self.own_stat.count << 32 | self.sib[1].count,
                _ => self.own_stat.count << 32 | self.sib[0].count,
            };
            let flags = (u64::from(scan.pre.last.is_some()) << 62)
                | (u64::from(scan.suf.first.is_some()) << 63);
            let mut msg = WireMsg::words(tags::RSORT_GO, &[offset | flags, t_end, others]);
            if let Some(p) = scan.pre.last {
                msg = msg.with_addr(p);
            }
            if let Some(s) = scan.suf.first {
                msg = msg.with_addr(s);
            }
            ctx.send(sib_id, msg);
        }
        let expected = self.sib[0].count + self.sib[1].count;
        self.go = Some((offset, scan.pre.last, scan.suf.first, expected));
        self.phase = Phase::Finish;
    }

    /// Sibling: absorb the primary's go signal.
    fn absorb_go(&mut self, ctx: &RoundCtx<'_>) {
        if self.go.is_some() {
            return;
        }
        if let Some(env) = ctx.inbox().iter().find(|e| e.msg.tag == tags::RSORT_GO) {
            let words = env.msg.words_slice();
            let offset = words[0] & ((1 << 62) - 1);
            let flags = words[0] >> 62;
            let mut addrs = env.msg.addrs_slice().iter().copied();
            let pre = (flags & 1 != 0).then(|| addrs.next().expect("missing pre address"));
            let suf = (flags & 2 != 0).then(|| addrs.next().expect("missing suf address"));
            let expected = (words[2] >> 32) + (words[2] & 0xFFFF_FFFF);
            self.t_end = Some(words[1]);
            self.go = Some((offset, pre, suf, expected));
            self.phase = Phase::Finish;
        }
    }

    /// Sub-leaders: absorb exchanged subset records.
    fn absorb_exchange(&mut self, ctx: &RoundCtx<'_>) {
        for env in ctx.inbox().iter().filter(|e| e.msg.tag == tags::RSORT_XCH) {
            let words = env.msg.words_slice();
            let addrs = env.msg.addrs_slice();
            for (w, a) in words.iter().zip(addrs.iter()) {
                self.merged.push((*w, *a));
            }
        }
    }

    /// Finish phase: stream my subset to both siblings, and once the
    /// merge is complete, rank my own arrivals and notify them.
    fn finish_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let gi = self.my_gi.expect("finish at a non-leader");
        let trio = self.trio(gi / OVERSAMPLE);
        let slot = gi % OVERSAMPLE;
        let siblings: Vec<NodeId> = (0..OVERSAMPLE)
            .filter(|&i| i != slot)
            .map(|i| trio[i])
            .collect();
        // Per-sibling exchange batch, leaving slack for a straggling
        // scatter/report message in the same round.
        let batch = (ctx.capacity().saturating_sub(2) / 2).max(1);
        let mut sent_exch = 0;
        for (k, &sib_id) in siblings.iter().enumerate() {
            let mut staged = 0;
            while staged < batch && self.exch_next[k] < self.sub.len() {
                let a = self.sub[self.exch_next[k]];
                let b = self.sub.get(self.exch_next[k] + 1).copied();
                let mut msg = WireMsg::addr_word(tags::RSORT_XCH, a.1, a.0);
                if let Some(b) = b {
                    msg = msg.with_word(b.0).with_addr(b.1);
                }
                ctx.send(sib_id, msg);
                self.exch_next[k] += if b.is_some() { 2 } else { 1 };
                staged += 1;
            }
            sent_exch += staged;
        }
        let (offset, pre, suf, expected) = self.go.expect("finish without go data");
        if !self.ranked && self.merged.len() as u64 == expected {
            self.ranked = true;
            let mut full: Vec<Rec> = self.sub.iter().chain(self.merged.iter()).copied().collect();
            full.sort_unstable();
            let mine: std::collections::HashSet<Rec> = self.sub.iter().copied().collect();
            let last = full.len().saturating_sub(1);
            for (i, &rec) in full.iter().enumerate() {
                if !mine.contains(&rec) {
                    continue;
                }
                let rank = offset as usize + i;
                let p = if i > 0 { Some(full[i - 1].1) } else { pre };
                let s = if i < last { Some(full[i + 1].1) } else { suf };
                if rec.1 == self.my_rec.1 {
                    self.my_rank = Some((rank, p, s));
                } else {
                    self.notify.push((rec.1, rank as u64, p, s));
                }
            }
            self.notify.reverse(); // drain from the back = rank order
        }
        // Notify only in rounds where no exchange records were staged, so
        // the combined sends of one round never exceed the capacity.
        if self.ranked && sent_exch == 0 {
            let nb = (ctx.capacity().saturating_sub(2)).max(1);
            let t_end = self.t_end.expect("notify without an end round");
            for _ in 0..nb.min(self.notify.len()) {
                let (origin, rank, pred, succ) = self.notify.pop().unwrap();
                let flags = (u64::from(pred.is_some()) << 62) | (u64::from(succ.is_some()) << 63);
                let mut msg = WireMsg::words(tags::RSORT_RANK, &[rank | flags, t_end]);
                if let Some(p) = pred {
                    msg = msg.with_addr(p);
                }
                if let Some(s) = succ {
                    msg = msg.with_addr(s);
                }
                ctx.send(origin, msg);
            }
        }
    }

    /// Non-leaders (and sub-leaders, harmlessly): absorb a rank
    /// notification.
    fn absorb_rank(&mut self, ctx: &RoundCtx<'_>) {
        if self.my_rank.is_some() {
            return;
        }
        if let Some(env) = ctx.inbox().iter().find(|e| e.msg.tag == tags::RSORT_RANK) {
            let words = env.msg.words_slice();
            let (packed, t_end) = (words[0], words[1]);
            let rank = (packed & ((1 << 62) - 1)) as usize;
            let mut addrs = env.msg.addrs_slice().iter().copied();
            let pred = (packed >> 62) & 1 != 0;
            let succ = (packed >> 63) & 1 != 0;
            let pred = pred.then(|| addrs.next().expect("missing pred address"));
            let succ = succ.then(|| addrs.next().expect("missing succ address"));
            self.my_rank = Some((rank, pred, succ));
            self.t_end = Some(t_end);
        }
    }
}

impl Step for RandSortStep {
    type Out = SortedPath;

    fn poll(&mut self, ctx: &mut RoundCtx<'_>) -> Poll<SortedPath> {
        if self.t == 0 {
            self.set_budgets(ctx.capacity());
            self.have_lo = self.si(self.position);
            if self.sampled(self.position) {
                self.have.push(self.my_rec);
            }
            self.begin_stage(0);
            self.stage_start = 0;
        }
        // Scatter/report/exchange traffic is event-driven, so these
        // absorb unconditionally in every phase.
        self.absorb_records(ctx);
        self.absorb_reports(ctx);
        self.absorb_rank(ctx);
        if self.phase == Phase::Settle {
            self.absorb_go(ctx);
        }
        self.absorb_exchange(ctx);
        match self.phase {
            Phase::Gather => {
                self.gather_round(ctx);
                let stage_close = self.stage_start + self.stage_rounds[self.stage];
                if self.t == stage_close && self.close_stage() {
                    self.phase = Phase::Settle;
                    self.on_samples_complete(ctx);
                }
            }
            Phase::Settle => {
                self.report_round(ctx);
                let is_primary = self.my_gi.is_some_and(|gi| gi % OVERSAMPLE == 0);
                if is_primary && self.t >= self.gather_end {
                    let rel = self.t - self.gather_end;
                    let (scan_idx, j) = (rel / self.delta, rel % self.delta);
                    let d = self.s.trailing_zeros() as u64;
                    if j <= d && self.scan_round(ctx, scan_idx, j) {
                        self.succeed(ctx);
                    }
                }
            }
            Phase::Finish => {
                self.finish_round(ctx);
            }
        }
        if self.scatter_round == Some(self.t) {
            let target = self.sub_target(self.my_rec);
            ctx.send(target, WireMsg::word(tags::RSORT_REC, self.my_rec.0));
            self.scatter_round = None;
        }
        self.t += 1;
        if let (Some(t_end), Some((rank, pred, succ))) = (self.t_end, self.my_rank) {
            if ctx.round() + 1 == t_end {
                debug_assert!(self.notify.is_empty(), "notifications outlived the epoch");
                return Poll::Ready(SortedPath {
                    rank,
                    vp: VPath {
                        member: true,
                        pred,
                        succ,
                        len: self.vp.len,
                    },
                });
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_sampling_is_exact() {
        for len in [1024usize, 1100, 4096, 100_000] {
            let s = bucket_count(len);
            let s0 = OVERSAMPLE * s;
            let count = (0..len).filter(|&q| sampled_q(q, s0, len)).count();
            assert_eq!(count, s0, "len={len}");
            // Interval counts agree with the predicate.
            let f = |a: usize, b: usize| sampled_in_q(a, b, s0, len);
            assert_eq!(f(0, len - 1), s0);
            let mid = len / 3;
            assert_eq!(
                f(0, mid) + f(mid + 1, len - 1),
                s0,
                "interval split disagrees (len={len})"
            );
        }
    }

    #[test]
    fn bucket_count_scales_like_root_n() {
        assert_eq!(bucket_count(1024), 32);
        assert_eq!(bucket_count(16_384), 128);
        assert_eq!(bucket_count(100_000), 256);
        assert_eq!(bucket_count(1 << 23), 2048); // clamped
    }

    #[test]
    fn agg_concat_orders_boundaries() {
        let lo = Agg {
            count: 2,
            max: 2,
            first: Some(10),
            last: Some(11),
        };
        let hi = Agg {
            count: 1,
            max: 1,
            first: Some(20),
            last: Some(20),
        };
        let both = Agg::concat(lo, hi);
        assert_eq!(both.count, 3);
        assert_eq!(both.first, Some(10));
        assert_eq!(both.last, Some(20));
        // Empty blocks are transparent on either side.
        let empty = Agg::default();
        let a = Agg::concat(empty, hi);
        assert_eq!((a.first, a.last), (Some(20), Some(20)));
        let b = Agg::concat(lo, empty);
        assert_eq!((b.first, b.last), (Some(10), Some(11)));
    }

    use crate::sort::SortBackend;
    use crate::sort::SortStep;
    use crate::WithCtx;
    use dgr_ncc::{Config, Network};

    /// Runs the randomized sort end to end on the batched engine and
    /// checks the full [`SortedPath`] contract.
    fn run_rand_sort(n: usize, seed: u64, order: Order, key_of: impl Fn(NodeId) -> u64 + Sync) {
        let config = Config::ncc0(seed).with_queueing();
        let net = Network::new(n, config);
        let key_of = &key_of;
        let result = net
            .run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    SortStep::on_ctx(
                        ctx,
                        key_of(rctx.id()),
                        order,
                        rctx.id(),
                        SortBackend::RandomizedLogN { seed: 7 },
                    )
                })
            })
            .unwrap();
        assert!(
            result.metrics.is_clean(),
            "n={n}: {:?}",
            result.metrics.violations
        );
        // Ranks are a permutation, keys are ordered, links match ranks.
        let mut by_rank: Vec<(usize, u64, NodeId, SortedPath)> = result
            .outputs
            .iter()
            .map(|(id, sp)| (sp.rank, key_of(*id), *id, *sp))
            .collect();
        by_rank.sort_unstable_by_key(|(r, ..)| *r);
        for (want, (got, ..)) in by_rank.iter().enumerate() {
            assert_eq!(*got, want, "ranks not a permutation (n={n})");
        }
        for w in by_rank.windows(2) {
            let ((_, k0, id0, _), (_, k1, id1, _)) = (w[0], w[1]);
            match order {
                Order::Ascending => assert!((k0, id0) < (k1, id1)),
                Order::Descending => assert!(k0 > k1 || (k0 == k1 && id0 < id1)),
            }
        }
        for (i, (_, _, _, sp)) in by_rank.iter().enumerate() {
            let want_pred = (i > 0).then(|| by_rank[i - 1].2);
            let want_succ = (i + 1 < n).then(|| by_rank[i + 1].2);
            assert_eq!(sp.vp.pred, want_pred, "rank {i} pred (n={n})");
            assert_eq!(sp.vp.succ, want_succ, "rank {i} succ (n={n})");
            assert!(sp.vp.member);
            assert_eq!(sp.vp.len, n);
        }
    }

    #[test]
    fn randomized_sort_small_and_medium() {
        run_rand_sort(1024, 5, Order::Ascending, |id| id % 97);
        run_rand_sort(1500, 6, Order::Descending, |id| id % 13);
        run_rand_sort(2048, 7, Order::Ascending, |id| id);
    }

    #[test]
    fn randomized_sort_survives_all_equal_keys() {
        // Ties split by ID through the splitter tie-break: no bucket
        // collapses even when every key is identical.
        run_rand_sort(2048, 8, Order::Descending, |_| 42);
    }

    #[test]
    fn randomized_sort_is_deterministic_and_engine_invariant() {
        let run = |workers: usize| {
            let config = Config::ncc0(11)
                .with_queueing()
                .with_worker_threads(workers);
            let net = Network::new(1200, config);
            let result = net
                .run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        SortStep::on_ctx(
                            ctx,
                            rctx.id() % 31,
                            Order::Ascending,
                            rctx.id(),
                            SortBackend::RandomizedLogN { seed: 3 },
                        )
                    })
                })
                .unwrap();
            let ranks: Vec<(NodeId, usize)> = result
                .outputs
                .iter()
                .map(|(id, sp)| (*id, sp.rank))
                .collect();
            (ranks, result.metrics)
        };
        let (r1, m1) = run(1);
        let (r4, m4) = run(4);
        assert_eq!(r1, r4, "worker count changed the outcome");
        assert_eq!(m1, m4, "worker count changed the transcript metrics");
    }

    #[test]
    #[ignore = "five-digit n; run with --ignored (release recommended)"]
    fn randomized_sort_beats_bitonic_rounds_at_2_pow_14() {
        let n = 1 << 14;
        let run = |backend: SortBackend| {
            let net = Network::new(n, Config::ncc0(44).with_queueing());
            net.run_protocol(|_| {
                WithCtx::new(move |ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                    SortStep::on_ctx(ctx, rctx.id() % 1000, Order::Descending, rctx.id(), backend)
                })
            })
            .unwrap()
            .metrics
            .rounds
        };
        let bitonic = run(SortBackend::Bitonic);
        let rand = run(SortBackend::RandomizedLogN { seed: 9 });
        assert!(
            rand < bitonic,
            "randomized sort did not beat bitonic at n=2^14: {rand} >= {bitonic}"
        );
    }
}
