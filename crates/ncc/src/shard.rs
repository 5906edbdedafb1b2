//! The round loop of the batched executor.
//!
//! **Layout.** The dense index space `0..n` (the path positions) is split into `S`
//! contiguous ranges, one **shard** per range (`S` is
//! [`Config::shards`], or derived from `n` and the worker count — see
//! [`Config::shard_count`]). Each shard owns a private copy of every
//! piece of per-node engine state — slot arena, staging arena, routing
//! buffers, queue arenas, knowledge-tracker arena — sized to its own
//! span, so every phase below that runs per shard touches nothing outside
//! it: no cross-shard `&mut` aliasing, no whole-pool prefix sums. A
//! round's traffic is held once per phase, in the shape that phase reads:
//! the step writes [`Staged`] sends (message, destination ID, dense
//! index) into the shard's one staging arena, each slot keeping only its
//! span; the seal validates over those spans; the exchange scatters
//! 64-byte [`WireEnvelope`]s (sender, message) into the delivery buckets,
//! and from there on the bucket *is* the destination — and, read where it
//! lies, the destination's inbox. The shard is
//! the only unit of parallelism: a per-shard phase runs on
//! `min(workers, S)` threads ([`for_each_shard`]), the calling thread
//! walking the first contiguous group of shards itself. `S = 1` is simply
//! the degenerate case — one shard, no cross-shard traffic, no thread
//! ever started.
//!
//! **The round**, in order ([`Run::round`] reads the same way):
//!
//! 1. *churn-in* — scheduled recoveries and joins un-park their slots;
//! 2. *step* (per shard) — poll every live protocol over its inbox span,
//!    its sends appended to the shard's staging arena;
//! 3. *retire / marks* — newly finished nodes leave the aliveness map,
//!    the shards' mark journals are narrated in shard order;
//! 4. *churn-out* — scheduled crashes take effect after the step;
//! 5. *compact* — once the live population has halved relative to the
//!    slot window, every shard drops its retired slots (stable, in
//!    place), so all later walks pay only for live nodes;
//! 6. *seal* (per source shard) — validate each staged send in slot
//!    order, count local destinations, divert sends owned by another
//!    shard into the shard's per-destination **exchange cells**;
//! 7. *exchange* (per destination shard) — count the incoming cells into
//!    the local buckets, prefix-sum them, and splice sources in
//!    **canonical shard order**: cells from shards `0..s`, the shard's
//!    own staged spans, cells from shards `s+1..S`;
//! 8. *fault pass* (per destination shard, right after its exchange;
//!    fault windows only) — each sealed message is dropped, delivered or
//!    duplicated by its own identity's fate, and reordered buckets
//!    shuffled by their own key (see [`crate::scenario`]);
//! 9. *deliver* (per shard) — every inbox becomes a span of the route
//!    arena (queue policy: `cap` of backlog ++ bucket); capacity checks;
//! 10. *learn* (per shard, tracked runs only) — delivered envelopes feed
//!     the KT0 tracker.
//!
//! **Canonical order.** Shard ranges partition the dense index space in
//! ascending order and every per-shard walk visits slots in slot order,
//! so *shard order × slot order = dense order*: the exchange splice puts
//! bucket contents in exactly the dense source order the reference
//! interpreter routes in; each shard journals its violations in slot order and the
//! coordinator replays the journals in shard order, so a strict abort
//! blames the same first violation; a fault's fate depends on no walk at
//! all. Round-level folds (message counts, max sends/receives/queues,
//! fault tallies) are sums and maxes, commutative by construction. Hence
//! transcripts, metrics, raw [`RunEvent`] streams and abort errors are
//! bit-identical at every shard × worker combination (the shard-,
//! scenario- and worker-matrix suites hold the loop to that).
//!
//! **Events.** Every run narrates itself as a typed
//! [`RunEvent`](crate::event) stream through a shared [`Emitter`]. The
//! loop keeps no separate statistics: [`EngineStats`](crate::EngineStats)
//! counters and the per-phase round breakdown are derived by folding this
//! stream through the emitter's always-on recorder.

use crate::batch::{route_mode, step_slot, validate, Life, Slot, StepOutcome};
use crate::config::{CapacityPolicy, Config, Model};
use crate::error::{SimError, Violation, ViolationKind};
use crate::event::{Emitter, RunEvent, Sink};
use crate::knowledge::KnowledgeTracker;
use crate::message::NodeId;
use crate::metrics::{vec_bytes, Footprint, RunMetrics};
use crate::network::{Network, RunResult, Steps};
use crate::protocol::{Marks, NodeProtocol, NodeSeed};
use crate::route::{QueueBuffers, RouteBuffers};
use crate::scenario::{ChurnKind, FaultTally, RoundFaults, ScenarioRt};
use crate::wire::{Staged, WireEnvelope, NO_INDEX, WIRE_ADDRS, WIRE_WORDS};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// One exchange cell: envelopes bound for another shard, each with its
/// (global) dense destination index.
type Cell = Vec<(u32, WireEnvelope)>;

/// The exchange cells of all shards, `[src][dst]`.
type CellTable = Vec<Vec<Cell>>;

/// The run's constants, fixed at setup, which every shard phase reads:
/// the network handle (IDs, resolver, configuration), the ownership map
/// and the NCC1 ID list.
pub(crate) struct RunShared {
    pub(crate) net: Network,
    pub(crate) cap: usize,
    /// Threads a per-shard phase runs on: `min(workers, shards)`.
    threads: usize,
    track: bool,
    queue_mode: bool,
    /// First dense index of every shard, ascending: shard `s` owns
    /// `bases[s]..bases[s + 1]` (the last one up to `n`).
    bases: Vec<usize>,
    pub(crate) all_ids: Option<Arc<Vec<NodeId>>>,
}

impl RunShared {
    /// Owner of a dense index (sends carry global dense indices, rebased
    /// to shard-local only at the owning shard).
    fn shard_of(&self, dense: usize) -> usize {
        self.bases.partition_point(|&b| b <= dense) - 1
    }

    /// Width of shard `s`'s dense-index span.
    fn width_of(&self, s: usize) -> usize {
        self.bases.get(s + 1).copied().unwrap_or(self.net.n()) - self.bases[s]
    }
}

/// One ownership shard: every piece of per-node engine state for one
/// contiguous dense-index range, plus the shard's per-round journals and
/// fold accumulators (replayed/folded by the coordinator in shard order).
struct ShardState<P: NodeProtocol> {
    /// First dense index this shard owns.
    base: u32,
    /// Width of the owned dense-index span (fixed for the whole run —
    /// compaction shrinks the slot *window*, never the ownership range).
    width: usize,
    /// The shard's slots, in dense-index order within the shard.
    slots: Vec<Slot<P>>,
    /// Outputs of retired-and-compacted slots (global dense index key).
    done: Vec<(u32, NodeId, P::Output)>,
    /// This round's sends of every slot, in slot order: cleared at the
    /// top of the step, appended to by each stepping node, read by the
    /// seal and the exchange through the slots' `out_start`/`out_len`
    /// spans. One allocation a shard, at its high-water round.
    staged: Vec<Staged>,
    /// Routing buffers over **local** indices `0..width`.
    buffers: RouteBuffers,
    /// Queue arenas over local indices (zero-sized off the Queue policy).
    queues: QueueBuffers,
    /// This shard's rows of the KT0 tracker, indexed locally.
    knowledge: KnowledgeTracker,
    /// The exchange cells this shard fills as a *source*: row `d` holds
    /// the envelopes diverted toward shard `d` this round, in slot order
    /// (the shard's own row stays empty). Cleared with capacity
    /// retained at the start of each seal, so steady-state rounds never
    /// allocate through them; lent to the coordinator's [`CellTable`]
    /// for the duration of the exchange.
    cells: Vec<Cell>,
    /// Retired local indices whose receive queues still hold backlog:
    /// they keep draining at `cap` per round into the undelivered
    /// counter, exactly as the reference interpreter walks every queue
    /// every round (this list is the compaction-safe image of that walk).
    dead_backlog: Vec<u32>,
    /// Violation journal for the current phase, in slot order; drained by
    /// the coordinator's shard-order replay.
    violations: Vec<Violation>,
    // Per-round outputs of the step phase.
    finished: usize,
    /// The first protocol panic of the step, in slot order (the step
    /// stops there: the run is over).
    panic: Option<(NodeId, String)>,
    /// The marks staged by nodes that stepped and continue, in slot
    /// order; drained by the coordinator's shard-order narration.
    marks: Vec<Marks>,
    /// Deliverable messages / their volume in words this round (reset by
    /// each seal, folded by the coordinator).
    round_messages: u64,
    round_words: u64,
    /// This round's fault pass, summed by the coordinator.
    faults: FaultTally,
    // Cumulative folds, harvested once at the end of the run.
    max_sent: usize,
    max_received: usize,
    max_queue: usize,
    undelivered: u64,
    cross_shard: u64,
}

impl<P: NodeProtocol> ShardState<P> {
    /// Step phase: polls every live protocol over its inbox span of the
    /// shard's route arena, staging its sends into the shard's own arena.
    fn step(&mut self, rs: &RunShared) {
        self.finished = 0;
        self.staged.clear();
        debug_assert!(self.marks.is_empty());
        for slot in self.slots.iter_mut() {
            match step_slot(slot, &self.buffers.arena, &mut self.staged, rs) {
                StepOutcome::Skipped | StepOutcome::Running((None, None)) => {}
                StepOutcome::Running(marks) => self.marks.push(marks),
                StepOutcome::Finished { panic: None } => self.finished += 1,
                StepOutcome::Finished {
                    panic: Some(message),
                } => {
                    self.panic = Some((slot.id, message));
                    return;
                }
            }
        }
    }

    /// Takes the slots that retired this step out of the global aliveness
    /// map. A retiring node may leave backlog in its receive queue; it
    /// keeps draining (see `dead_backlog`).
    fn retire(&mut self, alive_now: &mut [bool], queue_mode: bool) {
        for slot in self.slots.iter() {
            let g = slot.idx as usize;
            if alive_now[g] && !slot.alive {
                alive_now[g] = false;
                let local = slot.idx - self.base;
                if queue_mode && self.queues.backlog_len(local as usize) > 0 {
                    self.dead_backlog.push(local);
                }
            }
        }
    }

    /// Drops retired slots (stable, in place); their outputs move to the
    /// `done` side list keyed by dense index. Every index-keyed structure
    /// is untouched, so transcripts cannot observe the reorder.
    fn compact(&mut self) {
        let done = &mut self.done;
        self.slots.retain_mut(|s| {
            if s.alive {
                return true;
            }
            if let Life::Done(out) = std::mem::replace(&mut s.life, Life::Gone) {
                done.push((s.idx, s.id, out));
            }
            false
        });
    }

    /// Seal, as a source shard: validates every staged send in slot
    /// order (journaling violations), counts local destinations and
    /// diverts cross-shard sends into the exchange cells. Only live
    /// destinations can receive, so resetting the live counts is enough —
    /// stale counts of retired indices are never read again.
    fn seal(&mut self, rs: &RunShared, alive_now: &[bool], round: u64) {
        let (cap, config) = (rs.cap, rs.net.config());
        let lo = self.base as usize;
        let hi = lo + self.width;
        (self.round_messages, self.round_words) = (0, 0);
        debug_assert!(self.violations.is_empty());
        for cell in self.cells.iter_mut() {
            cell.clear();
        }
        for slot in self.slots.iter() {
            self.buffers.counts[slot.idx as usize - lo] = 0;
        }
        for slot in self.slots.iter() {
            let src_local = slot.idx as usize - lo;
            let attempted = slot.out_len as usize;
            for send in self.staged[slot.out()].iter_mut() {
                let checked = validate(
                    send,
                    slot.id,
                    src_local,
                    config,
                    &self.knowledge,
                    alive_now,
                    round,
                );
                let deliver = match checked {
                    Ok(()) => true,
                    Err(v) => {
                        self.violations.push(v);
                        // Lenient policies still deliver when
                        // physically possible (destination exists and
                        // is alive).
                        send.dst_idx != NO_INDEX && alive_now[send.dst_idx as usize]
                    }
                };
                if !deliver {
                    send.dst_idx = NO_INDEX;
                    continue;
                }
                self.round_messages += 1;
                self.round_words += send.msg.size_words() as u64;
                let dst = send.dst_idx as usize;
                if (lo..hi).contains(&dst) {
                    self.buffers.counts[dst - lo] += 1;
                } else {
                    self.cells[rs.shard_of(dst)].push((send.dst_idx, send.sent_by(slot.id)));
                    self.cross_shard += 1;
                    // Moved into the cell: the local splice must skip it.
                    send.dst_idx = NO_INDEX;
                }
            }
            if attempted > cap {
                self.violations.push(Violation {
                    round,
                    node: slot.id,
                    kind: ViolationKind::SendCapacity {
                        sent: attempted,
                        cap,
                    },
                });
            }
            self.max_sent = self.max_sent.max(attempted);
        }
    }

    /// Exchange, as destination shard `d`: counts the incoming cells into
    /// the local buckets, seals the shard's prefix sums over its live
    /// indices, and splices sources in canonical shard order — ascending
    /// shard ranges make that exactly the global dense source order, so
    /// bucket contents (and with them FIFO queues) are those of one
    /// stable counting sort over the whole network.
    fn exchange(&mut self, d: usize, cells: &CellTable) {
        let b = self.base;
        let incoming = |src: usize| cells[src][d].iter();
        for src in (0..cells.len()).filter(|&src| src != d) {
            for &(dst, _) in incoming(src) {
                self.buffers.counts[(dst - b) as usize] += 1;
            }
        }
        self.buffers
            .seal_counts_live(self.slots.iter().map(|sl| (sl.idx - b) as usize));
        for src in 0..cells.len() {
            if src != d {
                for &(dst, env) in incoming(src) {
                    self.buffers.push((dst - b) as usize, env);
                }
                continue;
            }
            for slot in self.slots.iter() {
                let sends = self.staged[slot.out()].iter();
                for send in sends.filter(|send| send.dst_idx != NO_INDEX) {
                    self.buffers
                        .push((send.dst_idx - b) as usize, send.sent_by(slot.id));
                }
            }
        }
    }

    /// Scenario fault pass over this shard's sealed buckets: a message
    /// takes its identity's fate (a source's sends sit adjacent in a
    /// bucket, so its ordinal is its place in their run), a bucket its
    /// destination's shuffle. Cold: it runs in fault windows only, so
    /// its code stays apart from the quiet round's.
    #[cold]
    fn inject(&mut self, faults: &RoundFaults) {
        let (b, tally) = (self.base, &mut self.faults);
        *tally = FaultTally::default();
        for slot in self.slots.iter() {
            let mut run = (None, 0);
            let bucket = self.buffers.refill((slot.idx - b) as usize, &mut |env| {
                let ordinal = if run.0 == Some(env.src) { run.1 + 1 } else { 0 };
                run = (Some(env.src), ordinal);
                let copies = faults.fate(env.src, slot.id, ordinal);
                tally.count(env, copies);
                copies
            });
            tally.reordered += u64::from(faults.shuffle(slot.id, bucket));
        }
    }

    /// Receive side: points every live slot's inbox into the route arena
    /// and folds the largest delivery. Queue policy: `cap` envelopes of
    /// carried backlog ++ fresh bucket deliver, the rest re-queue (flat
    /// arenas, no per-node deques); retired nodes with backlog drain
    /// separately, straight out of the backlog arena — their freshly
    /// routed bucket is empty by validation. Other policies: the bucket is
    /// the inbox, and its capacity check is journaled for the
    /// coordinator's replay.
    fn deliver(&mut self, rs: &RunShared, round: u64) {
        let lo = self.base as usize;
        let cap = rs.cap;
        if !rs.queue_mode {
            for slot in self.slots.iter_mut().filter(|s| s.alive) {
                let i = slot.idx as usize - lo;
                let (start, received) = self.buffers.span(i);
                if received as usize > cap {
                    self.violations.push(Violation {
                        round,
                        node: slot.id,
                        kind: ViolationKind::ReceiveCapacity {
                            received: received as usize,
                            cap,
                        },
                    });
                }
                self.max_received = self.max_received.max(received as usize);
                slot.inbox_start = start;
                slot.inbox_len = received;
            }
            return;
        }
        for slot in self.slots.iter_mut().filter(|s| s.alive) {
            let i = slot.idx as usize - lo;
            // A parked slot receives nothing, but its backlog must still
            // ride the double-buffer swap (cap 0 = re-queue everything,
            // FIFO intact for recovery).
            let cap_i = if slot.paused { 0 } else { cap };
            let (start, take, queued) = self.queues.deliver(i, &mut self.buffers, cap_i);
            self.max_queue = self.max_queue.max(queued);
            self.max_received = self.max_received.max(take as usize);
            slot.inbox_start = start;
            slot.inbox_len = take;
        }
        let mut drained_any = false;
        for &li in self.dead_backlog.iter() {
            let drained = self.queues.drain(li as usize, cap);
            // A dead node's "delivery" is immediately undeliverable.
            self.max_received = self.max_received.max(drained.len());
            self.undelivered += drained.len() as u64;
            learn_inbox(&mut self.knowledge, li as usize, drained);
            let queued = self.queues.backlog_len(li as usize);
            self.max_queue = self.max_queue.max(queued);
            drained_any |= queued == 0;
        }
        if drained_any {
            let queues = &self.queues;
            self.dead_backlog
                .retain(|&li| queues.backlog_len(li as usize) > 0);
        }
        self.queues.end_round();
    }

    /// Learn sweep (tracked runs only): the shard's tracker is private, so
    /// learns apply in place.
    fn learn(&mut self) {
        let lo = self.base as usize;
        for slot in self.slots.iter().filter(|s| s.alive) {
            let inbox = &self.buffers.arena[slot.inbox_start as usize..][..slot.inbox_len as usize];
            learn_inbox(&mut self.knowledge, slot.idx as usize - lo, inbox);
        }
    }
}

/// KT0 propagation: receiving a message reveals its sender and every
/// address it carries.
fn learn_inbox(knowledge: &mut KnowledgeTracker, node: usize, inbox: &[WireEnvelope]) {
    if !knowledge.enabled() {
        return;
    }
    for env in inbox {
        knowledge.learn(node, env.src);
        for &a in env.msg.addrs_slice() {
            knowledge.learn(node, a);
        }
    }
}

/// Applies `f` to every shard (with its index) on `threads` threads: the
/// caller walks the first of `threads` contiguous groups, a scoped thread
/// each other group; at one thread, all inline (the zero-alloc path).
/// Each call sees exactly one shard mutably, so results cannot depend on
/// which thread walked it.
fn for_each_shard<P, F>(shards: &mut [ShardState<P>], threads: usize, f: F)
where
    P: NodeProtocol,
    F: Fn(usize, &mut ShardState<P>) + Sync,
{
    if threads <= 1 {
        for (s, sh) in shards.iter_mut().enumerate() {
            f(s, sh);
        }
        return;
    }
    let walk = |first: usize, group: &mut [ShardState<P>]| {
        for (s, sh) in group.iter_mut().enumerate() {
            f(first + s, sh);
        }
    };
    let count = shards.len();
    thread::scope(|scope| {
        let mut rest = shards;
        for g in (1..threads).rev() {
            let (head, group) = rest.split_at_mut(g * count / threads);
            rest = head;
            scope.spawn(move || walk(g * count / threads, group));
        }
        walk(0, rest);
    });
}

/// Swaps every shard's exchange-cell rows with its row of `table`: lends
/// them to the coordinator before the exchange, returns them after.
fn swap_cells<P: NodeProtocol>(shards: &mut [ShardState<P>], table: &mut CellTable) {
    for (sh, row) in shards.iter_mut().zip(table.iter_mut()) {
        std::mem::swap(&mut sh.cells, row);
    }
}

/// Runs `phase`, adding its wall-clock duration to `nanos` — the one
/// timing rule of the round loop (see the `*_nanos` fields of
/// [`EngineStats`](crate::EngineStats) for what each phase covers).
fn timed<R>(nanos: &mut u64, phase: impl FnOnce() -> R) -> R {
    // detlint: allow(ambient-entropy) — per-phase wall-clock timer: the elapsed nanos feed EngineStats::*_nanos (observability only) and never a transcript, round count, or message
    let start = Instant::now();
    let out = phase();
    *nanos += start.elapsed().as_nanos() as u64;
    out
}

/// The slot of dense index `dense`, with its owning shard — `None` once
/// compaction has dropped it.
fn locate<'s, P: NodeProtocol>(
    shards: &'s mut [ShardState<P>],
    rs: &RunShared,
    dense: usize,
) -> Option<(&'s mut ShardState<P>, usize)> {
    let sh = &mut shards[rs.shard_of(dense)];
    let pos = sh
        .slots
        .binary_search_by_key(&(dense as u32), |sl| sl.idx)
        .ok()?;
    Some((sh, pos))
}

/// Scenario churn, pre-step: recoveries and joins scheduled for this
/// round un-park their slots before anyone steps.
fn churn_in<P: NodeProtocol>(
    rt: &mut ScenarioRt,
    round: u64,
    shards: &mut [ShardState<P>],
    rs: &RunShared,
    alive_now: &mut [bool],
    emitter: &mut Emitter,
    sink: &mut Option<&mut dyn Sink>,
) {
    for &op in rt.pre_step_ops(round) {
        let Some((sh, pos)) = locate(shards, rs, op.node) else {
            continue;
        };
        let slot = &mut sh.slots[pos];
        if !slot.alive || !slot.paused {
            continue;
        }
        slot.paused = false;
        alive_now[op.node] = true;
        let node = op.node;
        emitter.emit(
            sink,
            match op.kind {
                ChurnKind::Recover => RunEvent::NodeRecovered { round, node },
                ChurnKind::Join => RunEvent::NodeJoined { round, node },
                ChurnKind::CrashStop | ChurnKind::CrashPause => continue,
            },
        );
    }
}

/// Scenario churn, post-step: scheduled crash-stops and crash-pauses take
/// effect *after* the node's step this round — the exact observable
/// footprint of a protocol that voluntarily halts here (sends discarded
/// like a `Done` step's, backlog to the dead-drain, compaction trigger
/// fed), minus the output. A pause parks the slot instead of retiring
/// it. Returns the number of nodes crash-stopped.
fn churn_out<P: NodeProtocol>(
    rt: &mut ScenarioRt,
    round: u64,
    shards: &mut [ShardState<P>],
    rs: &RunShared,
    alive_now: &mut [bool],
    emitter: &mut Emitter,
    sink: &mut Option<&mut dyn Sink>,
) -> usize {
    let mut stopped = 0;
    for &op in rt.post_step_ops(round) {
        let Some((sh, pos)) = locate(shards, rs, op.node) else {
            continue;
        };
        let slot = &mut sh.slots[pos];
        if !slot.alive || slot.paused {
            continue;
        }
        match op.kind {
            ChurnKind::CrashStop => {
                slot.retire(Life::Gone);
                stopped += 1;
                let local = op.node as u32 - sh.base;
                if rs.queue_mode && sh.queues.backlog_len(local as usize) > 0 {
                    sh.dead_backlog.push(local);
                }
            }
            ChurnKind::CrashPause => {
                slot.paused = true;
                slot.silence();
            }
            ChurnKind::Recover | ChurnKind::Join => continue,
        }
        alive_now[op.node] = false;
        emitter.emit(
            sink,
            RunEvent::NodeCrashed {
                round,
                node: op.node,
            },
        );
    }
    stopped
}

/// One batched run as a value: [`Run::new`] sets it up, each
/// [`Run::round`] executes one round, [`Run::finish`] harvests it. It
/// borrows nothing; it holds a handle to its network.
pub(crate) struct Run<P: NodeProtocol> {
    shared: RunShared,
    shards: Vec<ShardState<P>>,
    /// Where the shards' cell rows sit while the exchange reads them.
    cell_table: CellTable,
    /// Global aliveness over the full dense space: validation must see
    /// destinations in *other* shards, and it is read-only during the
    /// per-shard phases (the coordinator updates it between them).
    alive_now: Vec<bool>,
    live: usize,
    scenario_rt: Option<ScenarioRt>,
    metrics: RunMetrics,
    emitter: Emitter,
    prev_round_messages: u64,
    step_nanos: u64,
    route_nanos: u64,
    exchange_nanos: u64,
    deliver_nanos: u64,
    learn_nanos: u64,
}

impl<P: NodeProtocol> Run<P> {
    /// Builds `factory`'s protocol on every node.
    pub(crate) fn new<F>(net: &Network, factory: F) -> Result<Self, SimError>
    where
        F: Fn(&NodeSeed<'_>) -> P,
    {
        let config: &Config = net.config();
        let ids = net.ids_in_path_order();
        let n = ids.len();
        let cap = config.capacity(n);
        assert!(
            config.max_words <= WIRE_WORDS && config.max_addrs <= WIRE_ADDRS,
            "batched engine: configured message budget ({} words, {} addrs) \
             exceeds the inline wire budget ({WIRE_WORDS} words, {WIRE_ADDRS} addrs)",
            config.max_words,
            config.max_addrs,
        );

        let workers = match config.worker_threads {
            0 => thread::available_parallelism().map_or(1, NonZeroUsize::get),
            w => w,
        }
        .clamp(1, n);
        // Ownership map: shard `s` owns dense indices `s*n/S .. (s+1)*n/S` —
        // contiguous, ascending, balanced to within one node.
        let shard_count = config.shard_count(n, workers);
        let threads = workers.min(shard_count);
        let bases: Vec<usize> = (0..shard_count).map(|s| s * n / shard_count).collect();
        let width_of = |s: usize| bases.get(s + 1).copied().unwrap_or(n) - bases[s];

        // NCC1 common knowledge: all IDs, sorted.
        let all_ids: Option<Arc<Vec<NodeId>>> = match config.model {
            Model::Ncc1 => {
                let mut sorted = ids.to_vec();
                sorted.sort_unstable();
                Some(Arc::new(sorted))
            }
            Model::Ncc0 => None,
        };

        // Scenario schedule: validated against this run's size and policy,
        // then compiled to dense-index timelines. The runtime
        // (timeline cursors) lives at the coordinator: churn is a
        // coordinator phase, like violation replay.
        let scenario_rt = match &config.scenario {
            Some(s) => {
                s.validate(n, config.capacity_policy)
                    .map_err(SimError::InvalidScenario)?;
                Some(ScenarioRt::new(s.compile()))
            }
            None => None,
        };

        // Per-shard KT0 trackers, seeded along the path (the
        // path link crossing a shard boundary lands in the predecessor's
        // shard — see `seed_path_sharded`).
        let track = config.track_knowledge && config.model == Model::Ncc0;
        let mut trackers: Vec<KnowledgeTracker> = (0..shard_count)
            .map(|s| KnowledgeTracker::new(width_of(s), track))
            .collect();
        crate::knowledge::seed_path_sharded(&mut trackers, &bases, ids);

        // Build the slots directly into their owning shards, walking the
        // path once in dense order.
        let mut shard_slots: Vec<Vec<Slot<P>>> = (0..shard_count)
            .map(|s| Vec::with_capacity(width_of(s)))
            .collect();
        let mut cur = 0usize;
        for (i, &id) in ids.iter().enumerate() {
            while cur + 1 < shard_count && i >= bases[cur + 1] {
                cur += 1;
            }
            let succ = ids.get(i + 1).copied();
            let seed = NodeSeed {
                id,
                n,
                capacity: cap,
                model: config.model,
                initial_successor: succ,
                all_ids: all_ids.as_ref(),
            };
            shard_slots[cur].push(Slot::new(i as u32, id, succ, config.seed, factory(&seed)));
        }

        let queue_mode = config.capacity_policy == CapacityPolicy::Queue;
        let mut shards: Vec<ShardState<P>> = shard_slots
            .into_iter()
            .zip(trackers)
            .enumerate()
            .map(|(s, (slots, knowledge))| {
                let width = width_of(s);
                debug_assert_eq!(slots.len(), width);
                ShardState {
                    base: bases[s] as u32,
                    width,
                    slots,
                    done: Vec::with_capacity(width),
                    staged: Vec::new(),
                    buffers: RouteBuffers::new(width),
                    queues: QueueBuffers::new(if queue_mode { width } else { 0 }),
                    knowledge,
                    cells: vec![Vec::new(); shard_count],
                    dead_backlog: Vec::new(),
                    violations: Vec::new(),
                    finished: 0,
                    panic: None,
                    marks: Vec::new(),
                    round_messages: 0,
                    round_words: 0,
                    faults: FaultTally::default(),
                    max_sent: 0,
                    max_received: 0,
                    max_queue: 0,
                    undelivered: 0,
                    cross_shard: 0,
                }
            })
            .collect();
        let mut alive_now: Vec<bool> = vec![true; n];

        // Scheduled joiners start parked: alive (the run waits for them)
        // but invisible to senders and skipped by every sweep until their
        // join round un-parks them.
        if let Some(rt) = &scenario_rt {
            for slot in shards.iter_mut().flat_map(|sh| sh.slots.iter_mut()) {
                if rt.starts_parked(slot.idx as usize) {
                    slot.paused = true;
                    alive_now[slot.idx as usize] = false;
                }
            }
        }

        let mut metrics = RunMetrics {
            capacity: cap,
            ..RunMetrics::default()
        };
        // Pre-reserve the full (capped) trace so recording a round can never
        // allocate inside the round loop.
        metrics
            .messages_per_round
            .reserve(crate::metrics::ROUND_TRACE_LIMIT);
        Ok(Run {
            shared: RunShared {
                net: net.clone(),
                cap,
                threads,
                track,
                queue_mode,
                bases,
                all_ids,
            },
            shards,
            cell_table: vec![Vec::new(); shard_count],
            alive_now,
            live: n,
            scenario_rt,
            metrics,
            emitter: Emitter::default(),
            prev_round_messages: 0,
            step_nanos: 0,
            route_nanos: 0,
            exchange_nanos: 0,
            deliver_nanos: 0,
            learn_nanos: 0,
        })
    }
}

impl<P: NodeProtocol> Steps<RunResult<P::Output>> for Run<P> {
    /// Executes one round: the phases of the module doc, in order.
    /// `Ok(false)` once every node has retired — that call's step was the
    /// last, and no round is narrated for it.
    fn round(&mut self, mut sink: Option<&mut dyn Sink>) -> Result<bool, SimError> {
        if self.live == 0 {
            return Ok(false);
        }
        let (rs, sink) = (&self.shared, &mut sink);
        let (config, threads) = (rs.net.config(), rs.threads);
        let strict = config.capacity_policy == CapacityPolicy::Strict;
        let round = self.metrics.rounds;
        let window: usize = self.shards.iter().map(|sh| sh.slots.len()).sum();
        let (shards, alive_now) = (&mut self.shards, &mut self.alive_now);

        if let Some(rt) = self.scenario_rt.as_mut() {
            churn_in(rt, round, shards, rs, alive_now, &mut self.emitter, sink);
        }

        timed(&mut self.step_nanos, || {
            for_each_shard(shards, threads, |_, sh| sh.step(rs));
        });
        // Deterministic attribution: blame the lowest dense index —
        // shards ascend by base, each records its first in slot order.
        if let Some((node, message)) = shards.iter_mut().find_map(|sh| sh.panic.take()) {
            return Err(SimError::NodePanic { node, message });
        }
        let mut newly_done: usize = shards.iter().map(|sh| sh.finished).sum();
        self.live -= newly_done;
        for sh in shards.iter_mut().filter(|sh| sh.finished > 0) {
            sh.retire(alive_now, rs.queue_mode);
        }
        if self.live == 0 {
            return Ok(false);
        }
        // Protocol marks, deduplicated, in dense order: each journal is
        // in slot order, the shards ascend.
        for (phase, stage) in shards.iter_mut().flat_map(|sh| sh.marks.drain(..)) {
            self.emitter.emit_marks(sink, round, phase, stage);
        }

        if let Some(rt) = self.scenario_rt.as_mut() {
            let stopped = churn_out(rt, round, shards, rs, alive_now, &mut self.emitter, sink);
            self.live -= stopped;
            newly_done += stopped;
            // A schedule that kills the last live node ends the run
            // exactly as the last voluntary retirement would (no
            // further round narration).
            if self.live == 0 {
                return Ok(false);
            }
        }

        // Compaction: one global trigger (the halving rule bounds total
        // compaction work by O(k) per run), one event; each shard
        // compacts its own window.
        let live = self.live;
        if newly_done > 0 && live * 2 <= window {
            for sh in shards.iter_mut() {
                sh.compact();
            }
            debug_assert_eq!(shards.iter().map(|sh| sh.slots.len()).sum::<usize>(), live);
            self.emitter
                .emit(sink, RunEvent::Compaction { round, live });
        }
        let window: usize = shards.iter().map(|sh| sh.slots.len()).sum();
        let route_mode = route_mode(self.prev_round_messages, window);

        // Seal, then replay the journals in shard order (= canonical
        // dense source order): identical counts, samples and strict
        // abort at every shard count.
        let metrics = &mut self.metrics;
        let mut round_messages = timed(&mut self.route_nanos, || {
            for_each_shard(shards, threads, |_, sh| sh.seal(rs, alive_now, round));
            let mut total = 0u64;
            for sh in shards.iter_mut() {
                for v in sh.violations.drain(..) {
                    metrics.record_violation(strict, v)?;
                }
                total += sh.round_messages;
                metrics.words += sh.round_words;
            }
            Ok::<u64, SimError>(total)
        })?;

        // Exchange: the source shards lend their cell rows to the
        // coordinator's table (pointer swaps, no allocation) so every
        // destination shard can read all of them while mutating itself.
        // In a fault window each shard's fault pass follows: a fate is the
        // message's alone, so the tallies sum alike at any layout. Quiet
        // rounds never enter it, bit-identical to a scenario-free run.
        let faults = self.scenario_rt.as_ref().map(|rt| rt.faults(round));
        let faults = faults.filter(RoundFaults::active);
        let cell_table = &mut self.cell_table;
        timed(&mut self.exchange_nanos, || {
            swap_cells(shards, cell_table);
            for_each_shard(shards, threads, |d, sh| {
                sh.exchange(d, cell_table);
                if let Some(faults) = &faults {
                    sh.inject(faults);
                }
            });
            swap_cells(shards, cell_table);
        });
        if faults.is_some() {
            let tally = shards
                .iter()
                .fold(FaultTally::default(), |t, sh| t.add(&sh.faults));
            if tally.dropped + tally.duplicated + tally.reordered > 0 {
                round_messages = round_messages - tally.dropped + tally.duplicated;
                metrics.words = metrics.words.wrapping_add_signed(tally.words);
                self.emitter.emit(
                    sink,
                    RunEvent::FaultInjected {
                        round,
                        dropped: tally.dropped,
                        duplicated: tally.duplicated,
                        reordered: tally.reordered,
                    },
                );
            }
        }

        timed(&mut self.deliver_nanos, || {
            for_each_shard(shards, threads, |_, sh| sh.deliver(rs, round));
            for sh in shards.iter_mut() {
                for v in sh.violations.drain(..) {
                    metrics.record_violation(strict, v)?;
                }
            }
            Ok::<(), SimError>(())
        })?;

        if rs.track {
            timed(&mut self.learn_nanos, || {
                for_each_shard(shards, threads, |_, sh| sh.learn());
            });
        }

        metrics.record_round(round_messages);
        self.emitter.emit(
            sink,
            RunEvent::RoundCompleted {
                round,
                delivered: round_messages,
                live,
                route_mode,
            },
        );
        self.prev_round_messages = round_messages;
        if metrics.rounds > config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        Ok(true)
    }

    /// Harvests the run after its last round: folds the per-shard
    /// accumulators, closes the stream with [`RunEvent::Done`] and
    /// collects the outputs in knowledge-path order.
    fn finish(mut self: Box<Self>, mut sink: Option<&mut dyn Sink>) -> RunResult<P::Output> {
        debug_assert_eq!(self.live, 0, "a run finishes after its last round");
        let (rs, shards, metrics) = (&self.shared, &self.shards, &mut self.metrics);
        // Harvest the cumulative per-shard folds (sums and maxes — fold
        // order cannot matter). Undrained queues mean some protocol
        // stopped listening too early.
        for sh in shards.iter() {
            metrics.max_sent_per_round = metrics.max_sent_per_round.max(sh.max_sent);
            metrics.max_received_per_round = metrics.max_received_per_round.max(sh.max_received);
            metrics.max_queue_len = metrics.max_queue_len.max(sh.max_queue);
            metrics.undelivered += sh.undelivered + sh.queues.backlog_total();
            if rs.track {
                let widest = (0..sh.width).map(|i| sh.knowledge.knowledge_size(i)).max();
                metrics.max_knowledge = metrics.max_knowledge.max(widest.unwrap_or(0));
            }
        }
        let (rounds, messages) = (metrics.rounds, metrics.messages);
        self.emitter
            .emit(&mut sink, RunEvent::Done { rounds, messages });
        metrics.phase_rounds = self.emitter.recorder.phase_rounds();
        let mut stats = self.emitter.recorder.engine_stats();
        stats.shards = shards.len();
        stats.shard_windows = (0..shards.len()).map(|s| rs.width_of(s)).collect();
        stats.cross_shard_messages = shards.iter().map(|sh| sh.cross_shard).sum();
        stats.knowledge_arena = shards.iter().map(|sh| sh.knowledge.arena_len()).sum();
        stats.step_nanos = self.step_nanos;
        stats.route_nanos = self.route_nanos;
        stats.exchange_nanos = self.exchange_nanos;
        stats.deliver_nanos = self.deliver_nanos;
        stats.learn_nanos = self.learn_nanos;
        let sum = |bytes: fn(&ShardState<P>) -> usize| shards.iter().map(bytes).sum::<usize>();
        stats.footprint = Footprint {
            slots: sum(|sh| vec_bytes(&sh.slots)),
            staging: sum(|sh| vec_bytes(&sh.staged)),
            route: sum(|sh| sh.buffers.heap_bytes()),
            queues: sum(|sh| sh.queues.heap_bytes()),
            cells: sum(|sh| sh.cells.iter().map(vec_bytes).sum()),
            knowledge: sum(|sh| sh.knowledge.heap_bytes()),
            tables: vec_bytes(&self.alive_now)
                + std::mem::size_of_val(rs.net.ids_in_path_order())
                + rs.net.resolver().heap_bytes()
                + rs.all_ids.as_deref().map_or(0, vec_bytes),
            retired_outputs: sum(|sh| vec_bytes(&sh.done)),
        };

        // Everything but the outputs goes first — arenas, trackers, cells —
        // so that assembling the result is not the run's high-water mark.
        let parts: Vec<_> = self
            .shards
            .into_iter()
            .map(|sh| (sh.done, sh.slots))
            .collect();
        drop((self.cell_table, self.scenario_rt, self.alive_now));
        // Merge every shard's compacted-away outputs with its final window,
        // restoring knowledge-path order by global dense index.
        let mut done: Vec<(u32, NodeId, P::Output)> = Vec::with_capacity(self.shared.net.n());
        for (retired, slots) in parts {
            done.extend(retired);
            done.extend(slots.into_iter().filter_map(|s| match s.life {
                Life::Done(out) => Some((s.idx, s.id, out)),
                Life::Running(_) | Life::Gone => None,
            }));
        }
        done.sort_unstable_by_key(|&(idx, _, _)| idx);
        let outputs: Vec<(NodeId, P::Output)> =
            done.into_iter().map(|(_, id, out)| (id, out)).collect();
        RunResult {
            outputs,
            metrics: self.metrics,
            engine: stats,
        }
    }
}
