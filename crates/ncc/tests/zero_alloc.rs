//! Allocation probe: at steady state, the batched executor's round loop —
//! protocol steps, validation, counting-sort routing, delivery — must not
//! touch the heap. A `#[global_allocator]` counter proves it: two runs
//! that differ only in round count (10 vs 510 rounds) must perform the
//! *same number* of allocations, i.e. every allocation is setup/teardown,
//! none is per-round.
//!
//! The probes run every shard inline on the measuring thread — by
//! pinning `worker_threads = 1`, or by leaving a multi-worker run on the
//! single shard the default layout derives at this size (worker dispatch
//! itself allocates in the thread spawner, so a stray fan-out would show
//! up as per-round allocations) — with and without KT0 tracking.
//!
//! Flag and counter are both thread-local, so only the *measuring*
//! thread's allocations register: the libtest harness thread performs a
//! couple of lazy one-off allocations (parker, thread handle) at a
//! scheduling-dependent moment, and sibling tests measure concurrently —
//! either would otherwise race into the measured window and flake the
//! exact-equality assertion.

mod common;

use common::{Ping, Script};
use dgr_ncc::{Config, EngineKind, Network, RoundCtx, Scenario, Status, WireMsg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// True while this thread is inside a measured window (const-init, so
    /// reading it never allocates — safe inside the allocator).
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made inside measured windows.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_measuring() {
    // Thread teardown can query TLS after destruction; treat that as
    // "not measuring" rather than panicking inside the allocator.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation count of one n-node Ping run over `rounds` rounds. The
/// whole run executes inline on this thread (`worker_threads = 1`), so
/// thread-scoped counting sees every engine allocation. `tracked` turns
/// strict KT0 knowledge tracking on — the knowledge tracker's learns and
/// lookups must also be allocation-free at steady state.
fn allocations_for_config(rounds: u64, tracked: bool) -> u64 {
    allocations_for_layout(rounds, tracked, 1, 1)
}

/// Like [`allocations_for_config`] with a worker and an ownership-shard
/// count (`0` = derived): the per-`(src, dst)` exchange cells are cleared
/// with capacity retained, so steady-state rounds must be just as silent
/// on many shards as on one.
fn allocations_for_layout(rounds: u64, tracked: bool, workers: usize, shards: usize) -> u64 {
    let mut config = Config::ncc0(99)
        .with_worker_threads(workers)
        .with_shards(shards);
    config.track_knowledge = tracked;
    let net = Network::new(512, config);
    let before = ALLOCATIONS.get();
    MEASURING.with(|m| m.set(true));
    let result = net.run_protocol(|s| Ping::new(s, rounds)).unwrap();
    MEASURING.with(|m| m.set(false));
    assert_eq!(result.metrics.rounds, rounds);
    assert!(result.metrics.is_clean());
    if tracked {
        // Ping talks only along the seeded path; each node's knowledge is
        // its own ID, its successor, and (after one delivery) its
        // predecessor.
        assert!(result.metrics.max_knowledge <= 3);
    }
    ALLOCATIONS.get() - before
}

fn allocations_for(rounds: u64) -> u64 {
    allocations_for_config(rounds, false)
}

#[test]
fn routing_hot_path_does_not_allocate_per_round() {
    // Warm the allocator's own internals (arenas, thread caches).
    let _ = allocations_for(5);
    let short = allocations_for(10);
    let long = allocations_for(510);
    assert_eq!(
        long, short,
        "round loop allocates: {short} allocations over 10 rounds vs \
         {long} over 510 — every per-round allocation is a regression"
    );
    // Past the per-round trace cap (ROUND_TRACE_LIMIT = 4096): the capped
    // trace must not reintroduce growth allocations either.
    let past_cap = allocations_for(dgr_ncc::ROUND_TRACE_LIMIT as u64 + 500);
    let far_past_cap = allocations_for(2 * dgr_ncc::ROUND_TRACE_LIMIT as u64);
    assert_eq!(
        past_cap, far_past_cap,
        "round loop allocates beyond the trace cap"
    );
}

/// Strict-KT0 tracked runs: the knowledge tracker (one open-addressed
/// table per node, all in one arena) must be zero-alloc at steady state —
/// every validation lookup is a probe of the sender's table, and learning
/// an already-known ID is the same probe and writes nothing. All arena
/// growth happens while knowledge is still spreading (here: the first
/// delivery round), which both run lengths share.
#[test]
fn strict_kt0_tracking_does_not_allocate_per_round() {
    let _ = allocations_for_config(5, true);
    let short = allocations_for_config(10, true);
    let long = allocations_for_config(510, true);
    assert_eq!(
        long, short,
        "tracked round loop allocates: {short} allocations over 10 rounds \
         vs {long} over 510 — the knowledge tracker must be quiescent once \
         knowledge stops spreading"
    );
}

/// Allocation count of a Ping run under an always-on drop + duplicate
/// scenario. The fault pass compacts every bucket in place and moves one
/// a duplicate outgrows into the route arena's spill region; that region
/// (and the pre-compiled churn timelines) must be round-reused — once it
/// has reached its high-water mark, nothing about injection may touch
/// the heap.
fn allocations_for_scenario(rounds: u64, shards: usize) -> u64 {
    let scenario = Scenario::new(5)
        .drop_messages(1..=u64::MAX, 0.02)
        .duplicate_messages(1..=u64::MAX, 0.01);
    let config = Config::ncc0(99)
        .with_worker_threads(1)
        .with_shards(shards)
        .with_scenario(scenario);
    let net = Network::new(512, config);
    let before = ALLOCATIONS.get();
    MEASURING.with(|m| m.set(true));
    let result = net.run_protocol(|s| Ping::new(s, rounds)).unwrap();
    MEASURING.with(|m| m.set(false));
    assert_eq!(result.metrics.rounds, rounds);
    assert!(
        result.engine.faults_dropped > 0,
        "the drop window never fired — the probe is not measuring the fault pass"
    );
    ALLOCATIONS.get() - before
}

/// Fault injection must be allocation-free at steady state, on one shard
/// and on several (each shard's pass writing into its own arena).
#[test]
fn scenario_fault_pass_does_not_allocate_per_round() {
    // Fault volume is random per round, so high-water convergence takes a
    // few dozen rounds (the rarest realloc observed lands before round
    // 60). Both run lengths replay the identical seeded prefix, so
    // comparing 110 vs 510 rounds asserts exactly: no allocation after
    // convergence, for 400 further faulted rounds.
    for shards in [1usize, 4] {
        let _ = allocations_for_scenario(5, shards);
        let short = allocations_for_scenario(110, shards);
        let long = allocations_for_scenario(510, shards);
        assert_eq!(
            long, short,
            "scenario round loop allocates ({shards} shard(s)): {short} \
             allocations over 110 rounds vs {long} over 510 — the fault \
             pass's scratch buffers must be round-reused"
        );
    }
}

/// The round loop over several shards — per-shard step/seal/deliver/learn
/// plus the exchange phase — must also be allocation-free at steady
/// state. Ping's successor sends cross each of the three ownership
/// boundaries every round, so the exchange cells are exercised (filled,
/// drained, and reused) on every measured round, tracked KT0 included.
#[test]
fn sharded_exchange_does_not_allocate_per_round() {
    for tracked in [false, true] {
        let _ = allocations_for_layout(5, tracked, 1, 4);
        let short = allocations_for_layout(10, tracked, 1, 4);
        let long = allocations_for_layout(510, tracked, 1, 4);
        assert_eq!(
            long, short,
            "sharded round loop allocates (tracked={tracked}): {short} \
             allocations over 10 rounds vs {long} over 510 — exchange \
             cells must be round-reused, not reallocated"
        );
    }
}

/// The default layout at this size is one shard, and a single shard is
/// walked inline whatever the pool size: a two-worker run must start no
/// thread (the spawner allocates on the calling thread) and allocate
/// nothing per round, tracked KT0 included.
#[test]
fn one_shard_under_two_workers_does_not_allocate_per_round() {
    for tracked in [false, true] {
        let _ = allocations_for_layout(5, tracked, 2, 0);
        let short = allocations_for_layout(10, tracked, 2, 0);
        let long = allocations_for_layout(510, tracked, 2, 0);
        assert_eq!(
            long, short,
            "one-shard round loop allocates under two workers \
             (tracked={tracked}): {short} allocations over 10 rounds vs \
             {long} over 510"
        );
    }
}

/// Allocation count of a queue-paced run with a steady backlog: position
/// 1 spends its whole capacity on the hub every round, position 0 does so
/// in round 0 only, so the hub ends round 0 with `cap` queued and from
/// then on takes `cap` a round while delivering `cap` a round — it carries
/// `cap` into every round, and every round its inbox is written to the
/// route arena's spill region. The hub sits in another shard than its
/// senders at four shards (untracked: the senders never learn it).
fn allocations_for_backlog(rounds: u64, shards: usize) -> u64 {
    let mut config = Config::ncc0(99)
        .with_queueing()
        .with_worker_threads(1)
        .with_shards(shards);
    config.track_knowledge = false;
    let net = Network::new(512, config);
    let cap = net.capacity();
    let (ids, hub) = (
        net.ids_in_path_order().to_vec(),
        net.ids_in_path_order()[300],
    );
    let before = ALLOCATIONS.get();
    MEASURING.with(|m| m.set(true));
    let result = net
        .run_protocol(|seed| {
            let position = ids.iter().position(|&id| id == seed.id).unwrap();
            Script(move |ctx: &mut RoundCtx<'_>| {
                if ctx.round() >= rounds {
                    return Status::Done(());
                }
                if position == 1 || (position, ctx.round()) == (0, 0) {
                    (0..cap).for_each(|_| ctx.send(hub, WireMsg::word(1, 42)));
                }
                Status::Continue
            })
        })
        .unwrap();
    MEASURING.with(|m| m.set(false));
    assert_eq!(result.metrics.rounds, rounds);
    assert_eq!(result.metrics.max_queue_len, cap);
    assert_eq!(
        result.metrics.undelivered, cap as u64,
        "the hub's last backlog"
    );
    ALLOCATIONS.get() - before
}

/// Queue delivery with backlog carried into every round — FIFO re-queue
/// into the backlog arena, `backlog ++ bucket prefix` into the spill
/// region — is allocation-free at steady state, on one shard and on four.
#[test]
fn steady_queue_backlog_does_not_allocate_per_round() {
    for shards in [1usize, 4] {
        let _ = allocations_for_backlog(5, shards);
        let short = allocations_for_backlog(10, shards);
        let long = allocations_for_backlog(510, shards);
        assert_eq!(
            long, short,
            "queued delivery allocates ({shards} shard(s)): {short} \
             allocations over 10 rounds vs {long} over 510 — the backlog \
             arenas and the spill region must be round-reused"
        );
    }
}

/// Allocation count of a run whose nodes send a burst of one to three
/// messages to their successor, the size rotating with the round and the
/// node's ID: every slot's span of the staging arena changes length and
/// position from one round to the next.
fn allocations_for_bursts(rounds: u64, shards: usize) -> u64 {
    let config = Config::ncc0(99).with_worker_threads(1).with_shards(shards);
    let net = Network::new(512, config);
    let before = ALLOCATIONS.get();
    MEASURING.with(|m| m.set(true));
    let result = net
        .run_protocol(|_| {
            Script(move |ctx: &mut RoundCtx<'_>| {
                if ctx.round() >= rounds {
                    return Status::Done(());
                }
                if let Some(succ) = ctx.initial_successor() {
                    let burst = 1 + (ctx.round() + ctx.id()) % 3;
                    (0..burst).for_each(|_| ctx.send(succ, WireMsg::word(1, 42)));
                }
                Status::Continue
            })
        })
        .unwrap();
    MEASURING.with(|m| m.set(false));
    assert_eq!(result.metrics.rounds, rounds);
    assert!(result.metrics.is_clean());
    assert_eq!(result.metrics.max_sent_per_round, 3);
    ALLOCATIONS.get() - before
}

/// Sends are staged into one arena a shard, each slot holding a span of
/// it: once the arena has seen the run's largest round (here by round 3 —
/// the burst sizes cycle with period 3), a node whose burst grows,
/// shrinks or moves within the arena costs no allocation, on one shard
/// and on several.
#[test]
fn varying_bursts_do_not_allocate_per_round() {
    for shards in [1usize, 4] {
        let _ = allocations_for_bursts(5, shards);
        let short = allocations_for_bursts(10, shards);
        let long = allocations_for_bursts(510, shards);
        assert_eq!(
            long, short,
            "staging allocates ({shards} shard(s)): {short} allocations \
             over 10 rounds vs {long} over 510 — the staging arena must be \
             round-reused, whatever each node's burst does"
        );
    }
}

/// Allocation count of a Ping run stepped `round` by `round` through the
/// run value, from `Network::start` to `Run::finish` — the seam a
/// streaming session stands in. Inline on this thread, as above.
fn allocations_stepping(rounds: u64, tracked: bool) -> u64 {
    let mut config = Config::ncc0(99).with_worker_threads(1);
    config.track_knowledge = tracked;
    let net = Network::new(512, config);
    let before = ALLOCATIONS.get();
    MEASURING.with(|m| m.set(true));
    let mut run = net
        .start(EngineKind::Batched, None, |s| Ping::new(s, rounds))
        .unwrap();
    let mut stepped = 0;
    while run.round(None).unwrap() {
        stepped += 1;
    }
    let result = run.finish(None);
    MEASURING.with(|m| m.set(false));
    assert_eq!((stepped, result.metrics.rounds), (rounds, rounds));
    assert!(result.metrics.is_clean());
    ALLOCATIONS.get() - before
}

/// Stepping the run from the caller's side is as silent per round as the
/// loop `run_protocol` drives, tracked KT0 included.
#[test]
fn stepping_the_run_value_does_not_allocate_per_round() {
    for tracked in [false, true] {
        let _ = allocations_stepping(5, tracked);
        let short = allocations_stepping(10, tracked);
        let long = allocations_stepping(510, tracked);
        assert_eq!(
            long, short,
            "stepped run allocates (tracked={tracked}): {short} allocations \
             over 10 rounds vs {long} over 510"
        );
    }
}
