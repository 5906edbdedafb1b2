//! The **reference interpreter**: the NCC round, written the naive way.
//!
//! One thread, one loop, one plain collection per node — an inbox `Vec`,
//! a receive-queue `VecDeque`, a knowledge `BTreeSet` — and every round
//! spelled out in the order the model states it: step every live node in
//! path order, validate and route every send in source order, apply the
//! receive policy, let receivers learn, narrate. It runs the *same*
//! [`NodeProtocol`] step machines as the batched executor, so the
//! differential suites hold the two to identical outputs, bit-identical
//! [`RunMetrics`] and identical semantic event streams, under every
//! [`Scenario`](crate::Scenario).
//!
//! Its value is being small enough to audit by eye and **independent** of
//! the code it checks. It therefore shares nothing with the batched
//! executor's layout or bookkeeping: no shards, no arenas, no dense
//! remap, no tracker — it reads a staged send's destination *ID* and looks
//! it up in its own map. What it does share is the model's vocabulary
//! ([`Config`](crate::Config), the two wire shapes ([`Staged`] as a
//! protocol sends, [`WireEnvelope`] as a node receives), [`Violation`],
//! the [`RoundCtx`] a protocol sees — whose `Resolver` it only passes
//! through), violation counting ([`RunMetrics::record_violation`]), the
//! event [`Emitter`], and the scenario's per-message fate and per-inbox
//! shuffle ([`RoundFaults`](crate::scenario::RoundFaults)). Do not
//! optimize it.

use crate::config::{CapacityPolicy, Model};
use crate::error::{panic_message, SimError, Violation, ViolationKind};
use crate::event::{Emitter, RouteMode, RunEvent, Sink};
use crate::message::NodeId;
use crate::metrics::RunMetrics;
use crate::network::{Network, RunResult, Steps};
use crate::protocol::{Marks, NodeProtocol, NodeSeed, RoundCtx, Status};
use crate::scenario::ScenarioEvent::{self, CrashRecover, CrashStop, Join};
use crate::scenario::{FaultWindows, RoundFaults};
use crate::wire::{Staged, WireEnvelope};
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Everything the interpreter keeps about one path position; a position
/// indexes `nodes` directly.
struct Node<P: NodeProtocol> {
    id: NodeId,
    succ: Option<NodeId>,
    /// The running protocol; `None` once retired or crashed.
    proto: Option<P>,
    output: Option<P::Output>,
    /// Down by schedule (crash-recovery, or a join not yet due): not
    /// stepped, unreachable to senders, handed nothing — but still
    /// counted live, and its queue is kept.
    parked: bool,
    rounds: u64,
    rng: SmallRng,
    out: Vec<Staged>,
    inbox: Vec<WireEnvelope>,
    queue: VecDeque<WireEnvelope>,
    /// The IDs this node has learned; `None` when KT0 tracking is off
    /// (then everything counts as known).
    knows: Option<BTreeSet<NodeId>>,
    marks: Marks,
}

impl<P: NodeProtocol> Node<P> {
    /// Is the node up — stepped this round, reachable to senders?
    fn up(&self) -> bool {
        self.proto.is_some() && !self.parked
    }
}

/// One reference run as a value: [`Run::new`] sets it up, each
/// [`Run::round`] executes one round, [`Run::finish`] closes it.
pub(crate) struct Run<P: NodeProtocol> {
    net: Network,
    nodes: Vec<Node<P>>,
    index_of: BTreeMap<NodeId, usize>,
    all_ids: Option<Arc<Vec<NodeId>>>,
    windows: Option<FaultWindows>,
    live: usize,
    metrics: RunMetrics,
    emitter: Emitter,
}

impl<P: NodeProtocol> Run<P> {
    /// Builds `factory`'s protocol at every position; the contract of
    /// [`Network::start`].
    pub(crate) fn new<F>(net: &Network, factory: F) -> Result<Self, SimError>
    where
        F: Fn(&NodeSeed<'_>) -> P,
    {
        let (config, ids) = (net.config(), net.ids_in_path_order());
        let (n, cap) = (ids.len(), net.capacity());
        let tracking = config.track_knowledge && config.model == Model::Ncc0;
        if let Some(scenario) = &config.scenario {
            let checked = scenario.validate(n, config.capacity_policy);
            checked.map_err(SimError::InvalidScenario)?;
        }
        let schedule = config.scenario.as_ref().map_or(&[][..], |s| s.events());
        let index_of: BTreeMap<NodeId, usize> = ids.iter().copied().zip(0..).collect();
        // NCC1 common knowledge: every ID, sorted (the map iterates in ID
        // order).
        let sorted: Vec<NodeId> = index_of.keys().copied().collect();
        let all_ids = (config.model == Model::Ncc1).then(|| Arc::new(sorted));
        let nodes: Vec<Node<P>> = (0..n)
            .map(|i| {
                // G_k links each node to the next one on the path.
                let succ = ids.get(i + 1).copied();
                let seed = NodeSeed {
                    id: ids[i],
                    n,
                    capacity: cap,
                    model: config.model,
                    initial_successor: succ,
                    all_ids: all_ids.as_ref(),
                };
                // Node-local randomness: a stream derived from the master
                // seed and the node ID (the same on every engine).
                let mix = (config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(ids[i].wrapping_mul(0xBF58_476D_1CE4_E5B9));
                // KT0 initial knowledge: oneself and one's successor.
                let initial: BTreeSet<NodeId> = std::iter::once(ids[i]).chain(succ).collect();
                let joins = |e: &ScenarioEvent| matches!(*e, Join { node, .. } if node == i);
                Node {
                    id: ids[i],
                    succ,
                    proto: Some(factory(&seed)),
                    output: None,
                    // A scheduled joiner sits out until its join round.
                    parked: schedule.iter().any(joins),
                    rounds: 0,
                    rng: SmallRng::seed_from_u64(mix),
                    out: Vec::new(),
                    inbox: Vec::new(),
                    queue: VecDeque::new(),
                    knows: tracking.then_some(initial),
                    marks: (None, None),
                }
            })
            .collect();
        Ok(Run {
            net: net.clone(),
            nodes,
            index_of,
            all_ids,
            windows: config.scenario.as_ref().map(|s| s.fault_windows()),
            live: n,
            metrics: RunMetrics {
                capacity: cap,
                ..RunMetrics::default()
            },
            emitter: Emitter::default(),
        })
    }
}

impl<P: NodeProtocol> Steps<RunResult<P::Output>> for Run<P> {
    /// Executes one round, in the model's order. `Ok(false)` once every
    /// node has retired — that call's step was the last, and no round is
    /// narrated for it.
    fn round(&mut self, mut sink: Option<&mut dyn Sink>) -> Result<bool, SimError> {
        if self.live == 0 {
            return Ok(false);
        }
        let (config, sink) = (self.net.config(), &mut sink);
        let (n, cap) = (self.nodes.len(), self.net.capacity());
        let queueing = config.capacity_policy == CapacityPolicy::Queue;
        let strict = config.capacity_policy == CapacityPolicy::Strict;
        let schedule = config.scenario.as_ref().map_or(&[][..], |s| s.events());
        // Checks one send against the model, in the model's order: size, then
        // that the addressee exists, is up, and is known to the sender, then
        // that every carried address is known to the sender. Returns where the
        // message goes — a violating message is still delivered when physically
        // possible (the policy decides whether the run survives the violation)
        // — and the first rule it broke, if any.
        let check = |send: &Staged, sender: &Node<P>, nodes: &[Node<P>]| {
            let Staged { msg, dst: to, .. } = *send;
            let (words, addrs) = (msg.word_count(), msg.addr_count());
            let exists = self.index_of.get(&to).copied();
            let dst = exists.filter(|&i| nodes[i].up());
            let known = sender.knows.as_ref();
            let knows = |id: NodeId| known.is_none_or(|known| known.contains(&id));
            let unknown = msg.addrs_slice().iter().find(|&&a| !knows(a));
            let broken = if words > config.max_words || addrs > config.max_addrs {
                Some(ViolationKind::MessageTooLarge { words, addrs })
            } else if exists.is_none() {
                Some(ViolationKind::NoSuchNode { dst: to })
            } else if dst.is_none() {
                Some(ViolationKind::DeadRecipient { dst: to })
            } else if !knows(to) {
                Some(ViolationKind::UnknownAddressee { dst: to })
            } else {
                unknown.map(|&carried| ViolationKind::UnknownCarriedAddress { carried })
            };
            (dst, broken)
        };
        let round = self.metrics.rounds;
        let violation = |node: NodeId, kind: ViolationKind| Violation { round, node, kind };
        // --- Churn, before the step: recoveries and joins due now. ---
        for event in schedule {
            let (node, joined) = match *event {
                CrashRecover { node, recover, .. } if recover == round => (node, false),
                Join { node, round: at } if at == round => (node, true),
                _ => continue,
            };
            if self.nodes[node].proto.is_some() && self.nodes[node].parked {
                self.nodes[node].parked = false;
                self.emitter.emit(
                    sink,
                    match joined {
                        true => RunEvent::NodeJoined { round, node },
                        false => RunEvent::NodeRecovered { round, node },
                    },
                );
            }
        }
        // --- Step every live node, in path order. ---
        for node in self.nodes.iter_mut().filter(|node| node.up()) {
            node.out.clear();
            node.marks = (None, None);
            let mut ctx = RoundCtx {
                id: node.id,
                n,
                capacity: cap,
                model: config.model,
                initial_successor: node.succ,
                all_ids: self.all_ids.as_deref().map(Vec::as_slice),
                round: node.rounds,
                rng: &mut node.rng,
                inbox: &node.inbox,
                out: &mut node.out,
                resolver: self.net.resolver(),
                marks: &mut node.marks,
            };
            let proto = node.proto.as_mut().expect("up nodes run a protocol");
            match catch_unwind(AssertUnwindSafe(|| proto.step(&mut ctx))) {
                Ok(Status::Continue) => node.rounds += 1,
                Ok(Status::Done(output)) => {
                    node.output = Some(output);
                    node.proto = None;
                    self.live -= 1;
                }
                Err(payload) => {
                    let (node, message) = (node.id, panic_message(payload.as_ref()));
                    return Err(SimError::NodePanic { node, message });
                }
            }
        }
        // Only a node that is still up takes part in the rest of the round:
        // whatever a node staged or marked in its last step is discarded.
        // Marks go out in path order; the emitter narrates changes only.
        for node in self.nodes.iter().filter(|node| node.up()) {
            self.emitter
                .emit_marks(sink, round, node.marks.0, node.marks.1);
        }
        // --- Churn, after the step: crashes due now. The node has stepped
        // this round; a crash-stop ends it, a crash-recovery parks it.
        for event in schedule {
            let (node, stop) = match *event {
                CrashStop { node, round: at } if at == round => (node, true),
                CrashRecover { node, crash, .. } if crash == round => (node, false),
                _ => continue,
            };
            let crashed = &mut self.nodes[node];
            if crashed.up() {
                crashed.parked = !stop;
                if stop {
                    crashed.proto = None;
                    self.live -= 1;
                }
                self.emitter
                    .emit(sink, RunEvent::NodeCrashed { round, node });
            }
        }
        // The run ends with its last node, without narrating this round.
        if self.live == 0 {
            return Ok(false);
        }
        // --- Route: check every send in source order; the round's
        // arrivals collect in the destination's (now consumed) inbox. ---
        self.nodes.iter_mut().for_each(|node| node.inbox.clear());
        let senders: Vec<usize> = (0..n).filter(|&i| self.nodes[i].up()).collect();
        for src in senders {
            let out = std::mem::take(&mut self.nodes[src].out);
            let sender = self.nodes[src].id;
            for send in &out {
                let (dst, broken) = check(send, &self.nodes[src], &self.nodes);
                if let Some(kind) = broken {
                    self.metrics
                        .record_violation(strict, violation(sender, kind))?;
                }
                if let Some(dst) = dst {
                    self.nodes[dst].inbox.push(send.sent_by(sender));
                }
            }
            let sent = out.len();
            if sent > cap {
                let kind = ViolationKind::SendCapacity { sent, cap };
                self.metrics
                    .record_violation(strict, violation(sender, kind))?;
            }
            self.metrics.max_sent_per_round = self.metrics.max_sent_per_round.max(sent);
        }
        // --- Scenario message faults: every arrival takes the fate of its
        // identity — sender, receiver, and how many messages that sender
        // sent this receiver before it this round — delivered as often as
        // the fate says, in place; then a reordered inbox is shuffled.
        let faults = self.windows.as_ref().map(|w| w.at(round));
        if let Some(faults) = faults.filter(RoundFaults::active) {
            let (mut dropped, mut duplicated, mut reordered) = (0, 0, 0);
            for node in self.nodes.iter_mut() {
                let arrivals = std::mem::take(&mut node.inbox);
                for (k, &env) in arrivals.iter().enumerate() {
                    let earlier = arrivals[..k].iter().filter(|e| e.src == env.src);
                    let copies = faults.fate(env.src, node.id, earlier.count() as u64);
                    dropped += u64::from(copies == 0);
                    duplicated += u64::from(copies == 2);
                    node.inbox.extend(std::iter::repeat_n(env, copies));
                }
                reordered += u64::from(faults.shuffle(node.id, &mut node.inbox));
            }
            if dropped + duplicated + reordered > 0 {
                self.emitter.emit(
                    sink,
                    RunEvent::FaultInjected {
                        round,
                        dropped,
                        duplicated,
                        reordered,
                    },
                );
            }
        }
        // --- Deliver. What survived the faults is the round's traffic.
        // Queue policy: arrivals join the node's FIFO and at most `cap`
        // are handed over (none to a parked node); a dead node's queue
        // keeps draining. Otherwise everything is handed over and
        // overshoot is a violation. A delivery reveals its sender and
        // every address it carries; what is handed to a dead node is lost.
        let mut delivered = 0;
        for node in self.nodes.iter_mut() {
            delivered += node.inbox.len() as u64;
            let words = node.inbox.iter().map(|env| env.msg.size_words() as u64);
            self.metrics.words += words.sum::<u64>();
            if queueing {
                node.queue.extend(node.inbox.drain(..));
                let take = node.queue.len().min(if node.parked { 0 } else { cap });
                node.inbox.extend(node.queue.drain(..take));
                self.metrics.max_queue_len = self.metrics.max_queue_len.max(node.queue.len());
            }
            let received = node.inbox.len();
            if received > cap {
                let kind = ViolationKind::ReceiveCapacity { received, cap };
                self.metrics
                    .record_violation(strict, violation(node.id, kind))?;
            }
            self.metrics.max_received_per_round = self.metrics.max_received_per_round.max(received);
            if let Some(known) = node.knows.as_mut() {
                for env in &node.inbox {
                    known.insert(env.src);
                    known.extend(env.msg.addrs_slice());
                }
            }
            if node.proto.is_none() {
                self.metrics.undelivered += received as u64;
                node.inbox.clear();
            }
        }
        self.metrics.record_round(delivered);
        let live = self.live;
        self.emitter.emit(
            sink,
            RunEvent::RoundCompleted {
                round,
                delivered,
                live,
                route_mode: RouteMode::Unspecified,
            },
        );
        if self.metrics.rounds > config.max_rounds {
            let limit = config.max_rounds;
            return Err(SimError::RoundLimitExceeded { limit });
        }
        Ok(true)
    }

    /// Closes the run after its last round: narrates `Done` and returns
    /// the outputs in path order.
    fn finish(mut self: Box<Self>, mut sink: Option<&mut dyn Sink>) -> RunResult<P::Output> {
        debug_assert_eq!(self.live, 0, "a run finishes after its last round");
        // Undrained queues mean some protocol stopped listening too early.
        let queued = self.nodes.iter().map(|node| node.queue.len() as u64);
        self.metrics.undelivered += queued.sum::<u64>();
        let knowledge = self.nodes.iter().filter_map(|node| node.knows.as_ref());
        self.metrics.max_knowledge = knowledge.map(BTreeSet::len).max().unwrap_or(0);
        let (rounds, messages) = (self.metrics.rounds, self.metrics.messages);
        self.emitter
            .emit(&mut sink, RunEvent::Done { rounds, messages });
        self.metrics.phase_rounds = self.emitter.recorder.phase_rounds();
        let engine = self.emitter.recorder.engine_stats();
        let finished = |node: Node<P>| node.output.map(|output| (node.id, output));
        RunResult {
            outputs: self.nodes.into_iter().filter_map(finished).collect(),
            metrics: self.metrics,
            engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::testing::{on_both_engines, send_then_count};
    use crate::{tags, CapacityPolicy, Config, Network, NodeId, SimError, Status, ViolationKind};
    use crate::{RoundCtx, WireMsg};

    #[test]
    fn kt0_violations_are_blamed_identically_with_tracking_on() {
        // The tail knows only itself. Round 0: it writes to the head — an
        // unknown addressee, delivered all the same under `Record`, which
        // teaches the head the tail's ID. Round 1: the head carries that
        // ID to its successor (now legal), while position 1 carries it to
        // *its* successor without ever having learned it.
        let mut config = Config::ncc0(3);
        config.capacity_policy = CapacityPolicy::Record;
        let net = Network::new(4, config);
        let ids = net.ids_in_path_order().to_vec();
        let result = on_both_engines(&net, |seed| {
            let position = ids.iter().position(|&id| id == seed.id).unwrap();
            let ids = ids.clone();
            move |ctx: &mut RoundCtx<'_>| {
                let signal = WireMsg::signal(tags::GENERIC);
                match (position, ctx.round()) {
                    (3, 0) => ctx.send(ids[0], signal),
                    (0, 1) => ctx.send(ids[1], signal.with_addr(ids[3])),
                    (1, 1) => ctx.send(ids[2], signal.with_addr(ids[3])),
                    (_, 3) => return Status::Done(()),
                    _ => {}
                }
                Status::Continue
            }
        })
        .unwrap();
        let violations = &result.metrics.violations;
        assert_eq!(violations.unknown_addressee, 1);
        assert_eq!(violations.unknown_carried, 1);
        let samples = &result.metrics.violation_samples;
        let blamed: Vec<(u64, NodeId)> = samples.iter().map(|v| (v.round, v.node)).collect();
        assert_eq!(blamed, vec![(0, ids[3]), (1, ids[1])]);
        assert!(matches!(
            samples[1].kind,
            ViolationKind::UnknownCarriedAddress { carried } if carried == ids[3]
        ));
        // Position 1 ends up knowing everyone: itself, its successor, the
        // head (a sender) and the tail (an address the head carried).
        assert_eq!(result.metrics.max_knowledge, 4);
    }

    #[test]
    fn queue_backlog_of_a_retired_node_counts_as_undelivered() {
        // Everyone writes to the head in round 0; the head retires after
        // two deliveries of `cap` each, the rest of its queue is lost.
        let mut config = Config::ncc0(5).with_queueing();
        config.track_knowledge = false;
        let (n, cap) = (40, config.capacity(40));
        let net = Network::new(n, config);
        let head = net.ids_in_path_order()[0];
        let result = on_both_engines(&net, |seed| match seed.id == head {
            true => send_then_count(vec![], 1),
            false => send_then_count(vec![head], 5),
        })
        .unwrap();
        let sent = n - 1;
        assert_eq!(result.outputs[0].1, 2 * cap, "two rounds of `cap` each");
        assert_eq!(result.metrics.undelivered, (sent - 2 * cap) as u64);
        assert_eq!(result.metrics.max_queue_len, sent - cap);
        assert_eq!(result.metrics.max_received_per_round, cap);
    }

    #[test]
    fn strict_abort_returns_the_same_violation_record() {
        // Two violations in one round; the run must die on the first in
        // source order — position 1's, not position 2's.
        let net = Network::new(4, Config::ncc0(9));
        let ids = net.ids_in_path_order().to_vec();
        let err = on_both_engines(&net, |seed| {
            let offends = seed.id == ids[1] || seed.id == ids[2];
            send_then_count(if offends { vec![ids[0]] } else { vec![] }, 1)
        })
        .unwrap_err();
        match err {
            SimError::Violation(v) => {
                assert_eq!((v.round, v.node), (0, ids[1]));
                assert!(matches!(v.kind, ViolationKind::UnknownAddressee { .. }));
            }
            other => panic!("expected a violation, got {other}"),
        }
    }
}
