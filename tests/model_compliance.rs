//! Model-compliance tests: the NCC constraints (capacities, KT0
//! addressing, message sizes) hold across every algorithm in the
//! workspace. These run under `CapacityPolicy::Strict` wherever the
//! algorithm allows, and otherwise assert clean metrics after the fact.
//! Every driver is constructed through the `Realization` builder.

use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::realization::verify;
use distributed_graph_realizations::{graphgen, trees};

/// Capacity usage must stay within the enforced Θ(log n) budget — not
/// just "no violations" (Strict guarantees that) but visibly bounded.
#[test]
fn implicit_realization_respects_capacity_headroom() {
    let degrees = graphgen::near_regular_sequence(64, 6, 3);
    let out = Realization::new(Workload::Implicit(degrees))
        .seed(3)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    assert!(r.metrics.max_sent_per_round <= r.metrics.capacity);
    assert!(r.metrics.max_received_per_round <= r.metrics.capacity);
    assert_eq!(r.metrics.violations.total(), 0);
}

/// The KT0 knowledge tracker is on by default; a star sequence forces
/// maximal knowledge spread and must still be legal.
#[test]
fn star_realization_is_kt0_legal() {
    let n = 48;
    let mut degrees = vec![1usize; n];
    degrees[0] = n - 1;
    if (degrees.iter().sum::<usize>()) % 2 != 0 {
        degrees[1] = 2;
        degrees[2] = 2;
    }
    graphgen::repair_to_graphic(&mut degrees);
    let out = Realization::new(Workload::Implicit(degrees))
        .tracking(Kt0::Tracked)
        .seed(8)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    assert!(r.metrics.is_clean());
    // Lower-bound intuition (Theorem 20): realizing a heavy node forces
    // substantial knowledge to accumulate somewhere.
    assert!(r.metrics.max_knowledge >= 4);
}

/// Explicit realization under queueing must deliver everything: an
/// undelivered message means some node stopped listening too early.
#[test]
fn explicit_realization_drains_all_queues() {
    let degrees = graphgen::star_heavy_sequence(56, 1, 2, 4);
    let out = Realization::new(Workload::Explicit(degrees))
        .seed(4)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    assert_eq!(r.metrics.undelivered, 0);
    assert!(r.metrics.max_received_per_round <= r.metrics.capacity);
}

/// Both tree algorithms run fully strict.
#[test]
fn tree_algorithms_run_strict() {
    let degrees = graphgen::random_tree_sequence(72, 6);
    for algo in [trees::TreeAlgo::Chain, trees::TreeAlgo::Greedy] {
        let out = Realization::new(Workload::Tree {
            degrees: degrees.clone(),
            algo,
        })
        .policy(CapacityPolicy::Strict)
        .seed(6)
        .run()
        .unwrap();
        let t = out.tree().expect_realized();
        assert!(t.metrics.is_clean(), "{algo:?}");
    }
}

/// Algorithm 6's phases must never overflow receive capacity at delivery
/// time (the queue policy paces, but delivery stays within cap) — both
/// the default pipeline variant and the composed paper-exact variant.
#[test]
fn connectivity_ncc0_delivery_is_paced() {
    let rho = graphgen::uniform_thresholds(40, 1, 6, 7);
    for workload in [
        Workload::Ncc0Threshold(rho.clone()),
        Workload::Ncc0Exact(rho.clone()),
    ] {
        let out = Realization::new(workload).seed(7).run().unwrap();
        let out = out.threshold();
        assert!(out.metrics.max_received_per_round <= out.metrics.capacity);
        assert_eq!(out.metrics.undelivered, 0);
        assert_eq!(out.metrics.violations.total(), 0);
    }
}

/// Message volume sanity: the implicit realization is message-frugal —
/// within a polylog factor of one message per edge per phase.
#[test]
fn message_volume_is_bounded() {
    let n = 64;
    let degrees = graphgen::near_regular_sequence(n, 4, 9);
    let out = Realization::new(Workload::Implicit(degrees))
        .seed(9)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    let phases = r.phases.max(1);
    let per_phase = r.metrics.messages / phases;
    // Each phase sorts (O(n log² n) messages) plus broadcasts; allow a
    // generous constant.
    let budget = (n as u64) * 64 * 8;
    assert!(
        per_phase < budget,
        "phase message volume {per_phase} exceeds {budget}"
    );
}

/// The paper's remark: every NCC0 algorithm runs unchanged in NCC1 (the
/// builder's model override).
#[test]
fn ncc0_algorithms_run_in_ncc1() {
    let degrees = graphgen::random_graphic_sequence(32, 6, 10);
    let out = Realization::new(Workload::Implicit(degrees))
        .model(Model::Ncc1)
        .seed(10)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    verify::degrees_match(&r.graph, &r.requested).unwrap();
}

/// A hub's explicitness hand-off under half the default capacity, the
/// knowledge tracked: every announcement lands in a round its leader can
/// name, within its capacity, and every address it carries is one its
/// position learned — the tracked run stays clean.
#[test]
fn explicit_hand_off_at_half_capacity_is_kt0_legal() {
    let degrees = graphgen::star_heavy_sequence(512, 1, 2, 4);
    let out = Realization::new(Workload::Explicit(degrees))
        .policy(CapacityPolicy::Queue)
        .capacity_factor(0.5)
        .tracking(Kt0::Tracked)
        .seed(7)
        .run()
        .unwrap();
    let r = out.degrees().expect_realized();
    verify::degrees_match(&r.graph, &r.requested).unwrap();
    assert!(r.metrics.max_received_per_round <= r.metrics.capacity);
    assert!(r.metrics.is_clean());
    assert_eq!(r.metrics.violations.unknown_addressee, 0);
    assert_eq!(r.metrics.violations.unknown_carried, 0);
}

/// A queued delivery is a delivery: an n-to-1 burst (ablation A2's: in
/// round 0 everyone but the head sends it one message) exceeds the head's
/// receive capacity, and the queue policy holds the surplus back, never
/// hands a node more than its cap in a round, and delivers all of it.
#[test]
fn an_n_to_one_burst_carries_paced_queue_backlog() {
    use distributed_graph_realizations::ncc::{tags, NodeProtocol, RoundCtx, Status, WireMsg};
    struct Burst {
        head: NodeId,
        got: usize,
    }
    impl NodeProtocol for Burst {
        type Output = usize;
        fn step(&mut self, ctx: &mut RoundCtx<'_>) -> Status<usize> {
            self.got += ctx.inbox().len();
            if ctx.round() == 0 && ctx.id() != self.head {
                ctx.send(self.head, WireMsg::signal(tags::GENERIC));
            }
            match ctx.round() > ctx.n() as u64 {
                true => Status::Done(self.got),
                false => Status::Continue,
            }
        }
    }
    let n = 128;
    let mut config = Config::ncc0(62).with_queueing();
    config.track_knowledge = false; // everyone addresses the head directly
    let net = Network::new(n, config);
    let head = net.ids_in_path_order()[0];
    let r = net.run_protocol(|_| Burst { head, got: 0 }).unwrap();
    assert_eq!(*r.output_of(head).unwrap(), n - 1);
    assert!(
        r.metrics.max_queue_len > 0,
        "no receive queue carried backlog"
    );
    assert!(r.metrics.max_received_per_round <= r.metrics.capacity);
    assert!(r.metrics.is_clean());
}

/// The three workloads with explicitness hand-offs run fully strict at
/// the default capacity, on both engines: every hand-off message lands in
/// a round its receiver can name, within its capacity — the star-heavy
/// explicit request included, whose hub hears `n - 1` announcements.
#[test]
fn scheduled_hand_offs_run_strict() {
    let rho = graphgen::uniform_thresholds(200, 1, 6, 9);
    let workloads = [
        (
            "star",
            Workload::Explicit(graphgen::star_heavy_sequence(512, 1, 2, 4)),
        ),
        (
            "power",
            Workload::Explicit(graphgen::power_law_sequence(256, 32, 2.5, 9)),
        ),
        ("ncc0", Workload::Ncc0Threshold(rho.clone())),
        ("exact", Workload::Ncc0Exact(rho)),
    ];
    for (name, workload) in workloads {
        for engine in [Engine::Batched, Engine::Reference] {
            let what = format!("{name} {engine:?}");
            let out = Realization::new(workload.clone())
                .policy(CapacityPolicy::Strict)
                .engine(engine)
                .seed(9)
                .run()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let m = out.metrics();
            assert!(m.is_clean(), "{what}");
            assert!(m.max_received_per_round <= m.capacity, "{what}");
            assert!(m.max_sent_per_round <= m.capacity, "{what}");
        }
    }
}
