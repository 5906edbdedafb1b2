//! Duplicate-safe receives: with every message of a run delivered twice,
//! a primitive must hand every node its fault-free output, on both
//! engines.

use dgr_ncc::{Config, EngineKind, Network, NodeProtocol, NodeSeed, Scenario};
use dgr_primitives::bbst::BbstStep;
use dgr_primitives::contacts::ContactsStep;
use dgr_primitives::ctx::UndirectStep;
use dgr_primitives::{Step, StepProtocol};

/// Runs `factory` on an n = 37 network fault-free, then under full
/// duplication (queue policy) on both engines, and holds every node's
/// output and the round count to the fault-free run's.
fn outputs_survive_full_duplication<P, F>(seed: u64, factory: F)
where
    P: NodeProtocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(&NodeSeed<'_>) -> P + Send + Sync,
{
    let n = 37;
    let clean = Network::new(n, Config::ncc0(seed))
        .run_protocol(&factory)
        .unwrap();
    let scenario = Scenario::new(7).duplicate_messages(0..=u64::MAX, 1.0);
    let config = Config::ncc0(seed).with_queueing().with_scenario(scenario);
    let net = Network::new(n, config);
    for engine in [EngineKind::Batched, EngineKind::Reference] {
        let result = net.run_protocol_on(engine, None, None, &factory).unwrap();
        assert!(result.engine.faults_duplicated > 0, "{engine:?}");
        assert_eq!(result.metrics.rounds, clean.metrics.rounds, "{engine:?}");
        assert_eq!(result.outputs, clean.outputs, "{engine:?}");
    }
}

/// A duplicated `CONTACT` writes the same table entry twice.
#[test]
fn contact_tables_are_exact_under_full_duplication() {
    outputs_survive_full_duplication(43, |_| {
        StepProtocol::new(UndirectStep::new().then(|vp, _| ContactsStep::new(vp)))
    });
}

/// A duplicated invitation or acceptance changes no parent and no child:
/// every node ends with its place in Algorithm 1's fault-free tree.
#[test]
fn bbst_is_exact_under_full_duplication() {
    outputs_survive_full_duplication(44, |_| {
        StepProtocol::new(UndirectStep::new().then(|vp, _| {
            ContactsStep::new(vp).then(move |contacts, _| BbstStep::new(vp, contacts))
        }))
    });
}
