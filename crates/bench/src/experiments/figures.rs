//! Figure 1: exact reproduction of the paper's warm-up construction on
//! the path `1‥8`. (Figure 2, the Theorem 1 search tree, has no
//! counterpart: positions and sweeps run on the contact table.)

use crate::table::Table;
use dgr_ncc::{Config, Network, NodeId};
use dgr_primitives::ctx::UndirectStep;
use dgr_primitives::warmup::{self, WarmupStep};
use dgr_primitives::{Step, StepProtocol};
use std::collections::HashMap;

fn tree_rows<T>(
    nodes: &[(NodeId, T)],
    fmt: impl Fn(&T) -> (String, String, String),
) -> Vec<Vec<String>> {
    let mut rows: Vec<(NodeId, Vec<String>)> = nodes
        .iter()
        .map(|(id, t)| {
            let (parent, left, right) = fmt(t);
            (*id, vec![id.to_string(), parent, left, right])
        })
        .collect();
    rows.sort_by_key(|(id, _)| *id);
    rows.into_iter().map(|(_, r)| r).collect()
}

/// Figure 1: the warm-up balanced binary tree on the 8-node path.
pub fn fig1() -> Vec<Table> {
    let net = Network::new(8, Config::ncc0(0).with_sequential_ids());
    let result = net
        .run_protocol(|_| StepProtocol::new(UndirectStep::new().then(|vp, _| WarmupStep::new(vp))))
        .unwrap();
    let mut t = Table::new(
        "Figure 1 — warm-up balanced binary tree on G_k = 1‥8",
        &["node", "parent", "left", "right"],
    );
    let opt = |o: Option<NodeId>| o.map_or("-".into(), |x| x.to_string());
    for row in tree_rows(&result.outputs, |w: &warmup::WarmupTree| {
        (opt(w.parent), opt(w.left), opt(w.right))
    }) {
        t.row(row);
    }
    let view: HashMap<NodeId, &warmup::WarmupTree> =
        result.outputs.iter().map(|(id, w)| (*id, w)).collect();
    let expected = view[&1].is_root
        && view[&1].left == Some(2)
        && view[&1].right == Some(3)
        && view[&2].left == Some(4)
        && view[&2].right == Some(6)
        && view[&3].left == Some(5)
        && view[&3].right == Some(7)
        && view[&4].left == Some(8);
    t.verdict(
        expected,
        "tree shape matches the paper's recursive construction; \
         height O(log n)",
    );
    vec![t]
}
