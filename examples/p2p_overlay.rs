//! P2P overlay construction — the paper's motivating scenario.
//!
//! ```sh
//! cargo run --release --example p2p_overlay
//! ```
//!
//! 256 peers want a heavy-tailed overlay (a few well-provisioned
//! super-peers, many light clients — a power-law degree profile). We
//! build it *explicitly* (both endpoints of every link know it, Theorem
//! 12), then inspect the overlay a downstream system would actually use:
//! degree compliance, connectivity, diameter.

use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::realization::verify;
use distributed_graph_realizations::{graph, graphgen};

fn main() {
    let n = 256;
    // Power-law-ish degrees, exponent ~2.3, hub cap 48, repaired to a
    // graphic sequence.
    let degrees = graphgen::power_law_sequence(n, 48, 2.3, 7);
    let seq = DegreeSequence::new(degrees.clone());
    println!(
        "n = {n}, Δ = {}, m = {}, graphic: {}",
        seq.max_degree(),
        seq.edge_count(),
        seq.is_graphic()
    );

    // The explicit workload defaults to the queueing policy; its scheduled
    // edge hand-off lands every announcement in a round its receiver can
    // name, so it runs under the strict policy as well.
    let out = Realization::new(Workload::Explicit(degrees.clone()))
        .seed(99)
        .run()
        .expect("simulation failed");
    let r = out.degrees().expect_realized();

    verify::degrees_match(&r.graph, &r.requested).expect("degree mismatch");
    println!(
        "explicit overlay built: {} edges in {} rounds ({} messages)",
        r.graph.edge_count(),
        r.metrics.rounds,
        r.metrics.messages
    );

    // Every edge is known at both endpoints — check a random node's view.
    let some_hub = *r
        .requested
        .iter()
        .max_by_key(|(_, &d)| d)
        .map(|(id, _)| id)
        .unwrap();
    println!(
        "hub {} has {} links; it knows all of them: {}",
        some_hub,
        r.graph.degree_of(some_hub),
        r.explicit_neighbors[&some_hub].len() == r.graph.degree_of(some_hub)
    );

    // Overlay quality metrics a P2P system cares about.
    let components = graph::connected_components(&r.graph).len();
    println!("connected components: {components}");
    if components == 1 {
        let dia = graph::diameter(&r.graph).unwrap();
        println!("overlay diameter: {dia}");
    }
    let hist = degree_histogram(&degrees);
    println!("degree histogram (degree: count): {hist:?}");
}

fn degree_histogram(degrees: &[usize]) -> Vec<(usize, usize)> {
    let mut map = std::collections::BTreeMap::new();
    for &d in degrees {
        *map.entry(d).or_insert(0) += 1;
    }
    map.into_iter().collect()
}
