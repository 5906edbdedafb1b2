//! Quickstart, live edition: watch a realization run round by round.
//!
//! ```sh
//! cargo run --release --example quickstart_live
//! ```
//!
//! The plain `quickstart` example gets its answers after the fact; this
//! one drives the same builder through the **streaming session** API.
//! `run_streaming()` sets the run up and hands it back as a session; each
//! `next_round()` call executes exactly one round of the engine on this
//! thread, so a six-digit realization can be watched (or paused, or
//! inspected) mid-flight instead of post-hoc.

use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::realization::verify;

fn main() {
    // A four-digit implicit realization: big enough that the round loop
    // has something to narrate, small enough to finish in moments.
    let n = 4096;
    let degrees: Vec<usize> = (0..n).map(|i| 2 + i % 3).collect();
    let sum: usize = degrees.iter().sum();
    let degrees = {
        // Keep the sum even so the sequence stays graphic.
        let mut d = degrees;
        if sum % 2 == 1 {
            d[0] += 1;
        }
        d
    };

    println!("realizing {n} degrees, streaming one snapshot per round:\n");
    let mut session = Realization::new(Workload::Implicit(degrees))
        .seed(2026)
        .run_streaming()
        .expect("contradictory knobs");

    let mut last_live = n;
    while let Some(snapshot) = session.next_round() {
        // Print a line whenever the live population shrank noticeably,
        // plus every 64th round — a poor man's progress bar. (For
        // hands-off output, `.observe(ProgressSink::stderr(64))` does
        // this without the loop.)
        for event in &snapshot.events {
            if let RunEvent::Compaction { round, live } = event {
                println!("  round {round:>5}: engine compacted to {live} live slots");
            }
        }
        if snapshot.live * 10 <= last_live * 9 || snapshot.round % 64 == 0 {
            println!(
                "  round {:>5}: {:>6} messages delivered, {:>5} nodes still running",
                snapshot.round, snapshot.delivered, snapshot.live
            );
            last_live = snapshot.live;
        }
    }

    // The session hands back exactly what `run()` would have returned.
    let out = session.finish().expect("simulation failed");
    let r = out.degrees().expect_realized();
    verify::degrees_match(&r.graph, &r.requested).expect("degree mismatch");
    println!(
        "\nrealized {} edges in {} rounds ({} messages); overlay verified ✓",
        r.graph.edge_count(),
        r.metrics.rounds,
        r.metrics.messages
    );
}
