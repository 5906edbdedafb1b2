//! Regenerates every table and figure of the reproduction, one per paper
//! claim with its PASS/FAIL verdict (ARCHITECTURE.md, *Deviations from
//! the paper*, cites them as its evidence column).
//!
//! ```sh
//! cargo run -p bench --release --bin experiments            # all
//! cargo run -p bench --release --bin experiments -- --only T11
//! cargo run -p bench --release --bin experiments -- --list
//! ```

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in dgr_bench::ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let only: Vec<&str> = args
        .iter()
        .position(|a| a == "--only")
        .map(|i| args[i + 1..].iter().map(String::as_str).collect())
        .unwrap_or_default();
    let ids: Vec<&str> = if only.is_empty() {
        dgr_bench::ALL_EXPERIMENTS.to_vec()
    } else {
        only
    };

    println!("# Distributed Graph Realizations — experiment tables\n");
    let mut failures = 0;
    for id in ids {
        let start = Instant::now();
        let tables = dgr_bench::run(id);
        let elapsed = start.elapsed();
        println!("## Experiment {id} ({elapsed:.2?})\n");
        for t in &tables {
            println!("{}", t.to_markdown());
            if !t.passed() {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment table(s) FAILED");
        std::process::exit(1);
    }
    println!("\nAll experiment verdicts passed.");
}
