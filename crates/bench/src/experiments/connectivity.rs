//! Connectivity-threshold experiments (Theorems 17 and 18).

use crate::drive;
use crate::experiments::ratios_flat;
use crate::table::{f2, Table};
use dgr_connectivity::{edge_lower_bound, ThresholdInstance};
use dgr_graphgen as graphgen;

fn lg(n: usize) -> f64 {
    (n as f64).log2()
}

/// Theorem 17: NCC1 implicit realization in `O~(1)` rounds, ≤ 2·OPT edges.
pub fn t17_ncc1() -> Vec<Table> {
    let n = 128;
    let mut t = Table::new(
        format!("Theorem 17 — NCC1 implicit threshold realization (n = {n})"),
        &["Δρ", "rounds", "edges", "⌈Σρ/2⌉", "edges/LB", "satisfied"],
    );
    let mut ok_all = true;
    let mut rounds_seen = Vec::new();
    for &dmax in &[2usize, 8, 32, 127] {
        let rho = graphgen::uniform_thresholds(n, 1, dmax, 41);
        let inst = ThresholdInstance::new(rho);
        let out = drive::ncc1(&inst.rho, 41);
        let lb = edge_lower_bound(&inst);
        let approx = out.graph.edge_count() as f64 / lb as f64;
        ok_all &= out.report.satisfied && approx <= 2.0;
        rounds_seen.push(out.metrics.rounds);
        t.row(vec![
            dmax.to_string(),
            out.metrics.rounds.to_string(),
            out.graph.edge_count().to_string(),
            lb.to_string(),
            f2(approx),
            out.report.satisfied.to_string(),
        ]);
    }
    // O~(1): rounds must be identical across the entire Δ sweep (they
    // depend only on n) and polylog in n.
    let flat = rounds_seen.windows(2).all(|w| w[0] == w[1]);
    let polylog = (rounds_seen[0] as f64) <= 12.0 * lg(n);
    t.verdict(
        ok_all && flat && polylog,
        "round count identical across a 64x Δ sweep (O~(1), i.e. \
         independent of Δ); every realization flow-certified at ≤ 2·OPT \
         edges",
    );
    vec![t]
}

/// Theorem 18: NCC0 explicit realization in `O~(Δ)` rounds, ≤ 2·OPT edges.
pub fn t18_ncc0() -> Vec<Table> {
    let n = 128;
    let mut t = Table::new(
        format!("Theorem 18 — NCC0 explicit threshold realization (n = {n})"),
        &[
            "Δρ",
            "rounds",
            "Δ + log²n",
            "rounds/budget",
            "edges/LB",
            "satisfied",
        ],
    );
    let mut ok_all = true;
    let mut ratios = Vec::new();
    for &dmax in &[4usize, 8, 16, 32, 64] {
        let rho = graphgen::uniform_thresholds(n, 1, dmax, 42);
        let inst = ThresholdInstance::new(rho);
        let out = drive::ncc0(&inst.rho, 42);
        let lb = edge_lower_bound(&inst);
        let approx = out.graph.edge_count() as f64 / lb as f64;
        ok_all &= out.report.satisfied && approx <= 2.0 && out.metrics.undelivered == 0;
        let budget = inst.max_rho() as f64 + lg(n) * lg(n);
        ratios.push(out.metrics.rounds as f64 / budget);
        t.row(vec![
            inst.max_rho().to_string(),
            out.metrics.rounds.to_string(),
            f2(budget),
            f2(out.metrics.rounds as f64 / budget),
            f2(approx),
            out.report.satisfied.to_string(),
        ]);
    }
    t.verdict(
        ok_all && ratios_flat(&ratios, 3.0),
        "rounds track Δ + polylog while Δ grows 16x (O~(Δ)); all \
         realizations explicit, flow-certified, ≤ 2·OPT edges",
    );

    // Workload-shape table: the approximation quality across profiles.
    let mut t2 = Table::new(
        "Theorem 18 (quality) — approximation factor across workload shapes",
        &["workload", "n", "Σρ", "edges", "edges/LB", "satisfied"],
    );
    let shapes: Vec<(&str, Vec<usize>)> = vec![
        ("uniform [1,6]", graphgen::uniform_thresholds(96, 1, 6, 5)),
        ("tiered core-8", graphgen::tiered_thresholds(96, 6, 8)),
        ("single hub 24", graphgen::single_hub_thresholds(96, 24)),
        ("all equal 5", vec![5; 96]),
    ];
    let mut ok2 = true;
    for (name, rho) in shapes {
        let inst = ThresholdInstance::new(rho);
        let out = drive::ncc0(&inst.rho, 43);
        let lb = edge_lower_bound(&inst);
        let approx = out.graph.edge_count() as f64 / lb as f64;
        ok2 &= out.report.satisfied && approx <= 2.0;
        t2.row(vec![
            name.into(),
            inst.len().to_string(),
            inst.sum().to_string(),
            out.graph.edge_count().to_string(),
            f2(approx),
            out.report.satisfied.to_string(),
        ]);
    }
    t2.verdict(ok2, "2-approximation holds on every workload shape");
    vec![t, t2]
}
