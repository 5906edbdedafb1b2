//! Experiment harness: one table per paper claim, each with a PASS/FAIL
//! verdict — the evidence column of ARCHITECTURE.md's *Deviations from
//! the paper* ledger. The `experiments` binary renders the tables; this
//! library holds the runners so Criterion benches and tests can reuse
//! them.

pub mod drive;
pub mod experiments;
pub mod table;

pub use table::Table;

/// All experiment IDs, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "F1", "C2", "T3", "T4", "T11", "T12", "T13", "T14", "T16", "T17", "T18", "T19", "T20", "A1",
    "A2",
];

/// Runs one experiment by ID, returning its tables.
///
/// # Panics
///
/// Panics on an unknown ID.
pub fn run(id: &str) -> Vec<Table> {
    match id {
        "F1" => experiments::figures::fig1(),
        "C2" => experiments::primitives::c2_positions(),
        "T3" => experiments::primitives::t3_sort(),
        "T4" => experiments::primitives::t4_aggregate(),
        "T11" => experiments::degrees::t11_implicit(),
        "T12" => experiments::degrees::t12_explicit(),
        "T13" => experiments::degrees::t13_envelope(),
        "T14" => experiments::trees::t14_chain(),
        "T16" => experiments::trees::t16_greedy(),
        "T17" => experiments::connectivity::t17_ncc1(),
        "T18" => experiments::connectivity::t18_ncc0(),
        "T19" => experiments::lower_bounds::t19_explicit(),
        "T20" => experiments::lower_bounds::t20_implicit(),
        "A1" => experiments::ablations::a1_capacity(),
        "A2" => experiments::ablations::a2_policy(),
        other => panic!("unknown experiment id {other:?}"),
    }
}
