//! Connectivity-threshold realization (Section 6 of *Distributed Graph
//! Realizations*): construct an overlay `G` with few edges such that
//! `Conn_G(u, v) ≥ σ(u, v)` for all pairs.
//!
//! Following the paper, the algorithms target the stronger per-node form:
//! with `ρ(v) = max_u σ(u, v)`, they guarantee
//! `Conn_G(u, v) ≥ min(ρ(u), ρ(v))` using at most `Σρ ≤ 2·OPT` edges
//! (every realization needs at least `Σρ/2` edges, since each node `v`
//! needs degree ≥ `ρ(v)`).
//!
//! * [`distributed::ncc1`] — Theorem 17: `O~(1)`-round implicit
//!   realization in NCC1 (star through the maximum-`ρ` node `w`),
//!   practical at 10⁵–10⁶ nodes.
//! * [`distributed::ncc0`] — Theorem 18 / Algorithm 6: `O~(Δ)`-round
//!   explicit realization in NCC0 (and NCC1).
//! * [`distributed::ncc0_exact`] — the **paper-exact** Algorithm 6 as one
//!   composed batched protocol: masked prefix envelope recursion,
//!   distinctness patch, phase-2 pipeline, explicitness acks.
//! * [`sequential`] — the centralized Frank–Chou-style baseline and the
//!   `⌈Σρ/2⌉` lower bound.
//! * [`verify`] — max-flow certification of the pairwise thresholds.
//!
//! The driver entry point, [`driver::prepare_threshold`], is the
//! engine room of the `dgr::Realization` facade builder.

pub mod distributed;
pub mod driver;
pub mod sequential;
pub mod verify;

pub use driver::{prepare_threshold, ThresholdAlgo, ThresholdRealization};
pub use sequential::{edge_lower_bound, sequential_realization};
pub use verify::{check_thresholds, ThresholdReport};

/// A connectivity-threshold problem instance: `rho[i]` is the requirement
/// of the `i`-th node (assigned by knowledge-path position in the
/// drivers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThresholdInstance {
    /// Per-node requirements `ρ(v) ≥ 1`, each at most `n - 1`.
    pub rho: Vec<usize>,
}

impl ThresholdInstance {
    /// Wraps and validates a requirement vector.
    ///
    /// # Panics
    ///
    /// Panics if any `ρ` is 0 or ≥ `n` (no simple graph can satisfy it).
    pub fn new(rho: Vec<usize>) -> Self {
        let n = rho.len();
        assert!(
            rho.iter().all(|&r| r >= 1 && r < n.max(2)),
            "thresholds must be in [1, n-1]"
        );
        ThresholdInstance { rho }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// The maximum requirement `d₀ = Δ`.
    pub fn max_rho(&self) -> usize {
        self.rho.iter().copied().max().unwrap_or(0)
    }

    /// Sum of requirements (twice the edge lower bound).
    pub fn sum(&self) -> usize {
        self.rho.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_stats() {
        let t = ThresholdInstance::new(vec![3, 2, 1, 1]);
        assert_eq!(t.max_rho(), 3);
        assert_eq!(t.sum(), 7);
        assert_eq!(t.len(), 4);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn rejects_zero() {
        let _ = ThresholdInstance::new(vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn rejects_oversized() {
        let _ = ThresholdInstance::new(vec![3, 1, 1]);
    }
}
