//! Seeded workload generators for the realization experiments: graphic
//! degree sequences of several shapes, tree-realizable sequences,
//! connectivity-threshold vectors, and the adversarial families behind the
//! paper's lower bounds (Theorems 19–20).
//!
//! Everything is deterministic in the seed, so every table of the
//! `experiments` binary is replayable bit-for-bit.

mod graphic;
mod lower_bound;
mod thresholds;
mod trees;

pub use graphic::{
    near_regular_sequence, power_law_sequence, random_graphic_sequence, repair_to_graphic,
    star_heavy_sequence,
};
pub use lower_bound::{delta_regular_family, sqrt_m_family};
pub use thresholds::{single_hub_thresholds, tiered_thresholds, uniform_thresholds};
pub use trees::{caterpillar_tree_sequence, random_tree_sequence, star_tree_sequence};
