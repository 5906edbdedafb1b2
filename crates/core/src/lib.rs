//! Degree-sequence realization — the primary contribution of *Distributed
//! Graph Realizations* (IPDPS 2020), plus the classical sequential theory it
//! builds on.
//!
//! # Sequential layer
//!
//! * [`DegreeSequence`] — the input object, with its basic statistics
//!   (`Δ`, `m = Σd/2`, parity).
//! * [`erdos_gallai::is_graphic`] — the Erdős–Gallai characterization
//!   (1960): `D` is graphic iff
//!   `Σ_{i≤k} d_i ≤ k(k-1) + Σ_{i>k} min(d_i, k)` for all `k`.
//! * [`havel_hakimi::realize`] — the Havel–Hakimi construction (§3.3,
//!   Theorem 9): repeatedly satisfy a maximum-degree node by connecting it
//!   to the next-highest-degree nodes.
//!
//! # Distributed layer (NCC model)
//!
//! One module, [`distributed`], one phase engine in three flavors:
//!
//! * [`Flavor::Implicit`](distributed::Flavor) — Algorithm 3: implicit
//!   realization in `O~(min{√m, Δ})` rounds (Theorem 11). A parallelized
//!   Havel–Hakimi: in every phase one sweep learns the maximum remaining
//!   degree `δ` and its multiplicity `N`, the nodes sort themselves by
//!   remaining degree, and `q = max(1, ⌊N/(δ+1)⌋)` disjoint star groups
//!   are satisfied at once by interval multicast.
//! * [`Flavor::Explicit`](distributed::Flavor) — Theorem 12: the implicit
//!   realization is made explicit by a scheduled hand-off of edge
//!   announcements, beside the phase loop: each lands in a round its
//!   receiver can name.
//! * [`Flavor::Envelope`](distributed::Flavor) — Theorem 13: for
//!   non-graphic `D`, realize an upper envelope `D'` with `d'_i ≥ d_i` and
//!   `Σd' ≤ 2Σd` (multigraph semantics; ARCHITECTURE.md, *Deviations from
//!   the paper*).
//!
//! The [`driver`] module wires degree assignments onto simulated networks
//! and re-assembles/verifies the distributed outputs; [`verify`] holds the
//! checks shared by tests, examples and benches. Its one entry point,
//! [`prepare_degrees`], is the **engine room** of the
//! `dgr::Realization` facade builder — use the builder from applications,
//! and the engine room from white-box internals (the differential suites
//! in `crates/core/tests`).

pub mod distributed;
pub mod driver;
pub mod erdos_gallai;
pub mod havel_hakimi;
pub mod sequence;
pub mod verify;

pub use distributed::{DistributedRealization, ImplicitOutcome, Unrealizable};
pub use driver::{prepare_degrees, DriverOutput};
pub use havel_hakimi::Realization;
pub use sequence::{DegreeSequence, RealizeError};
