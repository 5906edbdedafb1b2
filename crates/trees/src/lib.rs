//! Tree realization (Section 5 of *Distributed Graph Realizations*): given
//! a degree sequence with `Σd = 2(n-1)` and all degrees positive, construct
//! an overlay *tree* realizing it — either any tree (Algorithm 4, which
//! produces the maximum-diameter caterpillar) or the **minimum-diameter**
//! greedy tree `T_G` of Smith–Székely–Wang \[30\] (Algorithm 5, Lemma 15).
//!
//! * [`greedy`] — the sequential constructions (greedy tree and chain
//!   tree) and a brute-force minimum-diameter oracle for small `n`.
//! * [`distributed`] — both distributed constructions as one state
//!   machine: [`TreeAlgo::Chain`], Distributed-Tree-Realization-1 (chain
//!   the non-leaves, hang the leaves by prefix-sum intervals;
//!   `O(polylog n)` rounds, Theorem 14), and [`TreeAlgo::Greedy`],
//!   Distributed-Tree-Realization-2 (every node adopts the next unparented
//!   nodes in sorted order; minimum diameter, Theorem 16, `O(polylog n)`
//!   rounds). Both run on the network path's positions after the degree
//!   sort and hand every child its parent through one shifted interval
//!   multicast; they differ only in the slot rule and where the child
//!   intervals start.
//! * [`driver`] — network wiring, assembly and verification; its entry
//!   point [`prepare_tree`] is the engine room of the
//!   `dgr::Realization` facade builder.

pub mod distributed;
pub mod driver;
pub mod greedy;

pub use driver::{prepare_tree, TreeAlgo, TreeRealization};
