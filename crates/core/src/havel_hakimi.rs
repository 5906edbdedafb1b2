//! The sequential Havel–Hakimi algorithm (§3.3 of the paper, Theorem 9):
//! `D` (non-increasing) is graphic iff the sequence obtained by removing
//! `d_1` and decrementing the next `d_1` entries is graphic — which yields
//! both a recognizer and a constructor.
//!
//! Two implementations:
//!
//! * [`realize`] — heap-based, `O(m log n)`: the production constructor and
//!   the baseline for the sequential benches.
//! * [`realize_naive`] — the textbook re-sort-every-step version,
//!   `O(n² log n)`: kept as a cross-validation oracle.

use crate::sequence::{DegreeSequence, RealizeError};
use std::collections::BinaryHeap;

/// A sequential realization: edges over node *indices* `0..n` (index `i`
/// has degree `degrees[i]` in the input order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Realization {
    /// Edge list over input indices.
    pub edges: Vec<(usize, usize)>,
}

impl Realization {
    /// The degree of every index, for verification.
    pub fn degrees(&self, n: usize) -> Vec<usize> {
        let mut d = vec![0; n];
        for &(u, v) in &self.edges {
            d[u] += 1;
            d[v] += 1;
        }
        d
    }
}

/// Havel–Hakimi with a max-heap: repeatedly pop the maximum-degree node and
/// connect it to the next `d` highest-degree nodes.
///
/// # Errors
///
/// [`RealizeError`] when the sequence is not graphic (the cheap conditions
/// are reported specifically; otherwise [`RealizeError::NotGraphic`]).
pub fn realize(seq: &DegreeSequence) -> Result<Realization, RealizeError> {
    seq.quick_check()?;
    let mut heap: BinaryHeap<(usize, usize)> = seq
        .degrees()
        .iter()
        .enumerate()
        .filter(|(_, &d)| d > 0)
        .map(|(i, &d)| (d, i))
        .collect();
    let mut edges = Vec::with_capacity(seq.edge_count());
    let mut scratch = Vec::new();
    while let Some((d, u)) = heap.pop() {
        debug_assert!(d > 0);
        scratch.clear();
        for _ in 0..d {
            match heap.pop() {
                Some((dv, v)) => {
                    debug_assert!(dv > 0);
                    edges.push((u, v));
                    if dv > 1 {
                        scratch.push((dv - 1, v));
                    }
                }
                // Fewer than d positive-degree nodes remain.
                None => return Err(RealizeError::NotGraphic),
            }
        }
        heap.extend(scratch.drain(..));
    }
    Ok(Realization { edges })
}

/// The textbook Havel–Hakimi: materialize the sequence, re-sort after every
/// satisfaction step. Used as an oracle in tests.
///
/// # Errors
///
/// [`RealizeError`] when the sequence is not graphic.
pub fn realize_naive(seq: &DegreeSequence) -> Result<Realization, RealizeError> {
    seq.quick_check()?;
    // (remaining degree, original index), kept sorted non-increasing.
    let mut rem: Vec<(usize, usize)> = seq
        .degrees()
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, i))
        .collect();
    let mut edges = Vec::new();
    while !rem.is_empty() {
        rem.sort_unstable_by(|a, b| b.cmp(a));
        let (d, u) = rem[0];
        if d == 0 {
            break;
        }
        if d >= rem.len() {
            return Err(RealizeError::NotGraphic);
        }
        rem[0].0 = 0;
        for entry in rem.iter_mut().skip(1).take(d) {
            if entry.0 == 0 {
                return Err(RealizeError::NotGraphic);
            }
            entry.0 -= 1;
            edges.push((u, entry.1));
        }
    }
    Ok(Realization { edges })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(seq: &DegreeSequence, r: &Realization) {
        // Degrees must match exactly.
        assert_eq!(&r.degrees(seq.len()), seq.degrees());
        // Simple graph: no self-loops or duplicate edges.
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in &r.edges {
            assert_ne!(u, v, "self-loop");
            assert!(seen.insert((u.min(v), u.max(v))), "duplicate edge");
        }
    }

    #[test]
    fn realizes_basic_sequences() {
        for degrees in [
            vec![],
            vec![0],
            vec![1, 1],
            vec![2, 2, 2],
            vec![3, 3, 3, 3],
            vec![3, 2, 2, 2, 1],
            vec![4, 4, 4, 4, 4], // K5
            vec![2, 2, 2, 2, 2, 2],
            vec![5, 3, 3, 3, 2, 2], // mixed
        ] {
            let seq = DegreeSequence::new(degrees.clone());
            let r = realize(&seq).unwrap_or_else(|e| panic!("{degrees:?}: {e}"));
            verify(&seq, &r);
            let rn = realize_naive(&seq).unwrap();
            verify(&seq, &rn);
        }
    }

    #[test]
    fn rejects_non_graphic() {
        for degrees in [
            vec![1],
            vec![3, 3, 1, 1],
            vec![4, 4, 4, 1, 1],
            vec![5, 5, 4, 3, 2, 1],
            vec![2, 2],
        ] {
            let seq = DegreeSequence::new(degrees.clone());
            assert!(realize(&seq).is_err(), "{degrees:?} accepted");
            assert!(realize_naive(&seq).is_err(), "{degrees:?} accepted (naive)");
        }
    }

    #[test]
    fn heap_and_naive_agree_on_graphicness_exhaustively() {
        fn rec(buf: &mut Vec<usize>, len: usize) {
            if buf.len() == len {
                let seq = DegreeSequence::new(buf.clone());
                assert_eq!(
                    realize(&seq).is_ok(),
                    realize_naive(&seq).is_ok(),
                    "mismatch on {buf:?}"
                );
                assert_eq!(
                    realize(&seq).is_ok(),
                    crate::erdos_gallai::is_graphic(buf),
                    "HH vs EG mismatch on {buf:?}"
                );
                return;
            }
            for d in 0..4 {
                buf.push(d);
                rec(buf, len);
                buf.pop();
            }
        }
        rec(&mut Vec::new(), 4);
        rec(&mut Vec::new(), 5);
    }
}
