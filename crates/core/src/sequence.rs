//! The [`DegreeSequence`] input object and its invariants.

/// Errors from sequential realization routines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RealizeError {
    /// The sequence is not graphic (no simple graph realizes it).
    NotGraphic,
    /// A degree exceeds `n - 1` (impossible in any simple graph).
    DegreeTooLarge { index: usize, degree: usize },
    /// The degree sum is odd (violates the handshaking lemma).
    OddSum,
}

impl std::fmt::Display for RealizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealizeError::NotGraphic => write!(f, "sequence is not graphic"),
            RealizeError::DegreeTooLarge { index, degree } => {
                write!(f, "degree {degree} at index {index} exceeds n-1")
            }
            RealizeError::OddSum => write!(f, "degree sum is odd"),
        }
    }
}

impl std::error::Error for RealizeError {}

/// A degree sequence `D = (d_1, …, d_n)`, in arbitrary order.
///
/// The distributed algorithms receive degrees one-per-node; the sequential
/// routines normalize to non-increasing order internally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreeSequence {
    degrees: Vec<usize>,
}

impl DegreeSequence {
    /// Wraps a list of degrees.
    pub fn new(degrees: impl Into<Vec<usize>>) -> Self {
        DegreeSequence {
            degrees: degrees.into(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// The degrees in their given order.
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Sum of degrees.
    pub fn sum(&self) -> usize {
        self.degrees.iter().sum()
    }

    /// Maximum degree `Δ` (0 for the empty sequence).
    pub fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// Number of edges `m = Σd/2` in any realization.
    pub fn edge_count(&self) -> usize {
        self.sum() / 2
    }

    /// Is the degree sum even (handshaking-lemma necessary condition)?
    pub fn has_even_sum(&self) -> bool {
        self.sum().is_multiple_of(2)
    }

    /// Is the sequence realizable as a *tree*? Per Section 5 of the paper
    /// (and \[19\]): iff all degrees are positive and `Σd = 2(n-1)`.
    /// Single nodes (n = 1, d = 0) count as trivial trees.
    pub fn is_tree_realizable(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return false;
        }
        if n == 1 {
            return self.degrees[0] == 0;
        }
        self.degrees.iter().all(|&d| d >= 1) && self.sum() == 2 * (n - 1)
    }

    /// Is the sequence graphic? (Erdős–Gallai; see
    /// [`crate::erdos_gallai::is_graphic`].)
    pub fn is_graphic(&self) -> bool {
        crate::erdos_gallai::is_graphic(&self.degrees)
    }

    /// Validates the cheap necessary conditions, returning the specific
    /// failure.
    pub fn quick_check(&self) -> Result<(), RealizeError> {
        if let Some((index, &degree)) = self
            .degrees
            .iter()
            .enumerate()
            .find(|(_, &d)| d >= self.len().max(1))
        {
            return Err(RealizeError::DegreeTooLarge { index, degree });
        }
        if !self.has_even_sum() {
            return Err(RealizeError::OddSum);
        }
        Ok(())
    }
}

impl From<Vec<usize>> for DegreeSequence {
    fn from(v: Vec<usize>) -> Self {
        DegreeSequence::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats() {
        let d = DegreeSequence::new(vec![3, 1, 2, 2]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.sum(), 8);
        assert_eq!(d.max_degree(), 3);
        assert_eq!(d.edge_count(), 4);
        assert!(d.has_even_sum());
    }

    #[test]
    fn quick_check_failures() {
        assert_eq!(
            DegreeSequence::new(vec![4, 1, 1]).quick_check(),
            Err(RealizeError::DegreeTooLarge {
                index: 0,
                degree: 4
            })
        );
        assert_eq!(
            DegreeSequence::new(vec![1, 1, 1]).quick_check(),
            Err(RealizeError::OddSum)
        );
        assert!(DegreeSequence::new(vec![1, 1]).quick_check().is_ok());
    }

    #[test]
    fn tree_realizability() {
        assert!(DegreeSequence::new(vec![1, 1]).is_tree_realizable());
        assert!(DegreeSequence::new(vec![2, 1, 1]).is_tree_realizable());
        assert!(DegreeSequence::new(vec![3, 1, 1, 1]).is_tree_realizable());
        // Right sum, but a zero degree.
        assert!(!DegreeSequence::new(vec![3, 2, 1, 0]).is_tree_realizable());
        // Cycle: sum 2n, not 2(n-1).
        assert!(!DegreeSequence::new(vec![2, 2, 2]).is_tree_realizable());
        assert!(DegreeSequence::new(vec![0]).is_tree_realizable());
        assert!(!DegreeSequence::new(Vec::<usize>::new()).is_tree_realizable());
    }
}
