//! Theorem 13: approximately realizing (possibly) non-graphic sequences by
//! an **upper envelope** `D' = (d'_1, …, d'_n)` with `d'_i ≥ d_i` and
//! `Σ d'_i ≤ 2 Σ d_i`.
//!
//! The construction is Algorithm 3 with one altered step: a node whose
//! remaining degree would go negative resets it to 0 (i.e. accepts the
//! extra edge) instead of declaring failure. Whenever a node is reset, the
//! re-sorting guarantees it is used as a neighbor at most `d_i` more times,
//! which bounds the total discrepancy `Σ(d'_i - d_i)` by `Σ d_i`.
//!
//! **Multigraph semantics.** Late phases may connect a pair of nodes that
//! is already adjacent (a retired group leader can re-enter a later group).
//! The paper's degree guarantees hold for the resulting *multiset* of
//! edges; `DESIGN.md` §4 documents this. The driver reports duplicate
//! counts so callers can quantify it (it is zero on every exact-mode run).
//!
//! The implementation is [`RealizeDegrees`](super::proto::RealizeDegrees)
//! with [`Flavor::Envelope`](super::proto::Flavor). It refuses
//! ([`Unrealizable`](super::Unrealizable)) only when some degree is `≥ n`
//! (no envelope exists in that case either).

#[cfg(test)]
mod tests {
    use crate::distributed::proto::Flavor;
    use crate::driver::{realize_for_test, DriverOutput};
    use dgr_ncc::Config;

    fn realize(degrees: &[usize], config: Config) -> DriverOutput {
        realize_for_test(degrees, config, Flavor::Envelope)
    }

    /// Checks the two Theorem 13 invariants on a realized envelope.
    fn check_envelope(degrees: &[usize], seed: u64) {
        let out = realize(degrees, Config::ncc0(seed));
        let g = out.expect_realized();
        let sum: usize = degrees.iter().sum();
        let mut envelope_sum = 0;
        for (i, &id) in g.path_order.iter().enumerate() {
            let d_prime = g.multi_degrees[&id];
            assert!(
                d_prime >= degrees[i],
                "node {i}: envelope {d_prime} < requested {}",
                degrees[i]
            );
            envelope_sum += d_prime;
        }
        assert!(
            envelope_sum <= 2 * sum,
            "Σd' = {envelope_sum} exceeds 2Σd = {}",
            2 * sum
        );
    }

    #[test]
    fn envelopes_odd_sum_sequences() {
        check_envelope(&[3, 3, 1, 0], 11);
        check_envelope(&[1, 0, 0], 12);
        check_envelope(&[5, 3, 3, 2, 2, 2, 1, 1], 13);
    }

    #[test]
    fn envelopes_eg_violating_sequences() {
        check_envelope(&[4, 4, 4, 1, 1], 14);
        check_envelope(&[3, 3, 1, 1], 15);
        check_envelope(&[5, 5, 4, 3, 2, 1], 16);
    }

    #[test]
    fn graphic_input_realizes_exactly() {
        // On a graphic sequence the envelope variant must produce an exact
        // realization with zero discrepancy and zero duplicates.
        let degrees = vec![3, 2, 2, 2, 1];
        let out = realize(&degrees, Config::ncc0(17));
        let g = out.expect_realized();
        assert_eq!(g.duplicate_edges, 0);
        let mut want = degrees.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(g.graph.degree_sequence(), want);
    }

    #[test]
    fn rejects_oversized_degrees() {
        let out = realize(&[3, 1, 1], Config::ncc0(18));
        assert!(out.is_unrealizable());
    }
}
