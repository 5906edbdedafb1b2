//! Theorem 12: explicit degree realization in
//! `O(m/n + Δ/log n + log n)` rounds.
//!
//! After Algorithm 3, every edge `(u, v)` is stored at exactly one endpoint
//! (the group member `u`); `u` must announce its ID to `v` to make the
//! realization explicit. A node may be the target of up to `Δ`
//! announcements, far beyond its per-round receive capacity, so the
//! hand-off uses the staggered-delivery primitive (`DESIGN.md` §4's
//! substitute for the Theorem 8 butterfly collection): every announcement
//! is delayed uniformly in `[0, Θ(Δ/cap))` rounds and receive-side queueing
//! absorbs the w.h.p. `O(log n)` per-round overflow.
//!
//! Run this under [`CapacityPolicy::Queue`](dgr_ncc::CapacityPolicy::Queue);
//! the epoch length covers the worst-case queue drain unconditionally, so
//! delivery is guaranteed, not just w.h.p.
//!
//! The implementation is [`RealizeDegrees`](super::proto::RealizeDegrees)
//! with [`Flavor::Explicit`](super::proto::Flavor): Algorithm 3, then a
//! broadcast of `Δ` (the commonly known bound on any node's incoming
//! announcements, which fixes the epoch length), then the hand-off.

#[cfg(test)]
mod tests {
    use crate::distributed::proto::Flavor;
    use crate::driver::{realize_for_test, DriverOutput};
    use dgr_ncc::Config;

    fn realize(degrees: &[usize], config: Config) -> DriverOutput {
        realize_for_test(degrees, config, Flavor::Explicit)
    }

    #[test]
    fn both_endpoints_know_every_edge() {
        let degrees = vec![4, 3, 3, 2, 2, 2, 1, 1];
        let out = realize(&degrees, Config::ncc0(31).with_queueing());
        let g = out.expect_realized();
        // Explicit: every node's neighbor list is exactly its graph
        // adjacency — symmetric by construction of the check in the driver.
        for &id in &g.path_order {
            let mut listed = g.explicit_neighbors[&id].clone();
            listed.sort_unstable();
            listed.dedup();
            let mut actual = g.graph.neighbors_of(id);
            actual.sort_unstable();
            assert_eq!(listed, actual, "node {id}");
        }
        let mut want = degrees.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(g.graph.degree_sequence(), want);
        assert_eq!(g.metrics.undelivered, 0);
    }

    #[test]
    fn explicit_rejects_non_graphic() {
        let out = realize(&[3, 3, 1, 1], Config::ncc0(33).with_queueing());
        assert!(out.is_unrealizable());
    }

    #[test]
    fn star_fan_in_is_paced() {
        // A star forces Δ = n-1 announcements at the hub; receive capacity
        // must never be exceeded at delivery time.
        let n = 48;
        let mut degrees = vec![1usize; n];
        degrees[0] = n - 1;
        let out = realize(&degrees, Config::ncc0(35).with_queueing());
        let g = out.expect_realized();
        assert!(g.metrics.max_received_per_round <= g.metrics.capacity);
        assert_eq!(g.graph.degree_sequence()[0], n - 1);
    }
}
