//! Power-of-two contact tables via pointer doubling.
//!
//! After `O(log n)` rounds every node on a virtual path knows the IDs of the
//! nodes exactly `2^k` positions ahead and behind it, for every `k`. These
//! tables are the addressing backbone for the bitonic sorting network
//! ([`crate::sort`]), interval multicast ([`crate::imcast`]) and prefix sums
//! ([`crate::prefix`]): all of those primitives only ever talk across
//! power-of-two distances.
//!
//! KT0-legality: at level `k` a node forwards the *address* of its
//! `2^(k-1)`-ahead contact to its `2^(k-1)`-behind contact (and vice versa);
//! both were learned in earlier levels, so every carried address is known to
//! the sender — the doubling construction is exactly how knowledge spreads
//! in the model.

use dgr_ncc::NodeId;

/// A node's power-of-two contacts on a virtual path.
///
/// `fwd[k]` is the ID of the node `2^k` positions ahead (toward the tail),
/// `bwd[k]` the node `2^k` behind (toward the head); `None` where the path
/// ends first. Tables have [`VPath::levels`](crate::VPath::levels) entries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContactTable {
    /// Contacts toward the tail; `fwd[k]` sits `2^k` ahead.
    pub fwd: Vec<Option<NodeId>>,
    /// Contacts toward the head; `bwd[k]` sits `2^k` behind.
    pub bwd: Vec<Option<NodeId>>,
}

impl ContactTable {
    /// The contact `2^k` ahead, if both the table level and the node exist.
    pub fn ahead(&self, k: usize) -> Option<NodeId> {
        self.fwd.get(k).copied().flatten()
    }

    /// The contact `2^k` behind, if both the table level and the node exist.
    pub fn behind(&self, k: usize) -> Option<NodeId> {
        self.bwd.get(k).copied().flatten()
    }

    /// The contact at signed power-of-two offset `±2^k`.
    pub fn at_offset(&self, k: usize, forward: bool) -> Option<NodeId> {
        if forward {
            self.ahead(k)
        } else {
            self.behind(k)
        }
    }
}

/// Number of rounds [`ContactsStep`](crate::proto::contacts::ContactsStep)
/// takes on a path of `len` nodes: `ceil(log2 len) - 1`.
pub fn rounds_for(len: usize) -> u64 {
    crate::levels_for(len).saturating_sub(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::contacts::ContactsStep;
    use crate::proto::ctx::UndirectStep;
    use crate::proto::{Step, StepProtocol};
    use dgr_ncc::{Config, Network};

    fn check_tables(n: usize, seed: u64) {
        let net = Network::new(n, Config::ncc0(seed));
        let result = net
            .run_protocol(|_| {
                StepProtocol::new(UndirectStep::new().then(|vp, _| ContactsStep::new(vp)))
            })
            .unwrap();
        assert!(
            result.metrics.is_clean(),
            "n={n}: {:?}",
            result.metrics.violations
        );
        assert_eq!(result.metrics.rounds, 1 + rounds_for(n));
        let order = result.gk_order();
        let levels = crate::levels_for(n);
        for (i, (_, table)) in result.outputs.iter().enumerate() {
            assert_eq!(table.fwd.len(), levels, "n={n} i={i}");
            for k in 0..levels {
                let d = 1usize << k;
                assert_eq!(
                    table.ahead(k),
                    order.get(i + d).copied(),
                    "n={n} i={i} fwd[{k}]"
                );
                let expect_b = i.checked_sub(d).map(|j| order[j]);
                assert_eq!(table.behind(k), expect_b, "n={n} i={i} bwd[{k}]");
            }
        }
    }

    #[test]
    fn tables_are_exact_for_powers_of_two() {
        check_tables(16, 1);
        check_tables(64, 2);
    }

    #[test]
    fn tables_are_exact_for_odd_sizes() {
        check_tables(1, 3);
        check_tables(2, 3);
        check_tables(3, 3);
        check_tables(7, 4);
        check_tables(33, 5);
        check_tables(100, 6);
    }

    #[test]
    fn offsets_api() {
        let t = ContactTable {
            fwd: vec![Some(5), None],
            bwd: vec![None, Some(9)],
        };
        assert_eq!(t.at_offset(0, true), Some(5));
        assert_eq!(t.at_offset(1, true), None);
        assert_eq!(t.at_offset(1, false), Some(9));
        assert_eq!(t.at_offset(7, true), None); // out of table
    }
}
