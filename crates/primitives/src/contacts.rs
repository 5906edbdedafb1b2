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

#[cfg(feature = "threaded")]
use crate::vpath::VPath;
use dgr_ncc::NodeId;
#[cfg(feature = "threaded")]
use dgr_ncc::{tags, Msg, NodeHandle};

/// Direction words used in contact-construction messages.
#[cfg(feature = "threaded")]
const SET_FWD: u64 = 0;
#[cfg(feature = "threaded")]
const SET_BWD: u64 = 1;

/// A node's power-of-two contacts on a virtual path.
///
/// `fwd[k]` is the ID of the node `2^k` positions ahead (toward the tail),
/// `bwd[k]` the node `2^k` behind (toward the head); `None` where the path
/// ends first. Tables have [`VPath::levels`] entries.
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

/// Number of rounds [`build`] takes on a path of `len` nodes.
pub fn rounds_for(len: usize) -> u64 {
    crate::levels_for(len).saturating_sub(1) as u64
}

/// Builds the power-of-two contact table on a virtual path by pointer
/// doubling. Non-members idle in lockstep.
///
/// Rounds: exactly [`rounds_for`]`(vp.len)` = `ceil(log2 len) - 1`.
#[cfg(feature = "threaded")]
pub fn build(h: &mut NodeHandle, vp: &VPath) -> ContactTable {
    let levels = vp.levels();
    if !vp.member {
        h.idle_quiet(rounds_for(vp.len));
        return ContactTable::default();
    }
    let mut fwd: Vec<Option<NodeId>> = Vec::with_capacity(levels);
    let mut bwd: Vec<Option<NodeId>> = Vec::with_capacity(levels);
    if levels == 0 {
        return ContactTable { fwd, bwd };
    }
    fwd.push(vp.succ);
    bwd.push(vp.pred);
    for k in 1..levels {
        let mut out = Vec::new();
        // Tell the node 2^(k-1) behind me who sits 2^(k-1) ahead of me (its
        // new fwd[k]) and vice versa. An endpoint simply has nothing to
        // forward in one of the directions.
        if let Some(b) = bwd[k - 1] {
            if let Some(f) = fwd[k - 1] {
                out.push((b, Msg::addr_words(tags::CONTACT, f, vec![SET_FWD])));
                out.push((f, Msg::addr_words(tags::CONTACT, b, vec![SET_BWD])));
            }
        }
        let inbox = h.step(out);
        let mut new_fwd = None;
        let mut new_bwd = None;
        for env in inbox.iter().filter(|e| e.msg.tag == tags::CONTACT) {
            match env.word() {
                SET_FWD => new_fwd = Some(env.addr()),
                SET_BWD => new_bwd = Some(env.addr()),
                other => unreachable!("bad contact direction word {other}"),
            }
        }
        fwd.push(new_fwd);
        bwd.push(new_bwd);
    }
    ContactTable { fwd, bwd }
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
