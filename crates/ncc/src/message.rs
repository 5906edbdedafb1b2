//! Node identifiers and the protocol tags of the messages NCC nodes
//! exchange.
//!
//! A message ([`WireMsg`](crate::WireMsg)) is a small, fixed-budget record:
//! a protocol `tag`, up to [`Config::max_words`](crate::Config::max_words)
//! data words, and up to [`Config::max_addrs`](crate::Config::max_addrs)
//! node *addresses*. Keeping addresses in a dedicated field (rather than
//! smuggling them through data words) is what lets the simulator track KT0
//! knowledge faithfully: the receiver of a message learns the sender's ID
//! and every address the message carries, and nothing else.

/// A node identifier — the node's "IP address" in the P2P reading of the
/// model. IDs are drawn from `[1, n^c]`, so they are *not* dense indices.
pub type NodeId = u64;

/// Well-known protocol tags used by the primitive and algorithm crates.
///
/// Tags exist purely to let a node demultiplex its inbox; they carry no
/// routing semantics in the engine. Higher-level crates allocate their own
/// tags starting from [`tags::USER_BASE`].
pub mod tags {
    /// Generic/unclassified payload.
    pub const GENERIC: u16 = 0;
    /// Path undirection ("here is my ID, I am your predecessor").
    pub const UNDIRECT: u16 = 1;
    /// Neighbor's-neighbor exchange on a path level.
    pub const LEVEL_LINK: u16 = 2;
    /// Controlled-BFS invitation (left child).
    pub const INVITE_LEFT: u16 = 3;
    /// Controlled-BFS invitation (right child).
    pub const INVITE_RIGHT: u16 = 4;
    /// Sweep broadcast payload.
    pub const BCAST: u16 = 8;
    /// Sweep aggregation payload.
    pub const AGGREGATE: u16 = 9;
    /// Pointer-doubling contact-table construction.
    pub const CONTACT: u16 = 11;
    /// Bitonic sort compare-exchange.
    pub const SORT_XCHG: u16 = 12;
    /// Sorted-path neighbor notification.
    pub const SORT_LINK: u16 = 13;
    /// Interval multicast payload.
    pub const IMCAST: u16 = 14;
    /// Prefix-sum doubling payload.
    pub const PREFIX: u16 = 15;
    /// A token on a ring or path: the distinctness patch's, or a test's.
    pub const TOKEN: u16 = 16;
    /// Realization: "store my ID in your neighbor list".
    pub const EDGE: u16 = 17;
    /// Realization: explicit-edge acknowledgement (reverse direction).
    pub const EDGE_ACK: u16 = 18;
    /// Sorted-path compaction: a record moving toward the head.
    pub const SORT_SHIFT: u16 = 19;
    /// Realization: a record's holder tells the record's origin what a
    /// phase made of it.
    pub const STATUS: u16 = 20;
    /// Position count beside the contact doubling: how many nodes lie
    /// behind the sender, when fewer than the level's distance.
    pub const RANK: u16 = 21;
    /// The value a released sweep broadcast carries, handed to the root
    /// of the path by a node off the sweep's tree.
    pub const RELEASE: u16 = 22;
    /// First tag value available to user protocols.
    pub const USER_BASE: u16 = 64;
}
