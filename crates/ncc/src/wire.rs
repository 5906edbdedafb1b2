//! Fixed-size wire representation of messages.
//!
//! The NCC model bounds every message to `O(log n)` bits — concretely, a
//! tag plus at most [`WIRE_WORDS`] data words and [`WIRE_ADDRS`] addresses
//! (the defaults in [`Config`](crate::Config)). The batched executor
//! exploits this: a [`WireMsg`] stores its payload *inline* in a `Copy`
//! struct, so the staging arena, the routing arena and inboxes are flat
//! `Vec`s of POD values that are reused across rounds — the routing hot
//! path never touches the allocator.
//!
//! A message has two wire shapes, one per half of the round. What a node
//! *sends* is a [`Staged`] — message, destination ID, resolved dense
//! index — which only validation and the scatter read (the sender is the
//! slot that staged it). What a node *receives* is a [`WireEnvelope`] —
//! sender and message, one 64-byte cache line — the shape of the routing
//! arena, the exchange cells, the queue arenas and every inbox; where an envelope goes is the bucket it sits
//! in, never a field of its own.

use crate::message::NodeId;

/// Maximum data words a [`WireMsg`] can carry inline.
pub const WIRE_WORDS: usize = 4;

/// Maximum addresses a [`WireMsg`] can carry inline.
pub const WIRE_ADDRS: usize = 2;

/// Sentinel for an unresolved destination index.
pub(crate) const NO_INDEX: u32 = u32::MAX;

/// A message with inline payload: tag + up to [`WIRE_WORDS`] words + up to
/// [`WIRE_ADDRS`] addresses.
///
/// Constructors panic when the inline budget is exceeded — that is a
/// protocol *bug* (the model's message size is a compile-time-style
/// constant), distinct from a
/// [`MessageTooLarge`](crate::ViolationKind::MessageTooLarge) *violation*,
/// which fires when a
/// message exceeds the (possibly smaller) configured budget at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireMsg {
    /// Protocol tag for inbox demultiplexing.
    pub tag: u16,
    nw: u8,
    na: u8,
    words: [u64; WIRE_WORDS],
    addrs: [NodeId; WIRE_ADDRS],
}

impl WireMsg {
    /// An empty message carrying only a tag (a pure signal).
    pub const fn signal(tag: u16) -> Self {
        WireMsg {
            tag,
            nw: 0,
            na: 0,
            words: [0; WIRE_WORDS],
            addrs: [0; WIRE_ADDRS],
        }
    }

    /// A message carrying a single data word.
    pub const fn word(tag: u16, w: u64) -> Self {
        let mut m = WireMsg::signal(tag);
        m.words[0] = w;
        m.nw = 1;
        m
    }

    /// A message carrying the given data words.
    ///
    /// # Panics
    ///
    /// Panics if more than [`WIRE_WORDS`] words are given.
    pub fn words(tag: u16, words: &[u64]) -> Self {
        let mut m = WireMsg::signal(tag);
        for &w in words {
            m = m.with_word(w);
        }
        m
    }

    /// A message carrying a single address.
    pub const fn addr(tag: u16, a: NodeId) -> Self {
        let mut m = WireMsg::signal(tag);
        m.addrs[0] = a;
        m.na = 1;
        m
    }

    /// A message carrying one address and one data word.
    pub const fn addr_word(tag: u16, a: NodeId, w: u64) -> Self {
        let mut m = WireMsg::addr(tag, a);
        m.words[0] = w;
        m.nw = 1;
        m
    }

    /// Adds a data word (builder style).
    ///
    /// # Panics
    ///
    /// Panics when the inline word budget is full.
    pub fn with_word(mut self, w: u64) -> Self {
        assert!(
            (self.nw as usize) < WIRE_WORDS,
            "wire message word budget exceeded"
        );
        self.words[self.nw as usize] = w;
        self.nw += 1;
        self
    }

    /// Adds an address (builder style).
    ///
    /// # Panics
    ///
    /// Panics when the inline address budget is full.
    pub fn with_addr(mut self, a: NodeId) -> Self {
        assert!(
            (self.na as usize) < WIRE_ADDRS,
            "wire message address budget exceeded"
        );
        self.addrs[self.na as usize] = a;
        self.na += 1;
        self
    }

    /// The data words carried by this message.
    pub fn words_slice(&self) -> &[u64] {
        &self.words[..self.nw as usize]
    }

    /// The addresses carried by this message.
    pub fn addrs_slice(&self) -> &[NodeId] {
        &self.addrs[..self.na as usize]
    }

    /// Number of data words.
    pub fn word_count(&self) -> usize {
        self.nw as usize
    }

    /// Number of addresses.
    pub fn addr_count(&self) -> usize {
        self.na as usize
    }

    /// Size in machine words (tag counts as one), for bandwidth metrics.
    pub fn size_words(&self) -> usize {
        1 + self.nw as usize + self.na as usize
    }
}

/// A staged send: what [`RoundCtx::send`](crate::RoundCtx::send) writes
/// into the sender's staging span, and what validation and the scatter
/// read. The sender is not stored — it is the slot the span belongs to.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Staged {
    pub(crate) msg: WireMsg,
    /// Destination ID as addressed by the sender.
    pub(crate) dst: NodeId,
    /// Dense destination index, resolved at send time: the addressee's
    /// path position. [`NO_INDEX`] = unresolved (and, once sealed, "not
    /// for the local scatter"). The reference interpreter ignores it.
    pub(crate) dst_idx: u32,
}

impl Staged {
    /// The envelope this send is delivered as, `src` being its sender.
    pub(crate) fn sent_by(&self, src: NodeId) -> WireEnvelope {
        WireEnvelope { src, msg: self.msg }
    }
}

/// A delivered wire message: what a node finds in its inbox. The sender's
/// ID is visible (that is how knowledge spreads in KT0); the destination
/// is the bucket the envelope was scattered into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireEnvelope {
    /// ID of the sending node.
    pub src: NodeId,
    /// The message itself.
    pub msg: WireMsg,
}

// One cache line a delivered message, nine words a staged one.
const _: () = assert!(std::mem::size_of::<WireEnvelope>() == 64);
const _: () = assert!(std::mem::size_of::<Staged>() <= 72);

impl WireEnvelope {
    /// A zeroed placeholder used to size the routing arena.
    pub(crate) const EMPTY: WireEnvelope = WireEnvelope {
        src: 0,
        msg: WireMsg::signal(0),
    };

    /// First data word, panicking with a protocol-bug message if absent.
    pub fn word(&self) -> u64 {
        *self
            .msg
            .words_slice()
            .first()
            .expect("protocol bug: expected a data word")
    }

    /// First address, panicking with a protocol-bug message if absent.
    pub fn addr(&self) -> NodeId {
        *self
            .msg
            .addrs_slice()
            .first()
            .expect("protocol bug: expected an address")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let m = WireMsg::signal(3).with_word(7).with_addr(42);
        assert_eq!(m.words_slice(), &[7]);
        assert_eq!(m.addrs_slice(), &[42]);
        assert_eq!(m.size_words(), 3);
    }

    #[test]
    #[should_panic(expected = "word budget")]
    fn word_budget_is_enforced() {
        let _ = WireMsg::words(0, &[0; 5]);
    }

    #[test]
    fn envelope_accessors() {
        let env = WireEnvelope {
            src: 5,
            msg: WireMsg::addr_word(1, 10, 99),
        };
        assert_eq!(env.word(), 99);
        assert_eq!(env.addr(), 10);
    }

    #[test]
    #[should_panic(expected = "protocol bug")]
    fn envelope_word_panics_when_empty() {
        let env = WireEnvelope {
            src: 5,
            msg: WireMsg::signal(0),
        };
        let _ = env.word();
    }

    #[test]
    fn size_counts_tag_words_addrs() {
        assert_eq!(WireMsg::signal(0).size_words(), 1);
        assert_eq!(WireMsg::words(0, &[1, 2, 3]).size_words(), 4);
        assert_eq!(WireMsg::addr_word(0, 9, 1).size_words(), 3);
    }
}
