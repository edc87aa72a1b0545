//! Packets (the paper's "messages"): ordered sequences of flits.

use std::fmt;

use crate::flit::{Flit, FlitKind, Header};

/// Globally unique packet identifier (simulation metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet id from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        PacketId(raw)
    }

    /// The raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A packet: metadata plus its constituent flits.
///
/// The paper fixes packets at four flits (header + 2 data + tail, §2.2);
/// [`Packet::new`] accepts any length ≥ 1 and emits a [`FlitKind::Single`]
/// flit for single-flit packets (used by control messages).
///
/// # Examples
///
/// ```
/// use ftnoc_types::{Header, NodeId, Packet, PacketId};
///
/// let pkt = Packet::new(
///     PacketId::new(1),
///     Header::new(NodeId::new(0), NodeId::new(63)),
///     4,
///     0,
/// );
/// assert_eq!(pkt.len(), 4);
/// assert!(pkt.flits()[0].kind.is_head());
/// assert!(pkt.flits()[3].kind.is_tail());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    id: PacketId,
    header: Header,
    flits: Vec<Flit>,
}

impl Packet {
    /// Creates a packet of `len` flits injected at `inject_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `len > 256` (sequence numbers are 8-bit).
    pub fn new(id: PacketId, header: Header, len: usize, inject_cycle: u64) -> Self {
        assert!(
            (1..=256).contains(&len),
            "packet length {len} outside 1..=256"
        );
        let flits = (0..len)
            .map(|seq| {
                let kind = if len == 1 {
                    FlitKind::Single
                } else if seq == 0 {
                    FlitKind::Head
                } else if seq == len - 1 {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                };
                Flit::new(id, seq as u8, kind, header, seq as u16, inject_cycle)
            })
            .collect();
        Packet { id, header, flits }
    }

    /// The packet id.
    pub const fn id(&self) -> PacketId {
        self.id
    }

    /// Number of flits.
    pub fn len(&self) -> usize {
        self.flits.len()
    }

    /// Whether the packet has no flits (never true for constructed packets).
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty()
    }

    /// The flits, head first.
    pub fn flits(&self) -> &[Flit] {
        &self.flits
    }

    /// Mutable access to the flits (used by the ECC encoder to fill in
    /// check bits before injection).
    pub fn flits_mut(&mut self) -> &mut [Flit] {
        &mut self.flits
    }

    /// Consumes the packet, returning its flits.
    pub fn into_flits(self) -> Vec<Flit> {
        self.flits
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({} flits, {}->{})",
            self.id,
            self.flits.len(),
            self.header.src,
            self.header.dest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::NodeId;

    fn header() -> Header {
        Header::new(NodeId::new(5), NodeId::new(58))
    }

    #[test]
    fn four_flit_packet_has_paper_structure() {
        let pkt = Packet::new(PacketId::new(7), header(), 4, 0);
        let kinds: Vec<FlitKind> = pkt.flits().iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlitKind::Head,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail
            ]
        );
        for (i, flit) in pkt.flits().iter().enumerate() {
            assert_eq!(flit.seq as usize, i);
            assert_eq!(flit.packet, PacketId::new(7));
            assert!(flit.is_consistent());
        }
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let pkt = Packet::new(PacketId::new(1), header(), 1, 9);
        assert_eq!(pkt.flits()[0].kind, FlitKind::Single);
        assert_eq!(pkt.flits()[0].inject_cycle, 9);
    }

    #[test]
    fn two_flit_packet_is_head_then_tail() {
        let pkt = Packet::new(PacketId::new(1), header(), 2, 0);
        assert_eq!(pkt.flits()[0].kind, FlitKind::Head);
        assert_eq!(pkt.flits()[1].kind, FlitKind::Tail);
    }

    #[test]
    #[should_panic(expected = "outside 1..=256")]
    fn zero_length_packet_panics() {
        let _ = Packet::new(PacketId::new(1), header(), 0, 0);
    }

    #[test]
    fn into_flits_preserves_order() {
        let pkt = Packet::new(PacketId::new(3), header(), 4, 0);
        let flits = pkt.into_flits();
        assert_eq!(flits.len(), 4);
        assert!(flits.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }
}
