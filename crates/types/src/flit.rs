//! Flits: the atomic flow-control units moving through the network.
//!
//! Every flit carries a *physical* 72-bit word ([`FlitPayload`]: 64 data
//! bits + 8 SEC/DED check bits) in addition to its *logical* view (kind,
//! header, sequence number). Fault injection flips bits of the physical
//! word; the error-detection unit of each router decodes it and refreshes
//! the logical view, so header corruption, mis-routing after undetected
//! errors, and correction events all emerge from real bit arithmetic
//! rather than being scripted.

use std::fmt;

use crate::geom::NodeId;
use crate::packet::PacketId;

/// Number of data bits in a flit (one link phit in the paper's router).
pub(crate) const FLIT_DATA_BITS: u32 = 64;
/// Number of SEC/DED check bits accompanying the data bits.
pub(crate) const FLIT_CHECK_BITS: u32 = 8;
/// Total physical width of a flit on the link.
pub const FLIT_TOTAL_BITS: u32 = FLIT_DATA_BITS + FLIT_CHECK_BITS;

/// The role of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum FlitKind {
    /// First flit; carries the routing header and opens the wormhole.
    #[default]
    Head = 0,
    /// Middle flit; follows the wormhole opened by its header.
    Body = 1,
    /// Last flit; closes (releases) the wormhole.
    Tail = 2,
    /// Single-flit packet: header and tail in one (used by control packets
    /// such as E2E NACK/ACK and deadlock probes).
    Single = 3,
}

impl FlitKind {
    /// Whether this flit carries routing information.
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit releases the wormhole.
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }

    /// Builds a kind from its 2-bit encoding.
    pub(crate) const fn from_bits(bits: u8) -> FlitKind {
        match bits & 0b11 {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            _ => FlitKind::Single,
        }
    }

    /// The 2-bit encoding of the kind.
    pub(crate) const fn to_bits(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlitKind::Head => "H",
            FlitKind::Body => "D",
            FlitKind::Tail => "T",
            FlitKind::Single => "S",
        };
        f.write_str(s)
    }
}

/// The routing header of a packet: source, destination and message class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Header {
    /// The injecting node.
    pub src: NodeId,
    /// The destination node.
    pub dest: NodeId,
    /// Message class (0 = data, 1 = E2E control, 2 = probe/activation).
    pub class: u8,
}

impl Header {
    /// Creates a data-class header.
    pub const fn new(src: NodeId, dest: NodeId) -> Self {
        Header {
            src,
            dest,
            class: 0,
        }
    }

    /// Creates a header with an explicit message class.
    pub const fn with_class(src: NodeId, dest: NodeId, class: u8) -> Self {
        Header { src, dest, class }
    }
}

/// The physical word of a flit: 64 data bits plus 8 check bits.
///
/// `check` is produced by the ECC crate; this type only stores and
/// bit-manipulates the word.
///
/// # Examples
///
/// ```
/// use ftnoc_types::flit::FlitPayload;
///
/// let mut w = FlitPayload::new(0xDEAD_BEEF, 0x55);
/// w.flip_bit(0);
/// assert_eq!(w.data(), 0xDEAD_BEEE);
/// w.flip_bit(64); // first check bit
/// assert_eq!(w.check(), 0x54);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlitPayload {
    data: u64,
    check: u8,
}

impl FlitPayload {
    /// Creates a payload from raw data and check bits.
    pub const fn new(data: u64, check: u8) -> Self {
        FlitPayload { data, check }
    }

    /// The 64 data bits.
    pub const fn data(self) -> u64 {
        self.data
    }

    /// The 8 check bits.
    pub const fn check(self) -> u8 {
        self.check
    }

    /// Replaces the check bits.
    pub fn set_check(&mut self, check: u8) {
        self.check = check;
    }

    /// Flips one bit of the 72-bit word. Bits `0..64` address the data,
    /// bits `64..72` the check byte.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 72`.
    pub fn flip_bit(&mut self, bit: u32) {
        assert!(bit < FLIT_TOTAL_BITS, "bit index {bit} out of range");
        if bit < FLIT_DATA_BITS {
            self.data ^= 1u64 << bit;
        } else {
            self.check ^= 1u8 << (bit - FLIT_DATA_BITS);
        }
    }

    /// Number of differing bits between two payloads.
    pub fn hamming_distance(self, other: FlitPayload) -> u32 {
        (self.data ^ other.data).count_ones() + (self.check ^ other.check).count_ones()
    }
}

/// Bit layout of the packed 64-bit flit word.
///
/// | bits    | field                  |
/// |---------|------------------------|
/// | 0..16   | destination node id    |
/// | 16..32  | source node id         |
/// | 32..40  | sequence number        |
/// | 40..42  | flit kind              |
/// | 42..48  | message class          |
/// | 48..64  | 16-bit application tag |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedFields {
    /// Destination carried in the word.
    pub dest: NodeId,
    /// Source carried in the word.
    pub src: NodeId,
    /// Sequence number within the packet.
    pub seq: u8,
    /// Flit kind.
    pub kind: FlitKind,
    /// Message class.
    pub class: u8,
    /// Application payload tag.
    pub tag: u16,
}

impl PackedFields {
    /// Packs the fields into a 64-bit data word.
    pub(crate) fn pack(self) -> u64 {
        (self.dest.raw() as u64)
            | ((self.src.raw() as u64) << 16)
            | ((self.seq as u64) << 32)
            | ((self.kind.to_bits() as u64) << 40)
            | (((self.class & 0x3f) as u64) << 42)
            | ((self.tag as u64) << 48)
    }

    /// Unpacks a 64-bit data word.
    pub fn unpack(word: u64) -> PackedFields {
        PackedFields {
            dest: NodeId::new((word & 0xffff) as u16),
            src: NodeId::new(((word >> 16) & 0xffff) as u16),
            seq: ((word >> 32) & 0xff) as u8,
            kind: FlitKind::from_bits(((word >> 40) & 0b11) as u8),
            class: ((word >> 42) & 0x3f) as u8,
            tag: ((word >> 48) & 0xffff) as u16,
        }
    }
}

/// A flit in flight, combining the logical view used by the router control
/// path with the physical word carried on the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flit {
    /// The packet this flit belongs to (simulation metadata; never
    /// corrupted — corruption acts on [`Flit::payload`]).
    pub packet: PacketId,
    /// Position within the packet (0 = head).
    pub seq: u8,
    /// Logical role of the flit.
    pub kind: FlitKind,
    /// Routing header (meaningful on head flits; retained on body/tail as
    /// bookkeeping for statistics).
    pub header: Header,
    /// The physical 72-bit word.
    pub payload: FlitPayload,
    /// Cycle at which the owning packet was created.
    pub inject_cycle: u64,
    /// How many times this flit has been retransmitted over any link.
    pub retransmissions: u16,
}

impl Flit {
    /// Creates a flit with a freshly packed data word and zeroed check bits
    /// (the ECC encoder fills them in).
    pub fn new(
        packet: PacketId,
        seq: u8,
        kind: FlitKind,
        header: Header,
        tag: u16,
        inject_cycle: u64,
    ) -> Self {
        let fields = PackedFields {
            dest: header.dest,
            src: header.src,
            seq,
            kind,
            class: header.class,
            tag,
        };
        Flit {
            packet,
            seq,
            kind,
            header,
            payload: FlitPayload::new(fields.pack(), 0),
            inject_cycle,
            retransmissions: 0,
        }
    }

    /// Refreshes the logical view from the (possibly corrected, possibly
    /// silently corrupted) physical word.
    ///
    /// Called by the error-check unit after decoding; this is how an
    /// undetected multi-bit error turns into a wrong destination.
    pub fn refresh_logical_view(&mut self) {
        let fields = PackedFields::unpack(self.payload.data());
        self.kind = fields.kind;
        self.seq = fields.seq;
        self.header = Header::with_class(fields.src, fields.dest, fields.class);
    }

    /// Whether the logical and physical views agree (no pending corruption).
    pub fn is_consistent(&self) -> bool {
        let fields = PackedFields::unpack(self.payload.data());
        fields.kind == self.kind
            && fields.seq == self.seq
            && fields.src == self.header.src
            && fields.dest == self.header.dest
            && fields.class == self.header.class
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}[{} {}->{}]",
            self.kind, self.seq, self.packet, self.header.src, self.header.dest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_flit() -> Flit {
        Flit::new(
            PacketId::new(42),
            0,
            FlitKind::Head,
            Header::new(NodeId::new(3), NodeId::new(60)),
            0xBEEF,
            100,
        )
    }

    #[test]
    fn pack_unpack_round_trip() {
        let fields = PackedFields {
            dest: NodeId::new(63),
            src: NodeId::new(1),
            seq: 3,
            kind: FlitKind::Tail,
            class: 2,
            tag: 0xABCD,
        };
        assert_eq!(PackedFields::unpack(fields.pack()), fields);
    }

    #[test]
    fn pack_unpack_extremes() {
        let fields = PackedFields {
            dest: NodeId::new(u16::MAX),
            src: NodeId::new(0),
            seq: u8::MAX,
            kind: FlitKind::Single,
            class: 0x3f,
            tag: u16::MAX,
        };
        assert_eq!(PackedFields::unpack(fields.pack()), fields);
    }

    #[test]
    fn new_flit_is_consistent() {
        let flit = sample_flit();
        assert!(flit.is_consistent());
        assert_eq!(PackedFields::unpack(flit.payload.data()).tag, 0xBEEF);
    }

    #[test]
    fn corruption_then_refresh_changes_destination() {
        let mut flit = sample_flit();
        // Flip bit 0 of the destination field: 60 -> 61.
        flit.payload.flip_bit(0);
        assert!(!flit.is_consistent());
        flit.refresh_logical_view();
        assert!(flit.is_consistent());
        assert_eq!(flit.header.dest, NodeId::new(61));
    }

    #[test]
    fn flip_bit_addresses_check_byte() {
        let mut w = FlitPayload::new(0, 0);
        w.flip_bit(71);
        assert_eq!(w.check(), 0x80);
        assert_eq!(w.data(), 0);
        w.flip_bit(71);
        assert_eq!(w.check(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bit_out_of_range_panics() {
        let mut w = FlitPayload::new(0, 0);
        w.flip_bit(72);
    }

    #[test]
    fn hamming_distance_counts_all_72_bits() {
        let a = FlitPayload::new(0, 0);
        let b = FlitPayload::new(u64::MAX, u8::MAX);
        assert_eq!(a.hamming_distance(b), 72);
        assert_eq!(a.hamming_distance(a), 0);
    }

    #[test]
    fn kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::Single.is_head());
        assert!(FlitKind::Single.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }

    #[test]
    fn kind_bits_round_trip() {
        for kind in [
            FlitKind::Head,
            FlitKind::Body,
            FlitKind::Tail,
            FlitKind::Single,
        ] {
            assert_eq!(FlitKind::from_bits(kind.to_bits()), kind);
        }
    }

    #[test]
    fn display_is_compact() {
        let flit = sample_flit();
        assert_eq!(flit.to_string(), "H0[p42 n3->n60]");
    }
}
