//! Error detection and correction substrate for the fault-tolerant NoC.
//!
//! The paper's routers deploy a Single-Error-Correction / Double-Error-
//! Detection (SEC/DED) "blanket" on every flit plus Triple Modular
//! Redundancy (TMR) on handshaking wires (§3, §4.6). This crate implements
//! those primitives from scratch:
//!
//! - [`hamming`]: an extended Hamming(72,64) SEC/DED code matching the
//!   72-bit flit word of [`ftnoc_types::flit`],
//! - [`tmr`]: a triplicated, majority-voted handshake line.
//!
//! # Examples
//!
//! ```
//! use ftnoc_ecc::hamming::{decode, encode, DecodeOutcome};
//!
//! let data = 0xDEAD_BEEF_CAFE_F00D_u64;
//! let check = encode(data);
//!
//! // A single-bit upset is corrected:
//! let corrupted = data ^ (1 << 17);
//! match decode(corrupted, check) {
//!     DecodeOutcome::Corrected { data: fixed, .. } => assert_eq!(fixed, data),
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod hamming;
pub mod tmr;

pub use hamming::{decode, encode, DecodeOutcome};

use ftnoc_types::flit::{Flit, FlitPayload};

/// Fills in the check byte of a flit's physical word.
///
/// Call once at packet creation (injection); links and routers then carry
/// the protected word unchanged unless a fault flips bits.
pub fn protect_flit(flit: &mut Flit) {
    let check = hamming::encode(flit.payload.data());
    flit.payload.set_check(check);
}

/// Outcome of checking a flit at a router's error-detection unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitCheck {
    /// The word decoded cleanly.
    Clean,
    /// A single-bit upset was corrected in place.
    Corrected,
    /// A multi-bit upset was detected but cannot be corrected; the flit
    /// must be dropped and recovered by retransmission.
    Uncorrectable,
}

/// Checks (and when possible repairs) a flit's physical word, refreshing
/// the logical view after a successful decode.
///
/// This is the error-detection/correction unit of Figure 1 as a function.
pub fn check_flit(flit: &mut Flit) -> FlitCheck {
    match hamming::decode(flit.payload.data(), flit.payload.check()) {
        DecodeOutcome::Clean { .. } => FlitCheck::Clean,
        DecodeOutcome::Corrected { data, check, .. } => {
            flit.payload = FlitPayload::new(data, check);
            flit.refresh_logical_view();
            FlitCheck::Corrected
        }
        DecodeOutcome::Detected => FlitCheck::Uncorrectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::flit::FlitKind;
    use ftnoc_types::geom::NodeId;
    use ftnoc_types::packet::PacketId;
    use ftnoc_types::Header;

    fn flit() -> Flit {
        let mut f = Flit::new(
            PacketId::new(1),
            0,
            FlitKind::Head,
            Header::new(NodeId::new(2), NodeId::new(61)),
            7,
            0,
        );
        protect_flit(&mut f);
        f
    }

    #[test]
    fn protected_flit_checks_clean() {
        let mut f = flit();
        assert_eq!(check_flit(&mut f), FlitCheck::Clean);
    }

    #[test]
    fn single_flip_is_corrected_and_header_restored() {
        let mut f = flit();
        f.payload.flip_bit(3); // inside the destination field
        assert_eq!(check_flit(&mut f), FlitCheck::Corrected);
        assert_eq!(f.header.dest, NodeId::new(61));
        assert!(f.is_consistent());
        // A fresh single-bit upset per hop is repaired at every hop — what
        // per-hop correction has over end-to-end detection, where they
        // accumulate.
        for hop in 0..6u32 {
            f.payload.flip_bit(hop * 7 % 72);
            assert_eq!(check_flit(&mut f), FlitCheck::Corrected, "hop {hop}");
        }
        assert!(f.is_consistent());
    }

    #[test]
    fn double_flip_is_detected() {
        let mut f = flit();
        let clean = f.payload;
        f.payload.flip_bit(3);
        f.payload.flip_bit(40);
        assert_eq!(check_flit(&mut f), FlitCheck::Uncorrectable);
        // The word is left as it came, for the destination to see.
        assert_eq!(clean.hamming_distance(f.payload), 2);
    }

    #[test]
    fn check_bit_flip_is_corrected() {
        let mut f = flit();
        f.payload.flip_bit(66);
        assert_eq!(check_flit(&mut f), FlitCheck::Corrected);
        assert_eq!(check_flit(&mut f), FlitCheck::Clean);
    }
}
