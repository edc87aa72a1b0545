//! Exhaustive coverage of the ECC substrate beyond the sampled
//! property tests: every single-bit position of every code, the full
//! TMR truth table, and the documented design limit (two simultaneous
//! TMR upsets win the vote).

use ftnoc_ecc::hamming::{decode, encode, DecodeOutcome};
use ftnoc_ecc::tmr::TmrLine;
use ftnoc_ecc::{check_flit, protect_flit, FlitCheck};
use ftnoc_types::flit::{Flit, FlitKind};
use ftnoc_types::geom::NodeId;
use ftnoc_types::packet::PacketId;
use ftnoc_types::Header;

/// Structured words exercising every byte pattern class.
fn words() -> Vec<u64> {
    let mut w = vec![0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555];
    w.extend((0..64).map(|b| 1u64 << b)); // every weight-1 word
    w.push(0x0123_4567_89AB_CDEF);
    w.push(0xDEAD_BEEF_CAFE_F00D);
    w
}

// ---------------------------------------------------------------- Hamming

/// Every single-bit flip of every weight-1 word (and the structured
/// extremes) is corrected back — all 72 positions, all words.
#[test]
fn hamming_corrects_every_position_of_every_word_class() {
    for data in words() {
        let good = encode(data);
        for bit in 0u32..72 {
            let (mut d, mut c) = (data, good);
            if bit < 64 {
                d ^= 1u64 << bit;
            } else {
                c ^= 1u8 << (bit - 64);
            }
            match decode(d, c) {
                DecodeOutcome::Corrected {
                    data: fixed,
                    check: fixed_check,
                    ..
                } => {
                    assert_eq!(fixed, data, "word {data:#x} bit {bit}");
                    assert_eq!(fixed_check, good, "word {data:#x} bit {bit}");
                }
                other => panic!("word {data:#x} bit {bit}: {other:?}"),
            }
        }
    }
}

/// The flit-level wrapper restores the logical header view for every
/// single-bit upset position of a protected flit.
#[test]
fn flit_check_repairs_every_single_bit_position() {
    for bit in 0u32..72 {
        let mut f = Flit::new(
            PacketId::new(9),
            1,
            FlitKind::Head,
            Header::new(NodeId::new(5), NodeId::new(58)),
            3,
            0,
        );
        protect_flit(&mut f);
        f.payload.flip_bit(bit);
        assert_eq!(check_flit(&mut f), FlitCheck::Corrected, "bit {bit}");
        assert_eq!(f.header.dest, NodeId::new(58), "bit {bit}");
        assert!(f.is_consistent(), "bit {bit}");
        // A second check sees a clean word: the repair was written back.
        assert_eq!(check_flit(&mut f), FlitCheck::Clean, "bit {bit}");
    }
}

// -------------------------------------------------------------------- TMR

/// The complete 8-row truth table of a voted line: the read is the
/// 2-of-3 majority and disagreement flags any replica mismatch.
#[test]
fn tmr_line_truth_table() {
    for pattern in 0u8..8 {
        let replicas = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
        let mut line = TmrLine::new(false);
        for (i, &r) in replicas.iter().enumerate() {
            if r {
                line.upset(i);
            }
        }
        let ones = replicas.iter().filter(|&&r| r).count();
        assert_eq!(line.read(), ones >= 2, "pattern {pattern:03b}");
        assert_eq!(
            line.has_disagreement(),
            ones == 1 || ones == 2,
            "pattern {pattern:03b}"
        );
    }
}

/// The double-fault design limit, exhaustively: any two simultaneous
/// replica upsets miscorrect the vote (for both line polarities), which
/// is why the paper's analysis assumes single-event upsets.
#[test]
fn tmr_double_fault_miscorrects_for_every_replica_pair() {
    for initial in [false, true] {
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    continue;
                }
                let mut line = TmrLine::new(initial);
                line.upset(a);
                assert_eq!(line.read(), initial, "single upset {a} must be masked");
                line.upset(b);
                assert_eq!(
                    line.read(),
                    !initial,
                    "double upset ({a},{b}) from {initial} must flip the vote"
                );
                assert!(line.has_disagreement());
            }
        }
    }
}
