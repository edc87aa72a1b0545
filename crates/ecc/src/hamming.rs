//! Extended Hamming(72,64) SEC/DED code.
//!
//! The 64 data bits are spread over codeword positions `1..=71`
//! (1-indexed), skipping the power-of-two positions `1,2,4,8,16,32,64`
//! which hold the seven Hamming parity bits. An eighth, overall parity bit
//! covers the whole 71-bit word, upgrading single-error correction to
//! double-error *detection* (SEC/DED).
//!
//! Check-byte layout: bits `0..=6` are the Hamming parities for position
//! weights `1,2,4,8,16,32,64`; bit `7` is the overall parity.

/// Highest codeword position used (64 data + 7 parity positions).
const MAX_POSITION: u32 = 71;

/// Codeword position (1-indexed) of each data bit.
///
/// `DATA_POSITION[i]` is the position of data bit `i`: the `(i+1)`-th
/// non-power-of-two in `3..=71`.
const DATA_POSITION: [u8; 64] = build_data_positions();

const fn is_power_of_two(n: u32) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

const fn build_data_positions() -> [u8; 64] {
    let mut table = [0u8; 64];
    let mut pos: u32 = 1;
    let mut i = 0;
    while i < 64 {
        if !is_power_of_two(pos) {
            table[i] = pos as u8;
            i += 1;
        }
        pos += 1;
    }
    table
}

/// Result of decoding a received (data, check) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// No error detected.
    Clean {
        /// The data word (unchanged).
        data: u64,
    },
    /// A single-bit error was corrected.
    Corrected {
        /// The corrected data word.
        data: u64,
        /// The corrected check byte.
        check: u8,
        /// The 1-indexed codeword position that was flipped back
        /// (`0` denotes the overall parity bit itself).
        position: u32,
    },
    /// An uncorrectable (≥2-bit) error was detected.
    Detected,
}

/// The check byte of every data word that is one byte `v` at byte index
/// `b` and zero elsewhere: `ENCODE_TABLE[b][v]`. Eight entries XOR to
/// any word's check byte, because the whole byte, overall parity
/// included, is linear in the data over GF(2).
static ENCODE_TABLE: [[u8; 256]; 8] = build_encode_table();

const fn build_encode_table() -> [[u8; 256]; 8] {
    let mut table = [[0u8; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 0;
        while v < 256 {
            table[b][v] = encode_bits((v as u64) << (8 * b));
            v += 1;
        }
        b += 1;
    }
    table
}

/// The code's definition, one data bit at a time: every set data bit
/// flips each Hamming parity whose weight bit is set in its codeword
/// position, and the overall parity covers the data and those seven.
/// Only [`build_encode_table`] runs it.
const fn encode_bits(data: u64) -> u8 {
    let mut parities: u8 = 0;
    let mut i = 0;
    while i < 64 {
        if (data >> i) & 1 == 1 {
            parities ^= position_mask(DATA_POSITION[i] as u32);
        }
        i += 1;
    }
    // Overall parity over the 71-bit word (data bits + 7 Hamming parities).
    let overall = (data.count_ones() + parities.count_ones()) & 1;
    parities | ((overall as u8) << 7)
}

/// Computes the expected check byte for a 64-bit data word: eight
/// table reads, one per data byte.
///
/// # Examples
///
/// ```
/// use ftnoc_ecc::hamming::{decode, encode, DecodeOutcome};
///
/// let check = encode(0);
/// assert_eq!(check, 0); // all-zero word has all-zero parities
/// assert_eq!(decode(0, check), DecodeOutcome::Clean { data: 0 });
/// ```
pub fn encode(data: u64) -> u8 {
    let bytes = data.to_le_bytes();
    let mut check = 0;
    for (table, &byte) in ENCODE_TABLE.iter().zip(&bytes) {
        check ^= table[byte as usize];
    }
    check
}

/// Maps a codeword position to the set of parity-bit indices covering it,
/// expressed as a 7-bit mask (bit j set ⇔ parity with weight `2^j` covers
/// the position).
const fn position_mask(pos: u32) -> u8 {
    (pos & 0x7f) as u8
}

/// Decodes a received (data, check) pair.
///
/// Returns [`DecodeOutcome::Corrected`] for any single-bit upset anywhere
/// in the 72-bit word (including the check byte itself) and
/// [`DecodeOutcome::Detected`] for double-bit upsets. Triple and larger
/// upsets may alias; SEC/DED guarantees cover only 1- and 2-bit errors.
pub fn decode(data: u64, check: u8) -> DecodeOutcome {
    let diff = encode(data) ^ check;
    let syndrome = diff & 0x7f;
    // Overall parity of everything received (data, 7 parities, overall
    // bit) must be even. A valid check byte carries its data's parity,
    // so the received word's parity is that of `diff`.
    let parity_ok = diff.count_ones() & 1 == 0;

    if syndrome == 0 {
        if parity_ok {
            DecodeOutcome::Clean { data }
        } else {
            // The overall parity bit itself flipped.
            DecodeOutcome::Corrected {
                data,
                check: check ^ 0x80,
                position: 0,
            }
        }
    } else if parity_ok {
        // Non-zero syndrome but overall parity consistent: two bits flipped.
        DecodeOutcome::Detected
    } else {
        // Single-bit error at codeword position `syndrome`.
        let pos = syndrome as u32;
        if pos > MAX_POSITION {
            // Syndrome points outside the used word: an alias produced by a
            // multi-bit error. Report detection.
            return DecodeOutcome::Detected;
        }
        if is_power_of_two(pos) {
            // A Hamming parity bit flipped; data is intact.
            let bit_index = pos.trailing_zeros();
            DecodeOutcome::Corrected {
                data,
                check: check ^ (1 << bit_index),
                position: pos,
            }
        } else {
            // A data bit flipped: find which one.
            let data_index = data_index_of(pos);
            DecodeOutcome::Corrected {
                data: data ^ (1u64 << data_index),
                check,
                position: pos,
            }
        }
    }
}

/// Inverse of [`DATA_POSITION`]: which data bit sits at codeword position
/// `pos` (which must be a non-power-of-two in `3..=71`).
fn data_index_of(pos: u32) -> u32 {
    debug_assert!(!is_power_of_two(pos) && pos <= MAX_POSITION);
    // Positions 1..=pos contain floor(log2(pos)) + 1 powers of two, so the
    // 0-indexed data index is pos minus those powers, minus one.
    let powers_below_or_eq = 32 - pos.leading_zeros(); // floor(log2(pos)) + 1
    pos - powers_below_or_eq - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_positions_are_non_powers_in_range() {
        let mut seen = std::collections::HashSet::new();
        for &pos in DATA_POSITION.iter() {
            let p = pos as u32;
            assert!((3..=71).contains(&p));
            assert!(!is_power_of_two(p));
            assert!(seen.insert(p), "duplicate position {p}");
        }
        assert_eq!(DATA_POSITION[0], 3);
        assert_eq!(DATA_POSITION[63], 71);
    }

    #[test]
    fn data_index_of_inverts_table() {
        for (i, &pos) in DATA_POSITION.iter().enumerate() {
            assert_eq!(data_index_of(pos as u32), i as u32, "position {pos}");
        }
    }

    #[test]
    fn clean_round_trip() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1, 1 << 63] {
            let check = encode(data);
            assert_eq!(decode(data, check), DecodeOutcome::Clean { data });
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let check = encode(data);
        for bit in 0..64 {
            let corrupted = data ^ (1u64 << bit);
            match decode(corrupted, check) {
                DecodeOutcome::Corrected {
                    data: fixed,
                    check: fixed_check,
                    ..
                } => {
                    assert_eq!(fixed, data, "bit {bit}");
                    assert_eq!(fixed_check, check, "bit {bit}");
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_check_bit_flip_is_corrected() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let check = encode(data);
        for bit in 0..8 {
            let corrupted = check ^ (1u8 << bit);
            match decode(data, corrupted) {
                DecodeOutcome::Corrected {
                    data: fixed,
                    check: fixed_check,
                    ..
                } => {
                    assert_eq!(fixed, data, "check bit {bit}");
                    assert_eq!(fixed_check, check, "check bit {bit}");
                }
                other => panic!("check bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_double_flips_are_detected() {
        // Exhaustive over all C(72,2) = 2556 double flips for one word.
        let data = 0xFEED_FACE_DEAD_BEEFu64;
        let check = encode(data);
        for a in 0..72u32 {
            for b in (a + 1)..72u32 {
                let mut d = data;
                let mut c = check;
                for bit in [a, b] {
                    if bit < 64 {
                        d ^= 1u64 << bit;
                    } else {
                        c ^= 1u8 << (bit - 64);
                    }
                }
                assert_eq!(
                    decode(d, c),
                    DecodeOutcome::Detected,
                    "double flip ({a},{b}) not detected"
                );
            }
        }
    }

    #[test]
    fn corrected_position_is_reported() {
        let data = 0u64;
        let check = encode(data);
        let corrupted = data ^ 1; // data bit 0 lives at codeword position 3
        match decode(corrupted, check) {
            DecodeOutcome::Corrected { position, .. } => assert_eq!(position, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overall_parity_bit_flip_reports_position_zero() {
        let data = 77u64;
        let check = encode(data);
        match decode(data, check ^ 0x80) {
            DecodeOutcome::Corrected {
                position,
                check: fixed,
                ..
            } => {
                assert_eq!(position, 0);
                assert_eq!(fixed, check);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
