//! Randomized (seeded, deterministic) tests of the SEC/DED guarantees.
//!
//! Each test sweeps every bit position exhaustively while sampling data
//! words from a fixed-seed [`ftnoc_rng::Rng`], so failures reproduce
//! bit-for-bit without a registry-fetched property-testing framework.
//! The last one holds the table encoder to the code's bit-by-bit
//! definition over a million words.

use ftnoc_ecc::hamming::{decode, encode, DecodeOutcome};
use ftnoc_rng::Rng;

fn sample_words(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut words = vec![0, u64::MAX, 1, 1u64 << 63, 0xAAAA_AAAA_AAAA_AAAA];
    words.extend((0..count).map(|_| rng.next_u64()));
    words
}

/// Encoding then decoding with no corruption is the identity.
#[test]
fn clean_round_trip() {
    for data in sample_words(0xEC_0001, 256) {
        let check = encode(data);
        assert_eq!(decode(data, check), DecodeOutcome::Clean { data });
    }
}

/// Any single bit flip anywhere in the 72-bit word is corrected back
/// to the original data.
#[test]
fn single_flip_corrected() {
    for data in sample_words(0xEC_0002, 64) {
        let check = encode(data);
        for bit in 0u32..72 {
            let (mut d, mut c) = (data, check);
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
                    assert_eq!(fixed, data, "data {data:#x} bit {bit}");
                    assert_eq!(fixed_check, check, "data {data:#x} bit {bit}");
                }
                other => panic!("data {data:#x} bit {bit}: expected correction, got {other:?}"),
            }
        }
    }
}

/// Any double bit flip is detected (never silently accepted, never
/// "corrected" into a wrong word).
#[test]
fn double_flip_detected() {
    let mut rng = Rng::seed_from_u64(0xEC_0003);
    for data in sample_words(0xEC_0004, 16) {
        let check = encode(data);
        // All pairs is 72*71/2 = 2556 per word; sample words, sweep pairs.
        for a in 0u32..72 {
            for b in (a + 1)..72 {
                let (mut d, mut c) = (data, check);
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
                    "data {data:#x} bits {a},{b}"
                );
            }
        }
        // Plus a few random distinct pairs for good measure.
        for _ in 0..32 {
            let a = rng.gen_range(0..72u32);
            let mut b = rng.gen_range(0..71u32);
            if b >= a {
                b += 1;
            }
            let (mut d, mut c) = (data, check);
            for bit in [a, b] {
                if bit < 64 {
                    d ^= 1u64 << bit;
                } else {
                    c ^= 1u8 << (bit - 64);
                }
            }
            assert_eq!(decode(d, c), DecodeOutcome::Detected);
        }
    }
}

/// The syndrome of distinct single-bit data errors is distinct (the
/// code can always identify which bit flipped).
#[test]
fn syndromes_identify_positions() {
    for data in sample_words(0xEC_0005, 32) {
        let check = encode(data);
        let positions: Vec<u32> = (0u32..64)
            .map(|bit| match decode(data ^ (1u64 << bit), check) {
                DecodeOutcome::Corrected { position, .. } => position,
                other => panic!("data {data:#x} bit {bit}: {other:?}"),
            })
            .collect();
        for a in 0..64 {
            for b in (a + 1)..64 {
                assert_ne!(positions[a], positions[b], "bits {a},{b} collide");
            }
        }
    }
}

/// The code's definition, one data bit at a time: data bit `i` sits at
/// the `(i+1)`-th codeword position in `3..=71` that is no power of two,
/// flips every Hamming parity whose weight bit is set in that position,
/// and the overall parity covers the data and the seven parities.
fn encode_by_definition(data: u64) -> u8 {
    let positions = (3u32..=71).filter(|p| !p.is_power_of_two());
    let mut parities = 0u8;
    for (i, pos) in positions.enumerate() {
        if data >> i & 1 == 1 {
            parities ^= pos as u8 & 0x7f;
        }
    }
    let overall = (data.count_ones() + parities.count_ones()) & 1;
    parities | (overall as u8) << 7
}

/// The table encoder is the bit loop over 1 002 114 words: uniform,
/// sparse (≈ 1 bit in 8) and dense (≈ 7 in 8) random words, every
/// single-bit word, every byte value at every byte index, `0` and
/// `u64::MAX`. Each word also decodes clean, and its flipped overall
/// parity bit is corrected at position 0, which holds `decode`'s
/// parity to the received word.
#[test]
fn table_encoder_matches_the_bit_loop() {
    let mut rng = Rng::seed_from_u64(0xEC_0006);
    let mut words = vec![0, u64::MAX];
    words.extend((0..64).map(|b| 1u64 << b));
    words.extend((0..8).flat_map(|b| (0..256u64).map(move |v| v << (8 * b))));
    for _ in 0..600_000 {
        words.push(rng.next_u64());
    }
    for _ in 0..200_000 {
        words.push(rng.next_u64() & rng.next_u64() & rng.next_u64());
    }
    for _ in 0..200_000 {
        words.push(rng.next_u64() | rng.next_u64() | rng.next_u64());
    }
    assert_eq!(words.len(), 1_002_114);
    for data in words {
        let check = encode(data);
        assert_eq!(check, encode_by_definition(data), "data {data:#x}");
        assert_eq!(decode(data, check), DecodeOutcome::Clean { data });
        assert_eq!(
            decode(data, check ^ 0x80),
            DecodeOutcome::Corrected {
                data,
                check,
                position: 0
            },
            "data {data:#x}"
        );
    }
}
