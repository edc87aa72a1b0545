//! Randomized (seeded, deterministic) tests of the retransmission
//! buffer and HBH protocol: whatever the error pattern, the receiver
//! sees every flit exactly once, in order, uncorrupted. Corruption and
//! gap vectors are drawn from a fixed-seed [`ftnoc_rng::Rng`], so every
//! case replays bit-for-bit.

use ftnoc_core::hbh::{HbhReceiver, ReceiverVerdict};
use ftnoc_core::retransmission::RetransmissionBuffer;
use ftnoc_ecc::protect_flit;
use ftnoc_rng::Rng;
use ftnoc_types::flit::FlitKind;
use ftnoc_types::geom::NodeId;
use ftnoc_types::packet::PacketId;
use ftnoc_types::{Flit, Header};

fn flit(seq: u8) -> Flit {
    let mut f = Flit::new(
        PacketId::new(1),
        seq,
        FlitKind::Body,
        Header::new(NodeId::new(0), NodeId::new(1)),
        seq as u16,
        0,
    );
    protect_flit(&mut f);
    f
}

/// Single-link HBH delivery: a stream of flits crosses a link whose
/// per-cycle corruption pattern is arbitrary (none / 1-bit / 2-bit).
/// The receiver must end up with the exact stream, in order, no
/// duplicates, no corruption.
#[test]
fn hbh_link_delivers_exact_stream() {
    let mut rng = Rng::seed_from_u64(0xC02E_0001);
    for case in 0..200 {
        let stream_len = rng.gen_range(1..40usize);
        let corruption: Vec<u8> = (0..rng.gen_range(0..120usize))
            .map(|_| rng.gen_range(0..3u8))
            .collect();

        let mut sender = RetransmissionBuffer::new(3);
        let mut receiver = HbhReceiver::new();
        let mut to_send: Vec<Flit> = (0..stream_len).map(|s| flit(s as u8)).collect();
        to_send.reverse();

        let mut wire: Option<Flit> = None;
        let mut nack_at: Option<u64> = None;
        let mut delivered: Vec<u8> = Vec::new();
        let mut corrupt_idx = 0usize;

        // Run long enough for every flit to get through the worst case:
        // every corruption directive can cost a full NACK round trip.
        let budget = corruption.len() as u64 * 6 + stream_len as u64 * 8 + 64;
        for now in 0u64..budget {
            if nack_at == Some(now) {
                sender.on_nack(now);
                nack_at = None;
            }
            sender.expire(now);
            if let Some(mut f) = wire.take() {
                match receiver.check_arrival(&mut f, now) {
                    ReceiverVerdict::Accept | ReceiverVerdict::AcceptCorrected => {
                        assert!(f.is_consistent(), "case {case}: corrupted flit accepted");
                        delivered.push(f.seq);
                    }
                    ReceiverVerdict::NackAndDrop => {
                        nack_at = Some(now + 2);
                    }
                    ReceiverVerdict::DropInWindow => {}
                }
            }
            let outgoing = if sender.is_replaying() {
                sender.next_replay(now)
            } else if !sender.is_full() {
                to_send
                    .pop()
                    .inspect(|f| sender.record_transmission(*f, now))
            } else {
                None
            };
            if let Some(mut f) = outgoing {
                // Apply the next corruption directive to the wire.
                let kind = corruption.get(corrupt_idx).copied().unwrap_or(0);
                corrupt_idx += 1;
                match kind {
                    1 => f.payload.flip_bit((now % 72) as u32),
                    2 => {
                        f.payload.flip_bit((now % 72) as u32);
                        f.payload.flip_bit(((now + 31) % 72) as u32);
                    }
                    _ => {}
                }
                wire = Some(f);
            }
        }

        let expected: Vec<u8> = (0..stream_len as u8).collect();
        assert_eq!(delivered, expected, "case {case}");
    }
}

/// The barrel shifter never exceeds its depth and conserves flits:
/// everything recorded is either replayed or expires, and replay order
/// equals record order.
#[test]
fn barrel_shifter_replays_in_record_order() {
    let mut rng = Rng::seed_from_u64(0xC02E_0002);
    for case in 0..200 {
        let gap_pattern: Vec<u64> = (0..rng.gen_range(1..24usize))
            .map(|_| rng.gen_range(0..3u64))
            .collect();

        let mut buf = RetransmissionBuffer::new(3);
        let mut now = 0u64;
        let mut recorded: Vec<u8> = Vec::new();
        for (i, gap) in gap_pattern.iter().enumerate() {
            now += 1 + gap;
            buf.expire(now);
            assert!(buf.occupancy() <= 3, "case {case}");
            buf.record_transmission(flit(i as u8), now);
            recorded.push(i as u8);
        }
        // NACK immediately: the replay must be the most recent window,
        // oldest first — a suffix of the record order.
        buf.on_nack(now);
        let mut replayed = Vec::new();
        while let Some(f) = buf.next_replay(now) {
            replayed.push(f.seq);
        }
        assert!(!replayed.is_empty(), "case {case}");
        assert!(replayed.len() <= 3, "case {case}");
        let suffix = &recorded[recorded.len() - replayed.len()..];
        assert_eq!(replayed.as_slice(), suffix, "case {case}");
    }
}

/// Held (deadlock-recovery) flits leave in absorption order no matter
/// how sends and expiries interleave.
#[test]
fn held_flits_drain_in_order() {
    let mut rng = Rng::seed_from_u64(0xC02E_0003);
    for case in 0..200 {
        let send_gaps: Vec<u64> = (0..rng.gen_range(1..12usize))
            .map(|_| rng.gen_range(0..5u64))
            .collect();

        let mut buf = RetransmissionBuffer::new(3);
        let mut next_seq = 0u8;
        let mut absorbed: Vec<u8> = Vec::new();
        let mut sent: Vec<u8> = Vec::new();
        let mut now = 0u64;
        for gap in send_gaps {
            // Absorb as much as fits.
            while !buf.is_full() {
                buf.absorb(flit(next_seq));
                absorbed.push(next_seq);
                next_seq += 1;
            }
            now += gap;
            buf.expire(now);
            if let Some(f) = buf.send_held(now, true) {
                sent.push(f.seq);
            }
        }
        // Everything sent so far is a prefix of the absorption order.
        assert_eq!(sent.as_slice(), &absorbed[..sent.len()], "case {case}");
    }
}

/// Every mutator interleaved at random, at the paper's depth and a
/// recovery-sized one: the buffer's replay and held counts agree with
/// its slots after every step (the debug build also checks them against
/// a full scan inside each mutator), including the mixed states that
/// leave `expire` on its scanning path.
#[test]
fn counts_track_slots_under_any_interleaving() {
    let mut rng = Rng::seed_from_u64(0xC02E_0004);
    let (mut held_behind_sent, mut nack_mid_burst, mut purge_mid_replay) = (0, 0, 0);
    for case in 0..300 {
        let depth = if case % 2 == 0 { 3 } else { 6 };
        let mut buf = RetransmissionBuffer::new(depth);
        let mut now = 0u64;
        let mut seq = 0u8;
        for step in 0..80 {
            now += rng.gen_range(0..2u64);
            match rng.gen_range(0..7u8) {
                0 if !buf.is_full() => {
                    buf.record_transmission(flit(seq), now);
                    seq = seq.wrapping_add(1);
                }
                0 | 1 => buf.expire(now),
                2 => {
                    nack_mid_burst += usize::from(buf.is_replaying());
                    buf.on_nack(now);
                }
                3 => {
                    buf.next_replay(now);
                }
                4 => {
                    if buf.absorb(flit(seq)) {
                        seq = seq.wrapping_add(1);
                    }
                }
                5 => {
                    buf.send_held(now, true);
                }
                _ => {
                    purge_mid_replay += usize::from(buf.is_replaying());
                    let k = rng.gen_range(0..3u8);
                    buf.purge(|f| f.seq % 3 == k);
                }
            }
            let held: Vec<bool> = buf.iter_slots().map(|(_, h)| h).collect();
            held_behind_sent += usize::from(held.windows(2).any(|w| !w[0] && w[1]));
            assert!(buf.occupancy() <= buf.depth(), "case {case} step {step}");
            assert_eq!(
                buf.held_count(),
                held.iter().filter(|h| **h).count(),
                "case {case} step {step}"
            );
            assert_eq!(
                buf.is_replaying(),
                buf.clone().next_replay(now).is_some(),
                "case {case} step {step}"
            );
        }
    }
    assert!(held_behind_sent > 0 && nack_mid_burst > 0 && purge_mid_replay > 0);
}
