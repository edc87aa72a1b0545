//! The paper's worked examples, reproduced exactly through the public
//! API: the Figure 4 retransmission schedule, the Figure 10 recovery
//! walk-through and the Eq. (1) arithmetic.

use ftnoc::prelude::*;
use ftnoc_core::hbh::ReceiverVerdict;
use ftnoc_ecc::protect_flit;

fn flit(seq: u8) -> Flit {
    let kind = match seq {
        0 => FlitKind::Head,
        3 => FlitKind::Tail,
        _ => FlitKind::Body,
    };
    let mut f = Flit::new(
        PacketId::new(7),
        seq,
        kind,
        Header::new(NodeId::new(0), NodeId::new(1)),
        seq as u16,
        0,
    );
    protect_flit(&mut f);
    f
}

/// Figure 4's exact schedule: H1 sent at CLK 0 and corrupted; D2, D3
/// dropped at CLK 2 and 3; retransmitted H1 accepted at CLK 4; the
/// recovery costs exactly 3 cycles.
#[test]
fn figure4_schedule_is_exact() {
    let mut sender = RetransmissionBuffer::new(3);
    let mut receiver = HbhReceiver::new();
    let mut events: Vec<(u64, String)> = Vec::new();

    let mut queue = vec![flit(3), flit(2), flit(1), flit(0)];
    let mut wire: Option<(Flit, u64)> = None;
    let mut nack_at = None;
    let mut corrupted = false;

    for now in 0u64..10 {
        if nack_at == Some(now) {
            sender.on_nack(now);
        }
        sender.expire(now);
        if let Some((mut f, _)) = wire.take() {
            let seq = f.seq;
            match receiver.check_arrival(&mut f, now) {
                ReceiverVerdict::Accept | ReceiverVerdict::AcceptCorrected => {
                    events.push((now, format!("accept {seq}")))
                }
                ReceiverVerdict::NackAndDrop => {
                    nack_at = Some(now + 2);
                    events.push((now, format!("nack {seq}")));
                }
                ReceiverVerdict::DropInWindow => events.push((now, format!("drop {seq}"))),
            }
        }
        if sender.is_replaying() {
            if let Some(f) = sender.next_replay(now) {
                wire = Some((f, now));
            }
        } else if !sender.is_full() {
            if let Some(mut out) = queue.pop() {
                sender.record_transmission(out, now);
                if out.seq == 0 && !corrupted {
                    out.payload.flip_bit(3);
                    out.payload.flip_bit(59);
                    corrupted = true;
                }
                wire = Some((out, now));
            }
        }
    }

    let expected: Vec<(u64, String)> = vec![
        (1, "nack 0".into()),   // H1 checked and found corrupt at CLK 1
        (2, "drop 1".into()),   // D2 dropped
        (3, "drop 2".into()),   // D3 dropped
        (4, "accept 0".into()), // corrected H1, exactly 3 cycles late
        (5, "accept 1".into()),
        (6, "accept 2".into()),
        (7, "accept 3".into()), // T4 follows the replay
    ];
    assert_eq!(events, expected);
}

/// Figure 10, step by step: after one drain epoch every flit has
/// advanced by exactly three buffer slots.
#[test]
fn figure10_one_epoch_advances_three_slots() {
    let mut ring = RecoveryRing::new(3, 4, 3);
    for stream in 0..3u64 {
        ring.preload(
            stream as usize,
            (0..4).map(|s| {
                let kind = match s {
                    0 => FlitKind::Head,
                    3 => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                Flit::new(
                    PacketId::new(stream),
                    s,
                    kind,
                    Header::new(NodeId::new(stream as u16), NodeId::new(9)),
                    s as u16,
                    0,
                )
            }),
        );
    }
    ring.activate_recovery();
    ring.run(3);
    for i in 0..3 {
        let contents: Vec<(u64, u8)> = ring
            .node(i)
            .tx
            .iter()
            .map(|f| (f.packet.raw(), f.seq))
            .collect();
        let own = i as u64;
        let pred = ((i + 2) % 3) as u64;
        assert_eq!(
            contents,
            vec![(own, 3), (pred, 0), (pred, 1), (pred, 2)],
            "node {i}"
        );
    }
    assert_eq!(ring.total_flits(), 12);
}

/// The two Eq. (1) examples as printed in the paper.
#[test]
fn equation1_paper_examples() {
    // Figure 10: Ti=4, Ri=3, M=4, Ni=1, n=3 → B₂ = 21 > 12.
    let fig10 = DeadlockCycleSpec::uniform(3, 4, 3, 4);
    assert_eq!((fig10.total_buffer_size(), fig10.required_size()), (21, 12));
    assert!(fig10.recovery_is_guaranteed());

    // Figure 11: Ti=6, Ri=3, M=4, Ni=2, n=4 → B₂ = 36 > 32.
    let fig11 = DeadlockCycleSpec::uniform(4, 6, 3, 4);
    assert_eq!((fig11.total_buffer_size(), fig11.required_size()), (36, 32));
    assert!(fig11.recovery_is_guaranteed());
}

/// Table 1's structural claim: the AC unit costs about one percent of
/// the router in both power and area.
#[test]
fn table1_overheads_reproduced() {
    let t = Table1::compute();
    assert!((t.router.power.raw() - 119.55).abs() < 1e-6);
    assert!((t.router.area.raw() - 0.374862).abs() < 1e-9);
    assert!((0.4..3.0).contains(&t.area_overhead_percent()));
    assert!((0.7..3.0).contains(&t.power_overhead_percent()));
}
