//! Figure 4, live: the flit-based hop-by-hop retransmission mechanism
//! traced cycle by cycle across one link.
//!
//! The header flit H1 is corrupted during link traversal; the receiver
//! NACKs, drops the two in-flight successors, and the sender replays the
//! barrel shifter — the corrected flit arrives exactly 3 cycles after
//! the corrupted one.
//!
//! ```sh
//! cargo run --example hbh_trace
//! ```

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
        PacketId::new(1),
        seq,
        kind,
        Header::new(NodeId::new(0), NodeId::new(1)),
        seq as u16,
        0,
    );
    protect_flit(&mut f);
    f
}

fn name(f: &Flit) -> &'static str {
    match f.seq {
        0 => "H1",
        1 => "D2",
        2 => "D3",
        _ => "T4",
    }
}

fn main() {
    let mut sender = RetransmissionBuffer::new(3);
    let mut receiver = HbhReceiver::new();
    let mut queue: Vec<Flit> = vec![flit(3), flit(2), flit(1), flit(0)]; // pop from back

    // (flit, sent_at) on the wire; NACK visible to the sender at `nack_at`.
    let mut wire: Option<(Flit, u64)> = None;
    let mut nack_at: Option<u64> = None;
    let mut corrupted = false;
    let mut delivered: Vec<&'static str> = Vec::new();

    println!("CLK | sender action        | receiver action");
    println!("----+----------------------+---------------------------------");
    for now in 0u64..12 {
        let mut s_act = String::from("idle");
        let mut r_act = String::from("-");

        if nack_at == Some(now) {
            sender.on_nack(now);
            nack_at = None;
            s_act = "NACK received".into();
        }
        sender.expire(now);

        if let Some((mut f, _)) = wire.take() {
            let label = name(&f);
            match receiver.check_arrival(&mut f, now) {
                ReceiverVerdict::Accept => {
                    delivered.push(label);
                    r_act = format!("accept {label}");
                }
                ReceiverVerdict::AcceptCorrected => {
                    delivered.push(label);
                    r_act = format!("accept {label} (corrected)");
                }
                ReceiverVerdict::NackAndDrop => {
                    nack_at = Some(now + 2);
                    r_act = format!("{label}* error detected -> NACK, drop");
                }
                ReceiverVerdict::DropInWindow => r_act = format!("drop {label} (window)"),
            }
        }

        if sender.is_replaying() {
            if let Some(f) = sender.next_replay(now) {
                s_act = format!("retransmit {}", name(&f));
                wire = Some((f, now));
            }
        } else if !sender.is_full() {
            if let Some(mut out) = queue.pop() {
                sender.record_transmission(out, now);
                let mut tag = "";
                if out.seq == 0 && !corrupted {
                    // Double-bit upset on the wire: uncorrectable.
                    out.payload.flip_bit(11);
                    out.payload.flip_bit(47);
                    corrupted = true;
                    tag = " (corrupted on link!)";
                }
                s_act = format!("send {}{tag}", name(&out));
                wire = Some((out, now));
            }
        }

        println!("{now:>3} | {s_act:<20} | {r_act}");
    }

    println!();
    println!("delivered in order: {delivered:?}");
    assert_eq!(delivered, vec!["H1", "D2", "D3", "T4"]);
    println!(
        "NACKs: {}, flits dropped: {}, corrections: {}",
        receiver.nacks_sent(),
        receiver.dropped_count(),
        receiver.corrected_count()
    );
    println!("=> whole packet recovered with a 3-cycle penalty, as in Figure 4");
}
