//! The flit-based hop-by-hop retransmission protocol of §3.1.
//!
//! Timing (Figure 4), with the corrupted flit sent at cycle `T`:
//!
//! | cycle | sender                     | receiver                        |
//! |-------|----------------------------|---------------------------------|
//! | T     | sends flit F (records copy)| —                               |
//! | T+1   | sends F+1                  | checks F: uncorrectable → NACK  |
//! | T+2   | sends F+2; NACK in flight  | drops F+1                       |
//! | T+3   | replays F                  | drops F+2                       |
//! | T+4   | replays F+1                | accepts corrected F             |
//!
//! The sender half is the barrel shifter itself
//! ([`crate::retransmission::RetransmissionBuffer`]): each cycle it takes
//! any NACK (`on_nack`), then `expire`s closed windows — in that order,
//! because the NACK for a flit sent at `T` arrives exactly as its window
//! closes and must win — then drives `next_replay` while `is_replaying`,
//! else a new flit (`record_transmission`) if a slot is free.
//! [`HbhReceiver`] wraps the error-check unit with the NACK/drop-window
//! logic and names its decision as a [`ReceiverVerdict`]. The inter-router
//! wires (1-cycle link, 1-cycle NACK) belong to the simulator's link
//! model; `tests/figure_traces.rs` scripts them and pins the exact
//! Figure 4 schedule.

use ftnoc_ecc::{check_flit, FlitCheck};
use ftnoc_types::flit::Flit;

/// What the receiver decided about an arriving flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverVerdict {
    /// Deliver the flit onward (decoded clean).
    Accept,
    /// Deliver the flit onward; a single-bit upset was corrected.
    AcceptCorrected,
    /// Uncorrectable error: drop the flit and send a NACK upstream.
    NackAndDrop,
    /// Drop silently: the flit lies inside the post-NACK drop window and
    /// will be replayed by the sender.
    DropInWindow,
}

/// Receiver half of the HBH protocol for one virtual channel.
#[derive(Debug, Clone, Default)]
pub struct HbhReceiver {
    /// Arrivals checked at cycles `<= drop_until` are dropped.
    drop_until: Option<u64>,
    corrected: u64,
    nacks_sent: u64,
    dropped: u64,
}

impl HbhReceiver {
    /// Creates a receiver with an idle drop window.
    pub fn new() -> Self {
        HbhReceiver::default()
    }

    /// Single-bit corrections performed (Figure 13a's LINK-HBH counts
    /// corrected errors; uncorrectable ones are recovered by replay and
    /// counted through [`HbhReceiver::nacks_sent`]).
    pub fn corrected_count(&self) -> u64 {
        self.corrected
    }

    /// NACKs sent upstream.
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Flits dropped (corrupted + in-window).
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Whether the receiver is inside a drop window at `now`.
    pub(crate) fn in_drop_window(&self, now: u64) -> bool {
        self.drop_until.is_some_and(|t| now <= t)
    }

    /// Checks a flit arriving at this router's input at cycle `now`
    /// (the error-check cycle) and decides its fate.
    ///
    /// On [`ReceiverVerdict::NackAndDrop`] the caller must deliver a NACK
    /// to the sender so that it arrives at cycle `now + 1`; the receiver
    /// opens a 2-cycle drop window for the two in-flight successors.
    #[inline]
    pub fn check_arrival(&mut self, flit: &mut Flit, now: u64) -> ReceiverVerdict {
        if self.in_drop_window(now) {
            self.dropped += 1;
            return ReceiverVerdict::DropInWindow;
        }
        match check_flit(flit) {
            FlitCheck::Clean => ReceiverVerdict::Accept,
            FlitCheck::Corrected => {
                self.corrected += 1;
                ReceiverVerdict::AcceptCorrected
            }
            FlitCheck::Uncorrectable => {
                self.nacks_sent += 1;
                self.dropped += 1;
                // Drop the two successors checked at now+1 and now+2; the
                // replayed flit is checked at now+3.
                self.drop_until = Some(now + 2);
                ReceiverVerdict::NackAndDrop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_ecc::protect_flit;
    use ftnoc_types::flit::FlitKind;
    use ftnoc_types::geom::NodeId;
    use ftnoc_types::packet::PacketId;
    use ftnoc_types::Header;

    fn flit(seq: u8) -> Flit {
        let kind = match seq {
            0 => FlitKind::Head,
            3 => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        let mut f = Flit::new(
            PacketId::new(4),
            seq,
            kind,
            Header::new(NodeId::new(1), NodeId::new(6)),
            seq as u16,
            0,
        );
        protect_flit(&mut f);
        f
    }

    #[test]
    fn clean_stream_flows_without_drops() {
        let mut receiver = HbhReceiver::new();
        for now in 1u64..=16 {
            let mut f = flit((now % 4) as u8);
            assert_eq!(receiver.check_arrival(&mut f, now), ReceiverVerdict::Accept);
        }
        assert_eq!(receiver.dropped_count(), 0);
        assert_eq!(receiver.nacks_sent(), 0);
    }

    #[test]
    fn single_bit_errors_never_trigger_nack() {
        let mut receiver = HbhReceiver::new();
        let mut f = flit(1);
        f.payload.flip_bit(9);
        let verdict = receiver.check_arrival(&mut f, 5);
        assert_eq!(verdict, ReceiverVerdict::AcceptCorrected);
        assert_eq!(receiver.corrected_count(), 1);
        assert_eq!(receiver.nacks_sent(), 0);
        assert!(f.is_consistent(), "correction restores the word");
    }

    #[test]
    fn drop_window_covers_exactly_two_cycles() {
        let mut receiver = HbhReceiver::new();
        let mut bad = flit(0);
        bad.payload.flip_bit(0);
        bad.payload.flip_bit(1);
        assert_eq!(
            receiver.check_arrival(&mut bad, 10),
            ReceiverVerdict::NackAndDrop
        );
        // Cycles 11 and 12: in-flight successors dropped.
        let mut f = flit(1);
        assert_eq!(
            receiver.check_arrival(&mut f, 11),
            ReceiverVerdict::DropInWindow
        );
        let mut f = flit(2);
        assert_eq!(
            receiver.check_arrival(&mut f, 12),
            ReceiverVerdict::DropInWindow
        );
        // Cycle 13: the replayed flit is accepted.
        let mut f = flit(0);
        assert_eq!(receiver.check_arrival(&mut f, 13), ReceiverVerdict::Accept);
    }

    #[test]
    fn error_during_replay_restarts_recovery() {
        let mut receiver = HbhReceiver::new();
        let mut bad = flit(0);
        bad.payload.flip_bit(0);
        bad.payload.flip_bit(1);
        assert_eq!(
            receiver.check_arrival(&mut bad, 0),
            ReceiverVerdict::NackAndDrop
        );
        // The replayed flit (checked at cycle 3) is corrupted again.
        let mut bad2 = flit(0);
        bad2.payload.flip_bit(2);
        bad2.payload.flip_bit(3);
        assert_eq!(
            receiver.check_arrival(&mut bad2, 3),
            ReceiverVerdict::NackAndDrop
        );
        assert_eq!(receiver.nacks_sent(), 2);
        // New window covers cycles 4 and 5.
        let mut f = flit(1);
        assert_eq!(
            receiver.check_arrival(&mut f, 5),
            ReceiverVerdict::DropInWindow
        );
        let mut f = flit(0);
        assert_eq!(receiver.check_arrival(&mut f, 6), ReceiverVerdict::Accept);
    }

    #[test]
    fn bubble_in_stream_does_not_eat_replayed_flit() {
        // If the sender had nothing queued after the corrupted flit, the
        // drop window must not swallow the replay (it is time-based).
        let mut receiver = HbhReceiver::new();
        let mut bad = flit(0);
        bad.payload.flip_bit(0);
        bad.payload.flip_bit(1);
        receiver.check_arrival(&mut bad, 0);
        // Nothing arrives at cycles 1-2 (sender idle), replay at cycle 3.
        let mut f = flit(0);
        assert_eq!(receiver.check_arrival(&mut f, 3), ReceiverVerdict::Accept);
        assert_eq!(receiver.dropped_count(), 1);
    }
}
