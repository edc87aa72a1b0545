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
//! [`HbhSender`] wraps the barrel shifter with the "what do I drive onto
//! the link this cycle" decision; [`HbhReceiver`] wraps the error-check
//! unit with the NACK/drop-window logic. The inter-router wires (1-cycle
//! link, 1-cycle NACK) belong to the simulator's link model; unit tests
//! here script them explicitly.

use ftnoc_ecc::{check_flit, FlitCheck};
use ftnoc_types::flit::Flit;

use crate::retransmission::RetransmissionBuffer;

/// Sender half of the HBH protocol for one virtual channel.
#[derive(Debug, Clone)]
pub struct HbhSender {
    buffer: RetransmissionBuffer,
}

impl HbhSender {
    /// Creates a sender with a `depth`-deep barrel shifter (§3.1: 3).
    pub fn new(depth: usize) -> Self {
        HbhSender {
            buffer: RetransmissionBuffer::new(depth),
        }
    }

    /// Access to the underlying barrel shifter (deadlock recovery shares
    /// it, §3.2).
    pub fn buffer(&self) -> &RetransmissionBuffer {
        &self.buffer
    }

    /// Mutable access to the underlying barrel shifter.
    pub fn buffer_mut(&mut self) -> &mut RetransmissionBuffer {
        &mut self.buffer
    }

    /// Ages out expired copies; call once per cycle before transmitting
    /// and **after** processing any NACK that arrived this cycle — the
    /// NACK for a flit sent at `T` reaches the sender exactly when that
    /// flit's window closes (`T + depth`), and the NACK must win.
    pub fn tick(&mut self, now: u64) {
        self.buffer.expire(now);
    }

    /// Handles a NACK arriving from the downstream router at cycle
    /// `now`: copies still inside their NACK window become pending
    /// replay (see [`RetransmissionBuffer::on_nack`]).
    pub fn on_nack(&mut self, now: u64) {
        self.buffer.on_nack(now);
    }

    /// Whether the sender must replay instead of sending new flits.
    pub fn is_replaying(&self) -> bool {
        self.buffer.is_replaying()
    }

    /// Whether a *new* flit may be transmitted this cycle: no replay in
    /// progress and a free slot for the protective copy.
    pub fn can_send_new(&self) -> bool {
        !self.buffer.is_replaying() && !self.buffer.is_full()
    }

    /// Transmits a new flit: records the protective copy and returns the
    /// flit to drive onto the link.
    ///
    /// # Panics
    ///
    /// Panics if called while [`HbhSender::can_send_new`] is false.
    pub fn send_new(&mut self, flit: Flit, now: u64) -> Flit {
        assert!(
            self.can_send_new(),
            "send_new called during replay or with a full window"
        );
        self.buffer.record_transmission(flit, now);
        flit
    }

    /// Produces the next replayed flit to drive onto the link, if a
    /// replay is in progress.
    pub fn next_replay(&mut self, now: u64) -> Option<Flit> {
        self.buffer.next_replay(now)
    }

    /// Removes every buffered slot whose flit matches `pred` (see
    /// [`RetransmissionBuffer::purge`]). Returns `(flit, held)` pairs.
    pub fn purge(&mut self, pred: impl FnMut(&Flit) -> bool) -> Vec<(Flit, bool)> {
        self.buffer.purge(pred)
    }
}

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

impl ReceiverVerdict {
    /// Whether the flit survives into the input buffer.
    pub fn is_accept(self) -> bool {
        matches!(
            self,
            ReceiverVerdict::Accept | ReceiverVerdict::AcceptCorrected
        )
    }
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
    pub fn in_drop_window(&self, now: u64) -> bool {
        self.drop_until.is_some_and(|t| now <= t)
    }

    /// Checks a flit arriving at this router's input at cycle `now`
    /// (the error-check cycle) and decides its fate.
    ///
    /// On [`ReceiverVerdict::NackAndDrop`] the caller must deliver a NACK
    /// to the sender so that it arrives at cycle `now + 1`; the receiver
    /// opens a 2-cycle drop window for the two in-flight successors.
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

    /// Scripted link between one sender and one receiver: 1-cycle flit
    /// latency (send at T, check at T+1), 1-cycle NACK latency (sent at
    /// T, seen by the sender at T+1).
    struct ScriptedLink {
        in_flight: Option<(Flit, u64)>,
        nack_at: Option<u64>,
    }

    #[test]
    fn figure4_trace_header_corrupted() {
        // Reproduce Figure 4: H1 corrupted on the link; D2, D3 dropped;
        // H1, D2, D3 replayed; T4 follows; whole packet delivered.
        let mut sender = HbhSender::new(3);
        let mut receiver = HbhReceiver::new();
        let packet = [flit(0), flit(1), flit(2), flit(3)];
        let mut to_send: Vec<Flit> = packet.to_vec();
        to_send.reverse(); // pop() from the back as a queue

        let mut link = ScriptedLink {
            in_flight: None,
            nack_at: None,
        };
        let mut delivered: Vec<u8> = Vec::new();
        let mut corrupted_once = false;

        for now in 0u64..20 {
            // NACK arrival at the sender (before expiry: the NACK for the
            // flit sent at T arrives exactly as its window closes).
            if link.nack_at == Some(now) {
                sender.on_nack(now);
                link.nack_at = None;
            }
            sender.tick(now);
            // Receiver checks the flit sent last cycle.
            if let Some((mut f, sent_at)) = link.in_flight.take() {
                assert_eq!(sent_at + 1, now);
                let verdict = receiver.check_arrival(&mut f, now);
                match verdict {
                    ReceiverVerdict::Accept | ReceiverVerdict::AcceptCorrected => {
                        delivered.push(f.seq)
                    }
                    // Error detected at the end of cycle `now`; the NACK
                    // wire carries it during `now + 1`; the sender reacts
                    // at `now + 2` (3 cycles after the original send).
                    ReceiverVerdict::NackAndDrop => link.nack_at = Some(now + 2),
                    ReceiverVerdict::DropInWindow => {}
                }
            }
            // Sender drives the link.
            if sender.is_replaying() {
                if let Some(f) = sender.next_replay(now) {
                    link.in_flight = Some((f, now));
                }
            } else if sender.can_send_new() {
                if let Some(f) = to_send.pop() {
                    let mut out = sender.send_new(f, now);
                    // Corrupt H1 (seq 0) on its first traversal only.
                    if out.seq == 0 && !corrupted_once {
                        out.payload.flip_bit(5);
                        out.payload.flip_bit(44);
                        corrupted_once = true;
                    }
                    link.in_flight = Some((out, now));
                }
            }
        }

        // All four flits delivered, in order, exactly once.
        assert_eq!(delivered, vec![0, 1, 2, 3]);
        assert_eq!(receiver.nacks_sent(), 1);
        // H1 dropped once + D2, D3 dropped in the window.
        assert_eq!(receiver.dropped_count(), 3);
        // 3-cycle recovery: H1 replayed 3 cycles after first transmission.
    }

    #[test]
    fn clean_stream_flows_without_drops() {
        let mut sender = HbhSender::new(3);
        let mut receiver = HbhReceiver::new();
        let mut delivered = 0u32;
        for now in 0u64..16 {
            sender.tick(now);
            if sender.can_send_new() {
                let mut f = sender.send_new(flit((now % 4) as u8), now);
                if receiver.check_arrival(&mut f, now + 1).is_accept() {
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, 16);
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
    fn sender_blocks_new_flits_during_replay() {
        let mut sender = HbhSender::new(3);
        sender.tick(0);
        sender.send_new(flit(0), 0);
        sender.on_nack(3);
        assert!(sender.is_replaying());
        assert!(!sender.can_send_new());
        assert!(sender.next_replay(3).is_some());
        assert!(!sender.is_replaying());
    }

    #[test]
    #[should_panic(expected = "send_new called during replay")]
    fn send_new_during_replay_panics() {
        let mut sender = HbhSender::new(3);
        sender.send_new(flit(0), 0);
        sender.on_nack(1);
        sender.send_new(flit(1), 1);
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
