//! The end-to-end (E2E) retransmission baseline of §3 / Figure 5.
//!
//! In an E2E scheme data is checked **only at the destination**; on a
//! detected error the destination sends a NACK back to the (claimed)
//! source, which retransmits the whole packet from a source-side buffer.
//! Because the source address itself can be corrupted — in which case the
//! NACK goes nowhere — a timeout backstop retires lost packets.
//!
//! The paper (and its companion study, reference \[1\]) observes two structural
//! weaknesses, both reproduced by this model plus the simulator:
//! corrupted headers misroute packets and turn one traversal into several,
//! and source buffers must cover a worst-case round trip rather than 3
//! cycles. [`E2eSource::occupancy_flits`] exposes the buffer-size cost.

use std::collections::BTreeMap;

use ftnoc_ecc::hamming;
use ftnoc_types::flit::Flit;
use ftnoc_types::geom::NodeId;
use ftnoc_types::packet::{Packet, PacketId};

/// A packet awaiting acknowledgement at its source.
#[derive(Debug, Clone)]
struct PendingPacket {
    packet: Packet,
    /// Cycle of the most recent (re)transmission.
    sent_at: u64,
    /// Number of retransmissions so far.
    attempts: u32,
}

/// Source-side E2E bookkeeping for one node.
#[derive(Debug)]
pub struct E2eSource {
    /// Ordered by id, so a timeout scan retransmits in the same order on
    /// every run of one seed.
    pending: BTreeMap<PacketId, PendingPacket>,
    timeout: u64,
    max_attempts: u32,
}

impl E2eSource {
    /// Creates a source tracker.
    ///
    /// `timeout` is the cycles to wait for an ACK before assuming loss
    /// (it should exceed the worst-case round trip); `max_attempts`
    /// bounds retransmissions of a single packet so a permanently broken
    /// path cannot wedge the source forever.
    ///
    /// # Panics
    ///
    /// Panics if `timeout == 0` or `max_attempts == 0`.
    pub fn new(timeout: u64, max_attempts: u32) -> Self {
        assert!(timeout > 0, "timeout must be non-zero");
        assert!(max_attempts > 0, "max_attempts must be non-zero");
        E2eSource {
            pending: BTreeMap::new(),
            timeout,
            max_attempts,
        }
    }

    /// Records a packet entering the network at cycle `now`.
    pub fn on_send(&mut self, packet: Packet, now: u64) {
        self.pending.insert(
            packet.id(),
            PendingPacket {
                packet,
                sent_at: now,
                attempts: 0,
            },
        );
    }

    /// Handles an ACK from the destination; returns whether the packet
    /// was still pending (duplicate ACKs are ignored).
    pub fn on_ack(&mut self, id: PacketId) -> bool {
        self.pending.remove(&id).is_some()
    }

    /// Handles a NACK: returns a fresh copy to retransmit, or `None` if
    /// the packet is unknown (e.g. already ACKed, or the NACK itself was
    /// misdelivered) or out of attempts.
    pub fn on_nack(&mut self, id: PacketId, now: u64) -> Option<Packet> {
        let pending = self.pending.get_mut(&id)?;
        if pending.attempts >= self.max_attempts {
            self.pending.remove(&id);
            return None;
        }
        pending.attempts += 1;
        pending.sent_at = now;
        Some(pending.packet.clone())
    }

    /// Collects packets whose ACK timed out, in [`PacketId`] order,
    /// refreshing their timers; each returned packet must be
    /// retransmitted by the caller.
    pub fn take_expired(&mut self, now: u64) -> Vec<Packet> {
        let mut expired = Vec::new();
        self.pending.retain(|_, pending| {
            if now.saturating_sub(pending.sent_at) < self.timeout {
                return true;
            }
            if pending.attempts >= self.max_attempts {
                return false;
            }
            pending.attempts += 1;
            pending.sent_at = now;
            expired.push(pending.packet.clone());
            true
        });
        expired
    }

    /// Source-buffer occupancy in flits — the E2E buffer-size cost the
    /// paper contrasts with HBH's fixed 3 flits per VC.
    pub fn occupancy_flits(&self) -> usize {
        self.pending.values().map(|p| p.packet.len()).sum()
    }
}

/// Destination verdict for a fully received packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E2eVerdict {
    /// Every flit checked clean: deliver and ACK the source.
    AcceptAndAck,
    /// At least one flit was corrupted (or the packet was misdelivered):
    /// discard and NACK the claimed source.
    RejectAndNack {
        /// The node the NACK should be routed to (the *claimed* source,
        /// which may itself be corrupted).
        src: NodeId,
    },
}

/// Destination-side E2E checker for one node.
///
/// Reassembles packets flit by flit and produces a verdict when the tail
/// arrives. E2E performs **detection only** (a pure retransmission
/// scheme, as in the paper's comparison): any non-zero syndrome rejects
/// the packet.
#[derive(Debug, Default)]
pub struct E2eDestination {
    #[allow(clippy::disallowed_types, reason = "lookup-only: keyed entry/remove")]
    partial: std::collections::HashMap<PacketId, PartialPacket>,
}

#[derive(Debug, Clone)]
struct PartialPacket {
    flits_seen: usize,
    any_error: bool,
    src: NodeId,
}

impl E2eDestination {
    /// Creates a checker.
    pub fn new() -> Self {
        E2eDestination::default()
    }

    /// Consumes an ejected flit at node `me`; returns a verdict when the
    /// packet completes.
    pub fn on_flit(&mut self, me: NodeId, flit: &Flit) -> Option<E2eVerdict> {
        let error = !matches!(
            hamming::decode(flit.payload.data(), flit.payload.check()),
            hamming::DecodeOutcome::Clean { .. }
        );
        let entry = self
            .partial
            .entry(flit.packet)
            .or_insert_with(|| PartialPacket {
                flits_seen: 0,
                any_error: false,
                src: flit.header.src,
            });
        entry.flits_seen += 1;
        entry.any_error |= error;
        // The first uncorrupted source field wins for NACK routing.
        if !error {
            entry.src = flit.header.src;
        }
        if !flit.kind.is_tail() {
            return None;
        }
        let done = self.partial.remove(&flit.packet).expect("entry exists");
        if done.any_error || flit.header.dest != me {
            Some(E2eVerdict::RejectAndNack { src: done.src })
        } else {
            Some(E2eVerdict::AcceptAndAck)
        }
    }

    /// Incomplete packets currently being reassembled.
    #[cfg(test)]
    fn partial_count(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_ecc::protect_flit;
    use ftnoc_types::Header;

    fn packet(id: u64, src: u16, dest: u16) -> Packet {
        let mut p = Packet::new(
            PacketId::new(id),
            Header::new(NodeId::new(src), NodeId::new(dest)),
            4,
            0,
        );
        for f in p.flits_mut() {
            protect_flit(f);
        }
        p
    }

    #[test]
    fn clean_packet_is_acked() {
        let mut dest = E2eDestination::new();
        let p = packet(1, 0, 9);
        let mut verdicts = Vec::new();
        for f in p.flits() {
            if let Some(v) = dest.on_flit(NodeId::new(9), f) {
                verdicts.push(v);
            }
        }
        assert_eq!(verdicts, vec![E2eVerdict::AcceptAndAck]);
        assert_eq!(dest.partial_count(), 0);
    }

    #[test]
    fn corrupted_flit_triggers_nack_to_source() {
        let mut dest = E2eDestination::new();
        let mut p = packet(2, 3, 9);
        p.flits_mut()[1].payload.flip_bit(7); // single flip: E2E detects, never corrects
        let verdict = p
            .flits()
            .iter()
            .find_map(|f| dest.on_flit(NodeId::new(9), f))
            .unwrap();
        assert_eq!(
            verdict,
            E2eVerdict::RejectAndNack {
                src: NodeId::new(3)
            }
        );
    }

    #[test]
    fn misdelivered_packet_is_rejected() {
        let mut dest = E2eDestination::new();
        let p = packet(3, 0, 9);
        let verdict = p
            .flits()
            .iter()
            .find_map(|f| dest.on_flit(NodeId::new(5), f)) // wrong node
            .unwrap();
        assert!(matches!(verdict, E2eVerdict::RejectAndNack { .. }));
    }

    #[test]
    fn source_retransmits_on_nack() {
        let mut src = E2eSource::new(100, 8);
        let p = packet(4, 1, 8);
        src.on_send(p.clone(), 10);
        assert_eq!(src.occupancy_flits(), 4);
        let again = src.on_nack(PacketId::new(4), 20).unwrap();
        assert_eq!(again.id(), p.id());
        assert!(src.on_ack(PacketId::new(4)));
        assert_eq!(src.occupancy_flits(), 0);
        assert!(!src.on_ack(PacketId::new(4)), "duplicate ACK ignored");
    }

    #[test]
    fn timeout_retransmits_and_refreshes_timer() {
        let mut src = E2eSource::new(50, 8);
        src.on_send(packet(5, 2, 7), 0);
        assert!(src.take_expired(49).is_empty());
        let expired = src.take_expired(50);
        assert_eq!(expired.len(), 1);
        // Timer refreshed: not expired again immediately.
        assert!(src.take_expired(60).is_empty());
        assert!(!src.take_expired(100).is_empty());
    }

    #[test]
    fn two_sources_expire_in_the_same_order() {
        // Ids sent out of order: expiry must come back sorted, not in
        // whatever order a per-instance hasher happens to iterate.
        let expire = || {
            let mut src = E2eSource::new(50, 8);
            for id in [40, 7, 23, 12, 31, 5, 18, 36, 2, 27] {
                src.on_send(packet(id, 2, 7), 0);
            }
            let expired = src.take_expired(50);
            expired.iter().map(|p| p.id().raw()).collect::<Vec<_>>()
        };
        assert_eq!(expire(), expire());
        assert_eq!(expire(), [2, 5, 7, 12, 18, 23, 27, 31, 36, 40]);
    }

    #[test]
    fn packet_is_abandoned_after_max_attempts() {
        let mut src = E2eSource::new(10, 2);
        src.on_send(packet(6, 0, 1), 0);
        assert_eq!(src.take_expired(10).len(), 1); // attempt 1
        assert_eq!(src.take_expired(20).len(), 1); // attempt 2
        assert_eq!(src.take_expired(30).len(), 0); // abandoned
        assert_eq!(src.occupancy_flits(), 0);
    }

    #[test]
    fn nack_for_unknown_packet_is_ignored() {
        let mut src = E2eSource::new(10, 2);
        assert!(src.on_nack(PacketId::new(99), 5).is_none());
    }

    #[test]
    fn interleaved_packets_reassemble_independently() {
        let mut dest = E2eDestination::new();
        let a = packet(10, 0, 9);
        let b = packet(11, 1, 9);
        // Interleave a and b flit streams (possible across VCs).
        let mut verdicts = Vec::new();
        for i in 0..4 {
            verdicts.extend(dest.on_flit(NodeId::new(9), &a.flits()[i]));
            verdicts.extend(dest.on_flit(NodeId::new(9), &b.flits()[i]));
        }
        assert_eq!(verdicts, [E2eVerdict::AcceptAndAck; 2]);
        assert_eq!(dest.partial_count(), 0);
    }
}
