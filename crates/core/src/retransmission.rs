//! The transmission/retransmission buffer architecture of Figure 3.
//!
//! Each virtual channel owns a simple FIFO **transmission buffer** (its
//! queue in a [`PortBuffer`](crate::PortBuffer)) and a barrel-shifter
//! **retransmission buffer**. On every link transmission a
//! copy of the flit enters the back of the barrel shifter; it reaches the
//! front exactly when a NACK for it could arrive (3 cycles later: link +
//! error check + NACK propagation) and silently expires if none does. A
//! NACK marks every copy still inside its window — the corrupted flit
//! and its in-flight successors — for replay front-to-back, re-recording
//! each replayed flit so that repeated errors are survivable.
//!
//! The same buffer doubles as the deadlock-recovery resource of §3.2:
//! recovery mode *absorbs* flits from the transmission buffer into free
//! retransmission slots ([`RetransmissionBuffer::absorb`]), and the
//! probing machinery injects probe flits directly ([`Figure 3`]'s
//! "direct input").
//!
//! The shifter's control state is two counts — slots pending replay and
//! slots held for recovery — kept beside the slot deque, so "is a replay
//! pending" and "how many are held" are reads, not scans. Every copy
//! enters at the back stamped with the current cycle, so sent copies sit
//! in `sent_at` order and expiry usually stops at the oldest live one.

use std::collections::VecDeque;

use ftnoc_types::flit::Flit;

/// Cycles a transmitted copy must stay replayable: link traversal +
/// error check + NACK propagation (§3.1). This is a property of the
/// *protocol timing*, not of the buffer size — a NACK for a flit sent at
/// cycle `T` reaches the sender at `T + 3` or never. Deeper buffers
/// (Eq. 1) add deadlock-recovery capacity, not a longer NACK window: if
/// copies lingered for `depth` cycles, a NACK would replay predecessors
/// the receiver already accepted, and its fixed 2-cycle drop window
/// would let those duplicates through.
pub const NACK_ROUND_TRIP: u64 = 3;

/// State of one barrel-shifter slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Copy of a flit already transmitted on the link at the given cycle;
    /// expires [`NACK_ROUND_TRIP`] cycles later unless a NACK arrives
    /// first.
    Sent { sent_at: u64 },
    /// Copy selected for replay by a NACK; survives expiry until
    /// [`RetransmissionBuffer::next_replay`] retransmits it.
    PendingReplay,
    /// A flit absorbed for deadlock recovery (or a probe awaiting
    /// injection); never expires, leaves only via [`RetransmissionBuffer::send_held`].
    Held,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    flit: Flit,
    state: SlotState,
}

impl Slot {
    /// Whether this is a sent copy whose NACK window has closed by `now`.
    fn expired(&self, now: u64) -> bool {
        matches!(self.state, SlotState::Sent { sent_at } if now >= sent_at + NACK_ROUND_TRIP)
    }
}

/// The barrel-shifter retransmission buffer (Figure 3, §3.1).
///
/// State: the slots front (oldest) to back, with sent copies in
/// `sent_at` order, plus the number of slots pending replay and held for
/// recovery. Every method that changes a slot's state updates the two
/// counts, so [`RetransmissionBuffer::is_replaying`] and
/// [`RetransmissionBuffer::held_count`] never iterate.
///
/// # Examples
///
/// ```
/// use ftnoc_core::retransmission::RetransmissionBuffer;
/// use ftnoc_types::{Flit, FlitKind, Header, NodeId, PacketId};
///
/// let mut buf = RetransmissionBuffer::new(3);
/// let flit = Flit::new(
///     PacketId::new(1), 0, FlitKind::Head,
///     Header::new(NodeId::new(0), NodeId::new(5)), 0, 0,
/// );
/// buf.record_transmission(flit, 10);
/// assert_eq!(buf.occupancy(), 1);
///
/// // No NACK within 3 cycles: the copy expires.
/// buf.expire(13);
/// assert_eq!(buf.occupancy(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RetransmissionBuffer {
    depth: usize,
    slots: VecDeque<Slot>,
    /// Slots in [`SlotState::PendingReplay`].
    pending: usize,
    /// Slots in [`SlotState::Held`].
    held: usize,
    /// Total replay transmissions performed (statistics).
    replayed: u64,
}

impl RetransmissionBuffer {
    /// Creates a buffer of `depth` slots (§3.1 requires ≥ 3).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "retransmission buffer depth must be non-zero");
        RetransmissionBuffer {
            depth,
            slots: VecDeque::with_capacity(depth),
            pending: 0,
            held: 0,
            replayed: 0,
        }
    }

    /// Buffer depth in flits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.depth
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a NACK-triggered replay is in progress.
    pub fn is_replaying(&self) -> bool {
        self.pending > 0
    }

    /// Replay transmissions over the buffer's lifetime.
    pub fn replayed_count(&self) -> u64 {
        self.replayed
    }

    /// Records a copy of a flit transmitted on the link at cycle `now`.
    ///
    /// Call [`RetransmissionBuffer::expire`] with the current cycle before
    /// recording; a correctly sized buffer (depth ≥ NACK round trip) then
    /// always has room.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — with per-§3.1 timing this indicates
    /// the caller transmitted faster than copies can expire.
    #[inline]
    pub fn record_transmission(&mut self, flit: Flit, now: u64) {
        assert!(
            !self.is_full(),
            "retransmission buffer overflow at cycle {now}; expire() not called or \
             transmissions outpace the {}-cycle window",
            self.depth
        );
        self.slots.push_back(Slot {
            flit,
            state: SlotState::Sent { sent_at: now },
        });
        debug_assert_eq!((self.pending, self.held), self.scan_counts());
    }

    /// Drops copies whose NACK window has closed. Pending-replay and
    /// held slots never expire: their contents are still needed.
    ///
    /// O(1) on the common paths. With nothing pending or held, every
    /// slot is a sent copy in `sent_at` order (callers never pass an
    /// earlier cycle than the last), so the expired ones are a prefix:
    /// pop them and stop at the first live copy. With nothing
    /// but pending and held slots, nothing can expire. Only a mixed
    /// buffer is scanned, because expired copies are reclaimed wherever
    /// they sit: during deadlock recovery a held (unsent) flit can rotate
    /// in front of still-ticking copies of its successors, and those
    /// copies must not waste slots once their windows close (the Eq. 1
    /// bound counts every slot).
    #[inline]
    pub fn expire(&mut self, now: u64) {
        if self.pending == 0 && self.held == 0 {
            while self.slots.front().is_some_and(|s| s.expired(now)) {
                self.slots.pop_front();
            }
        } else if self.pending + self.held < self.slots.len() {
            self.slots.retain(|s| !s.expired(now));
        }
        debug_assert!(!self.slots.iter().any(|s| s.expired(now)));
        debug_assert_eq!((self.pending, self.held), self.scan_counts());
    }

    /// Handles a NACK arriving at cycle `now`: every copy still inside
    /// its NACK window (the corrupted flit and the in-flight successors
    /// the receiver is dropping) becomes pending replay, front (oldest,
    /// the corrupted flit) first.
    ///
    /// Copies whose window has closed are *not* re-armed: their NACK
    /// deadline passed, so the receiver accepted them, and replaying an
    /// accepted flit past the receiver's drop window would deliver a
    /// duplicate. This matters when a second NACK lands while an earlier
    /// replay burst is still rotating through the shifter.
    pub fn on_nack(&mut self, now: u64) {
        for slot in &mut self.slots {
            if let SlotState::Sent { sent_at } = slot.state {
                if now <= sent_at + NACK_ROUND_TRIP {
                    slot.state = SlotState::PendingReplay;
                    self.pending += 1;
                }
            }
        }
        debug_assert_eq!((self.pending, self.held), self.scan_counts());
    }

    /// Produces the next replayed flit (the oldest pending slot). The
    /// slot rotates to the back with a fresh timestamp, so the replayed
    /// copy is itself protected.
    ///
    /// Returns `None` when no replay is pending.
    pub fn next_replay(&mut self, now: u64) -> Option<Flit> {
        if self.pending == 0 {
            return None;
        }
        let idx = self
            .slots
            .iter()
            .position(|s| s.state == SlotState::PendingReplay)?;
        let mut slot = self.slots.remove(idx).expect("index from position");
        let mut flit = slot.flit;
        flit.retransmissions = flit.retransmissions.saturating_add(1);
        slot.flit = flit;
        slot.state = SlotState::Sent { sent_at: now };
        self.slots.push_back(slot);
        self.pending -= 1;
        self.replayed += 1;
        debug_assert_eq!((self.pending, self.held), self.scan_counts());
        Some(flit)
    }

    /// Absorbs a flit from the transmission buffer during deadlock
    /// recovery (§3.2.1) or injects a probe flit via the direct input
    /// (Figure 3). Held flits never expire.
    ///
    /// Returns `false` (and does nothing) when no slot is free.
    pub fn absorb(&mut self, flit: Flit) -> bool {
        if self.is_full() {
            return false;
        }
        self.slots.push_back(Slot {
            flit,
            state: SlotState::Held,
        });
        self.held += 1;
        debug_assert_eq!((self.pending, self.held), self.scan_counts());
        true
    }

    /// Number of held (absorbed, unsent) flits.
    pub fn held_count(&self) -> usize {
        self.held
    }

    /// The flit a recovery transmission would send next, if any: the
    /// oldest held flit, which per the recovery procedure is always at
    /// the front once sent copies have expired.
    pub fn front_held(&self) -> Option<&Flit> {
        self.slots
            .front()
            .filter(|s| s.state == SlotState::Held)
            .map(|s| &s.flit)
    }

    /// Sends the front held flit during deadlock recovery. With
    /// `keep_copy` the slot rotates to the back as a sent copy (Figure
    /// 10's thick-square flits), expiring [`NACK_ROUND_TRIP`] cycles
    /// later as usual; without it the slot frees at once — a link with
    /// no per-hop NACK could never replay the copy, which would outlive
    /// its packet.
    pub fn send_held(&mut self, now: u64, keep_copy: bool) -> Option<Flit> {
        self.front_held()?;
        let mut slot = self.slots.pop_front().expect("front exists");
        if keep_copy {
            slot.state = SlotState::Sent { sent_at: now };
            self.slots.push_back(slot);
        }
        self.held -= 1;
        debug_assert_eq!((self.pending, self.held), self.scan_counts());
        Some(slot.flit)
    }

    /// Removes every slot whose flit matches `pred`, returning the
    /// removed flits front-first with their held flag (`true` = the
    /// slot held the sole live instance of the flit, not a protective
    /// copy). Supports whole-router fault purges: when a router dies,
    /// the wormholes feeding it are amputated and their in-window
    /// copies (and any recovery-absorbed originals) must leave the
    /// barrel shifter so they can neither replay nor leak slots. Any
    /// replay burst in progress simply continues over the surviving
    /// slots; the pending and held counts lose what was removed, the
    /// lifetime replay statistic is not rewound.
    pub fn purge(&mut self, mut pred: impl FnMut(&Flit) -> bool) -> Vec<(Flit, bool)> {
        let mut removed = Vec::new();
        self.slots.retain(|s| {
            if !pred(&s.flit) {
                return true;
            }
            match s.state {
                SlotState::PendingReplay => self.pending -= 1,
                SlotState::Held => self.held -= 1,
                SlotState::Sent { .. } => {}
            }
            removed.push((s.flit, s.state == SlotState::Held));
            false
        });
        debug_assert_eq!((self.pending, self.held), self.scan_counts());
        removed
    }

    /// `(pending, held)` counted slot by slot: what the two counts must
    /// equal after every mutation (checked in debug builds).
    fn scan_counts(&self) -> (usize, usize) {
        let count = |state| self.slots.iter().filter(|s| s.state == state).count();
        (count(SlotState::PendingReplay), count(SlotState::Held))
    }

    /// The cycle each sent copy's NACK window closes (`sent_at +`
    /// [`NACK_ROUND_TRIP`]), front first: the cycles at which
    /// [`RetransmissionBuffer::expire`] will drop them. Pending-replay
    /// and held slots have no deadline. Read-only.
    pub fn deadlines(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter_map(|s| match s.state {
            SlotState::Sent { sent_at } => Some(sent_at + NACK_ROUND_TRIP),
            SlotState::PendingReplay | SlotState::Held => None,
        })
    }

    /// Iterates over buffered flits with their held flag (`true` for
    /// recovery-absorbed slots that never expire), front first. Read-only
    /// inspection for the invariant oracle.
    pub fn iter_slots(&self) -> impl Iterator<Item = (&Flit, bool)> {
        self.slots
            .iter()
            .map(|s| (&s.flit, s.state == SlotState::Held))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        Flit::new(
            PacketId::new(9),
            seq,
            kind,
            Header::new(NodeId::new(0), NodeId::new(7)),
            seq as u16,
            0,
        )
    }

    #[test]
    fn copies_expire_after_the_nack_round_trip() {
        let mut buf = RetransmissionBuffer::new(3);
        buf.record_transmission(flit(0), 100);
        buf.expire(101);
        assert_eq!(buf.occupancy(), 1);
        buf.expire(102);
        assert_eq!(buf.occupancy(), 1);
        buf.expire(103);
        assert_eq!(buf.occupancy(), 0);
    }

    #[test]
    fn window_holds_exactly_depth_flits_at_full_rate() {
        let mut buf = RetransmissionBuffer::new(3);
        for t in 0..10u64 {
            buf.expire(t);
            buf.record_transmission(flit((t % 4) as u8), t);
            assert!(buf.occupancy() <= 3);
        }
        assert_eq!(buf.occupancy(), 3);
    }

    #[test]
    fn nack_replays_contents_oldest_first() {
        let mut buf = RetransmissionBuffer::new(3);
        for t in 0..3u64 {
            buf.expire(t);
            buf.record_transmission(flit(t as u8), t);
        }
        // NACK arrives at cycle 3, targeting the flit sent at cycle 0.
        buf.on_nack(3);
        assert!(buf.is_replaying());
        let r0 = buf.next_replay(3).unwrap();
        let r1 = buf.next_replay(4).unwrap();
        let r2 = buf.next_replay(5).unwrap();
        assert_eq!([r0.seq, r1.seq, r2.seq], [0, 1, 2]);
        assert!(!buf.is_replaying());
        assert_eq!(buf.next_replay(6), None);
        assert_eq!(buf.replayed_count(), 3);
        // Replayed copies are re-protected and expire on their own clock.
        assert_eq!(buf.occupancy(), 3);
        buf.expire(6);
        assert_eq!(buf.occupancy(), 2); // copy re-sent at 3 expired
        buf.expire(8);
        assert_eq!(buf.occupancy(), 0);
    }

    #[test]
    fn replay_marks_retransmission_count() {
        let mut buf = RetransmissionBuffer::new(3);
        buf.record_transmission(flit(0), 0);
        buf.on_nack(3);
        let replayed = buf.next_replay(3).unwrap();
        assert_eq!(replayed.retransmissions, 1);
        // The replayed copy is corrupted again: a second NACK replays it.
        buf.on_nack(6);
        let replayed = buf.next_replay(6).unwrap();
        assert_eq!(replayed.retransmissions, 2);
    }

    #[test]
    fn pending_replay_copies_never_expire() {
        let mut buf = RetransmissionBuffer::new(3);
        for t in 0..3u64 {
            buf.expire(t);
            buf.record_transmission(flit(t as u8), t);
        }
        buf.on_nack(3);
        // Even far in the future, pending contents survive until replayed.
        buf.expire(100);
        assert_eq!(buf.occupancy(), 3);
        assert!(buf.next_replay(100).is_some());
    }

    #[test]
    fn nack_does_not_rearm_expired_window_copies() {
        // A copy whose NACK deadline passed was accepted downstream;
        // a later NACK (for a newer flit) must not replay it — the
        // receiver's drop window no longer protects against the
        // duplicate.
        let mut buf = RetransmissionBuffer::new(6);
        buf.record_transmission(flit(0), 0); // accepted (no NACK by 3)
        buf.record_transmission(flit(1), 4); // corrupted on the link
        buf.on_nack(7); // NACK for the flit sent at cycle 4
        let replayed = buf.next_replay(7).unwrap();
        assert_eq!(replayed.seq, 1, "only the in-window copy replays");
        assert!(!buf.is_replaying());
    }

    #[test]
    fn second_nack_mid_burst_skips_already_replayed_copies() {
        // Replay in progress: the copy replayed at cycle 3 is accepted
        // downstream (its fresh window closes at 6). A second NACK at
        // cycle 8 — for the copy re-sent at 5 — must replay only
        // in-window copies, not re-deliver the accepted one.
        let mut buf = RetransmissionBuffer::new(6);
        for t in 0..3u64 {
            buf.expire(t);
            buf.record_transmission(flit(t as u8), t);
        }
        buf.on_nack(3);
        assert_eq!(buf.next_replay(3).unwrap().seq, 0);
        assert_eq!(buf.next_replay(4).unwrap().seq, 1);
        assert_eq!(buf.next_replay(5).unwrap().seq, 2);
        // NACKs are drained before expiry, so the copies re-sent at 3
        // and 4 are still present — but outside their windows (closed
        // at 6 and 7), so they must not re-arm.
        buf.on_nack(8);
        let replayed = buf.next_replay(8).unwrap();
        assert_eq!(replayed.seq, 2, "accepted copies stay retired");
        assert!(!buf.is_replaying());
    }

    #[test]
    fn absorb_and_send_held_rotate_like_figure_10() {
        let mut buf = RetransmissionBuffer::new(3);
        // Deadlocked node: buffer idle/empty, absorb 3 flits.
        assert!(buf.absorb(flit(1)));
        assert!(buf.absorb(flit(2)));
        assert!(buf.absorb(flit(3)));
        assert!(!buf.absorb(flit(0)), "full buffer rejects absorption");
        assert_eq!(buf.held_count(), 3);

        // Space opens downstream: send held flits one per cycle.
        let s1 = buf.send_held(10, true).unwrap();
        assert_eq!(s1.seq, 1);
        assert_eq!(buf.held_count(), 2);
        assert_eq!(buf.occupancy(), 3, "sent copy rotates to the back");
        let s2 = buf.send_held(11, true).unwrap();
        assert_eq!(s2.seq, 2);
        let s3 = buf.send_held(12, true).unwrap();
        assert_eq!(s3.seq, 3);
        assert_eq!(buf.held_count(), 0);
        assert_eq!(buf.send_held(13, true), None);

        // Three cycles later the buffer is empty again (Figure 10 step 7).
        buf.expire(15);
        assert_eq!(buf.occupancy(), 0);
    }

    #[test]
    fn held_flits_do_not_expire() {
        let mut buf = RetransmissionBuffer::new(3);
        buf.absorb(flit(1));
        buf.expire(1_000_000);
        assert_eq!(buf.occupancy(), 1);
    }

    #[test]
    fn held_behind_sent_becomes_front_after_expiry() {
        let mut buf = RetransmissionBuffer::new(3);
        buf.record_transmission(flit(0), 5);
        buf.absorb(flit(1));
        // Held flit is not at the front yet.
        assert!(buf.front_held().is_none());
        assert_eq!(buf.send_held(6, true), None);
        buf.expire(8); // sent copy expires
        assert_eq!(buf.front_held().map(|f| f.seq), Some(1));
        assert!(buf.send_held(8, true).is_some());
    }

    #[test]
    fn held_send_without_a_copy_frees_its_slot() {
        let mut buf = RetransmissionBuffer::new(3);
        buf.absorb(flit(1));
        buf.absorb(flit(2));
        assert_eq!(buf.send_held(10, false).map(|f| f.seq), Some(1));
        assert_eq!(buf.occupancy(), 1, "no sent copy stays behind");
        assert_eq!(buf.held_count(), 1);
        assert_eq!(buf.send_held(11, false).map(|f| f.seq), Some(2));
        assert!(buf.is_empty());
        assert!(buf.absorb(flit(3)), "the freed slots take new flits");
    }

    #[test]
    fn deadlines_follow_each_copy_through_nack_replay_and_recovery() {
        let mut buf = RetransmissionBuffer::new(4);
        buf.record_transmission(flit(0), 10);
        assert!(
            buf.deadlines().eq([13]),
            "a sent copy is due a round trip later"
        );
        buf.on_nack(12);
        assert_eq!(buf.deadlines().count(), 0, "a pending copy has no deadline");
        assert!(buf.next_replay(14).is_some());
        assert!(buf.deadlines().eq([17]), "a replay restarts the window");
        assert!(buf.absorb(flit(1)));
        assert!(buf.deadlines().eq([17]), "a held slot has no deadline");
        buf.expire(17);
        assert!(buf.send_held(18, true).is_some());
        assert!(
            buf.deadlines().eq([21]),
            "a kept copy of a held send is due"
        );
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut buf = RetransmissionBuffer::new(3);
        for t in 0..4u64 {
            buf.record_transmission(flit(0), t); // no expire() calls
        }
    }
}
