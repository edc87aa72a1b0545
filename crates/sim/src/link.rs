//! Inter-router wires: the forward flit wire plus the reverse credit
//! and NACK side-bands, stored **receiver-side** so the two-phase cycle
//! engine can hand every router exclusive ownership of the state it
//! reads during its compute phase.
//!
//! Timing contract (§3.1):
//!
//! - a flit driven at cycle `t` is delivered (and error-checked) at `t+1`;
//! - a credit released at cycle `t` is visible to the sender at `t+1`;
//! - a NACK raised at check-cycle `c` is acted on by the sender at `c+2`
//!   (one cycle of wire propagation, processed at the start of the next
//!   cycle) — which makes the replayed flit re-arrive exactly 3 cycles
//!   after the corrupted one, Figure 4's schedule.
//!
//! The handshake side-bands (credits, NACK strobes) are TMR-protected per
//! §4.6; [`RevWire::pop_nack`] routes each strobe through a voter so
//! injected handshake upsets are masked (and counted).
//!
//! Ownership layout: a directed link `n --d--> m` is split into the
//! forward [`FlitWire`] owned by the **downstream** router `m` (indexed
//! by its arrival port `d.opposite()`) and the reverse [`RevWire`] owned
//! by the **upstream** router `n` (indexed by its outgoing direction
//! `d`). The commit phase is the only writer of another router's wires;
//! the compute phase only ever pops its own — that split is what makes
//! a router's cycle independent of which other routers were computed.

use std::collections::VecDeque;

use ftnoc_ecc::tmr::TmrLine;
use ftnoc_types::flit::Flit;

/// The forward half of a directed link: at most one flit in flight.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlitWire {
    /// The flit in flight, with its VC tag and delivery cycle.
    in_flight: Option<(Flit, u8, u64)>,
}

impl FlitWire {
    /// Creates an idle wire.
    pub(crate) fn new() -> Self {
        FlitWire::default()
    }

    /// Whether the wire is free (nothing queued for delivery).
    pub(crate) fn forward_free(&self) -> bool {
        self.in_flight.is_none()
    }

    /// Drives a flit onto the wire at cycle `now`; it is delivered at
    /// `now + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the wire is already carrying a flit — the ST stage must
    /// arbitrate one flit per port per cycle.
    pub(crate) fn send_flit(&mut self, flit: Flit, vc: u8, now: u64) {
        assert!(
            self.in_flight.is_none(),
            "link driven twice in one cycle at {now}"
        );
        self.in_flight = Some((flit, vc, now + 1));
    }

    /// Read-only view of the flit in flight: `(flit, vc, deliver_at)`.
    /// Inspection hook for the invariant oracle; never consumes.
    pub(crate) fn peek(&self) -> Option<(Flit, u8, u64)> {
        self.in_flight
    }

    /// Removes the in-flight flit when it matches `pred`, regardless of
    /// its delivery cycle. Whole-router fault purges use this: a flit
    /// en route toward (or belonging to a wormhole amputated by) a dead
    /// router is physically lost on the wire.
    pub(crate) fn purge_if(&mut self, pred: impl FnOnce(&Flit) -> bool) -> Option<(Flit, u8)> {
        match self.in_flight {
            Some((flit, vc, _)) if pred(&flit) => {
                self.in_flight = None;
                Some((flit, vc))
            }
            _ => None,
        }
    }

    /// Takes the flit due for delivery at cycle `now`, if any.
    #[inline]
    pub(crate) fn deliver_flit(&mut self, now: u64) -> Option<(Flit, u8)> {
        match self.in_flight {
            Some((flit, vc, at)) if at <= now => {
                self.in_flight = None;
                Some((flit, vc))
            }
            _ => None,
        }
    }
}

/// The reverse side-band of a directed link (owned by the sender):
/// credits and NACK strobes flowing back from the downstream router.
#[derive(Debug, Clone, Default)]
pub(crate) struct RevWire {
    /// Credits in flight: (vc, visible_at).
    credits: VecDeque<(u8, u64)>,
    /// NACKs in flight: (vc, visible_at).
    nacks: VecDeque<(u8, u64)>,
}

impl RevWire {
    /// Creates an idle side-band.
    pub(crate) fn new() -> Self {
        RevWire::default()
    }

    /// Releases one credit for `vc` at cycle `now` (visible `now + 1`).
    pub(crate) fn send_credit(&mut self, vc: u8, now: u64) {
        self.credits.push_back((vc, now + 1));
    }

    /// Pops the next credit visible at cycle `now`, in arrival order.
    /// Allocation-free: callers drain with `while let`.
    #[inline]
    pub(crate) fn pop_credit(&mut self, now: u64) -> Option<u8> {
        match self.credits.front() {
            Some(&(vc, at)) if at <= now => {
                self.credits.pop_front();
                Some(vc)
            }
            _ => None,
        }
    }

    /// Raises a NACK for `vc` at check-cycle `now` (acted on at
    /// `now + 2`).
    pub(crate) fn send_nack(&mut self, vc: u8, now: u64) {
        self.nacks.push_back((vc, now + 2));
    }

    /// Whether a NACK strobe is due at cycle `now` (the sender samples
    /// the side-band — and draws its handshake-upset fault — only when
    /// a strobe is actually asserted; an idle side-band consumes no
    /// fault draws, which keeps skipped cycles free of RNG traffic).
    #[inline]
    pub(crate) fn nack_due(&self, now: u64) -> bool {
        self.nacks.front().is_some_and(|&(_, at)| at <= now)
    }

    /// Pops the next NACK visible at cycle `now`, passing the strobe
    /// through a TMR voter. `upset` flips one replica (the §4.6
    /// handshake-fault model); the voter masks it.
    ///
    /// Returns `(vc, masked)` where `masked` says an upset was observed
    /// and outvoted. The voted strobe is always still asserted, so the
    /// NACK itself survives.
    #[inline]
    pub(crate) fn pop_nack(&mut self, now: u64, upset: bool) -> Option<(u8, bool)> {
        match self.nacks.front() {
            Some(&(vc, at)) if at <= now => {
                self.nacks.pop_front();
                let mut line = TmrLine::new(true);
                if upset {
                    line.upset(1);
                }
                let masked = line.has_disagreement();
                debug_assert!(line.read(), "TMR must outvote a single upset");
                Some((vc, masked))
            }
            _ => None,
        }
    }

    /// Read-only view of the credits in flight: `(vc, visible_at)` in
    /// arrival order. Inspection hook for the invariant oracle.
    pub(crate) fn pending_credits(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.credits.iter().copied()
    }

    /// Read-only view of the NACKs in flight: `(vc, visible_at)` in
    /// arrival order. Inspection hook for the invariant oracle.
    pub(crate) fn pending_nacks(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.nacks.iter().copied()
    }

    /// Whether any reverse-channel activity is pending (for tests).
    pub(crate) fn reverse_idle(&self) -> bool {
        self.credits.is_empty() && self.nacks.is_empty()
    }

    /// Drops every pending credit and NACK: the link's other endpoint
    /// died with these signals mid-wire, so they never arrive. Credits
    /// lost this way are a deliberate ledger leak (the oracle's exact
    /// credit check disarms once a run can lose flits).
    pub(crate) fn clear(&mut self) {
        self.credits.clear();
        self.nacks.clear();
    }
}

/// A router's receiver-side link state: one inbound [`FlitWire`] per
/// arrival port and one [`RevWire`] per outgoing direction. Entries are
/// `None` where the topology has no link (mesh edges).
#[derive(Debug, Default)]
pub(crate) struct PortIo {
    /// `flit_in[p]`: the forward wire arriving on cardinal port `p`.
    pub(crate) flit_in: [Option<FlitWire>; 4],
    /// `rev_in[d]`: credits/NACKs returning for the link leaving in
    /// cardinal direction `d`.
    pub(crate) rev_in: [Option<RevWire>; 4],
}

impl PortIo {
    /// Builds the wire set for a router whose cardinal links are
    /// `exists[d]` (links are bidirectional, so the arrival wire and the
    /// reverse side-band share the existence mask).
    pub(crate) fn new(exists: [bool; 4]) -> Self {
        let mut io = PortIo::default();
        for (d, &present) in exists.iter().enumerate() {
            if present {
                io.flit_in[d] = Some(FlitWire::new());
                io.rev_in[d] = Some(RevWire::new());
            }
        }
        io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::flit::FlitKind;
    use ftnoc_types::geom::NodeId;
    use ftnoc_types::packet::PacketId;
    use ftnoc_types::Header;

    fn flit() -> Flit {
        Flit::new(
            PacketId::new(1),
            0,
            FlitKind::Head,
            Header::new(NodeId::new(0), NodeId::new(1)),
            0,
            0,
        )
    }

    #[test]
    fn flit_takes_one_cycle() {
        let mut w = FlitWire::new();
        w.send_flit(flit(), 2, 10);
        assert!(w.deliver_flit(10).is_none());
        let (f, vc) = w.deliver_flit(11).unwrap();
        assert_eq!(f.seq, 0);
        assert_eq!(vc, 2);
        assert!(w.deliver_flit(12).is_none());
    }

    #[test]
    #[should_panic(expected = "driven twice")]
    fn double_drive_panics() {
        let mut w = FlitWire::new();
        w.send_flit(flit(), 0, 5);
        w.send_flit(flit(), 1, 5);
    }

    #[test]
    fn credits_take_one_cycle_and_batch() {
        let mut w = RevWire::new();
        w.send_credit(0, 10);
        w.send_credit(1, 10);
        assert!(w.pop_credit(10).is_none());
        assert_eq!(w.pop_credit(11), Some(0));
        assert_eq!(w.pop_credit(11), Some(1));
        assert!(w.pop_credit(11).is_none());
        assert!(w.pop_credit(12).is_none());
    }

    #[test]
    fn nack_arrives_two_cycles_after_check() {
        let mut w = RevWire::new();
        w.send_nack(1, 7);
        assert!(w.pop_nack(8, false).is_none());
        assert_eq!(w.pop_nack(9, false), Some((1, false)));
        assert!(w.pop_nack(9, false).is_none());
    }

    #[test]
    fn handshake_upset_is_masked_by_tmr() {
        let mut w = RevWire::new();
        w.send_nack(2, 0);
        let (vc, masked) = w.pop_nack(2, true).unwrap();
        assert_eq!(vc, 2, "voted strobe still asserted");
        assert!(masked, "the upset was observed and outvoted");
    }

    #[test]
    fn reverse_idle_tracks_queues() {
        let mut w = RevWire::new();
        assert!(w.reverse_idle());
        w.send_credit(0, 0);
        assert!(!w.reverse_idle());
        let _ = w.pop_credit(1);
        assert!(w.reverse_idle());
    }

    #[test]
    fn port_io_mirrors_topology() {
        let io = PortIo::new([true, false, true, false]);
        assert!(io.flit_in[0].is_some() && io.rev_in[0].is_some());
        assert!(io.flit_in[1].is_none() && io.rev_in[1].is_none());
    }
}
