//! The router's ports: per-VC input and output state with the work
//! masks every stage walks, and the port-facing edges of the cycle —
//! reverse channels, window expiry, arrival and local injection.

use std::collections::VecDeque;

use ftnoc_core::buffers::{CreditLedger, PortBuffer};
use ftnoc_core::hbh::{HbhReceiver, ReceiverVerdict};
use ftnoc_core::retransmission::{RetransmissionBuffer, NACK_ROUND_TRIP};
use ftnoc_ecc::{check_flit, FlitCheck};
use ftnoc_trace::{DropReason, TraceEvent};
use ftnoc_types::config::PortCapacity;
use ftnoc_types::flit::Flit;
use ftnoc_types::geom::{DirSet, Direction};
use ftnoc_types::packet::PacketId;

use super::va::va_row;
use super::{Ctx, Router};
use crate::arbiter::ones;
use crate::config::ErrorScheme;
use crate::link::PortIo;
use crate::stats::OccupancyHistogram;

/// Wormhole progress of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(super) enum VcState {
    /// No packet in flight on this VC.
    #[default]
    Idle,
    /// Head at the buffer front, awaiting VC allocation from `ready_at`;
    /// `candidates` is the routing function's answer (all VCs of these
    /// PCs are acceptable, preference-ordered).
    VaWait { candidates: DirSet, ready_at: u64 },
    /// Wormhole open: flits stream toward `(out_port, out_vc)`.
    /// `packet` names the wormhole's owner so a whole-router fault
    /// purge can identify amputated wormholes even when the buffer has
    /// momentarily drained (flits in flight further downstream).
    Active {
        out_port: usize,
        out_vc: usize,
        sa_ready_at: u64,
        packet: PacketId,
    },
}

/// Per-VC control state of one input virtual channel. Flit storage
/// lives in the owning [`InputPort`]'s [`PortBuffer`] — the buffer
/// organisation (static partition vs. DAMQ) is a per-port concern.
#[derive(Debug, Default)]
pub(super) struct InputVc {
    /// Written only by [`InputPort::set`].
    pub(super) state: VcState,
    receiver: HbhReceiver,
    /// The cycle the current blocked run began (meaningful only while
    /// the VC's `blocked` bit is set; read through
    /// `Router::blocked_cycles`). Written only by
    /// [`InputPort::track_blocked`].
    pub(super) blocked_since: u64,
    /// No new probe for this VC before this cycle (re-suspicion cooldown).
    pub(super) probe_cooldown_until: u64,
}

/// Sets or clears bit `v` of `mask`.
#[inline]
fn put(mask: &mut u64, v: usize, on: bool) {
    *mask = (*mask & !(1 << v)) | (u64::from(on) << v);
}

/// One input port: the organisation-owned flit storage plus per-VC
/// control state, and a bit per VC summarising that state so every
/// stage walks only the VCs with work (the buffer keeps its own
/// `nonempty` mask).
#[derive(Debug)]
pub(super) struct InputPort {
    pub(super) buffer: PortBuffer,
    pub(super) vcs: Vec<InputVc>,
    /// VCs in [`VcState::VaWait`].
    pub(super) wait: u64,
    /// VCs in [`VcState::Active`].
    pub(super) active: u64,
    /// VCs that moved a flit this cycle (cleared by `begin_cycle`).
    pub(super) progressed: u64,
    /// VCs that held flits and moved none at the last `end_cycle`.
    pub(super) blocked: u64,
}

impl InputPort {
    pub(super) fn new(vcs: usize, capacity: PortCapacity) -> Self {
        InputPort {
            buffer: PortBuffer::new(vcs, capacity),
            vcs: (0..vcs).map(|_| InputVc::default()).collect(),
            wait: 0,
            active: 0,
            progressed: 0,
            blocked: 0,
        }
    }

    /// The one writer of `VcState`, keeping `wait` and `active` in step.
    #[inline]
    pub(super) fn set(&mut self, v: usize, state: VcState) {
        put(&mut self.wait, v, matches!(state, VcState::VaWait { .. }));
        put(&mut self.active, v, matches!(state, VcState::Active { .. }));
        self.vcs[v].state = state;
    }

    /// The one writer of `blocked` and `blocked_since`: the VCs in
    /// `waiting` at cycle `now` are blocked, and a VC that was not
    /// blocked before starts its run now.
    #[inline]
    pub(super) fn track_blocked(&mut self, waiting: u64, now: u64) {
        for v in ones(waiting & !self.blocked) {
            self.vcs[v].blocked_since = now;
        }
        self.blocked = waiting;
    }

    /// Ends VC `v`'s blocked run (a purge reset its control state).
    #[inline]
    pub(super) fn unblock(&mut self, v: usize) {
        put(&mut self.blocked, v, false);
    }

    /// VCs whose front flit awaits bring-up: buffered, neither waiting
    /// for nor holding an output VC.
    #[inline]
    pub(super) fn fresh(&self) -> u64 {
        self.buffer.nonempty() & !(self.wait | self.active)
    }
}

/// A granted flit waiting for its crossbar/link cycle.
#[derive(Debug, Clone, Copy)]
pub(super) struct StEntry {
    pub(super) flit: Flit,
    pub(super) out_vc: u8,
    pub(super) execute_at: u64,
}

/// Slots of each output port's expiry wheel (`Router::due`): a copy
/// stamped at `t` is due at `t + NACK_ROUND_TRIP`, and no slot taken
/// between may alias it.
pub(super) const WHEEL: usize = 4;
const _: () = assert!(0 < NACK_ROUND_TRIP && NACK_ROUND_TRIP < WHEEL as u64);

/// One output port: per-VC retransmission buffers, the credit ledger
/// mirroring the downstream buffer organisation, wormhole reservations
/// and the switch-traversal queue, plus a bit per VC summarising the
/// reservations and the retransmission buffers.
#[derive(Debug)]
pub(super) struct OutputPort {
    pub(super) exists: bool,
    /// After any mutation of `retrans[v]`, [`OutputPort::sync`] runs.
    pub(super) retrans: Vec<RetransmissionBuffer>,
    pub(super) credits: CreditLedger,
    /// `allocated[v]` = the input VC currently owning output VC `v`.
    /// Written only by [`Router::reserve`].
    pub(super) allocated: Vec<Option<(usize, usize)>>,
    /// The cycle `allocated[v]` was last granted (meaningful only while
    /// `allocated[v]` is `Some`). The oracle's dead-port invariant
    /// compares this against the link's death cycle: a wormhole may
    /// drain over a dead wire only if it was allocated strictly before
    /// the death was detectable.
    pub(super) allocated_at: Vec<u64>,
    pub(super) st_queue: VecDeque<StEntry>,
    /// VCs whose `allocated[v]` is `Some`.
    pub(super) reserved: u64,
    /// VCs whose retransmission buffer holds a slot.
    pub(super) sending: u64,
    /// VCs whose retransmission buffer has a replay pending.
    pub(super) replaying: u64,
    /// VCs whose retransmission buffer holds recovery-absorbed flits.
    pub(super) held: u64,
}

impl OutputPort {
    pub(super) fn new(exists: bool, vcs: usize, depth: usize, credits: CreditLedger) -> Self {
        OutputPort {
            exists,
            retrans: (0..vcs).map(|_| RetransmissionBuffer::new(depth)).collect(),
            credits,
            allocated: vec![None; vcs],
            allocated_at: vec![0; vcs],
            st_queue: VecDeque::new(),
            reserved: 0,
            sending: 0,
            replaying: 0,
            held: 0,
        }
    }

    /// Refreshes `sending`, `replaying` and `held` from `retrans[v]`.
    #[inline]
    pub(super) fn sync(&mut self, v: usize) {
        let buffer = &self.retrans[v];
        put(&mut self.sending, v, !buffer.is_empty());
        put(&mut self.replaying, v, buffer.is_replaying());
        put(&mut self.held, v, buffer.held_count() > 0);
    }
}

impl Router {
    /// The one writer of the reservations: hands output VC `(op, ov)`
    /// to input VC `owner`, or frees it, keeping `reserved` and the
    /// comparator's held VA table (slot `op * vcs + ov`) in step with
    /// `allocated`.
    pub(super) fn reserve(&mut self, op: usize, ov: usize, owner: Option<(usize, usize)>) {
        let port = &mut self.outputs[op];
        put(&mut port.reserved, ov, owner.is_some());
        port.allocated[ov] = owner;
        let slot = op * self.cfg.vcs_per_port() + ov;
        match owner {
            Some((ip, iv)) => self.ac.hold(slot, va_row(ip, iv, op, ov)),
            None => self.ac.release(slot),
        }
    }

    /// Releases output VC `(op, ov)` if input VC `owner` still holds it.
    pub(super) fn release_if_owner(&mut self, op: usize, ov: usize, owner: (usize, usize)) {
        if self.outputs[op].allocated[ov] == Some(owner) {
            self.reserve(op, ov, None);
        }
    }

    /// Books the sent copy output VC `(port, v)` took at cycle `now` on
    /// the port's expiry wheel, at its deadline.
    #[inline]
    pub(super) fn stamp(&mut self, port: usize, v: usize, now: u64) {
        self.due[port][((now + NACK_ROUND_TRIP) % WHEEL as u64) as usize] |= 1 << v;
    }

    /// Reverse channels: NACKs first (they must beat window expiry),
    /// then credits. One handshake-upset draw per direction per cycle,
    /// applied to the first strobe (mirroring one wire sample) — and
    /// drawn only when a strobe is actually due, so an idle side-band
    /// leaves no RNG or fault-census footprint.
    pub(super) fn reverse_channels(&mut self, now: u64, io: &mut PortIo) {
        for d in Direction::CARDINAL {
            let Some(rw) = io.rev_in[d.index()].as_mut() else {
                continue;
            };
            let mut upset = rw.nack_due(now) && self.fi.handshake_upset();
            while let Some((vc, masked)) = rw.pop_nack(now, upset) {
                upset = false;
                self.errors.handshake_masked += u64::from(masked);
                self.handle_nack(d, vc, now);
                self.trace.emit(|| TraceEvent::ReplayTriggered {
                    port: d.index() as u8,
                    vc,
                });
            }
            while let Some(vc) = rw.pop_credit(now) {
                self.handle_credit(d, vc);
            }
        }
    }

    /// Handles a NACK arriving at cycle `now` from the downstream
    /// router on `(dir, vc)`.
    pub(super) fn handle_nack(&mut self, dir: Direction, vc: u8, now: u64) {
        let port = &mut self.outputs[dir.index()];
        port.retrans[vc as usize].on_nack(now);
        port.sync(vc as usize);
        self.errors.link_recovered_by_replay += 1;
    }

    /// Handles a returned credit from downstream.
    pub(super) fn handle_credit(&mut self, dir: Direction, vc: u8) {
        self.outputs[dir.index()].credits.release(vc as usize);
    }

    /// Expires the retransmission windows due now and clears the
    /// per-cycle outputs; runs after the reverse channels. Only the VCs
    /// whose copy was stamped `NACK_ROUND_TRIP` cycles ago are expired:
    /// exact, because a router holding a copy is never quiescent, so it
    /// computes every cycle from the stamp to the deadline.
    pub(super) fn begin_cycle(&mut self, now: u64) {
        self.ejected.clear();
        self.freed_credits.clear();
        self.drives.clear();
        self.arrival_nacks.clear();
        let slot = (now % WHEEL as u64) as usize;
        for (port, due) in self.outputs.iter_mut().zip(self.due.iter_mut()) {
            for v in ones(std::mem::take(&mut due[slot]) & port.sending) {
                port.retrans[v].expire(now);
                port.sync(v);
            }
        }
        for port in &mut self.inputs {
            port.progressed = 0;
        }
    }

    /// Arrival: delivers this cycle's flit from each inbound wire and
    /// queues a NACK upstream for every [`ReceiverVerdict::NackAndDrop`].
    pub(super) fn arrival(&mut self, ctx: &Ctx<'_>, io: &mut PortIo) {
        for d in Direction::CARDINAL {
            let Some(fw) = io.flit_in[d.index()].as_mut() else {
                continue;
            };
            let Some((flit, vc)) = fw.deliver_flit(ctx.now) else {
                continue;
            };
            if self.accept_flit(ctx, d, vc, flit) == ReceiverVerdict::NackAndDrop {
                let port = d.index() as u8;
                self.trace.emit(|| TraceEvent::NackSent { port, vc });
                self.arrival_nacks.push((d, vc));
            }
        }
    }

    /// Arrival processing for a flit delivered on input `(dir, vc)`:
    /// per-scheme error checking, then buffering unless the verdict is
    /// a drop. A flit with no free slot in its VC is dropped as an
    /// overflow whatever the verdict: only a wrong-output switch grant
    /// that no comparator caught (§4.3) sends one.
    pub(super) fn accept_flit(
        &mut self,
        ctx: &Ctx<'_>,
        dir: Direction,
        vc: u8,
        mut flit: Flit,
    ) -> ReceiverVerdict {
        let input = &mut self.inputs[dir.index()].vcs[vc as usize];
        let verdict = match ctx.config.scheme {
            ErrorScheme::Hbh => {
                self.events.ecc_check += 1;
                input.receiver.check_arrival(&mut flit, ctx.now)
            }
            // No retransmission path: an uncorrectable word is buffered
            // as it came and the destination rejects the packet.
            ErrorScheme::Fec => {
                self.events.ecc_check += 1;
                match check_flit(&mut flit) {
                    FlitCheck::Corrected => ReceiverVerdict::AcceptCorrected,
                    FlitCheck::Clean | FlitCheck::Uncorrectable => ReceiverVerdict::Accept,
                }
            }
            ErrorScheme::E2e | ErrorScheme::Unprotected => ReceiverVerdict::Accept,
        };
        let reason = match verdict {
            ReceiverVerdict::Accept => None,
            ReceiverVerdict::AcceptCorrected => {
                self.errors.link_corrected_inline += 1;
                None
            }
            ReceiverVerdict::NackAndDrop => {
                self.events.nack += 1;
                Some(DropReason::Corrupt)
            }
            ReceiverVerdict::DropInWindow => Some(DropReason::Corrupt),
        };
        let reason = reason.or_else(|| {
            let pushed = self.inputs[dir.index()].buffer.push(vc as usize, flit);
            self.events.buffer_write += u64::from(pushed);
            (!pushed).then_some(DropReason::Overflow)
        });
        let (packet, seq, port) = (flit.packet.raw(), flit.seq, dir.index() as u8);
        match reason {
            None => self.trace.emit(|| TraceEvent::FlitReceived {
                packet,
                seq,
                port,
                vc,
            }),
            Some(reason) => {
                self.errors.flits_dropped += 1;
                self.trace.emit(|| TraceEvent::FlitDropped {
                    packet,
                    seq,
                    port,
                    reason,
                });
            }
        }
        verdict
    }

    /// Free slots in VC `v` of local input `port`'s buffer (injection
    /// gate). `port` is an absolute port index (`>= 4`).
    pub fn local_free_slots(&self, port: usize, v: usize) -> usize {
        debug_assert!(port >= 4);
        self.inputs[port].buffer.free_slots(v)
    }

    /// Injects a flit from a local PE into VC `v` of local input `port`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the network must check
    /// [`Router::local_free_slots`] first.
    pub fn inject_local(&mut self, port: usize, v: usize, flit: Flit) {
        debug_assert!(port >= 4);
        let pushed = self.inputs[port].buffer.push(v, flit);
        assert!(pushed, "local injection into a full VC buffer");
        self.events.buffer_write += 1;
    }

    /// The state of VC `v` on local input `port` for the injection
    /// policy: `true` when a new packet may start on it (idle and empty).
    pub fn local_vc_idle(&self, port: usize, v: usize) -> bool {
        debug_assert!(port >= 4);
        let port = &self.inputs[port];
        (port.buffer.nonempty() | port.wait | port.active) & (1 << v) == 0
    }

    /// Occupancy sampling for Figures 8 and 9. Returns
    /// `(tx_occupied, tx_capacity, retx_occupied, retx_capacity)` over the
    /// inter-router (non-local) channels.
    pub fn sample_occupancy(&self) -> (u64, u64, u64, u64) {
        let mut sums = (0, 0, 0, 0);
        for p in 0..self.cfg.ports().min(4) {
            // Whole-port accounting (identical sums for a static
            // partition; the only meaningful granularity for a DAMQ).
            sums.0 += self.inputs[p].buffer.occupied() as u64;
            sums.1 += self.inputs[p].buffer.total_capacity() as u64;
            if self.outputs[p].exists {
                for buffer in &self.outputs[p].retrans {
                    sums.2 += buffer.occupancy() as u64;
                    sums.3 += buffer.depth() as u64;
                }
            }
        }
        sums
    }

    /// Records one fill-level sample per cardinal input port into
    /// `hist` (the per-port buffer-utilization distribution).
    pub fn record_port_occupancy(&self, hist: &mut OccupancyHistogram) {
        for p in 0..self.cfg.ports().min(4) {
            let buffer = &self.inputs[p].buffer;
            hist.record(buffer.occupied(), buffer.total_capacity());
        }
    }
}
