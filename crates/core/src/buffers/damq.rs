//! Dynamically-allocated multi-queue (DAMQ) input buffering.
//!
//! One flit pool per input port; each VC's queue is a singly-linked
//! list threaded through the pool slots, and unused slots hang off a
//! free list — the classic DAMQ organisation (Tamir & Frazier; Jamali
//! & Khademzadeh for the NoC setting). Every structural operation is
//! O(1): push takes the free-list head, pop relinks the queue head.
//!
//! # Capacity policy: one reserved slot per VC
//!
//! A pure shared pool lets one hot VC fill every slot and then starve
//! a *different* mid-wormhole packet of the single slot it needs to
//! make progress — breaking wormhole atomicity assumptions and the
//! §3.2 recovery schedule. We therefore reserve one slot per VC:
//!
//! - shared capacity `S = pool − vcs`;
//! - a VC's occupancy beyond its first flit consumes shared slots,
//!   `shared_used = Σ_v max(len(v) − 1, 0)`;
//! - `free_slots(vc) = (S − shared_used) + (1 if len(vc) == 0)`.
//!
//! The invariant `Σ_v max(len(v), 1) ≤ pool` follows: each non-empty
//! VC accounts one reserved plus its shared share, and each empty VC's
//! reservation is never handed out. So whenever `free_slots(vc) > 0`
//! there is a physical slot on the free list, and an empty VC can
//! *always* accept one flit no matter how hot its siblings run.

use ftnoc_types::flit::Flit;

/// Sentinel for "no slot" in the intrusive links.
const NIL: u32 = u32::MAX;

/// Per-VC queue endpoints.
#[derive(Debug, Clone, Copy)]
struct VcQueue {
    head: u32,
    tail: u32,
    len: u32,
}

/// Shared-pool DAMQ buffer for one input port.
#[derive(Debug, Clone)]
pub struct DamqBuffer {
    /// Pool storage; `None` only for slots on the free list.
    slots: Vec<Option<Flit>>,
    /// `next[i]` links slot `i` to its queue (or free-list) successor.
    next: Vec<u32>,
    free_head: u32,
    queues: Vec<VcQueue>,
    occupied: usize,
}

impl DamqBuffer {
    /// A `pool_size`-slot pool shared by `vcs` logical queues.
    ///
    /// # Panics
    ///
    /// Panics unless `pool_size > vcs ≥ 1` (config validation enforces
    /// this upstream; the reserved-slot policy needs one slot per VC
    /// plus shared capacity).
    pub(super) fn new(vcs: usize, pool_size: usize) -> Self {
        assert!(
            vcs >= 1 && pool_size > vcs,
            "damq pool must exceed vc count"
        );
        let mut next: Vec<u32> = (1..=pool_size as u32).collect();
        next[pool_size - 1] = NIL;
        DamqBuffer {
            slots: vec![None; pool_size],
            next,
            free_head: 0,
            queues: vec![
                VcQueue {
                    head: NIL,
                    tail: NIL,
                    len: 0,
                };
                vcs
            ],
            occupied: 0,
        }
    }

    /// Shared slots beyond the per-VC reservations.
    fn shared_capacity(&self) -> usize {
        self.slots.len() - self.queues.len()
    }

    /// Shared slots consumed (each VC's occupancy beyond its first flit).
    fn shared_used(&self) -> usize {
        self.queues
            .iter()
            .map(|q| (q.len as usize).saturating_sub(1))
            .sum()
    }

    pub(super) fn vcs(&self) -> usize {
        self.queues.len()
    }

    pub(super) fn total_capacity(&self) -> usize {
        self.slots.len()
    }

    pub(super) fn vc_capacity(&self, _vc: usize) -> usize {
        // Own reservation plus the whole shared region.
        self.slots.len() - (self.queues.len() - 1)
    }

    pub(super) fn free_slots(&self, vc: usize) -> usize {
        let shared_free = self.shared_capacity() - self.shared_used();
        let reservation = usize::from(self.queues[vc].len == 0);
        shared_free + reservation
    }

    pub(super) fn push(&mut self, vc: usize, flit: Flit) -> bool {
        if self.free_slots(vc) == 0 {
            return false;
        }
        let slot = self.free_head;
        debug_assert_ne!(slot, NIL, "reserved-slot invariant violated");
        self.free_head = self.next[slot as usize];
        self.slots[slot as usize] = Some(flit);
        self.next[slot as usize] = NIL;
        let q = &mut self.queues[vc];
        if q.tail == NIL {
            q.head = slot;
        } else {
            self.next[q.tail as usize] = slot;
        }
        q.tail = slot;
        q.len += 1;
        self.occupied += 1;
        true
    }

    pub(super) fn front(&self, vc: usize) -> Option<&Flit> {
        let head = self.queues[vc].head;
        if head == NIL {
            return None;
        }
        self.slots[head as usize].as_ref()
    }

    pub(super) fn pop(&mut self, vc: usize) -> Option<Flit> {
        let q = &mut self.queues[vc];
        let slot = q.head;
        if slot == NIL {
            return None;
        }
        q.head = self.next[slot as usize];
        if q.head == NIL {
            q.tail = NIL;
        }
        q.len -= 1;
        let flit = self.slots[slot as usize].take();
        self.next[slot as usize] = self.free_head;
        self.free_head = slot;
        self.occupied -= 1;
        flit
    }

    pub(super) fn len(&self, vc: usize) -> usize {
        self.queues[vc].len as usize
    }

    pub(super) fn occupied(&self) -> usize {
        self.occupied
    }

    pub(super) fn extend_flits(&self, vc: usize, out: &mut Vec<Flit>) {
        let mut slot = self.queues[vc].head;
        while slot != NIL {
            if let Some(flit) = self.slots[slot as usize] {
                out.push(flit);
            }
            slot = self.next[slot as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::flit::{FlitKind, Header};
    use ftnoc_types::geom::NodeId;
    use ftnoc_types::packet::PacketId;

    fn flit(seq: u8) -> Flit {
        let header = Header::new(NodeId::new(0), NodeId::new(1));
        let mut f = Flit::new(PacketId::new(1), 0, FlitKind::Body, header, 0, 0);
        f.seq = seq;
        f
    }

    /// A hot VC can take its reservation plus all shared slots, but the
    /// cold VCs' reservations survive and still accept one flit each.
    #[test]
    fn reserved_slots_survive_a_hot_vc() {
        let mut b = DamqBuffer::new(3, 12);
        let mut pushed = 0;
        while b.push(0, flit(pushed)) {
            pushed += 1;
        }
        // Reservation (1) + shared (12 − 3 = 9).
        assert_eq!(pushed, 10);
        assert_eq!(b.free_slots(0), 0);
        for vc in [1, 2] {
            assert_eq!(b.free_slots(vc), 1);
            assert!(b.push(vc, flit(99)));
            assert!(!b.push(vc, flit(99)));
        }
        assert_eq!(b.occupied(), 12);
    }

    /// Draining the hot VC returns slots to the shared region.
    #[test]
    fn freed_slots_are_reusable_by_any_vc() {
        let mut b = DamqBuffer::new(2, 6);
        while b.push(0, flit(0)) {}
        assert_eq!(b.len(0), 5);
        assert_eq!(b.free_slots(1), 1);
        for _ in 0..3 {
            b.pop(0);
        }
        assert_eq!(b.free_slots(1), 4); // reservation + 3 shared back
        for i in 0..4u8 {
            assert!(b.push(1, flit(i)));
        }
        assert!(!b.push(1, flit(9)));
    }

    /// With a single VC the DAMQ degenerates to a plain FIFO of the
    /// pool size (the Eq. 1 equivalence case used by tests/eq1_sizing).
    #[test]
    fn single_vc_damq_is_a_plain_fifo() {
        let mut b = DamqBuffer::new(1, 4);
        for i in 0..4u8 {
            assert_eq!(b.free_slots(0), 4 - i as usize);
            assert!(b.push(0, flit(i)));
        }
        assert!(!b.push(0, flit(9)));
        for i in 0..4u8 {
            assert_eq!(b.pop(0).unwrap().seq, i);
        }
    }
}
