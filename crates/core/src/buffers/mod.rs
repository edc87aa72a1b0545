//! Input-buffer storage and its sender-side credit ledger, both run by
//! one slot-sharing rule.
//!
//! The paper's platform gives each VC a private transmission FIFO
//! (Figure 3); the DAMQ (Jamali & Khademzadeh) shares one pool per
//! input port between its VCs. Both are the same rule with different
//! numbers — a [`PortCapacity`]: a per-VC cap plus a shared region that
//! every flit beyond a VC's first occupies, so each VC keeps **one
//! reserved slot** ([`RouterConfig::port_capacity`] picks the values).
//!
//! The reserved slot is what preserves the §3.2 deadlock-recovery
//! liveness argument under sharing: recovery absorbs a blocked packet
//! through its input VC, and a VC that has drained to empty can always
//! re-accept the next flit of a mid-wormhole packet — a hot neighbour
//! VC can monopolise the *shared* slots but never the reservation, so
//! no VC is starved out of the one-slot progress the recovery schedule
//! (Figure 10) relies on.
//!
//! [`PortBuffer`] applies the rule to the flits it holds;
//! [`CreditLedger`] applies it to the sender's count of credits left,
//! treating every flit not yet credited back as resident — exact for a
//! static partition, conservative (never oversending) for a DAMQ while
//! credits are in flight.
//!
//! [`RouterConfig::port_capacity`]: ftnoc_types::RouterConfig::port_capacity

mod credit;

pub use credit::CreditLedger;

use std::collections::VecDeque;

use ftnoc_types::config::PortCapacity;
use ftnoc_types::flit::Flit;

/// All flit storage of **one input port**: per-VC FIFOs under one
/// [`PortCapacity`].
///
/// Per-VC FIFO order is kept (wormhole ordering depends on it), and
/// `free_slots` reports a free slot only when a subsequent `push` to
/// that VC succeeds. `shared_used` and `occupied` are kept as counters,
/// so every operation is O(1); the methods are `#[inline]` because the
/// router calls them per flit from another crate.
#[derive(Debug, Clone)]
pub struct PortBuffer {
    queues: Vec<VecDeque<Flit>>,
    cap: PortCapacity,
    /// Flits held beyond each VC's first: `Σ_v max(len(v) − 1, 0)`.
    shared_used: usize,
    occupied: usize,
}

impl PortBuffer {
    /// An empty port of `vcs` VCs sharing slots by `cap`.
    pub fn new(vcs: usize, cap: PortCapacity) -> Self {
        // Pre-size each queue to its even share of the port, not to its
        // cap: a DAMQ VC's cap is nearly the whole pool.
        let share = cap.per_vc.min(cap.shared / vcs + 1);
        PortBuffer {
            queues: (0..vcs).map(|_| VecDeque::with_capacity(share)).collect(),
            cap,
            shared_used: 0,
            occupied: 0,
        }
    }

    /// Number of virtual channels multiplexed over this port.
    #[inline]
    pub fn vcs(&self) -> usize {
        self.queues.len()
    }

    /// Total flit slots owned by the port: one reserved per VC plus the
    /// shared region.
    #[inline]
    pub fn total_capacity(&self) -> usize {
        self.queues.len() + self.cap.shared
    }

    /// Slots `vc` could accept right now.
    #[inline]
    pub fn free_slots(&self, vc: usize) -> usize {
        self.cap.free_slots(self.queues[vc].len(), self.shared_used)
    }

    /// Appends a flit to `vc`'s queue; `false` when full.
    #[inline]
    pub fn push(&mut self, vc: usize, flit: Flit) -> bool {
        if self.free_slots(vc) == 0 {
            return false;
        }
        let queue = &mut self.queues[vc];
        self.shared_used += usize::from(!queue.is_empty());
        queue.push_back(flit);
        self.occupied += 1;
        true
    }

    /// The flit at the front of `vc`'s queue.
    #[inline]
    pub fn front(&self, vc: usize) -> Option<&Flit> {
        self.queues[vc].front()
    }

    /// Removes and returns the front flit of `vc`'s queue.
    #[inline]
    pub fn pop(&mut self, vc: usize) -> Option<Flit> {
        let queue = &mut self.queues[vc];
        let flit = queue.pop_front()?;
        self.shared_used -= usize::from(!queue.is_empty());
        self.occupied -= 1;
        Some(flit)
    }

    /// Flits currently queued on `vc`.
    #[inline]
    pub fn len(&self, vc: usize) -> usize {
        self.queues[vc].len()
    }

    /// Whether `vc`'s queue is empty.
    #[inline]
    pub fn is_empty(&self, vc: usize) -> bool {
        self.queues[vc].is_empty()
    }

    /// Flits currently resident across all VCs.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// `vc`'s queued flits, front (oldest) first.
    #[inline]
    pub fn iter(&self, vc: usize) -> impl Iterator<Item = &Flit> {
        self.queues[vc].iter()
    }
}
