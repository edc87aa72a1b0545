//! Pluggable input-buffer organisations and their credit-flow ledgers.
//!
//! The paper's platform statically partitions each input port into
//! per-VC transmission FIFOs with per-VC credit counters. This module
//! makes that choice explicit: [`PortBuffer`] is the one buffer type the
//! router holds, an enum over two organisations private to this module:
//!
//! - the static partition — bit-for-bit the original behaviour: one
//!   [`TransmissionFifo`](crate::TransmissionFifo) of `buffer_depth`
//!   flits per VC.
//! - the DAMQ — a dynamically-allocated multi-queue (Jamali &
//!   Khademzadeh): one shared flit pool per input port with per-VC
//!   logical queues threaded through a linked free-list, and **one
//!   reserved slot per VC** so an empty VC can always accept a header.
//!
//! The reserved slot is what preserves the §3.2 deadlock-recovery
//! liveness argument under sharing: recovery absorbs a blocked packet
//! through its input VC, and a VC that has drained to empty can always
//! re-accept the next flit of a mid-wormhole packet — a hot neighbour
//! VC can monopolise the *shared* slots but never the reservation, so
//! no VC is starved out of the one-slot progress the recovery schedule
//! (Figure 10) relies on.
//!
//! The sender side mirrors the receiver with a [`CreditLedger`]:
//! per-VC counters for the static partition, a per-port
//! outstanding-flit pool for DAMQ. Both sides round-trip through the
//! same credit wires, so the split keeps the flow control exact for
//! static partitions and *conservative* (never oversending) for DAMQ
//! while credits are in flight.

mod credit;
mod damq;
mod static_partition;

pub use credit::CreditLedger;
use damq::DamqBuffer;
use static_partition::StaticPartitionBuffer;

use ftnoc_types::config::BufferOrg;
use ftnoc_types::flit::Flit;

macro_rules! dispatch {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            PortBuffer::Static($b) => $e,
            PortBuffer::Damq($b) => $e,
        }
    };
}

/// All flit storage of **one input port**, with per-VC FIFO semantics
/// on top of it, under either organisation.
///
/// Both organisations keep per-VC FIFO order (wormhole ordering depends
/// on it) and only report a free slot when a subsequent `push` to that
/// VC is guaranteed to succeed. Enum-dispatched, so the hot path stays
/// monomorphic and `Debug`/snapshot code stays deterministic; the
/// methods are `#[inline]` because the router calls them per flit from
/// another crate (without it `sat8` measures 2 % slower).
#[derive(Debug, Clone)]
pub enum PortBuffer {
    /// Statically-partitioned per-VC FIFOs.
    Static(StaticPartitionBuffer),
    /// Shared-pool DAMQ.
    Damq(DamqBuffer),
}

impl PortBuffer {
    /// Builds the buffer for one input port under `org`.
    pub fn for_org(org: BufferOrg, vcs: usize, buffer_depth: usize) -> Self {
        match org {
            BufferOrg::StaticPartition => {
                PortBuffer::Static(StaticPartitionBuffer::new(vcs, buffer_depth))
            }
            BufferOrg::Damq { pool_size } => PortBuffer::Damq(DamqBuffer::new(vcs, pool_size)),
        }
    }

    /// Number of virtual channels multiplexed over this port.
    #[inline]
    pub fn vcs(&self) -> usize {
        dispatch!(self, b => b.vcs())
    }

    /// Total flit slots owned by the port (all VCs).
    #[inline]
    pub fn total_capacity(&self) -> usize {
        dispatch!(self, b => b.total_capacity())
    }

    /// Most flits `vc` could ever hold.
    #[inline]
    pub fn vc_capacity(&self, vc: usize) -> usize {
        dispatch!(self, b => b.vc_capacity(vc))
    }

    /// Slots `vc` could accept right now.
    #[inline]
    pub fn free_slots(&self, vc: usize) -> usize {
        dispatch!(self, b => b.free_slots(vc))
    }

    /// Appends a flit to `vc`'s logical queue; `false` when full.
    #[inline]
    pub fn push(&mut self, vc: usize, flit: Flit) -> bool {
        dispatch!(self, b => b.push(vc, flit))
    }

    /// The flit at the front of `vc`'s queue.
    #[inline]
    pub fn front(&self, vc: usize) -> Option<&Flit> {
        dispatch!(self, b => b.front(vc))
    }

    /// Removes and returns the front flit of `vc`'s queue.
    #[inline]
    pub fn pop(&mut self, vc: usize) -> Option<Flit> {
        dispatch!(self, b => b.pop(vc))
    }

    /// Flits currently queued on `vc`.
    #[inline]
    pub fn len(&self, vc: usize) -> usize {
        dispatch!(self, b => b.len(vc))
    }

    /// Whether `vc`'s queue is empty.
    #[inline]
    pub fn is_empty(&self, vc: usize) -> bool {
        self.len(vc) == 0
    }

    /// Flits currently resident across all VCs.
    #[inline]
    pub fn occupied(&self) -> usize {
        dispatch!(self, b => b.occupied())
    }

    /// Appends `vc`'s queued flits, front to back, to `out` (snapshot
    /// support — the organisations store flits in different layouts, so
    /// iteration is by copy-out rather than by slice).
    #[inline]
    pub fn extend_flits(&self, vc: usize, out: &mut Vec<Flit>) {
        dispatch!(self, b => b.extend_flits(vc, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::flit::{Flit, FlitKind, Header};
    use ftnoc_types::geom::NodeId;
    use ftnoc_types::packet::PacketId;

    fn flit(seq: u8) -> Flit {
        let header = Header::new(NodeId::new(0), NodeId::new(1));
        let mut f = Flit::new(PacketId::new(1), 0, FlitKind::Body, header, 0, 0);
        // The pool tests key on `sequence`; keep the logical view simple.
        f.seq = seq;
        f
    }

    fn orgs() -> [PortBuffer; 2] {
        [
            PortBuffer::for_org(BufferOrg::StaticPartition, 3, 4),
            PortBuffer::for_org(BufferOrg::Damq { pool_size: 12 }, 3, 4),
        ]
    }

    #[test]
    fn fifo_order_is_preserved_per_vc() {
        for mut b in orgs() {
            for vc in 0..3 {
                for seq in 0..4u8 {
                    assert!(b.push(vc, flit(seq * 3 + vc as u8)));
                }
            }
            for vc in 0..3 {
                for seq in 0..4u8 {
                    assert_eq!(b.front(vc).unwrap().seq, seq * 3 + vc as u8);
                    assert_eq!(b.pop(vc).unwrap().seq, seq * 3 + vc as u8);
                }
                assert!(b.is_empty(vc));
                assert!(b.pop(vc).is_none());
            }
        }
    }

    #[test]
    fn free_slots_never_lies() {
        // Whenever free_slots > 0 a push must succeed; whenever it is 0
        // a push must fail. Exercised over an adversarial interleaving.
        for mut b in orgs() {
            let mut lens = [0usize; 3];
            let mut n = 0u8;
            for round in 0..200 {
                let vc = round % 3;
                if round % 7 < 4 {
                    let free = b.free_slots(vc);
                    let ok = b.push(vc, flit(n));
                    n = n.wrapping_add(1);
                    assert_eq!(ok, free > 0, "push/free_slots disagree on vc {vc}");
                    if ok {
                        lens[vc] += 1;
                    }
                } else if b.pop(vc).is_some() {
                    lens[vc] -= 1;
                }
                for (vc, &len) in lens.iter().enumerate() {
                    assert_eq!(b.len(vc), len);
                }
                assert_eq!(b.occupied(), lens.iter().sum::<usize>());
                assert!(b.occupied() <= b.total_capacity());
            }
        }
    }

    #[test]
    fn snapshot_extraction_matches_queue_order() {
        for mut b in orgs() {
            for seq in 0..3u8 {
                b.push(1, flit(seq));
            }
            b.pop(1);
            b.push(1, flit(9));
            let mut out = Vec::new();
            b.extend_flits(1, &mut out);
            let seqs: Vec<u8> = out.iter().map(|f| f.seq).collect();
            assert_eq!(seqs, [1, 2, 9]);
        }
    }
}
