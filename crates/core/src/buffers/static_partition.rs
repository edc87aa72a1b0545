//! Statically-partitioned per-VC input buffering (the paper's
//! platform): each VC owns a private [`TransmissionFifo`] of
//! `buffer_depth` flits. Capacity idle on a cold VC is invisible to a
//! hot one — the inefficiency DAMQ targets — but allocation is trivial
//! and per-VC credit counters model it exactly.

use ftnoc_types::flit::Flit;

use crate::retransmission::TransmissionFifo;

/// One private FIFO per VC. Bit-for-bit the pre-refactor behaviour:
/// push/pop/front delegate straight to the per-VC [`TransmissionFifo`].
#[derive(Debug, Clone)]
pub struct StaticPartitionBuffer {
    fifos: Vec<TransmissionFifo>,
    depth: usize,
}

impl StaticPartitionBuffer {
    /// `vcs` FIFOs of `depth` flits each.
    pub(super) fn new(vcs: usize, depth: usize) -> Self {
        StaticPartitionBuffer {
            fifos: (0..vcs).map(|_| TransmissionFifo::new(depth)).collect(),
            depth,
        }
    }

    pub(super) fn vcs(&self) -> usize {
        self.fifos.len()
    }

    pub(super) fn total_capacity(&self) -> usize {
        self.fifos.len() * self.depth
    }

    pub(super) fn vc_capacity(&self, _vc: usize) -> usize {
        self.depth
    }

    pub(super) fn free_slots(&self, vc: usize) -> usize {
        self.fifos[vc].free_slots()
    }

    pub(super) fn push(&mut self, vc: usize, flit: Flit) -> bool {
        self.fifos[vc].push(flit)
    }

    pub(super) fn front(&self, vc: usize) -> Option<&Flit> {
        self.fifos[vc].front()
    }

    pub(super) fn pop(&mut self, vc: usize) -> Option<Flit> {
        self.fifos[vc].pop()
    }

    pub(super) fn len(&self, vc: usize) -> usize {
        self.fifos[vc].len()
    }

    pub(super) fn occupied(&self) -> usize {
        self.fifos.iter().map(TransmissionFifo::len).sum()
    }

    pub(super) fn extend_flits(&self, vc: usize, out: &mut Vec<Flit>) {
        out.extend(self.fifos[vc].iter().copied());
    }
}
