//! Sender-side credit accounting under the port's slot-sharing rule.
//!
//! The ledger counts credits left per VC: initialised to the
//! downstream VC's cap, decremented per flit sent, incremented per
//! credit returned. A VC's `per_vc − credits` flits are sent and not yet
//! credited back; counting them as resident downstream, the ledger
//! grants a send exactly when [`PortCapacity::free_slots`] would over
//! that occupancy. For a static partition the shared region never binds
//! and this is the classic per-VC counter, exact at all times; for a
//! DAMQ, flits and credits still in flight count as if they held
//! shared slots, so the sender may briefly under-use the pool but never
//! oversubscribes it — `push` downstream cannot fail.
//!
//! The local (PE) output port bypasses credit flow entirely — ejection
//! consumes flits immediately — which [`CreditLedger::unbounded`]
//! models with half-`u32::MAX` counters.

use ftnoc_types::config::PortCapacity;

/// The credits each VC of an [`CreditLedger::unbounded`] ledger starts
/// with: half of `u32::MAX`, so consuming never reaches zero.
pub const UNBOUNDED_CREDITS: u32 = u32::MAX / 2;

/// Sender-side mirror of one output port's downstream input buffer.
#[derive(Debug, Clone)]
pub struct CreditLedger {
    /// Remaining credits per VC.
    credits: Vec<u32>,
    cap: PortCapacity,
    /// Outstanding flits beyond each VC's first, as in
    /// [`PortBuffer`](super::PortBuffer).
    shared_used: usize,
}

impl CreditLedger {
    /// Ledger for a cardinal output port feeding a downstream input
    /// port of `vcs` VCs sharing slots by `cap`.
    pub fn new(vcs: usize, cap: PortCapacity) -> Self {
        CreditLedger {
            credits: vec![cap.per_vc as u32; vcs],
            cap,
            shared_used: 0,
        }
    }

    /// Ledger for the local (ejection) port: effectively infinite
    /// credits ([`UNBOUNDED_CREDITS`] per VC), never blocking.
    pub fn unbounded(vcs: usize) -> Self {
        Self::new(
            vcs,
            PortCapacity::partitioned(vcs, UNBOUNDED_CREDITS as usize),
        )
    }

    /// Flits sent on `vc` and not yet credited back.
    #[inline]
    fn outstanding(&self, vc: usize) -> usize {
        self.cap.per_vc.saturating_sub(self.credits[vc] as usize)
    }

    /// Whether one more flit may be sent on `vc` right now.
    #[inline]
    pub fn available(&self, vc: usize) -> bool {
        self.cap.free_slots(self.outstanding(vc), self.shared_used) > 0
    }

    /// Records one flit sent on `vc` (a credit consumed).
    #[inline]
    pub fn consume(&mut self, vc: usize) {
        self.set(vc, self.credits[vc].saturating_sub(1));
    }

    /// Records one credit returned for `vc` (a downstream slot freed).
    #[inline]
    pub fn release(&mut self, vc: usize) {
        self.set(vc, self.credits[vc] + 1);
    }

    #[inline]
    fn set(&mut self, vc: usize, credits: u32) {
        self.shared_used -= self.outstanding(vc).saturating_sub(1);
        self.credits[vc] = credits;
        self.shared_used += self.outstanding(vc).saturating_sub(1);
    }

    /// Credits left on `vc`, for snapshots.
    pub fn count(&self, vc: usize) -> u32 {
        self.credits[vc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_ledger_never_blocks() {
        let mut l = CreditLedger::unbounded(1);
        for _ in 0..10_000 {
            assert!(l.available(0));
            l.consume(0);
        }
    }
}
