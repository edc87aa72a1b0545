//! Sender-side credit accounting, mirrored per buffer organisation.
//!
//! Credit-based flow control only works when the sender's model of the
//! downstream buffer matches its organisation:
//!
//! - **Static partition** — the classic per-VC counter, initialised to
//!   the VC's depth, decremented per flit sent, incremented per credit
//!   returned. Exact at all times.
//! - **DAMQ** — the sender tracks per-VC *outstanding* flits (sent but
//!   not yet credited) and grants a send when the VC's reservation is
//!   free (`outstanding == 0`) or shared capacity remains
//!   (`Σ_v max(outstanding(v) − 1, 0) < pool − vcs`). Because
//!   outstanding counts flits and credits still in flight as if they
//!   occupied the pool, the view is *conservative*: the sender may
//!   briefly under-use shared slots but can never oversubscribe them,
//!   so `push` downstream cannot fail.
//!
//! The local (PE) output port bypasses credit flow entirely — ejection
//! consumes flits immediately — which [`CreditLedger::unbounded`]
//! models with the pre-refactor half-`u32::MAX` counters.

use ftnoc_types::config::BufferOrg;

/// Sender-side mirror of one output port's downstream input buffer.
#[derive(Debug, Clone)]
pub enum CreditLedger {
    /// Per-VC credit counters (static partition and the local port).
    Static {
        /// Remaining credits per VC.
        credits: Vec<u32>,
        /// Initial per-VC credit grant (for quiescence checks).
        init: u32,
    },
    /// Per-port shared-pool accounting (DAMQ downstream).
    Damq {
        /// Flits sent on each VC and not yet credited back.
        outstanding: Vec<u32>,
        /// Shared slots beyond the per-VC reservations (`pool − vcs`).
        shared_cap: u32,
    },
}

impl CreditLedger {
    /// Ledger for a cardinal output port feeding a downstream input
    /// port organised as `org`.
    pub fn for_org(org: BufferOrg, vcs: usize, buffer_depth: usize) -> Self {
        match org {
            BufferOrg::StaticPartition => CreditLedger::Static {
                credits: vec![buffer_depth as u32; vcs],
                init: buffer_depth as u32,
            },
            BufferOrg::Damq { pool_size } => CreditLedger::Damq {
                outstanding: vec![0; vcs],
                shared_cap: (pool_size - vcs) as u32,
            },
        }
    }

    /// Ledger for the local (ejection) port: effectively infinite
    /// credits, never blocking, identical to the pre-refactor counters.
    pub fn unbounded(vcs: usize) -> Self {
        CreditLedger::Static {
            credits: vec![u32::MAX / 2; vcs],
            init: u32::MAX / 2,
        }
    }

    /// Whether one more flit may be sent on `vc` right now.
    pub fn available(&self, vc: usize) -> bool {
        match self {
            CreditLedger::Static { credits, .. } => credits[vc] > 0,
            CreditLedger::Damq {
                outstanding,
                shared_cap,
            } => {
                if outstanding[vc] == 0 {
                    return true;
                }
                let shared_used: u32 = outstanding.iter().map(|&o| o.saturating_sub(1)).sum();
                shared_used < *shared_cap
            }
        }
    }

    /// Records one flit sent on `vc` (a credit consumed).
    pub fn consume(&mut self, vc: usize) {
        match self {
            CreditLedger::Static { credits, .. } => {
                credits[vc] = credits[vc].saturating_sub(1);
            }
            CreditLedger::Damq { outstanding, .. } => outstanding[vc] += 1,
        }
    }

    /// Records one credit returned for `vc` (a downstream slot freed).
    pub fn release(&mut self, vc: usize) {
        match self {
            CreditLedger::Static { credits, .. } => credits[vc] += 1,
            CreditLedger::Damq { outstanding, .. } => {
                outstanding[vc] = outstanding[vc].saturating_sub(1);
            }
        }
    }

    /// The raw per-VC counter, for snapshots: remaining
    /// credits (static) or outstanding flits (DAMQ).
    pub fn count(&self, vc: usize) -> u32 {
        match self {
            CreditLedger::Static { credits, .. } => credits[vc],
            CreditLedger::Damq { outstanding, .. } => outstanding[vc],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_ledger_counts_exactly() {
        let mut l = CreditLedger::for_org(BufferOrg::StaticPartition, 2, 3);
        assert!(l.available(0));
        for _ in 0..3 {
            l.consume(0);
        }
        assert!(!l.available(0));
        assert!(l.available(1));
        l.release(0);
        assert!(l.available(0));
        assert_eq!(l.count(0), 1);
    }

    #[test]
    fn damq_ledger_mirrors_the_reserved_slot_policy() {
        // 3 VCs over a 12-slot pool: shared capacity 9.
        let mut l = CreditLedger::for_org(BufferOrg::Damq { pool_size: 12 }, 3, 4);
        // VC 0 takes its reservation plus all shared slots.
        for _ in 0..10 {
            assert!(l.available(0));
            l.consume(0);
        }
        assert!(!l.available(0));
        // Cold VCs keep exactly their reservation.
        for vc in [1, 2] {
            assert!(l.available(vc));
            l.consume(vc);
            assert!(!l.available(vc));
        }
        // A credit from the hot VC reopens shared capacity everywhere.
        l.release(0);
        assert!(l.available(1));
        assert!(l.available(0));
    }

    #[test]
    fn unbounded_ledger_never_blocks() {
        let mut l = CreditLedger::unbounded(1);
        for _ in 0..10_000 {
            assert!(l.available(0));
            l.consume(0);
        }
    }
}
