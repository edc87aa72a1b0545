//! Structured, read-only state snapshots of the whole network at a
//! commit boundary — the inspection surface consumed by the
//! `ftnoc-check` invariant oracle.
//!
//! A [`NetSnapshot`] is a plain-data copy of the run *state* the oracle
//! reads at the end of a cycle: every input VC buffer (flits, state),
//! every output port (credits, reservations, ST queue,
//! retransmission-sender slots), every link wire (flits, credits and
//! NACKs in flight), every processing element (queued and partially
//! injected packets), the per-node probe/recovery state and the fault
//! tables, ledger and log. It carries state only: what the run's
//! [`crate::SimConfig`] already fixes (scheme, router radix, VC count,
//! buffer depth and organisation, the neighbour table) the oracle takes
//! from the configuration it is built from.
//!
//! Snapshots are built **only on demand**: a run that never asks for one
//! pays nothing, which is what makes the oracle zero-cost when disabled.
//! There is one builder and it refills: [`crate::Network::snapshot_into`]
//! overwrites every field of the caller's snapshot and clears and
//! re-extends every nested `Vec`, so `out` comes back equal to a fresh
//! [`crate::Network::snapshot`] whatever it held before — an earlier
//! cycle, a larger, smaller or faulted network — and a per-cycle checker
//! that holds one snapshot for a whole run stops allocating once its
//! buffers have reached their high-water marks.
//! `snapshot()` is `default()` plus one refill. Both only read — no RNG
//! draws, no mutation — so taking snapshots cannot perturb the simulation
//! (oracle-on runs stay byte-identical to oracle-off runs).

use ftnoc_fault::FaultEvent;
use ftnoc_types::flit::Flit;
use ftnoc_types::packet::PacketId;

use crate::router::BlockedVcSummary;

/// Mirror of the private wormhole VC state machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum VcStateView {
    /// No packet in flight on this VC.
    #[default]
    Idle,
    /// Head waiting for VC allocation.
    VaWait,
    /// Wormhole open toward `(out_port, out_vc)`.
    Active {
        /// Allocated output port index.
        out_port: usize,
        /// Allocated output VC index (may be out of range after an
        /// uncaught VA upset — that is what the oracle checks).
        out_vc: usize,
    },
}

/// One input virtual channel: buffer contents plus control state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InputVcView {
    /// Buffered flits, front (oldest) first.
    pub flits: Vec<Flit>,
    /// Wormhole state.
    pub state: VcStateView,
}

/// One per-VC retransmission sender on an output port.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SenderView {
    /// Buffered flit copies, front (oldest) first, with the held flag
    /// (`true` = recovery-absorbed slot that never expires).
    pub slots: Vec<(Flit, bool)>,
    /// Whether a NACK-triggered replay burst is in progress.
    pub replaying: bool,
}

/// One output VC of an output port.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputVcView {
    /// Sender-side credits left for the downstream VC (initially the
    /// port capacity's `per_vc`).
    pub credits: u32,
    /// The input VC holding this output VC's wormhole reservation.
    pub allocated: Option<(usize, usize)>,
    /// The cycle the current reservation was granted (`None` when
    /// `allocated` is `None`). The dead-port invariant compares this
    /// against the link's death cycle: reservations granted strictly
    /// before the death may drain, later ones are a routing bug.
    pub allocated_at: Option<u64>,
    /// The HBH retransmission sender.
    pub sender: SenderView,
}

/// A switch-granted flit waiting in the switch-traversal queue.
#[derive(Debug, Clone, PartialEq)]
pub struct StEntryView {
    /// The flit.
    pub flit: Flit,
    /// Output VC it will be tagged with.
    pub out_vc: u8,
}

/// One output port.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputPortView {
    /// Whether the link exists (mesh edges lack some).
    pub exists: bool,
    /// Per-VC state.
    pub vcs: Vec<OutputVcView>,
    /// The switch-traversal queue, front first.
    pub st_queue: Vec<StEntryView>,
}

/// One router at a commit boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterSnapshot {
    /// Whether the router has been killed by a whole-router fault. A
    /// dead router is structurally empty (the death purge drained it)
    /// and never computes again.
    pub dead: bool,
    /// Whether the node is in deadlock-recovery mode.
    pub in_recovery: bool,
    /// Deadlocks confirmed by this node's own probes (cumulative).
    pub deadlocks_confirmed: u64,
    /// `inputs[port][vc]` input VC views.
    pub inputs: Vec<Vec<InputVcView>>,
    /// `outputs[port]` output port views.
    pub outputs: Vec<OutputPortView>,
    /// Channel-wait edges as the probe chase sees them: one row per
    /// input VC that is blocked or has an onward edge, in (port, VC)
    /// order. The other VCs are left out because a probe can neither
    /// launch from nor pass through them.
    pub wait_edges: Vec<BlockedVcSummary>,
}

/// Link wires owned by one router (receiver side).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireSnapshot {
    /// `flit_in[p]`: the flit in flight toward arrival port `p`, as
    /// `(flit, vc, deliver_at)`.
    pub flit_in: [Option<(Flit, u8, u64)>; 4],
    /// `credits_in[d]`: credits in flight back for the link leaving in
    /// direction `d`, as `(vc, visible_at)`.
    pub credits_in: [Vec<(u8, u64)>; 4],
    /// `nacks_in[d]`: NACKs in flight back for the link leaving in
    /// direction `d`, as `(vc, visible_at)`.
    pub nacks_in: [Vec<(u8, u64)>; 4],
}

/// One processing element (traffic endpoint).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeSnapshot {
    /// Packets queued at the source: `(id, flit count)`. Their flits
    /// have not entered the network yet.
    pub queued: Vec<(PacketId, usize)>,
    /// Remaining flits of the packet currently entering the network
    /// (front next).
    pub injecting: Vec<Flit>,
}

/// The whole network at a commit boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetSnapshot {
    /// The cycle that just committed (snapshots are taken after
    /// `step()`, so state reflects the end of cycle `now - 1`).
    pub now: u64,
    /// The network's fault table as of the snapshot cycle: every
    /// directed dead link endpoint as `(node, dir, since)` where
    /// `since` is the cycle the death became locally detectable (0 for
    /// static base faults). Sorted by `(node, dir, since)`. The oracle
    /// both validates this table against the run configuration and
    /// arms the dead-port allocation invariant with it.
    pub dead_ports: Vec<(usize, usize, u64)>,
    /// Flits lost to whole-router deaths since construction. The
    /// conservation oracle closes the ledger against the per-packet
    /// masks in [`NetSnapshot::lost`].
    pub flits_lost: u64,
    /// The loss ledger: per-packet bitmask of lost flit sequence
    /// numbers, `(raw packet id, mask)` sorted by id.
    pub lost: Vec<(u64, u128)>,
    /// Every dead router as of the snapshot cycle, `(node, since)`
    /// sorted by node (0 for routers dead from reset).
    pub dead_routers: Vec<(usize, u64)>,
    /// Every mid-run fault event of the run, realized or still
    /// scheduled, in time order — the timeline's
    /// [`ftnoc_fault::FaultTimeline::events`] as it stands (the oracle
    /// validates wear-out entries against the configuration and folds
    /// realized ones into its fault-table mirror).
    pub fault_events: Vec<FaultEvent>,
    /// Per-router state.
    pub routers: Vec<RouterSnapshot>,
    /// Per-router receiver-owned wires.
    pub wires: Vec<WireSnapshot>,
    /// Per-node traffic endpoints.
    pub pes: Vec<PeSnapshot>,
    /// `computed[n]`: whether router `n`'s compute phase ran during the
    /// cycle this snapshot reflects (`now - 1`). All-true when activity
    /// gating is disabled; under gating a `false` entry asserts the
    /// router was provably quiescent — which the oracle cross-checks
    /// against the structural state above.
    pub computed: Vec<bool>,
}
