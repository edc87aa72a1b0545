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
//! **Layout.** Each [`RouterSnapshot`] is flat: one fixed-size row per
//! VC, port-major (`inputs[p * vcs + v]`, `outputs[p * vcs + v]`, with
//! `vcs` the run's VCs per port), and two arenas the rows hold [`Span`]s
//! of. `flits` holds every input-buffer flit in (port, VC) order,
//! followed by every ST-queue entry in port order; `slots` holds every
//! retransmission-sender slot in (port, VC) order. A router's rows thus
//! partition its arenas with no gap or overlap, and a pass over an
//! arena visits every flit the router holds there.
//!
//! Snapshots are built **only on demand**: a run that never asks for one
//! pays nothing, which is what makes the oracle zero-cost when disabled.
//! There is one builder and one rule: [`crate::Network::snapshot_into`]
//! clears and rebuilds every field of the caller's snapshot from the
//! network, never reading what it held, so `out` comes back equal to a
//! fresh [`crate::Network::snapshot`] whatever it held before — an
//! earlier cycle, a larger, smaller or faulted network — and a
//! per-cycle checker that holds one snapshot for a whole run stops
//! allocating once its buffers have reached their high-water marks.
//! `snapshot()` is `default()` plus one rebuild. Both only read — no RNG
//! draws, no mutation — so taking snapshots cannot perturb the simulation
//! (oracle-on runs stay byte-identical to oracle-off runs).
//!
//! **Live masks.** Most VCs of a router are idle at any cycle, so each
//! [`RouterSnapshot`] carries one mask per input and per output port
//! naming its live VCs, and the oracle walks those instead of every VC.
//! The invariant: bit `v` of `live_in[p]` is set exactly when row
//! `inputs[p * vcs + v]` is not [`InputRow::is_idle`], and bit `v` of
//! `live_out[p]` exactly when `outputs[p * vcs + v]` is not
//! [`OutputRow::is_idle`] against [`full_credits`]. The router
//! computes them from its own per-VC state (flits, wormhole state,
//! owner, sender, credits), never from the work masks that activity
//! gating reads, so the oracle's gating cross-check stays independent
//! of what it checks; debug builds of the oracle assert the invariant
//! on every check, so a doctored snapshot must keep its masks honest.
//! An ejection port's ledger never moves (ejection bypasses credit
//! flow), so its VCs are idle again once their packet has left.

use ftnoc_core::buffers::UNBOUNDED_CREDITS;
use ftnoc_fault::FaultEvent;
use ftnoc_types::config::RouterConfig;
use ftnoc_types::flit::Flit;

use crate::router::BlockedVcSummary;

/// The credits each VC of output port `port` starts with on a router
/// shaped `router`: the downstream VC's cap on a link port (`0..4`),
/// unbounded on an ejection port.
pub fn full_credits(router: &RouterConfig, port: usize) -> u32 {
    if port < 4 {
        router.port_capacity().per_vc as u32
    } else {
        UNBOUNDED_CREDITS
    }
}

/// A run `start..end` of one router's arena (`flits` or `slots`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Index of the first item.
    pub start: u32,
    /// Index just past the last item.
    pub end: u32,
}

impl Span {
    /// The span `start..end` (`start <= end`); the builder checks the
    /// arena with `Span::fits` once it is filled.
    #[inline]
    pub(crate) fn new(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    /// Whether every index of `arena` fits a span; checked once per
    /// arena after it is filled, so a span cut short by `Span::new`
    /// never leaves the builder.
    pub(crate) fn fits<T>(arena: &[T]) -> bool {
        u32::try_from(arena.len()).is_ok()
    }

    /// The span's items in `arena`.
    #[inline]
    pub fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..self.end as usize]
    }

    /// Number of items.
    #[inline]
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span holds no item.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// Mirror of the private wormhole VC state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// One input virtual channel: control state and buffer contents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InputRow {
    /// Wormhole state.
    pub state: VcStateView,
    /// Buffered flits, front (oldest) first, in the router's `flits`.
    pub flits: Span,
}

impl InputRow {
    /// Whether the VC is idle: no flit and no packet in flight. Exactly
    /// the rows whose live bit is clear.
    pub fn is_idle(&self) -> bool {
        self.flits.is_empty() && self.state == VcStateView::Idle
    }
}

/// One output VC and its HBH retransmission sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutputRow {
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
    /// Whether a NACK-triggered replay burst is in progress.
    pub replaying: bool,
    /// The sender's buffered flit copies, front (oldest) first, in the
    /// router's `slots`.
    pub slots: Span,
}

impl OutputRow {
    /// Whether the VC is idle: no owner, an empty sender with no replay
    /// pending, and the `full` credits its port started with. Exactly
    /// the rows whose live bit is clear.
    pub fn is_idle(&self, full: u32) -> bool {
        self.allocated.is_none()
            && self.allocated_at.is_none()
            && self.slots.is_empty()
            && !self.replaying
            && self.credits == full
    }
}

/// One output port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortRow {
    /// Whether the link exists (mesh edges lack some).
    pub exists: bool,
    /// The switch-traversal queue, front first, in the router's `flits`
    /// (after every input flit; each entry's output VC is in `st_vcs`).
    pub st_queue: Span,
}

/// One router at a commit boundary (see the module doc for the layout).
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
    /// `ports[p]`: output port `p`.
    pub ports: Vec<PortRow>,
    /// `inputs[p * vcs + v]`: input VC `v` of port `p`.
    pub inputs: Vec<InputRow>,
    /// `outputs[p * vcs + v]`: output VC `v` of port `p`.
    pub outputs: Vec<OutputRow>,
    /// Every input-buffer flit in (port, VC) order, then every ST-queue
    /// entry's flit in port order.
    pub flits: Vec<Flit>,
    /// The output VC each ST-queue entry will be tagged with: the last
    /// `st_vcs.len()` flits of `flits` are the entries, in this order.
    pub st_vcs: Vec<u8>,
    /// Every retransmission-sender slot in (port, VC) order, with the
    /// held flag (`true` = recovery-absorbed slot that never expires).
    pub slots: Vec<(Flit, bool)>,
    /// `live_in[p]`: bit `v` set exactly when `inputs[p * vcs + v]` is
    /// not idle (see the module doc).
    pub live_in: Vec<u64>,
    /// `live_out[p]`: bit `v` set exactly when `outputs[p * vcs + v]`
    /// is not idle (see the module doc).
    pub live_out: Vec<u64>,
    /// Channel-wait edges as the probe chase sees them: one row per
    /// input VC that is blocked or has an onward edge, in (port, VC)
    /// order. The other VCs are left out because a probe can neither
    /// launch from nor pass through them.
    pub wait_edges: Vec<BlockedVcSummary>,
}

impl RouterSnapshot {
    /// Output port `port`'s switch-traversal queue, front first: each
    /// entry's flit with the output VC it will be tagged with.
    #[inline]
    pub fn st_queue(&self, port: usize) -> impl Iterator<Item = (&Flit, u8)> {
        let span = self.ports[port].st_queue;
        let base = self.flits.len() - self.st_vcs.len();
        let tags = &self.st_vcs[span.start as usize - base..];
        span.of(&self.flits).iter().zip(tags.iter().copied())
    }
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
    /// Packets queued at the source. Their flits have not entered the
    /// network yet.
    pub queued: usize,
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
