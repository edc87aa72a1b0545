//! The pipelined virtual-channel wormhole router (Figure 1), with every
//! §3/§4 protection mechanism wired into its stages.
//!
//! The router is its stages, one file each: `ports` (reverse channels,
//! window expiry, arrival), `control` (RT + §4.2 upsets,
//! deadlock-recovery absorption), `va` (§4.1 + AC), `sa` (§4.3), `st`
//! (crossbar and link, §4.4) and `end` (blocked tracking, probes).
//! `Router::compute` is the only caller of any of them, so it is the
//! one place the per-cycle order is written down.
//!
//! Pipeline model: each stage waits the gap the configured depth's row
//! of [`PipelineDepth::timing`] gives it. A head written into an input
//! buffer at cycle `t` is routed at the current node in that cycle,
//! VC-allocated at `t + 1 + rc_extra`, switch-allocated `va_to_sa`
//! cycles later and crosses the crossbar `sa_to_st` cycles after that:
//! at the 3-stage default (§2.2) VA at `t+1`, SA at `t+2`, ST at `t+3`.
//! Body flits skip RC/VA.
//!
//! Work state is bit masks: each input and output port keeps a `u64`
//! per kind of work, one bit per VC (`nonempty`, `wait`, `active`,
//! `progressed`, `blocked`; `reserved`, `sending`, `replaying`,
//! `held`), and every stage walks the set bits (`ones`, ascending, as
//! the full scans did, so draws and grants keep their order) instead
//! of scanning ports × VCs. Each mask has one writer —
//! `InputPort::set`, `InputPort::track_blocked` (and `unblock` for a
//! purge), `Router::reserve`, `OutputPort::sync` — and debug builds
//! recompute them all after the reverse channels, after every compute
//! and after every purge (`Router::debug_check_masks`).
//!
//! Time-driven bookkeeping is paid per event, not per cycle. Each
//! cardinal output port's expiry wheel (`Router::due`, written by
//! `Router::stamp`) books a sent copy at its NACK deadline, so
//! `begin_cycle` expires only the VCs due this cycle; each blocked
//! input VC keeps the cycle its run began (`blocked_since`), so
//! `end_cycle` writes a VC only when its run starts and
//! `Router::blocked_cycles` derives the count.
//!
//! A stage with no work returns at once: bring-up when no VC holds a
//! fresh head, VA when none waits (the comparator still evaluates the
//! rows it holds, every cycle), SA when no open wormhole has a buffered
//! flit, ST when no output has a replay, a held flit or a granted
//! entry, and Rule 1 while the router's own probe is outstanding. Each
//! would have drawn, granted and counted nothing. The VA and SA storage
//! is one `StageScratch` that the engine lends to each router's
//! compute in turn and every stage leaves clear.
//!
//! [`PipelineDepth::timing`]: ftnoc_types::config::PipelineDepth::timing

mod control;
mod end;
mod ports;
mod sa;
mod st;
mod va;

use ftnoc_core::ac::{AllocationComparator, VcRef};
use ftnoc_core::buffers::CreditLedger;
use ftnoc_core::deadlock::probe::ProbeProtocol;
use ftnoc_fault::{FaultCounts, FaultInjector};
use ftnoc_trace::TraceEvent;
use ftnoc_types::config::RouterConfig;
use ftnoc_types::flit::Flit;
use ftnoc_types::geom::{Direction, NodeId};
use ftnoc_types::packet::PacketId;

use crate::arbiter::{ones, RoundRobinArbiter};
use crate::config::SimConfig;
use crate::link::PortIo;
use crate::routing::FaultState;
use crate::stats::{ErrorStats, EventCounts};
use ports::{InputPort, OutputPort, VcState};

/// Immutable per-cycle context shared by every router's stages.
pub(crate) struct Ctx<'a> {
    /// The run configuration.
    pub(crate) config: &'a SimConfig,
    /// Current cycle.
    pub(crate) now: u64,
    /// The run's fault state (hard-fault timeline, per-epoch routing
    /// plans): immutable for the compute phase, a pure function of `now`.
    pub(crate) faults: &'a FaultState,
}

/// One row of `Router::blocked_summary`: the VC, how long its head
/// has been blocked, whether the probe chase considers it blocked, and
/// its onward dependency edge. Only live rows exist (blocked, or with
/// an edge): an idle, unblocked VC has nothing the chase could read.
pub type BlockedVcSummary = (VcRef, u64, bool, Option<(Direction, VcRef)>);

/// Per-router buffer of trace events produced during the compute phase
/// and drained (in node order) by the network's commit phase. The
/// drain is the trace's byte order: a router's events land after those
/// of every lower-numbered router of the cycle, however many of them
/// the active set skipped.
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    /// Mirror of `Tracer::enabled()`; `false` makes `emit` a no-op.
    pub(crate) enabled: bool,
    /// Events of the current cycle, in phase order.
    pub(crate) events: Vec<TraceEvent>,
}

impl TraceBuf {
    /// Records an event; the closure only runs when tracing is on.
    #[inline]
    pub(crate) fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.events.push(f());
        }
    }
}

/// A flit leaving the router this cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkDrive {
    /// Output direction.
    pub(crate) dir: Direction,
    /// The flit.
    pub(crate) flit: Flit,
    /// VC tag on the wire.
    pub(crate) vc: u8,
}

/// The router.
pub struct Router {
    id: NodeId,
    cfg: RouterConfig,
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    /// The last fault-publication epoch this router acted on. When the
    /// published epoch advances, every head still waiting for VC
    /// allocation re-routes against the new plan (online
    /// reconfiguration). `0` forever on static-fault runs.
    seen_epoch: usize,
    va_arbiters: Vec<RoundRobinArbiter>,
    sa_in_arbiters: Vec<RoundRobinArbiter>,
    sa_out_arbiters: Vec<RoundRobinArbiter>,
    replay_rr: Vec<RoundRobinArbiter>,
    ac: AllocationComparator,
    /// Deadlock-probing state machine (§3.2.2).
    pub probe: ProbeProtocol,
    probe_scan_offset: usize,
    recovery_stall: u64,
    /// The cycle of the last `end_cycle`: blocked runs are counted up to
    /// it, and every retransmission deadline lies after it.
    last_end: u64,
    /// The expiry wheel of each cardinal output port (only links keep
    /// sent copies): bit `v` of `due[port][t % WHEEL]` means output VC
    /// `(port, v)` stamped a sent copy at cycle `t - NACK_ROUND_TRIP`.
    /// Written only by `Router::stamp`; a bit a NACK, a replay or a
    /// purge left stale costs one `expire` that drops nothing.
    due: [[u64; ports::WHEEL]; 4],
    /// Flits ejected this cycle, tagged with the local out port they
    /// left through (drained by the network; the port picks the PE on
    /// concentrated topologies).
    pub ejected: Vec<(Flit, u8)>,
    /// Upstream credits freed this cycle: (input port, vc).
    pub(crate) freed_credits: Vec<(Direction, u8)>,
    /// Flits driven onto outgoing links this cycle (drained at commit).
    pub(crate) drives: Vec<LinkDrive>,
    /// Arrival NACKs to send upstream this cycle: (arrival port, vc).
    pub(crate) arrival_nacks: Vec<(Direction, u8)>,
    /// Probe launch requested by `end_cycle` this cycle.
    pub(crate) probe_req: Option<(Direction, VcRef)>,
    /// Event census (energy accounting).
    pub events: EventCounts,
    /// Error-handling census.
    pub errors: ErrorStats,
    /// Hotspot telemetry: port-VC cycles spent blocked with buffered
    /// flits and no progress (cumulative since construction — not
    /// warmup-windowed, unlike `events`).
    pub buffer_stalls: u64,
    /// Hotspot telemetry: times this router *entered* deadlock recovery
    /// (rising edges of `probe.in_recovery()`, cumulative).
    pub recoveries: u64,
    /// Cycles this router's compute phase actually ran (activity-gating
    /// telemetry; cumulative since construction, like `buffer_stalls`).
    pub computed_cycles: u64,
    /// Per-router fault injector: an independent, node-seeded stream so
    /// fault draws do not depend on router visitation order (the
    /// property that makes the parallel compute phase deterministic).
    pub(crate) fi: FaultInjector,
    /// Buffered trace events of the current cycle.
    pub(crate) trace: TraceBuf,
}

/// The VA and SA stages' reusable storage. The network owns one and
/// lends it to each `Router::compute` in turn; every stage leaves it
/// clear, so no router keeps a copy, nothing is moved in or out, and
/// the steady-state stages neither allocate nor clear it per cycle.
#[derive(Debug, Default)]
pub(crate) struct StageScratch {
    va: va::VaScratch,
    sa: sa::SaScratch,
}

impl Router {
    /// Builds the router for node `id`; `port_exists[d]` says which
    /// cardinal links exist (mesh edges and chiplet tile boundaries lack
    /// some). Ports `4..cfg.ports()` are the local (PE) ports — one on a
    /// mesh/torus/chiplet, `C` on a concentrated mesh — and always exist.
    pub(crate) fn new(id: NodeId, config: &SimConfig, port_exists: [bool; 4]) -> Self {
        let cfg = config.router;
        let v = cfg.vcs_per_port();
        let p = cfg.ports();
        let inputs = (0..p)
            .map(|_| InputPort::new(v, cfg.port_capacity()))
            .collect();
        let outputs = (0..p)
            .map(|port| {
                let is_local = port >= 4;
                let exists = is_local || port_exists[port];
                // Ejection is always consumable: effectively infinite
                // credit; cardinal ports mirror the neighbour's input
                // organisation (uniform across the network).
                let credits = if is_local {
                    CreditLedger::unbounded(v)
                } else {
                    CreditLedger::new(v, cfg.port_capacity())
                };
                OutputPort::new(exists, v, cfg.retrans_depth(), credits)
            })
            .collect();
        Router {
            id,
            cfg,
            inputs,
            outputs,
            seen_epoch: 0,
            va_arbiters: (0..p * v).map(|_| RoundRobinArbiter::new(p * v)).collect(),
            sa_in_arbiters: (0..p).map(|_| RoundRobinArbiter::new(v)).collect(),
            sa_out_arbiters: (0..p).map(|_| RoundRobinArbiter::new(p)).collect(),
            replay_rr: (0..p).map(|_| RoundRobinArbiter::new(v)).collect(),
            ac: AllocationComparator::new(),
            probe: ProbeProtocol::new(id, config.deadlock.cthres),
            probe_scan_offset: 0,
            recovery_stall: 0,
            last_end: 0,
            due: Default::default(),
            ejected: Vec::new(),
            freed_credits: Vec::new(),
            drives: Vec::new(),
            arrival_nacks: Vec::new(),
            probe_req: None,
            events: EventCounts::default(),
            errors: ErrorStats::default(),
            buffer_stalls: 0,
            recoveries: 0,
            computed_cycles: 0,
            // The run's fault seed mixed with a per-node odd multiplier,
            // so every router draws from an independent stream.
            fi: FaultInjector::new(
                config.faults,
                (config.seed ^ 0xFA17)
                    ^ (id.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            trace: TraceBuf::default(),
        }
    }

    /// This router's injected-fault census.
    pub(crate) fn fault_counts(&self) -> FaultCounts {
        self.fi.counts()
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// One cycle of this router, its stages in pipeline order: `io`
    /// holds the inbound wires it pops, `recovering[d]` closes VA
    /// admission toward neighbour `d`, `scratch` is the lent stage
    /// storage, and every output waits in the router for the commit
    /// phase.
    pub(crate) fn compute(
        &mut self,
        ctx: &Ctx<'_>,
        io: &mut PortIo,
        recovering: [bool; 4],
        scratch: &mut StageScratch,
    ) {
        // Position the counter-based fault stream at this cycle: every
        // draw below is a pure function of (node seed, cycle, draw
        // index), so a skipped cycle consumes nothing and gated runs
        // match full sweeps draw for draw.
        self.fi.begin_cycle(ctx.now);
        self.computed_cycles += 1;
        self.reverse_channels(ctx.now, io);
        // The NACKs re-armed replays before expiry runs: the masks say so.
        self.debug_check_masks();
        self.begin_cycle(ctx.now);
        self.arrival(ctx, io);
        self.control_phase(ctx);
        self.va_phase(ctx, &mut scratch.va, recovering);
        self.sa_phase(ctx, &mut scratch.sa);
        self.st_phase(ctx);
        self.probe_req = self.end_cycle(ctx);
        self.debug_check_masks();
    }

    /// Visits every packet flit physically inside this router. The
    /// second argument is `true` for sole live instances (input-buffer
    /// flits, switch-traversal entries, recovery-held sender slots) and
    /// `false` for protective retransmission copies whose original
    /// lives downstream. Read-only; the death purge uses it to build
    /// the truncated-packet set.
    pub(crate) fn scan_flits(&self, mut f: impl FnMut(&Flit, bool)) {
        for input in &self.inputs {
            for v in 0..input.buffer.vcs() {
                for flit in input.buffer.iter(v) {
                    f(flit, true);
                }
            }
        }
        for (op, output) in self.outputs.iter().enumerate() {
            for entry in &output.st_queue {
                f(&entry.flit, true);
            }
            self.sender_slots_on(op, &mut f);
        }
    }

    /// Visits every open wormhole: `(in_port, in_vc, out_port, packet)`
    /// for each input VC in the `Active` state. The death purge uses
    /// this to find wormholes whose buffered flits have momentarily
    /// drained but whose packet is still streaming.
    pub(crate) fn open_wormholes(&self, mut f: impl FnMut(usize, usize, usize, PacketId)) {
        for (p, input) in self.inputs.iter().enumerate() {
            for v in ones(input.active) {
                if let VcState::Active {
                    out_port, packet, ..
                } = input.vcs[v].state
                {
                    f(p, v, out_port, packet);
                }
            }
        }
    }

    /// Visits `(flit, held)` for every slot of the retransmission
    /// buffers on output port `op` (the port facing a dying neighbour).
    pub(crate) fn sender_slots_on(&self, op: usize, mut f: impl FnMut(&Flit, bool)) {
        for buffer in &self.outputs[op].retrans {
            for (flit, held) in buffer.iter_slots() {
                f(flit, held);
            }
        }
    }

    /// Removes every flit whose packet `is_member` names (by raw packet
    /// id) from this router's input buffers, switch-traversal queues and
    /// retransmission buffers, and resets the control state of every
    /// amputated wormhole so surviving traffic re-routes cleanly. A
    /// dying router passes `|_| true`: it drains everything it holds and
    /// every reservation clears; the network then marks it dead (its
    /// compute phase never runs again, and the fault timeline shows its
    /// neighbours all-dead links toward it).
    ///
    /// Returns the removed **originals** as `(flit, port)` — protective
    /// sender copies vanish silently, their originals are accounted
    /// where they physically live. Commit-phase only: structural
    /// mutation, no RNG draws, so gated and ungated runs stay
    /// byte-identical.
    pub(crate) fn purge_packets(&mut self, is_member: impl Fn(u64) -> bool) -> Vec<(Flit, u8)> {
        let mut lost = Vec::new();
        let ports = self.cfg.ports();
        let vcs = self.cfg.vcs_per_port();
        // Input buffers: pop/re-push so the shared-slot count stays
        // exact and FIFO order is preserved for survivors.
        let mut touched = vec![false; ports * vcs];
        for (p, input) in self.inputs.iter_mut().enumerate() {
            for v in 0..vcs {
                let n = input.buffer.len(v);
                for _ in 0..n {
                    let flit = input.buffer.pop(v).expect("counted flit");
                    if is_member(flit.packet.raw()) {
                        touched[p * vcs + v] = true;
                        lost.push((flit, p as u8));
                    } else {
                        let ok = input.buffer.push(v, flit);
                        debug_assert!(ok, "re-push after pop cannot fail");
                    }
                }
            }
        }
        for (op, output) in self.outputs.iter_mut().enumerate() {
            output.st_queue.retain(|entry| {
                if is_member(entry.flit.packet.raw()) {
                    lost.push((entry.flit, op as u8));
                    false
                } else {
                    true
                }
            });
            for v in 0..vcs {
                for (flit, held) in output.retrans[v].purge(|f| is_member(f.packet.raw())) {
                    if held {
                        lost.push((flit, op as u8));
                    }
                }
                output.sync(v);
            }
        }
        // Normalize control state: amputated wormholes close, VA-waiting
        // heads that were purged re-enter bring-up on the next compute.
        for p in 0..ports {
            for v in 0..vcs {
                match self.inputs[p].vcs[v].state {
                    VcState::Active {
                        out_port,
                        out_vc,
                        packet,
                        ..
                    } if is_member(packet.raw()) => {
                        if out_vc < vcs {
                            self.release_if_owner(out_port, out_vc, (p, v));
                        }
                        self.inputs[p].set(v, VcState::Idle);
                        self.inputs[p].unblock(v);
                    }
                    VcState::VaWait { .. } if touched[p * vcs + v] => {
                        self.inputs[p].set(v, VcState::Idle);
                        self.inputs[p].unblock(v);
                    }
                    _ => {}
                }
            }
        }
        // A reservation can outlive its owner's Active state: after a
        // deadlock-recovery takeover the old owner's flits drain as
        // held sender slots, and only the last held send releases the
        // output VC. Purging those held flits above removes the final
        // anchor, so reconcile: any reservation backed by neither an
        // Active owner nor held sender flits is released here, else the
        // output VC leaks and survivors block on it forever.
        for op in 0..ports {
            let output = &self.outputs[op];
            for ov in ones(output.reserved & !output.held) {
                let Some((p, v)) = self.outputs[op].allocated[ov] else {
                    continue;
                };
                if !self.owns(p, v, op, ov) {
                    self.reserve(op, ov, None);
                }
            }
        }
        self.debug_check_masks();
        lost
    }

    /// Whether input VC `(p, v)` is `Active` toward output VC `(op, ov)`.
    fn owns(&self, p: usize, v: usize, op: usize, ov: usize) -> bool {
        matches!(
            self.inputs[p].vcs[v].state,
            VcState::Active { out_port, out_vc, .. } if out_port == op && out_vc == ov
        )
    }

    /// Whether this router holds no work at all: nothing buffered, no
    /// wormhole open or reserved, no retransmission copies resident, no
    /// replay or deadlock-recovery state in flight. A quiescent router's
    /// compute phase is a complete no-op — no state change, no RNG
    /// draws, no event counts — which is what lets the activity-gated
    /// engine skip it without perturbing the simulation.
    pub(crate) fn is_quiescent(&self) -> bool {
        !self.probe.in_recovery()
            && self
                .inputs
                .iter()
                .all(|p| (p.buffer.nonempty() | p.wait | p.active) == 0)
            && self
                .outputs
                .iter()
                .all(|o| o.st_queue.is_empty() && (o.reserved | o.sending) == 0)
    }

    /// Debug builds: recomputes every work mask, and the comparator's
    /// held VA table, from the state it summarises and asserts it
    /// matches — the check that each one's writer ran wherever that
    /// state changed. Also asserts that every blocked run began by the
    /// last `end_cycle`, on a VC waiting for or holding an output VC,
    /// and that every sent copy is due after it and booked on the
    /// expiry wheel (so at the end of a compute no deadline is `<= now`:
    /// `begin_cycle` expired every one that was due).
    fn debug_check_masks(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let bits = |n: usize, f: &dyn Fn(usize) -> bool| {
            (0..n).fold(0u64, |m, v| m | (u64::from(f(v)) << v))
        };
        for (p, port) in self.inputs.iter().enumerate() {
            let n = port.vcs.len();
            let state = |v: usize| port.vcs[v].state;
            let masks = (port.buffer.nonempty(), port.wait, port.active);
            let model = (
                bits(n, &|v| port.buffer.len(v) > 0),
                bits(n, &|v| matches!(state(v), VcState::VaWait { .. })),
                bits(n, &|v| matches!(state(v), VcState::Active { .. })),
            );
            assert_eq!(masks, model, "{} input port {p}: stale work mask", self.id);
            assert!(
                port.blocked & !(port.wait | port.active) == 0
                    && ones(port.blocked).all(|v| port.vcs[v].blocked_since <= self.last_end),
                "{} input port {p}: stale blocked run",
                self.id
            );
        }
        for (op, port) in self.outputs.iter().enumerate() {
            let n = port.retrans.len();
            let masks = (port.reserved, port.sending, port.replaying, port.held);
            let model = (
                bits(n, &|v| port.allocated[v].is_some()),
                bits(n, &|v| !port.retrans[v].is_empty()),
                bits(n, &|v| port.retrans[v].is_replaying()),
                bits(n, &|v| port.retrans[v].held_count() > 0),
            );
            assert_eq!(
                masks, model,
                "{} output port {op}: stale work mask",
                self.id
            );
            for (v, buffer) in port.retrans.iter().enumerate() {
                for due in buffer.deadlines() {
                    let slot = due as usize % ports::WHEEL;
                    assert!(
                        due > self.last_end
                            && self
                                .due
                                .get(op)
                                .is_some_and(|wheel| wheel[slot] & 1 << v != 0),
                        "{} output port {op} VC {v}: copy due at {due} is off the expiry \
                         wheel (last end_cycle {})",
                        self.id,
                        self.last_end
                    );
                }
            }
        }
        let vcs = self.cfg.vcs_per_port();
        let table = self.outputs.iter().enumerate().flat_map(|(op, port)| {
            (0..vcs).filter_map(move |ov| {
                let (ip, iv) = port.allocated[ov]?;
                Some((op * vcs + ov, va::va_row(ip, iv, op, ov)))
            })
        });
        assert!(
            self.ac.held().eq(table),
            "{}: the comparator's held VA table is stale",
            self.id
        );
    }

    /// Rebuilds `out` as a plain-data copy of every architecturally
    /// observable piece of router state (the invariant oracle's
    /// inspection surface): every row, arena and mask is cleared and
    /// refilled in layout order, and nothing `out` held is read, so
    /// whatever it held — another router, another radix, an earlier
    /// cycle — it comes out equal to a rebuilt
    /// `RouterSnapshot::default()`, keeping its allocations (see
    /// [`crate::snapshot`]), except `dead`: the network fills that from
    /// its dead-router set. Pure read — no RNG draws, no mutation.
    ///
    /// The live masks are computed from the per-VC state itself, not
    /// from the work masks.
    pub fn snapshot_into(&self, out: &mut crate::snapshot::RouterSnapshot) {
        use crate::snapshot::{full_credits, InputRow, OutputRow, PortRow, Span, VcStateView};
        out.in_recovery = self.probe.in_recovery();
        out.deadlocks_confirmed = self.errors.deadlocks_confirmed;
        let flits = &mut out.flits;
        flits.clear();
        out.inputs.clear();
        out.live_in.clear();
        for port in &self.inputs {
            let mut live = 0;
            for (v, vc) in port.vcs.iter().enumerate() {
                let start = flits.len();
                let len = port.buffer.len(v);
                if len > 0 {
                    flits.extend(port.buffer.iter(v));
                }
                let state = match vc.state {
                    VcState::Idle => VcStateView::Idle,
                    VcState::VaWait { .. } => VcStateView::VaWait,
                    VcState::Active {
                        out_port, out_vc, ..
                    } => VcStateView::Active { out_port, out_vc },
                };
                live |= u64::from(len > 0 || state != VcStateView::Idle) << v;
                out.inputs.push(InputRow {
                    state,
                    flits: Span::new(start, flits.len()),
                });
            }
            out.live_in.push(live);
        }
        // The ST-queue entries follow every input flit.
        out.st_vcs.clear();
        out.ports.clear();
        out.slots.clear();
        out.outputs.clear();
        out.live_out.clear();
        for (op, port) in self.outputs.iter().enumerate() {
            let start = flits.len();
            if !port.st_queue.is_empty() {
                flits.extend(port.st_queue.iter().map(|e| e.flit));
                out.st_vcs.extend(port.st_queue.iter().map(|e| e.out_vc));
            }
            out.ports.push(PortRow {
                exists: port.exists,
                st_queue: Span::new(start, flits.len()),
            });
            let full = full_credits(&self.cfg, op);
            let mut live = 0;
            for (v, buffer) in port.retrans.iter().enumerate() {
                let start = out.slots.len();
                if !buffer.is_empty() {
                    (out.slots).extend(buffer.iter_slots().map(|(f, held)| (*f, held)));
                }
                let credits = port.credits.count(v);
                let owner = port.allocated[v];
                let replaying = buffer.is_replaying();
                let idle = owner.is_none() && buffer.is_empty() && !replaying && credits == full;
                live |= u64::from(!idle) << v;
                out.outputs.push(OutputRow {
                    credits,
                    allocated: owner,
                    allocated_at: owner.map(|_| port.allocated_at[v]),
                    replaying,
                    slots: Span::new(start, out.slots.len()),
                });
            }
            out.live_out.push(live);
        }
        assert!(
            Span::fits(flits) && Span::fits(&out.slots),
            "{}: a snapshot arena outgrew its 32-bit spans",
            self.id
        );
        out.wait_edges.clear();
        self.blocked_summary(&mut out.wait_edges);
    }
}

#[cfg(test)]
mod tests {
    // Single-router micro-tests: drive one router cycle by cycle, with no
    // neighbours on its wires, and pin pipeline timing, credit flow and
    // wormhole exclusivity.

    use ftnoc_core::hbh::ReceiverVerdict;
    use ftnoc_ecc::protect_flit;
    use ftnoc_fault::FaultRates;
    use ftnoc_types::flit::{FlitKind, Header};
    use ftnoc_types::geom::Topology;

    use super::*;
    use crate::snapshot::{RouterSnapshot, VcStateView};
    use crate::ErrorScheme;

    /// A single-router bench: node 9 of the 8×8 mesh (all four links exist).
    struct Harness {
        router: Router,
        io: PortIo,
        scratch: StageScratch,
        config: SimConfig,
        faults: FaultState,
        now: u64,
    }

    impl Harness {
        fn new() -> Self {
            Harness::with_config(SimConfig::builder().build().expect("valid config"))
        }

        fn with_config(config: SimConfig) -> Self {
            Harness {
                router: Router::new(NodeId::new(9), &config, [true; 4]),
                io: PortIo::new([true; 4]),
                scratch: StageScratch::default(),
                faults: FaultState::fault_free(Topology::mesh(8, 8)),
                config,
                now: 0,
            }
        }

        fn step(&mut self) -> Vec<LinkDrive> {
            let ctx = Ctx {
                config: &self.config,
                now: self.now,
                faults: &self.faults,
            };
            self.router
                .compute(&ctx, &mut self.io, [false; 4], &mut self.scratch);
            self.now += 1;
            self.router.drives.clone()
        }

        /// Injects all four flits of packet `id` into local VC `vc`.
        fn packet(&mut self, vc: usize, id: u64, dest: u16) {
            for seq in 0..4 {
                self.router.inject_local(4, vc, flit(id, seq, 4, dest));
            }
        }
    }

    fn flit(packet: u64, seq: u8, len: u8, dest: u16) -> Flit {
        let kind = if len == 1 {
            FlitKind::Single
        } else if seq == 0 {
            FlitKind::Head
        } else if seq == len - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        let mut f = Flit::new(
            PacketId::new(packet),
            seq,
            kind,
            Header::new(NodeId::new(9), NodeId::new(dest)),
            seq as u16,
            0,
        );
        protect_flit(&mut f);
        f
    }

    /// 3-stage pipeline timing: a head injected at cycle 0 is VC-allocated
    /// at 1, switch-allocated at 2 and drives the link at cycle 3.
    #[test]
    fn head_flit_drives_link_at_cycle_three() {
        let mut h = Harness::new();
        // Node 9 = (1,1); dest node 14 = (6,1): XY says East.
        h.router.inject_local(4, 0, flit(1, 0, 4, 14));
        for now in 0..3 {
            let drives = h.step();
            assert!(drives.is_empty(), "premature drive at cycle {now}");
        }
        let drives = h.step(); // cycle 3
        assert_eq!(drives.len(), 1);
        assert_eq!(drives[0].dir, Direction::East);
        assert_eq!(drives[0].flit.seq, 0);
        assert_eq!(drives[0].flit.retransmissions, 0);
    }

    /// Body flits stream one per cycle behind the head.
    #[test]
    fn packet_streams_one_flit_per_cycle() {
        let mut h = Harness::new();
        h.packet(0, 1, 14);
        let mut sent = Vec::new();
        for _ in 0..10 {
            for d in h.step() {
                sent.push((d.flit.seq, h.now - 1));
            }
        }
        assert_eq!(
            sent,
            vec![(0, 3), (1, 4), (2, 5), (3, 6)],
            "flits must stream back to back after the 3-cycle ramp"
        );
    }

    /// Credit exhaustion stalls the stream: the downstream buffer depth (4)
    /// bounds in-flight flits until credits return.
    #[test]
    fn credit_exhaustion_stalls_at_buffer_depth() {
        let mut h = Harness::new();
        let mut queued = 0u8;
        // Feed the 6-flit packet in as local buffer space allows.
        let mut feed = |h: &mut Harness| {
            while queued < 6 && h.router.local_free_slots(4, 0) > 0 {
                h.router.inject_local(4, 0, flit(1, queued, 6, 14));
                queued += 1;
            }
        };
        let mut sent = 0;
        let mut out_vc = None;
        for _ in 0..16 {
            feed(&mut h);
            for d in h.step() {
                out_vc = Some(d.vc);
                sent += 1;
            }
        }
        assert_eq!(sent, 4, "exactly buffer-depth flits may be in flight");
        // Return two credits on the wire VC: two more flits flow.
        let vc = out_vc.expect("a flit was driven");
        h.router.handle_credit(Direction::East, vc);
        h.router.handle_credit(Direction::East, vc);
        let mut more = 0;
        for _ in 0..8 {
            feed(&mut h);
            more += h.step().len();
        }
        assert_eq!(more, 2);
    }

    /// A VC starved of credits counts its blocked run one per cycle in
    /// its wait-edge row; a returned credit lets a flit move, which ends
    /// the run, and the next stall counts from 1 again.
    #[test]
    fn credit_starved_vc_counts_its_blocked_run() {
        let mut h = Harness::new();
        let mut queued = 0u8;
        let mut snap = RouterSnapshot::default();
        let named = VcRef::new(Direction::Local, 0);
        // Steps one cycle, feeding the 6-flit packet as local buffer
        // space allows, and reads the local VC's blocked count.
        let mut step = |h: &mut Harness| {
            while queued < 6 && h.router.local_free_slots(4, 0) > 0 {
                h.router.inject_local(4, 0, flit(1, queued, 6, 14));
                queued += 1;
            }
            let vc = h.step().first().map(|d| d.vc);
            h.router.snapshot_into(&mut snap);
            let row = snap.wait_edges.iter().find(|row| row.0 == named);
            (vc, row.map_or(0, |row| row.1))
        };
        let mut out_vc = None;
        let mut counts = Vec::new();
        for _ in 0..12 {
            let (vc, blocked) = step(&mut h);
            out_vc = out_vc.or(vc);
            counts.push(blocked);
        }
        // The head waits out RC and VA (cycles 0 and 1), four flits win
        // SA on cycles 2..=5, and the fifth finds no credit from cycle 6.
        assert_eq!(counts, [1, 2, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6]);
        h.router
            .handle_credit(Direction::East, out_vc.expect("a flit was driven"));
        let after: Vec<u64> = (0..4).map(|_| step(&mut h).1).collect();
        assert_eq!(
            after,
            [0, 1, 2, 3],
            "one credit moves one flit, then it stalls anew"
        );
    }

    /// Two packets contending for one output port interleave across VCs on
    /// the link but never share a VC mid-wormhole.
    #[test]
    fn wormholes_never_share_a_vc() {
        let mut h = Harness::new();
        // Both packets go East (dest 14), injected on different local VCs.
        h.packet(0, 1, 14);
        h.packet(1, 2, 14);
        let mut per_vc: std::collections::BTreeMap<u8, Vec<u64>> =
            std::collections::BTreeMap::new();
        for _ in 0..30 {
            for d in h.step() {
                per_vc.entry(d.vc).or_default().push(d.flit.packet.raw());
            }
        }
        // Each output VC carried exactly one packet id (possibly repeated).
        for (vc, packets) in &per_vc {
            let first = packets[0];
            assert!(
                packets.iter().all(|&p| p == first),
                "VC {vc} interleaved packets {packets:?}"
            );
        }
        // And both packets got through in full.
        let total: usize = per_vc.values().map(|v| v.len()).sum();
        assert_eq!(total, 8);
    }

    /// After a tail passes, the output VC is released and a new packet can
    /// claim it.
    #[test]
    fn tail_releases_output_vc() {
        let mut h = Harness::new();
        h.packet(0, 1, 14);
        for _ in 0..10 {
            h.step();
        }
        // Second packet on the same local VC reuses the path.
        h.packet(0, 2, 14);
        // Return credits on every VC so it can flow wherever allocated.
        for vc in 0..3 {
            for _ in 0..4 {
                h.router.handle_credit(Direction::East, vc);
            }
        }
        let mut sent = 0;
        for _ in 0..12 {
            sent += h.step().len();
        }
        assert_eq!(sent, 4, "second packet must flow after the first released");
    }

    /// A NACK triggers replay with priority over new traffic, and the
    /// replayed drive carries its retransmission count.
    #[test]
    fn nack_replay_preempts_new_traffic() {
        let mut h = Harness::new();
        h.packet(0, 1, 14);
        // Let the head and one body go out (cycles 3 and 4).
        let mut out_vc = None;
        for _ in 0..5 {
            for d in h.step() {
                out_vc = Some(d.vc);
            }
        }
        // NACK for the stream's VC arrives before cycle 5's expiry.
        h.router
            .handle_nack(Direction::East, out_vc.expect("flits were driven"), h.now);
        let drives = h.step();
        assert_eq!(drives.len(), 1);
        assert_eq!(
            drives[0].flit.retransmissions, 1,
            "replay must win the link"
        );
        assert_eq!(drives[0].flit.seq, 0, "oldest window flit first");
    }

    /// FEC arrival (§3 / Figure 5): a single-bit upset is corrected at the
    /// hop and counted; an uncorrectable word is buffered as it came — no
    /// drop, no NACK — for the destination to reject.
    #[test]
    fn fec_arrival_corrects_single_flips_and_passes_double_flips() {
        let mut b = SimConfig::builder();
        b.scheme(ErrorScheme::Fec);
        let mut h = Harness::with_config(b.build().expect("valid config"));
        let (head, body) = (flit(1, 0, 4, 14), flit(1, 1, 4, 14));
        let (mut one_flip, mut two_flips) = (head, body);
        one_flip.payload.flip_bit(9);
        two_flips.payload.flip_bit(2);
        two_flips.payload.flip_bit(9);

        let ctx = Ctx {
            config: &h.config,
            now: 0,
            faults: &h.faults,
        };
        let verdict = h.router.accept_flit(&ctx, Direction::West, 0, one_flip);
        assert_eq!(verdict, ReceiverVerdict::AcceptCorrected);
        assert_eq!(h.router.errors.link_corrected_inline, 1);
        let verdict = h.router.accept_flit(&ctx, Direction::West, 0, two_flips);
        assert_eq!(verdict, ReceiverVerdict::Accept);
        assert_eq!(h.router.errors.link_corrected_inline, 1);
        assert_eq!(h.router.errors.flits_dropped, 0);
        assert_eq!((h.router.events.ecc_check, h.router.events.nack), (2, 0));

        let mut snap = RouterSnapshot::default();
        h.router.snapshot_into(&mut snap);
        let vcs = h.config.router.vcs_per_port();
        let buffered = snap.inputs[Direction::West.index() * vcs]
            .flits
            .of(&snap.flits);
        assert_eq!(buffered.len(), 2);
        assert_eq!(buffered[0].payload, head.payload, "corrected in place");
        assert_eq!(buffered[1].payload.hamming_distance(body.payload), 2);
    }

    /// The ejection port delivers to the PE queue instead of a link.
    #[test]
    fn local_delivery_ejects() {
        let mut h = Harness::new();
        // Packet destined to this very node.
        h.packet(0, 1, 9);
        let mut ejected = 0;
        for _ in 0..12 {
            let drives = h.step();
            assert!(drives.is_empty(), "nothing must leave on a link");
            ejected += h.router.ejected.len();
        }
        assert_eq!(ejected, 4);
    }

    /// An empty router's computed cycle changes nothing but its count:
    /// with every upset site armed and deadlock detection on, 200
    /// cycles draw no fault, tick no event, error or stall, drive
    /// nothing and never run the comparator.
    #[test]
    fn an_empty_router_computes_nothing_but_its_cycle_count() {
        let mut b = SimConfig::builder();
        b.faults(FaultRates {
            link: 0.5,
            rt: 0.5,
            va: 0.5,
            sa: 0.5,
            crossbar: 0.5,
            handshake: 0.5,
            ..FaultRates::none()
        })
        .deadlock(crate::DeadlockConfig {
            enabled: true,
            cthres: 2,
        });
        let mut h = Harness::with_config(b.build().expect("valid config"));
        let census = |r: &Router| (r.events, r.errors, r.fault_counts(), r.buffer_stalls);
        let built = census(&h.router);
        for now in 0..200 {
            assert!(h.step().is_empty(), "cycle {now}: an empty router drove");
        }
        assert_eq!(h.router.computed_cycles, 200);
        assert_eq!(census(&h.router), built, "an empty router's cycle did work");
    }

    /// An open wormhole whose buffer has drained holds its output VC, so
    /// the comparator evaluates that held row every cycle, with no head
    /// waiting for VA and nothing to switch.
    #[test]
    fn a_held_reservation_runs_the_comparator_every_cycle() {
        let mut h = Harness::new();
        // A 4-flit packet's head and first body flit; the rest never come.
        h.router.inject_local(4, 0, flit(1, 0, 4, 14));
        h.router.inject_local(4, 0, flit(1, 1, 4, 14));
        let sent: usize = (0..6).map(|_| h.step().len()).sum();
        assert_eq!(sent, 2, "both flits left by cycle 5");
        let (inputs, outputs) = (&h.router.inputs, &h.router.outputs);
        assert!(inputs
            .iter()
            .all(|i| i.wait == 0 && i.buffer.nonempty() == 0));
        assert_eq!(inputs[4].active, 1, "the wormhole stays open");
        assert!(outputs.iter().all(|o| o.st_queue.is_empty()));
        assert!(h.router.ac.holds_any(), "its output VC stays reserved");
        let ticks = h.router.events.ac_check;
        for k in 1..=50 {
            assert!(h.step().is_empty());
            assert_eq!(
                h.router.events.ac_check,
                ticks + k,
                "cycle {}: one comparator evaluation per cycle",
                h.now - 1
            );
        }
    }

    /// §4.3 with the AC off: a switch-allocator upset on every grant
    /// suppresses or misroutes flits, yet every VC index the router's
    /// snapshot exposes stays inside the configured range.
    #[test]
    fn sa_upsets_without_the_ac_keep_vc_indices_in_range() {
        let mut b = SimConfig::builder();
        b.faults(FaultRates {
            sa: 1.0,
            ..FaultRates::none()
        })
        .ac_enabled(false);
        let mut h = Harness::with_config(b.build().expect("valid config"));
        let (ports, vcs) = (h.config.router.ports(), h.config.router.vcs_per_port());
        let mut packet = 0;
        let mut granted = 0;
        let mut snap = RouterSnapshot::default();
        for _ in 0..200 {
            for v in 0..vcs {
                if h.router.local_vc_idle(4, v) {
                    packet += 1;
                    h.packet(v, packet, 14);
                }
            }
            for d in h.step() {
                h.router.handle_credit(d.dir, d.vc);
            }
            h.router.snapshot_into(&mut snap);
            for row in &snap.inputs {
                if let VcStateView::Active { out_port, out_vc } = row.state {
                    assert!(out_port < ports && out_vc < vcs, "{:?}", row.state);
                }
            }
            for (p, v) in snap.outputs.iter().filter_map(|row| row.allocated) {
                assert!(p < ports && v < vcs, "reservation names input {p}.{v}");
            }
            for &tag in &snap.st_vcs {
                assert!(usize::from(tag) < vcs, "ST entry on VC {tag}");
                granted += 1;
            }
        }
        assert!(granted > 0, "some grant must survive to the ST queue");
    }
}
