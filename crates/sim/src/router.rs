//! The pipelined virtual-channel wormhole router (Figure 1), with every
//! §3/§4 protection mechanism wired into its stages.
//!
//! Pipeline model (3-stage default, §2.2): a head flit arriving at cycle
//! `t` is VC-allocated at `t+1`, switch-allocated at `t+2` and traverses
//! the crossbar onto the link at `t+3` (look-ahead routing folds RC into
//! the arrival/VA stage). Body flits skip RC/VA. A 4-stage router adds
//! one RC cycle; 2-stage combines VA+SA (speculation assumed
//! successful); 1-stage also combines the crossbar traversal.
//!
//! Per-cycle phase order (driven by the network):
//!
//! 1. reverse-channel processing: NACKs (before window expiry — a NACK
//!    arrives exactly as its flit's window closes and must win), credits;
//! 2. `begin_cycle`: retransmission-window expiry;
//! 3. arrival: link delivery + per-scheme error check ([`Router::accept_flit`]);
//! 4. `control_phase`: packet bring-up (RT + §4.2 fault handling),
//!    deadlock-recovery absorption;
//! 5. `va_phase`: VC allocation + §4.1 fault injection + AC check;
//! 6. `sa_phase`: switch allocation + §4.3 fault injection + AC check;
//! 7. `st_phase`: crossbar/link traversal — replays first, then
//!    deadlock-recovery held flits, then granted flits;
//! 8. `end_cycle`: blocked tracking, probe launching, statistics.
//!
//! Work state is bit masks: each input and output port keeps a `u64`
//! per kind of work, one bit per VC (`nonempty`, `wait`, `active`,
//! `progressed`, `blocked`; `reserved`, `sending`, `replaying`,
//! `held`), and every stage walks the set bits (`ones`, ascending, as
//! the full scans did, so draws and grants keep their order) instead
//! of scanning ports × VCs. Each mask has one writer —
//! `InputPort::set`, `InputPort::set_blocked`,
//! `OutputPort::reserve`, `OutputPort::sync` — and debug builds
//! recompute them all after the reverse channels, after every compute
//! and after every purge (`Router::debug_check_masks`).

use std::collections::VecDeque;

use ftnoc_core::ac::{AllocationComparator, RtEntry, VaEntry, VcRef};
use ftnoc_core::buffers::{CreditLedger, PortBuffer};
use ftnoc_core::deadlock::probe::ProbeProtocol;
use ftnoc_core::hbh::{HbhReceiver, ReceiverVerdict};
use ftnoc_core::recovery::{recovery_latency, LogicFaultKind};
use ftnoc_core::retransmission::RetransmissionBuffer;
use ftnoc_ecc::{check_flit, FlitCheck};
use ftnoc_fault::{FaultCounts, FaultInjector};
use ftnoc_trace::{AcStage, DropReason, TraceEvent};
use ftnoc_types::config::{PipelineDepth, RouterConfig};
use ftnoc_types::flit::{Flit, PackedFields};
use ftnoc_types::geom::{DirSet, Direction, NodeId, Topology};
use ftnoc_types::packet::PacketId;

use crate::arbiter::{ones, RoundRobinArbiter};
use crate::config::{ErrorScheme, RoutingAlgorithm, SimConfig};
use crate::routing::{route_candidates, xy_minimal_progress, FaultState};
use crate::stats::{ErrorStats, EventCounts, OccupancyHistogram};

/// Cached `FTNOC_DEMO_SKIP_CREDIT` flag: a deliberately planted
/// credit-accounting bug (the SA stage stops decrementing credits) used
/// to validate the invariant oracle end to end — `ftnoc fuzz` must catch
/// it with a shrunk reproducer. Off unless the variable is set, so
/// normal runs are unaffected.
fn demo_skip_credit() -> bool {
    use std::sync::OnceLock;
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("FTNOC_DEMO_SKIP_CREDIT").is_some())
}

/// Immutable per-cycle context shared by the router phases.
pub struct Ctx<'a> {
    /// The run configuration.
    pub config: &'a SimConfig,
    /// The network topology.
    pub topo: Topology,
    /// Current cycle.
    pub now: u64,
    /// The run's fault state: the hard-fault timeline plus the
    /// per-epoch fault-aware routing plans. Immutable for the whole
    /// compute phase; every query is a pure function of `now`.
    pub faults: &'a FaultState,
}

/// Wormhole progress of one input VC.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VcState {
    /// No packet in flight on this VC.
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
#[derive(Debug)]
struct InputVc {
    /// Written only by [`InputPort::set`].
    state: VcState,
    receiver: HbhReceiver,
    /// Written only by [`InputPort::set_blocked`].
    blocked_cycles: u64,
    /// No new probe for this VC before this cycle (re-suspicion cooldown).
    probe_cooldown_until: u64,
}

impl InputVc {
    fn new() -> Self {
        InputVc {
            state: VcState::Idle,
            receiver: HbhReceiver::new(),
            blocked_cycles: 0,
            probe_cooldown_until: 0,
        }
    }
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
struct InputPort {
    buffer: PortBuffer,
    vcs: Vec<InputVc>,
    /// VCs in [`VcState::VaWait`].
    wait: u64,
    /// VCs in [`VcState::Active`].
    active: u64,
    /// VCs that moved a flit this cycle (cleared by `begin_cycle`).
    progressed: u64,
    /// VCs whose `blocked_cycles > 0`.
    blocked: u64,
}

impl InputPort {
    /// The one writer of `VcState`, keeping `wait` and `active` in step.
    #[inline]
    fn set(&mut self, v: usize, state: VcState) {
        put(&mut self.wait, v, matches!(state, VcState::VaWait { .. }));
        put(&mut self.active, v, matches!(state, VcState::Active { .. }));
        self.vcs[v].state = state;
    }

    /// The one writer of `blocked_cycles`, keeping `blocked` in step.
    #[inline]
    fn set_blocked(&mut self, v: usize, cycles: u64) {
        put(&mut self.blocked, v, cycles > 0);
        self.vcs[v].blocked_cycles = cycles;
    }
}

/// A granted flit waiting for its crossbar/link cycle.
#[derive(Debug, Clone, Copy)]
struct StEntry {
    flit: Flit,
    out_vc: u8,
    execute_at: u64,
}

/// One output port: per-VC retransmission buffers, the credit ledger
/// mirroring the downstream buffer organisation, wormhole reservations
/// and the switch-traversal queue, plus a bit per VC summarising the
/// reservations and the retransmission buffers.
#[derive(Debug)]
struct OutputPort {
    exists: bool,
    /// After any mutation of `retrans[v]`, [`OutputPort::sync`] runs.
    retrans: Vec<RetransmissionBuffer>,
    credits: CreditLedger,
    /// `allocated[v]` = the input VC currently owning output VC `v`.
    /// Written only by [`OutputPort::reserve`].
    allocated: Vec<Option<(usize, usize)>>,
    /// The cycle `allocated[v]` was last granted (meaningful only while
    /// `allocated[v]` is `Some`). The oracle's dead-port invariant
    /// compares this against the link's death cycle: a wormhole may
    /// drain over a dead wire only if it was allocated strictly before
    /// the death was detectable.
    allocated_at: Vec<u64>,
    st_queue: VecDeque<StEntry>,
    /// VCs whose `allocated[v]` is `Some`.
    reserved: u64,
    /// VCs whose retransmission buffer holds a slot.
    sending: u64,
    /// VCs whose retransmission buffer has a replay pending.
    replaying: u64,
    /// VCs whose retransmission buffer holds recovery-absorbed flits.
    held: u64,
}

impl OutputPort {
    fn new(exists: bool, vcs: usize, retrans_depth: usize, credits: CreditLedger) -> Self {
        OutputPort {
            exists,
            retrans: (0..vcs)
                .map(|_| RetransmissionBuffer::new(retrans_depth))
                .collect(),
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

    /// The one writer of `allocated`, keeping `reserved` in step.
    #[inline]
    fn reserve(&mut self, v: usize, owner: Option<(usize, usize)>) {
        put(&mut self.reserved, v, owner.is_some());
        self.allocated[v] = owner;
    }

    /// Refreshes `sending`, `replaying` and `held` from `retrans[v]`.
    #[inline]
    fn sync(&mut self, v: usize) {
        let buffer = &self.retrans[v];
        put(&mut self.sending, v, !buffer.is_empty());
        put(&mut self.replaying, v, buffer.is_replaying());
        put(&mut self.held, v, buffer.held_count() > 0);
    }

    /// Releases output VC `v` if input VC `owner` still holds it.
    #[inline]
    fn release_if_owner(&mut self, v: usize, owner: (usize, usize)) {
        if self.allocated[v] == Some(owner) {
            self.reserve(v, None);
        }
    }
}

/// One row of [`Router::blocked_summary`]: the VC, how long its head
/// has been blocked, whether the probe chase considers it blocked, and
/// its onward dependency edge.
pub type BlockedVcSummary = (VcRef, u64, bool, Option<(Direction, VcRef)>);

/// Per-router buffer of trace events produced during the compute phase
/// and drained (in node order) by the network's commit phase. The
/// drain is the trace's byte order: a router's events land after those
/// of every lower-numbered router of the cycle, however many of them
/// the active set skipped.
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    /// Mirror of `Tracer::enabled()`; `false` makes `emit` a no-op.
    pub enabled: bool,
    /// Events of the current cycle, in phase order.
    pub events: Vec<TraceEvent>,
}

impl TraceBuf {
    /// Records an event; the closure only runs when tracing is on.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.events.push(f());
        }
    }
}

/// Reusable per-router scratch storage for the allocation phases.
/// Cleared (not reallocated) every cycle, so the steady-state router
/// pipeline performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// VA request masks, one run of words per output VC `op * vcs + ov`,
    /// a bit per nominating input VC `ip * vcs + iv`; left clear.
    va_req: Vec<u64>,
    /// A bit per output VC with at least one nomination; left clear.
    va_requested: Vec<u64>,
    /// VA winners: (input port, input vc, out port, out vc, rt port).
    winners: Vec<(usize, usize, usize, usize, Direction)>,
    /// Which winners were corrupted by an injected VA upset.
    corrupted: Vec<bool>,
    /// AC inputs rebuilt per check.
    rt_entries: Vec<RtEntry>,
    va_entries: Vec<VaEntry>,
    /// Indices of winners flagged by the AC.
    flagged: Vec<usize>,
    /// SA stage 1 winner per input port: (vc, out vc).
    port_winner: Vec<(usize, usize)>,
    /// SA stage 2 requests: bit `p` of `sa_req[op]` when input port `p`'s
    /// winner wants output `op`.
    sa_req: Vec<u64>,
    /// SA grants: (input port, input vc, out port, out vc, collided in
    /// the crossbar — §4.3(c) without the AC).
    grants: Vec<(usize, usize, usize, usize, bool)>,
}

/// A flit leaving the router this cycle.
#[derive(Debug, Clone, Copy)]
pub struct LinkDrive {
    /// Output direction.
    pub dir: Direction,
    /// The flit.
    pub flit: Flit,
    /// VC tag on the wire.
    pub vc: u8,
    /// Whether this is a replayed (retransmitted) flit — replays do not
    /// consume fresh credits.
    pub is_replay: bool,
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
    /// Flits ejected this cycle, tagged with the local out port they
    /// left through (drained by the network; the port picks the PE on
    /// concentrated topologies).
    pub ejected: Vec<(Flit, u8)>,
    /// Upstream credits freed this cycle: (input port, vc).
    pub freed_credits: Vec<(Direction, u8)>,
    /// Flits driven onto outgoing links this cycle (drained at commit).
    pub drives: Vec<LinkDrive>,
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
    scratch: Scratch,
}

impl Router {
    /// Builds the router for node `id`; `port_exists[d]` says which
    /// cardinal links exist (mesh edges and chiplet tile boundaries lack
    /// some). Ports `4..cfg.ports()` are the local (PE) ports — one on a
    /// mesh/torus/chiplet, `C` on a concentrated mesh — and always exist.
    pub fn new(id: NodeId, config: &SimConfig, port_exists: [bool; 4]) -> Self {
        let cfg = config.router;
        let v = cfg.vcs_per_port();
        let p = cfg.ports();
        let inputs = (0..p)
            .map(|_| InputPort {
                buffer: PortBuffer::new(v, cfg.port_capacity()),
                vcs: (0..v).map(|_| InputVc::new()).collect(),
                wait: 0,
                active: 0,
                progressed: 0,
                blocked: 0,
            })
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
            ejected: Vec::new(),
            freed_credits: Vec::new(),
            drives: Vec::new(),
            events: EventCounts::default(),
            errors: ErrorStats::default(),
            buffer_stalls: 0,
            recoveries: 0,
            computed_cycles: 0,
            fi: FaultInjector::new(config.faults, Self::fault_seed(config.seed, id)),
            trace: TraceBuf::default(),
            scratch: Scratch::default(),
        }
    }

    /// The fault-stream seed for node `id`: the run's fault seed mixed
    /// with a per-node odd multiplier so every router draws from an
    /// independent stream.
    fn fault_seed(seed: u64, id: NodeId) -> u64 {
        (seed ^ 0xFA17) ^ (id.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// This router's injected-fault census.
    pub fn fault_counts(&self) -> FaultCounts {
        self.fi.counts()
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
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
        for output in &self.outputs {
            for entry in &output.st_queue {
                f(&entry.flit, true);
            }
            for buffer in &output.retrans {
                for (flit, held) in buffer.iter_slots() {
                    f(flit, held);
                }
            }
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
                            self.outputs[out_port].release_if_owner(out_vc, (p, v));
                        }
                        self.inputs[p].set(v, VcState::Idle);
                        self.inputs[p].set_blocked(v, 0);
                    }
                    VcState::VaWait { .. } if touched[p * vcs + v] => {
                        self.inputs[p].set(v, VcState::Idle);
                        self.inputs[p].set_blocked(v, 0);
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
                    self.outputs[op].reserve(ov, None);
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

    /// Handles a NACK arriving at cycle `now` from the downstream
    /// router on `(dir, vc)`.
    /// Must run before [`Router::begin_cycle`] of the same cycle.
    pub fn handle_nack(&mut self, dir: Direction, vc: u8, now: u64) {
        let port = &mut self.outputs[dir.index()];
        port.retrans[vc as usize].on_nack(now);
        port.sync(vc as usize);
        self.errors.link_recovered_by_replay += 1;
    }

    /// Handles a returned credit from downstream.
    pub fn handle_credit(&mut self, dir: Direction, vc: u8) {
        self.outputs[dir.index()].credits.release(vc as usize);
    }

    /// Expires retransmission windows; call once per cycle after NACK
    /// processing.
    pub fn begin_cycle(&mut self, now: u64) {
        self.ejected.clear();
        self.freed_credits.clear();
        self.drives.clear();
        for port in &mut self.outputs {
            for v in ones(port.sending) {
                port.retrans[v].expire(now);
                port.sync(v);
            }
        }
        for port in &mut self.inputs {
            port.progressed = 0;
        }
    }

    /// Arrival processing for a flit delivered on input `(dir, vc)`:
    /// per-scheme error checking, then buffering unless the verdict is
    /// a drop. On [`ReceiverVerdict::NackAndDrop`] the network sends
    /// the NACK upstream on this VC.
    pub fn accept_flit(
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
        match verdict {
            ReceiverVerdict::Accept => {}
            ReceiverVerdict::AcceptCorrected => self.errors.link_corrected_inline += 1,
            ReceiverVerdict::NackAndDrop => {
                self.errors.flits_dropped += 1;
                self.events.nack += 1;
                return verdict;
            }
            ReceiverVerdict::DropInWindow => {
                self.errors.flits_dropped += 1;
                return verdict;
            }
        }
        let pushed = self.inputs[dir.index()].buffer.push(vc as usize, flit);
        debug_assert!(pushed, "credit flow control violated at {}", self.id);
        self.events.buffer_write += 1;
        verdict
    }

    /// The destination field a router actually routes on (and ejection
    /// compares against): schemes without per-hop checking latch it from
    /// the raw (possibly corrupted) word.
    pub(crate) fn routed_dest(scheme: ErrorScheme, flit: &Flit) -> NodeId {
        match scheme {
            ErrorScheme::Hbh | ErrorScheme::Fec => flit.header.dest,
            ErrorScheme::E2e | ErrorScheme::Unprotected => {
                PackedFields::unpack(flit.payload.data()).dest
            }
        }
    }

    /// Packet bring-up and deadlock-recovery absorption.
    pub fn control_phase(&mut self, ctx: &Ctx<'_>) {
        let ports = self.cfg.ports();
        let epoch = ctx.faults.epoch_at(ctx.now);
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            self.reroute_waiting(ctx);
        }
        for p in 0..ports {
            let input = &self.inputs[p];
            for v in ones(input.buffer.nonempty() & !(input.wait | input.active)) {
                let front = *self.inputs[p].buffer.front(v).expect("nonempty VC");
                if !front.kind.is_head() {
                    // Stranded flit: no wormhole to follow (possible only
                    // under corruption without full protection). Discard.
                    self.inputs[p].buffer.pop(v);
                    self.errors.stranded_flits += 1;
                    self.trace.emit(|| TraceEvent::FlitDropped {
                        packet: front.packet.raw(),
                        seq: front.seq,
                        port: p as u8,
                        reason: DropReason::Stranded,
                    });
                    if p < 4 {
                        self.freed_credits.push((Direction::for_port(p), v as u8));
                    }
                    continue;
                }
                // Route computation (look-ahead folded into this stage for
                // depths < 4; an extra cycle for the canonical 4-stage).
                let dest = Self::routed_dest(ctx.config.scheme, &front);
                let mut candidates = self.route(ctx, p, dest);
                let rc_extra = u64::from(ctx.config.router.pipeline() == PipelineDepth::Four);
                let mut ready_at = ctx.now + rc_extra + 1;

                // §4.2: routing-unit soft error.
                let rt_before = self.errors.rt_corrected;
                if self.fi.rt_upset() && !candidates.is_empty() {
                    let correct = candidates[0].index();
                    let wrong_port = self.fi.corrupt_choice(correct, ports);
                    let wrong = Direction::for_port(wrong_port);
                    let link_missing = wrong != Direction::Local
                        && !self.outputs[wrong_port].exists
                        || ctx.faults.link_dead_now(ctx.now, self.id, wrong);
                    // Ejecting through any local port is benign only when
                    // the routed destination is a terminal attached to
                    // this router (out-of-range destinations are never).
                    let wrong_ejection = wrong == Direction::Local
                        && !(dest.index() < ctx.topo.terminal_count()
                            && ctx.topo.router_of_terminal(dest) == self.id);
                    if link_missing || wrong_ejection {
                        // Caught by the VA's link-state knowledge: re-route.
                        let penalty = recovery_latency(
                            LogicFaultKind::RtMisdirectBlocked,
                            ctx.config.router.pipeline(),
                        );
                        ready_at += penalty.raw();
                        self.errors.rt_corrected += 1;
                        self.events.route += 1;
                    } else if ctx.config.routing == RoutingAlgorithm::FullyAdaptive
                        && wrong != Direction::Local
                    {
                        // Adaptive routing absorbs the detour (§4.2): the
                        // packet really goes the wrong way and re-routes
                        // minimally from there. Undetected by design.
                        candidates = DirSet::from_iter([wrong]);
                    } else if wrong != Direction::Local {
                        // Deterministic (or turn-model) routing: the next
                        // router detects the illegal move and NACKs; the
                        // header is still in this router's retransmission
                        // buffer, so recovery costs 1 + n cycles. Modelled
                        // as a stall + corrected route (the misdirected
                        // transmission and its NACK are charged).
                        debug_assert!(
                            !xy_minimal_progress(
                                ctx.topo,
                                ctx.topo.neighbor_id(self.id, wrong).unwrap_or(self.id),
                                wrong.opposite(),
                                dest
                            ) || ctx.config.routing != RoutingAlgorithm::XyDeterministic
                                || dest == self.id
                        );
                        let penalty = recovery_latency(
                            LogicFaultKind::RtMisdirectOpenDeterministic,
                            ctx.config.router.pipeline(),
                        );
                        ready_at += penalty.raw();
                        self.errors.rt_corrected += 1;
                        self.events.link += 2; // wrong-way hop + NACK path
                        self.events.nack += 1;
                        self.events.route += 1;
                    } else {
                        // `wrong == Local` at the destination: benign.
                        self.errors.rt_corrected += 1;
                    }
                }
                if self.errors.rt_corrected > rt_before {
                    let removed = (self.errors.rt_corrected - rt_before) as u32;
                    self.trace.emit(|| TraceEvent::AcFlagged {
                        stage: AcStage::Rt,
                        removed,
                    });
                }

                self.inputs[p].set(
                    v,
                    VcState::VaWait {
                        candidates,
                        ready_at,
                    },
                );
            }
        }

        if self.probe.in_recovery() {
            self.recovery_absorb(ctx);
        }
    }

    /// Route computation for a head that arrived through input port `p`
    /// and routes on `dest`: the routing function's answer, counted.
    fn route(&mut self, ctx: &Ctx<'_>, p: usize, dest: NodeId) -> DirSet {
        self.events.route += 1;
        route_candidates(
            ctx.config.routing,
            ctx.topo,
            self.id,
            Direction::for_port(p),
            dest,
            ctx.faults,
            ctx.now,
        )
    }

    /// Online reconfiguration: a new fault epoch was published, so every
    /// head still waiting for VC allocation recomputes its candidates
    /// against the new routing plan (its old list may steer into the
    /// enlarged fault set, or a previously-empty list may now have legal
    /// continuations). RNG-free and a no-op when nothing is waiting, so
    /// static-fault runs are byte-identical with or without this pass.
    fn reroute_waiting(&mut self, ctx: &Ctx<'_>) {
        for p in 0..self.cfg.ports() {
            for v in ones(self.inputs[p].wait) {
                let VcState::VaWait { ready_at, .. } = self.inputs[p].vcs[v].state else {
                    unreachable!("`wait` names VaWait VCs");
                };
                let Some(front) = self.inputs[p].buffer.front(v).copied() else {
                    continue;
                };
                let dest = Self::routed_dest(ctx.config.scheme, &front);
                let candidates = self.route(ctx, p, dest);
                self.inputs[p].set(
                    v,
                    VcState::VaWait {
                        candidates,
                        ready_at,
                    },
                );
            }
        }
    }

    /// Blocking level at which recovery absorbs a VC (and below which a
    /// recovering node considers its deadlock resolved).
    fn stuck_threshold(&self, ctx: &Ctx<'_>) -> u64 {
        (ctx.config.deadlock.cthres / 4).max(2)
    }

    /// §3.2.1: move blocked flits from transmission buffers into idle
    /// retransmission slots, freeing space (and upstream credits).
    fn recovery_absorb(&mut self, ctx: &Ctx<'_>) {
        let ports = self.cfg.ports();
        let vcs = self.cfg.vcs_per_port();
        let stuck = self.stuck_threshold(ctx);

        // A head stuck in VC allocation may take over an output VC whose
        // previous owner was fully absorbed and is merely draining held
        // flits (a stale reservation): the new packet's flits simply
        // queue behind the old packet's in the same barrel shifter, so
        // stream order per VC is preserved. This is the input-buffered
        // analogue of the paper's "move flits into the retransmission
        // buffer to create space": without it, rings of stale
        // reservations and waiting heads stay wedged forever.
        for p in 0..ports {
            for v in ones(self.inputs[p].wait & self.inputs[p].blocked) {
                if self.inputs[p].vcs[v].blocked_cycles < stuck {
                    continue;
                }
                let VcState::VaWait { candidates, .. } = self.inputs[p].vcs[v].state else {
                    unreachable!("`wait` names VaWait VCs");
                };
                let mut takeover = None;
                'search: for cand in candidates {
                    if cand == Direction::Local {
                        continue;
                    }
                    let op = cand.index();
                    if !self.outputs[op].exists || ctx.faults.link_dead_now(ctx.now, self.id, cand)
                    {
                        continue;
                    }
                    for ov in 0..vcs {
                        let stale = match self.outputs[op].allocated[ov] {
                            Some((ip, iv)) => !self.owns(ip, iv, op, ov),
                            None => true,
                        };
                        if stale {
                            takeover = Some((op, ov));
                            break 'search;
                        }
                    }
                }
                if let Some((op, ov)) = takeover {
                    self.outputs[op].reserve(ov, Some((p, v)));
                    self.outputs[op].allocated_at[ov] = ctx.now;
                    let packet = self.inputs[p].buffer.front(v).expect("VaWait head").packet;
                    self.inputs[p].set(
                        v,
                        VcState::Active {
                            out_port: op,
                            out_vc: ov,
                            sa_ready_at: ctx.now + 1,
                            packet,
                        },
                    );
                    self.events.va += 1;
                }
            }
        }

        for p in 0..ports {
            for v in ones(self.inputs[p].active & self.inputs[p].blocked) {
                let (op, ov) = match self.inputs[p].vcs[v].state {
                    VcState::Active {
                        out_port, out_vc, ..
                    } if self.inputs[p].vcs[v].blocked_cycles >= stuck && out_vc < vcs => {
                        (out_port, out_vc)
                    }
                    _ => continue,
                };
                if op >= 4 {
                    continue;
                }
                // A switch-granted flit of this VC may still be queued for
                // traversal; absorbing now would overtake it and reorder
                // the stream. Wait until the queue drains.
                if self.outputs[op]
                    .st_queue
                    .iter()
                    .any(|e| e.out_vc as usize == ov)
                {
                    continue;
                }
                loop {
                    if self.outputs[op].retrans[ov].is_full() {
                        break;
                    }
                    let Some(front) = self.inputs[p].buffer.front(v).copied() else {
                        break;
                    };
                    let flit = self.inputs[p].buffer.pop(v).expect("front exists");
                    let absorbed = self.outputs[op].retrans[ov].absorb(flit);
                    debug_assert!(absorbed);
                    self.outputs[op].sync(ov);
                    self.inputs[p].progressed |= 1 << v;
                    self.events.retrans_shift += 1;
                    if p < 4 {
                        self.freed_credits.push((Direction::for_port(p), v as u8));
                    }
                    if front.kind.is_tail() {
                        // Whole packet absorbed; the input VC is free. The
                        // output VC stays reserved until the tail is sent.
                        self.inputs[p].set(v, VcState::Idle);
                        break;
                    }
                }
            }
        }
    }

    /// VC allocation (§4.1 faults + AC protection).
    ///
    /// `neighbor_recovering[d]` gates admission: no **new** packet may be
    /// steered toward a neighbour in deadlock-recovery mode (§3.2.1:
    /// "no new packets are allowed to enter the transmission buffers that
    /// are involved in the deadlock recovery"). Flits of already-admitted
    /// packets keep flowing — they are the recovery's working set.
    pub fn va_phase(&mut self, ctx: &Ctx<'_>, neighbor_recovering: [bool; 4]) {
        let ports = self.cfg.ports();
        let vcs = self.cfg.vcs_per_port();
        let total = ports * vcs;
        // Scratch moves out of `self` for the duration of the phase (a
        // pointer move, not an allocation) so it can be filled while the
        // router's own state is borrowed.
        let mut sc = std::mem::take(&mut self.scratch);

        // Stage 1: each waiting input VC nominates one free output VC by
        // setting its bit in that output VC's request mask.
        let words = total.div_ceil(64);
        sc.va_req.resize(total * words, 0);
        sc.va_requested.resize(words, 0);
        // Rotate the preferred output VC by the cycle count rather than a
        // stateful per-phase counter: the same fairness rotation, but
        // derived from `now`, so a router skipped by activity gating
        // resumes at exactly the offset a full-sweep run would have.
        let rotation = ctx.now as usize % vcs;
        let all_vcs = u64::MAX >> (64 - vcs);
        for p in 0..ports {
            for v in ones(self.inputs[p].wait) {
                let VcState::VaWait {
                    candidates,
                    ready_at,
                } = self.inputs[p].vcs[v].state
                else {
                    unreachable!("`wait` names VaWait VCs");
                };
                if ready_at > ctx.now {
                    continue;
                }
                'cand: for cand in candidates {
                    let op = if cand == Direction::Local {
                        // Deliver through the local port the destination
                        // terminal hangs off (`4 + dest / node_count`);
                        // port 4 everywhere except a concentrated mesh.
                        // Out-of-range (corrupted) destinations clamp like
                        // the address decode in routing does.
                        let front = self.inputs[p].buffer.front(v).expect("VaWait head");
                        let dest = Self::routed_dest(ctx.config.scheme, front);
                        let n = ctx.topo.node_count();
                        4 + (dest.index() / n) % ctx.topo.local_ports()
                    } else {
                        cand.index()
                    };
                    if !self.outputs[op].exists {
                        continue;
                    }
                    if cand != Direction::Local
                        && (neighbor_recovering[op]
                            // The fault-status table: no new wormhole may
                            // be granted onto a locally-known-dead port
                            // (the stale candidate list of a head routed
                            // before the kill could still name it).
                            || ctx.faults.link_dead_now(ctx.now, self.id, cand))
                    {
                        continue;
                    }
                    // The first free output VC at or after the rotation,
                    // wrapping round.
                    let free = all_vcs & !(self.outputs[op].reserved | self.outputs[op].sending);
                    if let Some(ov) = ones(free & (u64::MAX << rotation)).chain(ones(free)).next() {
                        let (input, out) = (p * vcs + v, op * vcs + ov);
                        sc.va_req[out * words + input / 64] |= 1 << (input % 64);
                        sc.va_requested[out / 64] |= 1 << (out % 64);
                        break 'cand;
                    }
                }
            }
        }

        // Stage 2: arbitrate per requested output VC, in ascending
        // `op * vcs + ov` order; idle output VCs never touch their
        // arbiter's round-robin pointer.
        sc.winners.clear();
        for w in 0..words {
            for bit in ones(std::mem::take(&mut sc.va_requested[w])) {
                let out = w * 64 + bit;
                let req = &mut sc.va_req[out * words..(out + 1) * words];
                let winner = self.va_arbiters[out]
                    .grant(req)
                    .expect("a requested output VC has a requester");
                req.fill(0);
                // The routing port the winner asked for (its RT row): the
                // uncorrupted output port, every local port reading `Local`.
                let rt_port = Direction::for_port(out / vcs);
                sc.winners
                    .push((winner / vcs, winner % vcs, out / vcs, out % vcs, rt_port));
            }
        }
        let winners = &mut sc.winners;

        // §4.1: VC-allocator soft errors corrupt committed pairings.
        sc.corrupted.clear();
        sc.corrupted.resize(winners.len(), false);
        for (i, w) in winners.iter_mut().enumerate() {
            if !self.fi.va_upset() {
                continue;
            }
            sc.corrupted[i] = true;
            // Scenario mix: invalid id (1), duplicate/reserved (2, 3),
            // wrong PC (4b). Drawn uniformly via the corrupted field.
            let kind = self.fi.corrupt_choice(0, 3);
            match kind {
                1 => w.3 = vcs, // invalid output VC id
                2 => {
                    // Wrong physical channel.
                    let wrong = self.fi.corrupt_choice(w.2, ports);
                    w.2 = wrong;
                    w.3 = w.3.min(vcs - 1);
                }
                _ => {
                    // Duplicate: point at a VC that is already reserved,
                    // if one exists.
                    if let Some(res) = ones(self.outputs[w.2].reserved).next() {
                        w.3 = res;
                    } else {
                        w.3 = vcs; // fall back to an invalid id
                    }
                }
            }
        }

        // Allocation Comparator: evaluate the RT/VA/SA state (Figure 12).
        if ctx.config.ac_enabled {
            sc.rt_entries.clear();
            for &(ip, iv, _, _, rt_port) in winners.iter() {
                sc.rt_entries.push(RtEntry {
                    input_vc: VcRef::new(Direction::for_port(ip), iv as u8),
                    valid_out_port: rt_port,
                });
            }
            sc.va_entries.clear();
            for (op, output) in self.outputs.iter().enumerate() {
                for ov in ones(output.reserved) {
                    if let Some((ip, iv)) = output.allocated[ov] {
                        sc.va_entries.push(VaEntry {
                            input_vc: VcRef::new(Direction::for_port(ip), iv as u8),
                            out_port: Direction::for_port(op),
                            out_vc: ov as u8,
                        });
                    }
                }
            }
            for &(ip, iv, op, ov, _) in winners.iter() {
                sc.va_entries.push(VaEntry {
                    input_vc: VcRef::new(Direction::for_port(ip), iv as u8),
                    out_port: Direction::for_port(op),
                    out_vc: ov as u8,
                });
            }
            // An idle router presents the AC with an empty table; skip
            // the comparator (and its census tick) so a quiescent cycle
            // stays a complete no-op — the property activity gating
            // relies on to make skipped and computed cycles equivalent.
            if !sc.rt_entries.is_empty() || !sc.va_entries.is_empty() {
                self.events.ac_check += 1;
                let findings = self.ac.check(&sc.rt_entries, &sc.va_entries, &[], vcs);
                if !findings.is_empty() {
                    // Invalidate this cycle's (corrupted) allocations: the
                    // affected inputs retry next cycle — 1-cycle penalty.
                    sc.flagged.clear();
                    let corrupted = &sc.corrupted;
                    sc.flagged
                        .extend((0..winners.len()).filter(|&i| corrupted[i]));
                    self.errors.va_corrected += sc.flagged.len() as u64;
                    if !sc.flagged.is_empty() {
                        let removed = sc.flagged.len() as u32;
                        self.trace.emit(|| TraceEvent::AcFlagged {
                            stage: AcStage::Va,
                            removed,
                        });
                    }
                    for i in sc.flagged.iter().rev() {
                        winners.remove(*i);
                    }
                }
            }
        }

        // Commit.
        for &(p, v, op, ov, _) in winners.iter() {
            if ov < vcs {
                self.outputs[op].reserve(ov, Some((p, v)));
                self.outputs[op].allocated_at[ov] = ctx.now;
            }
            let sa_gap = match ctx.config.router.pipeline() {
                PipelineDepth::One | PipelineDepth::Two => 0,
                _ => 1,
            };
            let packet = self.inputs[p]
                .buffer
                .front(v)
                .expect("VA winner head")
                .packet;
            self.inputs[p].set(
                v,
                VcState::Active {
                    out_port: op,
                    out_vc: ov,
                    sa_ready_at: ctx.now + sa_gap,
                    packet,
                },
            );
            self.events.va += 1;
        }
        self.scratch = sc;
    }

    /// Switch allocation (§4.3 faults + AC protection).
    pub fn sa_phase(&mut self, ctx: &Ctx<'_>) {
        let ports = self.cfg.ports();
        let vcs = self.cfg.vcs_per_port();
        let scheme = ctx.config.scheme;
        let mut sc = std::mem::take(&mut self.scratch);

        // Stage 1: per input port, pick one eligible VC; the winner's
        // output port gains this port's request bit.
        sc.port_winner.resize(ports, (0, 0));
        sc.sa_req.clear();
        sc.sa_req.resize(ports, 0);
        for p in 0..ports {
            let mut eligible = 0u64;
            let input = &self.inputs[p];
            for v in ones(input.active & input.buffer.nonempty()) {
                let VcState::Active {
                    out_port,
                    out_vc,
                    sa_ready_at,
                    ..
                } = input.vcs[v].state
                else {
                    unreachable!("`active` names Active VCs");
                };
                let out = &self.outputs[out_port];
                if sa_ready_at > ctx.now
                    || out_vc >= vcs
                    || !out.exists
                    || !out.credits.available(out_vc)
                    || (out.replaying | out.held) != 0
                    || out.st_queue.len() >= 2
                {
                    continue;
                }
                // The protective copy needs a free slot (no VC of the port
                // is replaying: ruled out above).
                if scheme == ErrorScheme::Hbh && out_port < 4 && out.retrans[out_vc].is_full() {
                    continue;
                }
                eligible |= 1 << v;
            }
            if let Some(v) = self.sa_in_arbiters[p].grant(&[eligible]) {
                if let VcState::Active {
                    out_port, out_vc, ..
                } = self.inputs[p].vcs[v].state
                {
                    sc.port_winner[p] = (v, out_vc);
                    sc.sa_req[out_port] |= 1 << p;
                }
            }
        }

        // Stage 2: per output port, pick one requesting input port.
        sc.grants.clear();
        for op in 0..ports {
            if let Some(p) = self.sa_out_arbiters[op].grant(&[sc.sa_req[op]]) {
                let (v, ov) = sc.port_winner[p];
                sc.grants.push((p, v, op, ov, false));
            }
        }
        let grants = &mut sc.grants;

        // §4.3: switch-allocator soft errors.
        let sa_before = self.errors.sa_corrected;
        let mut i = 0;
        while i < grants.len() {
            if !self.fi.sa_upset() {
                i += 1;
                continue;
            }
            let kind = self.fi.corrupt_choice(0, 4);
            match kind {
                1 => {
                    // (a) grant suppressed: the flit retries next cycle.
                    grants.remove(i);
                    self.errors.sa_corrected += 1;
                }
                2 | 3 => {
                    // (b)/(d): wrong output / multicast — caught by the AC
                    // (grant disagrees with the VA state); without the AC
                    // the flit departs the wrong way and strands.
                    if ctx.config.ac_enabled {
                        self.events.ac_check += 1;
                        grants.remove(i);
                        self.errors.sa_corrected += 1;
                    } else {
                        let wrong = self.fi.corrupt_choice(grants[i].2, self.cfg.ports());
                        grants[i].2 = wrong;
                        i += 1;
                    }
                }
                _ => {
                    // (c) collision: the flit is corrupted in the crossbar;
                    // the AC catches the duplicate grant, otherwise the
                    // next router's ECC detects it (NACK + replay, 2
                    // cycles).
                    if ctx.config.ac_enabled {
                        self.events.ac_check += 1;
                        grants.remove(i);
                        self.errors.sa_corrected += 1;
                    } else {
                        // Corrupt the flit payload at commit below.
                        grants[i].4 = true;
                        i += 1;
                    }
                }
            }
        }
        if self.errors.sa_corrected > sa_before {
            let removed = (self.errors.sa_corrected - sa_before) as u32;
            self.trace.emit(|| TraceEvent::AcFlagged {
                stage: AcStage::Sa,
                removed,
            });
        }

        // Commit grants: pop flits, reserve credits, queue for ST.
        let st_gap = u64::from(ctx.config.router.pipeline() != PipelineDepth::One);
        for &(p, v, op, ov, collide) in grants.iter() {
            if !self.outputs[op].exists || ov >= vcs {
                continue;
            }
            let Some(mut flit) = self.inputs[p].buffer.pop(v) else {
                continue;
            };
            self.inputs[p].progressed |= 1 << v;
            self.events.buffer_read += 1;
            self.events.sa += 1;
            if collide {
                // §4.3(c) without AC: two flits collided in the crossbar.
                let (a, b) = (self.fi.random_bit(), self.fi.random_bit());
                flit.payload.flip_bit(a);
                if b != a {
                    flit.payload.flip_bit(b);
                }
            }
            if p < 4 {
                self.freed_credits.push((Direction::for_port(p), v as u8));
            }
            if !demo_skip_credit() {
                self.outputs[op].credits.consume(ov);
            }
            self.outputs[op].st_queue.push_back(StEntry {
                flit,
                out_vc: ov as u8,
                execute_at: ctx.now + st_gap,
            });
            if flit.kind.is_tail() {
                self.outputs[op].release_if_owner(ov, (p, v));
                self.inputs[p].set(v, VcState::Idle);
            }
        }
        self.scratch = sc;
    }

    /// Crossbar/link traversal: replays, then recovery held flits, then
    /// granted flits. Fills [`Router::drives`] with the link drives for
    /// the network's commit phase to carry (crossbar and link fault
    /// injection applied here, from this router's own fault stream).
    pub fn st_phase(&mut self, ctx: &Ctx<'_>) {
        for port in 0..self.cfg.ports() {
            let dir = Direction::for_port(port);
            if !self.outputs[port].exists {
                continue;
            }
            if dir != Direction::Local {
                // Priority 1: NACK-triggered replay.
                if let Some(v) = self.replay_rr[port].grant(&[self.outputs[port].replaying]) {
                    let out = &mut self.outputs[port];
                    let replayed = out.retrans[v].next_replay(ctx.now);
                    out.sync(v);
                    if let Some(flit) = replayed {
                        self.events.retransmission += 1;
                        self.events.link += 1;
                        self.emit_drive(LinkDrive {
                            dir,
                            flit,
                            vc: v as u8,
                            is_replay: true,
                        });
                    }
                    continue;
                }
                // Priority 2: deadlock-recovery held flits.
                let out = &self.outputs[port];
                let held = ones(out.held)
                    .filter(|&v| out.retrans[v].front_held().is_some() && out.credits.available(v))
                    .fold(0u64, |m, v| m | 1 << v);
                if let Some(v) = self.replay_rr[port].grant(&[held]) {
                    // The sent flit keeps a protective copy exactly when a
                    // switch-allocated send would (priority 3 below).
                    let keep_copy = ctx.config.scheme == ErrorScheme::Hbh;
                    let out = &mut self.outputs[port];
                    let sent = out.retrans[v].send_held(ctx.now, keep_copy);
                    out.sync(v);
                    if let Some(flit) = sent {
                        self.outputs[port].credits.consume(v);
                        if flit.kind.is_tail() {
                            // Release the reservation — unless a recovery
                            // takeover already handed this VC to a new
                            // packet that queued behind the departing one
                            // (its owner is Active on this VC and must
                            // keep it).
                            let reassigned = self.outputs[port].allocated[v]
                                .is_some_and(|(ip, iv)| self.owns(ip, iv, port, v));
                            if !reassigned {
                                self.outputs[port].reserve(v, None);
                            }
                        }
                        self.events.link += 1;
                        self.events.crossbar += 1;
                        self.emit_drive(LinkDrive {
                            dir,
                            flit,
                            vc: v as u8,
                            is_replay: false,
                        });
                    }
                    continue;
                }
            }
            // Priority 3: the switch-allocated flit whose cycle has come.
            // Under HBH the protective copy needs a free window slot; a
            // recovery absorption may have filled it after the grant —
            // stall the entry until a slot expires.
            let due = self.outputs[port].st_queue.front().is_some_and(|e| {
                e.execute_at <= ctx.now
                    && (dir == Direction::Local
                        || ctx.config.scheme != ErrorScheme::Hbh
                        || !self.outputs[port].retrans[e.out_vc as usize].is_full())
            });
            if due {
                let entry = self.outputs[port].st_queue.pop_front().expect("due entry");
                self.events.crossbar += 1;
                if dir == Direction::Local {
                    self.ejected.push((entry.flit, port as u8));
                } else {
                    if ctx.config.scheme == ErrorScheme::Hbh {
                        let out = &mut self.outputs[port];
                        out.retrans[entry.out_vc as usize].record_transmission(entry.flit, ctx.now);
                        out.sync(entry.out_vc as usize);
                        self.events.retrans_shift += 1;
                    }
                    self.events.link += 1;
                    self.emit_drive(LinkDrive {
                        dir,
                        flit: entry.flit,
                        vc: entry.out_vc,
                        is_replay: false,
                    });
                }
            }
        }
    }

    /// Finalizes one outgoing flit: trace it, apply §4.4 crossbar upsets
    /// and link soft errors from this router's fault stream, and queue
    /// the drive for the commit phase.
    fn emit_drive(&mut self, mut drive: LinkDrive) {
        self.trace.emit(|| TraceEvent::FlitSent {
            packet: drive.flit.packet.raw(),
            seq: drive.flit.seq,
            port: drive.dir.index() as u8,
            vc: drive.vc,
            replay: drive.is_replay,
        });
        // §4.4: crossbar single-bit upsets (corrected downstream).
        if self.fi.crossbar_upset() {
            let bit = self.fi.random_bit();
            drive.flit.payload.flip_bit(bit);
            self.errors.crossbar_corrected += 1;
        }
        // Link soft errors (injection counted by the fault injector).
        let _ = self.fi.corrupt_on_link(&mut drive.flit.payload);
        self.drives.push(drive);
    }

    /// End-of-cycle blocked tracking and statistics sampling. Returns a
    /// probe request `(origin, named VC at the downstream node, via
    /// direction)` when Rule 1 fires.
    pub fn end_cycle(&mut self, ctx: &Ctx<'_>) -> Option<(Direction, VcRef)> {
        let vcs = self.cfg.vcs_per_port();
        let mut probe_request = None;
        for port in &mut self.inputs {
            // A VC waits when it holds a packet's flits but moved none.
            let waiting = (port.wait | port.active) & port.buffer.nonempty() & !port.progressed;
            for v in ones(waiting | port.blocked) {
                let cycles = if waiting & (1 << v) != 0 {
                    port.vcs[v].blocked_cycles + 1
                } else {
                    0
                };
                port.set_blocked(v, cycles);
            }
            self.buffer_stalls += u64::from(waiting.count_ones());
        }
        if ctx.config.deadlock.enabled && !self.probe.in_recovery() {
            // Rotate the scan start so successive suspicions probe
            // different blocked VCs (the deadlock cycle may not pass
            // through the first one).
            let total = self.cfg.ports() * vcs;
            let start = self.probe_scan_offset;
            'outer: for k in 0..total {
                let idx = (start + k) % total;
                let (p, v) = (idx / vcs, idx % vcs);
                let blocked = self.inputs[p].vcs[v].blocked_cycles;
                if blocked < self.probe.cthres()
                    || self.inputs[p].vcs[v].probe_cooldown_until > ctx.now
                {
                    continue;
                }
                let Some((dir, named)) = self.forward_edge(p, v) else {
                    continue;
                };
                if self.probe.should_probe(blocked) {
                    self.errors.probes_sent += 1;
                    // Cool down: this VC is not re-suspected until another
                    // Cthres window has passed.
                    self.inputs[p].vcs[v].probe_cooldown_until = ctx.now + self.probe.cthres();
                    self.probe_scan_offset = (idx + 1) % total;
                    probe_request = Some((dir, named));
                    break 'outer;
                }
            }
        }
        // Leave recovery once the held flits drained AND no channel is
        // stuck any more. Mid-shuffle waits (a few cycles between drain
        // epochs) must not end recovery, so the exit threshold matches
        // the absorb threshold: a VC that still cannot move will climb
        // back above it and keep the node recovering.
        if self.probe.in_recovery() {
            let stuck = self.stuck_threshold(ctx);
            let drained = self.outputs.iter().all(|o| o.held == 0);
            let unblocked = self.inputs.iter().all(|port| {
                ones(port.blocked & port.buffer.nonempty())
                    .all(|v| port.vcs[v].blocked_cycles < stuck)
            });
            // Track whether this recovery round is still making progress.
            if self.inputs.iter().any(|p| p.progressed != 0) {
                self.recovery_stall = 0;
            } else {
                self.recovery_stall += 1;
            }
            if drained && unblocked {
                self.probe.exit_recovery();
                self.recovery_stall = 0;
            } else if self.recovery_stall >= 2 * ctx.config.deadlock.cthres {
                // This round drained what it could but the residual knot
                // needs a fresh detection pass (the dependency graph has
                // changed): leave recovery so Rule 1 re-arms. Held flits
                // keep draining opportunistically either way.
                self.probe.exit_recovery();
                self.recovery_stall = 0;
            }
        } else {
            self.recovery_stall = 0;
        }
        probe_request
    }

    /// Probe Rule 2 support: whether the named input VC is blocked here,
    /// and where the probe should travel next. Probes only ever name
    /// cardinal arrival VCs (a forward edge's `VcRef` is built from a
    /// link direction), so resolving `Local` to port 4 is exact for
    /// every caller; per-port diagnostics use `Router::port_wait_info`
    /// directly, which distinguishes the concentrated local ports.
    pub fn probe_forward_info(&self, named: VcRef) -> (bool, Option<(Direction, VcRef)>) {
        self.port_wait_info(named.port.index(), named.vc as usize)
    }

    /// Whether input VC `(p, v)` is blocked, and its onward dependency
    /// edge (the body of [`Router::probe_forward_info`], addressed by
    /// raw port index so local ports beyond 4 resolve correctly).
    fn port_wait_info(&self, p: usize, v: usize) -> (bool, Option<(Direction, VcRef)>) {
        let vcs = self.cfg.vcs_per_port();
        if p >= self.inputs.len() || v >= vcs {
            return (false, None);
        }
        let input = &self.inputs[p];
        let blocked = (input.blocked & input.buffer.nonempty()) & (1 << v) != 0;
        (blocked, self.forward_edge(p, v))
    }

    /// The onward dependency of input VC `(p, v)`: the downstream VC it
    /// streams toward (`Active`), or the busy output VC a waiting head
    /// needs (`VaWait`).
    fn forward_edge(&self, p: usize, v: usize) -> Option<(Direction, VcRef)> {
        match self.inputs[p].vcs[v].state {
            VcState::Active {
                out_port, out_vc, ..
            } => {
                let dir = Direction::for_port(out_port);
                if dir == Direction::Local || out_vc >= self.cfg.vcs_per_port() {
                    None
                } else {
                    Some((dir, VcRef::new(dir.opposite(), out_vc as u8)))
                }
            }
            VcState::VaWait { candidates, .. } => self.va_wait_edge(candidates),
            VcState::Idle => None,
        }
    }

    /// Diagnostic view of every input VC, appended to `out`: its
    /// reference, blocked-cycle count and onward dependency edge (as the
    /// probe chase sees it).
    pub fn blocked_summary(&self, out: &mut Vec<BlockedVcSummary>) {
        let vcs = self.cfg.vcs_per_port();
        for p in 0..self.cfg.ports() {
            for v in 0..vcs {
                let named = VcRef::new(Direction::for_port(p), v as u8);
                let (blocked, fwd) = self.port_wait_info(p, v);
                out.push((named, self.inputs[p].vcs[v].blocked_cycles, blocked, fwd));
            }
        }
    }

    /// The onward dependency edge of a head waiting for VC allocation: a
    /// busy output VC of a wanted port. The head is waiting for that
    /// channel to drain into the downstream input buffer — which holds
    /// whether the reservation's owner is still streaming (Active), has
    /// been fully absorbed by deadlock recovery (stale reservation with
    /// held flits), or anything in between.
    fn va_wait_edge(&self, candidates: DirSet) -> Option<(Direction, VcRef)> {
        for cand in candidates {
            if cand == Direction::Local {
                continue;
            }
            let out = &self.outputs[cand.index()];
            if !out.exists {
                continue;
            }
            if let Some(ov) = ones(out.reserved | out.sending).next() {
                return Some((cand, VcRef::new(cand.opposite(), ov as u8)));
            }
        }
        None
    }

    /// Occupancy sampling for Figures 8 and 9. Returns
    /// `(tx_occupied, tx_capacity, retx_occupied, retx_capacity)` over the
    /// inter-router (non-local) channels.
    pub fn sample_occupancy(&self) -> (u64, u64, u64, u64) {
        let vcs = self.cfg.vcs_per_port();
        let mut tx_occ = 0;
        let mut tx_cap = 0;
        let mut rx_occ = 0;
        let mut rx_cap = 0;
        for p in 0..self.cfg.ports() {
            if p >= 4 {
                continue;
            }
            // Whole-port accounting (identical sums for a static
            // partition; the only meaningful granularity for a DAMQ).
            tx_occ += self.inputs[p].buffer.occupied() as u64;
            tx_cap += self.inputs[p].buffer.total_capacity() as u64;
            if self.outputs[p].exists {
                for v in 0..vcs {
                    rx_occ += self.outputs[p].retrans[v].occupancy() as u64;
                    rx_cap += self.outputs[p].retrans[v].depth() as u64;
                }
            }
        }
        (tx_occ, tx_cap, rx_occ, rx_cap)
    }

    /// Records one fill-level sample per cardinal input port into
    /// `hist` (the per-port buffer-utilization distribution).
    pub fn record_port_occupancy(&self, hist: &mut OccupancyHistogram) {
        for p in 0..self.cfg.ports().min(4) {
            let buffer = &self.inputs[p].buffer;
            hist.record(buffer.occupied(), buffer.total_capacity());
        }
    }

    /// Whether this router holds no work at all: nothing buffered, no
    /// wormhole open or reserved, no retransmission copies resident, no
    /// replay or deadlock-recovery state in flight. A quiescent router's
    /// compute phase is a complete no-op — no state change, no RNG
    /// draws, no event counts — which is what lets the activity-gated
    /// engine skip it without perturbing the simulation. (Stricter than
    /// [`Router::is_drained`]: unexpired retransmission copies and open
    /// VC reservations keep a router non-quiescent even though the drain
    /// check ignores them.)
    pub fn is_quiescent(&self) -> bool {
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

    /// Whether any flit is resident in this router (drain checks).
    pub fn is_drained(&self) -> bool {
        self.inputs.iter().all(|p| p.buffer.nonempty() == 0)
            && self
                .outputs
                .iter()
                .all(|o| o.st_queue.is_empty() && o.held == 0)
    }

    /// Debug builds: recomputes every work mask from the state it
    /// summarises and asserts it matches — the check that each mask's
    /// one writer ran wherever that state changed.
    pub(crate) fn debug_check_masks(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let bits = |n: usize, f: &dyn Fn(usize) -> bool| {
            (0..n).fold(0u64, |m, v| m | (u64::from(f(v)) << v))
        };
        for (p, port) in self.inputs.iter().enumerate() {
            let n = port.vcs.len();
            let state = |v: usize| port.vcs[v].state;
            let masks = (port.buffer.nonempty(), port.wait, port.active, port.blocked);
            let model = (
                bits(n, &|v| port.buffer.len(v) > 0),
                bits(n, &|v| matches!(state(v), VcState::VaWait { .. })),
                bits(n, &|v| matches!(state(v), VcState::Active { .. })),
                bits(n, &|v| port.vcs[v].blocked_cycles > 0),
            );
            assert_eq!(masks, model, "{} input port {p}: stale work mask", self.id);
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
        }
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

    /// Refills `out` with a plain-data copy of every architecturally
    /// observable piece of router state (the invariant oracle's
    /// inspection surface). Whatever `out` held — another router, another
    /// radix, an earlier cycle — it comes out equal to a refilled
    /// `RouterSnapshot::default()`, keeping its allocations (see
    /// [`crate::snapshot`]), except `dead`: the network fills that from
    /// its dead-router set. Pure read — no RNG draws, no mutation.
    pub fn snapshot_into(&self, out: &mut crate::snapshot::RouterSnapshot) {
        use crate::snapshot::{StEntryView, VcStateView};
        out.in_recovery = self.probe.in_recovery();
        out.deadlocks_confirmed = self.errors.deadlocks_confirmed;
        out.inputs.resize_with(self.inputs.len(), Vec::new);
        for (port, views) in self.inputs.iter().zip(&mut out.inputs) {
            views.resize_with(port.vcs.len(), Default::default);
            for (v, (vc, view)) in port.vcs.iter().zip(views).enumerate() {
                view.flits.clear();
                view.flits.extend(port.buffer.iter(v));
                view.state = match vc.state {
                    VcState::Idle => VcStateView::Idle,
                    VcState::VaWait { .. } => VcStateView::VaWait,
                    VcState::Active {
                        out_port, out_vc, ..
                    } => VcStateView::Active { out_port, out_vc },
                };
            }
        }
        out.outputs
            .resize_with(self.outputs.len(), Default::default);
        for (port, view) in self.outputs.iter().zip(&mut out.outputs) {
            view.exists = port.exists;
            view.vcs.resize_with(port.retrans.len(), Default::default);
            for (v, ovc) in view.vcs.iter_mut().enumerate() {
                ovc.credits = port.credits.count(v);
                ovc.allocated = port.allocated[v];
                ovc.allocated_at = port.allocated[v].map(|_| port.allocated_at[v]);
                let buffer = &port.retrans[v];
                ovc.sender.slots.clear();
                ovc.sender
                    .slots
                    .extend(buffer.iter_slots().map(|(f, held)| (*f, held)));
                ovc.sender.replaying = buffer.is_replaying();
            }
            view.st_queue.clear();
            view.st_queue
                .extend(port.st_queue.iter().map(|e| StEntryView {
                    flit: e.flit,
                    out_vc: e.out_vc,
                }));
        }
        out.wait_edges.clear();
        self.blocked_summary(&mut out.wait_edges);
    }
}
