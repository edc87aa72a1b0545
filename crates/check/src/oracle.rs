//! The cycle-level invariant oracle.
//!
//! An [`Oracle`] is fed one [`NetSnapshot`] per cycle (taken at the
//! commit boundary, i.e. right after [`ftnoc_sim::Network::step`]) and
//! validates architectural invariants of the fault-tolerant router of
//! Park et al. (DSN 2006). Which invariants are *armed* depends on the
//! run configuration — a link-fault campaign legitimately loses flits
//! until the HBH replay re-delivers them, so the strict conservation
//! equality only holds for configurations where the paper's protection
//! actually guarantees it (see `ArmedInvariants::from_config`).
//!
//! The oracle is a pure observer: it never mutates the simulation and
//! draws no randomness, so oracle-on runs are byte-identical to
//! oracle-off runs.

use std::collections::VecDeque;
use std::fmt;

use ftnoc_core::ac::VcRef;
use ftnoc_fault::{FaultCause, FaultEvent, FaultEventKind, FaultTimeline};
use ftnoc_sim::arbiter::ones;
use ftnoc_sim::config::ErrorScheme;
use ftnoc_sim::router::BlockedVcSummary;
use ftnoc_sim::snapshot::{full_credits, NetSnapshot, RouterSnapshot, VcStateView};
use ftnoc_sim::{RoutingAlgorithm, SimConfig};
use ftnoc_types::config::RouterConfig;
use ftnoc_types::flit::Flit;
use ftnoc_types::geom::{Direction, NodeId, Topology};

/// A violated invariant, with enough context to debug the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the violation was observed (snapshot `now`).
    pub cycle: u64,
    /// Node the violation is anchored to, if any.
    pub node: Option<usize>,
    /// Short stable name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {}", self.invariant, self.cycle)?;
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Which invariant families are armed for a given configuration.
///
/// | invariant | armed when |
/// |---|---|
/// | structural | always |
/// | fault events / dead routers | always |
/// | exclusivity (§4) | AC enabled, or no VA/SA upsets |
/// | wormhole order | no logic upsets, and (HBH or no link upsets) |
/// | arrival monotonicity (§3.1) | same as wormhole order, and no router kills |
/// | flit conservation | no logic upsets, and (HBH or no link upsets); under router kills additionally a clean drain (fault-aware routing, zero notify latency, no link upsets, no E2E control) — then with the loss seam |
/// | credit bound | no logic upsets |
/// | credit equality | no logic, link upsets or router kills |
/// | probe soundness (§3.2.2) | no logic upsets |
/// | dead-port allocation | AC enabled, or no VA upsets |
///
/// "Logic upsets" are the four intra-router sites the simulator draws
/// at: RT, VA, SA and crossbar. Handshake upsets gate nothing (TMR
/// votes them away).
#[derive(Debug, Clone, Copy)]
pub struct ArmedInvariants {
    /// Exclusivity of VC/crossbar allocations (the AC's §4 guarantees).
    pub exclusivity: bool,
    /// Head→body→tail adjacency inside every input buffer.
    pub ordering: bool,
    /// Per-VC arrivals advance monotonically through each packet
    /// (go-back-N replay equivalence: exactly-once, in-order delivery).
    pub arrival: bool,
    /// Per-packet seq contiguity over the union of resident locations.
    pub conservation: bool,
    /// Per-link credit accounting never exceeds the buffer depth.
    pub credit_bound: bool,
    /// Credit accounting is an exact equality (fully fault-free runs).
    pub credit_exact: bool,
    /// Confirmed deadlocks imply a real channel-wait cycle (Rules 1–4).
    pub probe: bool,
    /// No output-VC reservation lands on a known-dead port on or after
    /// its death cycle. Gated only by VA-upset coverage: an uncaught VA
    /// upset (AC disabled) can commit a corrupted winner onto an
    /// arbitrary port, which is the §4 symptom the exclusivity family
    /// tracks, not a routing bug.
    pub dead_port: bool,
}

impl ArmedInvariants {
    /// Derives the arming matrix from a run configuration.
    pub(crate) fn from_config(config: &SimConfig) -> Self {
        let f = &config.faults;
        let logic_free = f.rt == 0.0 && f.va == 0.0 && f.sa == 0.0 && f.crossbar == 0.0;
        let hbh = config.scheme == ErrorScheme::Hbh;
        // Handshake upsets hit single replicas of a TMR-protected strobe
        // and are always voted away (§3.1), so they never change delivery
        // behaviour and do not gate any invariant.
        let lossless = hbh || f.link == 0.0;
        // Whole-router deaths amputate in-flight packets: the drain
        // purge interrupts streams mid-wormhole (arrival monotonicity)
        // and frees buffer slots without returning credits (credit
        // equality), so both step down; the credit *bound* stays armed.
        // Conservation survives — with the loss seam — only when the
        // drain story is airtight: fault-aware routing with zero
        // publication lag (so nothing streams into a corpse after the
        // purge and wedges half-lost in a retransmission sender), no
        // link upsets, and no end-to-end control traffic (whose source
        // buffers sit outside the flit ledger).
        let lossy = config.can_lose_flits();
        let clean_drain = config.routing == RoutingAlgorithm::FaultAware
            && config.notify_latency() == 0
            && f.link == 0.0
            && !config.scheme.uses_end_to_end_control();
        ArmedInvariants {
            exclusivity: config.ac_enabled || (f.va == 0.0 && f.sa == 0.0),
            ordering: logic_free && lossless,
            arrival: logic_free && lossless && !lossy,
            conservation: logic_free && lossless && (!lossy || clean_drain),
            credit_bound: logic_free,
            credit_exact: logic_free && f.link == 0.0 && !lossy,
            probe: logic_free,
            dead_port: config.ac_enabled || f.va == 0.0,
        }
    }

    /// Everything off (useful for targeted testing).
    pub fn none() -> Self {
        ArmedInvariants {
            exclusivity: false,
            ordering: false,
            arrival: false,
            conservation: false,
            credit_bound: false,
            credit_exact: false,
            probe: false,
            dead_port: false,
        }
    }
}

/// Bit `vc` of a VC mask, or no bit for a tag outside the port's `vcs`
/// (a corrupted tag names no VC a family walks).
fn vc_bit(vc: u8, vcs: usize) -> u64 {
    if usize::from(vc) < vcs {
        1 << vc
    } else {
        0
    }
}

/// Whether the seq bits of `mask` (non-zero) form one run.
fn contiguous(mask: u128) -> bool {
    let span = mask >> mask.trailing_zeros();
    span.wrapping_add(1).is_power_of_two()
}

/// The loss ledger's mask of `pkt` (0 when it lost nothing).
fn lost_mask(snap: &NetSnapshot, pkt: u64) -> u128 {
    snap.lost
        .binary_search_by_key(&pkt, |&(p, _)| p)
        .map_or(0, |i| snap.lost[i].1)
}

/// Identity of a flit for conservation/credit bookkeeping. `packet` and
/// `seq` are simulation metadata — never corrupted by injected faults —
/// so identity survives payload corruption.
fn key(f: &Flit) -> (u64, u8) {
    (f.packet.raw(), f.seq)
}

/// The invariant families, in the order [`Oracle::check`] reports them:
/// of two violations in one snapshot, the earlier family's is returned,
/// and within a family the first in (router, port, VC) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Structural,
    FaultEvents,
    DeadPortTable,
    DeadPort,
    DeadRouterTable,
    DeadRouter,
    Activity,
    Exclusivity,
    Ordering,
    Credits,
    Conservation,
    Arrival,
    Probe,
}

impl Family {
    /// The short stable name a [`Violation`] carries.
    fn invariant(self) -> &'static str {
        match self {
            Family::Structural => "structural",
            Family::FaultEvents => "fault-events",
            Family::DeadPortTable | Family::DeadRouterTable => "fault-table",
            Family::DeadPort => "dead-port",
            Family::DeadRouter => "dead-router",
            Family::Activity => "activity",
            Family::Exclusivity => "exclusivity",
            Family::Ordering => "wormhole-order",
            Family::Credits => "credit-accounting",
            Family::Conservation => "conservation",
            Family::Arrival => "arrival-order",
            Family::Probe => "probe-soundness",
        }
    }
}

/// The violation one check reports: each family keeps the first it
/// notes, and an earlier family's replaces a later one's.
struct Verdict {
    now: u64,
    first: Option<(Family, Violation)>,
}

impl Verdict {
    /// Whether a violation of `family` would still be the one reported.
    #[inline]
    fn open(&self, family: Family) -> bool {
        self.first.as_ref().is_none_or(|(f, _)| family < *f)
    }

    /// Notes a violation of `family` at `node` (`None`: the network),
    /// building its detail only when it is the one reported.
    #[cold]
    fn note(&mut self, family: Family, node: Option<usize>, detail: impl FnOnce() -> String) {
        if self.open(family) {
            let violation = Violation {
                cycle: self.now,
                node,
                invariant: family.invariant(),
                detail: detail(),
            };
            self.first = Some((family, violation));
        }
    }
}

/// The invariant oracle. Feed it one snapshot per cycle via
/// [`Oracle::check`]; the first violation is returned as an error.
pub struct Oracle {
    arm: ArmedInvariants,
    /// The run's router shape: radix, VCs per port, buffer depth and
    /// organisation.
    router: RouterConfig,
    /// The run's topology (a dead router's terminals).
    topo: Topology,
    /// `neighbors[n][d]`: the node reached from node `n` in cardinal
    /// direction `d`, if the link exists.
    neighbors: Vec<[Option<usize>; 4]>,
    /// Arrival tracking per input VC (`(n * ports + p) * vcs + v`).
    arrivals: Vec<Arrivals>,
    /// Per cardinal input port (`n * 4 + p`): the VCs whose back is
    /// set, so arrival visits them beside the live ones and a VC
    /// that drained still resets its tracking.
    tracked: Vec<u64>,
    /// `deadlocks_confirmed` per node last cycle.
    prev_confirmed: Vec<u64>,
    /// Blocking threshold of the run (probe Rule 1); launches below it
    /// cannot explain a confirmation.
    cthres: u64,
    /// Recent wait-edge history, oldest first, for the temporal probe
    /// chase (see [`Oracle::confirmation_explained`]).
    hist: WaitHistory,
    /// Scratch for conservation: every resident packet with its seq
    /// bitmask, merged from wherever its flits sit.
    merged: PacketTable,
    /// Scratch for credit accounting: one link's ST-queue and wire flits
    /// with the VC each holds a credit of.
    in_transit: Vec<(usize, (u64, u8))>,
    /// Scratch for credit accounting: one link's returning credits per
    /// VC, zeroed again as each VC is decided.
    returning: Vec<usize>,
    /// The run's hard-fault history, for cross-checking the snapshot's
    /// published fault table against what the configuration implies
    /// (`None` when constructed via [`Oracle::with_arming`] — the
    /// snapshot's own table is then trusted as-is). Realized wear-out
    /// events from the snapshot's fault log are folded into this mirror
    /// as they appear, so the table comparison tracks online deaths the
    /// configuration could not predict.
    timeline: Option<FaultTimeline>,
    /// The configured (non-wear-out) fault events the timeline implies,
    /// in log order — the snapshot's log must carry exactly these.
    expected_configured: Vec<FaultEvent>,
    /// Wear-out events already validated and folded into the mirror (a
    /// count works because the wear-out subsequence of the log is
    /// realized strictly forward in time, hence append-only).
    wear_folded: usize,
    /// Whether the run configures a wear-out model (a wear-out event in
    /// a run without one is an invented fault).
    wearout_armed: bool,
    /// The run's fault publication latency (validates `published_at`).
    notify: u64,
}

/// What arrival monotonicity remembers of one input VC.
#[derive(Debug, Clone, Copy, Default)]
struct Arrivals {
    /// The identity of the buffer's back flit last cycle (a FIFO's back
    /// only changes on push).
    back: Option<(u64, u8)>,
    /// The last arrival observed: `(packet, seq, was_tail)`.
    last: Option<(u64, u8, bool)>,
}

/// The probe window's wait-edge history: one frame per cycle, oldest
/// first, over one shared ring of rows. Frames hold offsets into the
/// ring, so a full window recycles the ring's slots instead of growing
/// a row list per frame.
#[derive(Default)]
struct WaitHistory {
    frames: VecDeque<WaitFrame>,
    /// The rows of every frame, frame after frame, node after node.
    rows: VecDeque<BlockedVcSummary>,
    /// Rows that have left the front of `rows`: the offset of `rows[0]`.
    dropped: usize,
}

/// One cycle of per-node probe-relevant state, plus the snapshot cycle.
#[derive(Default)]
struct WaitFrame {
    now: u64,
    /// The offset of this frame's first row.
    start: usize,
    /// Per node: `(in_recovery, offset just past its rows)`.
    nodes: Vec<(bool, usize)>,
}

/// An open-addressed table of `(packet, seq bitmask)`, emptied in O(1):
/// a slot belongs to the current fill only when it carries its stamp.
/// It grows to the most packets one fill has held, at most two thirds
/// full so every probe ends soon.
#[derive(Default)]
struct PacketTable {
    /// `(stamp, packet, mask)`; the length is a power of two.
    slots: Vec<(u32, u64, u128)>,
    stamp: u32,
    /// The slots of this fill, in the order their packets arrived.
    used: Vec<usize>,
}

impl PacketTable {
    /// Empties the table.
    fn reset(&mut self) {
        self.used.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.slots.is_empty() || self.stamp == 0 {
            self.slots = vec![(0, 0, 0); self.slots.len().max(8)];
            self.stamp = 1;
        }
    }

    /// The slot `pkt`'s probe starts at.
    fn home(&self, pkt: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (pkt.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// ORs `mask` into the entry of `pkt`, doubling the table first if
    /// a new packet would fill it past two thirds.
    #[inline]
    fn add(&mut self, pkt: u64, mask: u128) {
        if 3 * (self.used.len() + 1) > 2 * self.slots.len() {
            self.grow();
        }
        let wrap = self.slots.len() - 1;
        let mut i = self.home(pkt);
        loop {
            let slot = &mut self.slots[i];
            if slot.0 != self.stamp {
                *slot = (self.stamp, pkt, mask);
                self.used.push(i);
                return;
            }
            if slot.1 == pkt {
                slot.2 |= mask;
                return;
            }
            i = (i + 1) & wrap;
        }
    }

    /// Doubles the table, keeping this fill.
    #[cold]
    fn grow(&mut self) {
        let grown = vec![(0, 0, 0); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        for i in std::mem::take(&mut self.used) {
            self.add(old[i].1, old[i].2);
        }
    }

    /// Every packet of this fill with its merged mask.
    fn iter(&self) -> impl Iterator<Item = (u64, u128)> + '_ {
        self.used
            .iter()
            .map(|&i| (self.slots[i].1, self.slots[i].2))
    }

    /// The merged mask of `pkt`, if this fill added it.
    fn get(&self, pkt: u64) -> Option<u128> {
        let wrap = self.slots.len() - 1;
        let mut i = self.home(pkt);
        loop {
            let (stamp, key, mask) = self.slots[i];
            if stamp != self.stamp {
                return None;
            }
            if key == pkt {
                return Some(mask);
            }
            i = (i + 1) & wrap;
        }
    }
}

impl WaitHistory {
    /// Opens the frame of cycle `now`, handing the oldest frame's
    /// storage back once `window` frames are held; [`WaitHistory::push`]
    /// then adds its nodes in order. History must be contiguous (one
    /// frame per cycle) for hop timing to line up, so a gap restarts it.
    fn start(&mut self, now: u64, window: usize) {
        if self.frames.back().is_some_and(|f| f.now + 1 != now) {
            self.frames.clear();
            self.dropped += self.rows.len();
            self.rows.clear();
        }
        let mut frame = if self.frames.len() >= window {
            let oldest = self.frames.pop_front().unwrap_or_default();
            let end = oldest.nodes.last().map_or(oldest.start, |n| n.1);
            self.rows.drain(..end - self.dropped);
            self.dropped = end;
            oldest
        } else {
            WaitFrame::default()
        };
        frame.now = now;
        frame.start = self.dropped + self.rows.len();
        frame.nodes.clear();
        self.frames.push_back(frame);
    }

    /// Adds the next node of the open frame.
    fn push(&mut self, r: &RouterSnapshot) {
        if !r.wait_edges.is_empty() {
            self.rows.extend(r.wait_edges.iter().copied());
        }
        let end = self.dropped + self.rows.len();
        if let Some(frame) = self.frames.back_mut() {
            frame.nodes.push((r.in_recovery, end));
        }
    }

    /// The frame of cycle `t`, if the history holds it.
    fn frame(&self, t: u64) -> Option<&WaitFrame> {
        let off = self.frames.back()?.now.checked_sub(t)?;
        let i = self.frames.len().checked_sub(1 + off as usize)?;
        Some(&self.frames[i])
    }

    /// The wait-edge rows of `node` in `frame`.
    fn rows_of<'a>(
        &'a self,
        frame: &WaitFrame,
        node: usize,
    ) -> impl Iterator<Item = &'a BlockedVcSummary> {
        let start = node
            .checked_sub(1)
            .map_or(frame.start, |prev| frame.nodes[prev].1);
        self.rows
            .range(start - self.dropped..frame.nodes[node].1 - self.dropped)
    }
}

impl Oracle {
    /// Creates an oracle armed for `config`.
    pub fn new(config: &SimConfig) -> Self {
        let mut oracle = Oracle::with_arming(config, ArmedInvariants::from_config(config));
        oracle.cthres = config.deadlock.cthres;
        let tl = config.fault_timeline();
        oracle.expected_configured = tl.events().to_vec();
        oracle.notify = tl.notify_latency();
        oracle.timeline = Some(tl);
        oracle.wearout_armed = config.fault_plan.wearout_spec().is_some();
        oracle
    }

    /// Creates an oracle for runs of `config` with an explicit arming
    /// matrix. Unlike [`Oracle::new`] it does not cross-check the
    /// snapshot's fault tables against the configuration (a test may
    /// doctor them freely), and the probe chase assumes the most
    /// permissive blocking threshold (1) instead of the configured
    /// `Cthres`.
    pub fn with_arming(config: &SimConfig, arm: ArmedInvariants) -> Self {
        let topo = config.topology;
        let nodes = topo.node_count();
        let vcs = config.router.vcs_per_port();
        let slots = nodes * config.router.ports() * vcs;
        Oracle {
            arm,
            router: config.router,
            topo,
            neighbors: topo
                .nodes()
                .map(|n| Direction::CARDINAL.map(|d| topo.neighbor_id(n, d).map(NodeId::index)))
                .collect(),
            arrivals: vec![Arrivals::default(); slots],
            tracked: vec![0; nodes * 4],
            prev_confirmed: vec![0; nodes],
            cthres: 1,
            hist: WaitHistory::default(),
            merged: PacketTable::default(),
            in_transit: Vec::new(),
            returning: vec![0; vcs],
            timeline: None,
            expected_configured: Vec::new(),
            wear_folded: 0,
            wearout_armed: false,
            notify: 0,
        }
    }

    /// The arming matrix in effect.
    pub fn arming(&self) -> &ArmedInvariants {
        &self.arm
    }

    /// Validates one commit-boundary snapshot. Returns the first
    /// violation found; internal tracking state is updated either way.
    ///
    /// One walk: the fault log and tables first, then one pass over the
    /// routers in which each router's live input rows, live output rows
    /// and outgoing links are visited once and feed every armed family,
    /// then the network-level decisions (conservation, the probe chase).
    /// Each family keeps its first violation; the earliest family's is
    /// returned (the family order is `Family`'s). Arrival and probe tracking advance on
    /// every check, after a failure too, so a caller that logs and
    /// continues keeps getting coherent results.
    pub fn check(&mut self, snap: &NetSnapshot) -> Result<(), Violation> {
        if cfg!(debug_assertions) {
            self.assert_live_masks(snap);
        }
        let mut out = Verdict {
            now: snap.now,
            first: None,
        };
        // Folds realized wear-out kills into the timeline mirror, so it
        // runs before the table comparison, and on every check.
        self.fault_events(snap, &mut out);
        self.fault_tables(snap, &mut out);
        let probe = self.arm.probe;
        if probe {
            // The chase for a confirmation observed at cycle `T` needs
            // the frame of `T` itself, so this cycle is recorded first.
            self.hist.start(snap.now, 4 * snap.routers.len() + 4);
        }
        let conservation = self.arm.conservation && out.open(Family::Conservation);
        // The run of one packet's flits being merged (see `Oracle::mark`).
        let mut run = None;
        if conservation {
            self.merged.reset();
            for pe in &snap.pes {
                self.mark(&pe.injecting, &mut run);
            }
        }
        let mut advanced = None;
        for (n, r) in snap.routers.iter().enumerate() {
            // Dead router: the flag agrees with the table, before the
            // walk trusts the flag.
            let listed = snap.dead_routers.iter().any(|&(m, _)| m == n);
            if r.dead != listed {
                out.note(Family::DeadRouter, Some(n), || {
                    format!(
                        "router dead flag is {} but the dead-router table {} it",
                        r.dead,
                        if listed { "lists" } else { "omits" }
                    )
                });
            }
            self.input_rows(snap, n, r, &mut out);
            self.output_rows(snap, n, r, &mut out);
            if self.arm.credit_bound && out.open(Family::Credits) {
                self.link_credits(snap, n, r, &mut out);
            }
            if conservation {
                self.mark(&r.flits, &mut run);
                self.mark(r.slots.iter().map(|(f, _)| f), &mut run);
                if let Some(w) = snap.wires.get(n) {
                    self.mark(w.flit_in.iter().flatten().map(|s| &s.0), &mut run);
                }
            }
            if probe {
                self.hist.push(r);
                if advanced.is_none() && r.deadlocks_confirmed != self.prev_confirmed[n] {
                    advanced = Some(n);
                }
            }
        }
        if conservation {
            if let Some((pkt, mask)) = run {
                self.merged.add(pkt, mask);
            }
            self.conservation(snap, &mut out);
        }
        if let Some(from) = advanced {
            self.confirmations(snap, from, &mut out);
        }
        match out.first {
            Some((_, v)) => Err(v),
            None => Ok(()),
        }
    }

    /// Debug builds: every router has the run's shape and the live
    /// masks name exactly the VCs whose rows are not idle — what the
    /// walk relies on to skip a VC — so a doctored snapshot that forgets
    /// a bit fails here, loudly, rather than passing a family that never
    /// looked at the VC.
    fn assert_live_masks(&self, snap: &NetSnapshot) {
        let (ports, vcs) = (self.router.ports(), self.router.vcs_per_port());
        let stray = |live: u64| vcs < 64 && live >> vcs != 0;
        for (n, r) in snap.routers.iter().enumerate() {
            let shape = [r.ports.len(), r.live_in.len(), r.live_out.len()];
            assert!(
                shape == [ports; 3]
                    && r.inputs.len() == ports * vcs
                    && r.outputs.len() == ports * vcs,
                "node {n}: {shape:?} ports / input / output live masks and {} input and {} \
                 output rows for {ports} ports of {vcs} VCs",
                r.inputs.len(),
                r.outputs.len()
            );
            for (p, (rows, &live)) in r.inputs.chunks(vcs).zip(&r.live_in).enumerate() {
                assert!(!stray(live), "node {n} input {p}: live mask {live:#b}");
                for (v, row) in rows.iter().enumerate() {
                    assert!(
                        (live >> v & 1 == 1) != row.is_idle(),
                        "node {n} input {p}.{v}: live mask {live:#b} disagrees with {row:?}"
                    );
                }
            }
            for (p, (rows, &live)) in r.outputs.chunks(vcs).zip(&r.live_out).enumerate() {
                assert!(!stray(live), "node {n} output {p}: live mask {live:#b}");
                let full = full_credits(&self.router, p);
                for (v, row) in rows.iter().enumerate() {
                    assert!(
                        (live >> v & 1 == 1) != row.is_idle(full),
                        "node {n} output {p}.{v}: live mask {live:#b} disagrees with {row:?}"
                    );
                }
            }
        }
    }

    /// Fault-log validation (armed whenever the oracle knows the run's
    /// configuration): the snapshot's fault-event feed must carry
    /// exactly the configured kills the timeline implies, and every
    /// wear-out entry must be one the run could legally realize — a
    /// wear-out model is configured, the target is an existing link not
    /// already dead, the event is realized (not from the future) and
    /// published with the configured lag. Each valid new wear-out event
    /// is folded into the oracle's timeline mirror so the dead-port
    /// table comparison keeps tracking online deaths.
    fn fault_events(&mut self, snap: &NetSnapshot, out: &mut Verdict) {
        if self.timeline.is_none() {
            return;
        }
        let mut violation = |detail: String| out.note(Family::FaultEvents, None, || detail);
        // The log's two subsequences, compared where they lie: the
        // messages alone collect them.
        let events = |wearout: bool| {
            snap.fault_events
                .iter()
                .filter(move |e| (e.cause == FaultCause::Wearout) == wearout)
                .copied()
        };
        if !events(false).eq(self.expected_configured.iter().copied()) {
            return violation(format!(
                "snapshot logs configured fault events {:?} but the \
                 run configuration implies {:?}",
                events(false).collect::<Vec<_>>(),
                self.expected_configured
            ));
        }
        let folded = events(true).take(self.wear_folded);
        if folded.clone().count() < self.wear_folded
            || folded.clone().zip(folded.skip(1)).any(|(a, b)| a.at > b.at)
        {
            return violation(format!(
                "the realized wear-out subsequence rewrote history: {} events \
                 were already validated, log now holds {:?}",
                self.wear_folded,
                events(true).collect::<Vec<_>>()
            ));
        }
        for ev in events(true).skip(self.wear_folded) {
            if !self.wearout_armed {
                return violation(format!(
                    "wear-out event {ev:?} in a run with no wear-out model"
                ));
            }
            let FaultEventKind::LinkDown { node, dir } = ev.kind else {
                return violation(format!(
                    "wear-out event {ev:?} claims a whole router; wear-out \
                     kills links"
                ));
            };
            if ev.at > snap.now {
                return violation(format!(
                    "wear-out event {ev:?} is logged before being realized \
                     (snapshot cycle {})",
                    snap.now
                ));
            }
            if ev.published_at != ev.at.saturating_add(self.notify) {
                return violation(format!(
                    "wear-out event {ev:?} publishes with the wrong lag \
                     (configured notify latency {})",
                    self.notify
                ));
            }
            if dir == Direction::Local
                || self
                    .neighbors
                    .get(node.index())
                    .is_none_or(|row| row[dir.index()].is_none())
            {
                return violation(format!(
                    "wear-out event {ev:?} names a link the topology does not \
                     have"
                ));
            }
            let tl = self.timeline.as_mut().expect("checked above");
            if !tl.push_link_kill(ev.at, node, dir) {
                return violation(format!(
                    "wear-out event {ev:?} kills a link that is already dead"
                ));
            }
            self.wear_folded += 1;
        }
    }

    /// The fault tables and the dead-port allocation invariant.
    ///
    /// Consistency (armed whenever the oracle knows the run's fault
    /// history, i.e. it was built with [`Oracle::new`]): the snapshot's
    /// published `dead_ports` and `dead_routers` tables must equal, entry
    /// for entry, what the configuration's [`FaultTimeline`] implies for
    /// the snapshot cycle — the simulator may neither hide a death nor
    /// invent one.
    ///
    /// Dead-port allocation (armed per [`ArmedInvariants::dead_port`]):
    /// no output VC on a dead port may hold a reservation granted at or
    /// after the link's death cycle. Reservations granted strictly
    /// before the death are legal — that wormhole is draining through
    /// the reconfiguration transition — but a *new* grant onto a port
    /// the router already knows is dead means the fault-aware VA filter
    /// (or a legacy algorithm's live-link fallback) let a packet route
    /// into the hole. It visits the dead ports only.
    fn fault_tables(&self, snap: &NetSnapshot, out: &mut Verdict) {
        if let Some(tl) = &self.timeline {
            // Snapshots are taken after `step()`, so the table reflects
            // deaths detectable by the end of cycle `now - 1`.
            let expect = || {
                tl.dead_ports_at(snap.now.saturating_sub(1))
                    .map(|(n, d, since)| (n.index(), d.index(), since))
            };
            if !snap.dead_ports.iter().copied().eq(expect()) {
                out.note(Family::DeadPortTable, None, || {
                    format!(
                        "snapshot publishes dead ports {:?} but the run's fault \
                         history implies {:?}",
                        snap.dead_ports,
                        expect().collect::<Vec<_>>()
                    )
                });
            }
            // `now`, not `now - 1`: the kill purge runs in the commit of
            // cycle `at - 1`, so a router dying at `now` is already dead
            // in a snapshot taken at `now` (see the snapshot builder).
            let expect = || {
                tl.dead_routers_at(snap.now)
                    .map(|(n, since)| (n.index(), since))
            };
            if !snap.dead_routers.iter().copied().eq(expect()) {
                out.note(Family::DeadRouterTable, None, || {
                    format!(
                        "snapshot publishes dead routers {:?} but the run's \
                         fault history implies {:?}",
                        snap.dead_routers,
                        expect().collect::<Vec<_>>()
                    )
                });
            }
        }
        if !self.arm.dead_port || !out.open(Family::DeadPort) {
            return;
        }
        let vcs = self.router.vcs_per_port();
        for &(n, d, since) in &snap.dead_ports {
            let Some(r) = snap.routers.get(n) else {
                continue;
            };
            let Some(rows) = r.outputs.get(d * vcs..(d + 1) * vcs) else {
                continue;
            };
            for (ov, row) in rows.iter().enumerate() {
                let (Some((p, v)), Some(at)) = (row.allocated, row.allocated_at) else {
                    continue;
                };
                if at >= since {
                    return out.note(Family::DeadPort, Some(n), || {
                        format!(
                            "output {d}.{ov} is on a link dead since cycle {since} but \
                             holds a reservation for input {p}.{v} granted at cycle {at}"
                        )
                    });
                }
            }
        }
    }

    /// Router `n`'s live input rows, and for arrival the cardinal VCs it
    /// tracked last cycle, each visited once for every family that reads
    /// input VCs:
    ///
    /// - *Structural* (always): each VC within its cap, and each port
    ///   within the reserved-slot floor: Σ_v max(len(v), 1) ≤ vcs +
    ///   shared, counting every empty VC's reserved slot. That is the
    ///   structural form of the liveness guarantee that an empty VC can
    ///   always accept one flit (wormhole atomicity / §3.2 recovery). An
    ///   idle VC counts its one, so an idle port meets both bounds.
    /// - *Dead router* and *activity* (always): a dead router, and one
    ///   whose compute phase was skipped this cycle, hold no live input
    ///   VC, so the first one fails.
    /// - *Exclusivity* (§4): an active input VC points at an existing
    ///   output VC whose reservation records it, unless an absorbed
    ///   (held) slot explains the stale reservation. Routers in deadlock
    ///   recovery are skipped: recovery takeovers legitimately leave
    ///   stale reservations while held flits drain. An output VC claimed
    ///   by two active input VCs records at most one of them, so the
    ///   second claim in (port, VC) order is the one whose reservation
    ///   differs; it names both when the reservation records the first.
    /// - *Wormhole ordering*: adjacent flits are either consecutive
    ///   flits of one packet or a tail→head boundary.
    /// - *Arrival monotonicity* (HBH go-back-N replay equivalence):
    ///   every flit accepted into a cardinal input VC either starts a
    ///   packet (head) or advances strictly forward through the packet
    ///   whose wormhole is open. Arrivals are detected by back-of-FIFO
    ///   identity change; same-cycle arrive-and-depart flits are
    ///   unobservable at the commit boundary, hence monotone (`seq`
    ///   strictly increasing) rather than exact `seq + 1` succession.
    ///   An idle VC with nothing tracked is a no-op.
    fn input_rows(&mut self, snap: &NetSnapshot, n: usize, r: &RouterSnapshot, out: &mut Verdict) {
        let (ports, vcs) = (self.router.ports(), self.router.vcs_per_port());
        let cap = self.router.port_capacity();
        let corpse = r.dead;
        let skipped = !snap.computed.get(n).copied().unwrap_or(true);
        let exclusive = self.arm.exclusivity && !r.in_recovery && out.open(Family::Exclusivity);
        let ordering = self.arm.ordering && out.open(Family::Ordering);
        let arrival = self.arm.arrival;
        for (p, &live) in r.live_in.iter().enumerate() {
            let track = arrival && p < 4;
            let tracked = if track { self.tracked[n * 4 + p] } else { 0 };
            if live | tracked == 0 {
                continue;
            }
            let (mut floor, mut backs) = (vcs, 0);
            for v in ones(live | tracked) {
                let row = &r.inputs[p * vcs + v];
                let flits = row.flits.of(&r.flits);
                if live >> v & 1 == 1 {
                    let len = flits.len();
                    floor += len.saturating_sub(1);
                    if len > cap.per_vc {
                        out.note(Family::Structural, Some(n), || {
                            format!("input {p}.{v} holds {len} flits, capacity {}", cap.per_vc)
                        });
                    }
                    if corpse {
                        out.note(Family::DeadRouter, Some(n), || {
                            format!(
                                "dead router still holds {len} flits in input {p}.{v} \
                                 (state {:?})",
                                row.state
                            )
                        });
                    }
                    if skipped {
                        out.note(Family::Activity, Some(n), || {
                            format!(
                                "compute skipped but input {p}.{v} holds {len} flits in \
                                 state {:?}",
                                row.state
                            )
                        });
                    }
                    if exclusive {
                        exclusive_input(r, vcs, (p, v), n, out);
                    }
                    if ordering {
                        ordered(flits, (p, v), n, out);
                    }
                }
                if track {
                    let seen = &mut self.arrivals[(n * ports + p) * vcs + v];
                    let back = flits.last();
                    let cur = back.map(key);
                    if let Some(f) = back.filter(|_| cur != seen.back) {
                        let ok = match seen.last {
                            None | Some((_, _, true)) => f.kind.is_head(),
                            Some((pkt, seq, false)) => {
                                f.kind.is_head() || (f.packet.raw() == pkt && f.seq > seq)
                            }
                        };
                        if !ok {
                            let last = seen.last;
                            out.note(Family::Arrival, Some(n), || {
                                format!(
                                    "input {p}.{v} accepted {} {:?}#{} after {last:?}",
                                    f.packet, f.kind, f.seq
                                )
                            });
                        }
                        seen.last = Some((f.packet.raw(), f.seq, f.kind.is_tail()));
                    }
                    seen.back = cur;
                    backs |= u64::from(cur.is_some()) << v;
                }
            }
            if track {
                self.tracked[n * 4 + p] = backs;
            }
            let slots = vcs + cap.shared;
            if live != 0 && floor > slots {
                out.note(Family::Structural, Some(n), || {
                    format!(
                        "input port {p} breaks the reserved-slot floor: \
                         Σ max(len, 1) = {floor} > {slots} slots"
                    )
                });
            }
        }
    }

    /// Router `n`'s output ports and live output rows, each visited once
    /// for every family that reads them, then its inbound wires for the
    /// two that must find them empty:
    ///
    /// - *Structural* (always): an ST queue holds at most two entries and
    ///   a retransmission sender at most its depth.
    /// - *Dead router* (always): the death purge drained the router's
    ///   ST queues, reservations, senders and wires, and its terminals
    ///   neither hold nor generate traffic.
    /// - *Activity* (always): a router whose compute phase was skipped
    ///   this cycle (`!snap.computed[n]`) must have been provably
    ///   quiescent — empty ST queues, no output reservations, empty
    ///   senders, no replay pending, and no inbound wire entry that was
    ///   already due (a due entry left unpopped is a missed wake-up).
    ///   "No armed fault" needs no check of its own: the fault RNG is
    ///   counter-based, keyed on `(router, cycle)`, so a skipped cycle
    ///   consumes no draws by construction. `in_recovery` is
    ///   deliberately *not* required to be false: a deadlock activation
    ///   delivered during the same cycle's commit can flip a
    ///   legitimately-skipped router into recovery after its (skipped)
    ///   compute slot; the wake-up wheel guarantees it computes next
    ///   cycle.
    /// - *Exclusivity* (§4): a reservation names an input VC active on
    ///   it, unless an absorbed slot explains it.
    fn output_rows(&self, snap: &NetSnapshot, n: usize, r: &RouterSnapshot, out: &mut Verdict) {
        let vcs = self.router.vcs_per_port();
        let depth = self.router.retrans_depth();
        let corpse = r.dead;
        let skipped = !snap.computed.get(n).copied().unwrap_or(true);
        let exclusive = self.arm.exclusivity && !r.in_recovery && out.open(Family::Exclusivity);
        for (op, (port, &live)) in r.ports.iter().zip(&r.live_out).enumerate() {
            let queued = port.st_queue.len();
            if queued > 2 {
                out.note(Family::Structural, Some(n), || {
                    format!("output {op} ST queue holds {queued}")
                });
            }
            if queued > 0 && corpse {
                out.note(Family::DeadRouter, Some(n), || {
                    format!("dead router has a non-empty ST queue on output {op}")
                });
            }
            if queued > 0 && skipped {
                out.note(Family::Activity, Some(n), || {
                    format!("compute skipped but output {op} ST queue is non-empty")
                });
            }
            for ov in ones(live) {
                let row = &r.outputs[op * vcs + ov];
                let len = row.slots.len();
                if len > depth {
                    out.note(Family::Structural, Some(n), || {
                        format!("sender {op}.{ov} holds {len} slots, depth {depth}")
                    });
                }
                let occupied = row.allocated.is_some() || len > 0;
                if corpse && occupied {
                    out.note(Family::DeadRouter, Some(n), || {
                        format!(
                            "dead router output {op}.{ov} holds a reservation \
                             or retransmission slots"
                        )
                    });
                }
                if skipped && (occupied || row.replaying) {
                    out.note(Family::Activity, Some(n), || {
                        format!(
                            "compute skipped but output {op}.{ov} has a reservation or \
                             occupied retransmission sender"
                        )
                    });
                }
                if exclusive {
                    if let Some((p, v)) = row.allocated {
                        if !active_on(r, vcs, (p, v), op, ov) && !held(r, vcs, op, ov) {
                            out.note(Family::Exclusivity, Some(n), || {
                                format!(
                                    "reservation {op}.{ov} names {p}.{v}, which is not \
                                     active on it"
                                )
                            });
                        }
                    }
                }
            }
        }
        if corpse {
            if let Some(w) = snap.wires.get(n) {
                if let Some(p) = w.flit_in.iter().position(Option::is_some) {
                    out.note(Family::DeadRouter, Some(n), || {
                        format!("a flit is in flight into dead router port {p}")
                    });
                }
            }
            let router = NodeId::new(n as u16);
            for port in 4..self.router.ports() {
                let t = self.topo.terminal_at(router, port).index();
                let busy = snap.pes.get(t);
                if busy.is_some_and(|pe| pe.queued > 0 || !pe.injecting.is_empty()) {
                    out.note(Family::DeadRouter, Some(n), || {
                        format!("terminal {t} of a dead router still holds traffic")
                    });
                }
            }
        }
        if skipped {
            // Wire entries due strictly before `snap.now` were due at the
            // skipped cycle (`now - 1`) and would have been popped by a
            // computing router; entries due at `snap.now` were scheduled
            // during this commit and are fine.
            let w = &snap.wires[n];
            for (p, slot) in w.flit_in.iter().enumerate() {
                if let Some(&(_, _, at)) = slot.as_ref().filter(|s| s.2 < snap.now) {
                    out.note(Family::Activity, Some(n), || {
                        format!("compute skipped but a flit was due on port {p} at {at}")
                    });
                }
            }
            for (d, (credits, nacks)) in w.credits_in.iter().zip(&w.nacks_in).enumerate() {
                if let Some(&(_, at)) = credits.iter().chain(nacks).find(|(_, at)| *at < snap.now) {
                    out.note(Family::Activity, Some(n), || {
                        format!("compute skipped but a credit/NACK was due on link {d} at {at}")
                    });
                }
            }
        }
    }

    /// Credit accounting on router `n`'s outgoing links, per (direction,
    /// VC): credits left plus every distinct flit holding one (ST queue,
    /// on the wire, in the downstream buffer) plus credits in flight back
    /// can never exceed the downstream VC's cap (`per_vc` of the port
    /// capacity) — and equal it exactly in fault-free runs. A lost credit
    /// decrement or a doubled increment shows up as the left side
    /// exceeding it.
    ///
    /// Replay duplicates are deduplicated by flit identity: a
    /// retransmitted copy shares its original's credit.
    ///
    /// A VC with full credits and nothing queued, on the wire, downstream
    /// or returning for it sums to exactly the cap, so only the VCs that
    /// one of those names are decided: the live output VCs (credits off
    /// the cap are live), the live downstream input VCs, and the tags in
    /// the ST queue, on the wire and in the returning credits. One pass
    /// over those three tallies each VC's share of them.
    fn link_credits(
        &mut self,
        snap: &NetSnapshot,
        n: usize,
        r: &RouterSnapshot,
        out: &mut Verdict,
    ) {
        let vcs = self.router.vcs_per_port();
        let per_vc = self.router.port_capacity().per_vc;
        let credits_in = &snap.wires[n].credits_in;
        let (links, live_out) = (self.neighbors[n], &r.live_out[..4]);
        for (op, m) in links.into_iter().enumerate() {
            let Some(m) = m else {
                continue;
            };
            let d = Direction::CARDINAL[op];
            let q = d.opposite().index();
            let down = &snap.routers[m];
            let mut suspects = live_out[op] | down.live_in[q];
            self.in_transit.clear();
            if !r.ports[op].st_queue.is_empty() {
                for (f, tag) in r.st_queue(op) {
                    suspects |= vc_bit(tag, vcs);
                    self.in_transit.push((usize::from(tag), key(f)));
                }
            }
            if let Some((f, wv, _)) = &snap.wires[m].flit_in[q] {
                suspects |= vc_bit(*wv, vcs);
                // Replayed wire flits are skipped: the barrel shifter
                // replays every unexpired slot after a NACK, so a
                // retransmitted copy may duplicate a flit that was
                // already accepted, popped and credited downstream.
                // Skipping can only undercount, which keeps the bound
                // sound (and fault-free runs never retransmit).
                if f.retransmissions == 0 {
                    self.in_transit.push((usize::from(*wv), key(f)));
                }
            }
            for &(cv, _) in &credits_in[op] {
                let bit = vc_bit(cv, vcs);
                suspects |= bit;
                if bit != 0 {
                    self.returning[usize::from(cv)] += 1;
                }
            }
            for v in ones(suspects) {
                let pending = self.returning.get_mut(v).map_or(0, std::mem::take);
                let resident = down.inputs[q * vcs + v].flits.of(&down.flits);
                let transit = &self.in_transit;
                // Each flit holds one credit, however many copies of it
                // are resident, queued or on the wire.
                let mut held = 0;
                for (i, f) in resident.iter().enumerate() {
                    let k = key(f);
                    held += usize::from(!resident[..i].iter().any(|g| key(g) == k));
                }
                for (j, &(tv, k)) in transit.iter().enumerate() {
                    held += usize::from(
                        tv == v
                            && !resident.iter().any(|g| key(g) == k)
                            && !transit[..j].contains(&(v, k)),
                    );
                }
                let credits = r.outputs[op * vcs + v].credits as usize;
                let lhs = credits + held + pending;
                if lhs > per_vc || (self.arm.credit_exact && lhs != per_vc) {
                    out.note(Family::Credits, Some(n), || {
                        format!(
                            "link {d:?} vc {v}: {credits} credits + {held} resident + \
                             {pending} returning = {lhs}, buffer depth {per_vc}"
                        )
                    });
                }
            }
        }
    }

    /// Marks `flits` into the conservation table, merging a run of one
    /// packet's flits in `run` before its one lookup.
    #[inline]
    fn mark<'a>(
        &mut self,
        flits: impl IntoIterator<Item = &'a Flit>,
        run: &mut Option<(u64, u128)>,
    ) {
        for f in flits {
            if f.seq >= 128 {
                continue;
            }
            let (pkt, bit) = (f.packet.raw(), 1u128 << f.seq);
            match run {
                Some((p, mask)) if *p == pkt => *mask |= bit,
                _ => {
                    if let Some((p, mask)) = run.replace((pkt, bit)) {
                        self.merged.add(p, mask);
                    }
                }
            }
        }
    }

    /// Flit conservation, with the loss-accounting seam: for every
    /// packet, the union of resident copies (injection front, input
    /// buffers, ST queues, wires, retransmission slots) **and the loss
    /// ledger** covers a contiguous seq range — a hole means a flit
    /// vanished with neither a replay copy nor a loss record. The
    /// ledger itself must be exact: its per-packet masks sum to the
    /// `flits_lost` counter and never overlap a resident copy (a flit
    /// is delivered, in flight, or lost — never two at once).
    ///
    /// The walk marked every router's two arenas (which hold every flit
    /// and slot it has) and wires, and the PEs' fronts, merging per
    /// packet in the table; one unsorted pass over it decides, naming
    /// the lowest broken packet.
    fn conservation(&self, snap: &NetSnapshot, out: &mut Verdict) {
        let mut violation = |detail: String| out.note(Family::Conservation, None, || detail);
        let ledgered: u64 = snap
            .lost
            .iter()
            .map(|&(_, m)| u64::from(m.count_ones()))
            .sum();
        if ledgered != snap.flits_lost {
            return violation(format!(
                "the loss ledger's masks name {ledgered} flits but the \
                 flits_lost counter says {}",
                snap.flits_lost
            ));
        }
        let hole = |pkt: u64, mask: u128| {
            format!(
                "packet p{pkt} resident∪lost seq mask {mask:#b} has a \
                 hole — a flit vanished with neither a retransmission \
                 copy nor a loss record"
            )
        };
        // One pass decides, and keeps the lowest broken packet so the
        // violation named is the same whatever order the table holds.
        let broken = self
            .merged
            .iter()
            .filter(|&(pkt, mask)| {
                let lost = lost_mask(snap, pkt);
                mask & lost != 0 || !contiguous(mask | lost)
            })
            .min_by_key(|&(pkt, _)| pkt);
        if let Some((pkt, mask)) = broken {
            let lost = lost_mask(snap, pkt);
            if mask & lost != 0 {
                return violation(format!(
                    "packet p{pkt} has flits both resident ({mask:#b}) and \
                     in the loss ledger ({lost:#b}) — the death purge left \
                     a copy of an amputated flit"
                ));
            }
            return violation(hole(pkt, mask | lost));
        }
        for &(pkt, mask) in &snap.lost {
            if mask == 0 {
                return violation(format!("packet p{pkt} has an empty loss-ledger entry"));
            }
            if self.merged.get(pkt).is_none() && !contiguous(mask) {
                return violation(hole(pkt, mask));
            }
        }
    }

    /// Probe soundness (§3.2.2), for the nodes from `from` on (the walk
    /// found no counter moved before it): when a node's
    /// `deadlocks_confirmed` counter advances, a *temporally consistent*
    /// chain of blocked channels must explain it — some probe launch (a
    /// buffer blocked for at least `Cthres` cycles) from this node,
    /// forwarded one hop per cycle through buffers that were blocked (or
    /// routers in recovery, Rule 2) *at the instant the probe traversed
    /// them*, and closing back at this node exactly now.
    ///
    /// The probe side-band takes one cycle per hop, so the certificate a
    /// returned probe carries is temporal, not a single-snapshot cycle:
    /// each link was blocked when crossed. For a real deadlock the wait
    /// graph is static and the two coincide; a confirmation that no
    /// temporal chain supports would mean the Rules fired on a deadlock
    /// that never existed in any form. Confirmations near a restart of
    /// the history are accepted unverified.
    fn confirmations(&mut self, snap: &NetSnapshot, from: usize, out: &mut Verdict) {
        for (n, r) in snap.routers.iter().enumerate().skip(from) {
            let confirmed = r.deadlocks_confirmed;
            if confirmed > self.prev_confirmed[n]
                && out.open(Family::Probe)
                && !self.confirmation_explained(snap, n)
            {
                out.note(Family::Probe, Some(n), || {
                    format!(
                        "deadlock confirmation #{confirmed} but no temporally \
                         consistent blocked chain returns to this node"
                    )
                });
            }
            self.prev_confirmed[n] = confirmed;
        }
    }

    /// Searches the wait-edge history for a probe chase that explains a
    /// confirmation at `origin` at the current cycle (the newest frame).
    ///
    /// States are `(deliver_cycle, node, named VC)`. Each hop reads the
    /// named row from the frame of its deliver cycle *or* the one
    /// before: the engine processes probes mid-commit, so the state it
    /// saw lies between the two commit-boundary frames. The tolerance
    /// only widens the accepted set — the oracle must never flag a
    /// confirmation the protocol legitimately produced.
    fn confirmation_explained(&self, snap: &NetSnapshot, origin: usize) -> bool {
        let t_max = snap.now;
        let hop_cap = (4 * snap.routers.len()) as u64 + 1;
        let Some(front) = self.hist.frames.front() else {
            return true;
        };
        // Launches before recorded history cannot be ruled out.
        let unverifiable_horizon = front.now > t_max.saturating_sub(hop_cap);
        let frame = |t: u64| self.hist.frame(t);
        let row_of = |f: &WaitFrame, node: usize, named: VcRef| -> Option<BlockedVcSummary> {
            self.hist.rows_of(f, node).find(|r| r.0 == named).copied()
        };
        // Seed with every launch the history can support: a row at the
        // origin blocked for >= Cthres cycles with a known onward edge
        // (Rule 1). The probe is delivered to the neighbor next cycle.
        let mut queue: Vec<(u64, usize, VcRef)> = Vec::new();
        #[allow(clippy::disallowed_types, reason = "lookup-only: first-insert test")]
        let mut seen = std::collections::HashSet::new();
        for t0 in t_max.saturating_sub(hop_cap)..t_max.saturating_sub(1) {
            for off in 0..2u64 {
                let Some(f) = t0.checked_sub(off).and_then(&frame) else {
                    continue;
                };
                for row in self.hist.rows_of(f, origin) {
                    let (_, blocked_cycles, blocked, fwd) = *row;
                    if !blocked || blocked_cycles < self.cthres {
                        continue;
                    }
                    let Some((via, named)) = fwd else { continue };
                    let Some(next) = self.neighbors[origin][via.index()] else {
                        continue;
                    };
                    if seen.insert((t0 + 1, next, named)) {
                        queue.push((t0 + 1, next, named));
                    }
                }
            }
        }
        // Chase forward one hop per cycle until some branch re-enters
        // the origin exactly at the confirmation cycle.
        while let Some((t, node, named)) = queue.pop() {
            if t > t_max {
                continue;
            }
            if node == origin {
                if t == t_max {
                    return true;
                }
                continue;
            }
            for off in 0..2u64 {
                let Some(f) = t.checked_sub(off).and_then(&frame) else {
                    continue;
                };
                let Some((_, _, blocked, fwd)) = row_of(f, node, named) else {
                    continue;
                };
                if !blocked && !f.nodes[node].0 {
                    continue;
                }
                let Some((dir, next_named)) = fwd else {
                    continue;
                };
                let Some(next) = self.neighbors[node][dir.index()] else {
                    continue;
                };
                if seen.insert((t + 1, next, next_named)) {
                    queue.push((t + 1, next, next_named));
                }
            }
        }
        unverifiable_horizon
    }
}

/// Whether input VC `(p, v)` of `r` exists and is active on `(op, ov)`.
#[inline]
fn active_on(r: &RouterSnapshot, vcs: usize, (p, v): (usize, usize), op: usize, ov: usize) -> bool {
    p < r.ports.len()
        && v < vcs
        && matches!(
            r.inputs[p * vcs + v].state,
            VcStateView::Active { out_port, out_vc } if out_port == op && out_vc == ov
        )
}

/// Whether output VC `(op, ov)` of `r` holds an absorbed (held) slot.
#[inline]
fn held(r: &RouterSnapshot, vcs: usize, op: usize, ov: usize) -> bool {
    let slots = r.outputs[op * vcs + ov].slots.of(&r.slots);
    slots.iter().any(|(_, held)| *held)
}

/// The exclusivity step of live input VC `(p, v)` of router `n` (see
/// [`Oracle::check`]'s input pass).
fn exclusive_input(
    r: &RouterSnapshot,
    vcs: usize,
    (p, v): (usize, usize),
    n: usize,
    out: &mut Verdict,
) {
    let VcStateView::Active { out_port, out_vc } = r.inputs[p * vcs + v].state else {
        return;
    };
    if out_port >= r.ports.len() || !r.ports[out_port].exists || out_vc >= vcs {
        return out.note(Family::Exclusivity, Some(n), || {
            format!("input {p}.{v} active toward invalid {out_port}.{out_vc}")
        });
    }
    let alloc = r.outputs[out_port * vcs + out_vc].allocated;
    if alloc == Some((p, v)) || held(r, vcs, out_port, out_vc) {
        return;
    }
    let first = alloc.filter(|&(q, w)| {
        (q, w) < (p, v) && r.live_in[q] >> w & 1 == 1 && active_on(r, vcs, (q, w), out_port, out_vc)
    });
    out.note(Family::Exclusivity, Some(n), || match first {
        Some((q, w)) => {
            format!("output VC {out_port}.{out_vc} allocated to both {q}.{w} and {p}.{v}")
        }
        None => format!(
            "input {p}.{v} active toward {out_port}.{out_vc} but the reservation records \
             {alloc:?}"
        ),
    });
}

/// The wormhole-ordering step of live input VC `(p, v)` of router `n`,
/// holding `flits`.
fn ordered(flits: &[Flit], (p, v): (usize, usize), n: usize, out: &mut Verdict) {
    for pair in flits.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let continues = !a.kind.is_tail()
            && b.packet == a.packet
            && b.seq == a.seq.wrapping_add(1)
            && !b.kind.is_head();
        let boundary = a.kind.is_tail() && b.kind.is_head();
        if !continues && !boundary {
            return out.note(Family::Ordering, Some(n), || {
                format!(
                    "input {p}.{v} holds {} {:?}#{} directly after {} {:?}#{}",
                    b.packet, b.kind, b.seq, a.packet, a.kind, a.seq
                )
            });
        }
    }
}
