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
use ftnoc_sim::snapshot::{full_credits, NetSnapshot, VcStateView};
use ftnoc_sim::{RoutingAlgorithm, SimConfig};
use ftnoc_types::config::RouterConfig;
use ftnoc_types::flit::Flit;
use ftnoc_types::geom::{Direction, NodeId};

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

impl Violation {
    fn new(cycle: u64, node: usize, invariant: &'static str, detail: String) -> Self {
        Violation {
            cycle,
            node: Some(node),
            invariant,
            detail,
        }
    }
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

/// The invariant oracle. Feed it one snapshot per cycle via
/// [`Oracle::check`]; the first violation is returned as an error.
pub struct Oracle {
    arm: ArmedInvariants,
    /// The run's router shape: radix, VCs per port, buffer depth and
    /// organisation.
    router: RouterConfig,
    /// `neighbors[n][d]`: the node reached from node `n` in cardinal
    /// direction `d`, if the link exists.
    neighbors: Vec<[Option<usize>; 4]>,
    /// Back-of-buffer identity per input VC last cycle (arrival
    /// detection: a FIFO's back only changes on push).
    prev_back: Vec<Option<(u64, u8)>>,
    /// Last observed arrival per input VC: `(packet, seq, was_tail)`.
    last_arrival: Vec<Option<(u64, u8, bool)>>,
    /// Per cardinal input port (`n * 4 + p`): the VCs whose `prev_back`
    /// is set, so arrival visits them beside the live ones and a VC
    /// that drained still resets its tracking.
    tracked: Vec<u64>,
    /// `deadlocks_confirmed` per node last cycle.
    prev_confirmed: Vec<u64>,
    /// Blocking threshold of the run (probe Rule 1); launches below it
    /// cannot explain a confirmation.
    cthres: u64,
    /// Recent wait-edge history, oldest first, for the temporal probe
    /// chase (see [`Oracle::check_probe`]).
    hist: WaitHistory,
    /// Scratch for conservation: every resident packet with its seq
    /// bitmask, merged from wherever its flits sit.
    merged: PacketTable,
    /// Scratch for credit accounting: the distinct flits holding one
    /// downstream VC's credits.
    holders: Vec<(u64, u8)>,
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
    /// Appends the frame of `snap`, handing the oldest frame's storage
    /// back once `window` frames are held. History must be contiguous
    /// (one frame per cycle) for hop timing to line up, so a gap
    /// restarts it.
    fn record(&mut self, snap: &NetSnapshot, window: usize) {
        if self.frames.back().is_some_and(|f| f.now + 1 != snap.now) {
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
        frame.now = snap.now;
        frame.start = self.dropped + self.rows.len();
        frame.nodes.clear();
        for r in &snap.routers {
            self.rows.extend(r.wait_edges.iter().copied());
            frame
                .nodes
                .push((r.in_recovery, self.dropped + self.rows.len()));
        }
        self.frames.push_back(frame);
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
        let slots = nodes * config.router.ports() * config.router.vcs_per_port();
        Oracle {
            arm,
            router: config.router,
            neighbors: topo
                .nodes()
                .map(|n| Direction::CARDINAL.map(|d| topo.neighbor_id(n, d).map(NodeId::index)))
                .collect(),
            prev_back: vec![None; slots],
            last_arrival: vec![None; slots],
            tracked: vec![0; nodes * 4],
            prev_confirmed: vec![0; nodes],
            cthres: 1,
            hist: WaitHistory::default(),
            merged: PacketTable::default(),
            holders: Vec::new(),
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
    pub fn check(&mut self, snap: &NetSnapshot) -> Result<(), Violation> {
        if cfg!(debug_assertions) {
            self.assert_live_masks(snap);
        }
        let mut first = self.check_structural(snap).err();
        // Fault-event validation folds realized wear-out kills into the
        // oracle's timeline mirror, so it must run every cycle (before
        // the table comparison, and even after an earlier failure) for
        // callers that log and continue.
        first = first.or(self.check_fault_events(snap));
        first = first.or_else(|| self.check_dead_ports(snap).err());
        // Before the activity check: a dead router is also a skipped
        // router, and a corpse holding traffic should be diagnosed as a
        // dead-router violation, not a missed wake-up.
        first = first.or_else(|| self.check_dead_routers(snap).err());
        first = first.or_else(|| self.check_activity(snap).err());
        if self.arm.exclusivity {
            first = first.or_else(|| self.check_exclusivity(snap).err());
        }
        if self.arm.ordering {
            first = first.or_else(|| self.check_ordering(snap).err());
        }
        if self.arm.credit_bound {
            first = first.or_else(|| self.check_credits(snap).err());
        }
        if self.arm.conservation {
            first = first.or_else(|| self.check_conservation(snap).err());
        }
        // These two update tracking state and must run every cycle even
        // after an earlier check failed, so that a caller that logs and
        // continues keeps getting coherent results.
        if self.arm.arrival {
            first = first.or(self.check_arrival(snap));
        }
        if self.arm.probe {
            first = first.or(self.check_probe(snap));
        }
        match first {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }

    /// Debug builds: every router has the run's shape and the live
    /// masks name exactly the VCs whose rows are not idle — what every
    /// family below relies on to skip a VC — so a doctored snapshot that
    /// forgets a bit fails here, loudly, rather than passing a family
    /// that never looked at the VC.
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

    /// Capacity bounds that hold in every configuration. Only live VCs
    /// hold flits or slots, so only they are visited.
    fn check_structural(&self, snap: &NetSnapshot) -> Result<(), Violation> {
        let vcs = self.router.vcs_per_port();
        let cap = self.router.port_capacity();
        let depth = self.router.retrans_depth();
        for (n, r) in snap.routers.iter().enumerate() {
            // An idle port meets both bounds: no flit, and one slot per VC.
            for (p, &live) in r.live_in.iter().enumerate().filter(|(_, &live)| live != 0) {
                // Σ_v max(len(v), 1), an idle VC counting its one.
                let mut floor = vcs;
                for v in ones(live) {
                    let len = r.inputs[p * vcs + v].flits.len();
                    floor += len.saturating_sub(1);
                    if len > cap.per_vc {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "structural",
                            format!("input {p}.{v} holds {len} flits, capacity {}", cap.per_vc),
                        ));
                    }
                }
                // Reserved-slot floor: counting every empty VC's
                // reserved slot, the port can never be oversubscribed —
                // Σ_v max(len(v), 1) ≤ vcs + shared. This is the
                // structural form of the liveness guarantee that an
                // empty VC can always accept one flit (wormhole
                // atomicity / §3.2 recovery).
                let slots = vcs + cap.shared;
                if floor > slots {
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "structural",
                        format!(
                            "input port {p} breaks the reserved-slot floor: \
                             Σ max(len, 1) = {floor} > {slots} slots"
                        ),
                    ));
                }
            }
            for (p, (port, &live)) in r.ports.iter().zip(&r.live_out).enumerate() {
                if port.st_queue.len() > 2 {
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "structural",
                        format!("output {p} ST queue holds {}", port.st_queue.len()),
                    ));
                }
                for v in ones(live) {
                    let len = r.outputs[p * vcs + v].slots.len();
                    if len > depth {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "structural",
                            format!("sender {p}.{v} holds {len} slots, depth {depth}"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Activity-gating soundness (armed in every configuration, like
    /// the structural bounds): a router whose compute phase was skipped
    /// this cycle (`!snap.computed[n]`) must have been provably
    /// quiescent — empty input buffers with idle VC state machines,
    /// empty ST queues, no output reservations, empty retransmission
    /// senders, and no inbound wire entry that was already due (a due
    /// entry left unpopped is a missed wake-up). "No armed fault"
    /// needs no check of its own: the fault RNG is counter-based,
    /// keyed on `(router, cycle)`, so a skipped cycle consumes no
    /// draws by construction — there is no stream position to desync.
    ///
    /// `in_recovery` is deliberately *not* required to be false: a
    /// deadlock activation delivered during the same cycle's commit can
    /// flip a legitimately-skipped router into recovery after its
    /// (skipped) compute slot; the wake-up wheel guarantees it computes
    /// next cycle.
    ///
    /// An idle input VC passes, so the first live one fails; an idle
    /// output VC passes too, so only the live ones are read.
    fn check_activity(&self, snap: &NetSnapshot) -> Result<(), Violation> {
        let vcs = self.router.vcs_per_port();
        for (n, r) in snap.routers.iter().enumerate() {
            if snap.computed.get(n).copied().unwrap_or(true) {
                continue;
            }
            for (p, &live) in r.live_in.iter().enumerate() {
                if let Some(v) = ones(live).next() {
                    let row = &r.inputs[p * vcs + v];
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "activity",
                        format!(
                            "compute skipped but input {p}.{v} holds {} flits in state {:?}",
                            row.flits.len(),
                            row.state
                        ),
                    ));
                }
            }
            for (p, (port, &live)) in r.ports.iter().zip(&r.live_out).enumerate() {
                if !port.st_queue.is_empty() {
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "activity",
                        format!("compute skipped but output {p} ST queue is non-empty"),
                    ));
                }
                for v in ones(live) {
                    let row = &r.outputs[p * vcs + v];
                    if row.allocated.is_some() || !row.slots.is_empty() || row.replaying {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "activity",
                            format!(
                                "compute skipped but output {p}.{v} has a reservation or \
                                 occupied retransmission sender"
                            ),
                        ));
                    }
                }
            }
            // Wire entries due strictly before `snap.now` were due at the
            // skipped cycle (`now - 1`) and would have been popped by a
            // computing router; entries due at `snap.now` were scheduled
            // during this commit and are fine.
            let w = &snap.wires[n];
            for (p, slot) in w.flit_in.iter().enumerate() {
                if let Some((_, _, at)) = slot {
                    if *at < snap.now {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "activity",
                            format!("compute skipped but a flit was due on port {p} at {at}"),
                        ));
                    }
                }
            }
            for (d, (credits, nacks)) in w.credits_in.iter().zip(&w.nacks_in).enumerate() {
                if let Some(&(_, at)) = credits.iter().chain(nacks).find(|(_, at)| *at < snap.now) {
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "activity",
                        format!("compute skipped but a credit/NACK was due on link {d} at {at}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Fault-table consistency and the dead-port allocation invariant.
    ///
    /// Consistency (armed whenever the oracle knows the run's fault
    /// history, i.e. it was built with [`Oracle::new`]): the snapshot's
    /// published `dead_ports` table must equal, entry for entry, what
    /// the configuration's [`FaultTimeline`] implies for the snapshot
    /// cycle — the simulator may neither hide a dead link nor invent
    /// one.
    ///
    /// Dead-port allocation (armed per [`ArmedInvariants::dead_port`]):
    /// no output VC on a dead port may hold a reservation granted at or
    /// after the link's death cycle. Reservations granted strictly
    /// before the death are legal — that wormhole is draining through
    /// the reconfiguration transition — but a *new* grant onto a port
    /// the router already knows is dead means the fault-aware VA filter
    /// (or a legacy algorithm's live-link fallback) let a packet route
    /// into the hole.
    fn check_dead_ports(&self, snap: &NetSnapshot) -> Result<(), Violation> {
        if let Some(tl) = &self.timeline {
            // Snapshots are taken after `step()`, so the table reflects
            // deaths detectable by the end of cycle `now - 1`.
            let expect = || {
                tl.dead_ports_at(snap.now.saturating_sub(1))
                    .map(|(n, d, since)| (n.index(), d.index(), since))
            };
            if !snap.dead_ports.iter().copied().eq(expect()) {
                let expect: Vec<_> = expect().collect();
                return Err(Violation {
                    cycle: snap.now,
                    node: None,
                    invariant: "fault-table",
                    detail: format!(
                        "snapshot publishes dead ports {:?} but the run's fault \
                         history implies {:?}",
                        snap.dead_ports, expect
                    ),
                });
            }
        }
        if !self.arm.dead_port {
            return Ok(());
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
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "dead-port",
                        format!(
                            "output {d}.{ov} is on a link dead since cycle {since} but \
                             holds a reservation for input {p}.{v} granted at cycle {at}"
                        ),
                    ));
                }
            }
        }
        Ok(())
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
    fn check_fault_events(&mut self, snap: &NetSnapshot) -> Option<Violation> {
        self.timeline.as_ref()?;
        let violation = |detail: String| {
            Some(Violation {
                cycle: snap.now,
                node: None,
                invariant: "fault-events",
                detail,
            })
        };
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
        None
    }

    /// Dead-router consistency (armed whenever the oracle knows the
    /// run's fault history) and the structural corpse invariant (always
    /// armed): the snapshot's dead-router table must match the
    /// configuration, the per-router `dead` flags must agree with the
    /// table, and a dead router must be an empty shell — the death
    /// purge drained its buffers, queues, reservations and wires, and
    /// its terminals neither hold nor generate traffic.
    fn check_dead_routers(&self, snap: &NetSnapshot) -> Result<(), Violation> {
        if let Some(tl) = &self.timeline {
            // `now`, not `now - 1`: the kill purge runs in the commit of
            // cycle `at - 1`, so a router dying at `now` is already dead
            // in a snapshot taken at `now` (see the snapshot builder).
            let expect = || {
                tl.dead_routers_at(snap.now)
                    .map(|(n, since)| (n.index(), since))
            };
            if !snap.dead_routers.iter().copied().eq(expect()) {
                let expect: Vec<_> = expect().collect();
                return Err(Violation {
                    cycle: snap.now,
                    node: None,
                    invariant: "fault-table",
                    detail: format!(
                        "snapshot publishes dead routers {:?} but the run's \
                         fault history implies {:?}",
                        snap.dead_routers, expect
                    ),
                });
            }
        }
        let vcs = self.router.vcs_per_port();
        let n_routers = snap.routers.len();
        for (n, r) in snap.routers.iter().enumerate() {
            let listed = snap.dead_routers.iter().any(|&(m, _)| m == n);
            if r.dead != listed {
                return Err(Violation::new(
                    snap.now,
                    n,
                    "dead-router",
                    format!(
                        "router dead flag is {} but the dead-router table \
                         {} it",
                        r.dead,
                        if listed { "lists" } else { "omits" }
                    ),
                ));
            }
            if !r.dead {
                continue;
            }
            // As for a skipped router: the first live input VC fails,
            // and only a live output VC can.
            for (p, &live) in r.live_in.iter().enumerate() {
                if let Some(v) = ones(live).next() {
                    let row = &r.inputs[p * vcs + v];
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "dead-router",
                        format!(
                            "dead router still holds {} flits in input \
                             {p}.{v} (state {:?})",
                            row.flits.len(),
                            row.state
                        ),
                    ));
                }
            }
            for (p, (port, &live)) in r.ports.iter().zip(&r.live_out).enumerate() {
                if !port.st_queue.is_empty() {
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "dead-router",
                        format!("dead router has a non-empty ST queue on output {p}"),
                    ));
                }
                for v in ones(live) {
                    let row = &r.outputs[p * vcs + v];
                    if row.allocated.is_some() || !row.slots.is_empty() {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "dead-router",
                            format!(
                                "dead router output {p}.{v} holds a reservation \
                                 or retransmission slots"
                            ),
                        ));
                    }
                }
            }
            if let Some(w) = snap.wires.get(n) {
                for (p, slot) in w.flit_in.iter().enumerate() {
                    if slot.is_some() {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "dead-router",
                            format!("a flit is in flight into dead router port {p}"),
                        ));
                    }
                }
            }
            for (t, pe) in snap.pes.iter().enumerate() {
                if t % n_routers == n && (pe.queued > 0 || !pe.injecting.is_empty()) {
                    return Err(Violation::new(
                        snap.now,
                        n,
                        "dead-router",
                        format!("terminal {t} of a dead router still holds traffic"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// §4 exclusivity: committed VC allocations are single-owner and
    /// in-range, and reservations match their owners. Routers in
    /// deadlock recovery are skipped — recovery takeovers legitimately
    /// leave stale reservations while held flits drain.
    ///
    /// An output VC claimed by two active input VCs records at most one
    /// of them, so the second claim, in (port, VC) order, is the one
    /// whose reservation differs; it names both when the reservation
    /// records the first.
    fn check_exclusivity(&self, snap: &NetSnapshot) -> Result<(), Violation> {
        let vcs = self.router.vcs_per_port();
        for (n, r) in snap.routers.iter().enumerate() {
            if r.in_recovery {
                continue;
            }
            let ports = r.ports.len();
            let held = |op: usize, ov: usize| {
                let slots = r.outputs[op * vcs + ov].slots.of(&r.slots);
                slots.iter().any(|(_, held)| *held)
            };
            // Whether input VC `(p, v)` exists and is active on `(op, ov)`.
            let active_on = |(p, v): (usize, usize), op: usize, ov: usize| {
                p < ports
                    && v < vcs
                    && matches!(
                        r.inputs[p * vcs + v].state,
                        VcStateView::Active { out_port, out_vc } if out_port == op && out_vc == ov
                    )
            };
            for (p, &live) in r.live_in.iter().enumerate() {
                for v in ones(live) {
                    let VcStateView::Active { out_port, out_vc } = r.inputs[p * vcs + v].state
                    else {
                        continue;
                    };
                    if out_port >= ports || !r.ports[out_port].exists || out_vc >= vcs {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "exclusivity",
                            format!("input {p}.{v} active toward invalid {out_port}.{out_vc}"),
                        ));
                    }
                    let alloc = r.outputs[out_port * vcs + out_vc].allocated;
                    if alloc == Some((p, v)) || held(out_port, out_vc) {
                        continue;
                    }
                    let first = alloc.filter(|&(q, w)| {
                        (q, w) < (p, v)
                            && r.live_in[q] >> w & 1 == 1
                            && active_on((q, w), out_port, out_vc)
                    });
                    let detail = match first {
                        Some((q, w)) => format!(
                            "output VC {out_port}.{out_vc} allocated to both {q}.{w} and {p}.{v}"
                        ),
                        None => format!(
                            "input {p}.{v} active toward {out_port}.{out_vc} but the \
                             reservation records {alloc:?}"
                        ),
                    };
                    return Err(Violation::new(snap.now, n, "exclusivity", detail));
                }
            }
            for (op, &live) in r.live_out.iter().enumerate() {
                for ov in ones(live) {
                    let Some((p, v)) = r.outputs[op * vcs + ov].allocated else {
                        continue;
                    };
                    if !held(op, ov) && !active_on((p, v), op, ov) {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "exclusivity",
                            format!(
                                "reservation {op}.{ov} names {p}.{v}, which is not active on it"
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Wormhole ordering: adjacent flits in every input buffer are
    /// either consecutive flits of one packet or a tail→head boundary.
    fn check_ordering(&self, snap: &NetSnapshot) -> Result<(), Violation> {
        let vcs = self.router.vcs_per_port();
        for (n, r) in snap.routers.iter().enumerate() {
            for (p, &live) in r.live_in.iter().enumerate() {
                for v in ones(live) {
                    for pair in r.inputs[p * vcs + v].flits.of(&r.flits).windows(2) {
                        let (a, b) = (&pair[0], &pair[1]);
                        let continues = !a.kind.is_tail()
                            && b.packet == a.packet
                            && b.seq == a.seq.wrapping_add(1)
                            && !b.kind.is_head();
                        let boundary = a.kind.is_tail() && b.kind.is_head();
                        if !continues && !boundary {
                            return Err(Violation::new(
                                snap.now,
                                n,
                                "wormhole-order",
                                format!(
                                    "input {p}.{v} holds {} {:?}#{} directly after {} {:?}#{}",
                                    b.packet, b.kind, b.seq, a.packet, a.kind, a.seq
                                ),
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Credit accounting per (node, direction, VC): credits left plus
    /// every distinct flit holding one (ST queue, on the wire, in the
    /// downstream buffer) plus credits in flight back can never exceed
    /// the downstream VC's cap (`per_vc` of the port capacity) — and
    /// equal it exactly in fault-free runs. A lost credit decrement or
    /// a doubled increment shows up as the left side exceeding it.
    ///
    /// Replay duplicates are deduplicated by flit identity: a
    /// retransmitted copy shares its original's credit.
    ///
    /// A VC with full credits and nothing queued, on the wire, downstream
    /// or returning for it sums to exactly the cap, so only the VCs that
    /// one of those names are visited: the live output VCs (credits off
    /// the cap are live), the live downstream input VCs, and the tags in
    /// the ST queue, on the wire and in the returning credits.
    fn check_credits(&mut self, snap: &NetSnapshot) -> Result<(), Violation> {
        let vcs = self.router.vcs_per_port();
        let per_vc = self.router.port_capacity().per_vc;
        let holders = &mut self.holders;
        for (n, r) in snap.routers.iter().enumerate() {
            for d in Direction::CARDINAL {
                let op = d.index();
                let Some(m) = self.neighbors[n][op] else {
                    continue;
                };
                let q = d.opposite().index();
                let down = &snap.routers[m];
                let mut suspects = r.live_out[op] | down.live_in[q];
                for (_, tag) in r.st_queue(op) {
                    suspects |= vc_bit(tag, vcs);
                }
                if let Some((_, wv, _)) = &snap.wires[m].flit_in[q] {
                    suspects |= vc_bit(*wv, vcs);
                }
                for &(cv, _) in &snap.wires[n].credits_in[op] {
                    suspects |= vc_bit(cv, vcs);
                }
                for v in ones(suspects) {
                    holders.clear();
                    let mut add = |f: &Flit| {
                        let k = key(f);
                        if !holders.contains(&k) {
                            holders.push(k);
                        }
                    };
                    for (f, tag) in r.st_queue(op) {
                        if usize::from(tag) == v {
                            add(f);
                        }
                    }
                    // Replayed wire flits are skipped: the barrel shifter
                    // replays every unexpired slot after a NACK, so a
                    // retransmitted copy may duplicate a flit that was
                    // already accepted, popped and credited downstream.
                    // Skipping can only undercount, which keeps the bound
                    // sound (and fault-free runs never retransmit).
                    if let Some((f, wv, _)) = &snap.wires[m].flit_in[q] {
                        if usize::from(*wv) == v && f.retransmissions == 0 {
                            add(f);
                        }
                    }
                    for f in down.inputs[q * vcs + v].flits.of(&down.flits) {
                        add(f);
                    }
                    let pending = snap.wires[n].credits_in[op]
                        .iter()
                        .filter(|(cv, _)| usize::from(*cv) == v)
                        .count();
                    let credits = r.outputs[op * vcs + v].credits as usize;
                    let lhs = credits + holders.len() + pending;
                    if lhs > per_vc || (self.arm.credit_exact && lhs != per_vc) {
                        return Err(Violation::new(
                            snap.now,
                            n,
                            "credit-accounting",
                            format!(
                                "link {d:?} vc {v}: {credits} credits + {} resident + \
                                 {pending} returning = {lhs}, buffer depth {per_vc}",
                                holders.len()
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
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
    /// Each router's two arenas hold every flit and slot it has, so each
    /// is marked in one pass. Flits are merged per packet in a hash
    /// table as they are marked, and one unsorted pass over it decides,
    /// naming the lowest broken packet.
    fn check_conservation(&mut self, snap: &NetSnapshot) -> Result<(), Violation> {
        let table = &mut self.merged;
        table.reset();
        // A run of one packet's flits is merged before it reaches the
        // table, so most flits cost no lookup.
        let mut run: Option<(u64, u128)> = None;
        let mut mark = |f: &Flit| {
            if f.seq < 128 {
                let (pkt, bit) = (f.packet.raw(), 1u128 << f.seq);
                match &mut run {
                    Some((p, mask)) if *p == pkt => *mask |= bit,
                    _ => {
                        if let Some((p, mask)) = run.replace((pkt, bit)) {
                            table.add(p, mask);
                        }
                    }
                }
            }
        };
        for pe in &snap.pes {
            for f in &pe.injecting {
                mark(f);
            }
        }
        for (r, w) in snap.routers.iter().zip(&snap.wires) {
            for f in &r.flits {
                mark(f);
            }
            for (f, _) in &r.slots {
                mark(f);
            }
            for slot in w.flit_in.iter().flatten() {
                mark(&slot.0);
            }
        }
        if let Some((pkt, mask)) = run {
            table.add(pkt, mask);
        }
        let ledgered: u64 = snap
            .lost
            .iter()
            .map(|&(_, m)| u64::from(m.count_ones()))
            .sum();
        if ledgered != snap.flits_lost {
            return Err(Violation {
                cycle: snap.now,
                node: None,
                invariant: "conservation",
                detail: format!(
                    "the loss ledger's masks name {ledgered} flits but the \
                     flits_lost counter says {}",
                    snap.flits_lost
                ),
            });
        }
        let hole = |pkt: u64, mask: u128| Violation {
            cycle: snap.now,
            node: None,
            invariant: "conservation",
            detail: format!(
                "packet p{pkt} resident∪lost seq mask {mask:#b} has a \
                 hole — a flit vanished with neither a retransmission \
                 copy nor a loss record"
            ),
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
                return Err(Violation {
                    cycle: snap.now,
                    node: None,
                    invariant: "conservation",
                    detail: format!(
                        "packet p{pkt} has flits both resident ({mask:#b}) and \
                         in the loss ledger ({lost:#b}) — the death purge left \
                         a copy of an amputated flit"
                    ),
                });
            }
            return Err(hole(pkt, mask | lost));
        }
        for &(pkt, mask) in &snap.lost {
            if mask == 0 {
                return Err(Violation {
                    cycle: snap.now,
                    node: None,
                    invariant: "conservation",
                    detail: format!("packet p{pkt} has an empty loss-ledger entry"),
                });
            }
            if self.merged.get(pkt).is_none() && !contiguous(mask) {
                return Err(hole(pkt, mask));
            }
        }
        Ok(())
    }

    /// Arrival monotonicity (HBH go-back-N replay equivalence): every
    /// flit accepted into an input VC either starts a packet (head) or
    /// advances strictly forward through the packet whose wormhole is
    /// open. Duplicates and reordering at the accept boundary are
    /// violations. Arrivals are detected by back-of-FIFO identity
    /// change; same-cycle arrive-and-depart flits are unobservable at
    /// the commit boundary, hence monotone (`seq` strictly increasing)
    /// rather than exact `seq + 1` succession.
    ///
    /// An idle VC with nothing tracked is a no-op, so only the live VCs
    /// and those tracked last cycle are visited.
    fn check_arrival(&mut self, snap: &NetSnapshot) -> Option<Violation> {
        let (ports, vcs) = (self.router.ports(), self.router.vcs_per_port());
        let mut first = None;
        for (n, r) in snap.routers.iter().enumerate() {
            for d in Direction::CARDINAL {
                let p = d.index();
                let tracked = &mut self.tracked[n * 4 + p];
                let visit = r.live_in[p] | *tracked;
                *tracked = 0;
                for v in ones(visit) {
                    let idx = (n * ports + p) * vcs + v;
                    let back = r.inputs[p * vcs + v].flits.of(&r.flits).last();
                    let cur = back.map(key);
                    if cur.is_some() && cur != self.prev_back[idx] {
                        let f = back.expect("non-empty back");
                        let ok = match self.last_arrival[idx] {
                            None => f.kind.is_head(),
                            Some((_, _, true)) => f.kind.is_head(),
                            Some((pkt, seq, false)) => {
                                f.kind.is_head() || (f.packet.raw() == pkt && f.seq > seq)
                            }
                        };
                        if !ok && first.is_none() {
                            first = Some(Violation::new(
                                snap.now,
                                n,
                                "arrival-order",
                                format!(
                                    "input {p}.{v} accepted {} {:?}#{} after {:?}",
                                    f.packet, f.kind, f.seq, self.last_arrival[idx]
                                ),
                            ));
                        }
                        self.last_arrival[idx] = Some((f.packet.raw(), f.seq, f.kind.is_tail()));
                    }
                    self.prev_back[idx] = cur;
                    *tracked |= u64::from(cur.is_some()) << v;
                }
            }
        }
        first
    }

    /// Probe soundness (§3.2.2): when a node's `deadlocks_confirmed`
    /// counter advances, a *temporally consistent* chain of blocked
    /// channels must explain it — some probe launch (a buffer blocked
    /// for at least `Cthres` cycles) from this node, forwarded one hop
    /// per cycle through buffers that were blocked (or routers in
    /// recovery, Rule 2) *at the instant the probe traversed them*, and
    /// closing back at this node exactly now.
    ///
    /// The probe side-band takes one cycle per hop, so the certificate a
    /// returned probe carries is temporal, not a single-snapshot cycle:
    /// each link was blocked when crossed. For a real deadlock the wait
    /// graph is static and the two coincide; a confirmation that no
    /// temporal chain supports would mean the Rules fired on a deadlock
    /// that never existed in any form.
    fn check_probe(&mut self, snap: &NetSnapshot) -> Option<Violation> {
        // Record this cycle first: the chase for a confirmation observed
        // at cycle `T` needs the frame of `T` itself. Confirmations near
        // a restart of the history are accepted unverified.
        self.hist.record(snap, 4 * snap.routers.len() + 4);
        let mut first = None;
        for (n, r) in snap.routers.iter().enumerate() {
            let confirmed = r.deadlocks_confirmed;
            if confirmed > self.prev_confirmed[n]
                && first.is_none()
                && !self.confirmation_explained(snap, n)
            {
                first = Some(Violation::new(
                    snap.now,
                    n,
                    "probe-soundness",
                    format!(
                        "deadlock confirmation #{confirmed} but no temporally \
                         consistent blocked chain returns to this node"
                    ),
                ));
            }
            self.prev_confirmed[n] = confirmed;
        }
        first
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
