//! The full network: routers, receiver-owned link wires, processing
//! elements (traffic endpoints) and the deadlock-probe transport —
//! organised as an explicit **two-phase (compute → commit) cycle
//! engine**.
//!
//! The network owns its routers as a plain `Vec<RouterCell>`: a router
//! shares nothing with its neighbours but wires, and every wire belongs
//! to its receiver's cell. Each cycle runs three steps, on the calling
//! thread ([`Network::step`]):
//!
//! 1. **pre**: publish this cycle's active set, then run open-loop
//!    injection and the E2E timeout scans (both touch only node-local
//!    state plus the one traffic RNG, drawn in terminal order).
//! 2. **compute**: every awake router, in node order, runs
//!    `Router::compute`: it pops its *own* inbound wires (NACKs,
//!    credits, flits), then runs its stages. It is handed
//!    `&mut` to its own cell and nothing else, so no router can write
//!    another router's state in this step — outputs are buffered in the
//!    router (`drives`, `ejected`, `freed_credits`, `arrival_nacks`,
//!    `probe_req`, trace events). The one piece of
//!    neighbour state it reads, which neighbours are in deadlock
//!    recovery, comes from the recovering set (below).
//! 3. **commit** (node order): route the buffered drives, credits and
//!    NACKs onto the *receiving* router's wires, eject flits to the
//!    PEs, move the probe/activation side-band, book the recovery-mode
//!    edges, take the statistics samples and advance the clock.
//!
//! Outside an awake router's own pipeline the engine's work follows
//! the active set: compute, the commit drain and the occupancy sampler
//! all walk `ActiveSet::awake`, and neighbour lookups read a table
//! built once. The **recovering set** — which routers are in recovery
//! mode, a per-link handshake wire in hardware — is written only by
//! commit, on the transition edges (a computed router's `end_cycle`
//! exit, an activation's entry, a dying router), so during compute it
//! is a frozen end-of-previous-commit snapshot. The one loop that stays
//! O(terminals) every cycle is the injector draw: skipping an idle
//! terminal's draw would shift the traffic RNG stream.
//!
//! Determinism argument: one thread and one seeded traffic RNG drawn
//! in terminal order make a run a pure function of configuration and
//! seed. What the phase split adds is independence from *which routers
//! were visited*: compute is side-effect-free across routers (each
//! router owns the wires it pops, its fault draws are a pure hash of
//! node seed, cycle and draw index, its trace events are buffered), and
//! commit applies every cross-router effect and drains the trace
//! buffers in node order. So skipping a quiescent router changes
//! nothing — **gated == full sweep**, byte for byte — the trace's byte
//! order is commit's drain order, and, snapshots being pure reads,
//! **oracle-on == oracle-off**.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ftnoc_core::deadlock::probe::{ActivationAction, ActivationSignal, ProbeAction, ProbeSignal};
use ftnoc_core::e2e::{E2eDestination, E2eSource, E2eVerdict};
use ftnoc_ecc::protect_flit;
use ftnoc_fault::{FaultCounts, FaultEventKind};
use ftnoc_metrics::{MeshTelemetry, ProfileSnapshot, RouterTelemetry};
use ftnoc_rng::Rng;
use ftnoc_trace::{DropReason, NullSink, TraceEvent, TraceSink, Tracer};
use ftnoc_traffic::Injector;
use ftnoc_types::flit::Flit;
use ftnoc_types::geom::{Direction, NodeId};
use ftnoc_types::packet::{Packet, PacketId};
use ftnoc_types::Header;

use crate::arbiter::ones;
use crate::config::{ErrorScheme, SimConfig, LOSS_MASK_FLITS};
use crate::link::PortIo;
use crate::router::{Ctx, Router, StageScratch};
use crate::routing::FaultState;
use crate::snapshot::refill;
use crate::stats::{ErrorStats, EventCounts, LatencyHistogram, NetworkStats};

/// Message classes carried in the packed header.
const CLASS_DATA: u8 = 0;
const CLASS_ACK: u8 = 1;
const CLASS_NACK: u8 = 2;

/// Open-loop saturation guard: past this source-queue depth a node stops
/// generating new packets. Below saturation the queues hover near zero,
/// so this only bounds memory in above-capacity sweeps (e.g. the
/// Figure 8/9 utilization curves at injection rates up to 1.0).
const SOURCE_QUEUE_CAP: usize = 512;

/// E2E/FEC retransmission attempts before a source abandons a packet.
const E2E_MAX_ATTEMPTS: u32 = 16;

/// Slots in the wake-up wheel. Every wake-up the engine schedules lands
/// at most two cycles out (the NACK side-band's `now + 2` visibility),
/// so a small power-of-two horizon suffices: slot `t % WHEEL_SLOTS` is
/// drained and cleared at the start of cycle `t`, then reused for
/// `t + WHEEL_SLOTS`.
const WHEEL_SLOTS: u64 = 4;

/// A cycle-indexed timing wheel of router wake-ups: one bitset of node
/// indices per upcoming cycle; only the pre and commit phases schedule
/// into it.
pub(crate) struct ActivityWheel {
    slots: [Vec<u64>; WHEEL_SLOTS as usize],
    /// Mirror of `SimConfig::activity_gating`; `false` turns
    /// [`ActivityWheel::schedule`] into a no-op (the full-sweep engine
    /// has no use for wake-ups).
    gating: bool,
}

impl ActivityWheel {
    fn new(n: usize, gating: bool) -> Self {
        ActivityWheel {
            slots: std::array::from_fn(|_| vec![0u64; n.div_ceil(64)]),
            gating,
        }
    }

    /// Schedules router `node` to be computed at cycle `at` (at most
    /// `WHEEL_SLOTS - 1` cycles ahead). Idempotent — a bit-set.
    #[inline]
    pub(crate) fn schedule(&mut self, node: usize, at: u64) {
        if self.gating {
            self.slots[(at % WHEEL_SLOTS) as usize][node / 64] |= 1 << (node % 64);
        }
    }
}

/// A set of router indices as bit words.
pub(crate) struct NodeBits(Vec<u64>);

impl NodeBits {
    fn new(n: usize) -> Self {
        NodeBits(vec![0; n.div_ceil(64)])
    }

    #[inline]
    pub(crate) fn contains(&self, n: usize) -> bool {
        self.0[n / 64] & (1 << (n % 64)) != 0
    }

    #[inline]
    fn set(&mut self, n: usize, member: bool) {
        if member {
            self.0[n / 64] |= 1 << (n % 64);
        } else {
            self.0[n / 64] &= !(1 << (n % 64));
        }
    }

    fn any(&self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }
}

/// The per-cycle active set: one "compute this router this cycle" bit
/// per node, refreshed from the wheel at the start of each pre phase.
pub(crate) struct ActiveSet {
    bits: NodeBits,
    /// Router count: bits at and above it are never members.
    nodes: usize,
    gating: bool,
}

impl ActiveSet {
    fn new(nodes: usize, gating: bool) -> Self {
        ActiveSet {
            bits: NodeBits::new(nodes),
            nodes,
            gating,
        }
    }

    /// This cycle's awake routers, in node order — every router when
    /// gating is off. The one iteration the compute sweep, the commit
    /// drain and the occupancy sampler share.
    ///
    /// The last word is clipped to the router count here, so neither
    /// the cycle-0 all-ones store nor the never-written words of a
    /// gating-off run can leak a phantom router to a caller.
    pub(crate) fn awake(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.div_ceil(64)).flat_map(move |w| {
            let base = w * 64;
            let mut bits = if self.gating { self.bits.0[w] } else { !0 };
            if self.nodes - base < 64 {
                bits &= (1 << (self.nodes - base)) - 1;
            }
            ones(bits).map(move |bit| base + bit)
        })
    }

    /// Adds router `n` to the *current* cycle's active set (the
    /// injection phase wakes a router the moment it hands it a flit).
    #[inline]
    fn wake_now(&mut self, n: usize) {
        if self.gating {
            self.bits.set(n, true);
        }
    }

    /// Replaces the active set with cycle `now`'s wheel slot (clearing
    /// the slot for reuse). Cycle 0 wakes the whole mesh: every router
    /// must compute once to discover it is idle.
    fn refresh(&mut self, wheel: &mut ActivityWheel, now: u64) {
        if !self.gating {
            return;
        }
        let slot = &mut wheel.slots[(now % WHEEL_SLOTS) as usize];
        for (word, bits) in self.bits.0.iter_mut().zip(slot.iter_mut()) {
            *word = if now == 0 { !0 } else { *bits };
            *bits = 0;
        }
    }
}

/// Per-terminal processing element: open-loop source + protocol
/// endpoints. One per terminal (`topo.terminal_count()`), which is one
/// per router everywhere except a concentrated mesh; terminal `t` hangs
/// off router `t % n` through local port `4 + t / n`.
struct ProcessingElement {
    injector: Injector,
    /// Packets awaiting injection (unbounded open-loop source queue).
    source_queue: VecDeque<Packet>,
    /// Wormhole progress of the packet currently entering the network:
    /// remaining flits (front next) and the local VC in use.
    injecting: Option<(usize, VecDeque<Flit>)>,
    /// E2E/FEC source-side retransmission tracker.
    e2e_source: E2eSource,
    /// E2E/FEC destination-side checker.
    e2e_dest: E2eDestination,
}

/// A deadlock probe in flight on the side-band.
struct ProbeFlight {
    signal: ProbeSignal,
    to: NodeId,
    deliver_at: u64,
    path: Vec<NodeId>,
}

/// Runtime wear-out accumulator: per-directed-link flit traffic counted
/// against seeded lifetime budgets. Fed by the commit phase's drive
/// drain, so it is a pure function of the delivered traffic — identical
/// under activity gating (a skipped router moved no flits).
struct WearState {
    /// `budgets[n][d]`: flits the link leaving `n` in direction `d`
    /// survives. `u64::MAX` where the topology has no link.
    budgets: Vec<[u64; 4]>,
    /// `counts[n][d]`: flits carried so far.
    counts: Vec<[u64; 4]>,
    /// Budget crossings observed this cycle, realized after the drain
    /// in `(node, dir)` order.
    pending: Vec<(usize, usize)>,
}

impl WearState {
    /// Books one flit onto the link leaving `node` in direction `d`,
    /// queueing a kill when the crossing is exact (each budget crosses
    /// once, so the pending list never duplicates).
    #[inline]
    fn note(&mut self, node: usize, d: usize) {
        self.counts[node][d] += 1;
        if self.counts[node][d] == self.budgets[node][d] {
            self.pending.push((node, d));
        }
    }
}

/// A recovery-activation signal walking the recorded probe path.
struct ActivationFlight {
    origin: NodeId,
    path: Vec<NodeId>,
    next_index: usize,
    deliver_at: u64,
}

/// One router plus everything only it touches during the compute phase:
/// its receiver-owned link wires and the per-cycle outputs the commit
/// phase drains.
pub(crate) struct RouterCell {
    /// The router proper.
    pub(crate) router: Router,
    /// Inbound wires owned by this router (popped during compute,
    /// pushed by the commit phase only).
    pub(crate) io: PortIo,
    /// Set by the compute phase: this router wants to be computed again
    /// next cycle (it is non-quiescent, or its inbound wires still hold
    /// undelivered traffic). Read by the commit phase, which turns it
    /// into a `now + 1` wheel entry. Meaningless for skipped cells —
    /// commit never reads it for them.
    pub(crate) wants_wake: bool,
}

/// What the compute phase reads and never writes: the run context
/// every router's sweep shares. Pre and commit own it mutably.
pub(crate) struct RunEnv {
    /// The run configuration.
    pub(crate) config: SimConfig,
    /// This cycle's active set (activity gating): refreshed and woken
    /// into by pre, walked by compute and commit.
    pub(crate) active: ActiveSet,
    /// `neighbors[n][d]`: the router across the link leaving `n` in
    /// cardinal direction `d` ([`Topology::neighbor_table`]).
    neighbors: Vec<[Option<NodeId>; 4]>,
    /// The routers in deadlock-recovery mode as of the last commit.
    /// Commit is its only writer, on transition edges, so a compute
    /// sweep reads a frozen snapshot.
    pub(crate) recovering: NodeBits,
    /// The dead routers: set at reset and by commit's death purge. A
    /// dead router never computes again.
    pub(crate) dead: NodeBits,
    /// The run's fault state: the hard-fault timeline (static base set
    /// plus scheduled mid-run kills) with one pre-built fault-aware
    /// routing plan per publication epoch. Its only writer is commit,
    /// when the wear-out model realizes a link death.
    pub(crate) faults: FaultState,
}

impl RunEnv {
    /// The router across the link leaving router `n` in direction `d`.
    #[inline]
    fn neighbor(&self, n: usize, d: Direction) -> Option<NodeId> {
        self.neighbors[n][d.index()]
    }
}

/// What pre and commit own and compute never sees: traffic endpoints,
/// the side-band transports, statistics and the tracer back-end.
pub(crate) struct NetCore<S: TraceSink> {
    pes: Vec<ProcessingElement>,
    rng: Rng,
    pub(crate) now: u64,
    next_packet: u64,
    probes: Vec<ProbeFlight>,
    activations: Vec<ActivationFlight>,
    /// Maps control packets to (class, referenced data packet).
    #[allow(clippy::disallowed_types, reason = "lookup-only: keyed insert/remove")]
    control_refs: std::collections::HashMap<PacketId, (u8, PacketId)>,
    /// Data packets already delivered clean (duplicate suppression).
    #[allow(clippy::disallowed_types, reason = "lookup-only: first-insert test")]
    delivered: std::collections::HashSet<PacketId>,
    /// Cumulative counters (reset via snapshots at warm-up).
    packets_injected: u64,
    packets_ejected: u64,
    flits_ejected: u64,
    latency_sum: u64,
    latency_max: u64,
    latency_hist: LatencyHistogram,
    measuring: bool,
    /// Peak per-node E2E/FEC source-buffer occupancy in flits.
    e2e_peak_source_flits: u64,
    stats: NetworkStats,
    warmup_snapshot: (EventCounts, ErrorStats),
    warmup_counts: (u64, u64, u64, u64), // injected, ejected, flits, lat_sum
    /// Structured-event instrumentation (free with [`NullSink`]).
    tracer: Tracer<S>,
    /// Routers whose recovery mode may have flipped this cycle, noted
    /// where the flip happens and settled against
    /// [`RunEnv::recovering`] once per commit.
    recovery_edges: Vec<usize>,
    /// Pending router wake-ups, indexed by cycle (activity gating).
    wheel: ActivityWheel,
    /// Flits that physically entered the network (router injections).
    flits_injected: u64,
    /// Flits lost to whole-router deaths (buffered in, en route to, or
    /// amputated by a dead router). The conservation oracle closes the
    /// ledger: injected == ejected + in-flight + lost.
    flits_lost: u64,
    /// Per-packet bitmask of lost flit sequence numbers (below
    /// [`LOSS_MASK_FLITS`]), keyed by raw packet id — the loss ledger
    /// the oracle audits.
    lost: BTreeMap<u64, u128>,
    /// Wear-out accumulator, when the model is armed.
    wearout: Option<WearState>,
}

/// A periodic progress sample handed to run observers (the CLI's
/// `--stats-every` heartbeat).
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Current cycle.
    pub now: u64,
    /// Packets injected since construction.
    pub packets_injected: u64,
    /// Packets ejected since construction.
    pub packets_ejected: u64,
    /// Sum of per-packet latencies since construction (cycles) — lets
    /// observers derive a per-window average latency from two samples.
    pub latency_sum: u64,
    /// Whether any node is currently in deadlock-recovery mode.
    pub any_in_recovery: bool,
}

/// The simulated network.
///
/// Generic over the trace sink `S`: with the default [`NullSink`] every
/// instrumentation site constant-folds away, so the untraced simulator
/// pays nothing for its observability.
pub struct Network<S: TraceSink = NullSink> {
    pub(crate) env: RunEnv,
    pub(crate) cells: Vec<RouterCell>,
    pub(crate) core: NetCore<S>,
    /// The stage scratch the compute phase lends each awake router in
    /// turn; clear between routers.
    pub(crate) scratch: StageScratch,
    /// Wall-clock phase profile, when enabled: [`Network::step`] adds
    /// to it and nothing reads it back into the simulation.
    pub(crate) profile: Option<ProfileSnapshot>,
}

/// The compute phase: every router the active set marks awake this
/// cycle is computed, in node order, on the one lent `scratch`.
pub(crate) fn compute_cells(
    env: &RunEnv,
    cells: &mut [RouterCell],
    scratch: &mut StageScratch,
    now: u64,
) {
    let ctx = Ctx {
        config: &env.config,
        now,
        faults: &env.faults,
    };
    for n in env.active.awake() {
        // A dead router computes nothing, draws nothing, counts nothing —
        // before the fault stream is positioned and before the computed
        // cycle is booked, so gated and full-sweep runs stay
        // byte-identical through a death (a boundary wake-all may still
        // schedule it).
        if env.dead.contains(n) {
            cells[n].wants_wake = false;
            continue;
        }
        compute_cell(env, &ctx, &mut cells[n], scratch);
    }
}

/// The compute phase of one router: [`Router::compute`] over its own
/// inbound wires, then the wake bookkeeping. It can touch nothing
/// outside `cell`, which is what makes a gated run equal to a full
/// sweep (a router's cycle cannot depend on whether another ran).
fn compute_cell(env: &RunEnv, ctx: &Ctx<'_>, cell: &mut RouterCell, scratch: &mut StageScratch) {
    let RouterCell {
        router,
        io,
        wants_wake,
    } = cell;
    let recovering = env.neighbors[router.id().index()]
        .map(|m| m.is_some_and(|m| env.recovering.contains(m.index())));
    router.compute(ctx, io, recovering, scratch);

    // Wake-up bookkeeping: stay in the active set while any local work
    // or undelivered inbound wire traffic remains. Commit-side
    // scheduling covers wire arrivals independently; this self-wake is
    // the only wake source for purely internal state (an open wormhole,
    // unexpired retransmission copies, recovery mode).
    *wants_wake = !router.is_quiescent()
        || io.rev_in.iter().flatten().any(|rw| !rw.reverse_idle())
        || io.flit_in.iter().flatten().any(|fw| !fw.forward_free());
}

impl Network<NullSink> {
    /// Builds an untraced network for a validated configuration.
    pub fn new(config: SimConfig) -> Self {
        Network::with_tracer(config, Tracer::disabled())
    }
}

impl<S: TraceSink> Network<S> {
    /// Builds the network with a tracing front-end attached.
    pub fn with_tracer(config: SimConfig, tracer: Tracer<S>) -> Self {
        let topo = config.topology;
        let n = topo.node_count();
        let neighbors = topo.neighbor_table();
        let cells: Vec<RouterCell> = topo
            .nodes()
            .zip(&neighbors)
            .map(|(id, links)| {
                let exists = links.map(|m| m.is_some());
                let mut router = Router::new(id, &config, exists);
                router.trace.enabled = tracer.enabled();
                RouterCell {
                    router,
                    io: PortIo::new(exists),
                    wants_wake: false,
                }
            })
            .collect();
        let pes = (0..topo.terminal_count())
            .map(|_| ProcessingElement {
                injector: Injector::new(
                    config.injection_rate,
                    config.flits_per_packet(),
                    config.injection,
                )
                .expect("validated rate"),
                source_queue: VecDeque::new(),
                injecting: None,
                e2e_source: E2eSource::new(config.e2e_timeout, E2E_MAX_ATTEMPTS),
                e2e_dest: E2eDestination::new(),
            })
            .collect();
        let rng = Rng::seed_from_u64(config.seed);
        let gating = config.activity_gating;
        let faults = FaultState::new(config.fault_timeline());
        // Routers dead from reset (base faults or kills at cycle 0)
        // never compute at all; they are empty, so nothing is lost.
        let mut dead = NodeBits::new(n);
        for node in topo.nodes() {
            dead.set(node.index(), faults.timeline().router_dead_now(0, node));
        }
        let wearout = config.fault_plan.wearout_spec().map(|spec| {
            let seed = config.wearout_seed();
            let budgets = topo
                .nodes()
                .map(|id| {
                    let mut b = [u64::MAX; 4];
                    for d in Direction::CARDINAL {
                        if neighbors[id.index()][d.index()].is_some() {
                            b[d.index()] = spec.budget_for(seed, id, d);
                        }
                    }
                    b
                })
                .collect::<Vec<_>>();
            WearState {
                counts: vec![[0; 4]; budgets.len()],
                budgets,
                pending: Vec::new(),
            }
        });
        Network {
            env: RunEnv {
                config,
                active: ActiveSet::new(n, gating),
                neighbors,
                recovering: NodeBits::new(n),
                dead,
                faults,
            },
            cells,
            scratch: StageScratch::default(),
            profile: None,
            core: NetCore {
                pes,
                rng,
                now: 0,
                next_packet: 1,
                probes: Vec::new(),
                activations: Vec::new(),
                control_refs: Default::default(),
                delivered: Default::default(),
                packets_injected: 0,
                packets_ejected: 0,
                flits_ejected: 0,
                latency_sum: 0,
                latency_max: 0,
                latency_hist: LatencyHistogram::new(),
                measuring: false,
                e2e_peak_source_flits: 0,
                stats: NetworkStats::default(),
                warmup_snapshot: Default::default(),
                warmup_counts: (0, 0, 0, 0),
                tracer,
                recovery_edges: Vec::new(),
                wheel: ActivityWheel::new(n, gating),
                flits_injected: 0,
                flits_lost: 0,
                lost: BTreeMap::new(),
                wearout,
            },
        }
    }

    /// Flushes and surrenders the tracer (post-run sink recovery).
    pub fn into_tracer(mut self) -> Tracer<S> {
        self.core.tracer.flush();
        self.core.tracer
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// Packets ejected since construction.
    pub fn packets_ejected(&self) -> u64 {
        self.core.packets_ejected
    }

    /// Packets injected since construction.
    pub fn packets_injected(&self) -> u64 {
        self.core.packets_injected
    }

    /// Census of injected faults, summed over the per-router streams.
    pub(crate) fn fault_counts(&self) -> FaultCounts {
        let mut total = FaultCounts::default();
        for cell in &self.cells {
            total.absorb(&cell.router.fault_counts());
        }
        total
    }

    /// Direct read access to a router (tests and probing tools).
    pub fn router(&self, id: NodeId) -> &Router {
        &self.cells[id.index()].router
    }

    /// Marks the beginning of the measurement window: snapshots every
    /// cumulative counter so reported statistics exclude warm-up.
    pub fn start_measurement(&mut self) {
        // The occupancy sums' denominators ride along the census pass:
        // which ports exist never changes, so a window's capacity is a
        // constant and `commit` need not re-add it every cycle.
        let mut stats = NetworkStats::default();
        let core = &mut self.core;
        core.warmup_snapshot = sum_censuses(self.cells.iter().inspect(|cell| {
            let (_, tx_cap, _, retx_cap) = cell.router.sample_occupancy();
            stats.tx_capacity += tx_cap;
            stats.retx_capacity += retx_cap;
        }));
        core.warmup_counts = (
            core.packets_injected,
            core.packets_ejected,
            core.flits_ejected,
            core.latency_sum,
        );
        core.stats = stats;
        core.latency_hist = LatencyHistogram::new();
        core.measuring = true;
    }

    /// Aggregated statistics for the measurement window.
    pub fn stats(&self) -> NetworkStats {
        let (events, errors) = sum_censuses(self.cells.iter());
        let core = &self.core;
        let (snap_ev, snap_err) = core.warmup_snapshot;
        let (wi, we, wf, wl) = core.warmup_counts;
        NetworkStats {
            events: events.delta_since(&snap_ev),
            errors: errors.delta_since(&snap_err),
            latency_sum: core.latency_sum - wl,
            latency_max: core.latency_max,
            packets_ejected: core.packets_ejected - we,
            packets_injected: core.packets_injected - wi,
            flits_ejected: core.flits_ejected - wf,
            cycles: core.stats.cycles,
            tx_occupancy_sum: core.stats.tx_occupancy_sum,
            retx_occupancy_sum: core.stats.retx_occupancy_sum,
            tx_capacity: core.stats.tx_capacity,
            retx_capacity: core.stats.retx_capacity,
            port_occupancy: core.stats.port_occupancy,
        }
    }

    /// (p50, p95, p99) latency bucket bounds of the measurement window.
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        self.core.latency_hist.percentiles()
    }

    /// A [`Progress`] snapshot (what run observers receive).
    pub fn progress(&self) -> Progress {
        Progress {
            now: self.core.now,
            packets_injected: self.core.packets_injected,
            packets_ejected: self.core.packets_ejected,
            latency_sum: self.core.latency_sum,
            any_in_recovery: self.any_in_recovery(),
        }
    }

    /// Turns on the engine phase profiler (one compute lane). Its
    /// wall-clock readings never touch simulation state, so profiled
    /// and unprofiled runs produce byte-identical results.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(ProfileSnapshot {
            lanes: vec![(0, 0)],
            ..Default::default()
        });
    }

    /// A copy of the phase profile so far (`None` unless
    /// [`Network::enable_profiling`] was called).
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        self.profile.clone()
    }

    /// Harvests one [`RouterTelemetry`] per router (node-id order,
    /// cumulative since construction) into a mesh-shaped snapshot.
    pub fn telemetry(&self) -> MeshTelemetry {
        MeshTelemetry {
            width: self.env.config.topology.width() as usize,
            height: self.env.config.topology.height() as usize,
            routers: self
                .cells
                .iter()
                .map(|cell| {
                    let r = &cell.router;
                    RouterTelemetry {
                        flits_routed: r.events.crossbar,
                        buffer_stalls: r.buffer_stalls,
                        retransmissions: r.events.retransmission,
                        nacks: r.events.nack,
                        probes_sent: r.errors.probes_sent,
                        deadlocks_confirmed: r.errors.deadlocks_confirmed,
                        faults_injected: r.fault_counts().total(),
                        recoveries: r.recoveries,
                        computed_cycles: r.computed_cycles,
                    }
                })
                .collect(),
            dead: (0..self.cells.len())
                .map(|n| self.env.dead.contains(n))
                .collect(),
        }
    }

    /// Peak per-node source-side retransmission-buffer occupancy (flits)
    /// observed so far — the buffer-size cost of end-to-end schemes the
    /// paper contrasts with HBH's fixed 3 flits per VC.
    pub(crate) fn e2e_peak_source_flits(&self) -> u64 {
        self.core.e2e_peak_source_flits
    }

    /// Whether any node is currently in deadlock-recovery mode.
    pub fn any_in_recovery(&self) -> bool {
        self.env.recovering.any()
    }

    /// Flits ejected to the local PEs since construction.
    pub fn flits_ejected(&self) -> u64 {
        self.core.flits_ejected
    }

    /// Flits that physically entered the network since construction.
    pub fn flits_injected(&self) -> u64 {
        self.core.flits_injected
    }

    /// Flits lost to whole-router deaths since construction.
    pub fn flits_lost(&self) -> u64 {
        self.core.flits_lost
    }

    /// Raw ids of every packet with at least one flit in the loss
    /// ledger, sorted — the packets a router death truncated. Tests use
    /// this to separate "must still deliver" from "correctly lost".
    pub fn lost_packets(&self) -> Vec<u64> {
        self.core.lost.keys().copied().collect()
    }

    /// The run's fault history: every configured kill, landed or still
    /// scheduled, and every wear-out death realized so far, in time
    /// order ([`ftnoc_fault::FaultTimeline::events`]).
    pub fn fault_events(&self) -> &[ftnoc_fault::FaultEvent] {
        self.env.faults.timeline().events()
    }

    /// A fresh [`crate::snapshot::NetSnapshot`] of the commit-boundary
    /// state (the invariant oracle's inspection surface). Pure read. A
    /// per-cycle caller should hold one snapshot and refill it with
    /// [`Network::snapshot_into`].
    pub fn snapshot(&self) -> crate::snapshot::NetSnapshot {
        let mut out = crate::snapshot::NetSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// Refills `out` with the commit-boundary state, for per-cycle
    /// invariant checking between steps: whatever it held (an earlier
    /// cycle, another network), it comes out equal to a fresh
    /// [`Network::snapshot`], reusing its allocations. Pure read.
    ///
    /// Every field is overwritten and every nested `Vec` cleared and
    /// re-extended (`resize_with` on the per-router levels) unless it is
    /// empty and so is its source, so nothing a reused `out` held before
    /// survives and its allocations do.
    pub fn snapshot_into(&self, out: &mut crate::snapshot::NetSnapshot) {
        let Network {
            env, cells, core, ..
        } = self;
        let n_routers = env.config.topology.node_count();
        out.now = core.now;
        out.flits_lost = core.flits_lost;
        out.routers.resize_with(n_routers, Default::default);
        out.wires.resize_with(n_routers, Default::default);
        let views = cells.iter().zip(&mut out.routers).zip(&mut out.wires);
        for (n, ((cell, router), wire)) in views.enumerate() {
            cell.router.snapshot_into(router);
            router.dead = env.dead.contains(n);
            for d in Direction::CARDINAL {
                let d = d.index();
                let flit = cell.io.flit_in[d].as_ref().and_then(|fw| fw.peek());
                if flit.is_some() || wire.flit_in[d].is_some() {
                    wire.flit_in[d] = flit;
                }
                if let Some(rw) = cell.io.rev_in[d].as_ref() {
                    let (credits, nacks) = (rw.pending_credits(), rw.pending_nacks());
                    refill(&mut wire.credits_in[d], credits.size_hint().0, credits);
                    refill(&mut wire.nacks_in[d], nacks.size_hint().0, nacks);
                } else {
                    wire.credits_in[d].clear();
                    wire.nacks_in[d].clear();
                }
            }
        }
        out.pes.resize_with(core.pes.len(), Default::default);
        for (pe, view) in core.pes.iter().zip(&mut out.pes) {
            view.queued = pe.source_queue.len();
            let flits = pe.injecting.as_ref().map(|(_, flits)| flits);
            refill(
                &mut view.injecting,
                flits.map_or(0, VecDeque::len),
                flits.into_iter().flatten().copied(),
            );
        }
        // After a full step the active set still holds cycle `now - 1`'s
        // membership (the refresh for `now` happens in the next pre phase),
        // which is exactly the cycle this snapshot reflects.
        out.computed.clear();
        out.computed.resize(n_routers, false);
        for n in env.active.awake() {
            out.computed[n] = true;
        }
        // The network's fault table as of the snapshot cycle: every
        // directed dead link endpoint with the cycle its death became
        // locally known (the oracle checks allocations against it).
        let timeline = env.faults.timeline();
        out.dead_ports.clear();
        out.dead_ports.extend(
            timeline
                .dead_ports_at(core.now.saturating_sub(1))
                .map(|(n, d, since)| (n.index(), d.index(), since)),
        );
        // Router deaths use `now`, not `now - 1`: the kill purge runs in
        // the commit of cycle `at - 1` so that cycle `at` opens with the
        // victim dead — a snapshot taken at `now` (the start of cycle
        // `now`) therefore already shows a router dying at `now` as dead.
        out.dead_routers.clear();
        out.dead_routers.extend(
            timeline
                .dead_routers_at(core.now)
                .map(|(n, since)| (n.index(), since)),
        );
        out.lost.clear();
        out.lost
            .extend(core.lost.iter().map(|(&id, &mask)| (id, mask)));
        out.fault_events.clear();
        out.fault_events.extend_from_slice(timeline.events());
    }
}

impl<S: TraceSink> NetCore<S> {
    /// Pre phase: publish the active set, then run injection and the
    /// E2E timeout scans.
    pub(crate) fn pre(&mut self, env: &mut RunEnv, cells: &mut [RouterCell], now: u64) {
        // Publish this cycle's active set before anything below can add
        // to it (injection wakes the routers it feeds).
        env.active.refresh(&mut self.wheel, now);
        self.inject_phase(env, cells, now);
    }

    /// Open-loop injection: create new packets, push flits of the packet
    /// currently entering, run E2E timeout scans.
    fn inject_phase(&mut self, env: &mut RunEnv, cells: &mut [RouterCell], now: u64) {
        let scheme = env.config.scheme;
        let vcs = env.config.router.vcs_per_port();
        let topo = env.config.topology;
        let source_open = env
            .config
            .stop_injection_after
            .is_none_or(|stop| now < stop);
        // Terminals in id order, `t = (port - 4) * node_count + node`:
        // with a concentration of 1 this is exactly the node order, so
        // the traffic RNG stream is untouched on plain meshes and tori.
        for port in 4..topo.radix() {
            for (node, cell) in cells.iter_mut().enumerate() {
                let src = topo.terminal_at(NodeId::new(node as u16), port);
                let t = src.index();
                // A dead router takes its terminals with it: the PE stops
                // generating (its pending traffic was purged at death) and
                // draws nothing — the node is gone, not merely idle.
                if env.dead.contains(node) {
                    continue;
                }
                // New traffic.
                let count = if source_open && self.pes[t].source_queue.len() < SOURCE_QUEUE_CAP {
                    self.pes[t].injector.packets_this_cycle(&mut self.rng)
                } else {
                    0
                };
                for _ in 0..count {
                    let dest = env.config.pattern.destination(src, topo, &mut self.rng);
                    // Traffic addressed to a dead router is stillborn: the
                    // destination draw is consumed (the RNG stream stays a
                    // pure function of the cycle) but no packet exists.
                    if env.dead.contains(topo.router_of_terminal(dest).index()) {
                        continue;
                    }
                    let id = PacketId::new(self.next_packet);
                    self.next_packet += 1;
                    let mut packet = Packet::new(
                        id,
                        Header::with_class(src, dest, CLASS_DATA),
                        env.config.flits_per_packet(),
                        now,
                    );
                    for f in packet.flits_mut() {
                        protect_flit(f);
                    }
                    if scheme.uses_end_to_end_control() {
                        self.pes[t].e2e_source.on_send(packet.clone(), now);
                    }
                    self.pes[t].source_queue.push_back(packet);
                    self.packets_injected += 1;
                    self.tracer.emit(
                        now,
                        node as u16,
                        TraceEvent::PacketInjected {
                            packet: id.raw(),
                            src: t as u16,
                            dest: dest.index() as u16,
                        },
                    );
                }

                // Nothing queued, nothing mid-injection, no timeout scan
                // due: the rest of the loop body is a no-op. (The injector
                // draw above always happens, so the traffic RNG stream is
                // independent of this shortcut.)
                if self.pes[t].source_queue.is_empty()
                    && self.pes[t].injecting.is_none()
                    && !(scheme.uses_end_to_end_control() && now.is_multiple_of(32))
                {
                    continue;
                }

                // E2E/FEC timeouts (scanned every 32 cycles to bound cost).
                if scheme.uses_end_to_end_control() && now.is_multiple_of(32) {
                    let expired = self.pes[t].e2e_source.take_expired(now);
                    for packet in expired {
                        // A retransmission to a dead router would bounce
                        // forever: the destination died, so the copy is
                        // abandoned rather than requeued.
                        let dest = packet.flits()[0].header.dest;
                        if env.dead.contains(topo.router_of_terminal(dest).index()) {
                            continue;
                        }
                        cell.router.errors.e2e_retransmissions += 1;
                        self.pes[t].source_queue.push_back(packet);
                    }
                }

                // Continue or start a wormhole into this terminal's local
                // port. New packets are not admitted while the router is in
                // deadlock recovery (§3.2.1).
                if self.pes[t].injecting.is_none() && !cell.router.probe.in_recovery() {
                    if let Some(vc) = (0..vcs).find(|&v| cell.router.local_vc_idle(port, v)) {
                        if let Some(packet) = self.pes[t].source_queue.pop_front() {
                            let flits: VecDeque<Flit> = packet.into_flits().into();
                            self.pes[t].injecting = Some((vc, flits));
                        }
                    }
                }
                if let Some((vc, mut flits)) = self.pes[t].injecting.take() {
                    if cell.router.local_free_slots(port, vc) > 0 {
                        if let Some(flit) = flits.pop_front() {
                            self.flits_injected += 1;
                            cell.router.inject_local(port, vc, flit);
                            // The router just gained a flit: it must compute
                            // this very cycle (pre runs before compute).
                            env.active.wake_now(node);
                        }
                    }
                    if !flits.is_empty() {
                        self.pes[t].injecting = Some((vc, flits));
                    }
                }
            }
        }
    }

    /// Commit phase (node order): apply every cross-router effect
    /// buffered during compute, move the side-bands, sample statistics,
    /// advance the clock.
    pub(crate) fn commit(&mut self, env: &mut RunEnv, cells: &mut [RouterCell], now: u64) {
        // Awake routers only. A skipped router ran no compute phase: its
        // output buffers are exactly as this loop left them last time
        // (empty), so there is nothing to drain and no wake-up to
        // schedule.
        for n in env.active.awake() {
            let node = NodeId::new(n as u16);

            // Buffered trace events, in the phase order they occurred.
            if self.tracer.enabled() {
                for &ev in &cells[n].router.trace.events {
                    self.tracer.emit(now, n as u16, ev);
                }
            }
            cells[n].router.trace.events.clear();

            // Link drives onto the receiving router's forward wires. A
            // drive aimed at a dead router (the sender not yet notified,
            // or mid-wormhole toward the corpse) is lost at the pins —
            // booked into the loss ledger, never onto a wire, so the
            // skipped victim accumulates no due traffic.
            for i in 0..cells[n].router.drives.len() {
                let drive = cells[n].router.drives[i];
                let m = env
                    .neighbor(n, drive.dir)
                    .expect("drive targets an existing link");
                if env.dead.contains(m.index()) {
                    self.record_lost_flit(
                        m.index() as u16,
                        drive.flit,
                        drive.dir.index() as u8,
                        now,
                    );
                    continue;
                }
                cells[m.index()].io.flit_in[drive.dir.opposite().index()]
                    .as_mut()
                    .expect("forward wire exists")
                    .send_flit(drive.flit, drive.vc, now);
                if let Some(w) = self.wearout.as_mut() {
                    w.note(n, drive.dir.index());
                }
                self.wheel.schedule(m.index(), now + 1);
            }
            cells[n].router.drives.clear();

            // Ejections to the local PEs (the out port picks the
            // terminal on concentrated topologies).
            let router = &mut cells[n].router;
            for i in 0..router.ejected.len() {
                let (flit, port) = router.ejected[i];
                self.eject_flit(env, router, node, flit, port, now);
            }
            router.ejected.clear();

            // Freed credits back to the upstream routers.
            for i in 0..cells[n].router.freed_credits.len() {
                let (dir_in, vc) = cells[n].router.freed_credits[i];
                let up = env
                    .neighbor(n, dir_in)
                    .expect("credit for an existing link");
                if env.dead.contains(up.index()) {
                    continue;
                }
                cells[up.index()].io.rev_in[dir_in.opposite().index()]
                    .as_mut()
                    .expect("reverse wire exists")
                    .send_credit(vc, now);
                self.wheel.schedule(up.index(), now + 1);
            }
            cells[n].router.freed_credits.clear();

            // Arrival NACKs back to the upstream routers.
            for i in 0..cells[n].router.arrival_nacks.len() {
                let (p, vc) = cells[n].router.arrival_nacks[i];
                let up = env.neighbor(n, p).expect("nack for an existing link");
                if env.dead.contains(up.index()) {
                    continue;
                }
                cells[up.index()].io.rev_in[p.opposite().index()]
                    .as_mut()
                    .expect("reverse wire exists")
                    .send_nack(vc, now);
                self.wheel.schedule(up.index(), now + 2);
            }
            cells[n].router.arrival_nacks.clear();

            // Probe launches onto the side-band.
            if let Some((via, named)) = cells[n].router.probe_req.take() {
                match env.neighbor(n, via) {
                    // A probe aimed at a dead router is driven into dead
                    // pins — same silent loss as an unconnected port.
                    Some(to) if !env.dead.contains(to.index()) => {
                        self.probes.push(ProbeFlight {
                            signal: ProbeSignal {
                                origin: node,
                                vc: named,
                            },
                            to,
                            deliver_at: now + 1,
                            path: vec![node],
                        });
                        self.tracer.emit(
                            now,
                            n as u16,
                            TraceEvent::ProbeLaunched {
                                origin: n as u16,
                                port: via.index() as u8,
                                vc: named.vc,
                            },
                        );
                    }
                    // A logic upset (unprotected VA/RT) can leave the
                    // suspected VC waiting on a port with no link —
                    // the probe is driven into an unconnected wire
                    // and silently lost, like any mid-path discard.
                    _ => self.discard_probe(cells, node, node, now),
                }
            }

            // The self-requested re-wake this cell's compute phase asked
            // for (non-quiescent state, or pending inbound wire traffic).
            if cells[n].wants_wake {
                self.wheel.schedule(n, now + 1);
            }

            // `end_cycle` may have left recovery mode.
            if cells[n].router.probe.in_recovery() != env.recovering.contains(n) {
                self.recovery_edges.push(n);
            }
        }

        // Wear-out realization: links whose lifetime budget was crossed
        // by this cycle's traffic die at `now + 1`, in (node, dir) order.
        // The realization rewrites the fault state (timeline + routing
        // plans) that the next compute sweep reads.
        if let Some(w) = self.wearout.as_mut().filter(|w| !w.pending.is_empty()) {
            let mut pending = std::mem::take(&mut w.pending);
            pending.sort_unstable();
            let at = now + 1;
            for (node, d) in pending {
                let nid = NodeId::new(node as u16);
                // False when the link is already dead by `at` (both
                // directions of a link wear independently; the second
                // crossing of a dead link is a no-op).
                if env
                    .faults
                    .push_wearout_kill(at, nid, Direction::CARDINAL[d])
                {
                    let event = TraceEvent::LinkWoreOut { port: d as u8 };
                    self.tracer.emit(now, node as u16, event);
                }
            }
        }

        // Scheduled whole-router deaths land at `now + 1`: the purge
        // runs in this commit so cycle `now + 1` opens with the victim
        // dead, its flits in the loss ledger, and every neighbour's
        // control state normalized.
        let events = env.faults.timeline().events();
        let landing = events.partition_point(|ev| ev.at <= now)
            ..events.partition_point(|ev| ev.at <= now + 1);
        for i in landing {
            if let FaultEventKind::RouterDown { node } = env.faults.timeline().events()[i].kind {
                self.kill_router(env, cells, node, now);
                env.dead.set(node.index(), true);
            }
        }

        self.deliver_probes(env, cells, now);
        self.deliver_activations(env, cells, now);

        // Recovery-mode transition edges (entry via activation signals,
        // exit in end_cycle or by death), settled in node order: each
        // updates the recovering set next cycle's compute reads and
        // becomes a start/end event. A router noted twice, or one that
        // left and re-entered within the cycle, compares equal and
        // books nothing.
        self.recovery_edges.sort_unstable();
        self.recovery_edges.dedup();
        for n in self.recovery_edges.drain(..) {
            let rec = cells[n].router.probe.in_recovery();
            if rec != env.recovering.contains(n) {
                env.recovering.set(n, rec);
                let event = if rec {
                    TraceEvent::RecoveryStarted
                } else {
                    TraceEvent::RecoveryEnded
                };
                self.tracer.emit(now, n as u16, event);
            }
        }

        // Statistics sampling.
        if env.config.scheme.uses_end_to_end_control() && now.is_multiple_of(16) {
            for pe in &self.pes {
                let occ = pe.e2e_source.occupancy_flits() as u64;
                if occ > self.e2e_peak_source_flits {
                    self.e2e_peak_source_flits = occ;
                }
            }
        }
        if self.measuring {
            let mut skipped = env.config.topology.node_count() as u64;
            for n in env.active.awake() {
                let router = &cells[n].router;
                let (tx_occ, _, retx_occ, _) = router.sample_occupancy();
                self.stats.tx_occupancy_sum += tx_occ;
                self.stats.retx_occupancy_sum += retx_occ;
                router.record_port_occupancy(&mut self.stats.port_occupancy);
                skipped -= 1;
            }
            // A skipped router is quiescent (the invariant
            // `Oracle::check_activity` enforces): it holds no flit, so
            // it adds nothing to the sums and its four cardinal input
            // ports each sample as empty.
            self.stats.port_occupancy.record_empty(4 * skipped);
            self.stats.cycles += 1;
        }

        // Fault notification as a wake-up source: at every kill
        // detection/publication instant the whole mesh computes, so a
        // gated run observes the reconfiguration on exactly the cycle a
        // full sweep would. (A no-op for static-fault runs and when
        // gating is off.)
        let boundaries = env.faults.timeline().boundaries();
        if boundaries.binary_search(&(now + 1)).is_ok() {
            for n in 0..env.config.topology.node_count() {
                self.wheel.schedule(n, now + 1);
            }
        }

        self.now += 1;
    }

    /// Books one flit into the loss ledger: the flit count, the
    /// per-packet mask of lost sequence numbers (the conservation
    /// oracle audits both), and the structured drop event.
    fn record_lost_flit(&mut self, at_node: u16, flit: Flit, port: u8, now: u64) {
        self.flits_lost += 1;
        // `SimConfigBuilder::build` bounds real sequence numbers on any
        // run that gets here; one beyond the mask is a corrupted field.
        if usize::from(flit.seq) < LOSS_MASK_FLITS {
            *self.lost.entry(flit.packet.raw()).or_insert(0) |= 1 << u32::from(flit.seq);
        }
        self.tracer.emit(
            now,
            at_node,
            TraceEvent::FlitDropped {
                packet: flit.packet.raw(),
                seq: flit.seq,
                port,
                reason: DropReason::RouterDead,
            },
        );
    }

    /// Executes a whole-router death scheduled for cycle `now + 1`:
    /// builds the truncated-packet set (pass A), then sweeps it out of
    /// every structure in the network (pass B), crediting each drained
    /// original to the loss ledger; the caller then marks the victim
    /// dead. Structural mutation with no RNG draws, so gated and ungated
    /// runs stay byte-identical through a death.
    fn kill_router(&mut self, env: &RunEnv, cells: &mut [RouterCell], victim: NodeId, now: u64) {
        let v = victim.index();
        let topo = env.config.topology;
        let dest_router = |f: &Flit| topo.router_of_terminal(f.header.dest).index();

        // Pass A: membership. A packet is truncated by this death when
        // it has an original flit inside the victim, an open wormhole
        // through (or held traffic toward) the victim, a flit on a wire
        // into the victim, or a destination terminal behind it.
        let mut members: BTreeSet<u64> = BTreeSet::new();
        let vcell = &cells[v];
        vcell.router.scan_flits(|flit, original| {
            if original {
                members.insert(flit.packet.raw());
            }
        });
        vcell.router.open_wormholes(|_, _, _, packet| {
            members.insert(packet.raw());
        });
        for d in Direction::CARDINAL {
            if let Some(fw) = vcell.io.flit_in[d.index()].as_ref() {
                if let Some((flit, _, _)) = fw.peek() {
                    members.insert(flit.packet.raw());
                }
            }
        }
        // The victim's live neighbours, with the direction leaving it.
        let live_neighbors: Vec<(Direction, usize)> = Direction::CARDINAL
            .into_iter()
            .filter_map(|d| Some((d, env.neighbor(v, d)?.index())))
            .filter(|&(_, m)| !env.dead.contains(m))
            .collect();
        for &(d, m) in &live_neighbors {
            let c = &cells[m];
            let toward = d.opposite().index();
            c.router.open_wormholes(|_, _, out_port, packet| {
                if out_port == toward {
                    members.insert(packet.raw());
                }
            });
            c.router.sender_slots_on(toward, |flit, held| {
                if held {
                    members.insert(flit.packet.raw());
                }
            });
        }
        for (i, c) in cells.iter().enumerate() {
            if i == v || env.dead.contains(i) {
                continue;
            }
            c.router.scan_flits(|flit, _| {
                if dest_router(flit) == v {
                    members.insert(flit.packet.raw());
                }
            });
            for d in Direction::CARDINAL {
                if let Some(fw) = c.io.flit_in[d.index()].as_ref() {
                    if let Some((flit, _, _)) = fw.peek() {
                        if dest_router(&flit) == v {
                            members.insert(flit.packet.raw());
                        }
                    }
                }
            }
        }

        // Pass B: the sweep. The victim drains everything it holds;
        // every live router, wire and terminal sheds the member
        // packets; reverse side-bands crossing the corpse go quiet.
        let mut lost: Vec<(u16, Flit, u8)> = Vec::new();
        let vcell = &mut cells[v];
        for (flit, port) in vcell.router.purge_packets(|_| true) {
            lost.push((v as u16, flit, port));
        }
        vcell.router.probe.exit_recovery();
        self.recovery_edges.push(v);
        for d in Direction::CARDINAL {
            if let Some(fw) = vcell.io.flit_in[d.index()].as_mut() {
                if let Some((flit, _)) = fw.purge_if(|_| true) {
                    lost.push((v as u16, flit, d.index() as u8));
                }
            }
            if let Some(rw) = vcell.io.rev_in[d.index()].as_mut() {
                rw.clear();
            }
        }
        vcell.router.probe_req = None;
        vcell.router.arrival_nacks.clear();
        for (i, c) in cells.iter_mut().enumerate() {
            if i == v || env.dead.contains(i) {
                continue;
            }
            for (flit, port) in c.router.purge_packets(|id| members.contains(&id)) {
                lost.push((i as u16, flit, port));
            }
            for d in Direction::CARDINAL {
                if let Some(fw) = c.io.flit_in[d.index()].as_mut() {
                    if let Some((flit, _)) = fw.purge_if(|f| members.contains(&f.packet.raw())) {
                        lost.push((i as u16, flit, d.index() as u8));
                    }
                }
            }
        }
        for &(d, m) in &live_neighbors {
            if let Some(rw) = cells[m].io.rev_in[d.opposite().index()].as_mut() {
                rw.clear();
            }
        }

        // Side-band flights touching the corpse die with it.
        self.probes
            .retain(|p| p.signal.origin.index() != v && p.to.index() != v);
        self.activations.retain(|a| a.origin.index() != v);

        // Terminals: the victim's PEs die with their router (queued
        // traffic was never injected, so it is dropped, not "lost");
        // live terminals abandon packets addressed to the corpse.
        for (t, pe) in self.pes.iter_mut().enumerate() {
            if topo.router_of_terminal(NodeId::new(t as u16)) == victim {
                pe.source_queue.clear();
                pe.injecting = None;
            } else {
                pe.source_queue.retain(|p| dest_router(&p.flits()[0]) != v);
                if let Some((_, flits)) = &pe.injecting {
                    if flits
                        .front()
                        .is_some_and(|f| members.contains(&f.packet.raw()) || dest_router(f) == v)
                    {
                        pe.injecting = None;
                    }
                }
            }
        }

        let count = lost.len() as u64;
        for (at_node, flit, port) in lost {
            self.record_lost_flit(at_node, flit, port, now);
        }
        self.tracer
            .emit(now, v as u16, TraceEvent::RouterKilled { lost: count });
    }

    /// Handles one flit leaving the network at `node` through local out
    /// port `port` (which names the receiving terminal's PE).
    fn eject_flit(
        &mut self,
        env: &RunEnv,
        router: &mut Router,
        node: NodeId,
        flit: Flit,
        port: u8,
        now: u64,
    ) {
        self.flits_ejected += 1;
        let scheme = env.config.scheme;
        // The terminal this local port serves: `t == node` everywhere
        // except a concentrated mesh.
        let term = env.config.topology.terminal_at(node, port as usize);
        let fields = ftnoc_types::flit::PackedFields::unpack(flit.payload.data());
        let class = match scheme {
            ErrorScheme::Hbh | ErrorScheme::Fec => flit.header.class,
            _ => fields.class,
        };

        if class == CLASS_ACK || class == CLASS_NACK {
            // Control packets are single flits; resolve their reference.
            if let Some((kind, data_id)) = self.control_refs.remove(&flit.packet) {
                let pe = &mut self.pes[term.index()];
                if kind == CLASS_ACK {
                    pe.e2e_source.on_ack(data_id);
                } else if let Some(packet) = pe.e2e_source.on_nack(data_id, now) {
                    router.errors.e2e_retransmissions += 1;
                    pe.source_queue.push_back(packet);
                }
            }
            return;
        }

        match scheme {
            ErrorScheme::Hbh | ErrorScheme::Unprotected => {
                if flit.kind.is_tail() {
                    if Router::routed_dest(scheme, &flit) == term {
                        self.complete_packet(node, flit, now);
                    } else {
                        router.errors.misdelivered += 1;
                        self.tracer.emit(
                            now,
                            node.index() as u16,
                            TraceEvent::Misdelivered {
                                packet: flit.packet.raw(),
                            },
                        );
                    }
                }
            }
            ErrorScheme::E2e | ErrorScheme::Fec => {
                let verdict = self.pes[term.index()].e2e_dest.on_flit(term, &flit);
                match verdict {
                    Some(E2eVerdict::AcceptAndAck) => {
                        let fresh = self.delivered.insert(flit.packet);
                        if fresh {
                            self.complete_packet(node, flit, now);
                        }
                        self.send_control(term, flit.header.src, CLASS_ACK, flit.packet, now);
                    }
                    Some(E2eVerdict::RejectAndNack { src }) => {
                        self.send_control(term, src, CLASS_NACK, flit.packet, now);
                    }
                    None => {}
                }
            }
        }
    }

    /// Books a completed data packet into the latency statistics.
    fn complete_packet(&mut self, node: NodeId, tail: Flit, now: u64) {
        self.packets_ejected += 1;
        let latency = now.saturating_sub(tail.inject_cycle);
        self.tracer.emit(
            now,
            node.index() as u16,
            TraceEvent::PacketEjected {
                packet: tail.packet.raw(),
                latency,
            },
        );
        self.latency_sum += latency;
        if self.measuring {
            self.latency_hist.record(latency);
            if latency > self.latency_max {
                self.latency_max = latency;
            }
        }
    }

    /// Emits a single-flit ACK/NACK control packet from `from` to `to`.
    fn send_control(&mut self, from: NodeId, to: NodeId, class: u8, about: PacketId, now: u64) {
        if from == to {
            // Degenerate (corrupted source == here): treat as delivered.
            if class == CLASS_ACK {
                self.pes[from.index()].e2e_source.on_ack(about);
            }
            return;
        }
        let id = PacketId::new(self.next_packet);
        self.next_packet += 1;
        let mut packet = Packet::new(id, Header::with_class(from, to, class), 1, now);
        for f in packet.flits_mut() {
            protect_flit(f);
        }
        self.control_refs.insert(id, (class, about));
        // Control traffic jumps the source queue: reliability signalling
        // should not wait behind data.
        self.pes[from.index()].source_queue.push_front(packet);
    }

    /// A probe lost on the side-band (dead pins, an unconnected port, a
    /// hop that discards it), reported at node `at`: the origin gives up
    /// on it and must compute next cycle to re-arm.
    fn discard_probe(&mut self, cells: &mut [RouterCell], origin: NodeId, at: NodeId, now: u64) {
        let router = &mut cells[origin.index()].router;
        router.probe.probe_lost();
        router.errors.probes_discarded += 1;
        self.wheel.schedule(origin.index(), now + 1);
        self.tracer.emit(
            now,
            at.index() as u16,
            TraceEvent::ProbeDiscarded {
                origin: origin.index() as u16,
            },
        );
    }

    /// Probe side-band delivery (1 hop per cycle). In-place
    /// `swap_remove` loop: flights not yet due (including the ones
    /// re-pushed for `now + 1`) are skipped, so the pass allocates
    /// nothing in the steady state.
    fn deliver_probes(&mut self, env: &RunEnv, cells: &mut [RouterCell], now: u64) {
        let mut i = 0;
        while i < self.probes.len() {
            if self.probes[i].deliver_at > now {
                i += 1;
                continue;
            }
            let mut flight = self.probes.swap_remove(i);
            let at = flight.to;
            let origin = flight.signal.origin;
            // Delivered into dead pins: the corpse absorbs the probe
            // and the origin gives up on it, like any mid-path discard.
            if env.dead.contains(at.index()) {
                self.discard_probe(cells, origin, at, now);
                continue;
            }
            let router = &mut cells[at.index()].router;
            // Probes travel as regular flits: charge a link traversal.
            router.events.link += 1;
            // Probes only name cardinal arrival VCs (a forward edge's
            // `VcRef` is built from a link direction).
            let named = flight.signal.vc;
            let (blocked, fwd) = router.port_wait_info(named.port.index(), named.vc as usize);
            let action = router
                .probe
                .on_probe(flight.signal, blocked, fwd.map(|(_, vc)| vc));
            // The probe mutated this router's protocol state: make sure
            // it computes next cycle to act on it.
            self.wheel.schedule(at.index(), now + 1);
            match action {
                ProbeAction::Forward(sig) => {
                    let (dir, _) = fwd.expect("forward implies a next hop");
                    match env.neighbor(at.index(), dir) {
                        Some(next) if flight.path.len() <= 4 * env.config.topology.node_count() => {
                            flight.path.push(at);
                            self.probes.push(ProbeFlight {
                                signal: sig,
                                to: next,
                                deliver_at: now + 1,
                                path: flight.path,
                            });
                        }
                        _ => self.discard_probe(cells, origin, at, now),
                    }
                }
                ProbeAction::Discard => self.discard_probe(cells, origin, at, now),
                ProbeAction::Confirmed => {
                    cells[at.index()].router.errors.deadlocks_confirmed += 1;
                    self.tracer.emit(
                        now,
                        at.index() as u16,
                        TraceEvent::DeadlockConfirmed {
                            origin: origin.index() as u16,
                        },
                    );
                    flight.path.push(at); // back at the origin
                    self.activations.push(ActivationFlight {
                        origin,
                        path: flight.path,
                        next_index: 1,
                        deliver_at: now + 1,
                    });
                }
            }
        }
    }

    /// Activation delivery along the recorded probe path (in-place
    /// `swap_remove` loop, same discipline as the probe transport).
    fn deliver_activations(&mut self, env: &RunEnv, cells: &mut [RouterCell], now: u64) {
        let mut i = 0;
        while i < self.activations.len() {
            if self.activations[i].deliver_at > now {
                i += 1;
                continue;
            }
            let mut flight = self.activations.swap_remove(i);
            let Some(&at) = flight.path.get(flight.next_index) else {
                continue;
            };
            // The recorded path runs through a corpse: the activation
            // dies there (downstream nodes recover via their own probes).
            if env.dead.contains(at.index()) {
                continue;
            }
            let router = &mut cells[at.index()].router;
            router.events.link += 1;
            // Count recovery *entries* (rising edges only): a node
            // already recovering still answers EnterRecoveryAndForward
            // for forwarding purposes, which must not double-count.
            let was_recovering = router.probe.in_recovery();
            let action = router.probe.on_activation(ActivationSignal {
                origin: flight.origin,
            });
            if !was_recovering && router.probe.in_recovery() {
                router.recoveries += 1;
                self.recovery_edges.push(at.index());
            }
            // The activation may have flipped this router into recovery
            // mode: it must compute next cycle to start absorbing.
            self.wheel.schedule(at.index(), now + 1);
            match action {
                ActivationAction::EnterRecoveryAndForward => {
                    flight.next_index += 1;
                    flight.deliver_at = now + 1;
                    self.activations.push(flight);
                }
                ActivationAction::RecoveryComplete | ActivationAction::Discard => {}
            }
        }
    }
}

/// The event and error censuses summed over every router.
fn sum_censuses<'c>(cells: impl Iterator<Item = &'c RouterCell>) -> (EventCounts, ErrorStats) {
    let mut sums = (EventCounts::default(), ErrorStats::default());
    for cell in cells {
        sums.0.absorb(&cell.router.events);
        sums.1.absorb(&cell.router.errors);
    }
    sums
}

#[cfg(test)]
mod tests {
    use ftnoc_types::config::{BufferOrg, RouterConfig};

    use super::*;
    use crate::stats::OccupancyHistogram;

    /// N = 9 leaves 55 spare bits in the only word, 64 none, and 72 a
    /// second word 8 bits wide.
    const SIZES: [usize; 3] = [9, 64, 72];

    #[test]
    fn gated_active_set_yields_exactly_the_scheduled_routers() {
        for n in SIZES {
            let mut wheel = ActivityWheel::new(n, true);
            let mut active = ActiveSet::new(n, true);
            assert_eq!(active.awake().count(), 0, "n={n}: nothing published yet");

            // Cycle 0 stores all-ones words: the tail must not leak.
            active.refresh(&mut wheel, 0);
            assert!(active.awake().eq(0..n), "n={n}: cycle 0 wakes exactly 0..n");

            let picked = [0, 5, n - 1];
            for node in picked {
                wheel.schedule(node, 1);
            }
            active.refresh(&mut wheel, 1);
            assert!(active.awake().eq(picked), "n={n}: node order, no extras");
            active.wake_now(3);
            assert!(
                active.awake().eq([0, 3, 5, n - 1]),
                "n={n}: woken by injection"
            );

            active.refresh(&mut wheel, 2);
            assert_eq!(active.awake().count(), 0, "n={n}: slot 2 was empty");
        }
    }

    #[test]
    fn ungated_active_set_is_every_router_whatever_the_words_hold() {
        for n in SIZES {
            let mut wheel = ActivityWheel::new(n, false);
            let mut active = ActiveSet::new(n, false);
            // The words are never written when gating is off.
            assert!(active.awake().eq(0..n), "n={n}: before any refresh");
            wheel.schedule(2, 1);
            active.refresh(&mut wheel, 0);
            active.refresh(&mut wheel, 1);
            assert!(active.awake().eq(0..n), "n={n}: after refreshes");
        }
    }

    /// glibc serves an allocation of 128 KiB or more (its default
    /// `M_MMAP_THRESHOLD`) with a fresh `mmap`, which an 8×8's router
    /// table would then pay for in set-up time and peak RSS. New
    /// per-router state that crosses it must say so, not slip past.
    #[test]
    fn an_8x8_router_table_stays_under_the_mmap_threshold() {
        let table = 64 * std::mem::size_of::<RouterCell>();
        assert!(
            table < 128 << 10,
            "64 router cells take {table} B: at or above glibc's 128 KiB mmap threshold"
        );
    }

    /// What `commit` books for a router it did not visit: no occupied
    /// slot and four decile-0 port samples. Holds for a quiescent router
    /// under either buffer organisation.
    #[test]
    fn a_quiescent_router_samples_as_the_skipped_router_constant() {
        for org in [BufferOrg::StaticPartition, BufferOrg::Damq { pool_size: 8 }] {
            let mut b = SimConfig::builder();
            b.router(RouterConfig::builder().buffer_org(org).build().unwrap());
            let config = b.build().unwrap();
            // A corner router: two of its cardinal ports have no link.
            let router = Router::new(NodeId::new(0), &config, [false, true, true, false]);
            assert!(router.is_quiescent());

            let (tx_occ, tx_cap, retx_occ, retx_cap) = router.sample_occupancy();
            assert_eq!((tx_occ, retx_occ), (0, 0), "{org:?}");
            assert!(tx_cap > 0 && retx_cap > 0, "{org:?}");

            let mut sampled = OccupancyHistogram::default();
            router.record_port_occupancy(&mut sampled);
            let mut constant = OccupancyHistogram::default();
            constant.record_empty(4);
            assert_eq!(sampled, constant, "{org:?}");
            assert_eq!(sampled.buckets()[0], 4, "{org:?}");
        }
    }
}
