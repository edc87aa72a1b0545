//! Simulation configuration.

use ftnoc_fault::{FaultPlan, FaultRates, FaultTimeline};
use ftnoc_traffic::{InjectionProcess, TrafficPattern};
use ftnoc_types::config::RouterConfig;
use ftnoc_types::error::ConfigError;
use ftnoc_types::geom::Topology;

/// The routing algorithms evaluated by the paper and this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingAlgorithm {
    /// XY dimension-order routing — the paper's deterministic ("DT")
    /// algorithm. Deadlock-free on a mesh.
    #[default]
    XyDeterministic,
    /// West-first turn-model routing — partially adaptive and
    /// deadlock-free; the default adaptive ("AD") algorithm.
    WestFirstAdaptive,
    /// Minimal fully adaptive routing with free VC selection. **Not**
    /// deadlock-free: exercises the probing + retransmission-buffer
    /// recovery machinery of §3.2.
    FullyAdaptive,
    /// Odd-even turn-model routing (extension; deadlock-free).
    OddEven,
    /// Fault-aware adaptive routing over the live-link graph: an
    /// up*/down* relation rebuilt per fault-publication epoch, with
    /// FASHION-style rectangular fault regions steering candidate
    /// preference. Deadlock-free for any connected fault set — minimal
    /// where possible, safely non-minimal around faults.
    FaultAware,
}

impl RoutingAlgorithm {
    /// Text names for [`ftnoc_types::lookup`] / [`ftnoc_types::name`]:
    /// the first row of a value is its printed name, later rows aliases.
    pub const NAMES: &'static [(&'static str, RoutingAlgorithm)] = &[
        ("xy", RoutingAlgorithm::XyDeterministic),
        ("dt", RoutingAlgorithm::XyDeterministic),
        ("wf", RoutingAlgorithm::WestFirstAdaptive),
        ("ad", RoutingAlgorithm::WestFirstAdaptive),
        ("fa", RoutingAlgorithm::FullyAdaptive),
        ("oe", RoutingAlgorithm::OddEven),
        ("fta", RoutingAlgorithm::FaultAware),
        ("fault-aware", RoutingAlgorithm::FaultAware),
    ];

    /// Whether the algorithm can reach cyclic channel dependency
    /// (and therefore needs deadlock recovery).
    pub fn can_deadlock(self) -> bool {
        matches!(self, RoutingAlgorithm::FullyAdaptive)
    }

    /// Short label used in tables (`DT`, `AD`, …).
    pub fn short_name(self) -> &'static str {
        match self {
            RoutingAlgorithm::XyDeterministic => "DT",
            RoutingAlgorithm::WestFirstAdaptive => "AD",
            RoutingAlgorithm::FullyAdaptive => "FA",
            RoutingAlgorithm::OddEven => "OE",
            RoutingAlgorithm::FaultAware => "FTA",
        }
    }
}

/// Link-error handling scheme (§3, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorScheme {
    /// Flit-based hop-by-hop retransmission with per-hop SEC/DED — the
    /// paper's proposal (§3.1).
    #[default]
    Hbh,
    /// End-to-end retransmission: detection only, at the destination;
    /// NACK/ACK control packets; source-side packet buffer with timeout.
    E2e,
    /// Forward error correction only. Single-bit upsets are corrected at
    /// every hop for free (no buffers, no NACK wires), but there is no
    /// answer to a detected-uncorrectable one: the flit flows on corrupted
    /// and the destination rejects the packet end-to-end exactly like
    /// E2E. The scheme therefore sits between HBH (everything recovered
    /// locally) and E2E (everything recovered end-to-end): only the
    /// multi-bit tail of the error mixture pays the round-trip price.
    Fec,
    /// No protection at all (baseline for tests; packets may be lost or
    /// misdelivered silently).
    Unprotected,
}

impl ErrorScheme {
    /// Text names, as [`RoutingAlgorithm::NAMES`].
    pub const NAMES: &'static [(&'static str, ErrorScheme)] = &[
        ("hbh", ErrorScheme::Hbh),
        ("e2e", ErrorScheme::E2e),
        ("fec", ErrorScheme::Fec),
        ("none", ErrorScheme::Unprotected),
    ];

    /// Short label used in tables.
    pub fn short_name(self) -> &'static str {
        match self {
            ErrorScheme::Hbh => "HBH",
            ErrorScheme::E2e => "E2E",
            ErrorScheme::Fec => "FEC",
            ErrorScheme::Unprotected => "NONE",
        }
    }

    /// Whether end-to-end ACK/NACK control traffic is generated.
    pub fn uses_end_to_end_control(self) -> bool {
        matches!(self, ErrorScheme::E2e | ErrorScheme::Fec)
    }
}

/// Deadlock detection/recovery knobs (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockConfig {
    /// Whether probing + recovery are active.
    pub enabled: bool,
    /// Blocking threshold `Cthres` before a probe is sent (§3.2.2).
    pub cthres: u64,
}

impl Default for DeadlockConfig {
    fn default() -> Self {
        DeadlockConfig {
            enabled: false,
            cthres: 64,
        }
    }
}

/// Flit sequence numbers the loss ledger's per-packet `u128` mask can
/// hold. [`SimConfigBuilder::build`] rejects longer packets on runs that
/// can lose flits, so the conservation oracle never audits a truncated
/// mask.
pub(crate) const LOSS_MASK_FLITS: usize = u128::BITS as usize;

/// Terminals that 16-bit terminal ids can name. [`SimConfigBuilder::build`]
/// rejects larger topologies, since injection and destination draws cast
/// terminal indices to `u16`.
const MAX_TERMINALS: usize = 1 << u16::BITS;

/// Cycles between a mid-run fault's local detection and its
/// network-wide publication when the [`FaultPlan`] sets no `notify`.
const DEFAULT_FAULT_NOTIFY: u64 = 4;

/// Complete configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Network topology (default: the paper's 8×8 mesh).
    pub topology: Topology,
    /// Router micro-architecture (default: 5 PCs × 3 VCs, 4-deep buffers,
    /// 3-stage pipeline, 3-deep retransmission buffers).
    pub router: RouterConfig,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Link-error handling scheme.
    pub scheme: ErrorScheme,
    /// Whether the Allocation Comparator protects VA/SA state (§4).
    pub ac_enabled: bool,
    /// Traffic destination distribution.
    pub pattern: TrafficPattern,
    /// Injection process (regular intervals per §2.2).
    pub injection: InjectionProcess,
    /// Injection rate in flits/node/cycle.
    pub injection_rate: f64,
    /// Soft-fault rates per site.
    pub faults: FaultRates,
    /// The run's hard faults, all of them: links and routers dead at
    /// reset or dying at a cycle, the wear-out model, and the
    /// detection → publication latency (default 4 cycles). Checked
    /// structurally by [`SimConfigBuilder::build`].
    pub fault_plan: FaultPlan,
    /// Deadlock detection/recovery.
    pub deadlock: DeadlockConfig,
    /// RNG seed (traffic and faults).
    pub seed: u64,
    /// Packets ejected before statistics reset (paper: 100 000).
    pub warmup_packets: u64,
    /// Packets ejected, after warm-up, before the run ends
    /// (paper: 200 000 more, 300 000 total).
    pub measure_packets: u64,
    /// Hard cycle cap (guards against saturated or wedged networks).
    pub max_cycles: u64,
    /// E2E/FEC source timeout in cycles.
    pub e2e_timeout: u64,
    /// Stop generating new traffic after this cycle (closed/drain
    /// workloads, e.g. the deadlock-recovery experiments). `None` keeps
    /// the open-loop source running for the whole run.
    pub stop_injection_after: Option<u64>,
    /// An echo the engine does not read (once the compute-phase worker
    /// count): `benchmark/src` spells it, `SimReport` and `MetaLine` copy it.
    pub threads: usize,
    /// Activity gating: skip the compute phase of routers with no
    /// scheduled wake-up (quiescent routers). Results are byte-identical
    /// with gating on or off at the same seed — this is purely a
    /// wall-clock knob; `false` forces the full-sweep engine,
    /// the reference the parity suites and a quarter of the fuzz
    /// campaigns (`gate=0`) compare against.
    pub activity_gating: bool,
}

impl SimConfig {
    /// Starts building a configuration from the paper's defaults, scaled
    /// to a laptop-friendly packet count (use
    /// [`SimConfigBuilder::paper_scale`] for the full 300 000-message
    /// runs).
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// Flits per packet (delegates to the router configuration).
    pub fn flits_per_packet(&self) -> usize {
        self.router.flits_per_packet()
    }

    /// The [`FaultTimeline`] of the configured plan. Wear-out kills are
    /// not part of it — the sim realizes them online from traffic.
    pub fn fault_timeline(&self) -> FaultTimeline {
        self.fault_plan
            .timeline(self.topology, self.notify_latency())
    }

    /// Cycles between a mid-run fault's local detection and its
    /// network-wide publication: the plan's `notify`, or the default.
    pub fn notify_latency(&self) -> u64 {
        self.fault_plan.notify().unwrap_or(DEFAULT_FAULT_NOTIFY)
    }

    /// The wear-out budget seed the run actually uses: the spec's
    /// explicit seed, or one derived from the run seed.
    pub fn wearout_seed(&self) -> u64 {
        match self.fault_plan.wearout_spec() {
            Some(w) if w.seed != 0 => w.seed,
            _ => self.seed ^ 0x00AE_510F_BADE,
        }
    }

    /// Whether the run can lose flits (a router death purges buffers):
    /// any configured router kill. Wear-out alone never loses flits —
    /// link deaths drain gracefully.
    pub fn can_lose_flits(&self) -> bool {
        !self.fault_plan.router_kills().is_empty()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::builder()
            .build()
            .expect("default config is valid")
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Paper defaults with scaled-down packet counts.
    pub fn new() -> Self {
        SimConfigBuilder {
            config: SimConfig {
                topology: Topology::mesh(8, 8),
                router: RouterConfig::default(),
                routing: RoutingAlgorithm::XyDeterministic,
                scheme: ErrorScheme::Hbh,
                ac_enabled: true,
                pattern: TrafficPattern::Uniform,
                injection: InjectionProcess::Regular,
                injection_rate: 0.25,
                faults: FaultRates::none(),
                fault_plan: FaultPlan::new(),
                deadlock: DeadlockConfig::default(),
                seed: 0xF7_0C,
                warmup_packets: 2_000,
                measure_packets: 8_000,
                max_cycles: 2_000_000,
                e2e_timeout: 400,
                stop_injection_after: None,
                threads: 1,
                activity_gating: true,
            },
        }
    }

    /// The paper's full experiment scale: 100 000 warm-up messages and
    /// 300 000 total ejected messages.
    pub fn paper_scale(&mut self) -> &mut Self {
        self.config.warmup_packets = 100_000;
        self.config.measure_packets = 200_000;
        self.config.max_cycles = 20_000_000;
        self
    }

    /// Sets the topology.
    pub fn topology(&mut self, topology: Topology) -> &mut Self {
        self.config.topology = topology;
        self
    }

    /// Sets the router micro-architecture.
    pub fn router(&mut self, router: RouterConfig) -> &mut Self {
        self.config.router = router;
        self
    }

    /// Sets the routing algorithm.
    pub fn routing(&mut self, routing: RoutingAlgorithm) -> &mut Self {
        self.config.routing = routing;
        self
    }

    /// Sets the link-error handling scheme.
    pub fn scheme(&mut self, scheme: ErrorScheme) -> &mut Self {
        self.config.scheme = scheme;
        self
    }

    /// Enables or disables the Allocation Comparator.
    pub fn ac_enabled(&mut self, enabled: bool) -> &mut Self {
        self.config.ac_enabled = enabled;
        self
    }

    /// Sets the traffic pattern.
    pub fn pattern(&mut self, pattern: TrafficPattern) -> &mut Self {
        self.config.pattern = pattern;
        self
    }

    /// Sets the injection process.
    pub fn injection(&mut self, injection: InjectionProcess) -> &mut Self {
        self.config.injection = injection;
        self
    }

    /// Sets the injection rate in flits/node/cycle.
    pub fn injection_rate(&mut self, rate: f64) -> &mut Self {
        self.config.injection_rate = rate;
        self
    }

    /// Sets the soft-fault rates.
    pub fn faults(&mut self, faults: FaultRates) -> &mut Self {
        self.config.faults = faults;
        self
    }

    /// Sets the run's hard faults — the only way to configure them.
    /// [`SimConfigBuilder::build`] runs [`FaultPlan::check`] against the
    /// topology; whether the end state must stay connected is the
    /// caller's policy ([`FaultPlan::validate`]).
    pub fn fault_plan(&mut self, plan: &FaultPlan) -> &mut Self {
        self.config.fault_plan = plan.clone();
        self
    }

    /// Configures deadlock detection/recovery.
    pub fn deadlock(&mut self, deadlock: DeadlockConfig) -> &mut Self {
        self.config.deadlock = deadlock;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Sets the warm-up packet count.
    pub fn warmup_packets(&mut self, packets: u64) -> &mut Self {
        self.config.warmup_packets = packets;
        self
    }

    /// Sets the measured packet count.
    pub fn measure_packets(&mut self, packets: u64) -> &mut Self {
        self.config.measure_packets = packets;
        self
    }

    /// Sets the hard cycle cap.
    pub fn max_cycles(&mut self, cycles: u64) -> &mut Self {
        self.config.max_cycles = cycles;
        self
    }

    /// Sets the E2E/FEC source timeout.
    pub fn e2e_timeout(&mut self, cycles: u64) -> &mut Self {
        self.config.e2e_timeout = cycles;
        self
    }

    /// Stops traffic generation after `cycle` (closed/drain workloads).
    pub fn stop_injection_after(&mut self, cycle: u64) -> &mut Self {
        self.config.stop_injection_after = Some(cycle);
        self
    }

    /// Sets [`SimConfig::threads`], an echo the engine does not read.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Enables or disables activity gating (skipping quiescent routers'
    /// compute phase). Byte-identical either way; `false` is the
    /// full-sweep parity reference.
    pub fn activity_gating(&mut self, enabled: bool) -> &mut Self {
        self.config.activity_gating = enabled;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid injection rates, for fewer
    /// than two terminals or more than 16-bit ids can name, for a fault
    /// rate that is not a probability ([`FaultRates::validate`]), for a
    /// fault plan that names a node or link the topology lacks or kills a
    /// target twice ([`FaultPlan::check`]), and for router kills with
    /// packets the loss ledger cannot track; router knobs are validated
    /// by their own type.
    pub fn build(&self) -> Result<SimConfig, ConfigError> {
        let c = &self.config;
        if !(c.injection_rate > 0.0 && c.injection_rate <= 1.0) {
            return Err(ConfigError::InvalidInjectionRate(c.injection_rate));
        }
        // `TrafficPattern::destination` asserts on a lone terminal.
        if c.topology.terminal_count() < 2 {
            return Err(ConfigError::TooFewTerminals(c.topology.terminal_count()));
        }
        if c.topology.terminal_count() > MAX_TERMINALS {
            return Err(ConfigError::TooManyTerminals(c.topology.terminal_count()));
        }
        // Every router builds its probe state machine, recovery enabled
        // or not, and `ProbeProtocol::new` asserts on a zero threshold.
        if c.deadlock.cthres == 0 {
            return Err(ConfigError::ZeroBlockingThreshold);
        }
        c.faults.validate()?;
        c.fault_plan.check(c.topology)?;
        if c.can_lose_flits() && c.flits_per_packet() > LOSS_MASK_FLITS {
            return Err(ConfigError::PacketTooLongForLossLedger(
                c.flits_per_packet(),
            ));
        }
        let mut config = c.clone();
        // The router radix follows the topology: 4 cardinals plus one
        // local port per attached terminal. Re-derived here so callers
        // set the topology and the router knobs independently.
        let radix = config.topology.radix();
        if config.router.ports() != radix {
            let mut rb = RouterConfig::builder();
            rb.ports(radix)
                .vcs_per_port(config.router.vcs_per_port())
                .buffer_depth(config.router.buffer_depth())
                .retrans_depth(config.router.retrans_depth())
                .flits_per_packet(config.router.flits_per_packet())
                .pipeline(config.router.pipeline())
                .buffer_org(config.router.buffer_org());
            config.router = rb.build()?;
        }
        Ok(config)
    }
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::geom::{Direction, NodeId};

    #[test]
    fn default_config_matches_paper_platform() {
        let c = SimConfig::default();
        assert_eq!(c.topology.node_count(), 64);
        assert_eq!(c.router.vcs_per_port(), 3);
        assert_eq!(c.router.flits_per_packet(), 4);
        assert_eq!(c.routing, RoutingAlgorithm::XyDeterministic);
        assert_eq!(c.scheme, ErrorScheme::Hbh);
        assert!(c.ac_enabled);
    }

    #[test]
    fn paper_scale_sets_300k_messages() {
        let c = SimConfig::builder().paper_scale().build().unwrap();
        assert_eq!(c.warmup_packets + c.measure_packets, 300_000);
    }

    #[test]
    fn invalid_injection_rate_rejected() {
        assert!(SimConfig::builder().injection_rate(0.0).build().is_err());
        assert!(SimConfig::builder().injection_rate(1.2).build().is_err());
    }

    #[test]
    fn a_lone_terminal_is_a_typed_error() {
        for (topology, terminals) in [
            (Topology::mesh(1, 1), 1),
            (Topology::torus(1, 1), 1),
            (Topology::cmesh(1, 1, 1), 1),
            (Topology::cmesh(1, 1, 4), 4),
            (Topology::mesh(1, 2), 2),
            (Topology::torus(1, 2), 2),
        ] {
            let built = SimConfig::builder().topology(topology).build();
            let expected = (terminals < 2).then_some(ConfigError::TooFewTerminals(terminals));
            assert_eq!(built.err(), expected, "{topology:?}");
        }
    }

    #[test]
    fn more_terminals_than_16_bit_ids_is_a_typed_error() {
        let built = |topology| SimConfig::builder().topology(topology).build();
        let too_many = Topology::cmesh(91, 91, 8);
        assert_eq!(too_many.terminal_count(), 66_248);
        assert_eq!(
            built(too_many).unwrap_err(),
            ConfigError::TooManyTerminals(66_248)
        );
        let exactly = Topology::cmesh(128, 128, 4);
        assert_eq!(exactly.terminal_count(), MAX_TERMINALS);
        assert!(built(exactly).is_ok());
    }

    #[test]
    fn a_zero_blocking_threshold_is_a_typed_error() {
        for enabled in [false, true] {
            let deadlock = DeadlockConfig { enabled, cthres: 0 };
            assert_eq!(
                SimConfig::builder().deadlock(deadlock).build().unwrap_err(),
                ConfigError::ZeroBlockingThreshold
            );
        }
    }

    #[test]
    fn a_fault_rate_that_is_no_probability_is_a_typed_error() {
        let build = |faults| SimConfig::builder().faults(faults).build();
        assert_eq!(
            build(FaultRates::link_only(2.0)).unwrap_err(),
            ConfigError::InvalidFaultRate {
                site: "link",
                rate: 2.0
            }
        );
        assert!(matches!(
            build(FaultRates::sa_only(f64::NAN)),
            Err(ConfigError::InvalidFaultRate { site: "sa", .. })
        ));
        assert!(build(FaultRates::link_only(1.0)).is_ok());
    }

    #[test]
    fn router_kill_with_packets_beyond_the_loss_mask_is_rejected() {
        let mut kill = FaultPlan::new();
        kill.kill_router_at(100, NodeId::new(5));
        let build = |flits: usize, plan: &FaultPlan| {
            let mut router = RouterConfig::builder();
            router.flits_per_packet(flits);
            let mut b = SimConfig::builder();
            b.router(router.build().unwrap()).fault_plan(plan);
            b.build()
        };
        assert_eq!(
            build(LOSS_MASK_FLITS + 1, &kill).unwrap_err(),
            ConfigError::PacketTooLongForLossLedger(LOSS_MASK_FLITS + 1)
        );
        assert!(build(LOSS_MASK_FLITS, &kill).is_ok());
        assert!(build(LOSS_MASK_FLITS + 1, &FaultPlan::new()).is_ok());
    }

    #[test]
    fn algorithm_properties() {
        assert!(!RoutingAlgorithm::XyDeterministic.can_deadlock());
        assert!(!RoutingAlgorithm::WestFirstAdaptive.can_deadlock());
        assert!(RoutingAlgorithm::FullyAdaptive.can_deadlock());
        assert_eq!(RoutingAlgorithm::XyDeterministic.short_name(), "DT");
        assert_eq!(RoutingAlgorithm::WestFirstAdaptive.short_name(), "AD");
        // Fault-aware is deadlock-free by construction (acyclic
        // up*/down* relation) — recovery is optional, a transition
        // safety net, never a correctness requirement.
        assert!(!RoutingAlgorithm::FaultAware.can_deadlock());
        assert_eq!(RoutingAlgorithm::FaultAware.short_name(), "FTA");
    }

    #[test]
    fn fault_timeline_defaults_to_static() {
        let c = SimConfig::default();
        assert!(c.fault_plan.is_empty());
        assert!(c.fault_timeline().boundaries().is_empty());
        assert_eq!(c.notify_latency(), 4);
        assert!(!c.can_lose_flits());
    }

    #[test]
    fn the_config_carries_the_plan() {
        let specs = [
            "link:0:e",
            "link:5:s@100",
            "router:9@250",
            "wearout:1000:7",
            "notify:8",
        ];
        let mut plan = FaultPlan::new();
        for spec in specs {
            plan.add_spec(spec).unwrap();
        }
        // The setter stores the plan; the topology may be set after it.
        let mut b = SimConfig::builder();
        b.fault_plan(&plan).topology(Topology::mesh(4, 4));
        let c = b.build().unwrap();
        assert_eq!(c.fault_plan.to_specs(), specs);
        assert_eq!(c.wearout_seed(), 7);
        assert!(c.can_lose_flits());
        let tl = c.fault_timeline();
        assert!(tl.link_dead_now(0, NodeId::new(0), Direction::East));
        let landed: Vec<u64> = tl.events().iter().map(|e| e.at).collect();
        assert_eq!(landed, [100, 250]);
        assert_eq!(tl.notify_latency(), 8);
    }

    /// Every structural fault-plan error surfaces from `build()` as a
    /// typed error naming the offender; `Network::new` is never reached.
    #[test]
    fn build_rejects_structurally_broken_fault_plans() {
        let build = |specs: &[&str]| {
            let mut plan = FaultPlan::new();
            for spec in specs {
                plan.add_spec(spec).unwrap();
            }
            let mut b = SimConfig::builder();
            b.topology(Topology::mesh(4, 4)).fault_plan(&plan);
            b.build().map(|_| ())
        };
        let n = NodeId::new;
        let dead = |at, node, dir| {
            Err(ConfigError::FaultTargetAlreadyDead {
                at,
                node: n(node),
                dir,
            })
        };
        let absent = |node, dir| ConfigError::FaultLinkAbsent { node: n(node), dir };
        // Second kill of one physical link, named from the far endpoint.
        assert_eq!(
            build(&["link:5:e@10", "link:6:w@20"]),
            dead(20, 6, Some(Direction::West))
        );
        // A link kill on a port of a router that is already dead.
        assert_eq!(
            build(&["router:5@10", "link:4:e@20"]),
            dead(20, 4, Some(Direction::East))
        );
        assert_eq!(build(&["router:5", "router:5@20"]), dead(20, 5, None));
        for (spec, node) in [("link:99:e@10", 99), ("router:16", 16), ("link:16:e", 16)] {
            let (node, nodes) = (n(node), 16);
            assert_eq!(
                build(&[spec]),
                Err(ConfigError::FaultNodeOutOfRange { node, nodes })
            );
        }
        // Mesh edge: node 0 has no north link.
        assert_eq!(build(&["link:0:n@10"]), Err(absent(0, Direction::North)));
        // The PE port is not a link (unreachable from the spec grammar).
        let mut plan = FaultPlan::new();
        plan.kill_link_at(10, n(5), Direction::Local);
        assert_eq!(
            SimConfig::builder().fault_plan(&plan).build().unwrap_err(),
            absent(5, Direction::Local)
        );
        // A router death covering an earlier link kill is legal.
        assert_eq!(build(&["link:5:e@10", "router:5@20"]), Ok(()));
    }

    /// Connectivity is front-end policy, not a structural error: the
    /// fuzzer samples plans that strand a node, and they must build.
    #[test]
    fn build_accepts_a_plan_that_disconnects_the_network() {
        let topo = Topology::mesh(2, 2);
        let mut plan = FaultPlan::new();
        plan.kill_link_at(50, NodeId::new(0), Direction::East)
            .kill_router_at(80, NodeId::new(2));
        assert!(plan.validate(topo).unwrap_err().contains("disconnected"));
        let mut b = SimConfig::builder();
        b.topology(topo)
            .routing(RoutingAlgorithm::FaultAware)
            .fault_plan(&plan);
        let config = b.build().unwrap();
        let mut net = crate::Network::new(config);
        for _ in 0..200 {
            net.step();
        }
    }

    #[test]
    fn scheme_properties() {
        assert!(ErrorScheme::E2e.uses_end_to_end_control());
        assert!(ErrorScheme::Fec.uses_end_to_end_control());
        assert!(!ErrorScheme::Hbh.uses_end_to_end_control());
        assert_eq!(ErrorScheme::Hbh.short_name(), "HBH");
    }
}
