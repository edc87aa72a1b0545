//! Deterministic fault-campaign fuzzing: thousands of short randomized
//! simulations across the configuration × traffic × fault-rate × thread
//! space, every cycle validated by the [`Oracle`]. On failure the
//! campaign parameters are shrunk greedily and printed as a
//! self-contained reproducer spec (`ftnoc fuzz --repro <spec>`).
//!
//! Everything is driven by [`ftnoc_rng::Rng`] from a single master
//! seed, so a campaign index always maps to the same parameters and a
//! reproducer spec replays bit-identically.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ftnoc_fault::plan::dir_char;
use ftnoc_fault::{FaultPlan, FaultRates, WearoutSpec};
use ftnoc_rng::Rng;
use ftnoc_sim::config::{DeadlockConfig, ErrorScheme, RoutingAlgorithm};
use ftnoc_sim::{NetSnapshot, Network, SimConfig};
use ftnoc_traffic::{InjectionProcess, TrafficPattern};
use ftnoc_types::config::{BufferOrg, PipelineDepth, RouterConfig};
use ftnoc_types::geom::{Direction, NodeId, Topology, TopologyKind};
use ftnoc_types::{lookup, name, ConfigError};

use crate::oracle::{Oracle, Violation};

/// Topology class of a fuzzed network. Chiplet grids are deliberately
/// excluded from sampling: their suppressed boundary links invalidate
/// the planted-kill arithmetic (which picks from the full mesh link
/// set) and they hard-require fault-aware routing, so they get
/// dedicated directed tests instead of fuzz coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTopology {
    /// Plain 2D mesh (the paper's platform; the shrink target).
    Mesh,
    /// 2D torus — same grid plus wrap links, so the mesh link set used
    /// by the kill planting still exists.
    Torus,
    /// Concentrated mesh with `conc` terminals per router; the
    /// inter-router graph is exactly the mesh graph.
    CMesh {
        /// Terminals per router (2–8).
        conc: u8,
    },
}

/// One campaign: a complete, self-describing simulation configuration.
/// Round-trips through the `k=v,...` reproducer spec.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignParams {
    /// Grid width in routers.
    pub width: u8,
    /// Grid height in routers.
    pub height: u8,
    /// VCs per port.
    pub vcs: usize,
    /// Input buffer depth in flits.
    pub buffer: usize,
    /// Retransmission buffer depth in flits.
    pub retrans: usize,
    /// Router pipeline depth (1–4).
    pub pipeline: PipelineDepth,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Link-error handling scheme.
    pub scheme: ErrorScheme,
    /// Allocation Comparator on/off.
    pub ac: bool,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Injection process.
    pub injection: InjectionProcess,
    /// Injection rate in flits/node/cycle.
    pub rate: f64,
    /// Link soft-error rate.
    pub link: f64,
    /// Handshake (reverse-wire) soft-error rate.
    pub handshake: f64,
    /// RT / VA / SA / crossbar logic upset rates.
    pub logic: [f64; 4],
    /// Deadlock detection enabled.
    pub deadlock: bool,
    /// Deadlock criticality threshold.
    pub cthres: u64,
    /// Stop injecting after this cycle (0 = never; drains the net).
    pub stop_after: u64,
    /// RNG seed for traffic and faults.
    pub seed: u64,
    /// Cycles to simulate.
    pub cycles: u64,
    /// An echo the engine does not read (once the compute-phase worker
    /// count); drawn and spelled still so no sampled or pinned byte moves.
    pub threads: usize,
    /// DAMQ shared-pool size in flits per input port (`0` = static
    /// per-VC partition, the paper's platform).
    pub damq_pool: usize,
    /// Activity gating on (the shipped engine) or off (the full-sweep
    /// reference schedule). Byte-identical by contract; fuzzing both
    /// cross-checks that contract across the whole config space.
    pub gating: bool,
    /// Mid-run hard fault: the cycle one live link is killed (`0` = no
    /// scheduled kill — the kill fields below are then ignored).
    pub kill_at: u64,
    /// Victim endpoint of the scheduled kill (row-major node index).
    pub kill_node: u16,
    /// Direction of the killed link as seen from `kill_node`.
    pub kill_dir: Direction,
    /// Fault-notification latency: cycles between local detection at
    /// the kill's endpoints and network-wide publication of the new
    /// fault tables.
    pub notify: u64,
    /// Topology class of the fuzzed network.
    pub topo: FuzzTopology,
    /// Mid-run whole-router death: the cycle one router is killed and
    /// its buffered flits purged into the loss ledger (`0` = none).
    pub rkill_at: u64,
    /// Victim of the whole-router kill (row-major node index).
    pub rkill_node: u16,
    /// Wear-out mean lifetime budget in flits per link (`0` = no
    /// wear-out model; budgets derive from the campaign seed).
    pub wear_budget: u64,
}

impl CampaignParams {
    /// Deterministically samples campaign `index` of a fuzz run keyed
    /// by `master` (an independent RNG stream per campaign).
    pub fn sample(master: u64, index: u64) -> Self {
        let mut r = Rng::seed_from_u64_stream(master, index);
        let routing = match r.gen_range(0..10u32) {
            0..=2 => RoutingAlgorithm::XyDeterministic,
            3..=4 => RoutingAlgorithm::WestFirstAdaptive,
            5 => RoutingAlgorithm::OddEven,
            _ => RoutingAlgorithm::FullyAdaptive,
        };
        let scheme = match r.gen_range(0..10u32) {
            0..=5 => ErrorScheme::Hbh,
            6..=7 => ErrorScheme::E2e,
            8 => ErrorScheme::Fec,
            _ => ErrorScheme::Unprotected,
        };
        let (link, handshake, logic) = match r.gen_range(0..10u32) {
            // Fault-free: every invariant armed, exact credit equality.
            0..=2 => (0.0, 0.0, [0.0; 4]),
            // Link faults: the HBH replay path under stress.
            3..=6 => (10f64.powi(-(r.gen_range(2..4u64) as i32)), 0.0, [0.0; 4]),
            // Link + handshake faults (TMR-voted NACK wires).
            7 => (1e-2, 1e-3, [0.0; 4]),
            // Logic upsets: RT/VA/SA/crossbar sites. The draw keeps the
            // range it had when a fifth rate existed that nothing drew
            // at, so every later parameter of a (seed, index) is
            // unchanged; a 4 selects no site and the campaign runs as
            // what it always was, fault-free and fully armed.
            _ => {
                let mut logic = [0.0; 4];
                if let Some(rate) = logic.get_mut(r.gen_range(0..5usize)) {
                    *rate = 1e-3;
                }
                (0.0, 0.0, logic)
            }
        };
        let pattern = match r.gen_range(0..10u32) {
            0..=3 => TrafficPattern::Uniform,
            4..=5 => TrafficPattern::Transpose,
            6 => TrafficPattern::BitComplement,
            7 => TrafficPattern::Tornado,
            8 => TrafficPattern::BitReverse,
            _ => TrafficPattern::Shuffle,
        };
        let cycles = r.gen_range(300..2000u64);
        let mut p = CampaignParams {
            width: r.gen_range(2..5u64) as u8,
            height: r.gen_range(2..5u64) as u8,
            vcs: r.gen_range(1..4u64) as usize,
            buffer: r.gen_range(2..6u64) as usize,
            retrans: r.gen_range(3..7u64) as usize,
            pipeline: PipelineDepth::from_stages(r.gen_range(1..5u64)).expect("drawn from 1..=4"),
            routing,
            scheme,
            ac: r.gen_bool(0.7),
            pattern,
            injection: if r.gen_bool(0.5) {
                InjectionProcess::Regular
            } else {
                InjectionProcess::Bernoulli
            },
            rate: 0.05 + 0.4 * r.next_f64(),
            link,
            handshake,
            logic,
            deadlock: routing.can_deadlock() || r.gen_bool(0.2),
            cthres: [8, 16, 32][r.gen_range(0..3usize)],
            stop_after: if r.gen_bool(0.3) { cycles / 2 } else { 0 },
            seed: r.next_u64(),
            cycles,
            // An echo the engine does not read; the draw feeds the stream.
            threads: [1, 1, 1, 2, 4][r.gen_range(0..5usize)],
            damq_pool: 0,
            gating: true,
            kill_at: 0,
            kill_node: 0,
            kill_dir: Direction::East,
            notify: 4,
            topo: FuzzTopology::Mesh,
            rkill_at: 0,
            rkill_node: 0,
            wear_budget: 0,
        };
        // The buffer-organisation dimension is drawn last so every
        // earlier parameter of a given (seed, index) is unchanged from
        // pre-DAMQ fuzz runs. About a third of campaigns exercise the
        // shared pool, anywhere from the minimum viable size up to a
        // little beyond the equal-budget point (vcs × buffer).
        if r.gen_bool(0.35) {
            let lo = (p.vcs + 1) as u64;
            let hi = (p.vcs * p.buffer + 5) as u64;
            p.damq_pool = r.gen_range(lo..hi) as usize;
        }
        // The activity-gating dimension is drawn last for the same
        // reason: every earlier parameter of a given (seed, index) is
        // unchanged from pre-gating fuzz runs. Most campaigns run the
        // gated engine the simulator ships with; a quarter pin the
        // full-sweep reference so the byte-identity contract is
        // cross-checked over the whole sampled space.
        p.gating = !r.gen_bool(0.25);
        // The mid-run hard-fault dimension is drawn last for the same
        // reason (and every draw is taken unconditionally so any future
        // dimension appended after this one sees a stable stream). One
        // campaign in eight kills a live link mid-run; three of those
        // four are coerced onto fault-aware routing with the deadlock
        // net armed for the reconfiguration transition, the rest keep
        // the sampled algorithm — legacy routing must still honour the
        // dead-port invariant while the network wedges or drains.
        let kill = r.gen_bool(0.125);
        let pick = r.gen_range(0..mesh_link_count(p.width, p.height));
        let at = r.gen_range(1..p.cycles);
        let nfy = r.gen_range(0..9u64);
        let coerce = r.gen_bool(0.75);
        if kill {
            // A single-link kill keeps every ≥2×2 mesh connected, so
            // the fault-aware spanning tree always spans all nodes.
            (p.kill_node, p.kill_dir) = mesh_link(p.width, p.height, pick);
            p.kill_at = at;
            p.notify = nfy;
            if coerce {
                p.routing = RoutingAlgorithm::FaultAware;
                p.deadlock = true;
            }
        }
        // The topology dimension is drawn last for the same reason, and
        // every draw is taken unconditionally so any dimension appended
        // after this one sees a stable stream. Mesh stays the bulk of
        // the budget; torus and cmesh each get a slice. The planted
        // kill above remains valid on both: a torus is the mesh link
        // set plus wraps, and a cmesh's inter-router graph *is* the
        // mesh graph. Torus campaigns arm the deadlock-recovery net —
        // wrap channels let even dimension-ordered routing wedge, and
        // only fault-aware routing is documented deadlock-free here.
        let torus = r.gen_bool(0.2);
        let cmesh = r.gen_bool(0.25);
        let conc = r.gen_range(2..5u64) as u8;
        if torus {
            p.topo = FuzzTopology::Torus;
            p.deadlock = true;
        } else if cmesh {
            p.topo = FuzzTopology::CMesh { conc };
        }
        // The whole-router-death and wear-out dimensions are drawn last
        // for the same reason, every draw taken unconditionally so any
        // future dimension sees a stable stream. Router-kill campaigns
        // are coerced onto fault-aware routing with the recovery net
        // armed (the documented drain story), and off end-to-end
        // control: E2E/FEC retransmit amputated packets from the
        // source, which resurrects packet ids the loss ledger already
        // claims — a semantics clash, not a bug to hunt. Wear-out keeps
        // whatever routing was sampled: legacy algorithms must honour
        // the dead-port invariant while worn links wedge the network.
        let rkill = r.gen_bool(0.06);
        let rnode = r.gen_range(0..p.width as u64 * p.height as u64) as u16;
        let rat = r.gen_range(1..p.cycles);
        let wear = r.gen_bool(0.08);
        let budget = r.gen_range(40..400u64);
        if rkill {
            // Any single router death keeps a ≥2×2 grid's survivors
            // connected (grid graphs are 2-connected), so fault-aware
            // routing always finds the remaining routes.
            p.rkill_at = rat;
            p.rkill_node = rnode;
            p.routing = RoutingAlgorithm::FaultAware;
            p.deadlock = true;
            if matches!(p.scheme, ErrorScheme::E2e | ErrorScheme::Fec) {
                p.scheme = ErrorScheme::Hbh;
            }
            // A link kill landing on one of the victim's own links is
            // moot once the router dies (and the plan check rejects
            // kills of already-dead links), so drop it.
            if p.kill_at > 0 && link_touches(p.width, p.kill_node, p.kill_dir, rnode) {
                p.kill_at = 0;
                p.kill_node = 0;
                p.kill_dir = Direction::East;
            }
        }
        if wear {
            p.wear_budget = budget;
        }
        p
    }

    /// The hard-fault dimensions as the [`FaultPlan`] the campaign runs
    /// under. `nfy` only means something next to a fault.
    fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if self.kill_at > 0 {
            plan.kill_link_at(self.kill_at, NodeId::new(self.kill_node), self.kill_dir);
        }
        if self.rkill_at > 0 {
            plan.kill_router_at(self.rkill_at, NodeId::new(self.rkill_node));
        }
        if self.wear_budget > 0 {
            plan.wearout(WearoutSpec {
                mean_budget: self.wear_budget,
                seed: 0, // derive the budget seed from the run seed
            });
        }
        if !plan.is_empty() {
            plan.notify_latency(self.notify);
        }
        plan
    }

    /// Builds the simulator configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for out-of-range knobs, a zero grid
    /// dimension, and a kill that names a node or link the grid lacks
    /// or hits a dead target (cannot happen for sampled parameters; a
    /// hand-written or shrunk spec can).
    pub fn to_config(&self) -> Result<SimConfig, ConfigError> {
        let mut router = RouterConfig::builder();
        router
            .vcs_per_port(self.vcs)
            .buffer_depth(self.buffer)
            .retrans_depth(self.retrans)
            .pipeline(self.pipeline);
        if self.damq_pool > 0 {
            router.buffer_org(BufferOrg::Damq {
                pool_size: self.damq_pool,
            });
        }
        let topology = match self.topo {
            FuzzTopology::Mesh => Topology::try_new(self.width, self.height, TopologyKind::Mesh),
            FuzzTopology::Torus => Topology::try_new(self.width, self.height, TopologyKind::Torus),
            FuzzTopology::CMesh { conc } => Topology::try_cmesh(self.width, self.height, conc),
        }?;
        let mut b = SimConfig::builder();
        b.topology(topology)
            .router(router.build()?)
            .routing(self.routing)
            .scheme(self.scheme)
            .ac_enabled(self.ac)
            .pattern(self.pattern.clone())
            .injection(self.injection)
            .injection_rate(self.rate)
            .faults(FaultRates {
                link: self.link,
                rt: self.logic[0],
                va: self.logic[1],
                sa: self.logic[2],
                crossbar: self.logic[3],
                handshake: self.handshake,
                ..FaultRates::none()
            })
            .deadlock(DeadlockConfig {
                enabled: self.deadlock,
                cthres: self.cthres,
            })
            .seed(self.seed)
            .activity_gating(self.gating)
            .warmup_packets(0)
            .measure_packets(u64::MAX)
            .max_cycles(self.cycles.max(1));
        if self.stop_after > 0 {
            b.stop_injection_after(self.stop_after);
        }
        b.fault_plan(&self.fault_plan());
        b.build()
    }

    /// Serialises to the `k=v,...` reproducer spec (`threads=` is an
    /// echo the engine does not read; pinned digests hash these bytes).
    pub fn to_spec(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "w={},h={},vcs={},buf={},rtx={},pipe={},route={},scheme={},ac={},\
             pat={},proc={},inj={},link={},hs={},rt={},va={},sa={},xbar={},\
             dl={},cth={},stop={},seed={},cycles={},threads={},pool={},gate={}",
            self.width,
            self.height,
            self.vcs,
            self.buffer,
            self.retrans,
            self.pipeline as u8,
            name(RoutingAlgorithm::NAMES, &self.routing),
            name(ErrorScheme::NAMES, &self.scheme),
            u8::from(self.ac),
            name(TrafficPattern::NAMES, &self.pattern),
            name(InjectionProcess::NAMES, &self.injection),
            self.rate,
            self.link,
            self.handshake,
            self.logic[0],
            self.logic[1],
            self.logic[2],
            self.logic[3],
            u8::from(self.deadlock),
            self.cthres,
            self.stop_after,
            self.seed,
            self.cycles,
            self.threads,
            self.damq_pool,
            u8::from(self.gating),
        );
        match self.topo {
            FuzzTopology::Mesh => {}
            FuzzTopology::Torus => s.push_str(",topo=torus"),
            FuzzTopology::CMesh { conc } => {
                let _ = write!(s, ",topo=cmesh,conc={conc}");
            }
        }
        // The fault dimensions print from the plan: `nfy`/`kill@` keep
        // their historical keys, the later dimensions are `--fault`
        // specs verbatim so a reproducer reads like the CLI flag.
        let plan = self.fault_plan();
        if let Some(nfy) = plan.notify() {
            let _ = write!(s, ",nfy={nfy}");
        }
        for k in plan.link_kills() {
            let _ = write!(s, ",kill@{}={}:{}", k.at, k.node.index(), dir_char(k.dir));
        }
        for spec in plan.to_specs() {
            if spec.starts_with("router:") || spec.starts_with("wearout:") {
                let _ = write!(s, ",fault={spec}");
            }
        }
        s
    }

    /// Parses a reproducer spec produced by [`CampaignParams::to_spec`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed `k=v` entry, or of
    /// the first field the spec names twice.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        // Start from a fixed baseline so a spec may omit fields.
        let mut p = CampaignParams::sample(0, 0);
        p.logic = [0.0; 4];
        p.damq_pool = 0;
        p.gating = true;
        p.kill_at = 0;
        p.kill_node = 0;
        p.kill_dir = Direction::East;
        p.notify = 4;
        p.topo = FuzzTopology::Mesh;
        p.rkill_at = 0;
        p.rkill_node = 0;
        p.wear_budget = 0;
        // `topo`/`conc` are order-independent: both are collected here
        // and resolved after the loop.
        let mut topo_key: Option<String> = None;
        let mut conc_key: Option<u8> = None;
        // The fields named so far: a second value for one would silently
        // replace the first. Every `kill@C` fills the one link kill;
        // `fault=router:` and `fault=wearout:` are two fields.
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (k, v) = item
                .split_once('=')
                .ok_or_else(|| format!("malformed entry {item:?} (expected k=v)"))?;
            let field = match k {
                "fault" => (k, v.split(':').next().unwrap_or_default()),
                _ if k.starts_with("kill@") => ("kill@", ""),
                _ => (k, ""),
            };
            if seen.contains(&field) {
                return Err(format!("repeated key {k:?} in {item:?}"));
            }
            seen.push(field);
            macro_rules! bad {
                () => {
                    |_| bad_value(k, v)
                };
            }
            macro_rules! named {
                ($table:expr, $what:literal) => {
                    lookup($table, v).ok_or_else(|| format!("unknown {} {v:?}", $what))?
                };
            }
            match k {
                "w" => p.width = v.parse().map_err(bad!())?,
                "h" => p.height = v.parse().map_err(bad!())?,
                "vcs" => p.vcs = v.parse().map_err(bad!())?,
                "buf" => p.buffer = v.parse().map_err(bad!())?,
                "rtx" => p.retrans = v.parse().map_err(bad!())?,
                "pipe" => {
                    let stages = v.parse().map_err(bad!())?;
                    p.pipeline =
                        PipelineDepth::from_stages(stages).ok_or_else(|| bad_value(k, v))?;
                }
                "route" => p.routing = named!(RoutingAlgorithm::NAMES, "routing"),
                "scheme" => p.scheme = named!(ErrorScheme::NAMES, "scheme"),
                "ac" => p.ac = flag(k, v)?,
                "pat" => p.pattern = named!(TrafficPattern::NAMES, "pattern"),
                "proc" => p.injection = named!(InjectionProcess::NAMES, "injection process"),
                "inj" => p.rate = v.parse().map_err(bad!())?,
                "link" => p.link = v.parse().map_err(bad!())?,
                "hs" => p.handshake = v.parse().map_err(bad!())?,
                "rt" => p.logic[0] = v.parse().map_err(bad!())?,
                "va" => p.logic[1] = v.parse().map_err(bad!())?,
                "sa" => p.logic[2] = v.parse().map_err(bad!())?,
                "xbar" => p.logic[3] = v.parse().map_err(bad!())?,
                "dl" => p.deadlock = flag(k, v)?,
                "cth" => p.cthres = v.parse().map_err(bad!())?,
                "stop" => p.stop_after = v.parse().map_err(bad!())?,
                "seed" => p.seed = v.parse().map_err(bad!())?,
                "cycles" => p.cycles = v.parse().map_err(bad!())?,
                // An echo the engine does not read; old reproducers carry it.
                "threads" => p.threads = v.parse().map_err(bad!())?,
                "pool" => p.damq_pool = v.parse().map_err(bad!())?,
                "gate" => p.gating = flag(k, v)?,
                "topo" => topo_key = Some(v.to_string()),
                "conc" => conc_key = Some(v.parse().map_err(bad!())?),
                "nfy" => p.notify = v.parse().map_err(bad!())?,
                // `fault=SPEC` and `kill@C=N:D` (= `link:N:D@C`) parse
                // through the `--fault` grammar; the campaign carries a
                // mid-run router kill and a run-seeded wear-out only.
                "fault" => {
                    let mut one = FaultPlan::new();
                    one.add_spec(v)
                        .map_err(|e| format!("bad value for fault: {e}"))?;
                    match (one.router_kills(), one.wearout_spec()) {
                        ([kill], None) => {
                            p.rkill_at = kill.at;
                            p.rkill_node = kill.node.index() as u16;
                        }
                        (
                            [],
                            Some(WearoutSpec {
                                mean_budget,
                                seed: 0,
                            }),
                        ) => {
                            p.wear_budget = mean_budget;
                        }
                        _ => {
                            return Err(format!(
                                "bad value for fault: {v:?} (expected router:N@C or wearout:M)"
                            ))
                        }
                    }
                }
                _ if k.starts_with("kill@") => {
                    let mut one = FaultPlan::new();
                    one.add_spec(&format!("link:{v}@{}", &k["kill@".len()..]))
                        .map_err(|e| format!("bad value for {k}: {e}"))?;
                    let [kill] = one.link_kills() else {
                        return Err(format!("bad value for {k}: {v:?} (expected N:D)"));
                    };
                    p.kill_at = kill.at;
                    p.kill_node = kill.node.index() as u16;
                    p.kill_dir = kill.dir;
                }
                _ => return Err(format!("unknown key {k:?}")),
            }
        }
        p.topo = match topo_key.as_deref() {
            None | Some("mesh") => FuzzTopology::Mesh,
            Some("torus") => FuzzTopology::Torus,
            Some("cmesh") => FuzzTopology::CMesh {
                conc: conc_key.unwrap_or(2),
            },
            Some(other) => return Err(format!("unknown topology {other:?}")),
        };
        if conc_key.is_some() && !matches!(p.topo, FuzzTopology::CMesh { .. }) {
            return Err("conc only applies to topo=cmesh".into());
        }
        // `to_spec` prints `nfy` only beside a fault, so a lone one
        // would not survive the round trip.
        if seen.contains(&("nfy", "")) && p.fault_plan().is_empty() {
            return Err("nfy only applies beside a fault (kill@ or fault=)".into());
        }
        Ok(p)
    }
}

/// Links of a `width`×`height` mesh: east links first, then south.
fn mesh_link_count(width: u8, height: u8) -> u64 {
    (u64::from(width) - 1) * u64::from(height) + u64::from(width) * (u64::from(height) - 1)
}

/// Whether mesh link `(node, dir)` (`dir` east or south) ends at router
/// `victim`.
fn link_touches(width: u8, node: u16, dir: Direction, victim: u16) -> bool {
    let other = match dir {
        Direction::East => node + 1,
        _ => node + u16::from(width),
    };
    node == victim || other == victim
}

/// Link number `pick` of that enumeration as `(node, direction)` — how
/// the sampler and the mid-run scenario filter plant a kill.
fn mesh_link(width: u8, height: u8, pick: u64) -> (u16, Direction) {
    let w = u64::from(width) - 1;
    let east_links = w * u64::from(height);
    if pick < east_links {
        (
            ((pick / w) * u64::from(width) + pick % w) as u16,
            Direction::East,
        )
    } else {
        ((pick - east_links) as u16, Direction::South)
    }
}

/// The parse error for value `v` of reproducer-spec key `k`.
fn bad_value(k: &str, v: &str) -> String {
    format!("bad value for {k}: {v:?}")
}

/// A `0|1` reproducer-spec boolean.
fn flag(k: &str, v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(bad_value(k, v)),
    }
}

impl CampaignParams {
    /// Runs this campaign under the oracle. `Ok` means every cycle
    /// passed; a panic anywhere in the engine (e.g. a violated
    /// `debug_assert!`), its construction included, is converted into a
    /// `"panic"` violation rather than aborting the caller.
    ///
    /// # Errors
    ///
    /// The first [`Violation`] the oracle observed (or the converted
    /// panic payload).
    pub fn check(&self) -> Result<(), Violation> {
        let config = match self.to_config() {
            Ok(c) => c,
            Err(e) => {
                return Err(Violation {
                    cycle: 0,
                    node: None,
                    invariant: "config",
                    detail: e.to_string(),
                })
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut oracle = Oracle::new(&config);
            // One snapshot per campaign, refilled every cycle.
            let mut snap = NetSnapshot::default();
            let mut net = Network::new(config);
            for _ in 0..self.cycles {
                net.step();
                net.snapshot_into(&mut snap);
                oracle.check(&snap)?;
            }
            Ok(())
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                Err(Violation {
                    cycle: 0,
                    node: None,
                    invariant: "panic",
                    detail: msg,
                })
            }
        }
    }
}

/// Campaign reruns [`shrink`] may spend on one failure.
const SHRINK_BUDGET: usize = 80;

/// Greedily shrinks failing campaign parameters: each transform is kept
/// only if the failure still reproduces, and passes repeat until a
/// fixpoint (or [`SHRINK_BUDGET`] reruns are spent). Returns the
/// smallest failing parameters and their violation. Pure: depends only
/// on `params`, so every worker shrinks a given failure identically.
pub(crate) fn shrink(params: &CampaignParams) -> (CampaignParams, Violation) {
    let mut best = params.clone();
    let mut violation = best
        .check()
        .expect_err("shrink requires a failing campaign");
    let mut runs = 0usize;
    loop {
        let mut improved = false;
        for cand in transforms(&best, &violation) {
            if runs >= SHRINK_BUDGET {
                return (best, violation);
            }
            runs += 1;
            if let Err(v) = cand.check() {
                // A reduction that no longer builds (a kill left off
                // the shrunk grid) reproduces nothing.
                if v.invariant == "config" {
                    continue;
                }
                best = cand;
                violation = v;
                improved = true;
                break;
            }
        }
        if !improved || runs >= SHRINK_BUDGET {
            return (best, violation);
        }
    }
}

/// Candidate one-step reductions of `p`, most valuable first.
fn transforms(p: &CampaignParams, v: &Violation) -> Vec<CampaignParams> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut CampaignParams)| {
        let mut c = p.clone();
        f(&mut c);
        if c != *p {
            out.push(c);
        }
    };
    // An echo the engine does not read: the step always holds.
    push(&|c| c.threads = 1);
    // Reduce toward the plain mesh: if the failure survives there, it
    // is not a wrap-link or concentration bug. Concentration steps down
    // before collapsing to the mesh so a cmesh-specific failure keeps
    // the smallest radix that still reproduces it.
    if let FuzzTopology::CMesh { conc } = p.topo {
        if conc > 2 {
            push(&|c| c.topo = FuzzTopology::CMesh { conc: conc - 1 });
        }
    }
    push(&|c| c.topo = FuzzTopology::Mesh);
    // Reduce toward the full-sweep reference schedule: if the failure
    // survives with gating off, it is not an activity-gating bug.
    push(&|c| c.gating = false);
    // Reduce toward no mid-run fault: if the failure survives without
    // the router death, the wear-out model, or the scheduled link kill,
    // it is not a reconfiguration/drain bug. Failing that, try instant
    // publication (no detection/publication skew).
    push(&|c| c.rkill_at = 0);
    push(&|c| c.wear_budget = 0);
    push(&|c| c.kill_at = 0);
    if p.kill_at > 0 || p.rkill_at > 0 || p.wear_budget > 0 {
        push(&|c| c.notify = 0);
    }
    if v.cycle > 0 && v.cycle < p.cycles {
        push(&|c| c.cycles = v.cycle);
    }
    push(&|c| c.cycles /= 2);
    push(&|c| c.width = c.width.max(3) - 1);
    push(&|c| c.height = c.height.max(3) - 1);
    push(&|c| c.vcs = c.vcs.max(2) - 1);
    push(&|c| c.damq_pool = 0); // reduce toward the static partition
    push(&|c| c.buffer = c.buffer.max(3) - 1);
    push(&|c| c.retrans = c.retrans.max(4) - 1);
    push(&|c| c.handshake = 0.0);
    push(&|c| c.logic = [0.0; 4]);
    push(&|c| c.link = 0.0);
    push(&|c| c.stop_after = 0);
    push(&|c| c.pattern = TrafficPattern::Uniform);
    push(&|c| c.injection = InjectionProcess::Regular);
    push(&|c| c.rate = (c.rate / 2.0).max(0.05));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// Every sampled campaign's reproducer spec round-trips exactly —
    /// including the router-kill and wear-out dimensions appended in
    /// this revision.
    #[test]
    fn sampled_specs_round_trip() {
        let mut rkills = 0;
        let mut wears = 0;
        for i in 0..300 {
            let p = CampaignParams::sample(0xF70C, i);
            let rt = CampaignParams::from_spec(&p.to_spec())
                .unwrap_or_else(|e| panic!("campaign {i} spec rejected: {e}"));
            assert_eq!(p, rt, "campaign {i} spec did not round-trip");
            rkills += u64::from(p.rkill_at > 0);
            wears += u64::from(p.wear_budget > 0);
        }
        assert!(rkills > 5, "router-kill dimension never sampled");
        assert!(wears > 10, "wear-out dimension never sampled");
    }

    /// Every row of `table` parses to its value, and the values print
    /// as `printed`, in table order (a value's aliases follow its name).
    fn round_trip<T: Clone + PartialEq + Debug>(table: &[(&'static str, T)], printed: &str) {
        for (text, value) in table {
            assert_eq!(lookup(table, text).as_ref(), Some(value), "{text}");
        }
        let mut names: Vec<&str> = table.iter().map(|(_, value)| name(table, value)).collect();
        names.dedup();
        assert_eq!(names.join(" "), printed);
    }

    /// The printed names are the reproducer spec's names of old, so no
    /// pinned spec moves.
    #[test]
    fn name_tables_round_trip() {
        round_trip(RoutingAlgorithm::NAMES, "xy wf fa oe fta");
        round_trip(ErrorScheme::NAMES, "hbh e2e fec none");
        let patterns = "uniform bitcomp tornado transpose bitrev shuffle nn hs";
        round_trip(TrafficPattern::NAMES, patterns);
        round_trip(InjectionProcess::NAMES, "reg bern");
        round_trip(OrgFilter::NAMES, "static damq");
        round_trip(ScenarioFilter::NAMES, "midrun-fault topology wearout");
    }

    /// The new dimensions are drawn after every pre-existing one, so a
    /// seed that predates them replays with identical earlier fields.
    #[test]
    fn runtime_fault_dims_parse_like_the_cli_grammar() {
        let p = CampaignParams::from_spec("w=3,h=3,fault=router:5@300,fault=wearout:123,nfy=2")
            .unwrap();
        assert_eq!((p.rkill_node, p.rkill_at), (5, 300));
        assert_eq!(p.wear_budget, 123);
        assert_eq!(p.notify, 2);
        let s = p.to_spec();
        assert!(s.contains("fault=router:5@300"), "{s}");
        assert!(s.contains("fault=wearout:123"), "{s}");

        assert!(CampaignParams::from_spec("fault=router:5").is_err());
        assert!(CampaignParams::from_spec("fault=router:5@0").is_err());
        assert!(CampaignParams::from_spec("fault=wearout:0").is_err());
        assert!(CampaignParams::from_spec("fault=banana").is_err());
        // Grammar the plan accepts but a campaign cannot carry.
        assert!(CampaignParams::from_spec("fault=wearout:5:7").is_err());
        assert!(CampaignParams::from_spec("fault=link:0:e@5").is_err());
        assert!(CampaignParams::from_spec("fault=notify:3").is_err());
        assert!(CampaignParams::from_spec("kill@0=0:e").is_err());
        assert!(CampaignParams::from_spec("kill@5=0:x").is_err());
        assert!(CampaignParams::from_spec("kill@5=0").is_err());
    }

    /// Reproducer bytes are a compatibility surface: these three specs
    /// were printed before the fault dimensions moved onto `FaultPlan`
    /// (master seed 0xF70C, campaigns 1 / 45 / 8) and must keep
    /// sampling, printing and re-parsing to the same bytes.
    #[test]
    fn reproducer_bytes_are_pinned() {
        let pinned = [
            (
                1,
                "w=2,h=2,vcs=1,buf=2,rtx=4,pipe=2,route=fta,scheme=none,ac=1,\
                 pat=transpose,proc=bern,inj=0.3490940348670351,link=0,hs=0,rt=0.001,\
                 va=0,sa=0,xbar=0,dl=1,cth=32,stop=0,seed=6362733068398363939,\
                 cycles=1929,threads=2,pool=3,gate=0,topo=torus,nfy=0,kill@1060=0:e",
            ),
            (
                45,
                "w=3,h=4,vcs=3,buf=5,rtx=5,pipe=4,route=fta,scheme=hbh,ac=0,\
                  pat=bitrev,proc=bern,inj=0.06017141127580823,link=0.001,hs=0,rt=0,\
                  va=0,sa=0,xbar=0,dl=1,cth=32,stop=0,seed=1969312120355977816,\
                  cycles=1928,threads=4,pool=0,gate=1,topo=cmesh,conc=3,nfy=4,\
                  fault=router:5@684",
            ),
            (
                8,
                "w=4,h=3,vcs=1,buf=4,rtx=4,pipe=2,route=xy,scheme=e2e,ac=1,\
                 pat=transpose,proc=bern,inj=0.10286198920688645,link=0.001,hs=0,rt=0,\
                 va=0,sa=0,xbar=0,dl=1,cth=8,stop=0,seed=815076178094569843,\
                 cycles=1666,threads=1,pool=0,gate=1,nfy=4,fault=wearout:163",
            ),
        ];
        for (index, spec) in pinned {
            assert_eq!(CampaignParams::sample(0xF70C, index).to_spec(), spec);
            assert_eq!(CampaignParams::from_spec(spec).unwrap().to_spec(), spec);
        }
    }

    /// A kill the grid cannot host is a typed configuration error — it
    /// used to be an assertion inside `Network::new`.
    #[test]
    fn off_grid_kills_are_config_errors() {
        let p = CampaignParams::from_spec("w=3,h=3,kill@10=8:e").unwrap();
        assert_eq!(
            p.to_config().unwrap_err(),
            ConfigError::FaultLinkAbsent {
                node: NodeId::new(8),
                dir: Direction::East,
            }
        );
        let p = CampaignParams::from_spec("w=3,h=3,fault=router:9@10").unwrap();
        assert!(matches!(
            p.to_config().unwrap_err(),
            ConfigError::FaultNodeOutOfRange { .. }
        ));
        assert_eq!(p.check().unwrap_err().invariant, "config");
    }

    /// Every out-of-range `--repro` value is refused by name, and a zero
    /// grid dimension or blocking threshold is a typed configuration
    /// error — `pipe=0` used to run a 4-stage pipeline, `ac=banana` used
    /// to mean `1`, `w=0` used to panic inside `Topology::mesh` and
    /// `cth=0` inside `Network::new`, outside the `catch_unwind`. A field
    /// named twice is refused too: the second value used to replace the
    /// first silently, so the spec ran something other than it named.
    #[test]
    fn out_of_range_spec_values_are_rejected() {
        for spec in [
            "w=3,h=3,pipe=0",
            "w=3,h=3,pipe=9",
            "w=3,h=3,ac=banana",
            "w=3,h=3,dl=maybe",
            "w=3,h=3,gate=x",
        ] {
            let (k, v) = spec.rsplit_once(',').unwrap().1.split_once('=').unwrap();
            assert_eq!(
                CampaignParams::from_spec(spec).unwrap_err(),
                format!("bad value for {k}: {v:?}")
            );
        }
        for (spec, k) in [
            ("w=3,h=3,cycles=100,kill@50=1:e,kill@60=4:s", "kill@60"),
            ("w=3,h=3,fault=router:1@5,fault=router:2@9", "fault"),
            ("w=3,h=3,fault=wearout:50,fault=wearout:60", "fault"),
            ("w=3,h=3,w=4", "w"),
            ("w=3,h=3,topo=torus,conc=2,topo=mesh", "topo"),
        ] {
            let item = spec.rsplit_once(',').unwrap().1;
            assert_eq!(
                CampaignParams::from_spec(spec).unwrap_err(),
                format!("repeated key {k:?} in {item:?}")
            );
        }
        let e = CampaignParams::from_spec("w=3,h=3,nfy=2").unwrap_err();
        assert_eq!(e, "nfy only applies beside a fault (kill@ or fault=)");
        // Each fault kind is a field of its own, as `to_spec` prints them.
        let p = CampaignParams::from_spec("w=3,h=3,kill@5=0:e,fault=router:4@9,fault=wearout:50")
            .unwrap();
        assert_eq!((p.kill_at, p.rkill_at, p.wear_budget), (5, 9, 50));
        let p = CampaignParams::from_spec("w=3,h=3,pipe=1,ac=0,dl=1,gate=0").unwrap();
        assert_eq!(
            (p.pipeline, p.ac, p.deadlock, p.gating),
            (PipelineDepth::One, false, true, false)
        );
        for spec in ["w=0,h=3", "w=3,h=0,topo=torus", "w=0,h=3,topo=cmesh,conc=2"] {
            let p = CampaignParams::from_spec(spec).unwrap();
            assert_eq!(p.to_config().unwrap_err(), ConfigError::ZeroDimension);
            assert_eq!(p.check().unwrap_err().invariant, "config");
        }
        for spec in ["w=3,h=3,dl=1,cth=0", "w=3,h=3,dl=0,cth=0"] {
            let p = CampaignParams::from_spec(spec).unwrap();
            assert_eq!(
                p.to_config().unwrap_err(),
                ConfigError::ZeroBlockingThreshold
            );
            assert_eq!(p.check().unwrap_err().invariant, "config");
        }
        // An unbounded depth used to die in the allocator (`capacity
        // overflow`, or an abort no `catch_unwind` sees).
        let p = CampaignParams::from_spec("w=3,h=3,buf=18446744073709551615").unwrap();
        assert_eq!(
            p.to_config().unwrap_err(),
            ConfigError::InvalidBufferDepth(usize::MAX)
        );
        assert_eq!(p.check().unwrap_err().invariant, "config");
        let p = CampaignParams::from_spec("w=3,h=3,rtx=100000000000").unwrap();
        assert!(matches!(
            p.to_config().unwrap_err(),
            ConfigError::InvalidRetransmissionDepth { .. }
        ));
        // A lone terminal used to panic in the first injection draw.
        let p = CampaignParams::from_spec("w=1,h=1").unwrap();
        assert_eq!(p.to_config().unwrap_err(), ConfigError::TooFewTerminals(1));
        assert_eq!(p.check().unwrap_err().invariant, "config");
    }

    /// Router-kill campaigns are always well-formed: fault-aware
    /// routing, recovery net armed, no end-to-end control, and no link
    /// kill left on one of the victim's own links.
    #[test]
    fn router_kill_campaigns_are_coherent() {
        let mut seen = 0;
        for i in 0..400 {
            let p = CampaignParams::sample(7, i);
            if p.rkill_at == 0 {
                continue;
            }
            seen += 1;
            assert_eq!(p.routing, RoutingAlgorithm::FaultAware, "campaign {i}");
            assert!(p.deadlock, "campaign {i}");
            assert!(
                !matches!(p.scheme, ErrorScheme::E2e | ErrorScheme::Fec),
                "campaign {i}: end-to-end control under a router kill"
            );
            p.to_config()
                .unwrap_or_else(|e| panic!("campaign {i} config rejected: {e}"));
        }
        assert!(seen > 10, "router-kill dimension never sampled");
    }

    /// The mid-run-fault filter keeps the sampler's rule: a link kill it
    /// plants never lands on a link of the campaign's router-kill victim,
    /// so the fault plan always builds.
    #[test]
    fn midrun_filter_never_kills_a_victim_link() {
        let mut seen = 0;
        for i in 0..1000 {
            let mut p = CampaignParams::sample(0xF70C, i);
            if p.rkill_at == 0 || p.kill_at > 0 {
                continue;
            }
            apply_scenario_filter(&mut p, Some(ScenarioFilter::MidRunFault));
            seen += 1;
            assert!(
                !link_touches(p.width, p.kill_node, p.kill_dir, p.rkill_node),
                "campaign {i}: kill n{}:{:?} touches victim {}",
                p.kill_node,
                p.kill_dir,
                p.rkill_node
            );
            p.to_config()
                .unwrap_or_else(|e| panic!("campaign {i} config rejected: {e}"));
        }
        assert!(seen > 10, "no router-kill campaign left for the filter");
    }
}

/// Coerces every sampled campaign onto one buffer organisation —
/// lets CI shard its fuzz budget across both organisations with
/// disjoint, fully-covered halves instead of relying on the sampler's
/// mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgFilter {
    /// Force the static per-VC partition (`damq_pool = 0`).
    Static,
    /// Force a DAMQ; campaigns sampled as static get an equal-budget
    /// pool (`vcs × buffer` flits).
    Damq,
}

impl OrgFilter {
    /// Text names for [`lookup`] / [`name`]; `run --buffer-org` reads
    /// them too.
    pub const NAMES: &'static [(&'static str, OrgFilter)] =
        &[("static", OrgFilter::Static), ("damq", OrgFilter::Damq)];
}

/// Applies an [`OrgFilter`] to freshly sampled parameters.
pub(crate) fn apply_org_filter(params: &mut CampaignParams, org: Option<OrgFilter>) {
    match org {
        Some(OrgFilter::Static) => params.damq_pool = 0,
        Some(OrgFilter::Damq) if params.damq_pool == 0 => {
            params.damq_pool = params.vcs * params.buffer;
        }
        _ => {}
    }
}

/// Coerces every sampled campaign into the mid-run hard-fault scenario
/// class: fault-aware routing with a link kill landing mid-run — the
/// online-reconfiguration path (detection → publication → reroute) on
/// every single campaign instead of the sampler's one-in-eight mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioFilter {
    /// Force fault-aware routing, the deadlock-recovery transition net,
    /// and a scheduled mid-run link kill.
    MidRunFault,
    /// Force a non-mesh topology: campaigns the sampler left on the
    /// plain mesh are coerced onto a torus or a concentrated mesh,
    /// chosen deterministically from already-sampled parameters.
    Topology,
    /// Force the wear-out model: every campaign ages its links under a
    /// small lifetime budget on fault-aware routing, so the online
    /// budget-crossing → publication → reroute path runs on every
    /// single campaign instead of the sampler's one-in-twelve mix.
    Wearout,
}

impl ScenarioFilter {
    /// Text names for [`lookup`] / [`name`].
    pub const NAMES: &'static [(&'static str, ScenarioFilter)] = &[
        ("midrun-fault", ScenarioFilter::MidRunFault),
        ("topology", ScenarioFilter::Topology),
        ("wearout", ScenarioFilter::Wearout),
    ];
}

/// Applies a [`ScenarioFilter`] to freshly sampled parameters. Coercions
/// the sampler did not already make are derived deterministically from
/// already-sampled parameters — a pure function of the campaign, no RNG.
pub(crate) fn apply_scenario_filter(params: &mut CampaignParams, scenario: Option<ScenarioFilter>) {
    match scenario {
        None => return,
        Some(ScenarioFilter::Topology) => {
            if params.topo == FuzzTopology::Mesh {
                params.topo = if params.seed & 1 == 0 {
                    FuzzTopology::Torus
                } else {
                    FuzzTopology::CMesh {
                        conc: 2 + ((params.seed >> 8) % 3) as u8,
                    }
                };
            }
            if params.topo == FuzzTopology::Torus {
                // Same wedge semantics as the sampler: wrap channels
                // can deadlock legacy routing, so arm the recovery net.
                params.deadlock = true;
            }
            return;
        }
        Some(ScenarioFilter::Wearout) => {
            if params.wear_budget == 0 {
                // Same band the sampler draws from, derived from
                // already-sampled parameters — no extra RNG draws.
                params.wear_budget = 40 + params.seed % 360;
            }
            params.routing = RoutingAlgorithm::FaultAware;
            params.deadlock = true;
            return;
        }
        Some(ScenarioFilter::MidRunFault) => {}
    }
    params.routing = RoutingAlgorithm::FaultAware;
    params.deadlock = true;
    if params.kill_at == 0 {
        let (w, h) = (params.width, params.height);
        let links = mesh_link_count(w, h);
        // The sampler's rule: a router-kill campaign never plants its
        // link kill on one of the victim's links, so step from the
        // chosen link to the next one that avoids it.
        let start = params.seed % links;
        (params.kill_node, params.kill_dir) = (start..start + links)
            .map(|k| mesh_link(w, h, k % links))
            .find(|&(n, d)| params.rkill_at == 0 || !link_touches(w, n, d, params.rkill_node))
            .expect("a ≥2×2 mesh has a link clear of any one router");
        params.kill_at = 1 + (params.seed >> 32) % params.cycles.max(2).div_euclid(2);
        params.notify = (params.seed >> 56) % 9;
    }
}
