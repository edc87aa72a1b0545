//! Knob liveness: every independently settable configuration value has
//! an effect, and every fault site that has a rate is actually drawn.
//!
//! `FaultRates::retrans_buffer` was a public field for sixteen PRs —
//! range-checked, sampled by the fuzzer, echoed in every report, and it
//! disarmed six oracle families — while nothing in the simulator drew
//! it. One table row per knob keeps that from happening again: a short
//! 4×4 run with only that value moved must change
//! `SimReport::to_json()`. `threads` and `activity_gating` are the two
//! rows that must *not*: `threads` is an echo the engine does not read
//! (this row is its pin until the name is retired), and gating's
//! byte-identity is what `tests/activity_parity.rs` pins in depth.

use ftnoc_check::{CampaignParams, Oracle};
use ftnoc_fault::{ErrorMix, FaultCounts, FaultPlan, FaultRates};
use ftnoc_power::RouterModel;
use ftnoc_rng::Rng;
use ftnoc_sim::{
    DeadlockConfig, ErrorScheme, RoutingAlgorithm, SimConfig, SimConfigBuilder, Simulator,
};
use ftnoc_traffic::{InjectionProcess, TrafficPattern};
use ftnoc_types::config::{BufferOrg, PipelineDepth, RouterConfig, RouterConfigBuilder};
use ftnoc_types::geom::Topology;

/// What a row moves a value on: the two builders, and the two structs
/// whose fields are knobs of their own.
struct Setup {
    sim: SimConfigBuilder,
    router: RouterConfigBuilder,
    faults: FaultRates,
    deadlock: DeadlockConfig,
}

impl Setup {
    /// A 4×4 mesh at 0.2 flits/node/cycle: 20 warm-up and 150 measured
    /// packets, ≈ 250 cycles.
    fn new() -> Setup {
        let mut sim = SimConfig::builder();
        sim.topology(Topology::mesh(4, 4))
            .injection_rate(0.2)
            .seed(7)
            .warmup_packets(20)
            .measure_packets(150)
            .max_cycles(3_000);
        Setup {
            sim,
            router: RouterConfig::builder(),
            faults: FaultRates::none(),
            deadlock: DeadlockConfig::default(),
        }
    }

    fn config(&self) -> SimConfig {
        let mut sim = self.sim.clone();
        sim.router(self.router.build().expect("row builds a valid router"))
            .faults(self.faults)
            .deadlock(self.deadlock);
        sim.build().expect("row builds a valid config")
    }
}

/// The run report, with the `threads` echo normalised (it repeats the
/// configuration; it is not a simulation result).
fn report_json(setup: &Setup) -> String {
    let mut report = Simulator::new(setup.config()).run();
    report.threads = 1;
    report.to_json()
}

/// `ports` is the one router knob a `SimConfig` overrides (the radix
/// follows the topology); its consumer is the Table 1 area/power model.
fn router_budget(setup: &Setup) -> String {
    let router = setup.router.build().expect("row builds a valid router");
    format!("{:?}", RouterModel::new(router).calibrated())
}

// Bases: the small extra a knob needs before moving it can show.

fn plain(_: &mut Setup) {}

/// Link upsets, so replay, E2E control, the error mix and the NACK
/// wires (where handshake upsets are drawn) have work.
fn link_errors(s: &mut Setup) {
    s.faults.link = 0.05;
}

/// E2E under link errors: NACKed and lost packets wait on the timeout.
fn e2e_link_errors(s: &mut Setup) {
    link_errors(s);
    s.sim.scheme(ErrorScheme::E2e);
}

/// The 4×4 single-VC fully-adaptive wedge of the deadlock suites, with
/// recovery on. Runs to the cycle cap.
fn fa_wedge(s: &mut Setup) {
    s.router.vcs_per_port(1).retrans_depth(6);
    s.sim
        .routing(RoutingAlgorithm::FullyAdaptive)
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.4)
        .seed(2)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(1_500);
    s.deadlock = DeadlockConfig {
        enabled: true,
        cthres: 32,
    };
}

/// No packet target, so the cycle cap is what ends the run.
fn capped(s: &mut Setup) {
    s.sim
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(300);
}

/// Load high enough for input buffers to back-pressure and adaptive
/// routing to have a reason to turn.
fn loaded(s: &mut Setup) {
    s.sim.injection_rate(0.7);
}

struct Knob {
    name: &'static str,
    base: fn(&mut Setup),
    turn: fn(&mut Setup),
    observe: fn(&Setup) -> String,
    live: bool,
}

const fn live(name: &'static str, base: fn(&mut Setup), turn: fn(&mut Setup)) -> Knob {
    Knob {
        name,
        base,
        turn,
        observe: report_json,
        live: true,
    }
}

const KNOBS: &[Knob] = &[
    // SimConfig.
    live("topology", plain, |s| {
        s.sim.topology(Topology::torus(4, 4));
    }),
    live("routing", loaded, |s| {
        s.sim.routing(RoutingAlgorithm::WestFirstAdaptive);
    }),
    live("scheme", plain, |s| {
        s.sim.scheme(ErrorScheme::E2e);
    }),
    live("ac_enabled", plain, |s| {
        s.sim.ac_enabled(false);
    }),
    live("pattern", plain, |s| {
        s.sim.pattern(TrafficPattern::Transpose);
    }),
    live("injection", plain, |s| {
        s.sim.injection(InjectionProcess::Bernoulli);
    }),
    live("injection_rate", plain, |s| {
        s.sim.injection_rate(0.3);
    }),
    live("seed", plain, |s| {
        s.sim.seed(8);
    }),
    live("warmup_packets", plain, |s| {
        s.sim.warmup_packets(60);
    }),
    live("measure_packets", plain, |s| {
        s.sim.measure_packets(200);
    }),
    live("max_cycles", capped, |s| {
        s.sim.max_cycles(400);
    }),
    live("e2e_timeout", e2e_link_errors, |s| {
        s.sim.e2e_timeout(40);
    }),
    live("stop_injection_after", plain, |s| {
        s.sim.stop_injection_after(100);
    }),
    live("fault_plan", plain, |s| {
        let mut plan = FaultPlan::new();
        plan.add_spec("link:5:e@50").expect("valid spec");
        s.sim.fault_plan(&plan);
    }),
    Knob {
        live: false,
        ..live("threads", plain, |s| {
            s.sim.threads(4);
        })
    },
    Knob {
        live: false,
        ..live("activity_gating", plain, |s| {
            s.sim.activity_gating(false);
        })
    },
    // RouterConfig.
    Knob {
        observe: router_budget,
        ..live("router.ports", plain, |s| {
            s.router.ports(8);
        })
    },
    live("router.vcs_per_port", plain, |s| {
        s.router.vcs_per_port(2);
    }),
    live("router.buffer_depth", plain, |s| {
        s.router.buffer_depth(2);
    }),
    live("router.retrans_depth", plain, |s| {
        s.router.retrans_depth(5);
    }),
    live("router.flits_per_packet", plain, |s| {
        s.router.flits_per_packet(2);
    }),
    live("router.pipeline", plain, |s| {
        s.router.pipeline(PipelineDepth::Four);
    }),
    live("router.buffer_org", loaded, |s| {
        s.router.buffer_org(BufferOrg::Damq { pool_size: 6 });
    }),
    // FaultRates.
    live("faults.link", plain, |s| s.faults.link = 0.05),
    live("faults.rt", plain, |s| s.faults.rt = 0.05),
    live("faults.va", plain, |s| s.faults.va = 0.05),
    live("faults.sa", plain, |s| s.faults.sa = 0.05),
    live("faults.crossbar", plain, |s| s.faults.crossbar = 0.05),
    live("faults.handshake", link_errors, |s| {
        s.faults.handshake = 1.0
    }),
    live("faults.mix", link_errors, |s| {
        s.faults.mix = ErrorMix::new(0.5);
    }),
    // DeadlockConfig.
    live("deadlock.enabled", fa_wedge, |s| s.deadlock.enabled = false),
    live("deadlock.cthres", fa_wedge, |s| s.deadlock.cthres = 8),
];

#[test]
fn every_knob_is_live() {
    let wrong: Vec<&str> = KNOBS
        .iter()
        .filter(|knob| {
            let mut setup = Setup::new();
            (knob.base)(&mut setup);
            let before = (knob.observe)(&setup);
            (knob.turn)(&mut setup);
            (before != (knob.observe)(&setup)) != knob.live
        })
        .map(|knob| knob.name)
        .collect();
    assert!(
        wrong.is_empty(),
        "inert knobs (or, for threads / activity_gating, knobs that moved the report): {wrong:?}"
    );
}

/// Every site that has a rate is drawn: at rate 1.0 its census is
/// non-zero (the assertion that would have caught `retrans_buffer`).
#[test]
fn every_fault_site_injects() {
    type Site = (&'static str, fn(&mut FaultRates), fn(&FaultCounts) -> u64);
    let sites: [Site; 6] = [
        ("link", |r| r.link = 1.0, |c| c.link),
        ("rt", |r| r.rt = 1.0, |c| c.rt),
        ("va", |r| r.va = 1.0, |c| c.va),
        ("sa", |r| r.sa = 1.0, |c| c.sa),
        ("crossbar", |r| r.crossbar = 1.0, |c| c.crossbar),
        ("handshake", |r| r.handshake = 1.0, |c| c.handshake),
    ];
    for (site, set, count) in sites {
        let mut setup = Setup::new();
        // Handshake upsets are drawn on asserted NACK strobes only.
        link_errors(&mut setup);
        set(&mut setup.faults);
        let report = Simulator::new(setup.config()).run_cycles(200);
        assert!(
            count(&report.faults_injected) > 0,
            "faults.{site} = 1.0 injected nothing"
        );
    }
}

/// The inert knob is gone from the reproducer grammar, and the
/// campaigns that used to draw it — the sampler keeps its 0..5 site
/// draw, a 4 now selects no site — run fault-free and fully armed.
#[test]
fn the_former_rbuf_campaigns_are_fully_armed() {
    assert_eq!(
        CampaignParams::from_spec("w=3,h=3,rbuf=0").unwrap_err(),
        "unknown key \"rbuf\""
    );
    // The sampler's first four draws: routing, scheme, fault class
    // (8 or 9 = one logic site), site.
    let drew_rbuf = |index: u64| {
        let mut r = Rng::seed_from_u64_stream(0xF70C, index);
        let _routing = r.gen_range(0..10u32);
        let _scheme = r.gen_range(0..10u32);
        r.gen_range(0..10u32) >= 8 && r.gen_range(0..5usize) == 4
    };
    let index = (0..).find(|&i| drew_rbuf(i)).expect("one campaign in 25");
    let p = CampaignParams::sample(0xF70C, index);
    assert_eq!(
        (p.link, p.handshake, p.logic),
        (0.0, 0.0, [0.0; 4]),
        "campaign {index}"
    );
    let config = p.to_config().expect("sampled campaigns build");
    let arm = *Oracle::new(&config).arming();
    assert!(
        arm.exclusivity
            && arm.ordering
            && arm.arrival
            && arm.conservation
            && arm.credit_bound
            && arm.credit_exact
            && arm.probe
            && arm.dead_port,
        "campaign {index}: {arm:?}"
    );
    p.check()
        .unwrap_or_else(|v| panic!("campaign {index}: {v}"));
}
