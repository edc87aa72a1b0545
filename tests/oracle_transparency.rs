//! Oracle transparency: a run checked by the invariant oracle at every
//! commit boundary must be **byte identical** to the same run unchecked
//! — same JSONL event trace — across fault-free, link-fault,
//! deadlock-recovery and online-reconfiguration scenarios.
//!
//! This is a contract of the check layer: `Network::snapshot_into` only
//! reads, so fuzz findings transfer 1:1 to unchecked production runs.

use ftnoc_check::Oracle;
use ftnoc_fault::{FaultPlan, FaultRates};
use ftnoc_sim::{
    DeadlockConfig, NetSnapshot, Network, RoutingAlgorithm, SimConfig, SimConfigBuilder,
};
use ftnoc_trace::{MemorySink, Tracer};
use ftnoc_traffic::InjectionProcess;
use ftnoc_types::config::RouterConfig;
use ftnoc_types::geom::{Direction, NodeId, Topology};

/// A clean 4×4 mesh, no faults.
fn fault_free(seed: u64) -> SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .injection_rate(0.2)
        .seed(seed)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(10_000);
    b
}

/// HBH with link soft errors: drops, NACKs and replays in play.
fn link_fault(seed: u64) -> SimConfigBuilder {
    let mut b = fault_free(seed);
    b.faults(FaultRates::link_only(0.01));
    b
}

/// The single-VC fully-adaptive configuration that deadlocks under
/// bursty traffic and drains through §3.2 recovery.
fn deadlock_recovery(seed: u64) -> SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .router(
            RouterConfig::builder()
                .vcs_per_port(1)
                .buffer_depth(4)
                .retrans_depth(6)
                .build()
                .unwrap(),
        )
        .routing(RoutingAlgorithm::FullyAdaptive)
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.25)
        .seed(seed)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(12_000)
        .stop_injection_after(4_000);
    b
}

/// Fault-aware routing with a planted mid-run kill: link 5→east dies
/// at cycle 1000 (publication lagging 6 cycles), so the run crosses a
/// detection boundary, a publication boundary and an epoch-wide reroute
/// — the whole online-reconfiguration path — under load.
fn fault_aware_midrun(seed: u64) -> SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .routing(RoutingAlgorithm::FaultAware)
        .fault_plan(
            FaultPlan::new()
                .kill_link_at(1_000, NodeId::new(5), Direction::East)
                .notify_latency(6),
        )
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.2)
        .seed(seed)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(10_000)
        .stop_injection_after(4_000);
    b
}

/// The torus row: the same online-reconfiguration path on a 4×4 torus,
/// where the dying link is a *wrap* link (node 7 = (3,1), whose east
/// neighbour wraps to (0,1)). Wrap channels exercise the radix-generic
/// link tables and the fault plan's spanning tree over a graph with
/// cycles in every dimension.
fn torus_midrun(seed: u64) -> SimConfigBuilder {
    let mut b = fault_aware_midrun(seed);
    b.topology(Topology::torus(4, 4)).fault_plan(
        FaultPlan::new()
            .kill_link_at(1_000, NodeId::new(7), Direction::East)
            .notify_latency(6),
    );
    b
}

/// Steps the network cycle by cycle, optionally validating every commit
/// boundary with the invariant oracle, and returns the full JSONL trace.
fn run_stepped(builder: SimConfigBuilder, cycles: u64, oracle: bool) -> String {
    let config = builder.build().unwrap();
    let mut checker = oracle.then(|| Oracle::new(&config));
    let nodes = config.topology.node_count();
    let mut net = Network::with_tracer(config, Tracer::new(MemorySink::new(), nodes, 0));
    let mut snap = NetSnapshot::default();
    for _ in 0..cycles {
        net.step();
        if let Some(oracle) = checker.as_mut() {
            net.snapshot_into(&mut snap);
            oracle
                .check(&snap)
                .unwrap_or_else(|v| panic!("oracle violation during parity run: {v}"));
        }
    }
    net.into_tracer().into_sink().to_jsonl()
}

/// The oracle is an observer, not a participant: enabling it must leave
/// the simulation byte-identical — same trace.
fn assert_oracle_transparent(name: &str, make: fn(u64) -> SimConfigBuilder, cycles: u64) {
    for seed in [1u64, 0xF70C] {
        let plain = run_stepped(make(seed), cycles, false);
        assert!(
            plain.lines().count() > 50,
            "{name}/seed {seed}: trace suspiciously short"
        );
        assert_eq!(
            plain,
            run_stepped(make(seed), cycles, true),
            "{name}/seed {seed}: oracle-on trace diverged from oracle-off"
        );
    }
}

/// Debug builds step an order of magnitude slower; the byte-identity
/// contract is cycle-for-cycle, so a shorter window loses no coverage
/// class (release CI runs the full-length windows).
const fn dbg_capped(cycles: u64) -> u64 {
    if cfg!(debug_assertions) {
        cycles / 2
    } else {
        cycles
    }
}

#[test]
fn oracle_is_transparent_on_fault_free_runs() {
    assert_oracle_transparent("fault-free", fault_free, dbg_capped(6_000));
}

#[test]
fn oracle_is_transparent_on_link_fault_runs() {
    assert_oracle_transparent("link-fault", link_fault, dbg_capped(6_000));
}

#[test]
fn oracle_is_transparent_on_deadlock_recovery_runs() {
    assert_oracle_transparent("deadlock-recovery", deadlock_recovery, dbg_capped(12_000));
}

#[test]
fn oracle_is_transparent_on_fault_aware_midrun_runs() {
    assert_oracle_transparent("fault-aware-midrun", fault_aware_midrun, dbg_capped(10_000));
}

#[test]
fn oracle_is_transparent_on_torus_runs() {
    assert_oracle_transparent("torus-midrun", torus_midrun, dbg_capped(10_000));
}
