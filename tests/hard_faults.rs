//! Hard-fault integration: dead links and dead routers with adaptive
//! re-routing, and the probe protocol's hard-fault discipline (§3.2.2).

use ftnoc::prelude::*;

fn topo() -> Topology {
    Topology::mesh(6, 6)
}

fn run(hard: &FaultPlan, routing: RoutingAlgorithm) -> SimReport {
    let mut b = SimConfig::builder();
    b.topology(topo())
        .routing(routing)
        .fault_plan(hard)
        .injection_rate(0.1)
        .warmup_packets(500)
        .measure_packets(2_000)
        .max_cycles(400_000);
    Simulator::new(b.build().expect("valid config")).run()
}

#[test]
fn adaptive_routing_survives_a_dead_link() {
    let mut hard = FaultPlan::new();
    hard.link_at_reset(topo().id_of(Coord::new(2, 2)), Direction::East);
    assert!(hard.base_faults(topo()).network_is_connected(topo()));
    let report = run(&hard, RoutingAlgorithm::FullyAdaptive);
    assert!(report.completed, "traffic must route around the dead link");
    assert_eq!(report.errors.misdelivered, 0);
}

#[test]
fn adaptive_routing_survives_multiple_dead_links_with_recovery() {
    // Detouring around several dead links breaks minimality, so fully
    // adaptive routing can deadlock — exactly the faulty environment
    // §3.2 targets ("deadlock recovery in both fault-free and faulty
    // environments"). With the recovery machinery on, traffic flows.
    let mut hard = FaultPlan::new();
    hard.link_at_reset(topo().id_of(Coord::new(1, 1)), Direction::East)
        .link_at_reset(topo().id_of(Coord::new(3, 3)), Direction::South)
        .link_at_reset(topo().id_of(Coord::new(4, 2)), Direction::North);
    assert!(hard.base_faults(topo()).network_is_connected(topo()));
    let mut b = SimConfig::builder();
    b.topology(topo())
        .routing(RoutingAlgorithm::FullyAdaptive)
        .router(
            RouterConfig::builder()
                .retrans_depth(6)
                .build()
                .expect("valid router"),
        )
        .fault_plan(&hard)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        })
        .injection_rate(0.1)
        .warmup_packets(500)
        .measure_packets(2_000)
        .max_cycles(400_000);
    let report = Simulator::new(b.build().unwrap()).run();
    assert!(report.completed);
    assert_eq!(report.errors.misdelivered, 0);
}

#[test]
fn hard_fault_blocking_is_not_reported_as_deadlock() {
    // §3.2.2: long blocking near a hard fault must not trigger recovery;
    // the probe is discarded by the router adjacent to the fault.
    let mut hard = FaultPlan::new();
    hard.link_at_reset(topo().id_of(Coord::new(2, 2)), Direction::East);
    let mut b = SimConfig::builder();
    b.topology(topo())
        .routing(RoutingAlgorithm::WestFirstAdaptive)
        .fault_plan(&hard)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        })
        .injection_rate(0.15)
        .warmup_packets(500)
        .measure_packets(2_000)
        .max_cycles(400_000);
    let report = Simulator::new(b.build().unwrap()).run();
    assert!(report.completed);
    // West-first is deadlock-free: every suspicion must be filtered out.
    assert_eq!(
        report.errors.deadlocks_confirmed, 0,
        "false positive: confirmed a deadlock in a deadlock-free network"
    );
}

#[test]
fn deadlock_free_routing_never_confirms_deadlocks_under_load() {
    // The probing protocol's zero-false-positive property, stressed at
    // saturation: XY routing cannot deadlock, so no probe may return.
    let mut b = SimConfig::builder();
    b.deadlock(DeadlockConfig {
        enabled: true,
        cthres: 24,
    })
    .injection_rate(0.6) // well past saturation: heavy blocking
    .warmup_packets(200)
    .measure_packets(1_500)
    .max_cycles(300_000);
    let report = Simulator::new(b.build().unwrap()).run();
    assert_eq!(
        report.errors.deadlocks_confirmed, 0,
        "XY is deadlock-free; confirmations are false positives"
    );
    // Suspicions do occur (that is what Cthres is for)…
    assert!(report.errors.probes_sent > 0);
    // …and every one of them is filtered by the probe walk (a handful
    // may still be in flight when the run ends).
    let in_flight = report.errors.probes_sent - report.errors.probes_discarded;
    assert!(
        in_flight <= 64,
        "{} probes neither discarded nor in flight",
        in_flight
    );
}
