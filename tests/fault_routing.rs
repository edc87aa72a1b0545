//! Fault-aware routing end to end: the scenario the fault-aware layer
//! exists for. With the link `27:e` of the 8×8 mesh hard-failed,
//! west-first adaptive routing — whose turn model is only deadlock-free
//! on a *fault-free* mesh — wedges under bursty single-VC traffic once
//! its any-live-link detour fallback starts taking illegal turns around
//! the hole. Fault-aware up*/down* routing delivers every packet of the
//! same workload with no deadlock-recovery crutch: its routing function
//! is deadlock-free by construction for any connected fault set.

use ftnoc::prelude::*;

/// The shared workload: 8×8 mesh, link 27→east dead, one VC (detours
/// collide hard), bursty Bernoulli injection, finite traffic that must
/// fully drain, recovery off unless a test opts in.
fn build(routing: RoutingAlgorithm, recovery: bool, kills: Vec<ScheduledKill>) -> SimConfig {
    build_on(Topology::mesh(8, 8), routing, recovery, kills)
}

fn build_on(
    topo: Topology,
    routing: RoutingAlgorithm,
    recovery: bool,
    kills: Vec<ScheduledKill>,
) -> SimConfig {
    let mut plan = FaultPlan::new();
    if kills.is_empty() {
        plan.link_at_reset(NodeId::new(27), Direction::East);
    }
    for k in kills {
        plan.kill_link_at(k.at, k.node, k.dir);
    }
    let mut b = SimConfig::builder();
    b.topology(topo)
        .router(
            RouterConfig::builder()
                .vcs_per_port(1)
                .buffer_depth(4)
                .retrans_depth(6)
                .build()
                .expect("valid router"),
        )
        .routing(routing)
        .fault_plan(&plan)
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.25)
        .seed(1)
        .deadlock(DeadlockConfig {
            enabled: recovery,
            cthres: 32,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(60_000)
        .stop_injection_after(5_000);
    b.build().expect("valid config")
}

fn drain(config: SimConfig) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    for _ in 0..60_000 {
        sim.network_mut().step();
    }
    (
        sim.network().packets_injected(),
        sim.network().packets_ejected(),
    )
}

/// West-first's detour fallback deadlocks around the dead link. If this
/// wedge ever heals after an engine change, re-probe seeds (the way
/// `tests/eq1_sizing.rs` does) rather than weakening the assert — the
/// point is a workload where the turn model demonstrably fails and
/// fault-aware routing demonstrably does not.
#[test]
fn west_first_wedges_on_the_dead_link_without_recovery() {
    let (inj, ej) = drain(build(
        RoutingAlgorithm::WestFirstAdaptive,
        false,
        Vec::new(),
    ));
    assert!(
        ej < inj,
        "expected west-first to deadlock around the dead link ({ej}/{inj})"
    );
}

/// Fault-aware routing delivers the identical workload in full, with
/// deadlock recovery disabled: no escape hatch, the routing function
/// alone is deadlock-free around the fault.
#[test]
fn fault_aware_delivers_the_same_workload_without_recovery() {
    let (inj, ej) = drain(build(RoutingAlgorithm::FaultAware, false, Vec::new()));
    assert!(inj > 0, "workload must inject traffic");
    assert_eq!(
        ej, inj,
        "fault-aware routing must deliver every packet ({ej}/{inj})"
    );
}

/// The online-reconfiguration path: the same link dies *mid-run* at
/// cycle 1000 with an 8-cycle notification latency. Packets in flight
/// when the fault lands are drained or rerouted; the deadlock-recovery
/// net (armed as the transition-safety backstop) plus the post-fault
/// deadlock-free plan deliver everything.
#[test]
fn fault_aware_survives_a_mid_run_kill() {
    let kills = vec![ScheduledKill {
        at: 1_000,
        node: NodeId::new(27),
        dir: Direction::East,
    }];
    let (inj, ej) = drain(build(RoutingAlgorithm::FaultAware, true, kills));
    assert!(inj > 0, "workload must inject traffic");
    assert_eq!(
        ej, inj,
        "online reconfiguration must deliver every packet ({ej}/{inj})"
    );
}

/// The torus analog of the mid-run kill: an 8×8 torus loses the *wrap*
/// link `31:e` (node (7,3) → (0,3)) at cycle 1000, with deadlock
/// recovery off. Up*/down* routing never needed the wrap channels for
/// deadlock freedom — the post-fault plan is still a spanning tree of
/// the live graph — so the reconfigured routing function alone must
/// deliver the whole workload, no recovery crutch.
#[test]
fn fault_aware_survives_a_torus_wrap_link_kill() {
    let kills = vec![ScheduledKill {
        at: 1_000,
        node: NodeId::new(31),
        dir: Direction::East,
    }];
    let (inj, ej) = drain(build_on(
        Topology::torus(8, 8),
        RoutingAlgorithm::FaultAware,
        false,
        kills,
    ));
    assert!(inj > 0, "workload must inject traffic");
    assert_eq!(
        ej, inj,
        "fta must deliver every packet across the dead wrap link ({ej}/{inj})"
    );
}
