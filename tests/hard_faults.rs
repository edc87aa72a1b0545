//! Hard-fault integration: dead links and dead routers with adaptive
//! re-routing, and the probe protocol's hard-fault discipline (§3.2.2).

use std::collections::BTreeMap;

use ftnoc::check::CampaignParams;
use ftnoc::fault::FaultEventKind;
use ftnoc::prelude::*;
use ftnoc_rng::Rng;

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

/// The fault tables a timeline implies at `now`, folded by brute force
/// from its base set and its event list: every dead directed link
/// endpoint and every dead router with the cycle it died, the earliest
/// cycle kept.
fn fold_history(
    tl: &FaultTimeline,
    now: u64,
) -> (BTreeMap<(NodeId, Direction), u64>, BTreeMap<NodeId, u64>) {
    let topo = tl.topology();
    let base = tl.effective(0);
    let (mut ports, mut routers) = (BTreeMap::new(), BTreeMap::new());
    for node in topo.nodes() {
        if base.router_is_dead(node) {
            routers.insert(node, 0);
        }
        for dir in Direction::CARDINAL {
            if base.link_is_dead(node, dir) {
                ports.insert((node, dir), 0);
            }
        }
    }
    for ev in tl.events().iter().filter(|ev| ev.at <= now) {
        let mut kill = |node: NodeId, dir: Direction| {
            ports.entry((node, dir)).or_insert(ev.at);
            if let Some(m) = topo.neighbor_id(node, dir) {
                ports.entry((m, dir.opposite())).or_insert(ev.at);
            }
        };
        match ev.kind {
            FaultEventKind::LinkDown { node, dir } => kill(node, dir),
            FaultEventKind::RouterDown { node } => {
                routers.entry(node).or_insert(ev.at);
                for dir in Direction::CARDINAL {
                    if topo.neighbor_id(node, dir).is_some() {
                        kill(node, dir);
                    }
                }
            }
        }
    }
    (ports, routers)
}

/// Whether the link leaving live router `node` in `dir` is dead at
/// `now`, asked of the history directly: a base fault, a kill of the
/// link from either end, or the death of the router across it.
fn link_dead_in_history(tl: &FaultTimeline, now: u64, node: NodeId, dir: Direction) -> bool {
    let across = tl.topology().neighbor_id(node, dir);
    tl.effective(0).link_is_dead(node, dir)
        || tl
            .events()
            .iter()
            .filter(|ev| ev.at <= now)
            .any(|ev| match ev.kind {
                FaultEventKind::LinkDown { node: k, dir: d } => {
                    (k == node && d == dir) || (Some(k) == across && d == dir.opposite())
                }
                FaultEventKind::RouterDown { node: k } => Some(k) == across,
            })
}

/// Every fault query the timeline answers equals a brute-force fold of
/// its history, over the timelines of 200 sampled fuzz campaigns, each
/// extended with a few wear-out realizations, at cycle 0, at every
/// boundary and the cycle before it, and at `u64::MAX`.
#[test]
fn fault_queries_match_a_fold_of_the_history() {
    for i in 0..200 {
        let params = CampaignParams::sample(1, i);
        let mut tl = params
            .to_config()
            .expect("sampled campaigns build")
            .fault_timeline();
        let topo = tl.topology();
        let mut r = Rng::seed_from_u64_stream(0xdead, i);
        for _ in 0..r.gen_range(1..5u64) {
            let node = NodeId::new(r.gen_range(0..topo.node_count() as u64) as u16);
            let dir = Direction::CARDINAL[r.gen_range(0..4usize)];
            tl.push_link_kill(r.gen_range(0..params.cycles), node, dir);
        }
        let mut cycles = vec![0, u64::MAX];
        for &b in tl.boundaries() {
            cycles.extend([b, b.saturating_sub(1)]);
        }
        for now in cycles {
            let (ports, routers) = fold_history(&tl, now);
            let ctx = format!("campaign {i} ({}) at cycle {now}", params.to_spec());
            assert!(
                tl.dead_ports_at(now)
                    .eq(ports.iter().map(|(&(n, d), &since)| (n, d, since))),
                "{ctx}: dead ports {:?}, history {ports:?}",
                tl.dead_ports_at(now).collect::<Vec<_>>()
            );
            assert!(
                tl.dead_routers_at(now)
                    .eq(routers.iter().map(|(&n, &since)| (n, since))),
                "{ctx}: dead routers {:?}, history {routers:?}",
                tl.dead_routers_at(now).collect::<Vec<_>>()
            );
            for node in topo.nodes() {
                let dead = routers.contains_key(&node);
                assert_eq!(tl.router_dead_now(now, node), dead, "{ctx}: router {node}");
                if dead {
                    continue;
                }
                for dir in Direction::ALL {
                    assert_eq!(
                        tl.link_dead_now(now, node, dir),
                        link_dead_in_history(&tl, now, node, dir),
                        "{ctx}: link {node}:{dir}"
                    );
                }
            }
        }
    }
}
