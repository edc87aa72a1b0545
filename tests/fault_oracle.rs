//! The oracle's fault-table machinery: consistency of the published
//! dead-port table, the dead-port allocation invariant (proved to have
//! teeth on doctored snapshots), and full-run quiet across an online
//! reconfiguration transition with every history-tracking invariant —
//! including the §3.2.2 wait-for/probe window — armed.

use ftnoc::check::{ArmedInvariants, Oracle, Violation};
use ftnoc::fault::FaultEventKind;
use ftnoc::prelude::*;
use ftnoc::sim::snapshot::{RouterSnapshot, VcStateView};
use ftnoc::sim::{NetSnapshot, Network};

/// Steps `net` for `cycles`, checking every commit boundary through one
/// refilled snapshot (the history-tracking invariants — arrival order,
/// probe soundness — need one per cycle); stops at the first violation.
fn step_checked(net: &mut Network, oracle: &mut Oracle, cycles: u64) -> Result<(), Violation> {
    let mut snap = NetSnapshot::default();
    for _ in 0..cycles {
        net.step();
        net.snapshot_into(&mut snap);
        oracle.check(&snap)?;
    }
    Ok(())
}

/// Every input-buffer flit of `snap`, router by router in row order.
fn buffered(snap: &NetSnapshot) -> impl Iterator<Item = &Flit> {
    (snap.routers.iter()).flat_map(|r| r.inputs.iter().flat_map(|row| row.flits.of(&r.flits)))
}

/// Plants `flit` at the back of input row `row` of `r`: into the flit
/// arena at the end of the row's span, every later span moved up one,
/// so the rows still partition the arena. The caller sets the live bit.
fn plant(r: &mut RouterSnapshot, row: usize, flit: Flit) {
    let at = r.inputs[row].flits.end;
    r.flits.insert(at as usize, flit);
    r.inputs[row].flits.end += 1;
    let later = r.inputs[row + 1..].iter_mut().map(|row| &mut row.flits);
    for span in later.chain(r.ports.iter_mut().map(|port| &mut port.st_queue)) {
        span.start += 1;
        span.end += 1;
    }
}

/// A 4×4 fault-aware run with one mid-run kill: link 5→east dies at
/// cycle 300, publication lags 6 cycles, recovery armed as the
/// transition net.
fn midrun_config() -> SimConfig {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .router(
            RouterConfig::builder()
                .vcs_per_port(1)
                .buffer_depth(4)
                .retrans_depth(6)
                .build()
                .expect("valid router"),
        )
        .routing(RoutingAlgorithm::FaultAware)
        .fault_plan(
            FaultPlan::new()
                .kill_link_at(300, NodeId::new(5), Direction::East)
                .notify_latency(6),
        )
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.25)
        .seed(1)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 16,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(4_000)
        .stop_injection_after(1_500);
    b.build().expect("valid config")
}

/// Every invariant the configuration arms — conservation, credits,
/// probe soundness, the wait-for window, fault-table consistency and
/// the dead-port check — stays quiet through detection, publication,
/// reroute and drain of a mid-run kill.
#[test]
fn oracle_stays_quiet_across_an_online_reconfiguration() {
    let config = midrun_config();
    let mut oracle = Oracle::new(&config);
    assert!(oracle.arming().dead_port, "fault-free logic arms dead-port");
    assert!(
        oracle.arming().probe,
        "fault-free logic arms the probe window"
    );
    let mut net = Network::new(config);
    step_checked(&mut net, &mut oracle, 4_000)
        .unwrap_or_else(|v| panic!("oracle violation across the reconfiguration: {v}"));
    assert_eq!(
        net.packets_ejected(),
        net.packets_injected(),
        "the reconfigured network must drain"
    );
    // The transition actually happened: the snapshot publishes both
    // endpoints of the killed link with the detection cycle.
    let snap = net.snapshot();
    assert!(snap.dead_ports.contains(&(5, Direction::East.index(), 300)));
    assert!(snap.dead_ports.contains(&(6, Direction::West.index(), 300)));
}

/// Doctored snapshot: claiming a link died while the simulator's table
/// says otherwise must trip the fault-table consistency check in both
/// directions (hidden death and invented death).
#[test]
fn oracle_flags_a_fault_table_mismatch() {
    let config = midrun_config();
    let mut oracle = Oracle::new(&config);
    let mut net = Network::new(config);
    // The history-tracking invariants (arrival order, probe soundness)
    // need one snapshot per cycle, so check all the way to the boundary
    // this test doctors.
    step_checked(&mut net, &mut oracle, 400).expect("honest run must pass");
    let snap = net.snapshot();

    let mut hidden = snap.clone();
    hidden.dead_ports.clear();
    let v = oracle
        .check(&hidden)
        .expect_err("a hidden dead link must be flagged");
    assert_eq!(v.invariant, "fault-table");

    let mut invented = snap;
    invented.dead_ports.push((0, Direction::East.index(), 17));
    let v = oracle
        .check(&invented)
        .expect_err("an invented dead link must be flagged");
    assert_eq!(v.invariant, "fault-table");
}

/// A 4×4 fault-aware run with a whole-router kill: router 5 dies at
/// cycle 300 with zero publication lag — the clean-drain configuration
/// that keeps conservation armed (with the loss seam).
fn router_death_config() -> SimConfig {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .routing(RoutingAlgorithm::FaultAware)
        .fault_plan(
            FaultPlan::new()
                .kill_router_at(300, NodeId::new(5))
                .notify_latency(0),
        )
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.2)
        .seed(1)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 16,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(4_000)
        .stop_injection_after(1_500);
    b.build().expect("valid config")
}

/// A 4×4 fault-aware run whose links wear out online (no configured
/// kills at all): the oracle must validate the wear-out events against
/// the configuration and fold them into its fault-table mirror, or the
/// dead-port comparison would flag every online death as invented.
fn wearout_config() -> SimConfig {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .routing(RoutingAlgorithm::FaultAware)
        .fault_plan(
            FaultPlan::new()
                .wearout(WearoutSpec {
                    mean_budget: 800,
                    seed: 0,
                })
                .notify_latency(4),
        )
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.2)
        .seed(42)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 16,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(6_000)
        .stop_injection_after(2_000);
    b.build().expect("valid config")
}

/// Conservation (with the loss seam), dead-router structure, fault-event
/// and fault-table consistency all stay quiet through a whole-router
/// death, its network-wide drain purge and the post-death epoch.
#[test]
fn oracle_stays_quiet_across_a_router_death() {
    let config = router_death_config();
    let mut oracle = Oracle::new(&config);
    assert!(
        oracle.arming().conservation,
        "a clean-drain router-kill run arms conservation with the loss seam"
    );
    assert!(
        !oracle.arming().credit_exact,
        "router kills step credit accounting down from equality to a bound"
    );
    let mut net = Network::new(config);
    step_checked(&mut net, &mut oracle, 4_000)
        .unwrap_or_else(|v| panic!("oracle violation across the router death: {v}"));
    let snap = net.snapshot();
    assert!(
        snap.dead_routers.contains(&(5, 300)),
        "the snapshot must publish the dead router with its death cycle"
    );
    assert!(
        snap.flits_lost > 0 && !snap.lost.is_empty(),
        "a mid-traffic death must leave a non-empty loss ledger"
    );
}

/// The oracle follows online wear-out: every realized event is
/// validated, folded into the fault-table mirror, and the dead-port
/// table comparison stays quiet while links die that the configuration
/// never scheduled.
#[test]
fn oracle_follows_online_wearout_deaths() {
    let config = wearout_config();
    let mut oracle = Oracle::new(&config);
    let mut net = Network::new(config);
    step_checked(&mut net, &mut oracle, 6_000)
        .unwrap_or_else(|v| panic!("oracle violation across online wear-out: {v}"));
    let snap = net.snapshot();
    assert!(
        snap.fault_events
            .iter()
            .any(|e| e.cause == FaultCause::Wearout),
        "mean budget 800 under load must realize at least one wear-out kill"
    );
    assert!(
        !snap.dead_ports.is_empty(),
        "realized wear-out kills must surface in the dead-port table"
    );
}

/// The pre-emption shape, `ftnoc run --topology 4x4 --routing fta
/// --fault wearout:60 --fault link:5:e@3000 --fault link:6:s@2500
/// --fault router:15@4000 --inj 0.1` at the default seed: wear-out
/// kills both links long before their scheduled kills land.
fn preemption_config() -> SimConfig {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .routing(RoutingAlgorithm::FaultAware)
        .fault_plan(
            FaultPlan::new()
                .wearout(WearoutSpec {
                    mean_budget: 60,
                    seed: 0,
                })
                .kill_link_at(3_000, NodeId::new(5), Direction::East)
                .kill_link_at(2_500, NodeId::new(6), Direction::South)
                .kill_router_at(4_000, NodeId::new(15)),
        )
        .injection_rate(0.1);
    b.build().expect("valid config")
}

/// A wear-out death pre-empts a scheduled kill of the same link: the
/// oracle stays quiet through both landings and the router death, and
/// the run's fault history lists every configured kill beside the
/// earlier wear-out death of the same physical link.
#[test]
fn oracle_follows_wearout_deaths_that_preempt_scheduled_kills() {
    let config = preemption_config();
    let mut oracle = Oracle::new(&config);
    let mut net = Network::new(config);
    step_checked(&mut net, &mut oracle, 4_100)
        .unwrap_or_else(|v| panic!("oracle violation across a pre-empted kill: {v}"));
    let events = net.fault_events();
    let configured: Vec<(u64, FaultEventKind)> = events
        .iter()
        .filter(|e| e.cause == FaultCause::Configured)
        .map(|e| (e.at, e.kind))
        .collect();
    let link = |node: u16, dir| FaultEventKind::LinkDown {
        node: NodeId::new(node),
        dir,
    };
    assert_eq!(
        configured,
        [
            (2_500, link(6, Direction::South)),
            (3_000, link(5, Direction::East)),
            (
                4_000,
                FaultEventKind::RouterDown {
                    node: NodeId::new(15)
                }
            ),
        ]
    );
    // Wear-out took both links long before: 5:E at cycle 412, 6:S at 438.
    for (at, node, dir) in [(412, 5, Direction::East), (438, 6, Direction::South)] {
        let death = FaultEvent {
            at,
            published_at: at + 4,
            cause: FaultCause::Wearout,
            kind: link(node, dir),
        };
        assert!(events.contains(&death), "{death:?} missing from {events:?}");
    }
}

/// Doctored snapshots against the loss seam: a flits_lost counter that
/// disagrees with the ledger masks, a ledger entry overlapping a
/// resident flit, and a hidden dead router must each be flagged.
#[test]
fn oracle_flags_doctored_loss_accounting() {
    let config = router_death_config();
    let mut oracle = Oracle::new(&config);
    let mut net = Network::new(config);
    step_checked(&mut net, &mut oracle, 400).expect("honest run must pass");
    let snap = net.snapshot();
    assert!(
        !snap.lost.is_empty(),
        "the kill at 300 must have lost flits"
    );

    // Counter out of step with the masks.
    let mut skimmed = snap.clone();
    skimmed.flits_lost += 1;
    let v = oracle
        .check(&skimmed)
        .expect_err("a flits_lost counter exceeding the ledger masks must be flagged");
    assert_eq!(v.invariant, "conservation");

    // A ledger entry claiming a flit that is still resident: pick any
    // buffered flit and book its seq bit as lost (keeping the counter
    // consistent so the overlap check, not the sum check, fires).
    let resident_flit = *buffered(&snap)
        .next()
        .expect("traffic in flight at cycle 400");
    let mut overlapping = snap.clone();
    let key = resident_flit.packet.raw();
    let bit = 1u128 << resident_flit.seq;
    match overlapping.lost.binary_search_by_key(&key, |&(p, _)| p) {
        Ok(i) => overlapping.lost[i].1 |= bit,
        Err(i) => overlapping.lost.insert(i, (key, bit)),
    }
    overlapping.flits_lost += 1;
    let v = oracle
        .check(&overlapping)
        .expect_err("a resident flit in the loss ledger must be flagged");
    assert_eq!(v.invariant, "conservation");
    assert!(
        v.detail.contains("resident"),
        "unexpected detail: {}",
        v.detail
    );

    // Hiding the death entirely.
    let mut hidden = snap.clone();
    hidden.dead_routers.clear();
    let v = oracle
        .check(&hidden)
        .expect_err("a hidden dead router must be flagged");
    assert_eq!(v.invariant, "fault-table");

    // A corpse that still holds traffic: plant a buffered flit inside
    // the dead router (table and flag left honest), its live bit set to
    // match.
    let mut haunted = snap;
    plant(&mut haunted.routers[5], 0, resident_flit);
    haunted.routers[5].live_in[0] |= 1;
    let v = oracle
        .check(&haunted)
        .expect_err("a non-empty dead router must be flagged");
    assert_eq!(v.invariant, "dead-router");
    assert_eq!(v.node, Some(5));
}

/// Doctored snapshot with two holed packets: the conservation violation
/// names the lower packet id on every run, so `--failures-out` bytes
/// repeat. Each run uses a fresh oracle, hence a fresh scratch. A lower,
/// whole packet whose flits sit far apart must not be flagged.
#[test]
fn conservation_names_the_lowest_broken_packet() {
    let doctored_run = || {
        let config = midrun_config();
        let mut oracle = Oracle::new(&config);
        assert!(oracle.arming().conservation);
        let mut net = Network::new(config);
        step_checked(&mut net, &mut oracle, 200).expect("honest run must pass");
        let mut snap = net.snapshot();
        let template = *buffered(&snap)
            .next()
            .expect("traffic in flight at cycle 200");
        // Flits 0 and 2 of two packets no source ever issued, at an
        // injection front (no buffer, credit or wormhole to upset); the
        // higher id goes in first. Below them, a whole packet split
        // between the first and the last front, each half holed on its
        // own, with the others between: only merging its two halves
        // shows it whole.
        let last = snap.pes.len() - 1;
        for (pe, pkt, seq) in [
            (0, u64::MAX - 2, 0),
            (0, u64::MAX - 2, 2),
            (0, u64::MAX, 0),
            (0, u64::MAX, 2),
            (0, u64::MAX - 1, 0),
            (0, u64::MAX - 1, 2),
            (last, u64::MAX - 2, 1),
            (last, u64::MAX - 2, 3),
        ] {
            snap.pes[pe].injecting.push(Flit {
                packet: PacketId::new(pkt),
                seq,
                ..template
            });
        }
        oracle.check(&snap).expect_err("a seq hole must be flagged")
    };
    for _ in 0..2 {
        let v = doctored_run();
        assert_eq!(v.invariant, "conservation");
        let lower = format!("packet p{} ", u64::MAX - 1);
        assert!(v.detail.starts_with(&lower), "{}", v.detail);
    }
}

/// Doctored snapshot: a wear-out event in a run that configures no
/// wear-out model is an invented fault and must be flagged.
#[test]
fn oracle_flags_an_invented_wearout_event() {
    let config = router_death_config();
    let mut oracle = Oracle::new(&config);
    let mut net = Network::new(config);
    step_checked(&mut net, &mut oracle, 100).expect("honest run must pass");
    let mut snap = net.snapshot();
    snap.fault_events.push(FaultEvent {
        at: 50,
        published_at: 50,
        cause: FaultCause::Wearout,
        kind: FaultEventKind::LinkDown {
            node: NodeId::new(1),
            dir: Direction::East,
        },
    });
    let v = oracle
        .check(&snap)
        .expect_err("an invented wear-out event must be flagged");
    assert_eq!(v.invariant, "fault-events");
}

/// Doctored snapshot: a reservation granted *at or after* its port's
/// death cycle violates the dead-port invariant; one granted strictly
/// before the death is a legally draining wormhole and must pass.
#[test]
fn oracle_flags_an_allocation_onto_a_dead_port() {
    let config = {
        let mut b = SimConfig::builder();
        b.topology(Topology::mesh(4, 4))
            .injection_rate(0.4)
            .seed(3)
            .warmup_packets(0)
            .measure_packets(u64::MAX)
            .max_cycles(300);
        b.build().expect("valid config")
    };
    // Arm only the dead-port check, with no timeline: the snapshot's
    // own table is trusted, so the test can doctor it freely.
    let mut arm = ArmedInvariants::none();
    arm.dead_port = true;
    let mut oracle = Oracle::with_arming(&config, arm);
    let vcs = config.router.vcs_per_port();
    let mut net = Network::new(config);
    for _ in 0..200 {
        net.step();
    }
    let snap = net.snapshot();
    oracle.check(&snap).expect("honest snapshot must pass");
    // Find a live reservation on a cardinal output port.
    let (node, port, granted_at) = snap
        .routers
        .iter()
        .enumerate()
        .find_map(|(n, r)| {
            let mut cardinal = r.outputs[..4 * vcs].iter().enumerate();
            cardinal.find_map(|(i, row)| row.allocated_at.map(|at| (n, i / vcs, at)))
        })
        .expect("saturating traffic must hold some reservation");

    // Death strictly after the grant: the wormhole may drain.
    let mut draining = snap.clone();
    draining.dead_ports = vec![(node, port, granted_at + 1)];
    oracle
        .check(&draining)
        .expect("a pre-death reservation is a draining wormhole, not a violation");

    // Death at (or before) the grant cycle: the router routed a packet
    // into a port it already knew was dead.
    let mut doctored = snap;
    doctored.dead_ports = vec![(node, port, granted_at)];
    let v = oracle
        .check(&doctored)
        .expect_err("a post-death reservation must be flagged");
    assert_eq!(v.invariant, "dead-port");
    assert_eq!(v.node, Some(node));
}

/// A fault-free 4×4 below saturation, every family armed (credit
/// accounting as an exact equality).
fn quiet_config() -> SimConfig {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.10)
        .seed(5)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(2_000);
    b.build().expect("valid config")
}

/// Steps `net` checked until `pick` finds what a doctored test needs in
/// the cycle's snapshot; returns that snapshot and the pick.
fn checked_until<T>(
    net: &mut Network,
    oracle: &mut Oracle,
    mut pick: impl FnMut(&NetSnapshot) -> Option<T>,
) -> (NetSnapshot, T) {
    let mut snap = NetSnapshot::default();
    for _ in 0..1_000 {
        net.step();
        net.snapshot_into(&mut snap);
        oracle.check(&snap).expect("honest run must pass");
        if let Some(found) = pick(&snap) {
            return (snap, found);
        }
    }
    panic!("nothing to doctor in 1 000 cycles");
}

/// Doctored snapshot: a link VC that nothing holds — idle on both ends,
/// nothing queued, on the wire or returning for it — is where credit
/// accounting sees a lost or a doubled credit alone. One credit below
/// the cap, one above, and a flit in the downstream buffer are each
/// flagged.
#[test]
fn oracle_flags_an_idle_vc_off_its_credit_cap() {
    let config = quiet_config();
    let per_vc = config.router.port_capacity().per_vc as u32;
    let vcs = config.router.vcs_per_port();
    let topo = config.topology;
    let mut oracle = Oracle::new(&config);
    assert!(oracle.arming().credit_exact);
    let mut net = Network::new(config);
    let (snap, (n, d, v, m, flit)) = checked_until(&mut net, &mut oracle, |snap| {
        // Some other VC must hold a flit, or the network is empty.
        let flit = *buffered(snap).next()?;
        (0..snap.routers.len()).find_map(|n| {
            Direction::CARDINAL.into_iter().find_map(|d| {
                let m = topo.neighbor_id(NodeId::new(n as u16), d)?.index();
                let (op, q) = (d.index(), d.opposite().index());
                let (r, down) = (&snap.routers[n], &snap.routers[m]);
                // The downstream router computed, so a flit in it is no
                // missed wake-up.
                (0..vcs)
                    .find(|&v| {
                        let wire =
                            snap.wires[m].flit_in[q].is_some_and(|(_, wv, _)| wv as usize == v);
                        snap.computed[m]
                            && r.outputs[op * vcs + v].is_idle(per_vc)
                            && down.inputs[q * vcs + v].is_idle()
                            && !r.st_queue(op).any(|(_, tag)| usize::from(tag) == v)
                            && !wire
                            && !snap.wires[n].credits_in[op]
                                .iter()
                                .any(|&(cv, _)| cv as usize == v)
                    })
                    .map(|v| (n, d, v, m, flit))
            })
        })
    });
    let mut flag = |doctored: &NetSnapshot, detail: String| {
        let violation = oracle
            .check(doctored)
            .expect_err("an idle VC off its credit cap must be flagged");
        assert_eq!(violation.invariant, "credit-accounting", "{violation}");
        assert_eq!(violation.node, Some(n));
        assert!(violation.detail.contains(&detail), "{violation}");
    };
    for credits in [per_vc - 1, per_vc + 1] {
        let mut doctored = snap.clone();
        doctored.routers[n].outputs[d.index() * vcs + v].credits = credits;
        doctored.routers[n].live_out[d.index()] |= 1 << v;
        flag(
            &doctored,
            format!("link {d:?} vc {v}: {credits} credits + 0 resident"),
        );
    }
    let mut doctored = snap;
    let q = d.opposite().index();
    plant(&mut doctored.routers[m], q * vcs + v, flit);
    doctored.routers[m].live_in[q] |= 1 << v;
    flag(
        &doctored,
        format!("link {d:?} vc {v}: {per_vc} credits + 1 resident"),
    );
}

/// Doctored snapshot: a router the gating skipped is idle everywhere, so
/// a flit planted in one of its idle input VCs must fire `activity`.
#[test]
fn oracle_flags_a_flit_in_an_idle_vc_of_a_gated_router() {
    let config = quiet_config();
    let vcs = config.router.vcs_per_port();
    let mut oracle = Oracle::new(&config);
    let mut net = Network::new(config);
    let (snap, (gated, flit)) = checked_until(&mut net, &mut oracle, |snap| {
        let gated = snap.computed.iter().position(|&computed| !computed)?;
        Some((gated, *buffered(snap).next()?))
    });
    let mut doctored = snap;
    let (p, v) = (Direction::North.index(), 0);
    let r = &mut doctored.routers[gated];
    assert!(
        r.inputs[p * vcs + v].is_idle(),
        "a gated router's VCs are idle"
    );
    plant(r, p * vcs + v, flit);
    r.live_in[p] |= 1 << v;
    let violation = oracle
        .check(&doctored)
        .expect_err("a flit in a skipped router must be flagged");
    assert_eq!(violation.invariant, "activity", "{violation}");
    assert_eq!(violation.node, Some(gated));
    assert!(violation
        .detail
        .contains(&format!("input {p}.{v} holds 1 flits")));
}

/// Doctored snapshot: an idle input VC turned `Active` toward an output
/// VC that records no owner breaks §4 exclusivity.
#[test]
fn oracle_flags_an_active_vc_whose_output_records_no_owner() {
    let config = quiet_config();
    let vcs = config.router.vcs_per_port();
    let mut oracle = Oracle::new(&config);
    assert!(oracle.arming().exclusivity);
    let mut net = Network::new(config);
    let (snap, (n, p, v, op, ov)) = checked_until(&mut net, &mut oracle, |snap| {
        snap.routers.iter().enumerate().find_map(|(n, r)| {
            if !snap.computed[n] || r.in_recovery {
                return None;
            }
            let i = (r.inputs.iter()).position(|row| row.state == VcStateView::Idle)?;
            let (op, ov) = (0..4).find_map(|op| {
                if !r.ports[op].exists {
                    return None;
                }
                let ov = (0..vcs).find(|&ov| {
                    let row = &r.outputs[op * vcs + ov];
                    let slots = row.slots.of(&r.slots);
                    row.allocated.is_none() && slots.iter().all(|&(_, held)| !held)
                })?;
                Some((op, ov))
            })?;
            Some((n, i / vcs, i % vcs, op, ov))
        })
    });
    let mut doctored = snap;
    doctored.routers[n].inputs[p * vcs + v].state = VcStateView::Active {
        out_port: op,
        out_vc: ov,
    };
    doctored.routers[n].live_in[p] |= 1 << v;
    let violation = oracle
        .check(&doctored)
        .expect_err("an owner the reservation does not record must be flagged");
    assert_eq!(violation.invariant, "exclusivity", "{violation}");
    assert_eq!(violation.node, Some(n));
    assert!(
        violation.detail.contains("the reservation records None"),
        "{violation}"
    );
}

/// Debug builds: a doctored snapshot whose live mask forgets the flit it
/// planted fails loudly, where the oracle, walking only live VCs, would
/// otherwise pass it without looking.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "disagrees")]
fn a_live_mask_that_forgets_a_planted_flit_fails_loudly() {
    let config = quiet_config();
    let mut oracle = Oracle::new(&config);
    let mut net = Network::new(config);
    let (mut snap, (n, flit)) = checked_until(&mut net, &mut oracle, |snap| {
        let n = snap.routers.iter().position(|r| r.inputs[0].is_idle())?;
        Some((n, *buffered(snap).next()?))
    });
    plant(&mut snap.routers[n], 0, flit);
    let _ = oracle.check(&snap);
}

/// A candidate for an exclusivity break at router `n`: an idle input VC
/// `(p, v)` of a computed router outside recovery, and an output VC
/// `(op, ov)` of an existing link port that records no owner and holds
/// no absorbed slot (see `oracle_flags_an_active_vc_whose_output_records_no_owner`).
fn unowned_output(
    snap: &NetSnapshot,
    n: usize,
    vcs: usize,
) -> Option<(usize, usize, usize, usize)> {
    let r = &snap.routers[n];
    if !snap.computed[n] || r.in_recovery {
        return None;
    }
    let i = (r.inputs.iter()).position(|row| row.state == VcStateView::Idle)?;
    let (op, ov) = (0..4).find_map(|op| {
        if !r.ports[op].exists {
            return None;
        }
        let ov = (0..vcs).find(|&ov| {
            let row = &r.outputs[op * vcs + ov];
            row.allocated.is_none() && row.slots.of(&r.slots).iter().all(|&(_, held)| !held)
        })?;
        Some((op, ov))
    })?;
    Some((i / vcs, i % vcs, op, ov))
}

/// Doctored snapshots that break two families at once, the later family
/// at a lower router index than the earlier one: the oracle names the
/// earlier family, at its own node and with its own detail, whatever
/// order it walks the routers in. Credit accounting and conservation
/// both come after exclusivity in the family order.
#[test]
fn the_earlier_family_wins_over_a_lower_router() {
    let config = quiet_config();
    let per_vc = config.router.port_capacity().per_vc as u32;
    let vcs = config.router.vcs_per_port();
    let topo = config.topology;
    let mut oracle = Oracle::new(&config);
    assert!(oracle.arming().exclusivity && oracle.arming().credit_exact);
    assert!(oracle.arming().conservation);
    let mut net = Network::new(config);
    // Exclusivity is broken at the highest router that allows it, and the
    // later families at a lower computed router `a` with an idle input
    // VC and an idle outgoing link VC.
    let (snap, (b, (p, v, op, ov), a, (d, lv), (ip, iv), flit)) =
        checked_until(&mut net, &mut oracle, |snap| {
            let flit = *buffered(snap).next()?;
            let b = (0..snap.routers.len())
                .rev()
                .find(|&n| unowned_output(snap, n, vcs).is_some())?;
            let excl = unowned_output(snap, b, vcs)?;
            (0..b).find_map(|a| {
                let r = &snap.routers[a];
                if !snap.computed[a] {
                    return None;
                }
                let link = Direction::CARDINAL.into_iter().find_map(|d| {
                    topo.neighbor_id(NodeId::new(a as u16), d)?;
                    let op = d.index();
                    let lv = (0..vcs).find(|&lv| {
                        r.outputs[op * vcs + lv].is_idle(per_vc)
                            && !r.st_queue(op).any(|(_, tag)| usize::from(tag) == lv)
                    })?;
                    Some((d, lv))
                })?;
                let idle = (0..4 * vcs).find(|&i| r.inputs[i].is_idle())?;
                Some((b, excl, a, link, (idle / vcs, idle % vcs), flit))
            })
        });
    let break_exclusivity = |doctored: &mut NetSnapshot| {
        let r = &mut doctored.routers[b];
        r.inputs[p * vcs + v].state = VcStateView::Active {
            out_port: op,
            out_vc: ov,
        };
        r.live_in[p] |= 1 << v;
    };
    let expect_exclusivity = |doctored: &NetSnapshot, oracle: &mut Oracle| {
        let violation = oracle
            .check(doctored)
            .expect_err("a doubly broken snapshot must be flagged");
        assert_eq!(violation.invariant, "exclusivity", "{violation}");
        assert_eq!(violation.node, Some(b));
        let detail =
            format!("input {p}.{v} active toward {op}.{ov} but the reservation records None");
        assert_eq!(violation.detail, detail);
    };
    // Credit accounting at `a`, one credit above the cap.
    let mut doctored = snap.clone();
    break_exclusivity(&mut doctored);
    doctored.routers[a].outputs[d.index() * vcs + lv].credits = per_vc + 1;
    doctored.routers[a].live_out[d.index()] |= 1 << lv;
    expect_exclusivity(&doctored, &mut oracle);
    // Conservation at `a`: flits 0 and 2 of a packet no source issued,
    // planted in an idle input VC (ordering, credits and arrival break
    // there too, all after exclusivity).
    let mut doctored = snap;
    break_exclusivity(&mut doctored);
    for seq in [0, 2] {
        let orphan = Flit {
            packet: PacketId::new(u64::MAX),
            seq,
            kind: FlitKind::Body,
            ..flit
        };
        plant(&mut doctored.routers[a], ip * vcs + iv, orphan);
    }
    doctored.routers[a].live_in[ip] |= 1 << iv;
    expect_exclusivity(&doctored, &mut oracle);
}

/// Breaks the structural bound on router `n`'s first ST queue: its span
/// claims three entries (nothing but the structural family reads it
/// when credit accounting and conservation are unarmed).
fn overfill_st_queue(snap: &mut NetSnapshot, n: usize) {
    let span = &mut snap.routers[n].ports[0].st_queue;
    span.end = span.start + 3;
}

/// A caller that logs and continues: arrival and probe tracking advance
/// on a check that fails on an earlier family, so the snapshots after
/// it get the verdicts an unbroken history gives.
///
/// Arrival: a foreign body flit planted at the back of a busy VC is an
/// arrival violation on its own, but beside a structural break the
/// check names the break; the next check of the same VC then sees no
/// new arrival and passes. Probe: 80 cycles whose checks all fail on a
/// structural break still fill the probe window, so an unexplained
/// confirmation after them is flagged rather than accepted as near a
/// restart of the history.
#[test]
fn tracking_survives_an_earlier_failure() {
    let config = quiet_config();
    let per_vc = config.router.port_capacity().per_vc;
    let vcs = config.router.vcs_per_port();
    let mut arm = ArmedInvariants::none();
    arm.arrival = true;
    arm.probe = true;
    let mut oracle = Oracle::with_arming(&config, arm);
    let mut net = Network::new(config.clone());
    let (snap, (n, p, v)) = checked_until(&mut net, &mut oracle, |snap| {
        (0..snap.routers.len()).find_map(|n| {
            let r = &snap.routers[n];
            let i = (0..4 * vcs).find(|&i| (1..per_vc).contains(&r.inputs[i].flits.len()))?;
            snap.computed[n].then_some((n, i / vcs, i % vcs))
        })
    });
    let back = *snap.routers[n].inputs[p * vcs + v]
        .flits
        .of(&snap.routers[n].flits)
        .last()
        .expect("a busy VC");
    let mut planted = snap.clone();
    let orphan = Flit {
        packet: PacketId::new(u64::MAX),
        kind: FlitKind::Body,
        ..back
    };
    plant(&mut planted.routers[n], p * vcs + v, orphan);

    // Alone, the plant is an arrival violation (a second oracle, whose
    // tracking is the first one's before the plant).
    let mut alone = Oracle::with_arming(&config, arm);
    let mut replay = Network::new(config.clone());
    let mut scratch = NetSnapshot::default();
    while scratch.now < snap.now {
        replay.step();
        replay.snapshot_into(&mut scratch);
        alone.check(&scratch).expect("honest run must pass");
    }
    let violation = alone
        .check(&planted)
        .expect_err("a foreign body flit must be flagged");
    assert_eq!(violation.invariant, "arrival-order", "{violation}");
    assert_eq!(violation.node, Some(n));
    assert!(
        violation
            .detail
            .starts_with(&format!("input {p}.{v} accepted ")),
        "{violation}"
    );

    // Beside a structural break, the break is named, and the plant's
    // arrival is tracked all the same.
    let mut both = planted.clone();
    overfill_st_queue(&mut both, 0);
    let violation = oracle.check(&both).expect_err("a structural break");
    assert_eq!(violation.invariant, "structural", "{violation}");
    assert_eq!(violation.node, Some(0));
    oracle
        .check(&planted)
        .expect("an arrival already seen is no new arrival");

    // The probe window fills on failing checks too.
    let mut snap = NetSnapshot::default();
    for _ in 0..80 {
        net.step();
        net.snapshot_into(&mut snap);
        let mut broken = snap.clone();
        overfill_st_queue(&mut broken, 0);
        let violation = oracle.check(&broken).expect_err("a structural break");
        assert_eq!(violation.invariant, "structural", "{violation}");
    }
    net.step();
    net.snapshot_into(&mut snap);
    snap.routers[0].deadlocks_confirmed += 1;
    let violation = oracle
        .check(&snap)
        .expect_err("a confirmation no blocked chain explains must be flagged");
    assert_eq!(violation.invariant, "probe-soundness", "{violation}");
    assert_eq!(violation.node, Some(0));
}
