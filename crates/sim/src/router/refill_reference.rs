//! The live refill held to the full one it replaced: every cycle of the
//! seven network shapes of `tests/snapshot_refill.rs`, each router's
//! part of a refilled scratch must equal what a copy of every view
//! (clear and re-extend, whatever it held) produces, with the live masks
//! derived from those views rather than from the router's state.

use ftnoc_fault::{FaultPlan, FaultRates};
use ftnoc_traffic::InjectionProcess;
use ftnoc_types::config::{BufferOrg, RouterConfig};
use ftnoc_types::geom::{NodeId, Topology};

use super::{Router, VcState};
use crate::snapshot::{full_credits, RouterSnapshot, StEntryView, VcStateView};
use crate::{DeadlockConfig, NetSnapshot, Network, RoutingAlgorithm, SimConfig};

/// The full refill: every view cleared and re-extended, every live bit
/// read off the finished view.
fn full_refill(router: &Router, out: &mut RouterSnapshot) {
    out.in_recovery = router.probe.in_recovery();
    out.deadlocks_confirmed = router.errors.deadlocks_confirmed;
    out.inputs.resize_with(router.inputs.len(), Vec::new);
    for (port, views) in router.inputs.iter().zip(&mut out.inputs) {
        views.resize_with(port.vcs.len(), Default::default);
        for (v, (vc, view)) in port.vcs.iter().zip(views).enumerate() {
            view.flits.clear();
            view.flits.extend(port.buffer.iter(v));
            view.state = match vc.state {
                VcState::Idle => VcStateView::Idle,
                VcState::VaWait { .. } => VcStateView::VaWait,
                VcState::Active {
                    out_port, out_vc, ..
                } => VcStateView::Active { out_port, out_vc },
            };
        }
    }
    out.outputs
        .resize_with(router.outputs.len(), Default::default);
    for (port, view) in router.outputs.iter().zip(&mut out.outputs) {
        view.exists = port.exists;
        view.vcs.resize_with(port.retrans.len(), Default::default);
        for (v, ovc) in view.vcs.iter_mut().enumerate() {
            ovc.credits = port.credits.count(v);
            ovc.allocated = port.allocated[v];
            ovc.allocated_at = port.allocated[v].map(|_| port.allocated_at[v]);
            let buffer = &port.retrans[v];
            ovc.sender.slots.clear();
            ovc.sender
                .slots
                .extend(buffer.iter_slots().map(|(f, held)| (*f, held)));
            ovc.sender.replaying = buffer.is_replaying();
        }
        view.st_queue.clear();
        view.st_queue
            .extend(port.st_queue.iter().map(|e| StEntryView {
                flit: e.flit,
                out_vc: e.out_vc,
            }));
    }
    out.wait_edges.clear();
    router.blocked_summary(&mut out.wait_edges);
    let mask = |busy: &mut dyn Iterator<Item = bool>| {
        busy.enumerate()
            .fold(0, |live, (v, busy)| live | u64::from(busy) << v)
    };
    out.live_in = out
        .inputs
        .iter()
        .map(|port| mask(&mut port.iter().map(|ivc| !ivc.is_idle())))
        .collect();
    out.live_out = (out.outputs.iter().enumerate())
        .map(|(p, port)| {
            let full = full_credits(&router.cfg, p);
            mask(&mut port.vcs.iter().map(|ovc| !ovc.is_idle(full)))
        })
        .collect();
}

/// One shape of `tests/snapshot_refill.rs`: topology, `(vcs, buffer
/// depth, retransmission depth, DAMQ pool or 0)`, routing, injection
/// rate, link upset rate and hard faults; deadlock recovery armed.
type Shape = (
    Topology,
    (usize, usize, usize, usize),
    RoutingAlgorithm,
    f64,
    f64,
    &'static [&'static str],
);

fn config(shape: &Shape, seed: u64) -> SimConfig {
    let &(topology, (vcs, buffer, retrans, pool), routing, rate, link_rate, faults) = shape;
    let mut router = RouterConfig::builder();
    router
        .vcs_per_port(vcs)
        .buffer_depth(buffer)
        .retrans_depth(retrans);
    if pool > 0 {
        router.buffer_org(BufferOrg::Damq { pool_size: pool });
    }
    let mut plan = FaultPlan::new();
    for spec in faults {
        plan.add_spec(spec).expect("valid fault spec");
    }
    let mut b = SimConfig::builder();
    b.topology(topology)
        .router(router.build().expect("valid router"))
        .routing(routing)
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(rate)
        .faults(FaultRates::link_only(link_rate))
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 16,
        })
        .fault_plan(&plan)
        .seed(seed)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(800);
    b.build().expect("valid config")
}

#[test]
fn the_live_refill_equals_the_full_one_every_cycle() {
    use RoutingAlgorithm::{FaultAware, FullyAdaptive, XyDeterministic};
    let concentrated = |w, h, conc| Topology::try_cmesh(w, h, conc).expect("valid cmesh");
    let shapes: [Shape; 7] = [
        (
            Topology::mesh(4, 4),
            (2, 5, 4, 0),
            XyDeterministic,
            0.32,
            0.0,
            &[],
        ),
        (
            Topology::mesh(3, 2),
            (3, 5, 6, 13),
            XyDeterministic,
            0.32,
            0.01,
            &[],
        ),
        (
            Topology::mesh(4, 4),
            (3, 4, 5, 7),
            FaultAware,
            0.12,
            0.0,
            &["link:6:s@330", "notify:0"],
        ),
        (
            Topology::mesh(2, 2),
            (2, 3, 3, 0),
            FaultAware,
            0.32,
            0.01,
            &["router:2@388", "notify:4"],
        ),
        (
            concentrated(4, 2, 3),
            (3, 2, 5, 8),
            FullyAdaptive,
            0.16,
            0.001,
            &["wearout:282", "notify:4"],
        ),
        (
            concentrated(2, 2, 2),
            (1, 3, 4, 0),
            XyDeterministic,
            0.14,
            0.0,
            &[],
        ),
        (
            concentrated(3, 3, 3),
            (2, 2, 5, 0),
            FullyAdaptive,
            0.40,
            0.0,
            &[],
        ),
    ];
    let mut dirty = NetSnapshot::default();
    let mut full = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let mut net = Network::new(config(shape, 7 + i as u64));
        let nodes = shape.0.node_count();
        full.resize_with(nodes, RouterSnapshot::default);
        for _ in 0..800 {
            net.step();
            net.snapshot_into(&mut dirty);
            for (n, reference) in full.iter_mut().enumerate() {
                full_refill(net.router(NodeId::new(n as u16)), reference);
                reference.dead = dirty.routers[n].dead;
                assert!(
                    dirty.routers[n] == *reference,
                    "shape {i} node {n}: the live refill differs from the full one at cycle {}",
                    dirty.now
                );
            }
        }
    }
}
