//! The rebuild contract of the snapshot builders: whatever the caller's
//! `NetSnapshot` held, `snapshot_into` leaves it equal to a fresh
//! `snapshot()`, and every router's rows partition its arenas in layout
//! order with live masks that agree with the rows.
//!
//! One scratch is carried, never reset, through seven networks shaped
//! like campaigns 19, 1, 20, 55, 28, 8 and 0 of `ftnoc fuzz --seed 1`
//! (this crate cannot name `CampaignParams`, so they are written out),
//! ordered so that every kind of stale content meets a network that must
//! overwrite it: a larger grid before a smaller one and back, more VCs
//! before fewer and back, DAMQ before static, and a link kill, a router
//! death and wear-out before a fault-free run.

use ftnoc_fault::{FaultPlan, FaultRates};
use ftnoc_sim::snapshot::{full_credits, Span};
use ftnoc_sim::{DeadlockConfig, NetSnapshot, Network, RoutingAlgorithm, SimConfig};
use ftnoc_traffic::InjectionProcess;
use ftnoc_types::config::{BufferOrg, RouterConfig};
use ftnoc_types::geom::Topology;

/// One network to step; deadlock recovery is armed on all of them.
#[derive(Clone, Copy)]
struct Shape {
    topology: Topology,
    /// `(vcs, buffer depth, retransmission depth, DAMQ pool or 0)`.
    router: (usize, usize, usize, usize),
    routing: RoutingAlgorithm,
    rate: f64,
    link_rate: f64,
    /// Hard faults in the `--fault` grammar.
    faults: &'static [&'static str],
}

const CYCLES: u64 = 800;

fn config(shape: &Shape, seed: u64) -> SimConfig {
    let (vcs, buffer, retrans, pool) = shape.router;
    let mut router = RouterConfig::builder();
    router
        .vcs_per_port(vcs)
        .buffer_depth(buffer)
        .retrans_depth(retrans);
    if pool > 0 {
        router.buffer_org(BufferOrg::Damq { pool_size: pool });
    }
    let mut plan = FaultPlan::new();
    for spec in shape.faults {
        plan.add_spec(spec).expect("valid fault spec");
    }
    let mut b = SimConfig::builder();
    b.topology(shape.topology)
        .router(router.build().expect("valid router"))
        .routing(shape.routing)
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(shape.rate)
        .faults(FaultRates::link_only(shape.link_rate))
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 16,
        })
        .fault_plan(&plan)
        .seed(seed)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(CYCLES);
    b.build().expect("valid config")
}

/// Asserts that `spans` tile `0..len` in order, with no gap or overlap.
fn assert_tiles(spans: impl Iterator<Item = Span>, len: usize, what: &str) {
    let end = spans.fold(0, |next, span| {
        assert!(
            span.start == next && span.end >= span.start,
            "{what}: span {span:?} does not start at {next}"
        );
        span.end
    });
    assert_eq!(end as usize, len, "{what}: the spans end before the arena");
}

/// Every router's rows partition its arenas in (port, VC) order — the
/// input rows and then the ST queues over `flits`, one tag per ST
/// entry, the output rows over `slots` — and `live_in` / `live_out` are
/// the masks the rows give.
fn assert_layout(snap: &NetSnapshot, config: &SimConfig, what: &str) {
    let (ports, vcs) = (config.router.ports(), config.router.vcs_per_port());
    let mask = |busy: &mut dyn Iterator<Item = bool>| {
        busy.enumerate()
            .fold(0, |live, (v, busy)| live | u64::from(busy) << v)
    };
    for (n, r) in snap.routers.iter().enumerate() {
        let what = format!("{what} node {n}");
        assert_eq!(r.ports.len(), ports, "{what}");
        assert_eq!(r.inputs.len(), ports * vcs, "{what}");
        assert_eq!(r.outputs.len(), ports * vcs, "{what}");
        let rows = r.inputs.iter().map(|row| row.flits);
        let st = r.ports.iter().map(|port| port.st_queue);
        assert_tiles(rows.chain(st), r.flits.len(), &format!("{what} flits"));
        let entries: usize = r.ports.iter().map(|port| port.st_queue.len()).sum();
        assert_eq!(r.st_vcs.len(), entries, "{what}: one tag per ST entry");
        let rows = r.outputs.iter().map(|row| row.slots);
        assert_tiles(rows, r.slots.len(), &format!("{what} slots"));
        let live_in: Vec<u64> = (r.inputs.chunks(vcs))
            .map(|rows| mask(&mut rows.iter().map(|row| !row.is_idle())))
            .collect();
        assert_eq!(r.live_in, live_in, "{what}: input live masks");
        let live_out: Vec<u64> = (r.outputs.chunks(vcs).enumerate())
            .map(|(p, rows)| {
                let full = full_credits(&config.router, p);
                mask(&mut rows.iter().map(|row| !row.is_idle(full)))
            })
            .collect();
        assert_eq!(r.live_out, live_out, "{what}: output live masks");
    }
}

#[test]
fn a_refilled_snapshot_equals_a_fresh_one_whatever_it_held() {
    use RoutingAlgorithm::{FaultAware, FullyAdaptive};
    let cmesh = |w, h, conc| Topology::try_cmesh(w, h, conc).expect("valid cmesh");
    // 19: the largest grid, static partition, fault-free.
    let quiet = Shape {
        topology: Topology::mesh(4, 4),
        router: (2, 5, 4, 0),
        routing: RoutingAlgorithm::XyDeterministic,
        rate: 0.32,
        link_rate: 0.0,
        faults: &[],
    };
    let shapes = [
        quiet,
        // 1: a smaller grid with more VCs, DAMQ, link upsets replaying.
        Shape {
            topology: Topology::mesh(3, 2),
            router: (3, 5, 6, 13),
            link_rate: 0.01,
            ..quiet
        },
        // 20: back to 4×4, a mid-run link kill under fault-aware routing.
        Shape {
            router: (3, 4, 5, 7),
            routing: FaultAware,
            rate: 0.12,
            faults: &["link:6:s@330", "notify:0"],
            ..quiet
        },
        // 55: a router death on a 2×2 (flits lost, a loss ledger).
        Shape {
            topology: Topology::mesh(2, 2),
            router: (2, 3, 3, 0),
            routing: FaultAware,
            link_rate: 0.01,
            faults: &["router:2@388", "notify:4"],
            ..quiet
        },
        // 28: a cmesh (seven ports) wearing its links out.
        Shape {
            topology: cmesh(4, 2, 3),
            router: (3, 2, 5, 8),
            routing: FullyAdaptive,
            rate: 0.16,
            link_rate: 0.001,
            faults: &["wearout:282", "notify:4"],
        },
        // 8: fewer ports, one VC, no fault of any kind.
        Shape {
            topology: cmesh(2, 2, 2),
            router: (1, 3, 4, 0),
            rate: 0.14,
            ..quiet
        },
        // 0: a saturated cmesh in and out of deadlock recovery.
        Shape {
            topology: cmesh(3, 3, 3),
            router: (2, 2, 5, 0),
            routing: FullyAdaptive,
            rate: 0.40,
            ..quiet
        },
    ];
    let mut dirty = NetSnapshot::default();
    for (i, shape) in shapes.iter().enumerate() {
        let config = config(shape, 7 + i as u64);
        let mut net = Network::new(config.clone());
        for _ in 0..CYCLES {
            net.step();
            net.snapshot_into(&mut dirty);
            assert!(
                dirty == net.snapshot(),
                "shape {i}: the refilled snapshot differs at cycle {}",
                dirty.now
            );
            assert_layout(&dirty, &config, &format!("shape {i} cycle {}", dirty.now));
        }
        // The shape did what its row says, so the fields it dirties
        // were non-empty going into the next one.
        assert_eq!(dirty.fault_events.is_empty(), shape.faults.is_empty());
        assert_eq!(dirty.dead_ports.is_empty(), shape.faults.is_empty());
        let router_dies = shape.faults.iter().any(|f| f.starts_with("router"));
        assert_eq!(!dirty.dead_routers.is_empty(), router_dies, "shape {i}");
        assert_eq!(!dirty.lost.is_empty(), router_dies, "shape {i}");
    }
    let recoveries: u64 = dirty.routers.iter().map(|r| r.deadlocks_confirmed).sum();
    assert!(recoveries > 0, "the last shape must have been in recovery");
}
