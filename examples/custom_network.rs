//! Beyond the paper's platform: a torus with odd-even routing, hotspot
//! traffic, a permanently dead link, and a 2-stage speculative router —
//! everything the library parameterises.
//!
//! ```sh
//! cargo run --example custom_network --release
//! ```

use ftnoc::prelude::*;

fn main() -> Result<(), ftnoc::types::ConfigError> {
    let topo = Topology::mesh(6, 6);

    // Kill one link; adaptive routing steers around it.
    let mut faults = FaultPlan::new();
    faults.link_at_reset(topo.id_of(Coord::new(2, 2)), Direction::East);
    faults
        .validate(topo)
        .expect("one dead link leaves the mesh connected");

    let router = RouterConfig::builder()
        .vcs_per_port(4)
        .buffer_depth(8)
        .pipeline(PipelineDepth::Two)
        .build()?;

    let mut b = SimConfig::builder();
    b.topology(topo)
        .router(router)
        .routing(RoutingAlgorithm::WestFirstAdaptive)
        .pattern(TrafficPattern::Hotspot {
            hotspot: topo.id_of(Coord::new(3, 3)),
            fraction: 0.2,
        })
        .injection_rate(0.15)
        .faults(FaultRates::link_only(0.001))
        .fault_plan(&faults)
        .warmup_packets(1_000)
        .measure_packets(4_000);
    let config = b.build()?;

    println!("6x6 mesh, 2-stage routers, west-first routing, 20% hotspot, dead link at (2,2)->E");
    let report = Simulator::new(config).run();
    println!(
        "delivered {} packets, avg latency {:.1} cycles, throughput {:.3} flits/node/cycle",
        report.packets_ejected, report.avg_latency, report.throughput
    );
    println!(
        "link errors corrected {} / replayed {}, misdelivered {}",
        report.errors.link_corrected_inline,
        report.errors.link_recovered_by_replay,
        report.errors.misdelivered
    );
    assert!(report.completed, "dead link must not cut off traffic");
    assert_eq!(report.errors.misdelivered, 0);
    Ok(())
}
