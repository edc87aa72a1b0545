//! Network-level behavioural tests: pipeline timing, topologies,
//! scheme contrasts and buffer-cost claims.

use ftnoc_core::recovery::{recovery_latency, LogicFaultKind};
use ftnoc_fault::FaultRates;
use ftnoc_sim::{ErrorScheme, RoutingAlgorithm, SimConfig, SimReport, Simulator};
use ftnoc_trace::{MemorySink, TraceEvent, Tracer};
use ftnoc_traffic::{InjectionProcess, TrafficPattern};
use ftnoc_types::config::{PipelineDepth, RouterConfig};
use ftnoc_types::geom::Topology;

fn quick() -> ftnoc_sim::SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.injection_rate(0.05)
        .warmup_packets(200)
        .measure_packets(1_000)
        .max_cycles(300_000);
    b
}

/// One packet per node on a 4×1 line under `Neighbor` traffic (three
/// one-hop packets east, one three-hop packet west), all created at
/// cycle 3 and never wanting the same port. Returns the report and, per
/// router a head left on a link, its cycles from entering to leaving.
fn line_run(pipeline: PipelineDepth, rt: f64) -> (SimReport, Vec<u64>) {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 1))
        .router(RouterConfig::builder().pipeline(pipeline).build().unwrap())
        .pattern(TrafficPattern::Neighbor)
        .injection_rate(1.0)
        .stop_injection_after(4)
        .warmup_packets(0)
        .measure_packets(4)
        .faults(FaultRates {
            rt,
            ..FaultRates::none()
        });
    let tracer = Tracer::new(MemorySink::new(), 4, 0);
    let mut sim = Simulator::with_tracer(b.build().unwrap(), tracer);
    let report = sim.run();
    assert!(
        report.completed && report.packets_ejected == 4,
        "{pipeline:?}"
    );
    let mut entered = std::collections::BTreeMap::new();
    let mut hops = Vec::new();
    for r in sim.into_tracer().into_sink().records {
        match r.event {
            TraceEvent::PacketInjected { packet, .. }
            | TraceEvent::FlitReceived { packet, seq: 0, .. } => {
                entered.insert(packet, r.cycle);
            }
            TraceEvent::FlitSent { packet, seq: 0, .. } => hops.push(r.cycle - entered[&packet]),
            _ => {}
        }
    }
    assert_eq!(
        hops.len(),
        6,
        "{pipeline:?}: 3 one-hop + 1 three-hop packet"
    );
    (report, hops)
}

/// The router's pipeline timing is the table's: at every depth a head
/// spends exactly `1 + rc_extra + va_to_sa + sa_to_st` (= the stage
/// count) cycles in each router, and each §4.2 routing-unit upset stalls
/// it by `recovery_latency`'s blocked-direction or open-path row, nothing
/// else. On a lightly loaded 8×8 (~5.3 hops + ejection under uniform
/// traffic) each stage then costs between 3 and 9 cycles (§2.1).
#[test]
fn zero_load_latency_tracks_pipeline_depth() {
    let mut latencies = Vec::new();
    for p in PipelineDepth::ALL {
        let t = p.timing();
        let per_hop = 1 + t.rc_extra + t.va_to_sa + t.sa_to_st;
        assert_eq!(per_hop, u64::from(p.stages()), "{p:?}");
        let (clean, hops) = line_run(p, 0.0);
        assert!(hops.iter().all(|&h| h == per_hop), "{p:?}: {hops:?}");
        // 10 router visits (ejection included), 6 one-cycle links and
        // 3 body flits behind each of the 4 heads.
        let clean_sum = clean.avg_latency * 4.0;
        assert_eq!(clean_sum, (10 * per_hop + 6 + 4 * 3) as f64, "{p:?}");

        // Every head routing draws an RT upset. Under XY each becomes a
        // stall (blocked or absent link, wrong ejection) or a charged
        // misdirection onto an open link, which books one NACK.
        let row = |kind| recovery_latency(kind, p).0;
        let blocked_row = row(LogicFaultKind::RtMisdirectBlocked);
        let open_row = row(LogicFaultKind::RtMisdirectOpenDeterministic);
        let (upset, hops) = line_run(p, 1.0);
        for stall in hops.iter().map(|h| h - per_hop) {
            assert!(
                stall == blocked_row || stall == open_row,
                "{p:?}: stall {stall} is neither {blocked_row} nor {open_row}"
            );
        }
        let open = upset.events.nack;
        let blocked = upset.errors.rt_corrected - open;
        assert!(open > 0 && blocked > 0, "{p:?}: both RT rows drawn");
        assert_eq!(
            upset.avg_latency * 4.0 - clean_sum,
            (blocked * blocked_row + open * open_row) as f64,
            "{p:?}: the RT upsets cost exactly their rows"
        );

        let router = RouterConfig::builder().pipeline(p).build().unwrap();
        let report = Simulator::new(quick().router(router).build().unwrap()).run();
        assert!(report.completed, "{p:?}");
        latencies.push(report.avg_latency);
    }
    let per_stage = (latencies[3] - latencies[0]) / 3.0;
    assert!(latencies.windows(2).all(|w| w[0] < w[1]), "{latencies:?}");
    assert!((3.0..9.0).contains(&per_stage), "{latencies:?}");
}

/// A torus topology simulates and delivers (wrap-around links work).
#[test]
fn torus_topology_completes() {
    let report = Simulator::new(
        quick()
            .topology(Topology::torus(4, 4))
            .pattern(TrafficPattern::Tornado)
            .build()
            .unwrap(),
    )
    .run();
    assert!(report.completed);
    assert_eq!(report.errors.misdelivered, 0);
}

/// Tornado on a torus exploits wrap links: its average latency must beat
/// tornado on an equal-size mesh (where wrap traffic crosses the middle).
#[test]
fn torus_beats_mesh_for_tornado_traffic() {
    let mesh = Simulator::new(
        quick()
            .topology(Topology::mesh(8, 8))
            .pattern(TrafficPattern::Tornado)
            .build()
            .unwrap(),
    )
    .run();
    let torus = Simulator::new(
        quick()
            .topology(Topology::torus(8, 8))
            .pattern(TrafficPattern::Tornado)
            .build()
            .unwrap(),
    )
    .run();
    assert!(mesh.completed && torus.completed);
    assert!(
        torus.avg_latency < mesh.avg_latency,
        "torus {} !< mesh {}",
        torus.avg_latency,
        mesh.avg_latency
    );
}

/// The unprotected baseline loses or misdelivers traffic under link
/// errors — the contrast every scheme in §3 is measured against.
#[test]
fn unprotected_network_corrupts_traffic() {
    let mut b = quick();
    b.scheme(ErrorScheme::Unprotected)
        .faults(FaultRates::link_only(2e-2))
        .injection_rate(0.1)
        .measure_packets(2_000);
    let report = Simulator::new(b.build().unwrap()).run();
    let damage = report.errors.misdelivered > 0 || report.errors.stranded_flits > 0;
    assert!(
        damage,
        "2% link errors must visibly corrupt an unprotected run"
    );
}

/// E2E needs source-side buffering proportional to the in-flight window,
/// while HBH needs exactly 3 slots per VC (§3: "E2E schemes also require
/// larger retransmission buffers"). We check the structural claim: E2E
/// generates control traffic that HBH does not.
#[test]
fn e2e_pays_control_traffic_overhead() {
    let hbh = Simulator::new(quick().scheme(ErrorScheme::Hbh).build().unwrap()).run();
    let e2e = Simulator::new(quick().scheme(ErrorScheme::E2e).build().unwrap()).run();
    assert!(hbh.completed && e2e.completed);
    // Same data delivered, but E2E moves more flits (ACKs) per packet.
    let hbh_flits_per_packet = hbh.events.link as f64 / hbh.packets_ejected as f64;
    let e2e_flits_per_packet = e2e.events.link as f64 / e2e.packets_ejected as f64;
    assert!(
        e2e_flits_per_packet > hbh_flits_per_packet * 1.1,
        "HBH {hbh_flits_per_packet:.2} vs E2E {e2e_flits_per_packet:.2} link events/packet"
    );
}

/// The §3 buffer-size claim, measured: E2E must provision source-side
/// retransmission buffers for a worst-case round trip, while HBH needs a
/// fixed 3 flits per VC. Under errors the E2E peak grows well past one
/// packet per node.
#[test]
fn e2e_source_buffers_exceed_hbh_fixed_cost() {
    let hbh = Simulator::new(
        quick()
            .scheme(ErrorScheme::Hbh)
            .faults(FaultRates::link_only(1e-2))
            .build()
            .unwrap(),
    )
    .run();
    let e2e = Simulator::new(
        quick()
            .scheme(ErrorScheme::E2e)
            .faults(FaultRates::link_only(1e-2))
            .build()
            .unwrap(),
    )
    .run();
    assert_eq!(
        hbh.e2e_peak_source_buffer_flits, 0,
        "HBH holds no source copies"
    );
    // HBH's whole per-VC cost is the 3-deep barrel shifter; E2E's peak
    // source buffering must exceed several packets.
    assert!(
        e2e.e2e_peak_source_buffer_flits > 12,
        "E2E peak source buffering only {} flits",
        e2e.e2e_peak_source_buffer_flits
    );
}

/// Bernoulli injection reaches the same mean load as regular injection.
#[test]
fn bernoulli_and_regular_injection_agree_on_throughput() {
    let regular = Simulator::new(
        quick()
            .injection(InjectionProcess::Regular)
            .injection_rate(0.2)
            .build()
            .unwrap(),
    )
    .run();
    let bernoulli = Simulator::new(
        quick()
            .injection(InjectionProcess::Bernoulli)
            .injection_rate(0.2)
            .build()
            .unwrap(),
    )
    .run();
    assert!(regular.completed && bernoulli.completed);
    let ratio = regular.throughput / bernoulli.throughput;
    assert!(
        (0.85..1.15).contains(&ratio),
        "throughputs diverge: {} vs {}",
        regular.throughput,
        bernoulli.throughput
    );
}

/// Odd-even turn-model routing delivers everything (extension algorithm).
#[test]
fn odd_even_routing_completes() {
    let report = Simulator::new(
        quick()
            .routing(RoutingAlgorithm::OddEven)
            .pattern(TrafficPattern::Transpose)
            .build()
            .unwrap(),
    )
    .run();
    assert!(report.completed);
    assert_eq!(report.errors.misdelivered, 0);
}

/// Saturation throughput under uniform traffic: XY must sustain at least
/// 0.3 flits/node/cycle on the paper platform (sanity anchor for the
/// Figure 8 curves).
#[test]
fn xy_saturation_throughput_is_reasonable() {
    let mut b = SimConfig::builder();
    b.injection_rate(0.9)
        .warmup_packets(500)
        .measure_packets(3_000)
        .max_cycles(200_000);
    let report = Simulator::new(b.build().unwrap()).run();
    assert!(
        report.throughput > 0.3,
        "XY saturation throughput {}",
        report.throughput
    );
}

/// Mixed fault environment at once: link + RT + SA + crossbar +
/// handshake upsets together, everything survives.
#[test]
fn combined_fault_environment_survives() {
    let faults = FaultRates {
        link: 1e-3,
        rt: 1e-3,
        va: 1e-3,
        sa: 1e-3,
        crossbar: 1e-4,
        handshake: 1e-4,
        ..FaultRates::none()
    };
    let mut b = quick();
    b.faults(faults).measure_packets(2_000);
    let report = Simulator::new(b.build().unwrap()).run();
    assert!(report.completed);
    assert_eq!(report.errors.misdelivered, 0);
    assert_eq!(report.errors.stranded_flits, 0);
    assert!(report.faults_injected.total() > 0);
}
