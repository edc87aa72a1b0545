//! Whole-router deaths and wear-out kills: drain semantics, loss-ledger
//! closure, the delivery acceptance bar, and the byte-identity contract
//! across activity gating.
//!
//! The headline invariant is **conservation with losses**: every flit
//! that physically enters the network either ejects at a terminal or is
//! recorded in the loss ledger by a router-death purge — and the ledger
//! names the exact packets it amputated, so delivery guarantees can be
//! stated per packet, not just in aggregate.

use std::collections::{HashMap, HashSet};

use ftnoc_fault::{FaultCause, FaultPlan, WearoutSpec};
use ftnoc_sim::{DeadlockConfig, RoutingAlgorithm, SimConfig, SimConfigBuilder, Simulator};
use ftnoc_trace::{MemorySink, Tracer};
use ftnoc_traffic::InjectionProcess;
use ftnoc_types::geom::{NodeId, Topology};

/// The victim for the 8×8 drain scenarios: an interior router, so the
/// death severs four mesh links at once and the surviving graph still
/// connects every live node.
const VICTIM: u16 = 27;

/// An 8×8 mesh under fault-aware routing with a planted whole-router
/// kill at cycle 400 — mid-traffic, wormholes open through the victim.
/// Publication latency 0: the same cycle the router dies, every route
/// computation already avoids it, so the only packets that can fail to
/// deliver are the ones the drain purge amputated (and those are named
/// in the loss ledger).
fn router_death(seed: u64) -> SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(8, 8))
        .routing(RoutingAlgorithm::FaultAware)
        .fault_plan(
            FaultPlan::new()
                .kill_router_at(400, NodeId::new(VICTIM))
                .notify_latency(0),
        )
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(0.15)
        .seed(seed)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(20_000)
        .stop_injection_after(3_000);
    b
}

/// A 4×4 mesh where links wear out online: the mean lifetime budget is
/// small enough that several links die mid-run from accumulated flit
/// traffic, exercising budget crossing, publication and reroute without
/// any configured kill.
fn wearout(seed: u64) -> SimConfigBuilder {
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

/// Pulls an integer field out of one hand-rolled JSONL trace record.
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The §6 acceptance bar: with fault-aware routing and publication
/// latency 0, a mid-run router death loses **exactly** the packets the
/// drain purge put in the loss ledger — every other packet not sourced
/// at or addressed to the victim is delivered, and the flit ledger
/// closes (injected = ejected + lost).
#[test]
fn router_death_loses_exactly_the_ledgered_packets() {
    for seed in [7u64, 0xF70C] {
        let config = router_death(seed).build().unwrap();
        let nodes = config.topology.node_count();
        // A plain (non-concentrated) mesh: terminal ids == router ids.
        let n_routers = nodes;
        let mut sim = Simulator::with_tracer(config, Tracer::new(MemorySink::new(), nodes, 0));
        sim.run_cycles(20_000);

        let net = sim.network();
        assert!(
            net.telemetry().dead[VICTIM as usize],
            "seed {seed}: victim router must be dead after the kill cycle"
        );
        assert!(
            net.flits_lost() > 0,
            "seed {seed}: a mid-traffic router death must amputate flits"
        );
        assert_eq!(
            net.flits_injected(),
            net.flits_ejected() + net.flits_lost(),
            "seed {seed}: flit ledger must close: injected = ejected + lost"
        );

        let lost: HashSet<u64> = net.lost_packets().into_iter().collect();
        assert!(
            !lost.is_empty(),
            "seed {seed}: the loss ledger must name the amputated packets"
        );

        // Per-packet accounting from the trace: every injected packet
        // survives (ejects) unless it touches the victim or the ledger
        // claims it.
        let trace = sim.into_tracer().into_sink().to_jsonl();
        let mut injected: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut ejected: HashSet<u64> = HashSet::new();
        for line in trace.lines() {
            if line.contains("\"kind\":\"packet_injected\"") {
                let id = field(line, "packet").unwrap();
                let src = field(line, "src").unwrap();
                let dest = field(line, "dest").unwrap();
                injected.insert(id, (src, dest));
            } else if line.contains("\"kind\":\"packet_ejected\"") {
                ejected.insert(field(line, "packet").unwrap());
            }
        }
        assert!(
            injected.len() > 1_000,
            "seed {seed}: scenario produced suspiciously little traffic"
        );

        let victim = VICTIM as u64;
        let n_routers = n_routers as u64;
        let mut survivors = 0u64;
        for (&id, &(src, dest)) in &injected {
            let touches_victim = src % n_routers == victim || dest % n_routers == victim;
            if touches_victim || lost.contains(&id) {
                continue;
            }
            assert!(
                ejected.contains(&id),
                "seed {seed}: packet {id} ({src}→{dest}) neither ejected nor in \
                 the loss ledger — a silent loss or a wedged route"
            );
            survivors += 1;
        }
        assert!(
            survivors > 1_000,
            "seed {seed}: delivery bar checked on suspiciously few packets"
        );
        // And the ledger never claims a packet it did not amputate: every
        // ledgered packet must NOT have ejected.
        for &id in &lost {
            assert!(
                !ejected.contains(&id),
                "seed {seed}: packet {id} is in the loss ledger but also ejected"
            );
        }
    }
}

/// Wear-out fires: with a small mean budget under sustained load, links
/// genuinely die online and the events are logged with the wear-out
/// cause and the configured publication lag. Link deaths alone lose
/// nothing — the loss ledger stays empty (flits on a worn link's wire
/// already crossed; later flits are simply routed or wedged elsewhere),
/// so `injected - ejected` is exactly the flits still resident in the
/// (by then heavily fragmented) network.
#[test]
fn wearout_kills_links_online() {
    let config = wearout(42).build().unwrap();
    let nodes = config.topology.node_count();
    let mut sim = Simulator::with_tracer(config, Tracer::new(MemorySink::new(), nodes, 0));
    sim.run_cycles(12_000);

    let net = sim.network();
    let worn: Vec<_> = net
        .fault_events()
        .iter()
        .filter(|e| e.cause == FaultCause::Wearout)
        .collect();
    assert!(
        !worn.is_empty(),
        "mean budget 800 under 0.2 load must exhaust at least one link"
    );
    for ev in &worn {
        assert_eq!(
            ev.published_at,
            ev.at + 4,
            "wear-out publication must lag detection by the notify latency"
        );
    }
    assert_eq!(
        net.flits_lost(),
        0,
        "link wear-out alone must not lose flits (only router deaths do)"
    );
    assert!(
        net.flits_injected() >= net.flits_ejected(),
        "ejections cannot exceed injections"
    );
    let trace = sim.into_tracer().into_sink().to_jsonl();
    assert!(
        trace.contains("\"kind\":\"link_wearout\""),
        "wear-out must be visible in the trace"
    );
}

/// Runs `cycles` cycles with gating on or off and returns the full
/// JSONL trace plus the JSON run report.
fn run(mut builder: SimConfigBuilder, gating: bool, cycles: u64) -> (String, String) {
    builder.activity_gating(gating);
    let config = builder.build().unwrap();
    let nodes = config.topology.node_count();
    let mut sim = Simulator::with_tracer(config, Tracer::new(MemorySink::new(), nodes, 0));
    let report = sim.run_cycles(cycles);
    (sim.into_tracer().into_sink().to_jsonl(), report.to_json())
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

/// The determinism contract extended to deaths: a whole-router kill and
/// its network-wide drain purge must be byte-identical across activity
/// gating — the kill cycle and both fault boundaries are wake-all
/// events, so a gated run observes the same state sequence as an
/// ungated one.
fn assert_death_parity(name: &str, make: fn(u64) -> SimConfigBuilder, cycles: u64) {
    let cycles = dbg_capped(cycles);
    for seed in [1u64, 0xF70C] {
        let (trace_base, report_base) = run(make(seed), false, cycles);
        assert!(
            trace_base.lines().count() > 50,
            "{name}/seed {seed}: trace suspiciously short"
        );
        let (trace, report) = run(make(seed), true, cycles);
        assert_eq!(
            trace_base, trace,
            "{name}/seed {seed}: gated trace diverged"
        );
        assert_eq!(
            report_base, report,
            "{name}/seed {seed}: gated report diverged"
        );
    }
}

#[test]
fn router_death_runs_are_gating_invariant() {
    assert_death_parity("router-death", router_death, 20_000);
}

#[test]
fn wearout_runs_are_gating_invariant() {
    assert_death_parity("wearout", wearout, 12_000);
}
