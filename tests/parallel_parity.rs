//! Serial/parallel parity: the worker-pool engine must be **byte
//! identical** to the serial engine at the same seed — same JSONL event
//! trace, same final report — across fault-free, link-fault and
//! deadlock-recovery scenarios.
//!
//! This is the determinism contract of the two-phase cycle engine (see
//! `ftnoc-sim`'s `network` module docs): the compute phase is
//! cross-router-pure, so the thread count is purely a wall-clock knob.

use ftnoc_check::Oracle;
use ftnoc_fault::{FaultPlan, FaultRates};
use ftnoc_sim::{
    DeadlockConfig, ErrorScheme, NetSnapshot, Network, RoutingAlgorithm, SimConfig,
    SimConfigBuilder, Simulator,
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

/// End-to-end retransmission under link soft errors, with a timeout
/// short enough that packets whose NACK went astray expire mid-run:
/// one source's timeout scan retransmits several packets at once, so
/// their order is part of the trace.
fn e2e_link_fault(seed: u64) -> SimConfigBuilder {
    let mut b = link_fault(seed);
    b.scheme(ErrorScheme::E2e).e2e_timeout(200);
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

/// Runs `cycles` cycles on `threads` workers and returns the full JSONL
/// trace plus the JSON run report.
fn run(mut builder: SimConfigBuilder, threads: usize, cycles: u64) -> (String, String) {
    builder.threads(threads);
    let config = builder.build().unwrap();
    let nodes = config.topology.node_count();
    let mut sim = Simulator::with_tracer(config, Tracer::new(MemorySink::new(), nodes, 0));
    let report = sim.run_cycles(cycles);
    (sim.into_tracer().into_sink().to_jsonl(), report.to_json())
}

fn assert_parity(name: &str, make: fn(u64) -> SimConfigBuilder, cycles: u64) {
    for seed in [1u64, 42, 0xF70C] {
        let (trace_1, report_1) = run(make(seed), 1, cycles);
        let (trace_4, report_4) = run(make(seed), 4, cycles);
        assert!(
            trace_1.lines().count() > 50,
            "{name}/seed {seed}: trace suspiciously short"
        );
        assert_eq!(
            trace_1, trace_4,
            "{name}/seed {seed}: 4-thread trace diverged from serial"
        );
        // The report echoes the configured thread count (a config echo,
        // not a simulation result) — normalize it before comparing.
        let report_4 = report_4.replace("\"threads\":4", "\"threads\":1");
        assert_eq!(
            report_1, report_4,
            "{name}/seed {seed}: 4-thread report diverged from serial"
        );
    }
}

#[test]
fn fault_free_runs_are_thread_count_invariant() {
    assert_parity("fault-free", fault_free, 10_000);
}

#[test]
fn link_fault_runs_are_thread_count_invariant() {
    assert_parity("link-fault", link_fault, 10_000);
}

#[test]
fn e2e_link_fault_runs_are_thread_count_invariant() {
    assert_parity("e2e-link-fault", e2e_link_fault, 10_000);
}

#[test]
fn deadlock_recovery_runs_are_thread_count_invariant() {
    assert_parity("deadlock-recovery", deadlock_recovery, 12_000);
}

#[test]
fn fault_aware_midrun_kill_runs_are_thread_count_invariant() {
    assert_parity("fault-aware-midrun", fault_aware_midrun, 10_000);
}

#[test]
fn torus_wrap_link_kill_runs_are_thread_count_invariant() {
    assert_parity("torus-midrun", torus_midrun, 10_000);
}

/// Steps the network cycle by cycle, optionally validating every commit
/// boundary with the invariant oracle, and returns the full JSONL trace.
fn run_stepped(mut builder: SimConfigBuilder, threads: usize, cycles: u64, oracle: bool) -> String {
    builder.threads(threads);
    let config = builder.build().unwrap();
    let mut checker = oracle.then(|| Oracle::new(&config));
    let nodes = config.topology.node_count();
    let mut net = Network::with_tracer(config, Tracer::new(MemorySink::new(), nodes, 0));
    let mut snap = NetSnapshot::default();
    net.with_stepper(threads, |st| {
        for _ in 0..cycles {
            st.step();
            if let Some(oracle) = checker.as_mut() {
                st.snapshot_into(&mut snap);
                oracle
                    .check(&snap)
                    .unwrap_or_else(|v| panic!("oracle violation during parity run: {v}"));
            }
        }
    });
    net.into_tracer().into_sink().to_jsonl()
}

/// The oracle is an observer, not a participant: enabling it must leave
/// the simulation byte-identical — same trace, any thread count. This is
/// the "zero perturbation" contract that lets fuzz findings transfer
/// 1:1 to unchecked production runs.
fn assert_oracle_transparent(name: &str, make: fn(u64) -> SimConfigBuilder, cycles: u64) {
    for seed in [1u64, 0xF70C] {
        let plain_1 = run_stepped(make(seed), 1, cycles, false);
        assert!(
            plain_1.lines().count() > 50,
            "{name}/seed {seed}: trace suspiciously short"
        );
        for threads in [1usize, 4] {
            let checked = run_stepped(make(seed), threads, cycles, true);
            assert_eq!(
                plain_1, checked,
                "{name}/seed {seed}: oracle-on @{threads}t trace diverged from oracle-off"
            );
        }
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
