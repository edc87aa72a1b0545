//! Activity-gating parity: skipping quiescent routers must be **byte
//! identical** to the full-sweep engine at the same seed — same JSONL
//! event trace, same final report — across fault-free, dead-link,
//! transient-error and deadlock-recovery scenarios.
//!
//! This is the soundness contract of the active-set worklist (see
//! `ftnoc-sim`'s `network` module docs): a skipped router's compute
//! phase would have been a complete no-op — no state change, no
//! counter ticks and (because the fault RNG is counter-based, keyed on
//! the cycle) no RNG draws — so the gated schedule is
//! observation-equivalent to the full sweep.

use ftnoc_check::{ArmedInvariants, Oracle};
use ftnoc_fault::{FaultPlan, FaultRates, WearoutSpec};
use ftnoc_sim::{
    DeadlockConfig, ErrorScheme, Network, RoutingAlgorithm, SimConfig, SimConfigBuilder, Simulator,
};
use ftnoc_trace::{MemorySink, Tracer};
use ftnoc_traffic::InjectionProcess;
use ftnoc_types::config::RouterConfig;
use ftnoc_types::geom::{Coord, Direction, NodeId, Topology};

/// A clean 4×4 mesh, no faults, light load (lots of quiescent cycles).
fn fault_free(seed: u64) -> SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .injection_rate(0.1)
        .seed(seed)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(10_000);
    b
}

/// A dead link with adaptive detours (`--fault link:N:D` scenario): probes
/// are discarded at the fault boundary, blocking clusters around it.
fn kill_link(seed: u64) -> SimConfigBuilder {
    let topo = Topology::mesh(4, 4);
    let mut b = fault_free(seed);
    b.routing(RoutingAlgorithm::WestFirstAdaptive)
        .fault_plan(FaultPlan::new().link_at_reset(topo.id_of(Coord::new(1, 1)), Direction::East))
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        });
    b
}

/// HBH with link soft errors: drops, NACKs and replays in play.
fn transient_error(seed: u64) -> SimConfigBuilder {
    let mut b = fault_free(seed);
    b.injection_rate(0.2).faults(FaultRates::link_only(0.01));
    b
}

/// End-to-end retransmission under link soft errors, with a timeout
/// short enough that packets whose NACK went astray expire mid-run:
/// the 32-cycle timeout scan is a source of work the wake wheel never
/// sees, and its retransmission order is part of the trace.
fn e2e_transient_error(seed: u64) -> SimConfigBuilder {
    let mut b = transient_error(seed);
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

/// Fault-aware routing with a mid-run kill: the fault-notification
/// boundaries are wake-up sources, so the gated engine must cross
/// detection, publication and the epoch-wide reroute byte-identically
/// to the full sweep — including for routers that were asleep when the
/// fault published.
fn fault_aware_midrun(seed: u64) -> SimConfigBuilder {
    let topo = Topology::mesh(4, 4);
    let mut b = fault_free(seed);
    b.routing(RoutingAlgorithm::FaultAware)
        .fault_plan(
            FaultPlan::new()
                .kill_link_at(1_000, topo.id_of(Coord::new(1, 1)), Direction::East)
                .notify_latency(6),
        )
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        });
    b
}

/// The torus row: the mid-run reconfiguration on a 4×4 torus, killing
/// the *wrap* link east of (3,1). Wrap neighbours mean a sleeping
/// router's wake-up sources now include links that cross the grid
/// boundary — the gated engine must track them like any other edge.
fn torus_midrun(seed: u64) -> SimConfigBuilder {
    let topo = Topology::torus(4, 4);
    let mut b = fault_aware_midrun(seed);
    b.topology(topo).fault_plan(
        FaultPlan::new()
            .kill_link_at(1_000, topo.id_of(Coord::new(3, 1)), Direction::East)
            .notify_latency(6),
    );
    b
}

/// Wear-out pre-empting scheduled kills (the shape of `ftnoc run
/// --topology 4x4 --routing fta --fault wearout:60 --fault link:5:e@3000
/// --fault link:6:s@2500 --fault router:15@4000 --inj 0.1`): at seed
/// 0xF70C both links wear out before cycle 450, so their scheduled kills
/// land on dead links and fold as no-ops, yet still wake the whole
/// network at their boundaries.
fn wearout_preempts_kills(seed: u64) -> SimConfigBuilder {
    let mut b = fault_free(seed);
    b.routing(RoutingAlgorithm::FaultAware).fault_plan(
        FaultPlan::new()
            .wearout(WearoutSpec {
                mean_budget: 60,
                seed: 0,
            })
            .kill_link_at(3_000, NodeId::new(5), Direction::East)
            .kill_link_at(2_500, NodeId::new(6), Direction::South)
            .kill_router_at(4_000, NodeId::new(15)),
    );
    b
}

/// A 9×8 mesh: 72 routers, so the active set spans two words and the
/// second is only 8 bits wide. Every other row fits in one word; this
/// one holds the awake-router walk (compute, commit drain, occupancy
/// sampling) to the contract across the word boundary and the tail.
fn two_word_mesh(seed: u64) -> SimConfigBuilder {
    let mut b = fault_free(seed);
    b.topology(Topology::mesh(9, 8)).injection_rate(0.05);
    b
}

/// The deadlock-recovery shape (pushed to 0.30 injection so every seed
/// deadlocks within a few hundred cycles) with a router dying while its
/// neighbourhood is in recovery mode: the victim is the first router of
/// the kill-free run to enter recovery, and it dies three cycles later,
/// while the activation signal is still walking the probe path. The
/// recovering set then changes through all three of its edge sites in
/// a handful of cycles — activations entering, `end_cycle` leaving, and
/// the death purge pulling the victim out.
fn recovery_overlapping_death(seed: u64) -> SimConfigBuilder {
    let mut b = deadlock_recovery(seed);
    b.injection_rate(0.30);
    let config = b.build().unwrap();
    let mut nodes = config.topology.nodes();
    let mut net = Network::new(config);
    while !net.any_in_recovery() {
        assert!(
            net.now() < 3_000,
            "seed {seed}: no deadlock to recover from"
        );
        net.step();
    }
    let victim = nodes
        .find(|&id| net.router(id).probe.in_recovery())
        .expect("some router is recovering");
    b.fault_plan(FaultPlan::new().kill_router_at(net.now() + 3, victim));
    b
}

/// Runs `cycles` cycles and returns the full JSONL trace plus the JSON
/// run report.
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
        cycles / 4
    } else {
        cycles
    }
}

/// Holds the gated engine to the full sweep's bytes on three seeds and
/// returns the reference traces, one per seed, for rows that also
/// assert what their scenario exercised.
fn assert_gating_parity(name: &str, make: fn(u64) -> SimConfigBuilder, cycles: u64) -> Vec<String> {
    let mut traces = Vec::new();
    for seed in [1u64, 42, 0xF70C] {
        let (trace_ref, report_ref) = run(make(seed), false, cycles);
        assert!(
            trace_ref.lines().count() > 50,
            "{name}/seed {seed}: trace suspiciously short"
        );
        let (trace, report) = run(make(seed), true, cycles);
        assert_eq!(
            trace, trace_ref,
            "{name}/seed {seed}: gated trace diverged from full sweep"
        );
        // Gating is deliberately *not* echoed in the report.
        assert_eq!(
            report, report_ref,
            "{name}/seed {seed}: gated report diverged from full sweep"
        );
        traces.push(trace_ref);
    }
    traces
}

#[test]
fn fault_free_runs_are_gating_invariant() {
    assert_gating_parity("fault-free", fault_free, dbg_capped(10_000));
}

#[test]
fn kill_link_runs_are_gating_invariant() {
    assert_gating_parity("kill-link", kill_link, dbg_capped(10_000));
}

#[test]
fn transient_error_runs_are_gating_invariant() {
    assert_gating_parity("transient-error", transient_error, dbg_capped(10_000));
}

#[test]
fn e2e_transient_error_runs_are_gating_invariant() {
    assert_gating_parity(
        "e2e-transient-error",
        e2e_transient_error,
        dbg_capped(10_000),
    );
}

#[test]
fn deadlock_recovery_runs_are_gating_invariant() {
    assert_gating_parity("deadlock-recovery", deadlock_recovery, dbg_capped(12_000));
}

#[test]
fn fault_aware_midrun_kill_runs_are_gating_invariant() {
    assert_gating_parity("fault-aware-midrun", fault_aware_midrun, dbg_capped(10_000));
}

#[test]
fn torus_wrap_link_kill_runs_are_gating_invariant() {
    assert_gating_parity("torus-midrun", torus_midrun, dbg_capped(10_000));
}

#[test]
fn wearout_preempting_kill_runs_are_gating_invariant() {
    assert_gating_parity(
        "wearout-preempts-kills",
        wearout_preempts_kills,
        dbg_capped(10_000),
    );
}

#[test]
fn two_word_mesh_runs_are_gating_invariant() {
    assert_gating_parity("two-word-mesh", two_word_mesh, dbg_capped(4_000));
}

/// The `cycle` and `node` of a trace line.
fn cycle_and_node(line: &str) -> (u64, u64) {
    let event = ftnoc_metrics::json::parse(line).expect("a JSON trace line");
    let field = |key| event.u64_field(key).expect("every event carries it");
    (field("cycle"), field("node"))
}

#[test]
fn router_death_during_recovery_runs_are_gating_invariant() {
    let traces = assert_gating_parity(
        "recovery-overlapping-death",
        recovery_overlapping_death,
        dbg_capped(12_000),
    );
    // The row is only worth its time if the death really landed inside a
    // recovery episode: other routers recovering, the victim among them.
    for trace in traces {
        let killed = trace
            .lines()
            .find(|l| l.contains("\"router_killed\""))
            .expect("the router death is in the trace");
        let (at, victim) = cycle_and_node(killed);
        let edges = |kind: &str| {
            trace
                .lines()
                .filter(|l| l.contains(kind))
                .map(cycle_and_node)
                .collect::<Vec<_>>()
        };
        let (starts, ends) = (edges("\"recovery_start\""), edges("\"recovery_end\""));
        let before = |edges: &[(u64, u64)]| edges.iter().filter(|&&(c, _)| c < at).count();
        assert!(
            before(&starts) > before(&ends) + 1,
            "no router besides the victim was recovering at cycle {at}"
        );
        assert!(
            ends.contains(&(at, victim)),
            "the death of n{victim} at cycle {at} did not end its recovery"
        );
    }
}

/// Gating must actually *skip* work, not just match the full sweep: at
/// 10% injection on a 4×4 mesh a meaningful share of router-cycles is
/// quiescent. (The full sweep computes every router every cycle by
/// definition; the telemetry counter makes the gap observable.)
#[test]
fn gating_skips_a_meaningful_share_of_quiescent_cycles() {
    let cycles = dbg_capped(10_000);
    let config = fault_free(7).build().unwrap();
    let nodes = config.topology.node_count() as u64;
    let mut net = Network::new(config);
    for _ in 0..cycles {
        net.step();
    }
    let computed: u64 = net
        .telemetry()
        .routers
        .iter()
        .map(|r| r.computed_cycles)
        .sum();
    let full = nodes * cycles;
    assert!(
        computed < full * 7 / 10,
        "gating computed {computed}/{full} router-cycles — expected a >30% skip rate at 10% injection"
    );
    assert!(computed > 0, "nothing computed at all?");
}

/// The oracle's activity invariant: claiming a router was skipped while
/// its buffers hold flits must be flagged. (Real gated runs are checked
/// positively by the stepped oracle runs in `parallel_parity.rs`; this
/// doctors a snapshot to prove the check has teeth.)
#[test]
fn oracle_flags_a_skipped_router_that_was_not_quiescent() {
    let config = {
        let mut b = fault_free(3);
        b.injection_rate(0.4);
        b.build().unwrap()
    };
    // The history-tracking invariants (arrival order, probe soundness)
    // need one snapshot per cycle; this test inspects a single boundary,
    // so arm nothing — the structural and activity checks always run.
    let mut oracle = Oracle::with_arming(&config, ArmedInvariants::none());
    let mut net = Network::new(config);
    for _ in 0..200 {
        net.step();
    }
    let mut snap = net.snapshot();
    oracle.check(&snap).expect("honest snapshot must pass");
    let busy = snap
        .routers
        .iter()
        .position(|r| r.inputs.iter().any(|row| !row.flits.is_empty()))
        .expect("saturating traffic must occupy some buffer");
    snap.computed[busy] = false;
    let violation = oracle
        .check(&snap)
        .expect_err("a skipped-but-busy router must be flagged");
    assert_eq!(violation.invariant, "activity");
    assert_eq!(violation.node, Some(busy));
}
