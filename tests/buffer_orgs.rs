//! Buffer-organisation matrix: both organisations (statically
//! partitioned per-VC FIFOs and the DAMQ shared pool) must survive the
//! adversarial single-VC fully-adaptive workload across all four router
//! pipeline organisations, with deadlock recovery enabled.
//!
//! The workload is the §3.2.1 deadlocker from `eq1_sizing.rs`: at the
//! Eq. (1) retransmission depth every confirmed deadlock drains, so a
//! sound organisation ends the run with every injected packet ejected
//! and zero misdeliveries. A DAMQ that mishandled its shared-pool
//! credits or starved a VC of its reserved slot would either wedge
//! (ejected < injected) or corrupt delivery — both asserted against.
//!
//! The multi-VC test exercises the part static partitioning never
//! stresses: several logical queues competing for one pool while the
//! deadlock-recovery probes (§3.2) thread through them.
//!
//! Below the simulations, both organisations are one slot-sharing rule
//! (`PortCapacity`): the property test drives a `PortBuffer` and a
//! `CreditLedger` under every small configuration and holds them to
//! each organisation's own rule, written out independently.

use std::collections::VecDeque;
use std::process::Command;

use ftnoc_core::buffers::{CreditLedger, PortBuffer};
use ftnoc_rng::Rng;
use ftnoc_sim::{DeadlockConfig, RoutingAlgorithm, SimConfig, SimReport, Simulator};
use ftnoc_traffic::InjectionProcess;
use ftnoc_types::config::{BufferOrg, PipelineDepth, PortCapacity, RouterConfig};
use ftnoc_types::flit::{Flit, FlitKind, Header};
use ftnoc_types::geom::{NodeId, Topology};
use ftnoc_types::packet::PacketId;

const BUFFER_DEPTH: usize = 4;
const FLITS_PER_PACKET: usize = 4;
/// Eq. (1) minimum retransmission depth for the single-VC mesh.
const SOUND_DEPTH: usize = 5;
const CYCLES: u64 = 30_000;
const SEED: u64 = 1;

fn run(org: BufferOrg, vcs: usize, pipeline: PipelineDepth, rate: f64) -> SimReport {
    let mut router = RouterConfig::builder();
    router
        .vcs_per_port(vcs)
        .buffer_depth(BUFFER_DEPTH)
        .flits_per_packet(FLITS_PER_PACKET)
        .retrans_depth(SOUND_DEPTH)
        .pipeline(pipeline)
        .buffer_org(org);
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .router(router.build().unwrap())
        .routing(RoutingAlgorithm::FullyAdaptive)
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(rate)
        .seed(SEED)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(CYCLES)
        .stop_injection_after(3_000);
    let mut sim = Simulator::new(b.build().unwrap());
    sim.run_cycles(CYCLES)
}

/// Equal-budget organisations for a given VC count: the static
/// partition's total slots, re-pooled.
fn orgs(vcs: usize) -> [(&'static str, BufferOrg); 2] {
    [
        ("static", BufferOrg::StaticPartition),
        (
            "damq",
            BufferOrg::Damq {
                pool_size: vcs * BUFFER_DEPTH,
            },
        ),
    ]
}

/// Both organisations drain the single-VC deadlocker under recovery at
/// every pipeline depth: no stuck packets, no misdelivery.
#[test]
fn matrix_orgs_by_pipeline_depth_drain_under_recovery() {
    for (name, org) in orgs(1) {
        let mut confirmed = 0;
        for pipeline in PipelineDepth::ALL {
            let r = run(org, 1, pipeline, 0.25);
            confirmed += r.errors.deadlocks_confirmed;
            assert_eq!(
                r.packets_ejected,
                r.packets_injected,
                "{name}/{pipeline:?}: {} packets stuck",
                r.packets_injected - r.packets_ejected
            );
            assert_eq!(r.errors.misdelivered, 0, "{name}/{pipeline:?}");
        }
        // Some pipeline depths reshuffle timing enough to dodge the
        // knot; the matrix as a whole must still exercise recovery.
        assert!(
            confirmed > 0,
            "{name}: no pipeline depth ever confirmed a deadlock"
        );
    }
}

/// Multi-VC DAMQ under sustained load: four logical queues share one
/// pool while recovery probes thread through it. Delivery must stay
/// exact and the per-port occupancy histogram must have sampled.
#[test]
fn damq_multi_vc_probe_soundness_under_load() {
    for pool in [BUFFER_DEPTH * 4, BUFFER_DEPTH * 2 + 1] {
        let r = run(
            BufferOrg::Damq { pool_size: pool },
            4,
            PipelineDepth::Three,
            0.30,
        );
        assert_eq!(
            r.packets_ejected,
            r.packets_injected,
            "pool {pool}: {} packets stuck",
            r.packets_injected - r.packets_ejected
        );
        assert_eq!(r.errors.misdelivered, 0, "pool {pool}");
        assert!(
            !r.port_occupancy.is_empty(),
            "pool {pool}: occupancy histogram never sampled"
        );
    }
}

/// The fuzz campaign space extended with the DAMQ dimension stays clean
/// at the CI smoke budget, for both organisation filters.
#[test]
fn fuzz_smoke_is_clean_for_both_orgs() {
    let campaigns = if cfg!(debug_assertions) { "15" } else { "100" };
    for org in ["static", "damq"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ftnoc"))
            .args(["fuzz", "--campaigns", campaigns, "--org", org])
            .env_remove("FTNOC_DEMO_SKIP_CREDIT")
            .output()
            .expect("spawn ftnoc");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "--org {org} sweep failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("no invariant violations"),
            "--org {org}: unexpected output:\n{stdout}"
        );
    }
}

/// A flit told apart from every other by its packet id.
fn flit(id: u64) -> Flit {
    let header = Header::new(NodeId::new(0), NodeId::new(1));
    Flit::new(PacketId::new(id), 0, FlitKind::Body, header, 0, 0)
}

/// The port capacity of `org`, as the router config derives it.
fn capacity(vcs: usize, depth: usize, org: BufferOrg) -> PortCapacity {
    let mut b = RouterConfig::builder();
    b.vcs_per_port(vcs).buffer_depth(depth).buffer_org(org);
    b.build().unwrap().port_capacity()
}

/// An organisation's free-slot rule over the model queues, for one VC.
type Rule = Box<dyn Fn(&[VecDeque<Flit>], usize) -> usize>;

/// Every organisation of every small port, with its own free-slot rule:
/// a static VC has `depth − len` free; a DAMQ VC has the shared slots
/// left, `(pool − vcs) − Σ max(len − 1, 0)`, plus its reserved slot
/// when empty.
fn small_ports() -> Vec<(String, usize, usize, BufferOrg, Rule)> {
    let mut out: Vec<(String, usize, usize, BufferOrg, Rule)> = Vec::new();
    for vcs in 1..=8 {
        for depth in 1..=8 {
            let rule: Rule = Box::new(move |q, vc| depth - q[vc].len());
            let name = format!("static vcs {vcs} depth {depth}");
            out.push((name, vcs, depth, BufferOrg::StaticPartition, rule));
            for pool in vcs + 1..=vcs * depth + 8 {
                let rule: Rule = Box::new(move |q, vc| {
                    let beyond_first: usize = q.iter().map(|f| f.len().saturating_sub(1)).sum();
                    (pool - vcs) - beyond_first + usize::from(q[vc].is_empty())
                });
                let name = format!("damq vcs {vcs} pool {pool}");
                out.push((name, vcs, depth, BufferOrg::Damq { pool_size: pool }, rule));
            }
        }
    }
    out
}

/// A seeded push/pop stream against every small port: `free_slots`
/// follows the organisation's own rule, `push` succeeds exactly when a
/// slot is free, each VC stays FIFO against a plain model, and the
/// reserved-slot floor holds, and `nonempty()` names exactly the VCs
/// the model holds a flit for. A credit ledger fed one consume per push
/// and one release per pop grants exactly when the buffer has room and
/// counts `per_vc − len` credits.
#[test]
fn one_rule_matches_each_organisation() {
    let mut rng = Rng::seed_from_u64(0xB0F5);
    let mut id = 0;
    for (name, vcs, depth, org, rule) in small_ports() {
        let cap = capacity(vcs, depth, org);
        let mut buffer = PortBuffer::new(vcs, cap);
        let mut ledger = CreditLedger::new(vcs, cap);
        let mut model: Vec<VecDeque<Flit>> = vec![VecDeque::new(); vcs];
        // Lean towards pushes so ports fill and the shared region binds.
        let push_bias = rng.gen_range(0.4..0.9);
        for step in 0..200 {
            let vc = rng.gen_range(0..vcs);
            let free = buffer.free_slots(vc);
            assert_eq!(free, rule(&model, vc), "{name} step {step} vc {vc}");
            if rng.gen_bool(push_bias) {
                id += 1;
                let pushed = buffer.push(vc, flit(id));
                assert_eq!(pushed, free > 0, "{name} step {step}: push vs free_slots");
                if pushed {
                    model[vc].push_back(flit(id));
                    ledger.consume(vc);
                }
            } else {
                let popped = buffer.pop(vc);
                assert_eq!(popped, model[vc].pop_front(), "{name} step {step}: order");
                if popped.is_some() {
                    ledger.release(vc);
                }
            }
            let mut floor = 0;
            for (v, queue) in model.iter().enumerate() {
                assert_eq!(buffer.len(v), queue.len(), "{name} step {step}");
                assert!(buffer.iter(v).eq(queue.iter()), "{name} step {step}");
                assert_eq!(ledger.available(v), buffer.free_slots(v) > 0, "{name}");
                assert_eq!(ledger.count(v) as usize, cap.per_vc - queue.len(), "{name}");
                floor += queue.len().max(1);
            }
            let occupied: usize = model.iter().map(VecDeque::len).sum();
            assert_eq!(buffer.occupied(), occupied, "{name} step {step}");
            let nonempty = (0..vcs).fold(0u64, |m, v| m | u64::from(!model[v].is_empty()) << v);
            assert_eq!(buffer.nonempty(), nonempty, "{name} step {step}: nonempty");
            assert!(
                floor <= buffer.total_capacity(),
                "{name} step {step}: floor"
            );
        }
    }
}

/// A hot DAMQ VC can take its reservation plus all shared slots, but
/// the cold VCs' reservations survive and still accept one flit each.
#[test]
fn damq_reserved_slots_survive_a_hot_vc() {
    let mut b = PortBuffer::new(3, capacity(3, 4, BufferOrg::Damq { pool_size: 12 }));
    let mut pushed = 0;
    while b.push(0, flit(pushed)) {
        pushed += 1;
    }
    // Reservation (1) + shared (12 − 3 = 9).
    assert_eq!(pushed, 10);
    assert_eq!(b.free_slots(0), 0);
    for vc in [1, 2] {
        assert_eq!(b.free_slots(vc), 1);
        assert!(b.push(vc, flit(99)));
        assert!(!b.push(vc, flit(99)));
    }
    assert_eq!(b.occupied(), 12);
}

/// Draining the hot DAMQ VC returns slots to the shared region.
#[test]
fn damq_freed_slots_are_reusable_by_any_vc() {
    let mut b = PortBuffer::new(2, capacity(2, 4, BufferOrg::Damq { pool_size: 6 }));
    while b.push(0, flit(0)) {}
    assert_eq!(b.len(0), 5);
    assert_eq!(b.free_slots(1), 1);
    for _ in 0..3 {
        b.pop(0);
    }
    assert_eq!(b.free_slots(1), 4); // reservation + 3 shared back
    for i in 0..4 {
        assert!(b.push(1, flit(i)));
    }
    assert!(!b.push(1, flit(9)));
}

/// With a single VC the DAMQ degenerates to a plain FIFO of the pool
/// size (the Eq. 1 equivalence case used by tests/eq1_sizing).
#[test]
fn single_vc_damq_is_a_plain_fifo() {
    let mut b = PortBuffer::new(1, capacity(1, 4, BufferOrg::Damq { pool_size: 4 }));
    for i in 0..4 {
        assert_eq!(b.free_slots(0), 4 - i as usize);
        assert!(b.push(0, flit(i)));
    }
    assert!(!b.push(0, flit(9)));
    for i in 0..4 {
        assert_eq!(b.pop(0).unwrap().packet, PacketId::new(i));
    }
}
