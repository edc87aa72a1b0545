//! Seeded micro-loops over the layers the stepping loop calls into but
//! whose time cannot be seen from outside `Stepper::step()`. Each loop is
//! one span standing for its iterations; the per-layer metric is the
//! span's self time per iteration.

use std::hint::black_box;

use ftnoc_check::CampaignParams;
use ftnoc_core::ac::RtEntry;
use ftnoc_core::{AllocationComparator, RetransmissionBuffer, SaEntry, VaEntry, VcRef};
use ftnoc_fault::{FaultCause, FaultEvent, FaultEventKind, FaultPlan, FaultTimeline};
use ftnoc_rng::Rng;
use ftnoc_sim::routing::{route_candidates, FaultAwarePlan, FaultState};
use ftnoc_sim::SimConfig;
use ftnoc_traffic::Injector;
use ftnoc_types::geom::{Direction, NodeId, Topology};
use ftnoc_types::{Flit, FlitKind, Header, PacketId};

use crate::spans::SpanBuf;

const ECC_WORDS: u32 = 200_000;
const RETX_CYCLES: u32 = 200_000;
const AC_CHECKS: u32 = 100_000;
const DRAWS: u32 = 200_000;
const CANDIDATE_CALLS: u32 = 50_000;
const PLAN_LOWERINGS: u32 = 200;
const SAMPLES: u32 = 2_000;

/// `ecc.encode` / `ecc.decode`: SEC/DED over seeded words, one word in 64
/// carrying a single-bit upset.
pub fn ecc(spans: &mut SpanBuf, seed: u64) {
    let mut rng = Rng::seed_from_u64_stream(seed, 0xECC);
    let words: Vec<u64> = (0..ECC_WORDS).map(|_| rng.next_u64()).collect();
    let mut checks = vec![0u8; words.len()];
    spans.time("ecc.encode", ECC_WORDS, || {
        for (check, word) in checks.iter_mut().zip(&words) {
            *check = ftnoc_ecc::encode(black_box(*word));
        }
    });
    let upset: Vec<u64> = words
        .iter()
        .enumerate()
        .map(|(i, w)| if i % 64 == 0 { w ^ (1 << (i % 61)) } else { *w })
        .collect();
    spans.time("ecc.decode", ECC_WORDS, || {
        for (word, check) in upset.iter().zip(&checks) {
            black_box(ftnoc_ecc::decode(black_box(*word), *check));
        }
    });
}

/// `core.retx_buffer`: a 3-deep retransmission buffer through expire /
/// record, with a NACK and its replays one cycle in 16.
pub fn retx_buffer(spans: &mut SpanBuf, seed: u64) {
    let mut rng = Rng::seed_from_u64_stream(seed, 0x4E7);
    let flit = Flit::new(
        PacketId::new(rng.next_u64()),
        0,
        FlitKind::Body,
        Header::new(NodeId::new(2), NodeId::new(61)),
        7,
        0,
    );
    let mut buffer = RetransmissionBuffer::new(3);
    spans.time("core.retx_buffer", RETX_CYCLES, || {
        for now in 0..u64::from(RETX_CYCLES) {
            buffer.expire(now);
            if now % 16 == 15 {
                buffer.on_nack(now);
                while let Some(replayed) = buffer.next_replay(now) {
                    black_box(replayed);
                }
            } else if !buffer.is_full() {
                buffer.record_transmission(flit, now);
            }
        }
    });
    black_box(buffer.replayed_count());
}

/// `core.ac_check`: the Allocation Comparator over consistent five-port
/// RT/VA/SA tables (the fault-free common case).
pub fn ac_check(spans: &mut SpanBuf, seed: u64) {
    let mut rng = Rng::seed_from_u64_stream(seed, 0xAC);
    let ports = Direction::ALL;
    let tables: Vec<_> = (0..16)
        .map(|_| {
            // A rotation is a permutation: no duplicate outputs.
            let shift = rng.gen_range(1..5usize);
            let vc = rng.gen_range(0..3u64) as u8;
            let rt: Vec<RtEntry> = (0..5)
                .map(|i| RtEntry {
                    input_vc: VcRef::new(ports[i], vc),
                    valid_out_port: ports[(i + shift) % 5],
                })
                .collect();
            let va: Vec<VaEntry> = rt
                .iter()
                .map(|r| VaEntry {
                    input_vc: r.input_vc,
                    out_port: r.valid_out_port,
                    out_vc: vc,
                })
                .collect();
            let sa: Vec<SaEntry> = rt
                .iter()
                .map(|r| SaEntry {
                    input_port: r.input_vc.port,
                    winning_vc: vc,
                    out_port: r.valid_out_port,
                })
                .collect();
            (rt, va, sa)
        })
        .collect();
    let mut ac = AllocationComparator::new();
    spans.time("core.ac_check", AC_CHECKS, || {
        for i in 0..AC_CHECKS as usize {
            let (rt, va, sa) = &tables[i % tables.len()];
            black_box(ac.check(rt, va, sa, 3));
        }
    });
    assert_eq!(ac.errors_flagged(), 0, "consistent tables raise no flag");
}

/// `traffic.draw`: one node's injection decision and destination draw per
/// cycle, at the workload's rate and pattern.
pub fn traffic_draw(spans: &mut SpanBuf, config: &SimConfig) {
    let mut rng = Rng::seed_from_u64_stream(config.seed, 0x7AF);
    let mut injector = Injector::new(
        config.injection_rate,
        config.flits_per_packet(),
        config.injection,
    )
    .expect("workload injection rate is valid");
    let src = NodeId::new(0);
    spans.time("traffic.draw", DRAWS, || {
        for _ in 0..DRAWS {
            for _ in 0..injector.packets_this_cycle(&mut rng) {
                black_box(config.pattern.destination(src, config.topology, &mut rng));
            }
        }
    });
}

/// The fault state a run ended in: the configured timeline plus every
/// wear-out death the run realised.
pub fn realised_timeline(config: &SimConfig, events: &[FaultEvent]) -> FaultTimeline {
    let mut timeline = config.fault_timeline();
    for event in events {
        if let (FaultCause::Wearout, FaultEventKind::LinkDown { node, dir }) =
            (event.cause, event.kind)
        {
            timeline.push_link_kill(event.at, node, dir);
        }
    }
    timeline
}

/// `routing.candidates`: `route_candidates` over seeded (here, dest)
/// pairs under the run's final fault state, with the workload's
/// algorithm.
pub fn routing_candidates(spans: &mut SpanBuf, config: &SimConfig, timeline: &FaultTimeline) {
    let mut rng = Rng::seed_from_u64_stream(config.seed, 0x207E);
    let topo = config.topology;
    let n = topo.node_count() as u64;
    let pairs: Vec<(NodeId, NodeId)> = (0..1024)
        .map(|_| {
            (
                NodeId::new(rng.gen_range(0..n) as u16),
                NodeId::new(rng.gen_range(0..n) as u16),
            )
        })
        .collect();
    let faults = FaultState::new(timeline.clone());
    let now = config.max_cycles;
    spans.time("routing.candidates", CANDIDATE_CALLS, || {
        for i in 0..CANDIDATE_CALLS as usize {
            let (here, dest) = pairs[i % pairs.len()];
            black_box(route_candidates(
                config.routing,
                topo,
                here,
                Direction::Local,
                dest,
                &faults,
                now,
            ));
        }
    });
}

/// `routing.plan_build`: one `FaultAwarePlan::build` per epoch of the
/// realised timeline — what an online reconfiguration costs.
pub fn routing_plan_build(spans: &mut SpanBuf, topo: Topology, timeline: &FaultTimeline) {
    let epochs = timeline.epoch_count();
    spans.time("routing.plan_build", epochs as u32, || {
        for epoch in 0..epochs {
            black_box(FaultAwarePlan::build(topo, timeline.effective(epoch)));
        }
    });
}

/// `fault.plan_lower`: the `--fault` grammar to a validated timeline.
pub fn fault_plan_lower(spans: &mut SpanBuf, specs: &[String], topo: Topology) {
    spans.time("fault.plan_lower", PLAN_LOWERINGS, || {
        for _ in 0..PLAN_LOWERINGS {
            let mut plan = FaultPlan::new();
            for spec in specs {
                plan.add_spec(spec).expect("workload fault spec parses");
            }
            plan.validate(topo).expect("workload fault plan is valid");
            black_box(plan.timeline(topo, 4));
        }
    });
}

/// `check.sample`: drawing campaign parameters.
pub fn check_sample(spans: &mut SpanBuf, seed: u64) {
    spans.time("check.sample", SAMPLES, || {
        for i in 0..u64::from(SAMPLES) {
            black_box(CampaignParams::sample(seed, i));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Sizing, Workload};

    #[test]
    fn every_micro_loop_records_its_span() {
        let mut spans = SpanBuf::with_capacity(64);
        let sizing = Sizing { div: 100 };
        let w = Workload::Faulted8;
        let config = w.sim_config(5, sizing);
        ecc(&mut spans, 5);
        retx_buffer(&mut spans, 5);
        ac_check(&mut spans, 5);
        traffic_draw(&mut spans, &config);
        let timeline = realised_timeline(&config, &[]);
        assert!(timeline.epoch_count() >= 3);
        routing_candidates(&mut spans, &config, &timeline);
        routing_plan_build(&mut spans, config.topology, &timeline);
        fault_plan_lower(&mut spans, &w.fault_specs(sizing), config.topology);
        check_sample(&mut spans, 5);
        for name in [
            "ecc.encode",
            "ecc.decode",
            "core.retx_buffer",
            "core.ac_check",
            "traffic.draw",
            "routing.candidates",
            "routing.plan_build",
            "fault.plan_lower",
            "check.sample",
        ] {
            assert!(spans.self_ns_per_call(name).unwrap() > 0.0, "{name}");
        }
        assert_eq!(spans.dropped, 0);
    }
}
