//! End-to-end observability tests: deterministic JSONL traces, per-router
//! event ordering, flight-recorder bounds, probe/recovery event
//! sequences, span reconstruction and the JSON run report.

use ftnoc_fault::FaultRates;
use ftnoc_sim::{DeadlockConfig, RoutingAlgorithm, SimConfig, SimReport, Simulator};
use ftnoc_trace::{MemorySink, SpanCollector, TraceEvent, Tracer};
use ftnoc_traffic::InjectionProcess;
use ftnoc_types::config::RouterConfig;
use ftnoc_types::geom::Topology;

/// A small 2×2 HBH configuration with link faults (drops, NACKs and
/// replays show up in the trace).
fn small_faulty_config(seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(2, 2))
        .injection_rate(0.2)
        .faults(FaultRates::link_only(0.01))
        .seed(seed)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(100_000);
    b.build().unwrap()
}

/// The 4×4 single-VC fully-adaptive configuration that deadlocks under
/// bursty traffic (mirrors the recovery test in `ftnoc-sim`).
fn deadlock_config() -> SimConfig {
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
        .seed(4)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 32,
        })
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(60_000)
        .stop_injection_after(5_000);
    b.build().unwrap()
}

fn traced_cycles(
    config: SimConfig,
    cycles: u64,
    recorder_capacity: usize,
) -> (SimReport, Tracer<MemorySink>) {
    let nodes = config.topology.node_count();
    let mut sim = Simulator::with_tracer(
        config,
        Tracer::new(MemorySink::new(), nodes, recorder_capacity),
    );
    let report = sim.run_cycles(cycles);
    (report, sim.into_tracer())
}

/// Two identical fixed-seed runs must serialize to byte-identical JSONL.
#[test]
fn jsonl_trace_is_byte_identical_across_runs() {
    let (_, ta) = traced_cycles(small_faulty_config(1234), 3_000, 0);
    let (_, tb) = traced_cycles(small_faulty_config(1234), 3_000, 0);
    let a = ta.into_sink().to_jsonl();
    let b = tb.into_sink().to_jsonl();
    assert!(!a.is_empty(), "trace must not be empty");
    assert!(a.lines().count() > 100, "trace suspiciously short");
    assert_eq!(a, b, "fixed-seed traces must be byte-identical");
    // A different seed must actually change the trace.
    let (_, tc) = traced_cycles(small_faulty_config(99), 3_000, 0);
    assert_ne!(a, tc.into_sink().to_jsonl());
}

/// Within each router, event cycle stamps never go backwards.
#[test]
fn per_router_event_cycles_are_monotonic() {
    let (_, tracer) = traced_cycles(small_faulty_config(7), 3_000, 0);
    let records = tracer.into_sink().records;
    assert!(!records.is_empty());
    let mut last = std::collections::HashMap::new();
    for rec in &records {
        let prev = last.insert(rec.node, rec.cycle);
        if let Some(prev) = prev {
            assert!(
                rec.cycle >= prev,
                "node {} went back in time: {} after {}",
                rec.node,
                rec.cycle,
                prev
            );
        }
    }
    // The error machinery exercised the drop/NACK/replay event kinds.
    let count = |k: &str| records.iter().filter(|r| r.event.kind() == k).count();
    assert!(count("flit_dropped") > 0, "faulty run dropped no flits");
    assert!(count("nack_sent") > 0);
    assert!(count("replay_triggered") > 0);
    assert!(count("packet_ejected") > 0);
}

/// Flight recorders never exceed their configured capacity.
#[test]
fn flight_recorders_stay_within_capacity() {
    let (_, tracer) = traced_cycles(small_faulty_config(5), 3_000, 32);
    let recorders = tracer.recorders();
    assert_eq!(recorders.len(), 4);
    let mut retained = 0;
    for fr in recorders {
        assert!(fr.len() <= 32, "recorder exceeded capacity: {}", fr.len());
        assert!(fr.total_seen() >= fr.len() as u64);
        retained += fr.len();
        for line in fr.dump_jsonl().lines() {
            assert!(line.starts_with("{\"cycle\":"), "bad dump line {line}");
        }
    }
    assert!(retained > 0, "no recorder captured anything");
    // A long-enough run must have evicted (seen > retained somewhere).
    assert!(
        recorders.iter().any(|fr| fr.total_seen() > fr.len() as u64),
        "expected ring eviction on a 3000-cycle run"
    );
}

/// A deadlocking run traces the full §3.2 sequence: probes launched,
/// a deadlock confirmed, recovery entered and exited — with matching
/// start/end edges per node.
#[test]
fn deadlock_run_traces_probe_and_recovery_sequence() {
    let (_, tracer) = traced_cycles(deadlock_config(), 60_000, 0);
    let records = tracer.into_sink().records;
    let count = |k: &str| records.iter().filter(|r| r.event.kind() == k).count();
    assert!(count("probe_launched") > 0, "no probes launched");
    assert!(count("deadlock_confirmed") > 0, "no deadlock confirmed");
    assert!(count("recovery_start") > 0, "no recovery entered");
    assert!(count("recovery_end") > 0, "no recovery exited");

    // Probe bookkeeping: every launch is eventually confirmed or
    // discarded (up to probes still in flight at the end of the run).
    let launched = count("probe_launched");
    let resolved = count("deadlock_confirmed") + count("probe_discarded");
    assert!(
        resolved <= launched && launched - resolved <= 16,
        "unaccounted probes: {launched} launched, {resolved} resolved"
    );

    // Every confirmation's origin previously launched a probe.
    for (i, rec) in records.iter().enumerate() {
        if let TraceEvent::DeadlockConfirmed { origin } = rec.event {
            assert!(
                records[..i].iter().any(|r| matches!(
                    r.event,
                    TraceEvent::ProbeLaunched { origin: o, .. } if o == origin
                )),
                "confirmation at node {origin} without a prior probe"
            );
        }
    }

    // Per node, recovery start/end edges alternate and balance.
    for node in 0..16u16 {
        let mut in_recovery = false;
        for rec in records.iter().filter(|r| r.node == node) {
            match rec.event {
                TraceEvent::RecoveryStarted => {
                    assert!(!in_recovery, "double recovery_start at {node}");
                    in_recovery = true;
                }
                TraceEvent::RecoveryEnded => {
                    assert!(in_recovery, "recovery_end without start at {node}");
                    in_recovery = false;
                }
                _ => {}
            }
        }
        assert!(!in_recovery, "node {node} never left recovery");
    }
}

/// Spans reconstruct every delivered packet with a consistent latency
/// attribution.
#[test]
fn spans_reconstruct_packet_lifecycles() {
    let mut config = SimConfig::builder();
    config
        .topology(Topology::mesh(2, 2))
        .injection_rate(0.15)
        .seed(11)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(100_000);
    let config = config.build().unwrap();
    let depth = config.router.pipeline().stages() as u64;
    let (report, tracer) = traced_cycles(config, 4_000, 0);
    let mut sc = SpanCollector::new(depth);
    for rec in &tracer.into_sink().records {
        sc.observe(rec);
    }
    let spans = sc.finish();
    assert_eq!(
        spans.len() as u64,
        report.packets_ejected,
        "one span per delivered packet"
    );
    assert!(!spans.is_empty());
    for span in &spans {
        let latency = span.ejected_at - span.injected_at;
        assert!(span.hops >= 1, "packet {} took no hops", span.packet);
        assert_eq!(span.flits, 4, "default packets are 4 flits");
        assert!(
            span.breakdown.total() >= latency,
            "attribution lost cycles: {:?} vs latency {latency}",
            span.breakdown
        );
        assert!(span.breakdown.pipeline > depth);
    }
    // On a lightly loaded clean network most packets hit the floor
    // exactly: total == latency (queueing absorbs the residual).
    let exact = spans
        .iter()
        .filter(|s| s.breakdown.total() == s.ejected_at - s.injected_at)
        .count();
    assert!(exact * 2 > spans.len(), "attribution floor miscalibrated");
}

/// `SimReport::to_json` emits syntactically valid JSON with the key
/// metrics present.
#[test]
fn report_json_is_valid_and_complete() {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(2, 2))
        .injection_rate(0.1)
        .seed(3)
        .warmup_packets(10)
        .measure_packets(100)
        .max_cycles(100_000);
    let mut sim = Simulator::new(b.build().unwrap());
    let report = sim.run();
    let json = report.to_json();
    let rest = json_value(json.as_bytes());
    let rest = skip_ws(rest);
    assert!(rest.is_empty(), "trailing garbage after JSON: {rest:?}");
    for key in [
        "\"cycles\"",
        "\"avg_latency\"",
        "\"latency_percentiles\"",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
        "\"throughput\"",
        "\"energy_per_packet_nj\"",
        "\"events\"",
        "\"errors\"",
        "\"faults_injected\"",
        "\"threads\"",
        "\"available_parallelism\"",
        "\"completed\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

// --- a minimal JSON syntax checker (tests only, no dependencies) ------

fn skip_ws(mut b: &[u8]) -> &[u8] {
    while let [c, rest @ ..] = b {
        if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
            b = rest;
        } else {
            break;
        }
    }
    b
}

/// Consumes one JSON value from `b`, panicking on malformed input, and
/// returns the remaining bytes.
fn json_value(b: &[u8]) -> &[u8] {
    let b = skip_ws(b);
    match b.first().expect("unexpected end of JSON") {
        b'{' => json_seq(&b[1..], b'}', |rest| {
            let rest = json_string(skip_ws(rest));
            let rest = skip_ws(rest);
            assert_eq!(rest.first(), Some(&b':'), "expected ':'");
            json_value(&rest[1..])
        }),
        b'[' => json_seq(&b[1..], b']', json_value),
        b'"' => json_string(b),
        b't' => json_lit(b, b"true"),
        b'f' => json_lit(b, b"false"),
        b'n' => json_lit(b, b"null"),
        _ => json_number(b),
    }
}

fn json_seq(mut b: &[u8], close: u8, item: fn(&[u8]) -> &[u8]) -> &[u8] {
    b = skip_ws(b);
    if b.first() == Some(&close) {
        return &b[1..];
    }
    loop {
        b = skip_ws(item(b));
        match b.first() {
            Some(&c) if c == close => return &b[1..],
            Some(b',') => b = &b[1..],
            other => panic!("expected ',' or closer, got {other:?}"),
        }
    }
}

fn json_string(b: &[u8]) -> &[u8] {
    assert_eq!(b.first(), Some(&b'"'), "expected string");
    let mut i = 1;
    while i < b.len() {
        match b[i] {
            b'"' => return &b[i + 1..],
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    panic!("unterminated string");
}

fn json_lit<'a>(b: &'a [u8], lit: &[u8]) -> &'a [u8] {
    assert!(b.starts_with(lit), "bad literal");
    &b[lit.len()..]
}

fn json_number(b: &[u8]) -> &[u8] {
    let mut i = 0;
    if b.first() == Some(&b'-') {
        i += 1;
    }
    let start = i;
    while i < b.len() && (b[i].is_ascii_digit() || matches!(b[i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        i += 1;
    }
    assert!(
        i > start,
        "expected a number at {:?}",
        &b[..b.len().min(16)]
    );
    let text = std::str::from_utf8(&b[..i]).unwrap();
    text.parse::<f64>()
        .unwrap_or_else(|_| panic!("bad number {text}"));
    &b[i..]
}
