//! Metrics must be pure observation: a run with the interval emitter,
//! phase profiler and telemetry snapshots attached produces **byte
//! identical** traces and reports to a run without them. Plus
//! end-to-end coverage of the `--metrics-out` file format and the
//! `ftnoc report` renderer.

use ftnoc::metrics::json;
use ftnoc::metrics::report;
use ftnoc::metrics_io::MetricsEmitter;
use ftnoc_fault::FaultRates;
use ftnoc_sim::{SimConfig, SimConfigBuilder, Simulator};
use ftnoc_trace::{MemorySink, Tracer};
use ftnoc_types::geom::Topology;

/// A small HBH mesh with link soft errors (NACKs and replays in play),
/// finite packet targets so `run_instrumented` exercises its warmup /
/// measure windows.
fn config(seed: u64) -> SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.topology(Topology::mesh(4, 4))
        .injection_rate(0.2)
        .faults(FaultRates::link_only(0.01))
        .seed(seed)
        .warmup_packets(100)
        .measure_packets(2_000)
        .max_cycles(20_000);
    b
}

/// Runs with every metrics hook attached (profiler on, snapshots every
/// 50 cycles) when `metrics` is true, plain otherwise. Returns the
/// JSONL trace and JSON report.
fn run(builder: SimConfigBuilder, metrics: bool) -> (String, String) {
    let config = builder.build().unwrap();
    let nodes = config.topology.node_count();
    let mut sim = Simulator::with_tracer(config, Tracer::new(MemorySink::new(), nodes, 0));
    let report = if metrics {
        sim.network_mut().enable_profiling();
        let mut lines = 0u64;
        let report = sim.run_instrumented(|st| {
            if st.now().is_multiple_of(50) {
                // Take the same snapshots the CLI emitter takes; build
                // the line to exercise serialization on the live path.
                let p = st.progress();
                let line = ftnoc::metrics::IntervalLine {
                    cycle: p.now,
                    injected: p.packets_injected,
                    ejected: p.packets_ejected,
                    latency_sum: p.latency_sum,
                    d_injected: 0,
                    d_ejected: 0,
                    d_latency_sum: 0,
                    phase: st.profile_snapshot(),
                    routers: st.telemetry(),
                };
                assert!(line.to_json().starts_with("{\"kind\":\"interval\""));
                lines += 1;
            }
        });
        assert!(lines > 10, "observer barely ran ({lines} snapshots)");
        report
    } else {
        sim.run()
    };
    (sim.into_tracer().into_sink().to_jsonl(), report.to_json())
}

#[test]
fn metrics_observation_is_byte_transparent() {
    for seed in [1u64, 0xF70C] {
        let (plain_trace, plain_report) = run(config(seed), false);
        assert!(
            plain_trace.lines().count() > 50,
            "seed {seed}: trace suspiciously short"
        );
        let (trace, report) = run(config(seed), true);
        assert_eq!(
            plain_trace, trace,
            "seed {seed}: metrics-on trace diverged from metrics-off"
        );
        assert_eq!(
            plain_report, report,
            "seed {seed}: metrics-on report diverged from metrics-off"
        );
    }
}

/// Drives the real file emitter over a real run the way the CLI does,
/// and validates the emitted JSONL stream line by line.
fn emit_metrics_file(path: &std::path::Path, every: u64) -> String {
    let config = config(7).build().unwrap();
    let mut emitter = MetricsEmitter::create(path, every, &config).unwrap();
    let mut sim = Simulator::new(config);
    sim.network_mut().enable_profiling();
    sim.run_instrumented(|st| {
        if emitter.due(st.now()) {
            emitter.record(st.progress(), st.telemetry(), st.profile_snapshot());
        }
    });
    let net = sim.network();
    emitter.record(net.progress(), net.telemetry(), net.profile_snapshot());
    assert!(emitter.finish().is_ok(), "a temp-dir file must be writable");
    let content = std::fs::read_to_string(path).unwrap();
    std::fs::remove_file(path).ok();
    // Complete: the last line is terminated and every line parses.
    assert!(content.ends_with('\n'), "truncated file:\n{content}");
    for line in content.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("{e} in {line}"));
    }
    content
}

#[test]
fn emitted_metrics_file_is_valid_and_consistent() {
    let path = std::env::temp_dir().join("ftnoc-metrics-e2e.jsonl");
    let content = emit_metrics_file(&path, 200);

    let lines: Vec<_> = content.lines().collect();
    assert!(lines.len() > 5, "expected many intervals:\n{content}");
    let meta = json::parse(lines[0]).unwrap();
    assert_eq!(meta.get("kind").unwrap().as_str(), Some("meta"));
    assert_eq!(meta.u64_field("nodes"), Some(16));
    assert_eq!(meta.u64_field("metrics_every"), Some(200));
    assert!(meta.u64_field("available_parallelism").is_some());

    let mut prev_cycle = 0;
    let mut sum_d_injected = 0;
    let mut last_injected = 0;
    let mut last_flits_total = 0;
    let mut last_spans = [0; 3];
    for line in &lines[1..] {
        let v = json::parse(line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("interval"));
        let cycle = v.u64_field("cycle").unwrap();
        assert!(cycle > prev_cycle, "cycles must increase: {line}");
        prev_cycle = cycle;
        sum_d_injected += v.get("delta").unwrap().u64_field("injected").unwrap();
        last_injected = v.u64_field("injected").unwrap();
        // Profiling was on: every cycle so far is booked, compute onto
        // the engine's one lane with no barrier wait, and no span shrinks.
        let phase = v.get("phase").unwrap();
        assert_eq!(phase.u64_field("cycles"), Some(cycle), "{line}");
        let lane = |key| match phase.get(key).unwrap().as_arr().unwrap() {
            [only] => only.as_u64().unwrap(),
            lanes => panic!("{key}: {} lanes in {line}", lanes.len()),
        };
        assert_eq!(lane("barrier_ns_by_lane"), 0, "{line}");
        let spans = [
            phase.u64_field("pre_ns").unwrap(),
            lane("compute_ns_by_lane"),
            phase.u64_field("commit_ns").unwrap(),
        ];
        assert!(
            spans
                .iter()
                .zip(last_spans)
                .all(|(now, before)| *now >= before),
            "a phase span went backwards: {line}"
        );
        last_spans = spans;
        // One slot per router, cumulative (monotone) totals.
        let flits = v.get("routers").unwrap().get("flits_routed").unwrap();
        let arr = flits.as_arr().unwrap();
        assert_eq!(arr.len(), 16, "{line}");
        let total: u64 = arr.iter().map(|x| x.as_u64().unwrap()).sum();
        assert!(
            total >= last_flits_total,
            "telemetry went backwards: {line}"
        );
        last_flits_total = total;
    }
    // Window deltas sum back to the cumulative total.
    assert_eq!(sum_d_injected, last_injected);
    assert!(last_flits_total > 0, "no flits routed?");
    assert!(last_spans.iter().all(|&ns| ns > 0), "{last_spans:?}");
}

#[test]
fn report_renders_tables_and_heatmaps() {
    let path = std::env::temp_dir().join("ftnoc-metrics-report.jsonl");
    let content = emit_metrics_file(&path, 500);
    let rendered = report::render(&content).unwrap();
    assert!(
        rendered.contains("run summary") && rendered.contains("nodes"),
        "summary missing:\n{rendered}"
    );
    assert!(
        rendered.contains("engine phases"),
        "phase table missing:\n{rendered}"
    );
    assert!(
        rendered.contains("flits_routed"),
        "heatmap missing:\n{rendered}"
    );
    // Link faults were injected, so retransmissions show up too.
    assert!(
        rendered.contains("retransmissions"),
        "retransmission heatmap missing:\n{rendered}"
    );

    // A truncated / garbage file is an error, not a panic.
    assert!(report::render("not json").is_err());
    assert!(report::render("").is_err());
}
