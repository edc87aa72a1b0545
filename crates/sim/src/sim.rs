//! The simulation driver: warm-up, measurement, stop conditions and the
//! run report.

use ftnoc_power::EnergyModel;
use ftnoc_trace::{NullSink, TraceSink, Tracer};

use crate::config::SimConfig;
use crate::engine::Stepper;
use crate::network::Network;
use crate::stats::{ErrorStats, EventCounts, OccupancyHistogram};

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Cycles simulated in total (warm-up + measurement).
    pub cycles: u64,
    /// Packets ejected during the measurement window.
    pub packets_ejected: u64,
    /// Packets injected during the measurement window.
    pub packets_injected: u64,
    /// Mean packet latency (cycles), measurement window.
    pub avg_latency: f64,
    /// Maximum packet latency observed in the window.
    pub max_latency: u64,
    /// (p50, p95, p99) latency bucket bounds for the window.
    pub latency_percentiles: (u64, u64, u64),
    /// Throughput in flits/node/cycle.
    pub throughput: f64,
    /// Mean energy per packet in nanojoules (Figures 7 / 13b).
    pub energy_per_packet_nj: f64,
    /// Mean transmission-buffer utilization (Figure 8).
    pub tx_utilization: f64,
    /// Mean retransmission-buffer utilization (Figure 9).
    pub retx_utilization: f64,
    /// Decile histogram of per-port input-buffer fill levels (one
    /// sample per cardinal input port per measured cycle) — the
    /// distribution behind the static-vs-DAMQ comparison.
    pub port_occupancy: OccupancyHistogram,
    /// Event census of the window.
    pub events: EventCounts,
    /// Error-handling census of the window.
    pub errors: ErrorStats,
    /// Injected-fault census (whole run).
    pub faults_injected: ftnoc_fault::FaultCounts,
    /// Flits lost to whole-router deaths (whole run, not windowed —
    /// losses are rare discrete events and the ledger is cumulative).
    pub flits_lost: u64,
    /// Peak per-node E2E/FEC source-buffer occupancy in flits (0 for
    /// schemes without end-to-end control). HBH needs exactly
    /// `retrans_depth` flits per VC instead — the §3 buffer-cost
    /// comparison.
    pub e2e_peak_source_buffer_flits: u64,
    /// Echo of [`SimConfig::threads`]; the engine does not read it.
    pub threads: usize,
    /// `std::thread::available_parallelism()` on the reporting host
    /// (0 when the platform cannot say) — provenance for wall-clock
    /// comparisons, not a simulation result.
    pub available_parallelism: usize,
    /// Whether the run ended by reaching the packet target (vs the
    /// cycle cap — a capped saturated/wedged run reports `false`).
    pub completed: bool,
}

impl SimReport {
    /// Serializes the full report as one JSON object (the CLI's
    /// `--report-json`).
    ///
    /// Hand-rolled through `ftnoc_metrics::json`'s writers: integers,
    /// booleans and finite floats only. A non-finite float (e.g. the average latency of an
    /// empty measurement window) becomes `null`.
    pub fn to_json(&self) -> String {
        use ftnoc_metrics::json::{fnum, push_u64_list};
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1536);
        let (p50, p95, p99) = self.latency_percentiles;
        let _ = write!(
            s,
            "{{\"cycles\":{},\"packets_injected\":{},\"packets_ejected\":{},\
             \"avg_latency\":{},\"max_latency\":{},\
             \"latency_percentiles\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}},\
             \"throughput\":{},\"energy_per_packet_nj\":{},\
             \"tx_utilization\":{},\"retx_utilization\":{}",
            self.cycles,
            self.packets_injected,
            self.packets_ejected,
            fnum(self.avg_latency),
            self.max_latency,
            fnum(self.throughput),
            fnum(self.energy_per_packet_nj),
            fnum(self.tx_utilization),
            fnum(self.retx_utilization),
        );
        s.push_str(",\"port_occupancy\":{\"deciles\":[");
        push_u64_list(&mut s, self.port_occupancy.buckets().iter().copied());
        let _ = write!(s, "],\"samples\":{}}}", self.port_occupancy.len());
        s.push_str(",\"events\":");
        self.events.write_json(&mut s);
        s.push_str(",\"errors\":");
        self.errors.write_json(&mut s);
        // `retrans_buffer` is a literal: no such fault was ever drawn, but
        // the benchmark digests and CI's `sparse8` gate hash these bytes.
        let fc = &self.faults_injected;
        let _ = write!(
            s,
            ",\"faults_injected\":{{\"link\":{},\"link_multi_bit\":{},\"rt\":{},\
             \"va\":{},\"sa\":{},\"crossbar\":{},\"retrans_buffer\":0,\"handshake\":{}}}",
            fc.link, fc.link_multi_bit, fc.rt, fc.va, fc.sa, fc.crossbar, fc.handshake,
        );
        // `threads` is an echo the engine does not read (digests blank it).
        let _ = write!(
            s,
            ",\"threads\":{},\"available_parallelism\":{}",
            self.threads, self.available_parallelism
        );
        let _ = write!(
            s,
            ",\"flits_lost\":{},\"e2e_peak_source_buffer_flits\":{},\"completed\":{}}}",
            self.flits_lost, self.e2e_peak_source_buffer_flits, self.completed
        );
        s
    }
}

/// Drives a [`Network`] through warm-up and measurement.
///
/// Generic over the trace sink `S` (default: the free [`NullSink`]); use
/// [`Simulator::with_tracer`] to attach instrumentation and
/// [`Simulator::into_tracer`] to recover the sink after a run.
pub struct Simulator<S: TraceSink = NullSink> {
    config: SimConfig,
    network: Network<S>,
}

impl Simulator<NullSink> {
    /// Builds an untraced simulator for a validated configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator::with_tracer(config, Tracer::disabled())
    }
}

impl<S: TraceSink> Simulator<S> {
    /// Builds a simulator with a tracing front-end attached.
    pub fn with_tracer(config: SimConfig, tracer: Tracer<S>) -> Self {
        let network = Network::with_tracer(config.clone(), tracer);
        Simulator { config, network }
    }

    /// Read access to the network (tests).
    pub fn network(&self) -> &Network<S> {
        &self.network
    }

    /// Mutable access to the network (scenario scripting in tests).
    pub fn network_mut(&mut self) -> &mut Network<S> {
        &mut self.network
    }

    /// Flushes and surrenders the tracer (e.g. to read a memory sink's
    /// records, or dump flight recorders, after a run).
    pub fn into_tracer(self) -> Tracer<S> {
        self.network.into_tracer()
    }

    /// Runs to completion: warm-up until `warmup_packets` ejections, then
    /// measurement until `measure_packets` more (or the cycle cap).
    pub fn run(&mut self) -> SimReport {
        self.run_instrumented(|_| {})
    }

    /// The fully-instrumented run driver: like [`Simulator::run`], but
    /// `each_cycle` sees the borrowed [`Stepper`] after every step and
    /// can take [`crate::Progress`], telemetry and profile snapshots at its
    /// own cadence (the CLI's `--metrics-out` emitter). Read-only
    /// access: observation cannot perturb the run.
    pub fn run_instrumented<F: FnMut(&Stepper<'_, S>)>(&mut self, mut each_cycle: F) -> SimReport {
        let (config, net) = (&self.config, &mut self.network);
        let mut total_target = config.warmup_packets + config.measure_packets;
        let mut measuring = config.warmup_packets == 0;
        if measuring {
            net.start_measurement();
        }
        while net.now() < config.max_cycles {
            net.step();
            each_cycle(&Stepper { net });
            if !measuring && net.packets_ejected() >= config.warmup_packets {
                net.start_measurement();
                // Anchor the window at the actual crossing point so
                // the measured packet count is exact.
                total_target = net.packets_ejected() + config.measure_packets;
                measuring = true;
            }
            if measuring && net.packets_ejected() >= total_target {
                break;
            }
        }
        let completed = net.packets_ejected() >= total_target;
        self.report(completed)
    }

    /// Runs exactly `cycles` cycles with measurement from cycle 0
    /// (used by utilization sweeps and tests).
    pub fn run_cycles(&mut self, cycles: u64) -> SimReport {
        self.network.start_measurement();
        for _ in 0..cycles {
            self.network.step();
        }
        self.report(true)
    }

    fn report(&self, completed: bool) -> SimReport {
        let stats = self.network.stats();
        let model = EnergyModel::new();
        let nodes = self.config.topology.node_count();
        SimReport {
            cycles: self.network.now(),
            packets_ejected: stats.packets_ejected,
            packets_injected: stats.packets_injected,
            avg_latency: stats.avg_latency(),
            max_latency: stats.latency_max,
            latency_percentiles: self.network.latency_percentiles(),
            throughput: stats.throughput(nodes),
            energy_per_packet_nj: stats.energy_per_packet(&model).raw(),
            tx_utilization: stats.tx_utilization(),
            retx_utilization: stats.retx_utilization(),
            port_occupancy: stats.port_occupancy,
            events: stats.events,
            errors: stats.errors,
            faults_injected: self.network.fault_counts(),
            flits_lost: self.network.flits_lost(),
            threads: self.config.threads,
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(0),
            e2e_peak_source_buffer_flits: self.network.e2e_peak_source_flits(),
            completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErrorScheme, RoutingAlgorithm};
    use ftnoc_fault::{FaultCounts, FaultRates};
    use ftnoc_traffic::TrafficPattern;

    fn small_config() -> crate::config::SimConfigBuilder {
        let mut b = SimConfig::builder();
        b.injection_rate(0.1)
            .warmup_packets(200)
            .measure_packets(800)
            .max_cycles(200_000);
        b
    }

    #[test]
    fn fault_free_run_delivers_everything() {
        let report = Simulator::new(small_config().build().unwrap()).run();
        assert!(report.completed, "run hit the cycle cap");
        assert!(report.packets_ejected >= 800);
        // Zero-load-ish latency: a few pipeline hops, far below 100.
        assert!(
            report.avg_latency > 5.0 && report.avg_latency < 60.0,
            "latency {}",
            report.avg_latency
        );
        assert_eq!(report.errors.flits_dropped, 0);
        assert_eq!(report.errors.misdelivered, 0);
        assert_eq!(report.faults_injected.total(), 0);
    }

    #[test]
    fn latency_grows_with_load() {
        let low = Simulator::new(small_config().injection_rate(0.05).build().unwrap()).run();
        let high = Simulator::new(small_config().injection_rate(0.4).build().unwrap()).run();
        assert!(
            high.avg_latency > low.avg_latency,
            "low {} high {}",
            low.avg_latency,
            high.avg_latency
        );
    }

    #[test]
    fn hbh_survives_link_errors() {
        let report = Simulator::new(
            small_config()
                .faults(FaultRates::link_only(0.01))
                .build()
                .unwrap(),
        )
        .run();
        assert!(report.completed);
        assert!(report.errors.link_total_corrected() > 0);
        assert_eq!(report.errors.misdelivered, 0, "HBH must not misroute");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Simulator::new(small_config().build().unwrap()).run();
        let b = Simulator::new(small_config().build().unwrap()).run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.packets_ejected, b.packets_ejected);
        assert!((a.avg_latency - b.avg_latency).abs() < 1e-12);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn adaptive_routing_completes() {
        let report = Simulator::new(
            small_config()
                .routing(RoutingAlgorithm::WestFirstAdaptive)
                .pattern(TrafficPattern::Tornado)
                .build()
                .unwrap(),
        )
        .run();
        assert!(report.completed);
    }

    #[test]
    fn e2e_scheme_completes_fault_free() {
        let report = Simulator::new(small_config().scheme(ErrorScheme::E2e).build().unwrap()).run();
        assert!(report.completed);
        assert_eq!(report.errors.e2e_retransmissions, 0);
    }

    #[test]
    fn deadlock_recovery_drains_a_wedged_network() {
        // Fully adaptive routing with a single VC deadlocks readily under
        // bursty traffic. A finite workload then cannot drain without the
        // §3.2 machinery — and fully drains with it, provided the
        // retransmission buffers satisfy the Eq. (1) worst case
        // (T + R > 2M for unaligned packets: R ≥ 6 here).
        //
        // Seed 1 is one of the workloads `tests/eq1_sizing.rs` pins as
        // reliably deadlocking: without recovery it wedges with ~90% of
        // the traffic stuck (449/4965 delivered at the PR 5 engine).
        // Seed-sensitive dynamics have shifted across engine fixes
        // before (PR 3's NACK-window change let the old seed-2 run
        // drain on its own); if this wedge ever heals, re-probe seeds
        // the way eq1_sizing.rs does rather than weakening the assert.
        use crate::config::DeadlockConfig;
        use ftnoc_traffic::InjectionProcess;
        use ftnoc_types::config::RouterConfig;
        use ftnoc_types::geom::Topology;

        let build = |recovery: bool| {
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
                .seed(1)
                .deadlock(DeadlockConfig {
                    enabled: recovery,
                    cthres: 32,
                })
                .warmup_packets(0)
                .measure_packets(u64::MAX)
                .max_cycles(60_000)
                .stop_injection_after(5_000);
            b.build().unwrap()
        };

        let mut wedged = Simulator::new(build(false));
        for _ in 0..60_000 {
            wedged.network_mut().step();
        }
        let (inj_off, ej_off) = (
            wedged.network().packets_injected(),
            wedged.network().packets_ejected(),
        );
        assert!(
            ej_off < inj_off,
            "expected a deadlock without recovery ({ej_off}/{inj_off})"
        );

        let mut recovered = Simulator::new(build(true));
        for _ in 0..60_000 {
            recovered.network_mut().step();
        }
        let (inj_on, ej_on) = (
            recovered.network().packets_injected(),
            recovered.network().packets_ejected(),
        );
        assert_eq!(
            ej_on, inj_on,
            "recovery must drain every packet ({ej_on}/{inj_on})"
        );
        let confirmed: u64 = build(true)
            .topology
            .nodes()
            .map(|id| recovered.network().router(id).errors.deadlocks_confirmed)
            .sum();
        assert!(confirmed > 0, "the probe protocol confirmed no deadlock");
    }

    #[test]
    fn fec_scheme_corrects_single_bit_errors_inline() {
        let report = Simulator::new(
            small_config()
                .scheme(ErrorScheme::Fec)
                .faults(FaultRates::link_only(0.005))
                .build()
                .unwrap(),
        )
        .run();
        assert!(report.completed);
        assert!(report.errors.link_corrected_inline > 0);
    }

    #[test]
    fn report_json_renders_non_finite_floats_as_null() {
        let mut report = Simulator::new(
            small_config()
                .warmup_packets(0)
                .measure_packets(10)
                .build()
                .unwrap(),
        )
        .run();
        assert!(report.to_json().contains("\"avg_latency\":"));
        // JSON has no NaN/Infinity literals; a degenerate window must
        // serialize as null, never as an unparsable token.
        report.avg_latency = f64::NAN;
        report.throughput = f64::INFINITY;
        let json = report.to_json();
        assert!(json.contains("\"avg_latency\":null"), "{json}");
        assert!(json.contains("\"throughput\":null"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    /// Each census block of the JSON report carries every `NAMES` entry
    /// as a key, in declaration order, with the field's value.
    #[test]
    fn report_json_round_trips_every_census() {
        use ftnoc_metrics::json::{self, Value};
        let mut b = small_config();
        b.faults(FaultRates::link_only(0.01)).measure_packets(300);
        let report = Simulator::new(b.build().unwrap()).run();
        let doc = json::parse(&report.to_json()).unwrap();
        let pairs = |names: &[&'static str], get: &dyn Fn(&str) -> Option<u64>| {
            names.iter().map(|&n| (n, get(n))).collect::<Vec<_>>()
        };
        let (ev, er, fc) = (&report.events, &report.errors, &report.faults_injected);
        for (block, want) in [
            ("events", pairs(EventCounts::NAMES, &|n| ev.get(n))),
            ("errors", pairs(ErrorStats::NAMES, &|n| er.get(n))),
            ("faults_injected", pairs(FaultCounts::NAMES, &|n| fc.get(n))),
        ] {
            let Some(Value::Obj(members)) = doc.get(block) else {
                panic!("no {block} object");
            };
            // `retrans_buffer` is the one literal key (see `to_json`).
            let read: Vec<_> = members
                .iter()
                .filter(|m| m.0 != "retrans_buffer")
                .map(|(k, v)| (k.as_str(), v.as_u64()))
                .collect();
            assert_eq!(read, want, "{block}");
        }
        assert!(report.events.link > 0 && report.faults_injected.link > 0);
    }
}
