//! The experiment table: one [`Row`] per sweep, each pairing the sweep
//! with its one rendering (table, chart, "paper:" note). The
//! `experiments` binary runs the rows it is given by name, or all of
//! them in paper order.
//!
//! The first five rows regenerate the paper's Figures 5–9, 13 and
//! Table 1 and follow `FTNOC_SCALE`; the rest are fixed-size studies:
//! the §2.2 power profile, two ablations, the equal-budget DAMQ
//! comparison and the §5 topology sweep under fault-aware routing.

use std::io::{self, Write};

use ftnoc_core::deadlock::DeadlockCycleSpec;
use ftnoc_core::recovery::{recovery_latency, LogicFaultKind};
use ftnoc_fault::{FaultPlan, FaultRates};
use ftnoc_power::EnergyModel;
use ftnoc_sim::{
    DeadlockConfig, Network, RoutingAlgorithm, SimConfig, SimConfigBuilder, SimReport, Simulator,
};
use ftnoc_traffic::{InjectionProcess, TrafficPattern};
use ftnoc_types::config::{BufferOrg, PipelineDepth, RouterConfig};
use ftnoc_types::geom::{Direction, NodeId, Topology};

use crate::chart::{render, series_from_points, ChartSpec};
use crate::{
    figure13, figure5, figure6_7, figure8_9, render_series_table, render_table1, Fig13Class, Point,
    Scale, FIG13_RATES,
};

/// One named experiment.
pub struct Row {
    /// The name `experiments NAME` selects.
    pub name: &'static str,
    /// One line for the row list.
    pub about: &'static str,
    /// Runs the sweep and writes its rendering. Fails on a write error
    /// or on the sweep's own verdict (the topology sweep refuses to
    /// pass with packets left stuck).
    pub run: fn(Scale, &mut dyn Write) -> io::Result<()>,
}

/// Every experiment, in paper order.
pub const ROWS: [Row; 10] = [
    Row {
        name: "fig5",
        about: "latency of HBH / E2E / FEC vs link error rate",
        run: fig5,
    },
    Row {
        name: "fig6-7",
        about: "HBH latency and energy per message vs error rate, NR / BC / TN",
        run: fig6_7,
    },
    Row {
        name: "fig8-9",
        about: "transmission / retransmission buffer utilization vs injection rate",
        run: fig8_9,
    },
    Row {
        name: "fig13",
        about: "corrected errors and energy per packet per fault class",
        run: fig13,
    },
    Row {
        name: "table1",
        about: "power and area of the Allocation Comparator",
        run: |_, out| out.write_all(render_table1().as_bytes()),
    },
    Row {
        name: "power",
        about: "S2.2 energy breakdown per micro-architectural event class",
        run: power,
    },
    Row {
        name: "ablation-pipeline",
        about: "latency and logic-fault recovery latency vs pipeline depth",
        run: ablation_pipeline,
    },
    Row {
        name: "ablation-deadlock",
        about: "deadlock-recovery drain fraction vs retransmission depth (Eq. 1)",
        run: ablation_deadlock,
    },
    Row {
        name: "buffer-orgs",
        about: "static per-VC FIFOs vs an equal-budget DAMQ pool",
        run: buffer_orgs,
    },
    Row {
        name: "topology-sweep",
        about: "S5 mesh / torus / cmesh under fault-aware routing and a link kill",
        run: topology_sweep,
    },
];

/// Resolves row names; no names selects every row.
///
/// # Errors
///
/// The first unknown name, followed by the row list.
pub fn select(names: &[String]) -> Result<Vec<&'static Row>, String> {
    if names.is_empty() {
        return Ok(ROWS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            ROWS.iter().find(|r| r.name == name).ok_or_else(|| {
                let mut msg = format!("unknown experiment `{name}`; the rows are:\n");
                for r in &ROWS {
                    msg.push_str(&format!("    {:<18} {}\n", r.name, r.about));
                }
                msg
            })
        })
        .collect()
}

/// The x axis of a figure: its table column head, chart label and scale.
struct Axis {
    column: &'static str,
    label: &'static str,
    log: bool,
}

const ERROR_RATE: Axis = Axis {
    column: "error",
    label: " error rate ",
    log: true,
};

const INJECTION_RATE: Axis = Axis {
    column: "inj",
    label: " injection rate ",
    log: false,
};

/// One figure read off a series sweep: a table, the same numbers as a
/// chart, and what the paper reports.
struct SeriesFigure {
    title: &'static str,
    axis: Axis,
    metric: fn(&SimReport) -> f64,
    unit: &'static str,
    chart_title: &'static str,
    log_y: bool,
    paper: &'static str,
}

impl SeriesFigure {
    fn render(&self, points: &[Point], out: &mut dyn Write) -> io::Result<()> {
        let table =
            render_series_table(self.title, self.axis.column, points, self.metric, self.unit);
        let spec = ChartSpec {
            title: self.chart_title.into(),
            y_label: self.unit.into(),
            x_label: self.axis.label.into(),
            log_x: self.axis.log,
            log_y: self.log_y,
            ..ChartSpec::default()
        };
        let chart = render(&spec, &series_from_points(points, self.metric));
        writeln!(out, "{table}\n{chart}\npaper: {}", self.paper)
    }
}

fn fig5(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    SeriesFigure {
        title: "Figure 5: Latency vs. Error rate (Inj. Rate: 0.25 flits/node/cycle)",
        axis: ERROR_RATE,
        metric: |r| r.avg_latency,
        unit: "cycles",
        chart_title: "latency (cycles, log scale; log-x error rate)",
        log_y: true,
        paper: "HBH flat near ~20; FEC moderate growth; E2E exceeds 140 at 0.1",
    }
    .render(&figure5(scale), out)
}

fn fig6_7(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let points = figure6_7(scale);
    SeriesFigure {
        title: "Figure 6: HBH latency vs. Error rate (Inj. Rate: 0.25 flits/node/cycle)",
        axis: ERROR_RATE,
        metric: |r| r.avg_latency,
        unit: "cycles",
        chart_title: "HBH latency by pattern (log-x error rate)",
        log_y: false,
        paper: "all three patterns stay almost constant up to a 10% error rate",
    }
    .render(&points, out)?;
    SeriesFigure {
        title: "Figure 7: HBH energy per message vs. Error rate (Inj. 0.25)",
        axis: ERROR_RATE,
        metric: |r| r.energy_per_packet_nj,
        unit: "nJ",
        chart_title: "HBH energy/message by pattern (log-x error rate)",
        log_y: false,
        paper: "sub-1 nJ per message, essentially flat across error rates",
    }
    .render(&points, out)
}

fn fig8_9(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let points = figure8_9(scale);
    SeriesFigure {
        title: "Figure 8: Transmission-buffer utilization vs. Injection rate",
        axis: INJECTION_RATE,
        metric: |r| r.tx_utilization,
        unit: "fraction",
        chart_title: "transmission-buffer utilization",
        log_y: false,
        paper: "rises with load and saturates past the network's capacity",
    }
    .render(&points, out)?;
    SeriesFigure {
        title: "Figure 9: Retransmission-buffer utilization vs. Injection rate",
        axis: INJECTION_RATE,
        metric: |r| r.retx_utilization,
        unit: "fraction",
        chart_title: "retransmission-buffer utilization",
        log_y: false,
        paper: "stays low (<= ~0.18) and does not track the transmission buffers —\n\
                the idle capacity the deadlock-recovery scheme exploits",
    }
    .render(&points, out)
}

fn fig13(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let points = figure13(scale);
    let mut table = |title: &str, cell: fn(Fig13Class, &SimReport) -> String, paper: &str| {
        writeln!(out, "{title}")?;
        write!(out, "{:>10}", "error")?;
        for class in Fig13Class::ALL {
            write!(out, " {:>10}", class.label())?;
        }
        writeln!(out)?;
        for rate in FIG13_RATES {
            write!(out, "{rate:>10.0e}")?;
            for class in Fig13Class::ALL {
                let point = points
                    .iter()
                    .find(|p| p.series == class.label() && p.x == rate)
                    .expect("figure13 sweeps every class at every rate");
                write!(out, " {:>10}", cell(class, &point.report))?;
            }
            writeln!(out)?;
        }
        writeln!(out, "\npaper: {paper}")
    };
    table(
        "Figure 13(a): Number of corrected errors [count]",
        |class, r| class.corrected(r).to_string(),
        "SA-Logic > LINK-HBH > RT-Logic (arbitrations per flit > link\n\
         traversals per flit > route computations per flit)",
    )?;
    table(
        "Figure 13(b): Energy per packet [nJ]",
        |_, r| format!("{:.4}", r.energy_per_packet_nj),
        "all under ~0.3 nJ; LINK-HBH marginally higher (retransmissions)",
    )
}

/// The §2.2 power profile: run the platform and itemize where the
/// network's energy goes, per micro-architectural event class — the
/// simulator-side counterpart of importing synthesized power numbers.
fn power(_: Scale, out: &mut dyn Write) -> io::Result<()> {
    let mut b = SimConfig::builder();
    b.injection_rate(0.25)
        .faults(FaultRates::link_only(0.01))
        .warmup_packets(1_000)
        .measure_packets(5_000);
    let report = Simulator::new(b.build().expect("valid config")).run();

    let rows = report.events.energy_breakdown(&EnergyModel::new());
    let total: f64 = rows.iter().map(|(_, _, e)| e.raw()).sum();

    writeln!(
        out,
        "Network power profile (8x8 mesh, HBH, 1% link errors, inj 0.25)"
    )?;
    writeln!(
        out,
        "{} packets over {} cycles\n",
        report.packets_ejected, report.cycles
    )?;
    writeln!(
        out,
        "{:<24} {:>12} {:>14} {:>8}",
        "event class", "count", "energy", "share"
    )?;
    for (name, count, energy) in &rows {
        writeln!(
            out,
            "{name:<24} {count:>12} {:>11.1} pJ {:>7.2}%",
            energy.raw(),
            energy.raw() / total * 100.0
        )?;
    }
    writeln!(
        out,
        "\ntotal {:.1} pJ = {:.4} nJ/packet (Figure 7's metric)",
        total,
        total / 1000.0 / report.packets_ejected as f64
    )
}

/// Ablation: router pipeline depth (§2.1 / §4). Sweeps the 1- to
/// 4-stage router organisations and reports (a) the measured zero-load
/// and loaded latency — deeper pipes cost more per hop — and (b) the §4
/// recovery-latency table for every logic-fault class, which depends on
/// the pipeline organisation.
fn ablation_pipeline(_: Scale, out: &mut dyn Write) -> io::Result<()> {
    fn latency(pipeline: PipelineDepth, injection: f64) -> f64 {
        let mut b = SimConfig::builder();
        b.router(
            RouterConfig::builder()
                .pipeline(pipeline)
                .build()
                .expect("valid router"),
        )
        .injection_rate(injection)
        .warmup_packets(500)
        .measure_packets(3_000)
        .max_cycles(600_000);
        Simulator::new(b.build().expect("valid config"))
            .run()
            .avg_latency
    }

    writeln!(
        out,
        "Average latency vs router pipeline depth (8x8 mesh, NR traffic)"
    )?;
    writeln!(out, "{:>8} {:>16} {:>16}", "stages", "inj 0.05", "inj 0.25")?;
    for p in PipelineDepth::ALL {
        writeln!(
            out,
            "{:>8} {:>16.2} {:>16.2}",
            p.stages(),
            latency(p, 0.05),
            latency(p, 0.25)
        )?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "Recovery latency per logic-fault class (cycles), S4.1-4.3:"
    )?;
    write!(out, "{:>34}", "fault \\ stages")?;
    for p in PipelineDepth::ALL {
        write!(out, " {:>4}", p.stages())?;
    }
    writeln!(out)?;
    for fault in LogicFaultKind::ALL {
        write!(out, "{:>34}", format!("{fault:?}"))?;
        for p in PipelineDepth::ALL {
            write!(out, " {:>4}", recovery_latency(fault, p).raw())?;
        }
        writeln!(out)?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "paper: AC-caught errors cost 1 cycle everywhere; deterministic"
    )?;
    writeln!(
        out,
        "misdirections cost 1+n; SA collisions cost 2 via downstream ECC."
    )
}

/// Ablation: deadlock-recovery effectiveness vs retransmission-buffer
/// depth — the operational content of the Eq. (1) theorem.
///
/// A 4×4 mesh with fully adaptive routing and one VC per port receives a
/// finite bursty workload that reliably wedges it. For each
/// retransmission depth R we report how much of the workload drains with
/// recovery enabled. Unaligned packets make the worst case per §3.2.1's
/// Figure 11: a 4-deep transmission buffer can straddle two 4-flit
/// packets (N = 2), so Eq. (1) wants T + R > 2M, i.e. R ≥ 5 here — and
/// that is exactly where the drain fraction saturates at 1.0.
fn ablation_deadlock(_: Scale, out: &mut dyn Write) -> io::Result<()> {
    fn drain_fraction(retrans_depth: usize, recovery: bool) -> f64 {
        const SEEDS: std::ops::Range<u64> = 1..5;
        let mut total = 0.0;
        for seed in SEEDS {
            let mut b = drain_workload(Topology::mesh(4, 4), 0.25, seed, 20_000, 100_000);
            b.router(
                RouterConfig::builder()
                    .vcs_per_port(1)
                    .buffer_depth(4)
                    .retrans_depth(retrans_depth)
                    .build()
                    .expect("valid router"),
            )
            .routing(RoutingAlgorithm::FullyAdaptive)
            .deadlock(DeadlockConfig {
                enabled: recovery,
                cthres: 32,
            });
            let mut net = Network::new(b.build().expect("valid config"));
            for _ in 0..100_000 {
                net.step();
            }
            total += net.packets_ejected() as f64 / net.packets_injected() as f64;
        }
        total / (SEEDS.end - SEEDS.start) as f64
    }

    writeln!(
        out,
        "Deadlock-recovery drain fraction vs retransmission depth"
    )?;
    writeln!(
        out,
        "(4x4 mesh, fully adaptive, 1 VC, T=4, M=4; finite bursty workload)"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:>6} {:>18} {:>12} {:>12}",
        "R", "Eq.1 (worst N=2)", "no recovery", "recovery"
    )?;
    for r in [3usize, 4, 5, 6, 8] {
        let guaranteed = if DeadlockCycleSpec::uniform(4, 4, r, 4).recovery_guaranteed_unaligned() {
            "guaranteed"
        } else {
            "not guaranteed"
        };
        let off = drain_fraction(r, false);
        let on = drain_fraction(r, true);
        writeln!(out, "{r:>6} {guaranteed:>18} {off:>12.2} {on:>12.2}")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Eq. (1): sum(T+R) must exceed M x sum(N). Depth 3 suffices for link"
    )?;
    writeln!(
        out,
        "protection alone (S3.1); recovery wants the worst-case margin."
    )
}

/// A finite drain workload: Bernoulli injection for `inject_for`
/// cycles, no measurement window, `max_cycles` to empty the network.
fn drain_workload(
    topology: Topology,
    rate: f64,
    seed: u64,
    inject_for: u64,
    max_cycles: u64,
) -> SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.topology(topology)
        .injection(InjectionProcess::Bernoulli)
        .injection_rate(rate)
        .seed(seed)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(max_cycles)
        .stop_injection_after(inject_for);
    b
}

/// Equal-budget buffer-organisation comparison: statically partitioned
/// per-VC FIFOs (4 VCs × depth 3 = 12 slots per input port) against a
/// DAMQ shared pool of the same 12 slots, under uniform and tornado
/// traffic on the 8×8 mesh.
///
/// Reports sustained throughput, average packet latency, and the
/// fraction of occupancy samples in the top three deciles (how often a
/// port's buffering is ≥ 70 % full) — the DAMQ's claim is that pooling
/// turns idle VCs' slots into headroom for the busy ones.
fn buffer_orgs(_: Scale, out: &mut dyn Write) -> io::Result<()> {
    const VCS: usize = 4;
    const DEPTH: usize = 3;
    const POOL: usize = VCS * DEPTH;

    fn run(org: BufferOrg, pattern: TrafficPattern, rate: f64) -> SimReport {
        let mut router = RouterConfig::builder();
        router.vcs_per_port(VCS).buffer_depth(DEPTH).buffer_org(org);
        let mut b = SimConfig::builder();
        b.router(router.build().expect("valid router"))
            .pattern(pattern)
            .injection_rate(rate)
            .warmup_packets(500)
            .measure_packets(3_000)
            .max_cycles(600_000);
        Simulator::new(b.build().expect("valid config")).run()
    }

    writeln!(
        out,
        "Equal-budget buffer organisations: static {VCS}x{DEPTH} vs DAMQ pool {POOL} \
         (8x8 mesh, {POOL} slots/port both ways)"
    )?;
    for pattern in [TrafficPattern::Uniform, TrafficPattern::Tornado] {
        writeln!(out)?;
        writeln!(out, "{pattern:?} traffic:")?;
        writeln!(
            out,
            "{:>8} {:>10} {:>12} {:>10} {:>12} {:>10} {:>12} {:>10}",
            "inj",
            "static thr",
            "static lat",
            ">=70% occ",
            "damq thr",
            "damq lat",
            ">=70% occ",
            "lat ratio"
        )?;
        for rate in [0.05, 0.15, 0.25, 0.35] {
            let s = run(BufferOrg::StaticPartition, pattern.clone(), rate);
            let d = run(BufferOrg::Damq { pool_size: POOL }, pattern.clone(), rate);
            writeln!(
                out,
                "{:>8.2} {:>10.4} {:>12.2} {:>9.1}% {:>12.4} {:>10.2} {:>11.1}% {:>10.3}",
                rate,
                s.throughput,
                s.avg_latency,
                100.0 * s.port_occupancy.frac_at_or_above(7),
                d.throughput,
                d.avg_latency,
                100.0 * d.port_occupancy.frac_at_or_above(7),
                d.avg_latency / s.avg_latency,
            )?;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "lat ratio < 1 means the DAMQ delivered lower average latency"
    )?;
    writeln!(
        out,
        "for the same total buffering; > 1 means pooling cost cycles."
    )
}

/// The §5 topology sweep: mesh vs torus vs concentrated mesh under
/// fault-aware up*/down* routing, healthy and with a link dying
/// mid-run, as a finite drain workload (inject for a fixed window,
/// then run until the network empties — delivery is all-or-nothing,
/// not an artifact of where a measurement window closed).
///
/// All three networks carry 64 terminals. Two rate sets:
///
/// - *equal per-terminal offered load* — every terminal injects at the
///   same rate, so the networks see identical demand;
/// - *equal bisection utilization* — the rate is scaled by each
///   topology's bisection-links-per-terminal relative to the mesh
///   (torus 2x: wraps double the cut; cmesh 0.5x: 4 links carry 64
///   terminals), so the *cut* sees identical demand.
///
/// Honest caveats printed with the table; see EXPERIMENTS.md §5.
fn topology_sweep(_: Scale, out: &mut dyn Write) -> io::Result<()> {
    /// Injection window (cycles); the drain budget is `MAX_CYCLES`.
    const INJECT_FOR: u64 = 3_000;
    const MAX_CYCLES: u64 = 120_000;
    /// Mid-run kill cycle (inside the injection window, so rerouted
    /// traffic still contends with fresh traffic).
    const KILL_AT: u64 = 1_000;

    /// Label, topology, injection rate, and the node whose east link
    /// dies at `KILL_AT` (if any).
    type Scenario = (&'static str, fn() -> Topology, f64, Option<u16>);

    /// Returns (injected, ejected, drain cycle, avg latency, deadlocks).
    fn run(&(_, topo, rate, kill): &Scenario) -> (u64, u64, u64, f64, u64) {
        let mut b = drain_workload(topo(), rate, 0xF70C, INJECT_FOR, MAX_CYCLES);
        b.routing(RoutingAlgorithm::FaultAware);
        if let Some(node) = kill {
            b.fault_plan(FaultPlan::new().kill_link_at(
                KILL_AT,
                NodeId::new(node),
                Direction::East,
            ));
        }
        let mut net = Network::new(b.build().expect("valid sweep config"));
        net.start_measurement();
        // The drain point (network empty after injection stopped) is
        // looked for every 500 cycles.
        while net.now() < MAX_CYCLES {
            net.step();
            if net.now().is_multiple_of(500)
                && net.now() > INJECT_FOR
                && net.packets_injected() == net.packets_ejected()
            {
                break;
            }
        }
        let stats = net.stats();
        (
            stats.packets_injected,
            stats.packets_ejected,
            net.now(),
            stats.avg_latency(),
            stats.errors.deadlocks_confirmed,
        )
    }

    let mesh: fn() -> Topology = || Topology::mesh(8, 8);
    let torus: fn() -> Topology = || Topology::torus(8, 8);
    let cmesh: fn() -> Topology = || Topology::try_cmesh(4, 4, 4).expect("valid cmesh");
    // 27 = (3,3) of the 8x8 grid (the paper-scale kill link); 31 =
    // (7,3), whose east link is a torus wrap; 5 = (1,1) of the 4x4
    // cmesh grid, the 27:e analog at the smaller radix-8 scale.
    let sets: [(&str, Vec<Scenario>); 2] = [
        (
            "equal per-terminal offered load (0.10 flits/terminal/cycle)",
            vec![
                ("mesh  8x8    healthy", mesh, 0.10, None),
                ("mesh  8x8    kill 27:e @1000", mesh, 0.10, Some(27)),
                ("torus 8x8    healthy", torus, 0.10, None),
                ("torus 8x8    kill 27:e @1000", torus, 0.10, Some(27)),
                ("torus 8x8    kill 31:e @1000 (wrap)", torus, 0.10, Some(31)),
                ("cmesh 4x4:4  healthy", cmesh, 0.10, None),
                ("cmesh 4x4:4  kill 5:e @1000", cmesh, 0.10, Some(5)),
            ],
        ),
        (
            "equal bisection utilization (mesh 0.10, torus 0.20, cmesh 0.05)",
            vec![
                ("torus 8x8    healthy", torus, 0.20, None),
                ("torus 8x8    kill 31:e @1000 (wrap)", torus, 0.20, Some(31)),
                ("cmesh 4x4:4  healthy", cmesh, 0.05, None),
                ("cmesh 4x4:4  kill 5:e @1000", cmesh, 0.05, Some(5)),
            ],
        ),
    ];

    writeln!(
        out,
        "Topology sweep (§5): 64 terminals, fta routing, no recovery, \
         inject {INJECT_FOR} cycles then drain"
    )?;
    let mut all_delivered = true;
    for (title, scenarios) in &sets {
        writeln!(out, "\n== {title} ==")?;
        writeln!(
            out,
            "{:<36} {:>8} {:>8} {:>9} {:>10} {:>10} {:>4}",
            "scenario", "injected", "ejected", "delivered", "drain cyc", "avg lat", "dl"
        )?;
        for s in scenarios {
            let (inj, ej, cycles, lat, dl) = run(s);
            all_delivered &= inj == ej;
            writeln!(
                out,
                "{:<36} {inj:>8} {ej:>8} {:>8.2}% {cycles:>10} {lat:>10.2} {dl:>4}",
                s.0,
                100.0 * ej as f64 / inj as f64,
            )?;
        }
    }
    writeln!(
        out,
        "\ncaveats: fta funnels traffic through its spanning tree, so the \
         torus's doubled bisection is only partly usable and saturation \
         sits below a mesh-optimal router's; per-terminal injection means \
         the cmesh's 16 routers absorb 4x the per-router demand."
    )?;
    if !all_delivered {
        return Err(io::Error::other("a drain workload left packets stuck"));
    }
    writeln!(
        out,
        "every workload drained completely (100% delivery, 0 stuck)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_names_are_unique_and_resolve() {
        for (i, row) in ROWS.iter().enumerate() {
            assert!(
                ROWS[..i].iter().all(|r| r.name != row.name),
                "duplicate row `{}`",
                row.name
            );
            let picked = select(&[row.name.to_string()]).expect("row resolves");
            assert_eq!(picked.len(), 1);
            assert_eq!(picked[0].name, row.name);
        }
        let all = select(&[]).expect("no names selects every row");
        assert_eq!(all.len(), ROWS.len());
    }

    #[test]
    fn unknown_name_lists_the_rows() {
        let names = ["table1".to_string(), "fig99".to_string()];
        let Err(msg) = select(&names) else {
            panic!("fig99 is not a row");
        };
        assert!(msg.contains("unknown experiment `fig99`"), "{msg}");
        for row in &ROWS {
            assert!(msg.contains(row.name), "{msg}");
        }
    }

    #[test]
    fn table1_row_prints_the_table() {
        let mut out = Vec::new();
        let row = select(&["table1".to_string()]).expect("table1 is a row")[0];
        (row.run)(Scale::Quick, &mut out).expect("writing to a Vec cannot fail");
        assert_eq!(String::from_utf8(out).unwrap(), render_table1());
    }
}
