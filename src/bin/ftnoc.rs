//! The `ftnoc` command-line simulator: run any configuration of the
//! reproduced platform from flags.
//!
//! ```sh
//! cargo run --bin ftnoc --release -- run --scheme hbh --error-rate 0.01
//! cargo run --bin ftnoc --release -- run --topology 4x4 --routing fa \
//!     --vcs 1 --retrans 6 --deadlock-recovery --inj 0.2
//! cargo run --bin ftnoc --release -- run --trace out.jsonl --report-json
//! cargo run --bin ftnoc --release -- table1
//! ```

use ftnoc::cli::{parse, Command, HELP};
use ftnoc::metrics_io::MetricsEmitter;
use ftnoc_power::EnergyModel;
use ftnoc_sim::{Progress, SimConfig, SimReport, Simulator};
use ftnoc_trace::{JsonlSink, TraceSink, Tracer};
use std::fs::File;
use std::io::{self, BufWriter};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try `ftnoc --help`");
            std::process::exit(2);
        }
        Ok(Command::Help) => print!("{HELP}"),
        Ok(Command::Fuzz {
            plan,
            repro,
            failures_out,
        }) => run_fuzz_command(plan, repro, failures_out),
        Ok(Command::Report { file }) => {
            let content = match std::fs::read_to_string(&file) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", file.display());
                    std::process::exit(2);
                }
            };
            match ftnoc::metrics::report::render(&content) {
                Ok(rendered) => print!("{rendered}"),
                Err(e) => {
                    eprintln!("error: {}: {e}", file.display());
                    std::process::exit(2);
                }
            }
        }
        Ok(Command::Table1) => {
            print!(
                "{}",
                ftnoc_power::report::table1_report(&ftnoc_power::Table1::compute())
            );
        }
        Ok(Command::Run {
            config,
            profile,
            trace,
            flight_recorder,
            stats_every,
            report_json,
            metrics_out,
            metrics_every,
        }) => {
            let config = *config;
            let mut emitter = metrics_out.as_ref().map(|path| {
                match MetricsEmitter::create(path, metrics_every, &config) {
                    Ok(em) => em,
                    Err(e) => {
                        eprintln!("error: cannot open metrics file {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
            });
            // A failing trace or metrics file never kills a healthy run:
            // the report is printed first, then each failure, then exit 1.
            let mut io_errors = Vec::new();
            let report = match &trace {
                Some(path) => {
                    let sink = match JsonlSink::create(path) {
                        Ok(sink) => sink,
                        Err(e) => {
                            eprintln!("error: cannot open trace file {}: {e}", path.display());
                            std::process::exit(2);
                        }
                    };
                    let (report, error) =
                        run_traced(config, sink, flight_recorder, stats_every, emitter.as_mut());
                    if let Some(e) = error {
                        io_errors.push(format!("trace file {}: {e}", path.display()));
                    }
                    report
                }
                None => run_observed(&mut Simulator::new(config), stats_every, emitter.as_mut()),
            };
            if let (Some(em), Some(path)) = (emitter, &metrics_out) {
                if let Err(e) = em.finish() {
                    io_errors.push(format!("metrics file {}: {e}", path.display()));
                }
            }
            if report_json {
                println!("{}", report.to_json());
            } else {
                print_human_report(&report, profile);
            }
            if !io_errors.is_empty() {
                for e in &io_errors {
                    eprintln!("error: {e}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// Runs a traced simulation with flight recorders, dumping them on a
/// wedged or misdelivering run. Returns the report and the first I/O
/// error the trace file met, if any.
fn run_traced(
    config: SimConfig,
    sink: JsonlSink<BufWriter<File>>,
    flight_recorder: usize,
    stats_every: u64,
    metrics: Option<&mut MetricsEmitter>,
) -> (SimReport, Option<io::Error>) {
    let nodes = config.topology.node_count();
    let mut sim = Simulator::with_tracer(config, Tracer::new(sink, nodes, flight_recorder));
    let report = run_observed(&mut sim, stats_every, metrics);
    let tracer = sim.into_tracer();
    // Post-mortem: a wedged or misdelivering run dumps the per-router
    // flight recorders for offline diagnosis.
    if !report.completed || report.errors.misdelivered > 0 {
        dump_flight_recorders(&tracer);
    }
    (report, tracer.into_sink().take_error())
}

/// The `ftnoc fuzz` subcommand: replay a single reproducer spec, or run
/// a sampled campaign sweep that stops at its first failing campaign
/// and shrinks it (batched across worker threads when `--threads` asks
/// for it). Exits non-zero when any invariant was violated.
///
/// Everything printed here is derived from the returned report, so the
/// terminal output and the `--failures-out` bytes are identical at any
/// thread count.
fn run_fuzz_command(
    plan: ftnoc_check::CampaignPlan,
    repro: Option<String>,
    failures_out: Option<std::path::PathBuf>,
) {
    use ftnoc_check::CampaignParams;
    if let Some(spec) = repro {
        let params = match CampaignParams::from_spec(&spec) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: bad --repro spec: {e}");
                std::process::exit(2);
            }
        };
        match params.check() {
            Ok(()) => println!("repro: all invariants held for {} cycles", params.cycles),
            Err(v) => {
                println!("repro: {v}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!(
        "fuzz: {} campaigns, master seed {:#x}",
        plan.campaigns, plan.seed
    );
    let report = plan.run();
    let Some(failure) = report.failure else {
        println!(
            "fuzz: {} campaigns passed, no invariant violations",
            report.campaigns_run
        );
        return;
    };
    for line in failure.terminal_lines(plan.campaigns) {
        println!("{line}");
    }
    if let Some(path) = failures_out {
        if let Err(e) = std::fs::write(&path, failure.artifact()) {
            eprintln!("error: cannot write {}: {e}", path.display());
        }
    }
    eprintln!("fuzz: 1 failure(s) in {} campaigns", report.campaigns_run);
    std::process::exit(1);
}

/// Runs the simulation with the CLI's periodic observers attached:
/// `--stats-every` progress lines on stderr (cumulative totals plus
/// per-window deltas) and the `--metrics-out` interval emitter. Both
/// read commit-boundary snapshots only — observation cannot perturb
/// the run.
fn run_observed<S: TraceSink>(
    sim: &mut Simulator<S>,
    every: u64,
    mut metrics: Option<&mut MetricsEmitter>,
) -> SimReport {
    if metrics.is_some() {
        // Phase profiling rides along with metrics emission: its
        // wall-clock timers live strictly outside simulation state.
        sim.network_mut().enable_profiling();
    }
    let mut prev: Option<Progress> = None;
    let report = sim.run_instrumented(|st| {
        if every > 0 && st.now().is_multiple_of(every) {
            let p = st.progress();
            let (d_inj, d_ej, d_lat) = match prev {
                Some(q) => (
                    p.packets_injected - q.packets_injected,
                    p.packets_ejected - q.packets_ejected,
                    p.latency_sum - q.latency_sum,
                ),
                None => (p.packets_injected, p.packets_ejected, p.latency_sum),
            };
            let window_lat = if d_ej > 0 {
                format!("{:.1}", d_lat as f64 / d_ej as f64)
            } else {
                "-".to_string()
            };
            eprintln!(
                "cycle {:>9}: injected {:>8} (+{d_inj}) ejected {:>8} (+{d_ej}) \
                 window-lat {window_lat}{}",
                p.now,
                p.packets_injected,
                p.packets_ejected,
                if p.any_in_recovery {
                    " [recovering]"
                } else {
                    ""
                }
            );
            prev = Some(p);
        }
        if let Some(em) = metrics.as_deref_mut() {
            if em.due(st.now()) {
                em.record(st.progress(), st.telemetry(), st.profile_snapshot());
            }
        }
    });
    // Close the metrics stream with the run's final state (a no-op when
    // the run ended exactly on an interval boundary).
    if let Some(em) = metrics {
        let net = sim.network();
        em.record(net.progress(), net.telemetry(), net.profile_snapshot());
    }
    report
}

/// Dumps every non-empty per-router flight recorder to stderr.
fn dump_flight_recorders<S: TraceSink>(tracer: &Tracer<S>) {
    for (node, fr) in tracer.recorders().iter().enumerate() {
        if fr.is_empty() {
            continue;
        }
        eprintln!(
            "--- flight recorder node {node}: last {} of {} events ---",
            fr.len(),
            fr.total_seen()
        );
        eprint!("{}", fr.dump_jsonl());
    }
}

fn print_human_report(report: &SimReport, profile: bool) {
    println!("cycles                : {}", report.cycles);
    println!("packets (measured)    : {}", report.packets_ejected);
    println!("avg latency           : {:.2} cycles", report.avg_latency);
    println!("max latency           : {} cycles", report.max_latency);
    let (p50, p95, p99) = report.latency_percentiles;
    println!("latency p50/p95/p99   : <={p50} / <={p95} / <={p99} cycles");
    println!(
        "throughput            : {:.4} flits/node/cycle",
        report.throughput
    );
    println!(
        "energy per packet     : {:.4} nJ",
        report.energy_per_packet_nj
    );
    println!(
        "tx / retx utilization : {:.3} / {:.3}",
        report.tx_utilization, report.retx_utilization
    );
    let e = &report.errors;
    println!(
        "link corrected/replayed: {} / {}",
        e.link_corrected_inline, e.link_recovered_by_replay
    );
    println!(
        "rt / va / sa corrected : {} / {} / {}",
        e.rt_corrected, e.va_corrected, e.sa_corrected
    );
    println!(
        "misdelivered / stranded: {} / {}",
        e.misdelivered, e.stranded_flits
    );
    if e.probes_sent > 0 {
        println!(
            "probes sent/confirmed  : {} / {}",
            e.probes_sent, e.deadlocks_confirmed
        );
    }
    if !report.completed {
        println!("NOTE: run hit the cycle cap before the packet target (saturated or wedged)");
    }
    if profile {
        println!();
        let model = EnergyModel::new();
        let rows = report.events.energy_breakdown(&model);
        let total: f64 = rows.iter().map(|(_, _, e)| e.raw()).sum();
        println!(
            "{:<24} {:>12} {:>14} {:>7}",
            "event class", "count", "energy", "share"
        );
        for (name, count, energy) in &rows {
            println!(
                "{name:<24} {count:>12} {:>11.1} pJ {:>6.2}%",
                energy.raw(),
                energy.raw() / total * 100.0
            );
        }
    }
}
