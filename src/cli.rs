//! Argument parsing for the `ftnoc` command-line simulator.
//!
//! Hand-rolled (no external dependencies): `--key value` flags mapped
//! onto [`SimConfig`]. See `ftnoc --help` or [`HELP`].

use ftnoc_check::{OrgFilter, ScenarioFilter};
use ftnoc_fault::FaultRates;
use ftnoc_sim::{DeadlockConfig, ErrorScheme, RoutingAlgorithm, SimConfig};
use ftnoc_traffic::TrafficPattern;
use ftnoc_types::config::{BufferOrg, PipelineDepth, RouterConfig};
use ftnoc_types::geom::{Topology, TopologyKind};

/// The `--help` text.
pub const HELP: &str = "\
ftnoc — cycle-accurate fault-tolerant NoC simulator (Park et al., DSN 2006)

USAGE:
    ftnoc run [OPTIONS]     simulate and print a run report
    ftnoc fuzz [OPTIONS]    run invariant-checked fault campaigns
    ftnoc report FILE       render a --metrics-out file as tables and
                            per-router heatmaps
    ftnoc table1            print the Table 1 power/area reproduction
    ftnoc --help            this text

OPTIONS (run):
    --topology T        mesh:WxH | torus:WxH | cmesh:WxH:C (C terminals
                        per router) | chiplet:WxH:CWxCH (CWxCH tiles,
                        requires --routing fta) | bare WxH = mesh
                        (default 8x8)
    --scheme S          hbh | e2e | fec | none        (default hbh)
    --routing R         dt | ad | fa | oe | fta       (default dt; fta =
                        fault-aware up*/down* — deadlock-free around any
                        connected set of dead links, static or mid-run;
                        also xy = dt, wf = ad, fault-aware = fta)
    --pattern P         nr | bc | tn | tp | br | sh | nn | hs (default nr;
                        or uniform bitcomp tornado transpose bitrev shuffle)
    --inj F             injection rate, flits/node/cycle (default 0.25)
    --error-rate F      link soft-error rate per flit traversal (default 0)
    --rt-rate F         routing-logic soft-error rate (default 0)
    --va-rate F         VC-allocator soft-error rate (default 0)
    --sa-rate F         switch-allocator soft-error rate (default 0)
    --no-ac             disable the Allocation Comparator
    --vcs N             virtual channels per port (default 3)
    --buffer N          per-VC buffer depth in flits (default 4)
    --buffer-org O      static | damq — input-buffer organisation
                        (default static: private per-VC FIFOs; damq:
                        per-port shared flit pool with one reserved
                        slot per VC)
    --damq-pool N       DAMQ pool size in flits per input port
                        (default vcs × buffer — the equal-budget pool)
    --retrans N         retransmission-buffer depth (default 3)
    --pipeline N        router pipeline stages 1-4 (default 3)
    --packet-len N      flits per packet (default 4)
    --packets N         measured packets (default 5000)
    --warmup N          warm-up packets (default 1000)
    --seed N            RNG seed (default 0xF70C)
    --deadlock-recovery enable probing + recovery (Cthres 32)
    --fault SPEC        one hard-fault spec; repeat the flag to stack
                        them. Grammar (directions n|e|s|w):
                          link:N:D      link at node N toward D dead at
                                        reset (network must stay
                                        connected; pair with --routing
                                        ad so traffic can detour)
                          link:N:D@C    the same link dies at cycle C
                                        (mid-run; pair with --routing
                                        fta so traffic reroutes)
                          router:N      router N dead at reset
                          router:N@C    router N dies at cycle C —
                                        neighbours stop granting toward
                                        it and its buffered flits are
                                        counted into the loss ledger
                          wearout:M     every link draws a seeded
                                        lifetime budget (mean M flits)
                                        and dies online when its
                                        cumulative traffic exhausts it
                          wearout:M:S   the same with budget seed S
                          notify:L      fault-table publication lags
                                        local detection by L cycles
                                        (default 4)
    --profile           print the per-event energy breakdown

OBSERVABILITY (run):
    --trace FILE        stream a cycle-stamped JSONL event trace to FILE
    --flight-recorder N per-router post-mortem ring capacity (default 256;
                        dumped to stderr when a traced run wedges or
                        misdelivers)
    --stats-every N     print interval progress to stderr every N cycles
                        (cumulative totals plus per-window deltas)
    --report-json       print the run report as a JSON object
    --metrics-out FILE  stream periodic metrics intervals to FILE as
                        JSONL (cumulative + per-window counters, engine
                        phase profile, per-router hotspot telemetry);
                        render with `ftnoc report FILE`
    --metrics-every N   metrics emission interval in cycles (default 1000)

OPTIONS (fuzz):
    --campaigns N       randomized campaigns to run (default 500)
    --seed N            master seed; campaign i uses RNG stream i (default 0xF70C)
    --threads N         campaign worker threads (default 1; the report,
                        terminal output and --failures-out bytes are
                        identical at any thread count)
    --repro SPEC        replay one campaign from a `k=v,...` reproducer spec
    --failures-out FILE write the shrunk reproducer spec to FILE (CI artifact)
    --org O             static | damq — coerce every campaign onto one
                        buffer organisation (CI shards its budget across
                        both; default: the sampler's natural mix)
    --scenario S        midrun-fault | topology | wearout — coerce every
                        campaign into one scenario class: a mid-run
                        link kill under fault-aware routing, a non-mesh
                        topology (torus / concentrated mesh), or the
                        link wear-out model with a small lifetime
                        budget; default: the sampler's natural mix

Every campaign is a short simulation whose every cycle is validated by
the invariant oracle (flit conservation, credit accounting, wormhole
ordering, allocation exclusivity, deadlock-probe soundness). The sweep
stops at its first failing campaign, which is shrunk to a minimal spec
and printed as a replayable command.
";

/// A parsed CLI invocation.
#[derive(Debug)]
pub enum Command {
    /// Run a simulation; `profile` requests the energy breakdown.
    Run {
        /// The assembled configuration (boxed: it dwarfs the other
        /// variants).
        config: Box<SimConfig>,
        /// Whether to print the power profile.
        profile: bool,
        /// JSONL event-trace destination (`--trace`).
        trace: Option<std::path::PathBuf>,
        /// Per-router flight-recorder capacity (with `--trace`).
        flight_recorder: usize,
        /// Interval-progress period in cycles (`--stats-every`, 0 = off).
        stats_every: u64,
        /// Whether to emit the report as JSON (`--report-json`).
        report_json: bool,
        /// Periodic metrics JSONL destination (`--metrics-out`).
        metrics_out: Option<std::path::PathBuf>,
        /// Metrics emission interval in cycles (`--metrics-every`).
        metrics_every: u64,
    },
    /// Run invariant-checked fault campaigns (`ftnoc fuzz`).
    Fuzz {
        /// The campaign plan (count, master seed, budgets, threads).
        plan: ftnoc_check::CampaignPlan,
        /// Replay this reproducer spec instead of sampling campaigns.
        repro: Option<String>,
        /// Write the shrunk reproducer spec to this file.
        failures_out: Option<std::path::PathBuf>,
    },
    /// Render a `--metrics-out` file (`ftnoc report FILE`).
    Report {
        /// The metrics JSONL file to render.
        file: std::path::PathBuf,
    },
    /// Print the Table 1 reproduction.
    Table1,
    /// Print the help text.
    Help,
}

/// A CLI parsing failure (message for the user).
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Whether `arg` asks for the help text.
fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// The value following `flag`.
fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| err(format!("{flag} needs a value")))
}

/// Parses the value `v` of `flag`.
fn num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| err(format!("{flag}: cannot parse `{v}`")))
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first malformed flag or value.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => return Ok(Command::Help),
        Some("table1") => {
            return match it.next() {
                None => Ok(Command::Table1),
                Some(help) if is_help(help) => Ok(Command::Help),
                Some(extra) => Err(err(format!("table1 takes no arguments, got `{extra}`"))),
            }
        }
        Some("fuzz") => return parse_fuzz(&mut it),
        Some("report") => {
            let file = it
                .next()
                .ok_or_else(|| err("report needs a metrics FILE argument"))?;
            if is_help(file) && args.len() == 2 {
                return Ok(Command::Help);
            }
            if let Some(extra) = it.next() {
                return Err(err(format!("report takes one FILE, got extra `{extra}`")));
            }
            return Ok(Command::Report {
                file: std::path::PathBuf::from(file),
            });
        }
        Some("run") => {}
        Some(other) => return Err(err(format!("unknown command `{other}`; try --help"))),
    }

    // The CLI's run differs from the builders' defaults in three values.
    let mut b = SimConfig::builder();
    b.warmup_packets(1_000)
        .measure_packets(5_000)
        .deadlock(recovery(false));
    let mut router_b = RouterConfig::builder();
    let mut faults = FaultRates::none();
    let mut fplan = ftnoc_fault::FaultPlan::new();
    let mut damq = false;
    let mut damq_pool: Option<usize> = None;
    let mut profile = false;
    let mut trace: Option<std::path::PathBuf> = None;
    let mut flight_recorder = 256usize;
    let mut stats_every = 0u64;
    let mut report_json = false;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut metrics_every = 1_000u64;

    // Each flag calls its builder's setter; `_ =` drops the `&mut Self`.
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--topology" => _ = b.topology(topology(value(&mut it, flag)?)?),
            "--scheme" => _ = b.scheme(named(ErrorScheme::NAMES, &mut it, flag)?),
            "--routing" => _ = b.routing(named(RoutingAlgorithm::NAMES, &mut it, flag)?),
            "--pattern" => _ = b.pattern(named(TrafficPattern::NAMES, &mut it, flag)?),
            "--inj" => _ = b.injection_rate(num(value(&mut it, flag)?, flag)?),
            "--error-rate" => faults.link = num(value(&mut it, flag)?, flag)?,
            "--rt-rate" => faults.rt = num(value(&mut it, flag)?, flag)?,
            "--va-rate" => faults.va = num(value(&mut it, flag)?, flag)?,
            "--sa-rate" => faults.sa = num(value(&mut it, flag)?, flag)?,
            "--no-ac" => _ = b.ac_enabled(false),
            "--vcs" => _ = router_b.vcs_per_port(num(value(&mut it, flag)?, flag)?),
            "--buffer" => _ = router_b.buffer_depth(num(value(&mut it, flag)?, flag)?),
            "--buffer-org" => damq = named(OrgFilter::NAMES, &mut it, flag)? == OrgFilter::Damq,
            "--damq-pool" => damq_pool = Some(num(value(&mut it, flag)?, flag)?),
            "--retrans" => _ = router_b.retrans_depth(num(value(&mut it, flag)?, flag)?),
            "--pipeline" => {
                let v = value(&mut it, flag)?;
                let depth = v.parse().ok().and_then(PipelineDepth::from_stages);
                let depth =
                    depth.ok_or_else(|| err(format!("--pipeline expects 1-4, got `{v}`")))?;
                router_b.pipeline(depth);
            }
            "--packet-len" => _ = router_b.flits_per_packet(num(value(&mut it, flag)?, flag)?),
            "--packets" => _ = b.measure_packets(num(value(&mut it, flag)?, flag)?),
            "--warmup" => _ = b.warmup_packets(num(value(&mut it, flag)?, flag)?),
            "--seed" => _ = b.seed(num(value(&mut it, flag)?, flag)?),
            "--deadlock-recovery" => _ = b.deadlock(recovery(true)),
            "--profile" => profile = true,
            "--trace" => trace = Some(value(&mut it, flag)?.into()),
            "--flight-recorder" => flight_recorder = num(value(&mut it, flag)?, flag)?,
            "--stats-every" => stats_every = num(value(&mut it, flag)?, flag)?,
            "--report-json" => report_json = true,
            "--metrics-out" => metrics_out = Some(value(&mut it, flag)?.into()),
            "--metrics-every" => metrics_every = num(value(&mut it, flag)?, flag)?,
            "--fault" => fplan.add_spec(value(&mut it, flag)?).map_err(err)?,
            help if is_help(help) => return Ok(Command::Help),
            other => return Err(err(format!("unknown flag `{other}`; try --help"))),
        }
    }

    if damq_pool.is_some() && !damq {
        return Err(err("--damq-pool requires --buffer-org damq"));
    }
    if metrics_every == 0 {
        return Err(err("--metrics-every must be at least 1"));
    }
    let router_err = |e| err(format!("router config: {e}"));
    if damq {
        // The default pool is the equal-budget one: vcs × buffer.
        let r = router_b.build().map_err(router_err)?;
        let pool_size = damq_pool.unwrap_or(r.vcs_per_port() * r.buffer_depth());
        router_b.buffer_org(BufferOrg::Damq { pool_size });
    }
    let config = b
        .router(router_b.build().map_err(router_err)?)
        .faults(faults)
        .fault_plan(&fplan)
        .build()
        .map_err(|e| err(format!("config: {e}")))?;
    if config.topology.kind() == TopologyKind::Chiplet
        && config.routing != RoutingAlgorithm::FaultAware
    {
        return Err(err(
            "--topology chiplet requires --routing fta: only the fault-aware \
             up*/down* plan understands the sparse inter-chiplet gateways \
             (the legacy mesh algorithms would route into missing links)",
        ));
    }
    // The CLI's policy beyond `build()`'s structural check: once every
    // scheduled kill has landed, the network must still be connected.
    fplan
        .validate(config.topology)
        .map_err(|e| err(format!("--fault: {e}")))?;
    Ok(Command::Run {
        config: Box::new(config),
        profile,
        trace,
        flight_recorder,
        stats_every,
        report_json,
        metrics_out,
        metrics_every,
    })
}

/// The value `table` gives the text following `flag`.
fn named<T: Clone>(
    table: &[(&'static str, T)],
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError> {
    let v = value(it, flag)?;
    let names = || table.iter().map(|(n, _)| *n).collect::<Vec<_>>().join("|");
    ftnoc_types::lookup(table, v)
        .ok_or_else(|| err(format!("{flag} expects {}, got `{v}`", names())))
}

/// The CLI's deadlock knobs: probing at `Cthres` 32, recovery on or off.
fn recovery(enabled: bool) -> DeadlockConfig {
    DeadlockConfig {
        enabled,
        cthres: 32,
    }
}

/// Parses a `--topology` value.
fn topology(v: &str) -> Result<Topology, CliError> {
    let grid = |g: &str| -> Result<(u8, u8), CliError> {
        let (w, h) = g
            .split_once(['x', 'X'])
            .ok_or_else(|| err(format!("--topology expects WxH, got `{g}`")))?;
        Ok((num(w, "--topology")?, num(h, "--topology")?))
    };
    let topology = if let Some(rest) = v.strip_prefix("torus:") {
        let (w, h) = grid(rest)?;
        Topology::try_new(w, h, TopologyKind::Torus)
    } else if let Some(rest) = v.strip_prefix("cmesh:") {
        let (wh, c) = rest
            .split_once(':')
            .ok_or_else(|| err(format!("--topology cmesh expects cmesh:WxH:C, got `{v}`")))?;
        let (w, h) = grid(wh)?;
        Topology::try_cmesh(w, h, num(c, "--topology")?)
    } else if let Some(rest) = v.strip_prefix("chiplet:") {
        let (wh, tile) = rest.split_once(':').ok_or_else(|| {
            err(format!(
                "--topology chiplet expects chiplet:WxH:CWxCH, got `{v}`"
            ))
        })?;
        let ((w, h), (cw, ch)) = (grid(wh)?, grid(tile)?);
        Topology::try_chiplet(w, h, cw, ch)
    } else {
        // `mesh:WxH`, or a bare WxH grid.
        let (w, h) = grid(v.strip_prefix("mesh:").unwrap_or(v))?;
        Topology::try_new(w, h, TopologyKind::Mesh)
    };
    topology.map_err(|e| err(format!("--topology: {e}")))
}

/// Parses the `fuzz` subcommand's flags.
fn parse_fuzz(it: &mut std::slice::Iter<'_, String>) -> Result<Command, CliError> {
    let mut plan = ftnoc_check::CampaignPlan::new();
    let mut repro = None;
    let mut failures_out = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--campaigns" => plan = plan.campaigns(num(value(it, flag)?, flag)?),
            "--seed" => plan = plan.master_seed(num(value(it, flag)?, flag)?),
            "--threads" => plan = plan.threads(num(value(it, flag)?, flag)?),
            "--repro" => repro = Some(value(it, flag)?.to_string()),
            "--failures-out" => failures_out = Some(value(it, flag)?.into()),
            "--org" => plan = plan.org(Some(named(OrgFilter::NAMES, it, flag)?)),
            "--scenario" => plan = plan.scenario(Some(named(ScenarioFilter::NAMES, it, flag)?)),
            help if is_help(help) => return Ok(Command::Help),
            other => return Err(err(format!("unknown fuzz flag `{other}`; try --help"))),
        }
    }
    Ok(Command::Fuzz {
        plan,
        repro,
        failures_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::geom::NodeId;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The configuration a `run …` command line parses to.
    fn run_config(s: &str) -> Box<SimConfig> {
        match parse(&args(s)).unwrap() {
            Command::Run { config, .. } => config,
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn no_args_is_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&args("--help")).unwrap(), Command::Help));
    }

    /// `--help` or `-h` where a subcommand expects a flag, or as
    /// `report`'s only argument, is help, never an unknown flag or a
    /// file name.
    #[test]
    fn subcommand_help_is_help() {
        for line in [
            "run --help",
            "run -h",
            "run --vcs 2 --help",
            "fuzz --help",
            "fuzz -h",
            "table1 --help",
            "report --help",
            "report -h",
        ] {
            assert!(matches!(parse(&args(line)), Ok(Command::Help)), "{line}");
        }
        // As a flag's value, or beside a report file, it is no help.
        assert!(parse(&args("run --trace --help")).is_ok_and(|c| !matches!(c, Command::Help)));
        let e = parse(&args("report --help m.jsonl")).unwrap_err();
        assert!(e.0.contains("extra"), "{e}");
    }

    #[test]
    fn table1_command() {
        assert!(matches!(parse(&args("table1")).unwrap(), Command::Table1));
        let e = parse(&args("table1 --bogus")).unwrap_err();
        assert!(e.0.contains("no arguments"), "{e}");
    }

    #[test]
    fn run_defaults_match_paper_platform() {
        let Command::Run {
            config,
            profile,
            trace,
            flight_recorder,
            stats_every,
            report_json,
            metrics_out,
            metrics_every,
        } = parse(&args("run")).unwrap()
        else {
            panic!("expected run");
        };
        assert!(!profile);
        assert_eq!(config.topology.node_count(), 64);
        assert_eq!(config.scheme, ErrorScheme::Hbh);
        assert_eq!(config.injection_rate, 0.25);
        assert_eq!(trace, None);
        assert_eq!(flight_recorder, 256);
        assert_eq!(stats_every, 0);
        assert!(!report_json);
        assert_eq!(metrics_out, None);
        assert_eq!(metrics_every, 1000);
        assert!(config.fault_plan.is_empty());
        assert!(config.activity_gating);
    }

    #[test]
    fn full_flag_set_parses() {
        let cmd = parse(&args(
            "run --topology torus:4x6 --scheme fec --routing fa --pattern tn \
             --inj 0.1 --error-rate 0.01 --rt-rate 0.001 --no-ac --vcs 2 \
             --buffer 8 --retrans 6 --pipeline 2 --packet-len 8 --packets 100 \
             --warmup 10 --seed 42 --deadlock-recovery --profile",
        ))
        .unwrap();
        let Command::Run {
            config, profile, ..
        } = cmd
        else {
            panic!("expected run");
        };
        assert!(profile);
        assert_eq!(config.topology.node_count(), 24);
        assert_eq!(config.topology.kind(), TopologyKind::Torus);
        assert_eq!(config.scheme, ErrorScheme::Fec);
        assert_eq!(config.routing, RoutingAlgorithm::FullyAdaptive);
        assert_eq!(config.faults.link, 0.01);
        assert_eq!(config.faults.rt, 0.001);
        assert!(!config.ac_enabled);
        assert_eq!(config.router.vcs_per_port(), 2);
        assert_eq!(config.router.retrans_depth(), 6);
        assert_eq!(config.router.pipeline(), PipelineDepth::Two);
        assert_eq!(config.seed, 42);
        assert!(config.deadlock.enabled);
    }

    #[test]
    fn topology_forms_parse() {
        let config = run_config("run --topology torus:4x4");
        assert_eq!(config.topology.kind(), TopologyKind::Torus);
        assert_eq!(config.topology.node_count(), 16);

        let config = run_config("run --topology cmesh:4x4:4");
        assert_eq!(config.topology.kind(), TopologyKind::CMesh);
        assert_eq!(config.topology.node_count(), 16);
        assert_eq!(config.topology.terminal_count(), 64);
        assert_eq!(config.router.ports(), 8, "4 cardinals + 4 local ports");

        let config = run_config("run --topology chiplet:8x8:4x4 --routing fta");
        assert_eq!(config.topology.kind(), TopologyKind::Chiplet);
        assert_eq!(config.topology.chip_dims(), Some((4, 4)));
    }

    #[test]
    fn chiplet_requires_fault_aware_routing() {
        let e = parse(&args("run --topology chiplet:8x8:4x4")).unwrap_err();
        assert!(e.0.contains("--routing fta"), "{e}");
        let e = parse(&args("run --topology chiplet:8x8:4x4 --routing xy")).unwrap_err();
        assert!(e.0.contains("--routing fta"), "{e}");
    }

    #[test]
    fn malformed_topology_forms_are_rejected() {
        let e = parse(&args("run --topology cmesh:4x4")).unwrap_err();
        assert!(e.0.contains("cmesh:WxH:C"), "{e}");
        let e = parse(&args("run --topology chiplet:8x8")).unwrap_err();
        assert!(e.0.contains("chiplet:WxH:CWxCH"), "{e}");
        let e = parse(&args("run --topology chiplet:8x8:3x3")).unwrap_err();
        assert!(e.0.contains("--topology"), "{e}");
    }

    #[test]
    fn bad_values_report_the_flag() {
        let e = parse(&args("run --inj banana")).unwrap_err();
        assert!(e.0.contains("--inj"), "{e}");
        let e = parse(&args("run --topology 8")).unwrap_err();
        assert!(e.0.contains("WxH"), "{e}");
        let e = parse(&args("run --scheme quantum")).unwrap_err();
        assert!(e.0.contains("quantum"), "{e}");
        let e = parse(&args("run --pipeline 7")).unwrap_err();
        assert!(e.0.contains("1-4"), "{e}");
        let e = parse(&args("bogus")).unwrap_err();
        assert!(e.0.contains("bogus"), "{e}");
    }

    #[test]
    fn invalid_config_is_rejected_with_context() {
        let e = parse(&args("run --inj 2.0")).unwrap_err();
        assert!(e.0.contains("config"), "{e}");
        // Depths have a floor and a ceiling: an unbounded one used to
        // abort in the allocator (`memory allocation of … bytes failed`).
        for flags in [
            "run --retrans 1",
            "run --retrans 100000000000",
            "run --buffer 0",
            "run --buffer 100000000000",
            "run --buffer 18446744073709551615 --vcs 64 --buffer-org damq",
        ] {
            let e = parse(&args(flags)).unwrap_err();
            assert!(e.0.starts_with("router config: "), "{flags}: {e}");
        }
        // A rate that is no probability used to panic in `build()`.
        for (flags, site) in [
            ("run --error-rate 2", "link"),
            ("run --error-rate nan", "link"),
            ("run --sa-rate -1", "sa"),
        ] {
            let e = parse(&args(flags)).unwrap_err();
            assert!(
                e.0.starts_with(&format!("config: fault rate `{site}`")),
                "{e}"
            );
        }
        // A lone terminal used to panic in the first injection draw.
        let e = parse(&args("run --topology 1x1")).unwrap_err();
        assert!(e.0.starts_with("config: topology has 1 terminal"), "{e}");
    }

    #[test]
    fn missing_value_is_reported() {
        let e = parse(&args("run --seed")).unwrap_err();
        assert!(e.0.contains("needs a value"), "{e}");
        let e = parse(&args("run --trace")).unwrap_err();
        assert!(e.0.contains("needs a value"), "{e}");
    }

    #[test]
    fn buffer_org_flags_parse() {
        use ftnoc_types::config::BufferOrg;
        let config = run_config("run");
        assert_eq!(config.router.buffer_org(), BufferOrg::StaticPartition);

        // Equal-budget default pool: vcs × buffer.
        let config = run_config("run --vcs 2 --buffer 5 --buffer-org damq");
        assert_eq!(
            config.router.buffer_org(),
            BufferOrg::Damq { pool_size: 10 }
        );

        let config = run_config("run --buffer-org damq --damq-pool 16");
        assert_eq!(
            config.router.buffer_org(),
            BufferOrg::Damq { pool_size: 16 }
        );

        let e = parse(&args("run --buffer-org hybrid")).unwrap_err();
        assert!(e.0.contains("static|damq"), "{e}");
        let e = parse(&args("run --damq-pool 8")).unwrap_err();
        assert!(e.0.contains("--buffer-org damq"), "{e}");
        // Pool below vcs + 1 is rejected by the router-config validator.
        let e = parse(&args("run --vcs 3 --buffer-org damq --damq-pool 2")).unwrap_err();
        assert!(e.0.contains("router config"), "{e}");
    }

    #[test]
    fn fuzz_org_filter_parses() {
        let Command::Fuzz { plan, .. } = parse(&args("fuzz")).unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(plan.org, None);
        let Command::Fuzz { plan, .. } = parse(&args("fuzz --org damq")).unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(plan.org, Some(ftnoc_check::OrgFilter::Damq));
        let Command::Fuzz { plan, .. } = parse(&args("fuzz --org static")).unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(plan.org, Some(ftnoc_check::OrgFilter::Static));
        let e = parse(&args("fuzz --org hybrid")).unwrap_err();
        assert!(e.0.contains("static|damq"), "{e}");
    }

    #[test]
    fn fuzz_plan_flags_parse() {
        let Command::Fuzz { plan, .. } = parse(&args("fuzz")).unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(plan.campaigns, 500);
        assert_eq!(plan.threads, 1);
        let Command::Fuzz { plan, .. } =
            parse(&args("fuzz --campaigns 2000 --threads 4 --seed 99")).unwrap()
        else {
            panic!("expected fuzz");
        };
        assert_eq!(plan.campaigns, 2000);
        assert_eq!(plan.threads, 4);
        assert_eq!(plan.seed, 99);
        let e = parse(&args("fuzz --threads banana")).unwrap_err();
        assert!(e.0.contains("--threads"), "{e}");
    }

    #[test]
    fn metrics_flags_parse() {
        let cmd = parse(&args("run --metrics-out m.jsonl --metrics-every 250")).unwrap();
        let Command::Run {
            metrics_out,
            metrics_every,
            ..
        } = cmd
        else {
            panic!("expected run");
        };
        assert_eq!(
            metrics_out.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert_eq!(metrics_every, 250);

        let e = parse(&args("run --metrics-out m.jsonl --metrics-every 0")).unwrap_err();
        assert!(e.0.contains("--metrics-every"), "{e}");
        let e = parse(&args("run --metrics-out")).unwrap_err();
        assert!(e.0.contains("needs a value"), "{e}");
    }

    #[test]
    fn report_command_parses() {
        let Command::Report { file } = parse(&args("report m.jsonl")).unwrap() else {
            panic!("expected report");
        };
        assert_eq!(file, std::path::Path::new("m.jsonl"));
        let e = parse(&args("report")).unwrap_err();
        assert!(e.0.contains("FILE"), "{e}");
        let e = parse(&args("report a.jsonl b.jsonl")).unwrap_err();
        assert!(e.0.contains("extra"), "{e}");
    }

    #[test]
    fn kill_link_parses_and_validates_connectivity() {
        use ftnoc_types::geom::Direction;
        let config = run_config("run --routing ad --fault link:27:e --fault link:0:s");
        assert_eq!(config.fault_plan.to_specs(), ["link:27:e", "link:0:s"]);
        // Killing a link marks both endpoints.
        let dead = config.fault_plan.base_faults(config.topology);
        assert!(dead.link_is_dead(NodeId::new(27), Direction::East));
        assert!(dead.link_is_dead(NodeId::new(28), Direction::West));
        assert!(dead.link_is_dead(NodeId::new(0), Direction::South));

        let e = parse(&args("run --fault link:banana")).unwrap_err();
        assert!(e.0.contains("link:N:D"), "{e}");
        let e = parse(&args("run --fault link:3:x")).unwrap_err();
        assert!(e.0.contains("n/e/s/w"), "{e}");
        let e = parse(&args("run --fault link:99:e")).unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
        // Cutting off a corner node entirely disconnects the mesh.
        let e = parse(&args("run --fault link:0:e --fault link:0:s")).unwrap_err();
        assert!(e.0.contains("disconnected"), "{e}");
    }

    #[test]
    fn kill_link_at_parses_and_validates() {
        use ftnoc_types::geom::Direction;
        let config = run_config("run --routing fta --fault link:27:e@500 --fault notify:8");
        assert_eq!(config.routing, RoutingAlgorithm::FaultAware);
        assert_eq!(config.fault_plan.to_specs(), ["link:27:e@500", "notify:8"]);
        let [kill] = config.fault_plan.link_kills() else {
            panic!("expected one scheduled kill");
        };
        assert_eq!(
            (kill.at, kill.node, kill.dir),
            (500, NodeId::new(27), Direction::East)
        );
        assert_eq!(config.notify_latency(), 8);

        // Mid-run kills never appear in the static base set.
        assert!(config.fault_plan.base_faults(config.topology).is_empty());

        let e = parse(&args("run --fault link:27:e@banana")).unwrap_err();
        assert!(e.0.contains("not a number"), "{e}");
        // A link dead from cycle 0 is a static fault: `@0` is refused
        // with a pointer at the at-reset form.
        let e = parse(&args("run --fault link:27:e@0")).unwrap_err();
        assert!(e.0.contains("at-reset"), "{e}");
        let e = parse(&args("run --fault link:99:e@10")).unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
        let e = parse(&args("run --fault link:0:n@10")).unwrap_err();
        assert!(e.0.contains("no link"), "{e}");
        // A static kill plus a scheduled kill of the same link is a
        // configuration error.
        let e = parse(&args("run --fault link:27:e --fault link:27:e@10")).unwrap_err();
        assert!(e.0.contains("already dead"), "{e}");
        // Scheduled kills that eventually isolate a corner are rejected.
        let e = parse(&args("run --fault link:0:e@10 --fault link:0:s@20")).unwrap_err();
        assert!(e.0.contains("disconnected"), "{e}");
    }

    #[test]
    fn fault_specs_parse_and_lower() {
        let config = run_config(
            "run --routing fta --fault link:0:e --fault router:27@400 \
             --fault wearout:800:7 --fault notify:8",
        );
        assert_eq!(
            config.fault_plan.to_specs(),
            ["link:0:e", "router:27@400", "wearout:800:7", "notify:8"]
        );
        let [kill] = config.fault_plan.router_kills() else {
            panic!("expected one router kill");
        };
        assert_eq!((kill.at, kill.node), (400, NodeId::new(27)));
        assert_eq!(config.wearout_seed(), 7);
        assert_eq!(config.notify_latency(), 8);

        let e = parse(&args("run --fault gamma:1")).unwrap_err();
        assert!(e.0.contains("expected"), "{e}");
        let e = parse(&args("run --fault router:99")).unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
        let e = parse(&args("run --fault router:0@0")).unwrap_err();
        assert!(e.0.contains("at-reset"), "{e}");
        // Same cycle: the router dies first, so the link kill is moot.
        let e = parse(&args("run --fault link:5:e@10 --fault router:5@10")).unwrap_err();
        assert!(e.0.contains("already dead"), "{e}");
    }

    /// Help/parser agreement: every `--flag` token the run and fuzz
    /// sections of [`HELP`] mention is known to the matching parser,
    /// and the removed flags are not.
    #[test]
    fn help_and_parsers_agree_on_the_flag_set() {
        fn flags(section: &str) -> impl Iterator<Item = &str> {
            section
                .split_whitespace()
                .filter(|t| t.starts_with("--"))
                .map(|t| t.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()))
        }
        let unknown = |cmd: &str, flag: &str| match parse(&args(&format!("{cmd} {flag}"))) {
            Err(e) => e.0.contains("unknown"),
            Ok(_) => false,
        };
        let (_, rest) = HELP.split_once("OPTIONS (run):").expect("run section");
        let (run, fuzz) = rest.split_once("OPTIONS (fuzz):").expect("fuzz section");
        assert!(flags(run).any(|f| f == "--fault") && flags(fuzz).any(|f| f == "--repro"));
        for flag in flags(run) {
            assert!(!unknown("run", flag), "HELP lists `{flag}`, run rejects it");
        }
        for flag in flags(fuzz) {
            assert!(
                !unknown("fuzz", flag),
                "HELP lists `{flag}`, fuzz rejects it"
            );
        }
        for flag in [
            "--kill-link",
            "--kill-link-at",
            "--fault-notify",
            "--torus",
            "--no-activity-gating",
            "--trace-async",
            "--trace-queue",
            "--trace-policy",
        ] {
            assert!(unknown("run", flag), "`{flag}` was removed");
            assert!(!HELP.contains(flag), "HELP still mentions `{flag}`");
        }
        // Removed from `fuzz` only: `run --metrics-out` stays.
        assert!(unknown("fuzz", "--metrics-out"), "removed from fuzz");
        assert!(flags(fuzz).all(|f| f != "--metrics-out"));
        // A sweep stops at its first failure and shrinks it on a fixed
        // rerun budget.
        for flag in ["--max-failures", "--shrink-budget"] {
            assert!(unknown("fuzz", flag), "`{flag}` was removed");
            assert!(!HELP.contains(flag), "HELP still mentions `{flag}`");
        }
        // Removed from `run` only: `fuzz --threads` batches campaigns.
        assert!(unknown("run", "--threads"), "removed from run");
        assert!(flags(run).all(|f| f != "--threads"));
    }

    /// `run` and `--repro` read one name table per value, so each
    /// accepts the other's names.
    #[test]
    fn run_flags_and_repro_specs_agree_on_names() {
        use ftnoc_check::CampaignParams as Spec;
        let run = |flag: &str, name: &str| run_config(&format!("run --{flag} {name}"));
        let spec = |key: &str, name: &str| Spec::from_spec(&format!("{key}={name}")).unwrap();
        for (name, _) in RoutingAlgorithm::NAMES {
            assert_eq!(run("routing", name).routing, spec("route", name).routing);
        }
        for (name, _) in ErrorScheme::NAMES {
            assert_eq!(run("scheme", name).scheme, spec("scheme", name).scheme);
        }
        for (name, _) in TrafficPattern::NAMES {
            assert_eq!(run("pattern", name).pattern, spec("pat", name).pattern);
        }
        let e = Spec::from_spec("route=warp-drive").unwrap_err();
        assert_eq!(e, r#"unknown routing "warp-drive""#);
    }

    #[test]
    fn fault_aware_routing_aliases_parse() {
        for alias in ["fta", "fault-aware"] {
            let config = run_config(&format!("run --routing {alias}"));
            assert_eq!(config.routing, RoutingAlgorithm::FaultAware);
        }
    }

    #[test]
    fn fuzz_scenario_filter_parses() {
        let Command::Fuzz { plan, .. } = parse(&args("fuzz")).unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(plan.scenario, None);
        let Command::Fuzz { plan, .. } = parse(&args("fuzz --scenario midrun-fault")).unwrap()
        else {
            panic!("expected fuzz");
        };
        assert_eq!(
            plan.scenario,
            Some(ftnoc_check::ScenarioFilter::MidRunFault)
        );
        let e = parse(&args("fuzz --scenario banana")).unwrap_err();
        assert!(e.0.contains("midrun-fault"), "{e}");
    }

    #[test]
    fn observability_flags_parse() {
        let cmd = parse(&args(
            "run --trace out.jsonl --flight-recorder 64 --stats-every 1000 --report-json",
        ))
        .unwrap();
        let Command::Run {
            trace,
            flight_recorder,
            stats_every,
            report_json,
            ..
        } = cmd
        else {
            panic!("expected run");
        };
        assert_eq!(trace.as_deref(), Some(std::path::Path::new("out.jsonl")));
        assert_eq!(flight_recorder, 64);
        assert_eq!(stats_every, 1000);
        assert!(report_json);
    }
}
