//! The two runs of a workload: the end-to-end run, with the benchmark's
//! spans and the profiler off, and the traced run that gives the
//! per-layer numbers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ftnoc_check::{CampaignParams, Oracle, Violation};
use ftnoc_sim::Network;

use crate::host;
use crate::measure::{check_rep, run_batch, run_rep, BatchRep, Pieces, Rep, SetupTimer, Variant};
use crate::micro;
use crate::output::RunResult;
use crate::spans::SpanBuf;
use crate::stats::{percentile, quiet_floor, Summary};
use crate::workloads::{campaign_router_cycles, Sizing, Workload};

/// A run measures at least this many repetitions, however slow the host.
const MIN_REPS: usize = 3;

/// Runs `rep` until `budget` has passed, and at least `MIN_REPS` times.
fn repeat_for(budget: Duration, mut rep: impl FnMut()) {
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed() < budget {
        rep();
        reps += 1;
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> Option<Summary> {
    Summary::of(&values.collect::<Vec<_>>())
}

/// Quiet-host wall time of one of `reps`, in ns at the reference clock.
fn floor_wall<'a>(reps: impl IntoIterator<Item = &'a Pieces>) -> Option<f64> {
    quiet_floor(reps.into_iter().map(Pieces::wall))
}

/// The host-time end-to-end metrics of untraced repetitions that each
/// simulated `router_cycles` and completed `ops` of the workload's
/// operation (`rate` names the metric: flits ejected, or campaigns).
/// Each reports the repetitions' quiet-host floor; the summary beside it
/// is of the repetitions as they ran. Both are at the reference clock.
fn put_host_time(
    r: &mut RunResult,
    reps: &[&Pieces],
    router_cycles: u64,
    rate: &'static str,
    ops: u64,
) {
    let (Some(wall), Some(cpu)) = (
        floor_wall(reps.iter().copied()),
        quiet_floor(reps.iter().map(|p| p.cpu())),
    ) else {
        return;
    };
    let (work, ops) = (router_cycles as f64, ops as f64);
    let floored = |per_rep: Vec<f64>, floor| Summary::of(&per_rep).map(|s| s.with_value(floor));
    let walls = reps.iter().map(|p| p.wall_at_reference());
    let cpus = reps.iter().map(|p| p.cpu_at_reference());
    r.put(
        "ns_per_router_cycle",
        floored(walls.clone().map(|ns| ns / work).collect(), wall / work),
    );
    r.put(
        "cpu_ns_per_router_cycle",
        floored(cpus.map(|ns| ns / work).collect(), cpu / work),
    );
    r.put(
        rate,
        floored(walls.map(|ns| ops * 1e9 / ns).collect(), ops * 1e9 / wall),
    );
    // What the host's clock did meanwhile: a raw ns is a reported ns
    // times this.
    let steps = reps.iter().flat_map(|p| p.clock_step_ns.iter().copied());
    r.put("bench.clock_step_ns", median_of(steps));
}

fn put_sim_end_to_end(r: &mut RunResult, reps: &[Rep]) {
    let Some(first) = reps.first() else { return };
    let pieces: Vec<&Pieces> = reps.iter().map(|rep| &rep.pieces).collect();
    put_host_time(
        r,
        &pieces,
        first.router_cycles(),
        "flits_per_s",
        first.flits_ejected,
    );
    r.put_value("sim_avg_latency_cycles", first.report.avg_latency);
    r.put_value("sim_throughput_flits_node_cycle", first.report.throughput);
}

fn put_fuzz_end_to_end(r: &mut RunResult, reps: &[BatchRep]) {
    let Some(first) = reps.first() else { return };
    let pieces: Vec<&Pieces> = reps.iter().map(|rep| &rep.pieces).collect();
    put_host_time(
        r,
        &pieces,
        first.router_cycles,
        "campaigns_per_s",
        first.campaigns,
    );
}

/// How far apart the repetitions ran: the host's noise during the run.
fn put_rep_spread(r: &mut RunResult) {
    if let Some(ns) = r.get("ns_per_router_cycle").filter(|s| s.n > 1) {
        r.put_value("bench.rep_spread", ns.spread());
    }
}

fn put_failed_share(r: &mut RunResult) {
    if r.attempted > 0 {
        r.put_value("failed_share", r.failed as f64 / r.attempted as f64);
    }
}

/// One checked repetition of a simulation workload: counts the operation,
/// fails it on a panic or a failed check, keeps it otherwise. The first
/// repetition kept sets the digest the others must repeat.
fn checked_rep(
    r: &mut RunResult,
    reference: &mut Option<u64>,
    sizing: Sizing,
    variant: Variant,
    spans: Option<&mut SpanBuf>,
) -> Option<Rep> {
    r.attempted += 1;
    let rep = match run_rep(r.workload, r.seed, sizing, variant, spans) {
        Ok(rep) => rep,
        Err(panic) => {
            r.fail(format!("repetition panicked: {panic}"));
            return None;
        }
    };
    if let Err(why) = check_rep(r.workload, &rep, *reference, sizing) {
        r.fail(format!("{variant:?} repetition: {why}"));
        return None;
    }
    reference.get_or_insert(rep.digest);
    Some(rep)
}

fn checked_batch(
    r: &mut RunResult,
    reference: &mut Option<u64>,
    batch: &[CampaignParams],
) -> BatchRep {
    let rep = run_batch(batch);
    r.attempted += rep.campaigns;
    for violation in &rep.violations {
        r.fail(format!("violation: {violation}"));
    }
    if reference.is_some_and(|d| d != rep.digest) {
        r.fail("batch verdicts differ from the first repetition's".to_string());
    }
    reference.get_or_insert(rep.digest);
    rep
}

/// Set-up batches before each timed repetition.
const SETUP_BATCHES_PER_REP: usize = 3;

/// The end-to-end run: one discarded short warm-up, then timed
/// repetitions of fixed simulated work for about `seconds`, with the
/// set-up batches in between.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, sizing: Sizing) -> RunResult {
    let mut r = RunResult::new(w, seed, false);
    let budget = Duration::from_secs_f64(seconds);
    let mut setup = SetupTimer::new(w, seed, sizing);
    let warm_up = Sizing {
        div: sizing.div * 10,
    };
    let mut reference = None;
    if w.is_sim() {
        let _ = run_rep(w, seed, warm_up, Variant::Plain, None);
        let mut reps = Vec::new();
        repeat_for(budget, || {
            (0..SETUP_BATCHES_PER_REP).for_each(|_| setup.batch());
            reps.extend(checked_rep(
                &mut r,
                &mut reference,
                sizing,
                Variant::Plain,
                None,
            ));
        });
        put_sim_end_to_end(&mut r, &reps);
    } else {
        let _ = run_batch(&w.fuzz_campaigns(seed, warm_up));
        let batch = w.fuzz_campaigns(seed, sizing);
        let mut reps = Vec::new();
        repeat_for(budget, || {
            (0..SETUP_BATCHES_PER_REP).for_each(|_| setup.batch());
            reps.push(checked_batch(&mut r, &mut reference, &batch));
        });
        put_fuzz_end_to_end(&mut r, &reps);
    }
    r.put("setup_s", setup.summary());
    r.digest = format!("{:016x}", reference.unwrap_or(0));
    r.put_value("peak_rss_mib", host::peak_rss_mib());
    put_failed_share(&mut r);
    put_rep_spread(&mut r);
    r
}

/// Share of a traced run's budget spent on the alternating
/// (untraced, traced) repetitions; the rest goes to the workload's extra
/// repetitions and the micro-loops.
const PAIRS_SHARE: f64 = 0.7;

/// (plain, variant) pairs of a workload's extra repetitions.
const EXTRA_PAIRS: usize = 4;

/// Spans the buffer holds: one per step of every traced repetition the
/// budget can fit, with room to spare.
const SPAN_CAPACITY: usize = 600_000;

/// The traced run: per-layer metrics from spans placed around public
/// calls and from the engine's own phase profiler.
pub fn traced(w: Workload, seed: u64, seconds: f64, sizing: Sizing) -> (RunResult, SpanBuf) {
    let mut r = RunResult::new(w, seed, true);
    let mut spans = SpanBuf::with_capacity(SPAN_CAPACITY);
    let budget = Duration::from_secs_f64(seconds * PAIRS_SHARE);
    let root = spans.open("bench.workload");
    if w.is_sim() {
        traced_sim(&mut r, &mut spans, budget, sizing);
    } else {
        traced_fuzz(&mut r, &mut spans, budget, sizing);
    }
    spans.close(root);
    put_failed_share(&mut r);
    put_rep_spread(&mut r);
    if spans.dropped > 0 {
        r.notes.push(format!(
            "{} spans dropped: the span buffer was full",
            spans.dropped
        ));
    }
    (r, spans)
}

fn rep_floor_wall(reps: &[Rep]) -> Option<f64> {
    floor_wall(reps.iter().map(|rep| &rep.pieces))
}

fn traced_sim(r: &mut RunResult, spans: &mut SpanBuf, budget: Duration, sizing: Sizing) {
    let w = r.workload;
    let mut reference = None;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    repeat_for(budget, || {
        let rep = spans.open("bench.untraced_rep");
        plain.extend(checked_rep(r, &mut reference, sizing, Variant::Plain, None));
        spans.close(rep);
        let rep = spans.open("bench.traced_rep");
        traced.extend(checked_rep(
            r,
            &mut reference,
            sizing,
            Variant::Profiled,
            Some(&mut *spans),
        ));
        spans.close(rep);
    });
    r.digest = format!("{:016x}", reference.unwrap_or(0));
    put_sim_end_to_end(r, &plain);
    if let (Some(untraced), Some(traced)) = (rep_floor_wall(&plain), rep_floor_wall(&traced)) {
        r.put_value("bench.traced_overhead_ratio", traced / untraced);
    }

    // Extra repetitions: what only one workload can show. Each alternates
    // with a plain repetition, so that the two floors of a ratio see the
    // same host and choose from as many repetitions.
    let mut versus_plain = |r: &mut RunResult, variant| -> Option<(f64, f64, Vec<Rep>)> {
        let (mut base, mut other) = (Vec::new(), Vec::new());
        for _ in 0..EXTRA_PAIRS {
            base.extend(checked_rep(r, &mut reference, sizing, Variant::Plain, None));
            other.extend(checked_rep(r, &mut reference, sizing, variant, None));
        }
        Some((rep_floor_wall(&base)?, rep_floor_wall(&other)?, other))
    };
    match w {
        Workload::Sparse8 => {
            if let Some((plain, profiled, _)) = versus_plain(r, Variant::Profiled) {
                r.put_value("metrics.profiler_overhead_ratio", profiled / plain);
            }
        }
        Workload::Observed8 => {
            // Here the workload itself traces: the base is its tracer off.
            if let (Some((observed, base, _)), Some(rep)) =
                (versus_plain(r, Variant::Untraced), plain.first())
            {
                r.put_value("trace.overhead_ratio", observed / base);
                r.put_value(
                    "trace.ns_per_event",
                    (observed - base) / rep.trace_events as f64,
                );
            }
        }
        Workload::Sat8 | Workload::Sparse16 if host::nproc() >= 2 => {
            if let Some((serial, pool, reps)) = versus_plain(r, Variant::Pool2) {
                r.put_value("engine.pool2_ratio", pool / serial);
                r.put(
                    "engine.pool2_barrier_share",
                    median_of(reps.iter().filter_map(|rep| {
                        let p = rep.profile.as_ref()?;
                        Some(p.barrier_ns() as f64 / (p.barrier_ns() + p.compute_ns()) as f64)
                    })),
                );
            }
        }
        _ => {}
    }

    put_engine_layers(r, spans, &traced);
    let Some(first) = traced.first() else { return };
    put_counts(r, first);

    // Micro-loops over the layers under the stepping loop.
    let config = w.sim_config(r.seed, sizing);
    let timeline = micro::realised_timeline(&config, &first.fault_events);
    micro::ecc(spans, r.seed);
    micro::retx_buffer(spans, r.seed);
    micro::ac_check(spans, r.seed);
    micro::traffic_draw(spans, &config);
    micro::routing_candidates(spans, &config, &timeline);
    if w == Workload::Faulted8 {
        r.put_value("routing.epochs", timeline.epoch_count() as f64);
        micro::routing_plan_build(spans, config.topology, &timeline);
        micro::fault_plan_lower(spans, &w.fault_specs(sizing), config.topology);
    }
    for (metric, span) in [
        ("network.new_ns", "network.new"),
        ("network.snapshot_ns", "network.snapshot"),
        ("network.telemetry_ns", "network.telemetry"),
        ("network.progress_ns", "network.progress"),
        ("network.stats_ns", "network.stats"),
        ("routing.plan_build_ns", "routing.plan_build"),
        ("routing.candidates_ns", "routing.candidates"),
        ("fault.plan_lower_ns", "fault.plan_lower"),
        ("core.retx_buffer_ns", "core.retx_buffer"),
        ("core.ac_check_ns", "core.ac_check"),
        ("ecc.encode_ns", "ecc.encode"),
        ("ecc.decode_ns", "ecc.decode"),
        ("traffic.draw_ns", "traffic.draw"),
        ("metrics.interval_ns", "metrics.interval"),
    ] {
        r.put(metric, spans.self_ns_per_call(span).map(Summary::single));
    }
}

/// What the phase profiler of one traced repetition says.
fn engine_phases(rep: &Rep) -> Option<[(&'static str, f64); 7]> {
    let p = rep.profile.as_ref()?;
    let (pre, compute, commit) = (p.pre_ns as f64, p.compute_ns() as f64, p.commit_ns as f64);
    let cycles = rep.report.cycles as f64;
    let attributed = pre + compute + commit;
    Some([
        ("engine.pre_ns_per_cycle", pre / cycles),
        ("engine.compute_ns_per_cycle", compute / cycles),
        ("engine.commit_ns_per_cycle", commit / cycles),
        (
            "engine.unattributed_share",
            1.0 - attributed / rep.step_ns as f64,
        ),
        ("engine.serial_share", (pre + commit) / attributed),
        (
            "engine.compute_ns_per_active_router_cycle",
            compute / rep.active_router_cycles as f64,
        ),
        (
            "router.compute_ns_per_link_traversal",
            compute / rep.report.events.link as f64,
        ),
    ])
}

/// The engine's phases, as medians over the traced repetitions, and the
/// per-step spans.
fn put_engine_layers(r: &mut RunResult, spans: &SpanBuf, traced: &[Rep]) {
    let rows: Vec<_> = traced.iter().filter_map(engine_phases).collect();
    for column in 0..rows.first().map_or(0, |row| row.len()) {
        r.put(
            rows[0][column].0,
            median_of(rows.iter().map(|row| row[column].1)),
        );
    }
    if let Some(share) = r
        .get("engine.unattributed_share")
        .filter(|s| s.value > 0.05)
    {
        r.notes.push(format!(
            "warning: engine.unattributed_share {:.3}: pre + compute + commit cover less \
             than 95% of the stepping wall",
            share.value
        ));
    }
    let mut steps = spans.durations("engine.step");
    if !steps.is_empty() {
        r.put_value("engine.step_ns_p50", percentile(&mut steps, 0.50) as f64);
        r.put_value("engine.step_ns_p99", percentile(&mut steps, 0.99) as f64);
        r.put_value("engine.step_ns_max", percentile(&mut steps, 1.0) as f64);
    }
}

/// The counts: exact, the same in every repetition of a seed.
fn put_counts(r: &mut RunResult, rep: &Rep) {
    let (ev, er, fc) = (
        &rep.report.events,
        &rep.report.errors,
        &rep.report.faults_injected,
    );
    r.put_value(
        "engine.skip_rate",
        1.0 - rep.active_router_cycles as f64 / rep.router_cycles() as f64,
    );
    let counts = [
        ("engine.active_router_cycles", rep.active_router_cycles),
        ("router.route_ops", ev.route),
        ("router.va_ops", ev.va),
        ("router.sa_ops", ev.sa),
        ("router.crossbar_traversals", ev.crossbar),
        ("router.buffer_writes", ev.buffer_write),
        ("router.buffer_reads", ev.buffer_read),
        ("router.link_traversals", ev.link),
        ("router.ac_checks", ev.ac_check),
        ("fault.link_upsets", fc.link),
        ("fault.multi_bit_upsets", fc.link_multi_bit),
        ("fault.hard_events", rep.fault_events.len() as u64),
        ("fault.flits_lost", rep.report.flits_lost),
        ("core.retransmissions", ev.retransmission),
        ("core.nacks", ev.nack),
        ("core.retrans_shifts", ev.retrans_shift),
        ("core.recovered_by_replay", er.link_recovered_by_replay),
        ("core.probes_sent", er.probes_sent),
        ("core.deadlocks_confirmed", er.deadlocks_confirmed),
        ("ecc.checks", ev.ecc_check),
        ("ecc.corrected_inline", er.link_corrected_inline),
        ("traffic.packets_injected", rep.report.packets_injected),
        ("traffic.flits_injected", rep.flits_injected),
    ];
    for (name, value) in counts {
        r.put_value(name, value as f64);
    }
    if r.workload == Workload::Observed8 {
        r.put_value("trace.events", rep.trace_events as f64);
        r.put_value("trace.bytes", rep.trace_bytes as f64);
        r.put_value("metrics.intervals", rep.intervals as f64);
    }
}

/// `run_campaign`'s loop replayed from outside, with a span around each
/// public call. Per-cycle calls are summed into one span per campaign.
/// Returns the campaign's wall ns beside its verdict.
fn replica_campaign(spans: &mut SpanBuf, p: &CampaignParams) -> (u64, Result<(), Violation>) {
    let campaign = spans.open("check.campaign");
    let config = spans.time("check.to_config", 1, || p.to_config());
    let result = match config {
        Err(e) => Err(Violation {
            cycle: 0,
            node: None,
            invariant: "config",
            detail: e.to_string(),
        }),
        Ok(config) => {
            let mut oracle = spans.time("check.oracle_new", 1, || Oracle::new(&config));
            let mut net = spans.time("network.new", 1, || Network::new(config));
            let (mut step_ns, mut snapshot_ns, mut oracle_ns) = (0, 0, 0);
            let started = spans.now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                net.with_stepper(p.threads, |st| {
                    for _ in 0..p.cycles {
                        let t0 = Instant::now();
                        st.step();
                        let t1 = Instant::now();
                        let snapshot = st.snapshot();
                        let t2 = Instant::now();
                        let verdict = oracle.check(&snapshot);
                        let t3 = Instant::now();
                        // Freeing the snapshot is part of what it costs.
                        drop(snapshot);
                        let t4 = Instant::now();
                        step_ns += (t1 - t0).as_nanos() as u64;
                        snapshot_ns += ((t2 - t1) + (t4 - t3)).as_nanos() as u64;
                        oracle_ns += (t3 - t2).as_nanos() as u64;
                        verdict?;
                    }
                    Ok(())
                })
            }));
            let cycles = p.cycles as u32;
            spans.record("check.step", started, step_ns, cycles);
            spans.record("network.snapshot", started + step_ns, snapshot_ns, cycles);
            spans.record(
                "check.oracle",
                started + step_ns + snapshot_ns,
                oracle_ns,
                cycles,
            );
            outcome.unwrap_or_else(|_| {
                Err(Violation {
                    cycle: 0,
                    node: None,
                    invariant: "panic",
                    detail: "the replica loop panicked".to_string(),
                })
            })
        }
    };
    (spans.close(campaign), result)
}

fn traced_fuzz(r: &mut RunResult, spans: &mut SpanBuf, budget: Duration, sizing: Sizing) {
    let batch = r.workload.fuzz_campaigns(r.seed, sizing);
    let router_cycles: u64 = batch.iter().map(campaign_router_cycles).sum();
    let mut reference = None;
    let mut checked = Vec::new();
    let mut replicas: Vec<Pieces> = Vec::new();
    let mut violations = 0u64;
    repeat_for(budget, || {
        let rep = spans.open("bench.untraced_rep");
        checked.push(checked_batch(r, &mut reference, &batch));
        spans.close(rep);
        let rep = spans.open("bench.traced_rep");
        let mut replica = Pieces::default();
        let mut clock_step_ns = host::clock_step_ns();
        for p in &batch {
            r.attempted += 1;
            let (wall_ns, result) = replica_campaign(spans, p);
            replica.wall_ns.push(wall_ns);
            let before = std::mem::replace(&mut clock_step_ns, host::clock_step_ns());
            replica.clock_step_ns.push(before.min(clock_step_ns));
            if let Err(v) = result {
                violations += 1;
                r.fail(format!("replica violation: {}: {v}", p.to_spec()));
            }
        }
        replicas.push(replica);
        spans.close(rep);
    });
    r.digest = format!("{:016x}", reference.unwrap_or(0));
    put_fuzz_end_to_end(r, &checked);
    r.put_value("check.violations", violations as f64);
    micro::check_sample(spans, r.seed);

    let check_wall = floor_wall(checked.iter().map(|b| &b.pieces));
    if let (Some(check), Some(replica)) = (check_wall, floor_wall(&replicas)) {
        let ratio = replica / check;
        r.put_value("check.replica_ratio", ratio);
        r.put_value("bench.traced_overhead_ratio", ratio);
        if !(0.9..=1.1).contains(&ratio) {
            r.notes.push(format!(
                "warning: check.replica_ratio {ratio:.3} is outside 0.9-1.1: the \
                 fuzz_batch shares are unreliable"
            ));
        }
    }
    let reps = replicas.len() as f64;
    let (campaign_own, _) = spans.self_total("check.campaign");
    let (step, _) = spans.self_total("check.step");
    let (snapshot, _) = spans.self_total("network.snapshot");
    let (oracle, _) = spans.self_total("check.oracle");
    let others = ["check.to_config", "check.oracle_new", "network.new"]
        .map(|name| spans.self_total(name).0)
        .iter()
        .sum::<u64>();
    let total = (campaign_own + step + snapshot + oracle + others) as f64;
    r.put_value("check.step_share", step as f64 / total);
    r.put_value("check.snapshot_share", snapshot as f64 / total);
    r.put_value("check.oracle_share", oracle as f64 / total);
    r.put_value("check.other_share", (campaign_own + others) as f64 / total);
    let per_router_cycle = reps * router_cycles as f64;
    r.put_value(
        "check.snapshot_ns_per_router_cycle",
        snapshot as f64 / per_router_cycle,
    );
    r.put_value(
        "check.oracle_ns_per_router_cycle",
        oracle as f64 / per_router_cycle,
    );
    for (metric, span) in [
        ("check.sample_ns", "check.sample"),
        ("check.oracle_new_ns", "check.oracle_new"),
        ("network.new_ns", "network.new"),
        ("network.snapshot_ns", "network.snapshot"),
    ] {
        r.put(metric, spans.self_ns_per_call(span).map(Summary::single));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{self, Kind};

    const CUT: Sizing = Sizing { div: 100 };

    #[test]
    fn end_to_end_reports_every_metric_defined_on_the_workload() {
        for w in Workload::ALL {
            let r = end_to_end(w, 1, 0.0, CUT);
            assert!(r.correct(), "{}: {:?}", w.name(), r.notes);
            assert!(r.attempted >= MIN_REPS as u64);
            for def in catalog::END_TO_END {
                let defined = def.on.contains(&w.name());
                assert_eq!(
                    r.get(def.name).is_some(),
                    defined,
                    "{} on {}",
                    def.name,
                    w.name()
                );
            }
            for def in catalog::driver_end_to_end() {
                assert!(r.get(def.name).unwrap().value > 0.0, "{}", def.name);
            }
            assert_eq!(r.digest.len(), 16);
        }
    }

    #[test]
    fn traced_run_reports_its_layers_and_matches_the_untraced_digest() {
        for w in Workload::ALL {
            let untraced = end_to_end(w, 4, 0.0, CUT);
            let (r, spans) = traced(w, 4, 0.0, CUT);
            assert_eq!(r.digest, untraced.digest, "{}", w.name());
            assert_eq!(spans.dropped, 0);
            assert!(r.get("bench.traced_overhead_ratio").is_some());
            let expected: &[&str] = match w {
                Workload::FuzzBatch => &[
                    "check.step_share",
                    "check.snapshot_share",
                    "check.oracle_share",
                    "check.other_share",
                    "check.replica_ratio",
                    "check.violations",
                    "check.sample_ns",
                    "check.oracle_new_ns",
                    "network.new_ns",
                    "network.snapshot_ns",
                    "campaigns_per_s",
                ],
                _ => &[
                    "engine.pre_ns_per_cycle",
                    "engine.serial_share",
                    "engine.step_ns_max",
                    "engine.skip_rate",
                    "router.va_ops",
                    "network.new_ns",
                    "network.stats_ns",
                    "core.ac_check_ns",
                    "ecc.decode_ns",
                    "traffic.draw_ns",
                    "routing.candidates_ns",
                    "flits_per_s",
                    "sim_avg_latency_cycles",
                ],
            };
            for name in expected {
                assert!(r.get(name).is_some(), "{name} on {}", w.name());
            }
            if w == Workload::FuzzBatch {
                let shares: f64 = ["step", "snapshot", "oracle", "other"]
                    .iter()
                    .map(|s| r.get(&format!("check.{s}_share")).unwrap().value)
                    .sum();
                assert!((shares - 1.0).abs() < 1e-9, "{shares}");
            }
            let only_on = |name: &str, home: Workload| {
                assert_eq!(r.get(name).is_some(), w == home, "{name} on {}", w.name());
            };
            only_on("trace.events", Workload::Observed8);
            only_on("trace.overhead_ratio", Workload::Observed8);
            only_on("metrics.interval_ns", Workload::Observed8);
            only_on("metrics.profiler_overhead_ratio", Workload::Sparse8);
            only_on("routing.plan_build_ns", Workload::Faulted8);
            only_on("fault.plan_lower_ns", Workload::Faulted8);
            if w.is_fault_free() && w.is_sim() {
                for name in ["fault.link_upsets", "fault.hard_events", "fault.flits_lost"] {
                    assert_eq!(r.get(name).unwrap().value, 0.0, "{name}");
                }
            }
        }
    }

    #[test]
    fn exact_metrics_repeat_bit_for_bit() {
        let (a, _) = traced(Workload::Faulted8, 9, 0.0, CUT);
        let (b, _) = traced(Workload::Faulted8, 9, 0.0, CUT);
        let mut compared = 0;
        for (name, value) in &a.metrics {
            if catalog::find(name).unwrap().kind == Kind::Exact {
                assert_eq!(Some(*value), b.get(name), "{name}");
                compared += 1;
            }
        }
        assert!(compared > 20);
    }
}
