//! One timed repetition of a workload, through public functions only, and
//! the checks every repetition must pass.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ftnoc_check::{CampaignParams, Oracle};
use ftnoc_fault::FaultEvent;
use ftnoc_metrics::{IntervalLine, LayoutKind, MetaLine, ProfileSnapshot};
use ftnoc_sim::{Network, SimConfig, SimReport, Simulator, Stepper};
use ftnoc_trace::{JsonlSink, TraceSink, Tracer};

use crate::host;
use crate::output::fnv1a;
use crate::spans::SpanBuf;
use crate::stats::{quiet_floor, Summary};
use crate::workloads::{campaign_router_cycles, Sizing, Workload};

/// Swallows everything written to it and counts it: `observed8` emits
/// ≈17 KB of JSONL per cycle, which a `MemorySink` would hold on to.
#[derive(Debug, Default)]
pub struct CountingWriter {
    pub bytes: u64,
    pub writes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pieces a repetition is cut into, each timed on its own; see
/// [`quiet_floor`].
const PIECES: u64 = 64;

/// Host wall and process CPU time of a repetition, piece by piece, and
/// what a step of the host's clock took beside each piece. Every
/// repetition of a workload and seed does the same work in the same
/// piece.
#[derive(Debug, Clone, Default)]
pub struct Pieces {
    pub wall_ns: Vec<u64>,
    /// All threads (`CLOCK_PROCESS_CPUTIME_ID`).
    pub cpu_ns: Vec<u64>,
    /// [`host::clock_step_ns`]: the smaller of the readings just before
    /// and just after the piece (a disturbed probe reads high).
    pub clock_step_ns: Vec<f64>,
}

impl Pieces {
    /// Wall ns of the repetition at the reference clock.
    pub fn wall_at_reference(&self) -> f64 {
        at_reference(&self.wall_ns, &self.clock_step_ns)
    }

    /// CPU ns of the repetition at the reference clock.
    pub fn cpu_at_reference(&self) -> f64 {
        at_reference(&self.cpu_ns, &self.clock_step_ns)
    }

    pub fn wall(&self) -> (&[u64], &[f64]) {
        (&self.wall_ns, &self.clock_step_ns)
    }

    pub fn cpu(&self) -> (&[u64], &[f64]) {
        (&self.cpu_ns, &self.clock_step_ns)
    }
}

fn at_reference(ns: &[u64], clock_step_ns: &[f64]) -> f64 {
    ns.iter()
        .zip(clock_step_ns)
        .map(|(ns, step)| *ns as f64 / step)
        .sum()
}

/// Times consecutive pieces: each `mark` ends one, reads the clock, and
/// starts the next. The clock probes lie between the pieces, in none.
struct PieceClock {
    pieces: Pieces,
    clock_step_ns: f64,
    wall: Instant,
    cpu: u64,
}

impl PieceClock {
    fn start(capacity: usize) -> PieceClock {
        PieceClock {
            pieces: Pieces {
                wall_ns: Vec::with_capacity(capacity),
                cpu_ns: Vec::with_capacity(capacity),
                clock_step_ns: Vec::with_capacity(capacity),
            },
            clock_step_ns: host::clock_step_ns(),
            cpu: host::cpu_ns(),
            wall: Instant::now(),
        }
    }

    fn mark(&mut self) {
        let (wall, cpu) = (Instant::now(), host::cpu_ns());
        let clock_step_ns = host::clock_step_ns();
        self.pieces
            .wall_ns
            .push((wall - self.wall).as_nanos() as u64);
        self.pieces.cpu_ns.push(cpu - self.cpu);
        self.pieces
            .clock_step_ns
            .push(self.clock_step_ns.min(clock_step_ns));
        self.clock_step_ns = clock_step_ns;
        (self.cpu, self.wall) = (host::cpu_ns(), Instant::now());
    }
}

/// `observed8`'s tracer: JSONL into the counting null writer, and a
/// 256-event flight recorder per router.
fn observing_tracer(config: &SimConfig) -> Tracer<JsonlSink<CountingWriter>> {
    let sink = JsonlSink::new(CountingWriter::default());
    Tracer::new(sink, config.topology.node_count(), 256)
}

/// How a repetition departs from the workload as defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined (`observed8` observes itself).
    Plain,
    /// With the phase profiler armed.
    Profiled,
    /// `observed8` with `Tracer::disabled()`: the base its tracing
    /// overhead is measured against. Elsewhere the same as `Plain`.
    Untraced,
    /// Profiled, compute phase on a two-worker pool.
    Pool2,
}

/// What one repetition of a simulation workload produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host time of the stepping loop.
    pub pieces: Pieces,
    /// Sum of the per-step spans (0 unless spans were recorded).
    pub step_ns: u64,
    pub report: SimReport,
    pub digest: u64,
    pub routers: u64,
    pub flits_injected: u64,
    pub flits_ejected: u64,
    pub active_router_cycles: u64,
    pub profile: Option<ProfileSnapshot>,
    pub fault_events: Vec<FaultEvent>,
    pub intervals: u64,
    pub trace_events: u64,
    pub trace_bytes: u64,
}

impl Rep {
    pub fn router_cycles(&self) -> u64 {
        self.report.cycles * self.routers
    }
}

/// Digest of what was simulated: the report with its host and
/// thread-count echoes blanked, since results are thread-invariant.
pub fn report_digest(report: &SimReport) -> u64 {
    let mut r = report.clone();
    r.threads = 0;
    r.available_parallelism = 0;
    fnv1a(r.to_json().as_bytes())
}

/// The periodic metrics emission of `observed8`: every `every` cycles a
/// telemetry + progress + profile snapshot rendered through the
/// `ftnoc-metrics` line types into a null writer.
struct Emitter {
    every: u64,
    out: CountingWriter,
    prev: (u64, u64, u64),
    intervals: u64,
}

impl Emitter {
    fn new(config: &SimConfig, every: u64) -> Emitter {
        let mut out = CountingWriter::default();
        let meta = MetaLine {
            width: config.topology.width() as usize,
            height: config.topology.height() as usize,
            nodes: config.topology.node_count(),
            topology: LayoutKind::Mesh,
            threads: config.threads,
            available_parallelism: host::nproc(),
            metrics_every: every,
            seed: config.seed,
        };
        if every > 0 {
            let _ = out.write_all(meta.to_json().as_bytes());
        }
        Emitter {
            every,
            out,
            prev: (0, 0, 0),
            intervals: 0,
        }
    }

    fn due(&self, cycle: u64) -> bool {
        self.every > 0 && cycle.is_multiple_of(self.every)
    }

    fn emit<S: TraceSink>(&mut self, st: &Stepper<'_, S>) {
        let progress = st.progress();
        let (p_inj, p_ej, p_lat) = self.prev;
        let line = IntervalLine {
            cycle: progress.now,
            injected: progress.packets_injected,
            ejected: progress.packets_ejected,
            latency_sum: progress.latency_sum,
            d_injected: progress.packets_injected - p_inj,
            d_ejected: progress.packets_ejected - p_ej,
            d_latency_sum: progress.latency_sum - p_lat,
            phase: st.profile_snapshot(),
            routers: st.telemetry(),
        };
        self.prev = (
            progress.packets_injected,
            progress.packets_ejected,
            progress.latency_sum,
        );
        let _ = self.out.write_all(line.to_json().as_bytes());
        self.intervals += 1;
    }
}

/// Calls of each read-only network accessor timed after a traced
/// repetition.
const ACCESSOR_CALLS: u32 = 8;

/// Drives `sim` to its cycle count and collects the repetition, timed in
/// `PIECES` runs of cycles. With `spans`, records one span per
/// `Stepper::step()` and per emission, and afterwards times the network's
/// read-only accessors.
fn drive<S: TraceSink>(
    sim: &mut Simulator<S>,
    config: &SimConfig,
    profile: bool,
    every: u64,
    mut spans: Option<&mut SpanBuf>,
) -> Rep {
    if profile {
        sim.network_mut().enable_profiling();
    }
    let mut emitter = Emitter::new(config, every);
    let mut step_ns = 0;
    let run = spans.as_deref_mut().map(|buf| buf.open("engine.run"));
    let piece = (config.max_cycles / PIECES).max(1);
    let mut clock = PieceClock::start(PIECES as usize + 2);
    let mut last = spans.as_deref().map_or(0, SpanBuf::now);
    // `Simulator::run()` is this call with an empty closure.
    let report = sim.run_instrumented(|st| {
        if let Some(buf) = spans.as_deref_mut() {
            let now = buf.now();
            buf.record("engine.step", last, now - last, 1);
            step_ns += now - last;
            last = now;
        }
        if emitter.due(st.now()) {
            match spans.as_deref_mut() {
                Some(buf) => {
                    buf.time("metrics.interval", 1, || emitter.emit(st));
                    last = buf.now();
                }
                None => emitter.emit(st),
            }
        }
        if st.now().is_multiple_of(piece) {
            clock.mark();
        }
    });
    // The cycles past the last whole piece (none: an empty piece).
    clock.mark();
    if let (Some(buf), Some(run)) = (spans.as_deref_mut(), run) {
        buf.close(run);
    }
    let net = sim.network();
    if let Some(buf) = spans {
        for _ in 0..ACCESSOR_CALLS {
            buf.time("network.snapshot", 1, || {
                std::hint::black_box(net.snapshot());
            });
            buf.time("network.telemetry", 1, || {
                std::hint::black_box(net.telemetry());
            });
            buf.time("network.progress", 1, || {
                std::hint::black_box(net.progress());
            });
            buf.time("network.stats", 1, || {
                std::hint::black_box(net.stats());
            });
        }
    }
    Rep {
        pieces: clock.pieces,
        step_ns,
        digest: report_digest(&report),
        routers: config.topology.node_count() as u64,
        flits_injected: net.flits_injected(),
        flits_ejected: net.flits_ejected(),
        active_router_cycles: net.telemetry().total("computed_cycles").unwrap_or(0),
        profile: net.profile_snapshot(),
        fault_events: net.fault_events().to_vec(),
        intervals: emitter.intervals,
        trace_events: 0,
        trace_bytes: 0,
        report,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Times `build` as a `network.new` span when spans are recorded.
fn timed_new<T>(spans: &mut Option<&mut SpanBuf>, build: impl FnOnce() -> T) -> T {
    match spans.as_deref_mut() {
        Some(buf) => buf.time("network.new", 1, build),
        None => build(),
    }
}

/// Builds a fresh network and runs one repetition of a simulation
/// workload. A panic anywhere inside is the `Err`.
pub fn run_rep(
    w: Workload,
    seed: u64,
    sizing: Sizing,
    variant: Variant,
    mut spans: Option<&mut SpanBuf>,
) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut config = w.sim_config(seed, sizing);
        if variant == Variant::Pool2 {
            config.threads = 2;
        }
        let every = w.observe_every(sizing);
        if w == Workload::Observed8 && variant != Variant::Untraced {
            let tracer = observing_tracer(&config);
            let mut sim = timed_new(&mut spans, || {
                Simulator::with_tracer(config.clone(), tracer)
            });
            let mut rep = drive(&mut sim, &config, true, every, spans);
            let written = sim.into_tracer().into_sink().into_inner();
            rep.trace_events = written.writes;
            rep.trace_bytes = written.bytes;
            rep
        } else {
            let mut sim = timed_new(&mut spans, || Simulator::new(config.clone()));
            let profile =
                w == Workload::Observed8 || matches!(variant, Variant::Profiled | Variant::Pool2);
            drive(&mut sim, &config, profile, every, spans)
        }
    }))
    .map_err(panic_message)
}

/// The output checks of one repetition: the digest repeats, enough was
/// delivered, and a fault-free workload saw no fault. The delivery floors
/// are calibrated for the full-size workloads; a cut run is dominated by
/// packets still in flight and skips them.
pub fn check_rep(
    w: Workload,
    rep: &Rep,
    reference: Option<u64>,
    sizing: Sizing,
) -> Result<(), String> {
    let r = &rep.report;
    if let Some(reference) = reference {
        if rep.digest != reference {
            return Err(format!(
                "digest {:016x} differs from the first repetition's {reference:016x}",
                rep.digest
            ));
        }
    }
    if sizing.div > 1 {
        // No delivery floor on a cut run.
    } else if w == Workload::Sat8 {
        if r.throughput < 0.30 {
            return Err(format!("throughput {} below the 0.30 floor", r.throughput));
        }
    } else if (r.packets_ejected as f64) < 0.90 * r.packets_injected as f64 {
        return Err(format!(
            "delivered {} of {} packets, below the 0.90 floor",
            r.packets_ejected, r.packets_injected
        ));
    }
    if w.is_fault_free() {
        let faults = r.faults_injected.total() + r.flits_lost + rep.fault_events.len() as u64;
        if faults != 0 {
            return Err(format!("{faults} fault events on a fault-free workload"));
        }
    }
    Ok(())
}

/// What one repetition of `fuzz_batch` produced.
#[derive(Debug, Clone)]
pub struct BatchRep {
    /// Host time of the `check()` calls, one piece per campaign.
    pub pieces: Pieces,
    pub router_cycles: u64,
    pub campaigns: u64,
    /// One line per campaign that returned a `Violation`.
    pub violations: Vec<String>,
    pub digest: u64,
}

/// Checks every campaign of the batch, timing only the `check()` calls.
pub fn run_batch(batch: &[CampaignParams]) -> BatchRep {
    let router_cycles = batch.iter().map(campaign_router_cycles).sum();
    let mut violations = Vec::new();
    let mut verdicts = String::new();
    let mut clock = PieceClock::start(batch.len());
    let results: Vec<_> = batch
        .iter()
        .map(|p| {
            let result = p.check();
            clock.mark();
            result
        })
        .collect();
    for (p, result) in batch.iter().zip(results) {
        verdicts.push_str(&p.to_spec());
        match result {
            Ok(()) => verdicts.push_str(" ok\n"),
            Err(v) => {
                verdicts.push_str(&format!(" {v}\n"));
                violations.push(format!("{}: {v}", p.to_spec()));
            }
        }
    }
    BatchRep {
        pieces: clock.pieces,
        router_cycles,
        campaigns: batch.len() as u64,
        violations,
        digest: fnv1a(verdicts.as_bytes()),
    }
}

/// Nanoseconds `build` takes; what it built is dropped untimed.
fn timed_build<T>(build: impl FnOnce() -> T) -> u64 {
    let started = Instant::now();
    let built = build();
    let took = started.elapsed();
    drop(std::hint::black_box(built));
    took.as_nanos() as u64
}

/// Constructions per batch of the set-up measurement.
const SETUP_BATCH: usize = 10;

/// Set-up time: config/plan building plus `Network::new` (plus
/// `Oracle::new` on `fuzz_batch`), in batches of back-to-back
/// constructions, each timed on its own and dropped untimed. The batches
/// are spread between the timed repetitions, so that a slow stretch of the
/// host cannot cover them all. The metric is the quiet-host floor of a
/// batch (a batch is a repetition, a construction a piece, the clock read
/// around the batch), per construction.
pub struct SetupTimer {
    w: Workload,
    seed: u64,
    sizing: Sizing,
    campaigns: Vec<CampaignParams>,
    batches: Vec<Pieces>,
}

impl SetupTimer {
    pub fn new(w: Workload, seed: u64, sizing: Sizing) -> SetupTimer {
        SetupTimer {
            w,
            seed,
            sizing,
            campaigns: w.fuzz_campaigns(seed, sizing),
            batches: Vec::new(),
        }
    }

    /// Nanoseconds one construction of a simulation workload takes.
    fn construct_sim(&self) -> u64 {
        let config = || self.w.sim_config(self.seed, self.sizing);
        if self.w == Workload::Observed8 {
            timed_build(|| {
                let config = config();
                let tracer = observing_tracer(&config);
                Network::with_tracer(config, tracer)
            })
        } else {
            timed_build(|| Network::new(config()))
        }
    }

    fn construct_campaign(p: &CampaignParams) -> u64 {
        timed_build(|| {
            let config = p.to_config().expect("sampled campaigns are valid");
            (Oracle::new(&config), Network::new(config))
        })
    }

    /// One batch: ten constructions of a simulation workload, or one of
    /// every campaign of the `fuzz_batch` batch.
    pub fn batch(&mut self) {
        let before = host::clock_step_ns();
        let wall_ns: Vec<u64> = if self.w.is_sim() {
            (0..SETUP_BATCH).map(|_| self.construct_sim()).collect()
        } else {
            self.campaigns
                .iter()
                .map(Self::construct_campaign)
                .collect()
        };
        let clock_step_ns = before.min(host::clock_step_ns());
        self.batches.push(Pieces {
            clock_step_ns: vec![clock_step_ns; wall_ns.len()],
            wall_ns,
            cpu_ns: Vec::new(),
        });
    }

    /// Seconds per construction at the reference clock: the floor, with
    /// the summary of the batch means.
    pub fn summary(&self) -> Option<Summary> {
        let constructions = self.batches.first()?.wall_ns.len() as f64;
        let seconds = |batch_ns: f64| batch_ns / 1e9 / constructions;
        let means: Vec<f64> = self
            .batches
            .iter()
            .map(|batch| seconds(batch.wall_at_reference()))
            .collect();
        let floor = quiet_floor(self.batches.iter().map(Pieces::wall))?;
        Some(Summary::of(&means)?.with_value(seconds(floor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CUT: Sizing = Sizing { div: 100 };

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        for w in Workload::ALL.into_iter().filter(|w| w.is_sim()) {
            let a = run_rep(w, 1, CUT, Variant::Plain, None).unwrap();
            let b = run_rep(w, 1, CUT, Variant::Plain, None).unwrap();
            let c = run_rep(w, 2, CUT, Variant::Plain, None).unwrap();
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_ne!(a.digest, c.digest, "{}", w.name());
            assert_eq!(a.report.cycles, w.cycles(CUT));
            assert!(a.pieces.wall_at_reference() > 0.0 && a.router_cycles() > 0);
            assert_eq!(a.pieces.wall_ns.len(), a.pieces.cpu_ns.len());
            assert_eq!(a.pieces.wall_ns.len(), a.pieces.clock_step_ns.len());
            assert_eq!(a.pieces.wall_ns.len(), b.pieces.wall_ns.len());
        }
        let w = Workload::FuzzBatch;
        let a = run_batch(&w.fuzz_campaigns(1, CUT));
        let b = run_batch(&w.fuzz_campaigns(1, CUT));
        let c = run_batch(&w.fuzz_campaigns(2, CUT));
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.campaigns, w.campaigns(CUT));
    }

    #[test]
    fn observation_profiling_and_the_pool_do_not_perturb_the_digest() {
        for w in [Workload::Observed8, Workload::Sat8] {
            let plain = run_rep(w, 3, CUT, Variant::Plain, None).unwrap();
            for variant in [Variant::Profiled, Variant::Untraced, Variant::Pool2] {
                let other = run_rep(w, 3, CUT, variant, None).unwrap();
                assert_eq!(plain.digest, other.digest, "{} {variant:?}", w.name());
            }
            let mut spans = SpanBuf::with_capacity(4096);
            let traced = run_rep(w, 3, CUT, Variant::Profiled, Some(&mut spans)).unwrap();
            assert_eq!(plain.digest, traced.digest);
            assert_eq!(
                spans.durations("engine.step").len() as u64,
                w.cycles(CUT),
                "one span per step"
            );
            assert_eq!(traced.step_ns, spans.self_total("engine.step").0);
            assert!(traced.profile.is_some());
            assert_eq!(spans.durations("network.snapshot").len(), 8);
        }
        let observed = run_rep(Workload::Observed8, 3, CUT, Variant::Plain, None).unwrap();
        assert!(observed.trace_events > 0 && observed.trace_bytes > observed.trace_events);
        let emissions = Workload::Observed8.cycles(CUT) / Workload::Observed8.observe_every(CUT);
        assert_eq!(observed.intervals, emissions);
        let bare = run_rep(Workload::Observed8, 3, CUT, Variant::Untraced, None).unwrap();
        assert_eq!((bare.trace_events, bare.intervals), (0, emissions));
    }

    #[test]
    fn checks_catch_a_foreign_digest_and_faults_where_none_belong() {
        let w = Workload::Sparse8;
        let full = Sizing::FULL;
        let mut rep = run_rep(w, 1, Sizing { div: 10 }, Variant::Plain, None).unwrap();
        assert_eq!(check_rep(w, &rep, Some(rep.digest), full), Ok(()));
        assert!(check_rep(w, &rep, Some(rep.digest ^ 1), full)
            .unwrap_err()
            .contains("digest"));
        rep.report.faults_injected.link = 1;
        assert!(check_rep(w, &rep, None, full)
            .unwrap_err()
            .contains("fault"));
        rep.report.faults_injected.link = 0;
        rep.report.packets_ejected = rep.report.packets_injected / 2;
        assert!(check_rep(w, &rep, None, full)
            .unwrap_err()
            .contains("floor"));
        assert_eq!(check_rep(w, &rep, None, CUT), Ok(()));
        rep.report.throughput = 0.1;
        assert!(check_rep(Workload::Sat8, &rep, None, full)
            .unwrap_err()
            .contains("0.30"));
    }

    #[test]
    fn faulted8_sees_its_faults_even_cut_short() {
        let rep = run_rep(
            Workload::Faulted8,
            1,
            Sizing { div: 10 },
            Variant::Plain,
            None,
        )
        .unwrap();
        assert!(rep.fault_events.len() >= 2, "{:?}", rep.fault_events);
        assert!(rep.report.faults_injected.link > 0);
        assert!(rep.report.errors.link_recovered_by_replay > 0);
    }

    #[test]
    fn setup_is_measured_on_every_workload() {
        for w in Workload::ALL {
            let mut setup = SetupTimer::new(w, 1, CUT);
            assert_eq!(setup.summary(), None);
            for _ in 0..3 {
                setup.batch();
            }
            let s = setup.summary().unwrap();
            assert!(s.min > 0.0 && s.n == 3, "{}", w.name());
            assert!(s.value > 0.0 && s.value <= s.max, "{}", w.name());
        }
    }
}
