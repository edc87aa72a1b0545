//! No text input may panic the program. Seeded byte mutations of valid
//! inputs go through every parser the CLI reads text with: the `--repro`
//! spec (and the configuration an accepted one builds), the `--fault`
//! grammar (and the plan checks behind it), `--topology` values, and
//! metrics files under `ftnoc report`. Each call must return, `Ok` or
//! `Err`, and every accepted reproducer spec must round-trip through
//! `to_spec`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ftnoc::check::CampaignParams;
use ftnoc::cli;
use ftnoc::metrics::{report, RouterTelemetry};
use ftnoc::metrics_io::MetricsEmitter;
use ftnoc::prelude::*;
use ftnoc_rng::Rng;

/// Bytes the grammars are made of, so a mutation often lands near a
/// valid input rather than failing on its first byte.
const ALPHABET: &[u8] = b"0123456789,=:@x.-+e{}[]\" acdeiklmnorstuw";

/// One to four edits of `text`: overwrite, insert or delete a byte,
/// duplicate or drop a run of up to eight bytes, or truncate. Half the
/// new bytes come from [`ALPHABET`], half are arbitrary (invalid UTF-8
/// reads as U+FFFD).
fn mutate(r: &mut Rng, text: &str) -> String {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..r.gen_range(1..5u32) {
        let at = r.gen_range(0..b.len() + 1);
        let end = (at + r.gen_range(1..9usize)).min(b.len());
        let byte = if r.gen_bool(0.5) {
            ALPHABET[r.gen_range(0..ALPHABET.len())]
        } else {
            r.next_u64() as u8
        };
        match r.gen_range(0..7u32) {
            0 | 1 if at < b.len() => b[at] = byte,
            2 => b.insert(at, byte),
            3 if at < b.len() => _ = b.remove(at),
            4 => {
                let run = b[at..end].to_vec();
                b.splice(at..at, run);
            }
            5 => _ = b.drain(at..end),
            6 => b.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Runs `f` on `count` mutations of each seed input and fails, naming
/// the input, on the first one that panics.
fn sweep(stream: u64, seeds: &[String], count: usize, mut f: impl FnMut(&str)) {
    let mut r = Rng::seed_from_u64_stream(0x7E47, stream);
    for seed in seeds {
        for _ in 0..count {
            let input = mutate(&mut r, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| f(&input)));
            assert!(outcome.is_ok(), "panicked on {input:?}");
        }
    }
}

#[test]
fn mutated_repro_specs_never_panic_and_round_trip() {
    let seeds: Vec<String> = (0..50)
        .map(|i| CampaignParams::sample(1, i).to_spec())
        .collect();
    let mut accepted = 0;
    sweep(1, &seeds, 4_000, |spec| {
        let Ok(p) = CampaignParams::from_spec(spec) else {
            return;
        };
        accepted += 1;
        assert_eq!(
            CampaignParams::from_spec(&p.to_spec()),
            Ok(p.clone()),
            "{spec:?} did not round-trip"
        );
        if p.width <= 8 && p.height <= 8 {
            let _ = p.to_config();
        }
    });
    println!("{accepted} of 200 000 mutated specs accepted");
    assert!(accepted > 10_000, "only {accepted} mutated specs parsed");
}

#[test]
fn mutated_fault_specs_never_panic() {
    let seeds = [
        "link:27:e",
        "link:5:e@10",
        "link:36:s@100",
        "router:10@50",
        "router:0",
        "wearout:300:4",
        "wearout:60",
        "notify:4",
    ]
    .map(String::from);
    let topo = Topology::mesh(8, 8);
    sweep(2, &seeds, 10_000, |spec| {
        let mut plan = FaultPlan::new();
        // A second, valid fault beside the mutated one exercises the
        // checks between specs (already dead, disconnecting).
        plan.add_spec("link:28:s@40").expect("valid fault spec");
        if plan.add_spec(spec).is_err() {
            return;
        }
        let _ = plan.check(topo);
        let _ = plan.validate(topo);
        let mut b = SimConfig::builder();
        b.topology(topo)
            .routing(RoutingAlgorithm::FaultAware)
            .fault_plan(&plan);
        let _ = b.build();
    });
}

#[test]
fn mutated_topology_values_never_panic() {
    let seeds = [
        "8x8",
        "4x4",
        "1x2",
        "torus:8x8",
        "torus:3x5",
        "cmesh:4x4:4",
        "cmesh:1x1:4",
        "chiplet:8x8:4x4",
    ]
    .map(String::from);
    sweep(3, &seeds, 5_000, |topology| {
        for routing in ["xy", "fta"] {
            let args = ["run", "--topology", topology, "--routing", routing];
            let _ = cli::parse(&args.map(String::from));
        }
    });
}

/// A metrics file as `run --metrics-out F --metrics-every 100` writes
/// it, profiler on.
fn metrics_file(name: &str, config: SimConfig) -> String {
    let path = std::env::temp_dir().join(format!(
        "ftnoc-text-inputs-{}-{name}.jsonl",
        std::process::id()
    ));
    let mut emitter = MetricsEmitter::create(&path, 100, &config).expect("temp file");
    let mut sim = Simulator::new(config);
    sim.network_mut().enable_profiling();
    sim.run_instrumented(|st| {
        if emitter.due(st.now()) {
            emitter.record(st.progress(), st.telemetry(), st.profile_snapshot());
        }
    });
    let net = sim.network();
    emitter.record(net.progress(), net.telemetry(), net.profile_snapshot());
    emitter.finish().expect("metrics file written");
    let content = std::fs::read_to_string(&path).expect("metrics file read");
    std::fs::remove_file(&path).ok();
    content
}

#[test]
fn mutated_metrics_files_never_panic() {
    let mut mesh = SimConfig::builder();
    mesh.topology(Topology::mesh(4, 4))
        .injection_rate(0.2)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(400);
    let mut faults = FaultPlan::new();
    faults.add_spec("router:4@150").expect("valid fault spec");
    let mut cmesh = SimConfig::builder();
    cmesh
        .topology(Topology::cmesh(3, 3, 2))
        .routing(RoutingAlgorithm::FaultAware)
        .deadlock(DeadlockConfig {
            enabled: true,
            cthres: 16,
        })
        .fault_plan(&faults)
        .injection_rate(0.1)
        .warmup_packets(0)
        .measure_packets(u64::MAX)
        .max_cycles(400);
    let seeds = [
        metrics_file("mesh", mesh.build().expect("valid config")),
        metrics_file("cmesh", cmesh.build().expect("valid config")),
    ];
    for content in &seeds {
        report::render(content).expect("an unmutated metrics file renders");
    }
    sweep(4, &seeds, 2_000, |content| {
        let _ = report::render(content);
    });
}

/// A count at the top of `u64` used to overflow the report's totals
/// (the engine phases, the skip rate, a heatmap's total): a panic in a
/// debug build, a wrapped number in a release one.
#[test]
fn counts_at_the_top_of_u64_render() {
    let max = u64::MAX;
    let pair = format!("[{max},{max}]");
    let counters: Vec<String> = RouterTelemetry::NAMES
        .iter()
        .map(|name| format!("\"{name}\":{pair}"))
        .collect();
    let content = format!(
        "{{\"kind\":\"meta\",\"width\":2,\"height\":1,\"nodes\":2}}\n\
         {{\"kind\":\"interval\",\"cycle\":100,\"delta\":{{}},\
         \"phase\":{{\"pre_ns\":{max},\"commit_ns\":{max},\"cycles\":100,\
         \"compute_ns_by_lane\":{pair},\"barrier_ns_by_lane\":{pair}}},\
         \"routers\":{{{},\"dead\":[0,0]}},\
         \"activity\":{{\"routers_computed\":{max},\"routers_skipped\":{max}}}}}\n",
        counters.join(",")
    );
    let out = report::render(&content).expect("a well-formed metrics file renders");
    assert!(out.contains(&format!("(total {max}, max {max})")), "{out}");
}
