//! The identity manifest: `IDENTITY.txt` pins the bytes of every output
//! shape of the `ftnoc` binary, one line per artefact of each invocation
//! below (`name  fnv64  bytes`). A change that claims unchanged output
//! leaves the file untouched; a change that moves output edits exactly
//! the lines it moved, in the open.
//!
//! Host-dependent bytes are blanked before hashing: the
//! `available_parallelism` echo and the wall-clock `phase` block of every
//! metrics interval. Run with `cargo test --release --test identity`; on
//! a mismatch the differing lines are printed and the recomputed manifest
//! is written under `target/tmp/identity/`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Stands for the path of the trace file a `run` writes.
const TRACE: &str = "{trace}";
/// Stands for the path of the metrics file a `run` writes.
const METRICS: &str = "{metrics}";

/// One invocation of the binary.
struct Shape {
    name: &'static str,
    args: Vec<&'static str>,
    /// Run with `FTNOC_DEMO_SKIP_CREDIT=1`.
    planted_bug: bool,
    /// Also render the metrics file with `ftnoc report`.
    report: bool,
}

fn shape(name: &'static str, parts: &[&[&'static str]]) -> Shape {
    Shape {
        name,
        args: parts.concat(),
        planted_bug: false,
        report: false,
    }
}

/// A traced run with a JSON report: 1 000 measured packets after 200
/// warm-up ones.
fn run(name: &'static str, args: &[&'static str]) -> Shape {
    const SHORT: &[&str] = &["run", "--packets", "1000", "--warmup", "200"];
    shape(name, &[SHORT, &["--report-json", "--trace", TRACE], args])
}

/// The faulted argument set, with router 36 killed at `router_kill`.
fn faulted(router_kill: &'static str) -> [&'static str; 14] {
    [
        "--routing",
        "fta",
        "--fault",
        "link:27:e@300",
        "--fault",
        router_kill,
        "--fault",
        "wearout:900:4",
        "--fault",
        "notify:50",
        "--inj",
        "0.1",
        "--error-rate",
        "0.01",
    ]
}

fn shapes() -> Vec<Shape> {
    // Wear-out kills 5:E at cycle 412 and 6:S at 438, before their
    // scheduled kills at 3 000 and 2 500. The worn-out network strands
    // packets, so the run ends at the cycle cap and dumps its flight
    // recorders.
    let preempt = &[
        "run",
        "--topology",
        "4x4",
        "--routing",
        "fta",
        "--fault",
        "wearout:60",
        "--fault",
        "link:5:e@3000",
        "--fault",
        "link:6:s@2500",
        "--fault",
        "router:15@4000",
        "--inj",
        "0.1",
        "--report-json",
        "--trace",
        TRACE,
    ];
    let recovery = &[
        "--topology",
        "4x4",
        "--routing",
        "fa",
        "--vcs",
        "1",
        "--retrans",
        "6",
        "--deadlock-recovery",
        "--seed",
        "2",
    ];
    let report_faulted = [
        &faulted("router:36@400")[..],
        &["--metrics-out", METRICS, "--metrics-every", "200"],
    ]
    .concat();
    let mut planted = shape("fuzz-planted-bug", &[&["fuzz", "--campaigns", "50"]]);
    planted.planted_bug = true;
    vec![
        shape("fuzz", &[&["fuzz", "--campaigns", "200"]]),
        shape(
            "fuzz-midrun-fault",
            &[&["fuzz", "--campaigns", "100", "--scenario", "midrun-fault"]],
        ),
        shape(
            "fuzz-topology",
            &[&["fuzz", "--campaigns", "100", "--scenario", "topology"]],
        ),
        shape(
            "fuzz-wearout",
            &[&["fuzz", "--campaigns", "100", "--scenario", "wearout"]],
        ),
        planted,
        run("run-none", &["--scheme", "none", "--error-rate", "0.01"]),
        run("run-hbh", &["--scheme", "hbh", "--error-rate", "0.01"]),
        run("run-e2e", &["--scheme", "e2e", "--error-rate", "0.01"]),
        run("run-fec", &["--scheme", "fec", "--error-rate", "0.01"]),
        run("run-fta-faults", &faulted("router:36@900")),
        shape("run-preempt", &[preempt]),
        run("run-fa-recovery", recovery),
        run(
            "run-torus",
            &["--topology", "torus:4x4", "--error-rate", "0.01"],
        ),
        run(
            "run-cmesh",
            &["--topology", "cmesh:4x4:4", "--error-rate", "0.01"],
        ),
        run(
            "run-chiplet",
            &["--topology", "chiplet:4x4:2x2", "--routing", "fta"],
        ),
        run("run-rt", &["--rt-rate", "0.01"]),
        run("run-rt-no-ac", &["--rt-rate", "0.01", "--no-ac"]),
        run("run-va", &["--va-rate", "0.01"]),
        run("run-va-no-ac", &["--va-rate", "0.01", "--no-ac"]),
        run("run-sa", &["--sa-rate", "0.01"]),
        run("run-sa-no-ac", &["--sa-rate", "0.01", "--no-ac"]),
        shape("run-text-report", &[&["run", "--packets", "1000"]]),
        shape(
            "run-metrics",
            &[&[
                "run",
                "--packets",
                "1000",
                "--error-rate",
                "0.01",
                "--metrics-out",
                METRICS,
                "--metrics-every",
                "100",
            ]],
        ),
        shape("table1", &[&["table1"]]),
        // Logic upsets beyond the 8×8 mesh with 3 VCs: a cmesh's several
        // local ports, wider and multi-word VA request sets, and DAMQ.
        run(
            "run-cmesh-va",
            &["--topology", "cmesh:4x4:4", "--va-rate", "0.01"],
        ),
        run(
            "run-cmesh-sa",
            &["--topology", "cmesh:4x4:4", "--sa-rate", "0.01"],
        ),
        run(
            "run-vcs8-upsets",
            &["--vcs", "8", "--va-rate", "0.01", "--sa-rate", "0.01"],
        ),
        run(
            "run-vcs64-va",
            &["--vcs", "64", "--va-rate", "0.01", "--packets", "2000"],
        ),
        run(
            "run-damq-upsets",
            &[
                "--buffer-org",
                "damq",
                "--va-rate",
                "0.01",
                "--sa-rate",
                "0.01",
            ],
        ),
        // Every named value the run flags parse, beyond the ones above.
        run("run-pat-bc", &["--pattern", "bc"]),
        run("run-pat-tn", &["--pattern", "tn"]),
        run("run-pat-tp", &["--pattern", "tp"]),
        run("run-pat-br", &["--pattern", "br"]),
        run("run-pat-sh", &["--pattern", "sh"]),
        run("run-pat-nn", &["--pattern", "nn"]),
        run("run-pat-hs", &["--pattern", "hs"]),
        run("run-route-ad", &["--routing", "ad"]),
        run("run-route-oe", &["--routing", "oe"]),
        run("run-pipe1", &["--pipeline", "1"]),
        run("run-pipe4", &["--pipeline", "4"]),
        run("run-pktlen8", &["--packet-len", "8", "--buffer", "8"]),
        run(
            "run-damq-pool16",
            &["--buffer-org", "damq", "--damq-pool", "16"],
        ),
        run(
            "run-warmup0",
            &["--warmup", "0", "--seed", "9", "--inj", "0.1"],
        ),
        // The energy-breakdown table of the human report.
        shape(
            "run-profile-text",
            &[&["run", "--packets", "1000", "--profile"]],
        ),
        // The router dies at cycle 400, before the run ends near 800, so
        // the report's heatmaps carry a dead cell.
        Shape {
            report: true,
            ..run("report-faulted", &report_faulted)
        },
        // Every census of the JSON report non-zero at once.
        run(
            "run-all-upsets",
            &[
                "--error-rate",
                "0.01",
                "--rt-rate",
                "0.01",
                "--va-rate",
                "0.01",
                "--sa-rate",
                "0.01",
            ],
        ),
    ]
}

/// FNV-1a over the bytes, the fold the benchmark harness digests with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drops the text between each `key` and the next `close`.
fn blank_after(text: &str, key: &str, close: char) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let start = at + key.len();
        out.push_str(&rest[..start]);
        let end = rest[start..].find(close).expect("closed value");
        rest = &rest[start + end..];
    }
    out + rest
}

/// Blanks the `available_parallelism` echo and every metrics `phase`
/// object (wall-clock time; it holds no nested object).
fn blank_host(bytes: Vec<u8>) -> Vec<u8> {
    let text = String::from_utf8(bytes).expect("ftnoc writes UTF-8");
    let text = blank_after(&text, "\"available_parallelism\":", ',');
    blank_after(&text, "\"phase\":{", '}').into_bytes()
}

/// Runs one shape and returns its artefacts as `(name, bytes)`; stderr is
/// listed only when the run wrote to it (flight-recorder dumps).
fn measure(shape: &Shape, dir: &Path) -> Vec<(String, Vec<u8>)> {
    let file = |what: &str| dir.join(format!("{}.{what}.jsonl", shape.name));
    let mut files = Vec::new();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftnoc"));
    for &arg in &shape.args {
        match arg {
            TRACE | METRICS => {
                let what = arg.trim_matches(['{', '}']);
                cmd.arg(file(what));
                files.push(what);
            }
            _ => {
                cmd.arg(arg);
            }
        }
    }
    if shape.planted_bug {
        cmd.env("FTNOC_DEMO_SKIP_CREDIT", "1");
    } else {
        cmd.env_remove("FTNOC_DEMO_SKIP_CREDIT");
    }
    let out = cmd.output().expect("spawn ftnoc");
    let mut artefacts = vec![("stdout", out.stdout)];
    if !out.stderr.is_empty() {
        artefacts.push(("stderr", out.stderr));
    }
    for what in files {
        artefacts.push((what, std::fs::read(file(what)).expect("artefact written")));
    }
    let mut artefacts: Vec<(String, Vec<u8>)> = artefacts
        .into_iter()
        .map(|(what, bytes)| (format!("{}.{what}", shape.name), blank_host(bytes)))
        .collect();
    if shape.report {
        artefacts.push((format!("{}.report", shape.name), report(shape, dir)));
    }
    artefacts
}

/// Renders the shape's metrics file with `ftnoc report`, over a copy in
/// which the host-dependent values read `"phase":null` and
/// `"available_parallelism":0`, and returns the report's stdout.
fn report(shape: &Shape, dir: &Path) -> Vec<u8> {
    let metrics = dir.join(format!("{}.metrics.jsonl", shape.name));
    let bytes = std::fs::read(&metrics).expect("metrics written");
    let text = String::from_utf8(blank_host(bytes)).expect("ftnoc writes UTF-8");
    let text = text.replace("\"phase\":{}", "\"phase\":null").replace(
        "\"available_parallelism\":,",
        "\"available_parallelism\":0,",
    );
    let copy = dir.join(format!("{}.metrics-host0.jsonl", shape.name));
    std::fs::write(&copy, text).expect("write the host-blanked copy");
    let out = Command::new(env!("CARGO_BIN_EXE_ftnoc"))
        .arg("report")
        .arg(&copy)
        .output()
        .expect("spawn ftnoc report");
    assert!(
        out.status.success(),
        "ftnoc report failed on {}",
        shape.name
    );
    let text = String::from_utf8(out.stdout).expect("ftnoc writes UTF-8");
    assert!(
        text.contains('✖'),
        "{}: no dead router in the report",
        shape.name
    );
    text.into_bytes()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: run `cargo test --release --test identity`"
)]
fn outputs_match_the_identity_manifest() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("identity");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut manifest = String::from(
        "# name  fnv64  bytes: the output shapes of the ftnoc binary, as\n\
         # `cargo test --release --test identity` (tests/identity.rs) hashes them.\n",
    );
    for shape in shapes() {
        for (name, bytes) in measure(&shape, &dir) {
            manifest += &format!("{name:<26}  {:016x}  {}\n", fnv1a(&bytes), bytes.len());
        }
    }
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("IDENTITY.txt");
    let committed = std::fs::read_to_string(committed).unwrap_or_default();
    if committed == manifest {
        return;
    }
    let recomputed = dir.join("IDENTITY.txt");
    std::fs::write(&recomputed, &manifest).expect("write the recomputed manifest");
    let old: Vec<&str> = committed.lines().collect();
    let new: Vec<&str> = manifest.lines().collect();
    let mut diff = String::new();
    for line in old.iter().filter(|l| !new.contains(l)) {
        diff += &format!("- {line}\n");
    }
    for line in new.iter().filter(|l| !old.contains(l)) {
        diff += &format!("+ {line}\n");
    }
    panic!(
        "output moved against IDENTITY.txt:\n{diff}recomputed manifest: {}",
        recomputed.display()
    );
}
