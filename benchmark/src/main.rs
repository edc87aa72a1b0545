//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ftnoc-benchmark [--seed S] [--seconds N]
//!     every workload, end-to-end then traced, each in its own process;
//!     writes benchmark/out/results.json and benchmark/out/trace-*.json
//! ftnoc-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//!     one run of one workload; the last stdout line is its JSON result
//! ftnoc-benchmark --compare A.json B.json
//! ftnoc-benchmark --emit-benchmark-json
//! ```
//!
//! The performance model is validated only against the paper's figure
//! shapes (EXPERIMENTS.md); it is unvalidated against hardware, so no
//! error figure is printed.

mod catalog;
mod compare;
mod host;
mod measure;
mod micro;
mod output;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use workloads::{Sizing, Workload};

#[derive(Debug, PartialEq)]
enum Mode {
    /// Every workload, each in a child process.
    All,
    /// One run; `rich` selects the result-set record over the driver line.
    One {
        workload: Workload,
        traced: bool,
        rich: bool,
    },
    Compare(String, String),
    EmitBenchmarkJson,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut seed = 1;
    let mut seconds = catalog::RUN_SECONDS as f64;
    let mut workload = None;
    let mut traced = false;
    let mut rich = false;
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| bad(v))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or_else(|| {
                    let names = Workload::ALL.map(Workload::name).join(", ");
                    format!("unknown workload `{v}` (one of {names})")
                })?);
            }
            "--rich" => rich = true,
            "--compare" => {
                let a = value()?.to_string();
                mode = Some(Mode::Compare(a, value()?.to_string()));
            }
            "--emit-benchmark-json" => mode = Some(Mode::EmitBenchmarkJson),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = match (mode, workload) {
        (Some(mode), _) => mode,
        (None, Some(workload)) => Mode::One {
            workload,
            traced,
            rich,
        },
        (None, None) => Mode::All,
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// `benchmark/out`, wherever the command was started from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// One run of one workload in this process.
fn run_one(workload: Workload, traced: bool, rich: bool, seed: u64, seconds: f64) -> ExitCode {
    let result = if traced {
        let (mut result, spans) = run::traced(workload, seed, seconds, Sizing::FULL);
        // Timing has ended: only now do the spans leave memory.
        let file = format!("trace-{}.json", workload.name());
        match write_out(&file, &spans.to_json(workload.name(), seed)) {
            Ok(path) => println!("spans: {} in {}", spans.spans().len(), path.display()),
            Err(e) => result.fail(e),
        }
        result
    } else {
        run::end_to_end(workload, seed, seconds, Sizing::FULL)
    };
    print!("{}", result.render_text());
    if rich {
        println!("{}", result.render_rich_line());
    } else {
        println!("{}", result.render_driver_line());
    }
    ExitCode::SUCCESS
}

/// Runs one workload in a child process of its own, so that its peak
/// resident set is its own, and returns its result-set record.
fn run_child(workload: Workload, traced: bool, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--rich"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (text, record) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{text}");
    if !output.status.success() || !record.starts_with('{') {
        return Err(format!(
            "the {} run ended with {} and no result",
            workload.name(),
            output.status
        ));
    }
    Ok(record.to_string())
}

/// Every workload, end-to-end then traced; checks the outputs, writes the
/// result set, and fails if any operation failed.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    println!(
        "ftnoc benchmark: seed {seed}, about {seconds} s per run, threads = 1. Simulated \
         metrics (sim_*, counts) are exact; host metrics are not. The model is validated \
         against the paper's figure shapes only, not against hardware."
    );
    let mut records = Vec::new();
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            match run_child(workload, traced, seed, seconds) {
                Ok(record) => records.push(record),
                Err(e) => problems.push(e),
            }
        }
    }
    let text = format!(
        "{{\"schema\":\"ftnoc-benchmark/1\",\"host\":{},\"seed\":{seed},\"seconds\":{seconds},\
         \"runs\":[\n{}\n]}}\n",
        host::stamp_json(seed),
        records.join(",\n")
    );
    match compare::parse_result_set(&text) {
        Err(e) => problems.push(format!("the result set does not parse: {e}")),
        Ok(runs) => {
            for run in &runs {
                if run.failed > 0 {
                    problems.push(format!(
                        "{}: {} failed operations",
                        run.workload, run.failed
                    ));
                }
                let twin = runs
                    .iter()
                    .find(|o| o.workload == run.workload && o.traced != run.traced);
                if run.traced && twin.is_some_and(|o| o.digest != run.digest) {
                    problems.push(format!(
                        "{}: traced digest {} differs from the untraced run's",
                        run.workload, run.digest
                    ));
                }
                if !run.traced {
                    println!("digest {:<11} {}", run.workload, run.digest);
                }
            }
        }
    }
    match write_out("results.json", &text) {
        Ok(path) => println!("results: {}", path.display()),
        Err(e) => problems.push(e),
    }
    for problem in &problems {
        eprintln!("FAILED: {problem}");
    }
    if problems.is_empty() {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_result_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (read(a), read(b)) {
        (Ok(a), Ok(b)) => {
            let (report, any_worse) = compare::compare(&a, &b);
            print!("{report}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::All => run_all(args.seed, args.seconds),
        Mode::One {
            workload,
            traced,
            rich,
        } => run_one(workload, traced, rich, args.seed, args.seconds),
        Mode::Compare(a, b) => run_compare(&a, &b),
        Mode::EmitBenchmarkJson => {
            print!("{}", catalog::benchmark_json());
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_parses() {
        let a = args(&[
            "--workload",
            "faulted8",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                mode: Mode::One {
                    workload: Workload::Faulted8,
                    traced: true,
                    rich: false
                },
                seed: 42,
                seconds: 10.0
            }
        );
        let all = args(&["--seed", "2"]).unwrap();
        assert_eq!((all.mode, all.seed), (Mode::All, 2));
        assert_eq!(all.seconds, catalog::RUN_SECONDS as f64);
        assert_eq!(
            args(&["--compare", "a.json", "b.json"]).unwrap().mode,
            Mode::Compare("a.json".into(), "b.json".into())
        );
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--compare", "only-one"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
