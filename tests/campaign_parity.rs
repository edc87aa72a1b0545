//! The batched campaign runner's determinism contract: a fuzz run at
//! `--threads N` must produce the **identical** `FuzzReport` — same
//! campaigns-run count, same failure set, same reproducer specs, same
//! `--failures-out` artifact bytes — and the identical in-order
//! `FuzzEvent` stream as a serial run of the same plan.
//!
//! Two angles:
//!
//! - library-level, healthy engine: event streams and reports across
//!   three master seeds and both buffer organisations;
//! - binary-level, planted bug (`FTNOC_DEMO_SKIP_CREDIT`): failing
//!   sweeps, where ordering, the `max_failures` stopping rule, and
//!   pooled shrinking all have to agree byte-for-byte on stdout and on
//!   the artifact file.

use std::process::{Command, Output};

use ftnoc_check::{CampaignPlan, FuzzEvent, FuzzReport, OrgFilter};

/// Campaign budget per (seed, org) cell: debug builds simulate an order
/// of magnitude slower, so the sweep shrinks with the profile.
const CAMPAIGNS: u64 = if cfg!(debug_assertions) { 10 } else { 120 };

/// Master seeds for the healthy-engine matrix (≥ 3, per the gating
/// criterion; 0xF70C is CI's production master seed).
const SEEDS: [u64; 3] = [0xF70C, 1, 2];

fn run_plan(seed: u64, org: Option<OrgFilter>, threads: usize) -> (FuzzReport, Vec<FuzzEvent>) {
    let mut events = Vec::new();
    let report = CampaignPlan::new()
        .campaigns(CAMPAIGNS)
        .master_seed(seed)
        .org(org)
        .threads(threads)
        .run(&mut |e| events.push(e.clone()));
    (report, events)
}

/// Healthy engine: reports, artifact bytes and full event streams are
/// invariant across thread counts for every seed × organisation cell.
#[test]
fn healthy_reports_are_thread_invariant() {
    for seed in SEEDS {
        for org in [Some(OrgFilter::Static), Some(OrgFilter::Damq)] {
            let (r1, o1) = run_plan(seed, org, 1);
            let (r4, o4) = run_plan(seed, org, 4);
            assert_eq!(
                r1, r4,
                "seed {seed:#x} org {org:?}: report differs at 4 threads"
            );
            assert_eq!(
                r1.failures_artifact(),
                r4.failures_artifact(),
                "seed {seed:#x} org {org:?}: artifact bytes differ"
            );
            assert_eq!(o1, o4, "seed {seed:#x} org {org:?}: event streams differ");
            assert_eq!(r1.campaigns_run, CAMPAIGNS);
            assert!(
                r1.failures.is_empty(),
                "seed {seed:#x} org {org:?}: healthy engine failed: {:?}",
                r1.failures
            );
        }
    }
}

/// Thread counts beyond the campaign count (and odd counts that leave
/// an uneven tail) still agree with serial.
#[test]
fn oversubscribed_pool_matches_serial() {
    let (r1, o1) = run_plan(7, None, 1);
    let (rn, on) = run_plan(7, None, 32);
    assert_eq!(r1, rn);
    assert_eq!(o1, on);
}

fn ftnoc_fuzz(seed: u64, threads: &str, artifact: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftnoc"))
        .args([
            "fuzz",
            "--campaigns",
            &CAMPAIGNS.to_string(),
            "--seed",
            &seed.to_string(),
            "--threads",
            threads,
            "--max-failures",
            "2",
            "--failures-out",
        ])
        .arg(artifact)
        .env("FTNOC_DEMO_SKIP_CREDIT", "1")
        .output()
        .expect("spawn ftnoc")
}

/// Planted-bug sweeps through the real binary: stdout, exit status and
/// `--failures-out` bytes are identical between `--threads 1` and
/// `--threads 4` — failures found out of order must be reported in
/// order, the stopping rule must truncate identically, and pooled
/// shrinking must reach the same minimal reproducers.
#[test]
fn planted_failures_are_thread_invariant() {
    let dir = std::env::temp_dir();
    for seed in SEEDS {
        let serial_path = dir.join(format!("ftnoc-parity-{seed}-t1.txt"));
        let batched_path = dir.join(format!("ftnoc-parity-{seed}-t4.txt"));
        let serial = ftnoc_fuzz(seed, "1", &serial_path);
        let batched = ftnoc_fuzz(seed, "4", &batched_path);
        assert_eq!(
            serial.status.code(),
            Some(1),
            "seed {seed:#x}: planted bug escaped the serial sweep:\n{}",
            String::from_utf8_lossy(&serial.stdout)
        );
        assert_eq!(
            serial.status.code(),
            batched.status.code(),
            "seed {seed:#x}"
        );
        assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&batched.stdout),
            "seed {seed:#x}: stdout differs between thread counts"
        );
        let serial_artifact = std::fs::read(&serial_path).expect("serial artifact");
        let batched_artifact = std::fs::read(&batched_path).expect("batched artifact");
        assert!(
            !serial_artifact.is_empty(),
            "seed {seed:#x}: empty failures artifact"
        );
        assert_eq!(
            serial_artifact, batched_artifact,
            "seed {seed:#x}: --failures-out bytes differ between thread counts"
        );
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&batched_path);
    }
}
