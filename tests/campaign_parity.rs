//! The campaign runner's determinism contract: a fuzz run at
//! `--threads N` must produce the **identical** `FuzzReport` — same
//! campaigns-run count, same first failure, same reproducer spec, same
//! `--failures-out` artifact bytes — as a one-worker run of the same
//! plan.
//!
//! Two angles:
//!
//! - library-level, healthy engine: reports across three master seeds
//!   and both buffer organisations;
//! - binary-level, planted bug (`FTNOC_DEMO_SKIP_CREDIT`): failing
//!   sweeps, where the first-failure stopping rule and pooled shrinking
//!   have to agree byte-for-byte on stdout and on the artifact file.
//!   With four workers a later campaign can fail before an earlier one.

use std::process::{Command, Output};

use ftnoc_check::{CampaignPlan, FuzzReport, OrgFilter};

/// Campaign budget per (seed, org) cell: debug builds simulate an order
/// of magnitude slower, so the sweep shrinks with the profile.
const CAMPAIGNS: u64 = if cfg!(debug_assertions) { 10 } else { 120 };

/// Master seeds for the healthy-engine matrix (≥ 3, per the gating
/// criterion; 0xF70C is CI's production master seed).
const SEEDS: [u64; 3] = [0xF70C, 1, 2];

fn run_plan(seed: u64, org: Option<OrgFilter>, threads: usize) -> FuzzReport {
    CampaignPlan::new()
        .campaigns(CAMPAIGNS)
        .master_seed(seed)
        .org(org)
        .threads(threads)
        .run()
}

/// Healthy engine: reports are invariant across thread counts for every
/// seed × organisation cell.
#[test]
fn healthy_reports_are_thread_invariant() {
    for seed in SEEDS {
        for org in [Some(OrgFilter::Static), Some(OrgFilter::Damq)] {
            let r1 = run_plan(seed, org, 1);
            assert_eq!(
                r1,
                run_plan(seed, org, 4),
                "seed {seed:#x} org {org:?}: report differs at 4 threads"
            );
            assert_eq!(r1.campaigns_run, CAMPAIGNS);
            assert!(
                r1.failure.is_none(),
                "seed {seed:#x} org {org:?}: healthy engine failed: {:?}",
                r1.failure
            );
        }
    }
}

/// Thread counts beyond the campaign count (and odd counts that leave
/// an uneven tail) still agree with one worker.
#[test]
fn oversubscribed_pool_matches_serial() {
    assert_eq!(run_plan(7, None, 1), run_plan(7, None, 32));
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
            "--failures-out",
        ])
        .arg(artifact)
        .env("FTNOC_DEMO_SKIP_CREDIT", "1")
        .output()
        .expect("spawn ftnoc")
}

/// Planted-bug sweeps through the real binary: stdout, exit status and
/// `--failures-out` bytes are identical between `--threads 1` and
/// `--threads 4` — a later campaign failing first must not be the one
/// reported, and pooled shrinking must reach the same minimal
/// reproducer. `--threads 0` runs one worker, so it agrees too.
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
        if seed == SEEDS[0] {
            let zero = ftnoc_fuzz(seed, "0", &batched_path);
            assert_eq!(
                String::from_utf8_lossy(&serial.stdout),
                String::from_utf8_lossy(&zero.stdout),
                "seed {seed:#x}: --threads 0 differs from --threads 1"
            );
        }
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&batched_path);
    }
}
