//! End-to-end exercise of the `ftnoc fuzz` campaign runner through the
//! real binary: a healthy engine survives a capped sweep, and the
//! deliberately planted credit-skip bug (behind the hidden
//! `FTNOC_DEMO_SKIP_CREDIT` flag) is caught, shrunk, and reported with
//! a replayable reproducer.

use std::process::{Command, Output};

/// Campaign budget: debug builds simulate an order of magnitude slower,
/// so the smoke sweep shrinks with the profile (release CI runs the
/// full 500 via the `check-smoke` job).
const CAMPAIGNS: &str = if cfg!(debug_assertions) { "25" } else { "150" };

fn ftnoc(args: &[&str], planted_bug: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftnoc"));
    cmd.args(args);
    // The flag is cached per process, so each invocation chooses.
    if planted_bug {
        cmd.env("FTNOC_DEMO_SKIP_CREDIT", "1");
    } else {
        cmd.env_remove("FTNOC_DEMO_SKIP_CREDIT");
    }
    cmd.output().expect("spawn ftnoc")
}

/// A capped sweep over the sampled campaign space passes on the real
/// engine: no invariant violations, exit code 0.
#[test]
fn healthy_engine_survives_a_capped_sweep() {
    let out = ftnoc(&["fuzz", "--campaigns", CAMPAIGNS], false);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "fuzz sweep failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("no invariant violations"),
        "unexpected output:\n{stdout}"
    );
}

/// The planted credit-decrement skip is caught by the oracle, shrunk,
/// and printed as a reproducer — the acceptance demo for the whole
/// tooling chain.
#[test]
fn planted_credit_bug_is_caught_and_shrunk() {
    let out = ftnoc(&["fuzz", "--campaigns", CAMPAIGNS], true);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "planted bug escaped the sweep:\n{stdout}"
    );
    assert!(
        stdout.contains("credit"),
        "violation should name the credit invariant:\n{stdout}"
    );
    let spec = stdout
        .lines()
        .find_map(|l| {
            let l = l.trim();
            l.strip_prefix("reproduce with: ftnoc fuzz --repro \"")
                .and_then(|rest| rest.strip_suffix('"'))
        })
        .unwrap_or_else(|| panic!("no reproducer printed:\n{stdout}"))
        .to_string();

    // The reproducer replays the violation deterministically...
    let replay = ftnoc(&["fuzz", "--repro", &spec], true);
    assert_eq!(
        replay.status.code(),
        Some(1),
        "reproducer did not replay:\n{}",
        String::from_utf8_lossy(&replay.stdout)
    );
    // ...and the same spec is clean once the bug is gone (flag unset).
    let clean = ftnoc(&["fuzz", "--repro", &spec], false);
    assert!(
        clean.status.success(),
        "spec fails even without the planted bug:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
}

/// The planted bug is caught under the DAMQ too, where the sender's
/// credits run by the shared-pool rule: the first campaign fails on
/// the first flit the sender forgot to count.
#[test]
fn planted_credit_bug_is_caught_under_damq() {
    let out = ftnoc(&["fuzz", "--campaigns", "50", "--org", "damq"], true);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "planted bug escaped:\n{stdout}");
    assert!(
        stdout.contains("campaign 0/50: FAILED — [credit-accounting] cycle 14 node 0:"),
        "unexpected first failure:\n{stdout}"
    );
}

/// Regression: a router kill landing while a neighbour is draining
/// deadlock-recovery held flits used to leave a dangling output-VC
/// reservation (the purge removed the held sender flits that anchored
/// it without releasing the reservation), tripping the exclusivity
/// oracle. Shrunk from a 600-campaign sweep; must stay green.
#[test]
fn router_kill_during_recovery_drain_releases_reservations() {
    let spec = "w=3,h=3,vcs=1,buf=2,rtx=4,pipe=2,route=fta,scheme=hbh,ac=0,\
                pat=transpose,proc=reg,inj=0.2667472864679211,link=0,hs=0,rt=0,\
                va=0,sa=0,xbar=0,dl=1,cth=16,stop=0,\
                seed=6263434702522491685,cycles=1753,threads=1,pool=0,gate=0,\
                nfy=0,fault=router:3@1753,fault=wearout:134";
    let out = ftnoc(&["fuzz", "--repro", spec], false);
    assert!(
        out.status.success(),
        "regression repro failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A malformed reproducer spec is rejected with exit code 2 (operator
/// error, not an invariant violation).
#[test]
fn malformed_spec_is_rejected() {
    let out = ftnoc(&["fuzz", "--repro", "w=3,route=warp-drive"], false);
    assert_eq!(out.status.code(), Some(2));
}
