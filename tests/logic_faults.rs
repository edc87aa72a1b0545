//! §4 integration: intra-router logic upsets, the Allocation Comparator
//! and the Figure 13a orderings.

use ftnoc::prelude::*;

/// Debug builds run an order of magnitude slower per cycle; the
/// statistical orderings asserted here have wide margins, so unoptimised
/// runs use a reduced workload to keep `cargo test` responsive while
/// release CI exercises the full one.
const WARMUP: u64 = if cfg!(debug_assertions) { 200 } else { 500 };
const MEASURE: u64 = if cfg!(debug_assertions) { 600 } else { 3_000 };
const MAX_CYCLES: u64 = if cfg!(debug_assertions) {
    120_000
} else {
    500_000
};

fn run_with(faults: FaultRates, ac: bool) -> SimReport {
    let mut b = SimConfig::builder();
    b.faults(faults)
        .ac_enabled(ac)
        .injection_rate(0.25)
        .warmup_packets(WARMUP)
        .measure_packets(MEASURE)
        .max_cycles(MAX_CYCLES);
    Simulator::new(b.build().expect("valid config")).run()
}

/// Figure 13a: corrected-error counts order as SA-Logic > LINK-HBH >
/// RT-Logic at equal per-opportunity rates (SA arbitrates every flit
/// repeatedly; links carry each flit once per hop; RT runs once per
/// packet per hop).
#[test]
fn figure13a_ordering() {
    let rate = 1e-2;
    let link = run_with(FaultRates::link_only(rate), true);
    let rt = run_with(FaultRates::rt_only(rate), true);
    let sa = run_with(FaultRates::sa_only(rate), true);
    assert!(link.completed && rt.completed && sa.completed);
    let link_c = link.errors.link_total_corrected();
    let rt_c = rt.errors.rt_corrected;
    let sa_c = sa.errors.sa_corrected;
    assert!(sa_c > link_c, "SA {sa_c} !> LINK {link_c}");
    assert!(link_c > rt_c, "LINK {link_c} !> RT {rt_c}");
}

/// With the AC enabled, VA upsets are caught and no packet is lost.
#[test]
fn ac_neutralizes_va_upsets() {
    let report = run_with(FaultRates::va_only(5e-3), true);
    assert!(report.completed);
    assert!(report.errors.va_corrected > 0, "no VA errors corrected");
    assert_eq!(report.errors.stranded_flits, 0);
    assert_eq!(report.errors.misdelivered, 0);
}

/// With the AC enabled, SA upsets are caught and no packet is lost.
#[test]
fn ac_neutralizes_sa_upsets() {
    let report = run_with(FaultRates::sa_only(5e-3), true);
    assert!(report.completed);
    assert!(report.errors.sa_corrected > 0, "no SA errors corrected");
    assert_eq!(report.errors.stranded_flits, 0);
    assert_eq!(report.errors.misdelivered, 0);
}

/// Without the AC, VA upsets corrupt allocation state and the network
/// degrades (stranded flits / wedged packets / lost traffic) — the
/// failure the AC exists to prevent (§4.1).
#[test]
fn va_upsets_without_ac_cause_damage() {
    let protected = run_with(FaultRates::va_only(5e-3), true);
    let unprotected = run_with(FaultRates::va_only(5e-3), false);
    assert!(protected.completed);
    let damage = !unprotected.completed
        || unprotected.errors.stranded_flits > 0
        || unprotected.errors.misdelivered > 0
        || unprotected.packets_ejected < unprotected.packets_injected / 2;
    assert!(damage, "expected visible damage without the AC");
}

/// Regression: without the AC, an SA upset's wrong-output grant can
/// send a flit into a neighbour VC with no free slot. The arrival used
/// to lose it uncounted (and a debug build panicked on the credit
/// assertion); it is now a counted drop in both builds. The shape of
/// `ftnoc run --packets 1000 --warmup 200 --sa-rate 0.01 --no-ac`,
/// which overflows three times.
#[test]
fn sa_upsets_without_ac_count_their_overflows() {
    let mut b = SimConfig::builder();
    b.faults(FaultRates::sa_only(1e-2))
        .ac_enabled(false)
        .warmup_packets(200)
        .measure_packets(1_000);
    let report = Simulator::new(b.build().expect("valid config")).run();
    // No link upsets: every dropped flit is an overflow.
    assert_eq!(report.errors.flits_dropped, 3);
}

/// Regression: the same overflow, shrunk from campaign 132 of a
/// `fuzz --scenario midrun-fault` sweep, under the full oracle.
#[test]
fn sa_upset_overflow_passes_the_oracle() {
    let spec = "w=3,h=4,vcs=1,buf=3,rtx=5,pipe=3,route=fta,scheme=hbh,ac=0,\
                pat=uniform,proc=reg,inj=0.10576467134399761,link=0,hs=0,rt=0,\
                va=0,sa=0.001,xbar=0,dl=1,cth=32,stop=0,\
                seed=17515478082935692149,cycles=853,threads=1,pool=0,gate=0,\
                topo=cmesh,conc=2,nfy=0,kill@288=0:s";
    let params = ftnoc::check::CampaignParams::from_spec(spec).expect("valid spec");
    assert_eq!(params.check(), Ok(()));
}

/// RT upsets under deterministic routing are detected and charged per
/// §4.2; packets still arrive at the right place.
#[test]
fn rt_upsets_are_neutralized_under_xy() {
    let report = run_with(FaultRates::rt_only(1e-2), true);
    assert!(report.completed);
    assert!(report.errors.rt_corrected > 0);
    assert_eq!(report.errors.misdelivered, 0);
}

/// RT upsets under fully adaptive routing are absorbed as detours
/// (§4.2: "a misdirection fault is not catastrophic").
#[test]
fn rt_upsets_become_detours_under_adaptive() {
    let mut b = SimConfig::builder();
    b.faults(FaultRates::rt_only(1e-2))
        .routing(RoutingAlgorithm::FullyAdaptive)
        .injection_rate(0.15)
        .warmup_packets(WARMUP)
        .measure_packets(MEASURE.min(2_000))
        .max_cycles(MAX_CYCLES);
    let report = Simulator::new(b.build().unwrap()).run();
    assert!(report.completed);
    assert_eq!(report.errors.misdelivered, 0);
    assert_eq!(report.errors.stranded_flits, 0);
}

/// Crossbar upsets are single-bit and repaired by the downstream ECC
/// blanket (§4.4).
#[test]
fn crossbar_upsets_corrected_by_ecc() {
    let faults = FaultRates {
        crossbar: 1e-3,
        ..FaultRates::none()
    };
    let report = run_with(faults, true);
    assert!(report.completed);
    assert!(report.errors.crossbar_corrected > 0);
    assert_eq!(report.errors.misdelivered, 0);
}

/// Handshake upsets are masked by TMR (§4.6) without disturbing
/// delivery.
#[test]
fn handshake_upsets_masked_by_tmr() {
    let faults = FaultRates {
        handshake: 1e-3,
        link: 1e-3, // generate NACK traffic for the voters to protect
        ..FaultRates::none()
    };
    let report = run_with(faults, true);
    assert!(report.completed);
    assert_eq!(report.errors.misdelivered, 0);
}
