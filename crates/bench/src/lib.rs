//! The experiment harness: one sweep function per figure of the paper
//! (this file) and the table of named experiments — each a sweep plus
//! its one rendering — that the `experiments` binary runs ([`rows`]).
//!
//! ```sh
//! cargo run -p ftnoc-bench --release --bin experiments            # every row
//! cargo run -p ftnoc-bench --release --bin experiments -- fig5 table1
//! ```
//!
//! Host-time measurement is not this crate's job: `benchmark/` is the
//! repository's one performance harness.
//!
//! The figure sweeps support two scales:
//!
//! - **quick** (default): thousands of packets per point — seconds per
//!   figure, same qualitative shapes;
//! - **paper** (`FTNOC_SCALE=paper` or [`Scale::Paper`]): the paper's
//!   300 000 ejected messages per point (100 000 warm-up).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod rows;

use ftnoc_fault::FaultRates;
use ftnoc_power::{report::table1_report, Table1};
use ftnoc_sim::{ErrorScheme, RoutingAlgorithm, SimConfig, SimReport, Simulator};
use ftnoc_traffic::TrafficPattern;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down runs for CI.
    Quick,
    /// The paper's full 300 000-message runs.
    Paper,
}

impl Scale {
    /// Reads `FTNOC_SCALE=paper` from the environment (default quick).
    pub fn from_env() -> Scale {
        match std::env::var("FTNOC_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    fn apply(self, b: &mut ftnoc_sim::SimConfigBuilder) {
        match self {
            Scale::Quick => {
                b.warmup_packets(1_000)
                    .measure_packets(5_000)
                    .max_cycles(2_000_000);
            }
            Scale::Paper => {
                // A collapsed scheme (E2E at a 10 % error rate) would
                // otherwise grind toward the generic 20M-cycle cap; 1.5M
                // cycles is ~20x what any completing point needs and the
                // capped points still report their (enormous) latency.
                b.paper_scale().max_cycles(1_500_000);
            }
        }
    }
}

/// The error rates swept by Figures 5-7 (per flit-traversal).
pub const ERROR_RATES: [f64; 5] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

/// The error rates swept by Figure 13.
pub const FIG13_RATES: [f64; 4] = [1e-5, 1e-4, 1e-3, 1e-2];

/// The injection rates swept by Figures 8-9 (flits/node/cycle).
pub const INJECTION_RATES: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// Series label (scheme / pattern / algorithm name).
    pub series: String,
    /// X value (error rate or injection rate).
    pub x: f64,
    /// The full run report.
    pub report: SimReport,
}

/// The one sweep loop: every series at every x runs the base platform
/// (0.25 flits/node/cycle at `scale`) as `configure` adjusts it, reports
/// `[tag] series progress (elapsed)` on stderr and becomes one [`Point`].
fn sweep<S: Copy>(
    scale: Scale,
    tag: &str,
    series: &[(&str, S)],
    xs: &[f64],
    progress: impl Fn(S, f64, &SimReport) -> String,
    configure: impl Fn(&mut ftnoc_sim::SimConfigBuilder, S, f64),
) -> Vec<Point> {
    let mut points = Vec::new();
    for &(label, s) in series {
        for &x in xs {
            let mut b = SimConfig::builder();
            b.injection_rate(0.25);
            scale.apply(&mut b);
            configure(&mut b, s, x);
            let t = std::time::Instant::now();
            let report = Simulator::new(b.build().expect("valid config")).run();
            let line = progress(s, x, &report);
            eprintln!("[{tag}] {label} {line} ({:.1?})", t.elapsed());
            let series = label.to_string();
            points.push(Point { series, x, report });
        }
    }
    points
}

fn latency_at_rate<S>(_: S, rate: f64, report: &SimReport) -> String {
    format!("rate {rate:.0e}: {:.1} cycles", report.avg_latency)
}

/// Figure 5: average latency vs link error rate for HBH, E2E and FEC
/// (uniform traffic, 0.25 flits/node/cycle).
pub fn figure5(scale: Scale) -> Vec<Point> {
    let schemes = [ErrorScheme::Hbh, ErrorScheme::E2e, ErrorScheme::Fec];
    let series = schemes.map(|s| (s.short_name(), s));
    sweep(
        scale,
        "fig5",
        &series,
        &ERROR_RATES,
        latency_at_rate,
        |b, scheme, rate| {
            b.scheme(scheme).faults(FaultRates::link_only(rate));
        },
    )
}

/// Figures 6 and 7: HBH latency and energy per message vs error rate
/// for the NR, BC and TN patterns (one sweep, read two ways).
pub fn figure6_7(scale: Scale) -> Vec<Point> {
    let patterns = TrafficPattern::PAPER_PATTERNS;
    let series = patterns.each_ref().map(|p| (p.short_name(), p));
    sweep(
        scale,
        "fig6/7",
        &series,
        &ERROR_RATES,
        latency_at_rate,
        |b, pattern, rate| {
            b.pattern(pattern.clone())
                .faults(FaultRates::link_only(rate));
        },
    )
}

/// Figures 8 and 9: transmission- and retransmission-buffer utilization
/// vs injection rate for the adaptive (AD) and deterministic (DT)
/// routing algorithms.
pub fn figure8_9(scale: Scale) -> Vec<Point> {
    let algorithms = [
        RoutingAlgorithm::WestFirstAdaptive,
        RoutingAlgorithm::XyDeterministic,
    ];
    let series = algorithms.map(|r| (r.short_name(), r));
    let progress = |_, inj, r: &SimReport| format!("inj {inj}: tx {:.3}", r.tx_utilization);
    sweep(
        scale,
        "fig8/9",
        &series,
        &INJECTION_RATES,
        progress,
        |b, routing, inj| {
            b.routing(routing).injection_rate(inj);
            if scale == Scale::Quick {
                // Above saturation, ejection-count targets stretch out;
                // a fixed cycle budget measures the same utilization.
                b.warmup_packets(500)
                    .measure_packets(3_000)
                    .max_cycles(150_000);
            }
        },
    )
}

/// Figure 13's three fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig13Class {
    /// Link soft errors handled by HBH (LINK-HBH).
    LinkHbh,
    /// Routing-unit logic errors (RT-Logic).
    RtLogic,
    /// Switch-allocator logic errors (SA-Logic).
    SaLogic,
}

impl Fig13Class {
    /// All three classes in the paper's legend order.
    pub const ALL: [Fig13Class; 3] = [
        Fig13Class::LinkHbh,
        Fig13Class::RtLogic,
        Fig13Class::SaLogic,
    ];

    /// The legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig13Class::LinkHbh => "LINK-HBH",
            Fig13Class::RtLogic => "RT-Logic",
            Fig13Class::SaLogic => "SA-Logic",
        }
    }

    fn rates(self, rate: f64) -> FaultRates {
        match self {
            Fig13Class::LinkHbh => FaultRates::link_only(rate),
            Fig13Class::RtLogic => FaultRates::rt_only(rate),
            Fig13Class::SaLogic => FaultRates::sa_only(rate),
        }
    }

    /// Extracts "number of errors corrected" for this class from a run.
    pub fn corrected(self, report: &SimReport) -> u64 {
        match self {
            Fig13Class::LinkHbh => report.errors.link_total_corrected(),
            Fig13Class::RtLogic => report.errors.rt_corrected,
            Fig13Class::SaLogic => report.errors.sa_corrected,
        }
    }
}

/// Figure 13: each fault class simulated independently across error
/// rates (series = [`Fig13Class::label`]); (a) reads corrected-error
/// counts, (b) reads energy per packet.
pub fn figure13(scale: Scale) -> Vec<Point> {
    let series = Fig13Class::ALL.map(|c| (c.label(), c));
    let progress = |class: Fig13Class, rate, r: &SimReport| {
        format!("rate {rate:.0e}: corrected {}", class.corrected(r))
    };
    sweep(
        scale,
        "fig13",
        &series,
        &FIG13_RATES,
        progress,
        |b, class, rate| {
            b.faults(class.rates(rate));
        },
    )
}

/// Renders a latency (or other metric) sweep as an aligned text table,
/// series as columns.
pub fn render_series_table(
    title: &str,
    x_label: &str,
    points: &[Point],
    metric: impl Fn(&SimReport) -> f64,
    unit: &str,
) -> String {
    use std::fmt::Write as _;
    let mut series: Vec<String> = Vec::new();
    for p in points {
        if !series.contains(&p.series) {
            series.push(p.series.clone());
        }
    }
    let mut xs: Vec<f64> = Vec::new();
    for p in points {
        if !xs.iter().any(|x| (x - p.x).abs() < 1e-12) {
            xs.push(p.x);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title} [{unit}]");
    let _ = write!(out, "{x_label:>10}");
    for s in &series {
        let _ = write!(out, " {s:>10}");
    }
    let _ = writeln!(out);
    for &x in &xs {
        let _ = write!(out, "{x:>10.0e}");
        for s in &series {
            let v = points
                .iter()
                .find(|p| &p.series == s && (p.x - x).abs() < 1e-12)
                .map(|p| metric(&p.report))
                .unwrap_or(f64::NAN);
            let _ = write!(out, " {v:>10.3}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Table 1 (the calibrated area/power model) with the paper's
/// reference values.
pub fn render_table1() -> String {
    table1_report(&Table1::compute())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        assert_eq!(Scale::from_env(), Scale::Quick);
    }

    #[test]
    fn fig13_class_labels() {
        assert_eq!(Fig13Class::LinkHbh.label(), "LINK-HBH");
        assert_eq!(Fig13Class::ALL.len(), 3);
    }

    #[test]
    fn render_series_table_aligns_series() {
        let report = Simulator::new(
            {
                let mut b = SimConfig::builder();
                b.injection_rate(0.1)
                    .warmup_packets(50)
                    .measure_packets(200)
                    .max_cycles(100_000);
                b
            }
            .build()
            .unwrap(),
        )
        .run();
        let points = vec![
            Point {
                series: "HBH".into(),
                x: 1e-3,
                report: report.clone(),
            },
            Point {
                series: "E2E".into(),
                x: 1e-3,
                report,
            },
        ];
        let table = render_series_table("t", "rate", &points, |r| r.avg_latency, "cycles");
        assert!(table.contains("HBH"));
        assert!(table.contains("E2E"));
        assert!(table.contains("1e-3"));
    }

    #[test]
    fn table1_render_includes_overheads() {
        let s = render_table1();
        assert!(s.contains("119.55"));
        assert!(s.contains("AC"));
    }
}
