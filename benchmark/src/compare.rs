//! `--compare A.json B.json`: two result sets, metric by metric.

use std::fmt::Write as _;

use ftnoc_metrics::json::{self, Value};

use crate::catalog::{self, Better, Kind, MetricDef};

/// One run of a result set, as read back from its JSON.
#[derive(Debug, Clone)]
pub struct ParsedRun {
    pub workload: String,
    pub traced: bool,
    pub failed: u64,
    pub digest: String,
    /// Metric name to median.
    pub metrics: Vec<(String, f64)>,
}

impl ParsedRun {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn parse_run(run: &Value) -> Result<ParsedRun, String> {
    let field = |key: &str| run.get(key).ok_or_else(|| format!("run without `{key}`"));
    let Value::Obj(metrics) = field("metrics")? else {
        return Err("`metrics` is not an object".to_string());
    };
    Ok(ParsedRun {
        workload: field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?
            .to_string(),
        traced: field("trace")?.as_u64() == Some(1),
        failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
        digest: field("digest")?.as_str().unwrap_or_default().to_string(),
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Reads the runs of a result set (`benchmark/out/results.json`).
pub fn parse_result_set(text: &str) -> Result<Vec<ParsedRun>, String> {
    let doc = json::parse(text.trim())?;
    doc.get("runs")
        .and_then(Value::as_arr)
        .ok_or("no `runs` array: not a result set")?
        .iter()
        .map(parse_run)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Worse,
    Unresolved,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
        }
    }
}

/// By how much of `base` the metric got worse (negative: better).
fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// Judges one (metric, workload) pair. `spread` is the wider of the two
/// sides' `bench.rep_spread`: a host-time difference inside the noise of
/// either side is not resolved, whichever way it points.
pub fn judge(def: &MetricDef, base: f64, new: f64, spread: f64) -> Status {
    let bound = def.bound.unwrap_or(0.0);
    if def.kind == Kind::Host && spread > bound {
        Status::Unresolved
    } else if worsening(def, base, new) > bound {
        Status::Worse
    } else {
        Status::Ok
    }
}

/// Compares result set `b` against base `a`. Returns the report and
/// whether any pair is `worse`.
pub fn compare(a: &[ParsedRun], b: &[ParsedRun]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<11} {:<32} {:>16} {:>16} {:>9}  status",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for base in a.iter().filter(|run| !run.traced) {
        let Some(new) = b
            .iter()
            .find(|run| !run.traced && run.workload == base.workload)
        else {
            let _ = writeln!(out, "{:<11} missing from B", base.workload);
            any_worse = true;
            continue;
        };
        let spread = [base, new]
            .iter()
            .filter_map(|run| run.get("bench.rep_spread"))
            .fold(0.0, f64::max);
        for def in catalog::END_TO_END {
            let (Some(x), Some(y)) = (base.get(def.name), new.get(def.name)) else {
                continue;
            };
            let status = judge(def, x, y, spread);
            any_worse |= status == Status::Worse;
            let ratio = if x == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", y / x)
            };
            let _ = writeln!(
                out,
                "{:<11} {:<32} {:>16.6} {:>16.6} {:>9}  {}",
                base.workload,
                def.name,
                x,
                y,
                ratio,
                status.as_str()
            );
        }
        if base.failed + new.failed > 0 {
            let _ = writeln!(
                out,
                "{:<11} failed operations: A {} B {}",
                base.workload, base.failed, new.failed
            );
            any_worse = true;
        }
    }
    // Counts and simulated statistics repeat bit for bit on one commit.
    let mut differing = std::collections::BTreeSet::new();
    for base in a {
        let Some(new) = b
            .iter()
            .find(|run| run.traced == base.traced && run.workload == base.workload)
        else {
            continue;
        };
        if base.digest != new.digest {
            differing.insert(format!("{} digest", base.workload));
        }
        for (name, x) in &base.metrics {
            let exact = catalog::find(name).is_some_and(|d| d.kind == Kind::Exact);
            if exact && new.get(name) != Some(*x) {
                differing.insert(format!("{} {name}", base.workload));
            }
        }
    }
    if differing.is_empty() {
        let _ = writeln!(out, "exact metrics and digests: bit-identical");
    } else {
        let _ = writeln!(
            out,
            "exact metrics that differ (a different simulation, not noise): {}",
            differing.into_iter().collect::<Vec<_>>().join(", ")
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::RunResult;
    use crate::stats::Summary;
    use crate::workloads::Workload;

    fn result_set(ns: f64, latency: f64, spread: f64, va_ops: f64) -> Vec<ParsedRun> {
        let mut e2e = RunResult::new(Workload::Sat8, 1, false);
        e2e.attempted = 3;
        e2e.digest = "abc".into();
        e2e.put("ns_per_router_cycle", Summary::of(&[ns, ns, ns]));
        e2e.put_value("flits_per_s", 1e9 / ns);
        e2e.put_value("sim_avg_latency_cycles", latency);
        e2e.put_value("failed_share", 0.0);
        e2e.put_value("bench.rep_spread", spread);
        let mut traced = RunResult::new(Workload::Sat8, 1, true);
        traced.attempted = 3;
        traced.digest = "abc".into();
        traced.put_value("router.va_ops", va_ops);
        traced.put_value("engine.step_ns_p50", ns * 64.0);
        let text = format!(
            "{{\"schema\":\"x\",\"runs\":[{},\n{}]}}\n",
            e2e.render_rich_line(),
            traced.render_rich_line()
        );
        parse_result_set(&text).unwrap()
    }

    #[test]
    fn a_result_set_round_trips_through_the_metrics_json_parser() {
        let runs = result_set(2000.0, 250.5, 0.01, 7.0);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].workload, "sat8");
        assert!(!runs[0].traced && runs[1].traced);
        assert_eq!(runs[0].get("ns_per_router_cycle"), Some(2000.0));
        assert_eq!(runs[0].get("sim_avg_latency_cycles"), Some(250.5));
        assert_eq!(runs[1].get("router.va_ops"), Some(7.0));
        assert_eq!(runs[0].digest, "abc");
        assert!(parse_result_set("{\"runs\":3}").is_err());
        assert!(parse_result_set("not json").is_err());
    }

    #[test]
    fn judges_by_bound_direction_and_spread() {
        let ns = catalog::find("ns_per_router_cycle").unwrap();
        let fps = catalog::find("flits_per_s").unwrap();
        let lat = catalog::find("sim_avg_latency_cycles").unwrap();
        assert_eq!(judge(ns, 100.0, 110.0, 0.02), Status::Ok);
        assert_eq!(judge(ns, 100.0, 130.0, 0.02), Status::Worse);
        assert_eq!(judge(ns, 100.0, 60.0, 0.02), Status::Ok);
        assert_eq!(judge(ns, 100.0, 130.0, 0.30), Status::Unresolved);
        assert_eq!(judge(fps, 100.0, 70.0, 0.0), Status::Worse);
        assert_eq!(judge(fps, 100.0, 140.0, 0.0), Status::Ok);
        // Time noise says nothing about memory.
        let rss = catalog::find("peak_rss_mib").unwrap();
        assert_eq!(judge(rss, 4.0, 4.1, 0.30), Status::Ok);
        assert_eq!(judge(rss, 4.0, 4.7, 0.30), Status::Worse);
        // Simulated statistics are exact: any worsening counts, and no
        // host spread excuses it.
        assert_eq!(judge(lat, 28.0, 28.0, 0.9), Status::Ok);
        assert_eq!(judge(lat, 28.0, 28.001, 0.9), Status::Worse);
        let failed = catalog::find("failed_share").unwrap();
        assert_eq!(judge(failed, 0.0, 0.0, 0.0), Status::Ok);
        assert_eq!(judge(failed, 0.0, 0.2, 0.0), Status::Worse);
    }

    #[test]
    fn compare_reports_ratios_with_their_base_and_flags_regressions() {
        let a = result_set(2000.0, 250.5, 0.01, 7.0);
        let (report, worse) = compare(&a, &a);
        assert!(!worse, "{report}");
        assert!(report.contains("bit-identical"));
        assert!(report.contains("1.0000"));

        let slower = result_set(2700.0, 250.5, 0.01, 7.0);
        let (report, worse) = compare(&a, &slower);
        assert!(worse);
        assert!(
            report.contains("1.3500") && report.contains("worse"),
            "{report}"
        );

        let noisy = result_set(2700.0, 250.5, 0.40, 7.0);
        let (report, worse) = compare(&a, &noisy);
        assert!(!worse && report.contains("unresolved"), "{report}");

        let other_sim = result_set(2000.0, 250.5, 0.01, 8.0);
        let (report, worse) = compare(&a, &other_sim);
        assert!(!worse);
        assert!(report.contains("sat8 router.va_ops"), "{report}");
    }
}
