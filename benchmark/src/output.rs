//! One run's result: the lines a person reads, the one JSON line the
//! driver reads, and the richer record the result sets are made of.

use std::fmt::Write as _;

use crate::catalog::{self, MetricDef};
use crate::stats::Summary;
use crate::workloads::Workload;

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One workload measured once, traced or not.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted: timed repetitions, or campaigns.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a digest of the simulation result, for comparing two commits
    /// by eye.
    pub digest: String,
    pub metrics: Vec<(&'static str, Summary)>,
    /// Why operations failed, and attribution warnings.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: Workload, seed: u64, traced: bool) -> RunResult {
        RunResult {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            digest: String::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records one measured metric. An undefined value (`None`) is left
    /// out: a metric that does not exist on a workload is never a 0.
    pub fn put(&mut self, name: &'static str, summary: Option<Summary>) {
        debug_assert!(
            catalog::find(name).is_some(),
            "{name} is not in the catalog"
        );
        if let Some(summary) = summary {
            self.metrics.push((name, summary));
        }
    }

    pub fn put_value(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::of(&[value]));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    /// The report a person reads: every metric by name with its unit.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed={} {} run: {} of {} operations failed, digest {}",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "end-to-end" },
            self.failed,
            self.attempted,
            self.digest
        );
        for (name, s) in &self.metrics {
            let def = catalog::find(name).expect("metric is in the catalog");
            let _ = write!(
                out,
                "{:<44} {:>16} {:<16}",
                name,
                fmt_value(s.value),
                def.unit
            );
            if s.n > 1 {
                let _ = write!(
                    out,
                    " median={} q1={} q3={} min={} max={} n={}",
                    fmt_value(s.median),
                    fmt_value(s.q1),
                    fmt_value(s.q3),
                    fmt_value(s.min),
                    fmt_value(s.max),
                    s.n
                );
            }
            if def.layer != "end_to_end" {
                let _ = write!(
                    out,
                    "  [{} -> {} on {}]",
                    def.layer,
                    def.moves,
                    def.on.join(",")
                );
            }
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// The last line of a driver run: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being every one the contract
    /// lists for this mode. One that is not defined on this workload reads
    /// 0 there — the contract wants the full set on every workload.
    pub fn render_driver_line(&self) -> String {
        let defs: Vec<&MetricDef> = if self.traced {
            catalog::driver_per_layer().collect()
        } else {
            catalog::driver_end_to_end().collect()
        };
        let metrics = defs
            .iter()
            .map(|def| {
                let value = self.get(def.name).map_or(0.0, |s| s.value);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(def.name),
                    jnum(value),
                    jstr(def.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The record a result set keeps: the driver's keys plus the workload,
    /// the seed, the digest, the repetitions' summary and the notes. Only measured
    /// metrics appear.
    pub fn render_rich_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let def = catalog::find(name).expect("metric is in the catalog");
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"n\":{}}}",
                    jstr(name),
                    jnum(s.value),
                    jstr(def.unit),
                    jnum(s.median),
                    jnum(s.q1),
                    jnum(s.q3),
                    jnum(s.min),
                    jnum(s.max),
                    s.n
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let notes = self
            .notes
            .iter()
            .map(|n| jstr(n))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"digest\":{},\"metrics\":{{{metrics}}},\"notes\":[{notes}]}}",
            jstr(self.workload.name()),
            self.seed,
            u8::from(self.traced),
            self.correct(),
            self.attempted,
            self.failed,
            jstr(&self.digest)
        )
    }
}

/// A finite number as JSON, with all its digits.
fn jnum(v: f64) -> String {
    debug_assert!(v.is_finite());
    format!("{v}")
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_metrics::json;

    fn sample(traced: bool) -> RunResult {
        let mut r = RunResult::new(Workload::Sparse8, 3, traced);
        r.attempted = 5;
        r.digest = "00ff".into();
        if traced {
            r.put_value("router.va_ops", 12.0);
            r.put("engine.step_ns_p50", Summary::of(&[10.5, 11.5, 12.5]));
            r.put("engine.pool2_ratio", None);
        } else {
            r.put("ns_per_router_cycle", Summary::of(&[250.25, 251.0, 260.0]));
            r.put_value("setup_s", 0.000_412_5);
            r.put_value("cpu_ns_per_router_cycle", 249.0);
            r.put_value("peak_rss_mib", 6.5);
            r.put_value("sim_avg_latency_cycles", 28.242);
        }
        r.notes.push("a \"quoted\" note".into());
        r
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_listed_metric() {
        for traced in [false, true] {
            let line = sample(traced).render_driver_line();
            let doc = json::parse(&line).unwrap();
            let json::Value::Obj(members) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.u64_field("attempted"), Some(5));
            assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
            let json::Value::Obj(metrics) = doc.get("metrics").unwrap() else {
                panic!("metrics is not an object")
            };
            let expected: Vec<&str> = if traced {
                catalog::driver_per_layer().map(|d| d.name).collect()
            } else {
                catalog::driver_end_to_end().map(|d| d.name).collect()
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, expected);
            for (name, m) in metrics {
                assert!(m.get("value").unwrap().as_f64().is_some(), "{name}");
                assert_eq!(
                    m.get("unit").unwrap().as_str(),
                    Some(catalog::find(name).unwrap().unit)
                );
            }
        }
        let doc = json::parse(&sample(false).render_driver_line()).unwrap();
        let m = doc.get("metrics").unwrap();
        let ns = m.get("ns_per_router_cycle").unwrap();
        assert_eq!(ns.get("value").unwrap().as_f64(), Some(251.0));
        assert!(m.get("sim_avg_latency_cycles").is_none());
    }

    #[test]
    fn rich_line_round_trips_and_omits_undefined_metrics() {
        let r = sample(true);
        let doc = json::parse(&r.render_rich_line()).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("sparse8"));
        assert_eq!(doc.u64_field("trace"), Some(1));
        assert_eq!(doc.get("digest").unwrap().as_str(), Some("00ff"));
        let m = doc.get("metrics").unwrap();
        assert!(m.get("engine.pool2_ratio").is_none());
        let p50 = m.get("engine.step_ns_p50").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(11.5));
        assert_eq!(p50.u64_field("n"), Some(3));
        let notes = doc.get("notes").unwrap().as_arr().unwrap();
        assert_eq!(notes[0].as_str(), Some("a \"quoted\" note"));
        assert!(r.render_text().contains("router.va_ops"));
    }

    #[test]
    fn failures_make_a_run_incorrect() {
        let mut r = sample(false);
        assert!(r.correct());
        r.fail("digest mismatch".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        let mut empty = RunResult::new(Workload::Sat8, 1, false);
        assert!(!empty.correct());
        empty.attempted = 1;
        assert!(empty.correct());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
