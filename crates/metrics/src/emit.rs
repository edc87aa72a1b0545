//! JSONL line builders for `--metrics-out` files.
//!
//! A metrics file is a stream of single-line JSON objects: one
//! [`MetaLine`] describing the run, then one [`IntervalLine`] per
//! emission interval carrying cumulative totals, per-window deltas,
//! the engine phase profile and the full per-router telemetry. Lines
//! are hand-rolled (no serializer dependency) and byte-deterministic
//! for a given sequence of inputs: field order is fixed and floats are
//! printed with Rust's shortest-round-trip formatting.

use crate::heatmap::LayoutKind;
use crate::json::{fnum, push_u64_list};
use crate::profile::ProfileSnapshot;
use crate::telemetry::{MeshTelemetry, RouterTelemetry};

/// Schema version stamped into every meta line.
pub(crate) const FORMAT_VERSION: u64 = 1;

/// The first line of a metrics file: run shape and provenance.
#[derive(Debug, Clone, Copy)]
pub struct MetaLine {
    /// Router-grid width.
    pub width: usize,
    /// Router-grid height.
    pub height: usize,
    /// Router count (`width * height`).
    pub nodes: usize,
    /// Topology drawing style (stamped as e.g. `"torus"`, `"cmesh:4"`;
    /// readers treat an absent field as a plain mesh).
    pub topology: LayoutKind,
    /// Echo of `SimConfig::threads`; the engine does not read it.
    pub threads: usize,
    /// `std::thread::available_parallelism()` on the host (0 if
    /// unknown).
    pub available_parallelism: usize,
    /// Emission interval in cycles.
    pub metrics_every: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl MetaLine {
    /// The line as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"meta\",\"version\":{},\"width\":{},\"height\":{},\"nodes\":{},\
             \"topology\":\"{}\",\"threads\":{},\"available_parallelism\":{},\
             \"metrics_every\":{},\"seed\":{}}}",
            FORMAT_VERSION,
            self.width,
            self.height,
            self.nodes,
            self.topology.meta_str(),
            self.threads,
            self.available_parallelism,
            self.metrics_every,
            self.seed
        )
    }
}

/// One emission interval: cumulative counters, the per-window delta,
/// the cumulative engine phase profile (if profiling is on) and the
/// cumulative per-router telemetry.
#[derive(Debug, Clone)]
pub struct IntervalLine {
    /// Simulation cycle at emission.
    pub cycle: u64,
    /// Cumulative packets injected.
    pub injected: u64,
    /// Cumulative packets ejected.
    pub ejected: u64,
    /// Cumulative sum of per-packet latencies (cycles).
    pub latency_sum: u64,
    /// Packets injected in this window.
    pub d_injected: u64,
    /// Packets ejected in this window.
    pub d_ejected: u64,
    /// Latency-sum movement in this window.
    pub d_latency_sum: u64,
    /// Cumulative phase profile, when the engine profiler is enabled.
    pub phase: Option<ProfileSnapshot>,
    /// Cumulative per-router telemetry.
    pub routers: MeshTelemetry,
}

impl IntervalLine {
    /// Average latency over this window's ejections (`None` when the
    /// window ejected nothing).
    pub(crate) fn window_avg_latency(&self) -> Option<f64> {
        (self.d_ejected > 0).then(|| self.d_latency_sum as f64 / self.d_ejected as f64)
    }

    /// The line as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"kind\":\"interval\",\"cycle\":{},\"injected\":{},\"ejected\":{},\
             \"latency_sum\":{},\"delta\":{{\"injected\":{},\"ejected\":{},\
             \"latency_sum\":{},\"avg_latency\":{}}}",
            self.cycle,
            self.injected,
            self.ejected,
            self.latency_sum,
            self.d_injected,
            self.d_ejected,
            self.d_latency_sum,
            fnum(self.window_avg_latency())
        );
        out.push_str(",\"phase\":");
        match &self.phase {
            None => out.push_str("null"),
            Some(p) => {
                out.push_str(&format!(
                    "{{\"pre_ns\":{},\"commit_ns\":{},\"cycles\":{},\"compute_ns_by_lane\":[",
                    p.pre_ns, p.commit_ns, p.cycles
                ));
                push_u64_list(&mut out, p.lanes.iter().map(|(c, _)| *c));
                out.push_str("],\"barrier_ns_by_lane\":[");
                push_u64_list(&mut out, p.lanes.iter().map(|(_, b)| *b));
                out.push_str("]}");
            }
        }
        out.push_str(",\"routers\":{");
        for metric in RouterTelemetry::NAMES {
            out.push_str(&format!("\"{metric}\":["));
            let values = self.routers.metric_values(metric).expect("NAMES resolve");
            push_u64_list(&mut out, values);
            out.push_str("],");
        }
        // Dead flags ride beside the counters as 0/1 (state, not a
        // counter, hence not in `NAMES`): readers render a dead
        // router's heatmap cell as ✖ instead of an intensity. Absent in
        // files written before router deaths existed — readers treat a
        // missing array as all-alive.
        out.push_str("\"dead\":[");
        push_u64_list(&mut out, self.routers.dead.iter().map(|&d| u64::from(d)));
        out.push_str("]}");
        // Network-wide activity totals, derived from the per-router
        // `computed_cycles` telemetry: how many router-cycles the gated
        // engine actually computed vs. skipped as quiescent. With
        // gating off, `skipped` is 0 by construction.
        let computed: u64 = self.routers.routers.iter().map(|r| r.computed_cycles).sum();
        let possible = self.cycle * self.routers.routers.len() as u64;
        out.push_str(&format!(
            ",\"activity\":{{\"routers_computed\":{},\"routers_skipped\":{},\"skip_rate\":{}}}",
            computed,
            possible.saturating_sub(computed),
            fnum((possible > 0).then(|| 1.0 - computed as f64 / possible as f64))
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn mesh() -> MeshTelemetry {
        let mut routers = vec![RouterTelemetry::default(); 4];
        routers[1].flits_routed = 7;
        routers[3].nacks = 2;
        MeshTelemetry {
            width: 2,
            height: 2,
            routers,
            dead: vec![false, false, true, false],
        }
    }

    #[test]
    fn meta_line_round_trips() {
        let m = MetaLine {
            width: 8,
            height: 8,
            nodes: 64,
            topology: LayoutKind::CMesh { concentration: 4 },
            threads: 4,
            available_parallelism: 2,
            metrics_every: 100,
            seed: 42,
        };
        let v = json::parse(&m.to_json()).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("meta"));
        assert_eq!(v.u64_field("version"), Some(FORMAT_VERSION));
        assert_eq!(v.u64_field("nodes"), Some(64));
        assert_eq!(v.get("topology").unwrap().as_str(), Some("cmesh:4"));
        assert_eq!(v.u64_field("available_parallelism"), Some(2));
        assert_eq!(v.u64_field("seed"), Some(42));
    }

    #[test]
    fn interval_line_round_trips() {
        let line = IntervalLine {
            cycle: 200,
            injected: 100,
            ejected: 80,
            latency_sum: 1000,
            d_injected: 50,
            d_ejected: 40,
            d_latency_sum: 500,
            phase: Some(ProfileSnapshot {
                pre_ns: 10,
                commit_ns: 20,
                cycles: 200,
                lanes: vec![(5, 1), (6, 2)],
            }),
            routers: mesh(),
        };
        let v = json::parse(&line.to_json()).unwrap();
        assert_eq!(v.u64_field("cycle"), Some(200));
        let delta = v.get("delta").unwrap();
        assert_eq!(delta.u64_field("ejected"), Some(40));
        assert_eq!(delta.get("avg_latency").unwrap().as_f64(), Some(12.5));
        let phase = v.get("phase").unwrap();
        assert_eq!(phase.u64_field("cycles"), Some(200));
        assert_eq!(
            phase.get("compute_ns_by_lane").unwrap().as_arr().unwrap(),
            [json::Value::Num(5.0), json::Value::Num(6.0)]
        );
        // Every telemetry metric comes back in declaration order with one
        // slot per router, then the dead flags as a parallel 0/1 array.
        let Some(json::Value::Obj(routers)) = v.get("routers") else {
            panic!("no routers object");
        };
        let keys: Vec<&str> = routers.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(keys, [RouterTelemetry::NAMES, &["dead"]].concat());
        for (metric, values) in routers {
            let values: Vec<u64> = values
                .as_arr()
                .unwrap()
                .iter()
                .filter_map(json::Value::as_u64)
                .collect();
            let want = match metric.as_str() {
                "dead" => vec![0, 0, 1, 0],
                metric => line.routers.metric_values(metric).unwrap(),
            };
            assert_eq!(values, want, "{metric}");
        }
    }

    #[test]
    fn empty_window_and_disabled_profiler_emit_nulls() {
        let line = IntervalLine {
            cycle: 100,
            injected: 0,
            ejected: 0,
            latency_sum: 0,
            d_injected: 0,
            d_ejected: 0,
            d_latency_sum: 0,
            phase: None,
            routers: mesh(),
        };
        let v = json::parse(&line.to_json()).unwrap();
        assert_eq!(
            v.get("delta").unwrap().get("avg_latency"),
            Some(&json::Value::Null)
        );
        assert_eq!(v.get("phase"), Some(&json::Value::Null));
    }
}
