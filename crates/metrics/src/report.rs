//! `ftnoc report`: renders a `--metrics-out` JSONL file for humans.
//!
//! Output sections: run summary (from the meta line), per-interval
//! delta table, engine phase totals with per-lane breakdown (when the
//! run profiled), and ASCII heatmaps of the per-router telemetry from
//! the final interval.

use crate::heatmap::{self, saturating_sum, LayoutKind, TopoLayout};
use crate::json::{self, Value};
use crate::telemetry::RouterTelemetry;

/// Renders a whole metrics file (the content of a `--metrics-out`
/// JSONL file) into a human-readable report.
///
/// # Errors
///
/// Returns a message naming the offending line for malformed JSON, a
/// missing meta line, a meta line whose grid has no area, overflows or
/// disagrees with its `nodes`, a meta line naming a zero chiplet tile,
/// or interval lines whose shapes disagree with the meta line.
pub fn render(content: &str) -> Result<String, String> {
    let mut meta: Option<Value> = None;
    let mut intervals: Vec<Value> = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match v.get("kind").and_then(Value::as_str) {
            Some("meta") => meta = Some(v),
            Some("interval") => intervals.push(v),
            other => return Err(format!("line {}: unknown kind {other:?}", i + 1)),
        }
    }
    let meta = meta.ok_or("no meta line found — is this a --metrics-out file?")?;
    let width = meta.u64_field("width").ok_or("meta line missing width")?;
    let height = meta.u64_field("height").ok_or("meta line missing height")?;
    // Every heatmap loops over the grid, so a wrapped or zero area would
    // let empty metric arrays through and then spin.
    let area = width
        .checked_mul(height)
        .filter(|&a| a > 0 && usize::try_from(a).is_ok())
        .ok_or_else(|| format!("meta line: a {width}x{height} grid has no area or overflows"))?;
    if let Some(nodes) = meta.u64_field("nodes").filter(|&n| n != area) {
        return Err(format!(
            "meta line: {nodes} nodes for a {width}x{height} grid"
        ));
    }
    // Absent in pre-topology metrics files: those were all meshes.
    let topology = meta
        .get("topology")
        .and_then(Value::as_str)
        .unwrap_or("mesh");
    let kind = LayoutKind::parse(topology);
    if matches!(kind, LayoutKind::Chiplet { chip_w, chip_h } if chip_w == 0 || chip_h == 0) {
        return Err(format!(
            "meta line: topology `{topology}` has a zero chiplet tile"
        ));
    }
    // Both sides fit in `usize`, since their product does.
    let layout = TopoLayout {
        width: width as usize,
        height: height as usize,
        kind,
    };

    let mut out = String::new();
    render_summary(&mut out, &meta, intervals.len());
    if intervals.is_empty() {
        out.push_str("\nno interval lines recorded\n");
        return Ok(out);
    }
    render_interval_table(&mut out, &intervals)?;
    let last = intervals.last().expect("non-empty");
    render_phases(&mut out, last);
    render_activity(&mut out, last);
    render_heatmaps(&mut out, last, &layout)?;
    Ok(out)
}

fn render_summary(out: &mut String, meta: &Value, intervals: usize) {
    out.push_str("run summary\n");
    if let Some(t) = meta.get("topology").and_then(Value::as_str) {
        out.push_str(&format!("  {:<22} {t}\n", "topology"));
    }
    for key in [
        "width",
        "height",
        "nodes",
        "threads", // an echo the engine does not read
        "available_parallelism",
        "metrics_every",
        "seed",
    ] {
        if let Some(v) = meta.u64_field(key) {
            out.push_str(&format!("  {key:<22} {v}\n"));
        }
    }
    out.push_str(&format!("  {:<22} {intervals}\n", "intervals"));
}

/// Long runs accumulate thousands of intervals; the table shows the
/// head and tail around an elision marker so the report stays readable
/// (the full stream is always in the JSONL file itself).
const TABLE_HEAD: usize = 8;
const TABLE_TAIL: usize = 24;

fn render_interval_table(out: &mut String, intervals: &[Value]) -> Result<(), String> {
    out.push_str(&format!(
        "\nper-interval deltas\n  {:>9} {:>10} {:>10} {:>12}\n",
        "cycle", "+injected", "+ejected", "avg_latency"
    ));
    let elide = intervals.len() > TABLE_HEAD + TABLE_TAIL;
    for (i, v) in intervals.iter().enumerate() {
        if elide && i == TABLE_HEAD {
            out.push_str(&format!(
                "  {:>9} ({} intervals elided)\n",
                "...",
                intervals.len() - TABLE_HEAD - TABLE_TAIL
            ));
        }
        if elide && (TABLE_HEAD..intervals.len() - TABLE_TAIL).contains(&i) {
            continue;
        }
        let cycle = v.u64_field("cycle").ok_or("interval missing cycle")?;
        let delta = v.get("delta").ok_or("interval missing delta")?;
        let inj = delta.u64_field("injected").unwrap_or(0);
        let ej = delta.u64_field("ejected").unwrap_or(0);
        let avg = match delta.get("avg_latency") {
            Some(Value::Num(n)) => format!("{n:.1}"),
            _ => "-".to_string(),
        };
        out.push_str(&format!("  {cycle:>9} {inj:>10} {ej:>10} {avg:>12}\n"));
    }
    Ok(())
}

fn render_phases(out: &mut String, last: &Value) {
    let Some(phase) = last.get("phase").filter(|p| **p != Value::Null) else {
        out.push_str("\nengine phases: not profiled in this run\n");
        return;
    };
    let pre = phase.u64_field("pre_ns").unwrap_or(0);
    let commit = phase.u64_field("commit_ns").unwrap_or(0);
    let compute: Vec<u64> = u64_list(phase.get("compute_ns_by_lane"));
    let barrier: Vec<u64> = u64_list(phase.get("barrier_ns_by_lane"));
    let compute_total = saturating_sum(&compute);
    let barrier_total = saturating_sum(&barrier);
    let cycles = phase.u64_field("cycles").unwrap_or(0);
    let grand = saturating_sum(&[pre, commit, compute_total, barrier_total]);

    out.push_str(&format!("\nengine phases ({cycles} cycles profiled)\n"));
    for (name, ns) in [
        ("pre (serial)", pre),
        ("compute", compute_total),
        ("barrier wait", barrier_total),
        ("commit (serial)", commit),
    ] {
        out.push_str(&format!(
            "  {name:<16} {:>12} {:>6}\n",
            fmt_ns(ns),
            pct(ns, grand)
        ));
    }
    if compute.len() > 1 {
        out.push_str(&format!(
            "  {:<6} {:>12} {:>12}\n",
            "lane", "compute", "barrier"
        ));
        for (i, (c, b)) in compute.iter().zip(barrier.iter()).enumerate() {
            out.push_str(&format!("  {i:<6} {:>12} {:>12}\n", fmt_ns(*c), fmt_ns(*b)));
        }
    }
}

/// Activity-gating totals from the final interval. Absent in metrics
/// files written before the gated engine existed — the section is
/// simply omitted then.
fn render_activity(out: &mut String, last: &Value) {
    let Some(act) = last.get("activity") else {
        return;
    };
    let computed = act.u64_field("routers_computed").unwrap_or(0);
    let skipped = act.u64_field("routers_skipped").unwrap_or(0);
    out.push_str("\nactivity gating (router-cycles, cumulative)\n");
    for (name, v) in [("computed", computed), ("skipped", skipped)] {
        out.push_str(&format!("  {name:<16} {v:>12}\n"));
    }
    out.push_str(&format!(
        "  {:<16} {:>12}\n",
        "skip rate",
        pct(skipped, computed.saturating_add(skipped))
    ));
}

fn render_heatmaps(out: &mut String, last: &Value, layout: &TopoLayout) -> Result<(), String> {
    let routers = last.get("routers").ok_or("interval missing routers")?;
    let (w, h) = (layout.width, layout.height);
    let misshapen = |what: String, n: usize| format!("{what}: {n} values for a {w}x{h} grid");
    // Dead flags (0/1 array beside the counters) mark routers killed by
    // schedule or wear-out; their cells draw as ✖ instead of an
    // intensity. Files from before router deaths existed have no array
    // — everyone is alive then.
    let dead: Vec<bool> = u64_list(routers.get("dead"))
        .iter()
        .map(|&d| d != 0)
        .collect();
    if !dead.is_empty() && dead.len() != w * h {
        return Err(misshapen("dead flags".into(), dead.len()));
    }
    out.push_str("\nrouter heatmaps (cumulative, final interval)\n");
    for &metric in RouterTelemetry::NAMES {
        let values = u64_list(routers.get(metric));
        if values.len() != w * h {
            return Err(misshapen(format!("metric {metric}"), values.len()));
        }
        // flits_routed is always shown (the baseline traffic picture);
        // the fault/stall metrics only when they actually fired.
        if metric == "flits_routed" || values.iter().any(|&v| v > 0) {
            out.push('\n');
            out.push_str(&heatmap::render_layout(metric, layout, &values, &dead));
        }
    }
    Ok(())
}

fn u64_list(v: Option<&Value>) -> Vec<u64> {
    v.and_then(Value::as_arr)
        .map(|items| items.iter().filter_map(Value::as_u64).collect())
        .unwrap_or_default()
}

/// Nanoseconds with a human unit (fixed precision, stable width-ish).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / whole as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{IntervalLine, MetaLine};
    use crate::profile::ProfileSnapshot;
    use crate::telemetry::MeshTelemetry;

    fn sample_file() -> String {
        let meta = MetaLine {
            width: 2,
            height: 2,
            nodes: 4,
            topology: LayoutKind::Mesh,
            threads: 2,
            available_parallelism: 1,
            metrics_every: 100,
            seed: 7,
        };
        let mut routers = vec![RouterTelemetry::default(); 4];
        routers[0].flits_routed = 10;
        routers[3].flits_routed = 40;
        routers[3].nacks = 3;
        for (i, r) in routers.iter_mut().enumerate() {
            r.computed_cycles = 100 - 10 * i as u64;
        }
        let interval = IntervalLine {
            cycle: 100,
            injected: 20,
            ejected: 15,
            latency_sum: 300,
            d_injected: 20,
            d_ejected: 15,
            d_latency_sum: 300,
            phase: Some(ProfileSnapshot {
                pre_ns: 1_000,
                commit_ns: 2_000,
                cycles: 100,
                lanes: vec![(3_000, 500), (2_500, 700)],
            }),
            routers: MeshTelemetry {
                width: 2,
                height: 2,
                routers,
                dead: vec![false; 4],
            },
        };
        format!("{}\n{}\n", meta.to_json(), interval.to_json())
    }

    #[test]
    fn renders_all_sections() {
        let report = render(&sample_file()).unwrap();
        assert!(report.contains("run summary"), "{report}");
        assert!(report.contains("per-interval deltas"), "{report}");
        assert!(report.contains("engine phases (100 cycles profiled)"));
        assert!(report.contains("barrier wait"));
        assert!(report.contains("flits_routed (total 50, max 40)"));
        // nacks fired, so its heatmap appears; retransmissions did not.
        assert!(report.contains("nacks (total 3, max 3)"), "{report}");
        assert!(!report.contains("retransmissions (total"), "{report}");
        assert!(report.contains("hottest (1,1)"), "{report}");
        // 340 of 400 router-cycles computed → 15% skipped.
        assert!(report.contains("activity gating"), "{report}");
        assert!(report.contains("15.0%"), "{report}");
        assert!(report.contains("computed_cycles (total 340"), "{report}");
    }

    #[test]
    fn topology_flows_from_meta_to_summary_and_heatmaps() {
        let file = sample_file().replace("\"topology\":\"mesh\"", "\"topology\":\"torus\"");
        let report = render(&file).unwrap();
        assert!(report.contains("topology               torus"), "{report}");
        assert!(report.contains("rows and columns wrap"), "{report}");
        // Files written before the topology field existed still render
        // (as plain meshes, without a topology summary row).
        let old = sample_file().replace("\"topology\":\"mesh\",", "");
        let report = render(&old).unwrap();
        assert!(!report.contains("topology  "), "{report}");
        assert!(report.contains("flits_routed (total 50"), "{report}");
    }

    #[test]
    fn dead_routers_show_as_crosses_in_heatmaps() {
        // Kill router 2 in the final interval: every rendered heatmap
        // marks its cell ✖ and the legend names the glyph.
        let file = sample_file().replace("\"dead\":[0,0,0,0]", "\"dead\":[0,0,1,0]");
        let report = render(&file).unwrap();
        assert!(report.contains('✖'), "{report}");
        assert!(report.contains("✖ = dead router (1)"), "{report}");
        // An all-alive run keeps the old output shape.
        let report = render(&sample_file()).unwrap();
        assert!(!report.contains('✖'), "{report}");
        // Pre-death files (no dead array at all) still render.
        let old = sample_file().replace(",\"dead\":[0,0,0,0]", "");
        let report = render(&old).unwrap();
        assert!(!report.contains('✖'), "{report}");
        assert!(report.contains("flits_routed (total 50"), "{report}");
        // A malformed dead array is diagnosed, not mis-painted.
        let bad = sample_file().replace("\"dead\":[0,0,0,0]", "\"dead\":[1]");
        let err = render(&bad).unwrap_err();
        assert!(err.contains("dead flags"), "{err}");
    }

    #[test]
    fn unprofiled_runs_say_so() {
        let file = sample_file().replace(
            "\"phase\":{\"pre_ns\":1000,\"commit_ns\":2000,\"cycles\":100,\
             \"compute_ns_by_lane\":[3000,2500],\"barrier_ns_by_lane\":[500,700]}",
            "\"phase\":null",
        );
        let report = render(&file).unwrap();
        assert!(report.contains("not profiled"), "{report}");
    }

    #[test]
    fn missing_meta_is_an_error() {
        let file = sample_file();
        let only_interval = file.lines().nth(1).unwrap();
        let err = render(only_interval).unwrap_err();
        assert!(err.contains("no meta line"), "{err}");
    }

    #[test]
    fn malformed_lines_are_located() {
        let err = render("{\"kind\":\"meta\"\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn zero_chiplet_tile_is_an_error() {
        for topology in ["chiplet:0x1", "chiplet:2x0"] {
            let file = sample_file().replace(
                "\"topology\":\"mesh\"",
                &format!("\"topology\":\"{topology}\""),
            );
            let err = render(&file).unwrap_err();
            assert!(err.contains("meta line") && err.contains(topology), "{err}");
        }
    }

    /// A grid whose area wraps to 0 or is 0 used to hang the heatmap
    /// loop (and overflow in debug builds).
    #[test]
    fn grids_without_area_or_disagreeing_with_nodes_are_errors() {
        let interval = r#"{"kind":"interval","cycle":1,"delta":{},"routers":{}}"#;
        for (grid, want) in [
            (r#""width":4294967296,"height":4294967296"#, "has no area"),
            (r#""width":1000000000,"height":0"#, "has no area"),
            (
                r#""width":2,"height":2,"nodes":5"#,
                "5 nodes for a 2x2 grid",
            ),
        ] {
            let file = format!("{{\"kind\":\"meta\",{grid}}}\n{interval}\n");
            let err = render(&file).unwrap_err();
            assert!(
                err.starts_with("meta line: ") && err.contains(want),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_interval_list_is_reported() {
        let meta_only = sample_file().lines().next().unwrap().to_string();
        let report = render(&meta_only).unwrap();
        assert!(report.contains("no interval lines recorded"), "{report}");
    }

    #[test]
    fn long_interval_tables_are_elided() {
        let meta = sample_file().lines().next().unwrap().to_string();
        let mut file = meta + "\n";
        for i in 1..=100u64 {
            let line = IntervalLine {
                cycle: i * 100,
                injected: i,
                ejected: i,
                latency_sum: i,
                d_injected: 1,
                d_ejected: 1,
                d_latency_sum: 1,
                phase: None,
                routers: MeshTelemetry {
                    width: 2,
                    height: 2,
                    routers: vec![RouterTelemetry::default(); 4],
                    dead: vec![false; 4],
                },
            };
            file.push_str(&line.to_json());
            file.push('\n');
        }
        let report = render(&file).unwrap();
        assert!(report.contains("(68 intervals elided)"), "{report}");
        // Head and tail survive; the middle does not.
        assert!(report.contains("\n        100 "), "{report}");
        assert!(report.contains("\n      10000 "), "{report}");
        assert!(!report.contains("\n       5000 "), "{report}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.500ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
