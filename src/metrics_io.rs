//! The `--metrics-out` file emitter: periodic JSONL interval lines.
//!
//! [`MetricsEmitter`] serializes each line on the calling thread and
//! writes it into the buffered file it opened: one line per
//! `--metrics-every` cycles is too rare to be worth a writer thread.
//! Lines are built from read-only snapshots ([`ftnoc_sim::Progress`],
//! [`MeshTelemetry`], [`ProfileSnapshot`]) taken at commit boundaries —
//! emission cannot perturb the run, and a metrics-enabled run produces
//! byte-identical traces and reports to a metrics-free one.
//!
//! An I/O error never kills the run and is never silent: the emitter
//! keeps the first one, writes nothing after it, and
//! [`MetricsEmitter::finish`] returns it.
//!
//! File format: one [`MetaLine`] describing the run, then one
//! [`IntervalLine`] per emission with cumulative totals and per-window
//! deltas. Render it with `ftnoc report FILE`.

use ftnoc_metrics::{IntervalLine, LayoutKind, MeshTelemetry, MetaLine, ProfileSnapshot};
use ftnoc_sim::{Progress, SimConfig};
use ftnoc_types::geom::TopologyKind;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Periodic metrics emission for one run. See the module docs.
pub struct MetricsEmitter {
    file: BufWriter<File>,
    /// The first write error; once set, nothing more is written.
    error: Option<io::Error>,
    every: u64,
    /// Cumulative (injected, ejected, latency_sum) at the previous
    /// emission — the baseline for per-window deltas.
    prev: (u64, u64, u64),
    /// Cycle of the last emitted interval (dedups the final flush when
    /// the run ends exactly on an interval boundary).
    last_cycle: Option<u64>,
}

impl MetricsEmitter {
    /// Opens `path` and writes the meta line. `every` is the emission
    /// interval in cycles (≥ 1).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// created.
    pub fn create(path: &Path, every: u64, config: &SimConfig) -> io::Result<Self> {
        let file = BufWriter::new(File::create(path)?);
        let topology = match config.topology.kind() {
            TopologyKind::Mesh => LayoutKind::Mesh,
            TopologyKind::Torus => LayoutKind::Torus,
            TopologyKind::CMesh => LayoutKind::CMesh {
                concentration: config.topology.local_ports(),
            },
            TopologyKind::Chiplet => {
                let (cw, ch) = config.topology.chip_dims().expect("chiplet has tile dims");
                LayoutKind::Chiplet {
                    chip_w: cw as usize,
                    chip_h: ch as usize,
                }
            }
        };
        let meta = MetaLine {
            width: config.topology.width() as usize,
            height: config.topology.height() as usize,
            nodes: config.topology.node_count(),
            topology,
            threads: config.threads,
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(0),
            metrics_every: every.max(1),
            seed: config.seed,
        };
        let mut emitter = MetricsEmitter {
            file,
            error: None,
            every: every.max(1),
            prev: (0, 0, 0),
            last_cycle: None,
        };
        emitter.write_line(&meta.to_json());
        Ok(emitter)
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_none() {
            self.error = writeln!(self.file, "{line}").err();
        }
    }

    /// Whether `cycle` lands on an emission boundary.
    pub fn due(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.every)
    }

    /// Writes one interval line from commit-boundary snapshots. A
    /// repeat call for an already-emitted cycle is a no-op (the final
    /// flush at run end reuses this).
    pub fn record(
        &mut self,
        progress: Progress,
        routers: MeshTelemetry,
        phase: Option<ProfileSnapshot>,
    ) {
        if self.last_cycle == Some(progress.now) {
            return;
        }
        self.last_cycle = Some(progress.now);
        let (p_inj, p_ej, p_lat) = self.prev;
        let line = IntervalLine {
            cycle: progress.now,
            injected: progress.packets_injected,
            ejected: progress.packets_ejected,
            latency_sum: progress.latency_sum,
            d_injected: progress.packets_injected.saturating_sub(p_inj),
            d_ejected: progress.packets_ejected.saturating_sub(p_ej),
            d_latency_sum: progress.latency_sum.saturating_sub(p_lat),
            phase,
            routers,
        };
        self.prev = (
            progress.packets_injected,
            progress.packets_ejected,
            progress.latency_sum,
        );
        self.write_line(&line.to_json());
    }

    /// Flushes and closes the file.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error any line or the final flush met; the
    /// file is then incomplete.
    pub fn finish(mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.file.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_metrics::json;

    fn config() -> SimConfig {
        SimConfig::builder()
            .measure_packets(10)
            .warmup_packets(0)
            .build()
            .unwrap()
    }

    fn progress(now: u64, injected: u64, ejected: u64, latency_sum: u64) -> Progress {
        Progress {
            now,
            packets_injected: injected,
            packets_ejected: ejected,
            latency_sum,
            any_in_recovery: false,
        }
    }

    fn mesh() -> MeshTelemetry {
        MeshTelemetry {
            width: 8,
            height: 8,
            routers: vec![Default::default(); 64],
            dead: vec![false; 64],
        }
    }

    #[test]
    fn emits_meta_then_intervals_with_deltas() {
        let dir = std::env::temp_dir();
        let path = dir.join("ftnoc-metrics-io-test.jsonl");
        let mut em = MetricsEmitter::create(&path, 100, &config()).unwrap();
        assert!(em.due(100) && em.due(200) && !em.due(150));
        em.record(progress(100, 40, 30, 600), mesh(), None);
        em.record(progress(200, 90, 70, 1400), mesh(), None);
        // The final flush at an already-emitted cycle is a no-op.
        em.record(progress(200, 90, 70, 1400), mesh(), None);
        em.finish().unwrap();

        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<_> = content.lines().collect();
        assert_eq!(lines.len(), 3, "meta + 2 intervals:\n{content}");
        let meta = json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("kind").unwrap().as_str(), Some("meta"));
        assert_eq!(meta.u64_field("nodes"), Some(64));
        let second = json::parse(lines[2]).unwrap();
        assert_eq!(second.u64_field("cycle"), Some(200));
        let delta = second.get("delta").unwrap();
        assert_eq!(delta.u64_field("injected"), Some(50));
        assert_eq!(delta.u64_field("ejected"), Some(40));
        assert_eq!(delta.get("avg_latency").unwrap().as_f64(), Some(20.0));
    }

    /// `/dev/full` opens and then refuses every byte: the emitter must
    /// report that from `finish`, not panic.
    #[cfg(target_os = "linux")]
    #[test]
    fn unwritable_file_surfaces_from_finish() {
        let mut em = MetricsEmitter::create(Path::new("/dev/full"), 100, &config()).unwrap();
        em.record(progress(100, 40, 30, 600), mesh(), None);
        let e = em.finish().expect_err("/dev/full accepts no data");
        assert_eq!(e.kind(), io::ErrorKind::StorageFull, "{e}");
    }
}
