//! Measurement plumbing: event census, latency accumulation, buffer
//! utilization and the error counters behind Figures 5–9 and 13.

use ftnoc_power::{EnergyEvent, EnergyModel};
use ftnoc_types::units::{Nanojoules, Picojoules};

/// Micro-architectural event counts, multiplied by the energy model at
/// reporting time (cheaper and more auditable than accumulating floats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Input-buffer writes.
    pub buffer_write: u64,
    /// Input-buffer reads.
    pub buffer_read: u64,
    /// Crossbar traversals.
    pub crossbar: u64,
    /// Inter-router link traversals.
    pub link: u64,
    /// Route computations.
    pub route: u64,
    /// Successful VC allocations.
    pub va: u64,
    /// Successful switch allocations.
    pub sa: u64,
    /// Retransmission-buffer shifts (copies recorded).
    pub retrans_shift: u64,
    /// Replayed (retransmitted) flits.
    pub retransmission: u64,
    /// SEC/DED decodes at error-check units.
    pub ecc_check: u64,
    /// NACK side-band transfers.
    pub nack: u64,
    /// Allocation Comparator evaluation cycles.
    pub ac_check: u64,
}

impl EventCounts {
    /// Total energy of the counted events under `model`.
    pub fn energy(&self, model: &EnergyModel) -> Picojoules {
        let pairs: [(EnergyEvent, u64); 12] = [
            (EnergyEvent::BufferWrite, self.buffer_write),
            (EnergyEvent::BufferRead, self.buffer_read),
            (EnergyEvent::CrossbarTraversal, self.crossbar),
            (EnergyEvent::LinkTraversal, self.link),
            (EnergyEvent::RouteCompute, self.route),
            (EnergyEvent::VcAllocation, self.va),
            (EnergyEvent::SwitchAllocation, self.sa),
            (EnergyEvent::RetransBufferShift, self.retrans_shift),
            (EnergyEvent::Retransmission, self.retransmission),
            (EnergyEvent::EccCheck, self.ecc_check),
            (EnergyEvent::NackSignal, self.nack),
            (EnergyEvent::AcCheck, self.ac_check),
        ];
        pairs
            .iter()
            .map(|(ev, n)| model.cost(*ev) * (*n as f64))
            .sum()
    }

    /// Per-event energy breakdown under `model` — the §2.2 "power profile
    /// of the entire on-chip network", itemized by micro-architectural
    /// event class.
    pub fn energy_breakdown(&self, model: &EnergyModel) -> Vec<(&'static str, u64, Picojoules)> {
        let rows: [(&'static str, EnergyEvent, u64); 12] = [
            ("buffer writes", EnergyEvent::BufferWrite, self.buffer_write),
            ("buffer reads", EnergyEvent::BufferRead, self.buffer_read),
            (
                "crossbar traversals",
                EnergyEvent::CrossbarTraversal,
                self.crossbar,
            ),
            ("link traversals", EnergyEvent::LinkTraversal, self.link),
            ("route computations", EnergyEvent::RouteCompute, self.route),
            ("VC allocations", EnergyEvent::VcAllocation, self.va),
            ("switch allocations", EnergyEvent::SwitchAllocation, self.sa),
            (
                "retrans. buffer shifts",
                EnergyEvent::RetransBufferShift,
                self.retrans_shift,
            ),
            (
                "retransmissions",
                EnergyEvent::Retransmission,
                self.retransmission,
            ),
            ("ECC checks", EnergyEvent::EccCheck, self.ecc_check),
            ("NACK signals", EnergyEvent::NackSignal, self.nack),
            ("AC checks", EnergyEvent::AcCheck, self.ac_check),
        ];
        rows.iter()
            .map(|(name, ev, n)| (*name, *n, model.cost(*ev) * (*n as f64)))
            .collect()
    }

    /// Element-wise accumulation (summing the per-router censuses).
    pub fn absorb(&mut self, other: &EventCounts) {
        self.buffer_write += other.buffer_write;
        self.buffer_read += other.buffer_read;
        self.crossbar += other.crossbar;
        self.link += other.link;
        self.route += other.route;
        self.va += other.va;
        self.sa += other.sa;
        self.retrans_shift += other.retrans_shift;
        self.retransmission += other.retransmission;
        self.ecc_check += other.ecc_check;
        self.nack += other.nack;
        self.ac_check += other.ac_check;
    }

    /// Element-wise difference (for warm-up snapshots).
    pub fn delta_since(&self, snapshot: &EventCounts) -> EventCounts {
        EventCounts {
            buffer_write: self.buffer_write - snapshot.buffer_write,
            buffer_read: self.buffer_read - snapshot.buffer_read,
            crossbar: self.crossbar - snapshot.crossbar,
            link: self.link - snapshot.link,
            route: self.route - snapshot.route,
            va: self.va - snapshot.va,
            sa: self.sa - snapshot.sa,
            retrans_shift: self.retrans_shift - snapshot.retrans_shift,
            retransmission: self.retransmission - snapshot.retransmission,
            ecc_check: self.ecc_check - snapshot.ecc_check,
            nack: self.nack - snapshot.nack,
            ac_check: self.ac_check - snapshot.ac_check,
        }
    }
}

/// Error-handling census (Figure 13a's "number of corrected errors" plus
/// the bookkeeping behind the reliability claims).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorStats {
    /// Link errors corrected in place by SEC (single-bit).
    pub link_corrected_inline: u64,
    /// Link errors recovered by HBH replay (uncorrectable upsets).
    pub link_recovered_by_replay: u64,
    /// Flits dropped by receivers (corrupted + drop-window).
    pub flits_dropped: u64,
    /// RT logic errors neutralized (re-route or detected misdirection).
    pub rt_corrected: u64,
    /// VA logic errors caught by the Allocation Comparator.
    pub va_corrected: u64,
    /// SA logic errors neutralized (AC or downstream ECC).
    pub sa_corrected: u64,
    /// Crossbar upsets corrected by downstream ECC.
    pub crossbar_corrected: u64,
    /// Handshake upsets masked by TMR.
    pub handshake_masked: u64,
    /// E2E/FEC end-to-end packet retransmissions.
    pub e2e_retransmissions: u64,
    /// Packets that arrived at the wrong node (misrouted by corruption).
    pub misdelivered: u64,
    /// Stranded flits discarded (no wormhole; only without protection).
    pub stranded_flits: u64,
    /// Deadlock probes launched.
    pub probes_sent: u64,
    /// Deadlocks confirmed by returning probes.
    pub deadlocks_confirmed: u64,
    /// Probes that died en route (false suspicions filtered out).
    pub probes_discarded: u64,
}

impl ErrorStats {
    /// Total corrected/recovered errors for the LINK-HBH series of
    /// Figure 13a.
    pub fn link_total_corrected(&self) -> u64 {
        self.link_corrected_inline + self.link_recovered_by_replay
    }

    /// Element-wise accumulation (summing the per-router censuses).
    pub fn absorb(&mut self, other: &ErrorStats) {
        self.link_corrected_inline += other.link_corrected_inline;
        self.link_recovered_by_replay += other.link_recovered_by_replay;
        self.flits_dropped += other.flits_dropped;
        self.rt_corrected += other.rt_corrected;
        self.va_corrected += other.va_corrected;
        self.sa_corrected += other.sa_corrected;
        self.crossbar_corrected += other.crossbar_corrected;
        self.handshake_masked += other.handshake_masked;
        self.e2e_retransmissions += other.e2e_retransmissions;
        self.misdelivered += other.misdelivered;
        self.stranded_flits += other.stranded_flits;
        self.probes_sent += other.probes_sent;
        self.deadlocks_confirmed += other.deadlocks_confirmed;
        self.probes_discarded += other.probes_discarded;
    }

    /// Element-wise difference.
    pub fn delta_since(&self, s: &ErrorStats) -> ErrorStats {
        ErrorStats {
            link_corrected_inline: self.link_corrected_inline - s.link_corrected_inline,
            link_recovered_by_replay: self.link_recovered_by_replay - s.link_recovered_by_replay,
            flits_dropped: self.flits_dropped - s.flits_dropped,
            rt_corrected: self.rt_corrected - s.rt_corrected,
            va_corrected: self.va_corrected - s.va_corrected,
            sa_corrected: self.sa_corrected - s.sa_corrected,
            crossbar_corrected: self.crossbar_corrected - s.crossbar_corrected,
            handshake_masked: self.handshake_masked - s.handshake_masked,
            e2e_retransmissions: self.e2e_retransmissions - s.e2e_retransmissions,
            misdelivered: self.misdelivered - s.misdelivered,
            stranded_flits: self.stranded_flits - s.stranded_flits,
            probes_sent: self.probes_sent - s.probes_sent,
            deadlocks_confirmed: self.deadlocks_confirmed - s.deadlocks_confirmed,
            probes_discarded: self.probes_discarded - s.probes_discarded,
        }
    }
}

/// A power-of-two-bucketed latency histogram: bucket `i` counts
/// latencies in `[2^i, 2^(i+1))` (bucket 0 covers 0 and 1).
///
/// Fixed memory, O(1) insert, and percentile queries accurate to the
/// bucket resolution — all a long-running simulator needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        let idx = (64 - latency.max(1).leading_zeros() - 1).min(31) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0 < q <= 1`), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (2u64 << i).saturating_sub(1);
            }
        }
        u64::MAX
    }

    /// Convenience: (p50, p95, p99) upper bounds.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// A decile histogram of per-port input-buffer fill levels: bucket `i`
/// counts samples with `occupied / capacity` in `[i/10, (i+1)/10)`
/// (a completely full port lands in the last bucket).
///
/// One sample is recorded per cardinal input port per measured cycle,
/// so the shape shows how buffer space is actually used — the figure of
/// merit for comparing a static per-VC partition against a DAMQ shared
/// pool at equal flit budget. A static partition at moderate load
/// typically piles samples into the low deciles (cold VCs dilute the
/// port average); a DAMQ concentrates the same traffic in fewer slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    buckets: [u64; 10],
    count: u64,
}

impl OccupancyHistogram {
    /// Records one port sample of `occupied` flits out of `capacity`.
    pub fn record(&mut self, occupied: usize, capacity: usize) {
        if capacity == 0 {
            return;
        }
        let idx = (occupied * 10 / capacity).min(9);
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Records `samples` samples of an empty port in one step (the
    /// routers an activity-gated cycle skipped hold no flit).
    pub fn record_empty(&mut self, samples: u64) {
        self.buckets[0] += samples;
        self.count += samples;
    }

    /// The ten decile counts, lowest fill first.
    pub fn buckets(&self) -> &[u64; 10] {
        &self.buckets
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fraction of samples at or above decile `i` (`0..10`); e.g.
    /// `frac_at_or_above(9)` is the share of port-cycles ≥ 90 % full.
    pub fn frac_at_or_above(&self, i: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let hot: u64 = self.buckets[i.min(9)..].iter().sum();
        hot as f64 / self.count as f64
    }
}

/// Aggregated network statistics for one run's measurement window.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Events (post-warm-up).
    pub events: EventCounts,
    /// Error census (post-warm-up).
    pub errors: ErrorStats,
    /// Sum of per-packet latencies (cycles).
    pub latency_sum: u64,
    /// Maximum observed packet latency.
    pub latency_max: u64,
    /// Packets ejected in the window.
    pub packets_ejected: u64,
    /// Packets injected in the window.
    pub packets_injected: u64,
    /// Flits ejected in the window.
    pub flits_ejected: u64,
    /// Cycles covered by the window.
    pub cycles: u64,
    /// Σ over sampled cycles of occupied transmission-buffer flits.
    pub tx_occupancy_sum: u64,
    /// Σ over sampled cycles of occupied retransmission-buffer slots.
    pub retx_occupancy_sum: u64,
    /// Transmission-buffer capacity sampled per cycle.
    pub tx_capacity: u64,
    /// Retransmission-buffer capacity sampled per cycle.
    pub retx_capacity: u64,
    /// Decile histogram of per-port input-buffer fill (one sample per
    /// cardinal input port per measured cycle).
    pub port_occupancy: OccupancyHistogram,
}

impl NetworkStats {
    /// Mean packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_ejected == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.packets_ejected as f64
    }

    /// Throughput in flits/node/cycle given the node count.
    pub fn throughput(&self, nodes: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flits_ejected as f64 / (self.cycles as f64 * nodes as f64)
    }

    /// Mean transmission-buffer utilization in `[0, 1]` (Figure 8).
    pub fn tx_utilization(&self) -> f64 {
        if self.cycles == 0 || self.tx_capacity == 0 {
            return 0.0;
        }
        self.tx_occupancy_sum as f64 / (self.cycles as f64 * self.tx_capacity as f64)
    }

    /// Mean retransmission-buffer utilization in `[0, 1]` (Figure 9).
    pub fn retx_utilization(&self) -> f64 {
        if self.cycles == 0 || self.retx_capacity == 0 {
            return 0.0;
        }
        self.retx_occupancy_sum as f64 / (self.cycles as f64 * self.retx_capacity as f64)
    }

    /// Total energy of the window under `model`.
    pub fn energy(&self, model: &EnergyModel) -> Picojoules {
        self.events.energy(model)
    }

    /// Mean energy per ejected packet (Figures 7 and 13b).
    pub fn energy_per_packet(&self, model: &EnergyModel) -> Nanojoules {
        if self.packets_ejected == 0 {
            return Nanojoules(0.0);
        }
        (self.energy(model) / self.packets_ejected as f64).to_nanojoules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_energy_is_linear() {
        let model = EnergyModel::new();
        let a = EventCounts {
            link: 10,
            ..Default::default()
        };
        let b = EventCounts {
            link: 20,
            ..Default::default()
        };
        assert!((b.energy(&model).raw() - 2.0 * a.energy(&model).raw()).abs() < 1e-9);
    }

    #[test]
    fn delta_subtracts_snapshots() {
        let before = EventCounts {
            link: 5,
            va: 2,
            ..Default::default()
        };
        let mut after = before;
        after.link = 9;
        after.va = 3;
        let d = after.delta_since(&before);
        assert_eq!(d.link, 4);
        assert_eq!(d.va, 1);
        assert_eq!(d.buffer_read, 0);
    }

    #[test]
    fn stats_averages_guard_division_by_zero() {
        let s = NetworkStats::default();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.throughput(64), 0.0);
        assert_eq!(s.tx_utilization(), 0.0);
        assert_eq!(s.retx_utilization(), 0.0);
        assert_eq!(s.energy_per_packet(&EnergyModel::new()).raw(), 0.0);
    }

    #[test]
    fn utilization_is_occupancy_over_capacity() {
        let s = NetworkStats {
            cycles: 10,
            tx_capacity: 100,
            tx_occupancy_sum: 250,
            retx_capacity: 50,
            retx_occupancy_sum: 50,
            ..NetworkStats::default()
        };
        assert!((s.tx_utilization() - 0.25).abs() < 1e-12);
        assert!((s.retx_utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.len(), 8);
        // p50 of 8 samples: the 4th (value 3) → bucket [2,4) → bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // The max sample (1000) lives in [512, 1024) → bound 1023.
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn histogram_percentiles_on_uniform_data() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99) = h.percentiles();
        assert!((511..=1023).contains(&p50), "p50 {p50}");
        assert!(p95 >= p50 && p99 >= p95);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        // An empty measurement window must report all-zero percentiles,
        // not garbage from a zero-count division.
        assert_eq!(h.percentiles(), (0, 0, 0));
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn single_sample_histogram_pins_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(37);
        assert_eq!(h.len(), 1);
        // One sample in [32, 64): every quantile reports that bucket's
        // upper bound.
        let (p50, p95, p99) = h.percentiles();
        assert_eq!((p50, p95, p99), (63, 63, 63));
        assert_eq!(h.quantile(0.01), 63);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn zero_latency_sample_lands_in_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.percentiles(), (1, 1, 1));
    }

    #[test]
    fn occupancy_histogram_deciles() {
        let mut h = OccupancyHistogram::default();
        h.record(0, 12); // 0 %  → bucket 0
        h.record(5, 12); // 41 % → bucket 4
        h.record(11, 12); // 91 % → bucket 9
        h.record(12, 12); // full → bucket 9 (clamped)
        h.record(3, 0); // capacity 0: ignored
        assert_eq!(h.len(), 4);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[4], 1);
        assert_eq!(h.buckets()[9], 2);
        assert!((h.frac_at_or_above(9) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn link_total_combines_inline_and_replay() {
        let e = ErrorStats {
            link_corrected_inline: 7,
            link_recovered_by_replay: 3,
            ..ErrorStats::default()
        };
        assert_eq!(e.link_total_corrected(), 10);
    }
}
