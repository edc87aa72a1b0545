//! Measurement plumbing: event census, latency accumulation, buffer
//! utilization and the error counters behind Figures 5–9 and 13.

use ftnoc_power::{EnergyEvent, EnergyModel};
use ftnoc_types::units::{Nanojoules, Picojoules};

ftnoc_metrics::census! {
    /// Micro-architectural event counts, multiplied by the energy model at
    /// reporting time (cheaper and more auditable than accumulating floats).
    pub struct EventCounts {
        /// Input-buffer writes.
        buffer_write,
        /// Input-buffer reads.
        buffer_read,
        /// Crossbar traversals.
        crossbar,
        /// Inter-router link traversals.
        link,
        /// Route computations.
        route,
        /// Successful VC allocations.
        va,
        /// Successful switch allocations.
        sa,
        /// Retransmission-buffer shifts (copies recorded).
        retrans_shift,
        /// Replayed (retransmitted) flits.
        retransmission,
        /// SEC/DED decodes at error-check units.
        ecc_check,
        /// NACK side-band transfers.
        nack,
        /// Allocation Comparator evaluation cycles.
        ac_check,
    }
}

/// The energy row of each [`EventCounts`] field, in field order: its
/// label in the power profile and the event the model prices.
const ENERGY_ROWS: [(&str, EnergyEvent); 12] = [
    ("buffer writes", EnergyEvent::BufferWrite),
    ("buffer reads", EnergyEvent::BufferRead),
    ("crossbar traversals", EnergyEvent::CrossbarTraversal),
    ("link traversals", EnergyEvent::LinkTraversal),
    ("route computations", EnergyEvent::RouteCompute),
    ("VC allocations", EnergyEvent::VcAllocation),
    ("switch allocations", EnergyEvent::SwitchAllocation),
    ("retrans. buffer shifts", EnergyEvent::RetransBufferShift),
    ("retransmissions", EnergyEvent::Retransmission),
    ("ECC checks", EnergyEvent::EccCheck),
    ("NACK signals", EnergyEvent::NackSignal),
    ("AC checks", EnergyEvent::AcCheck),
];
const _: () = assert!(ENERGY_ROWS.len() == EventCounts::NAMES.len());

impl EventCounts {
    /// Total energy of the counted events under `model`: the
    /// breakdown's rows summed in field order.
    pub fn energy(&self, model: &EnergyModel) -> Picojoules {
        self.energy_breakdown(model).iter().map(|r| r.2).sum()
    }

    /// Per-event energy breakdown under `model` — the §2.2 "power profile
    /// of the entire on-chip network", itemized by micro-architectural
    /// event class, in field order.
    pub fn energy_breakdown(&self, model: &EnergyModel) -> Vec<(&'static str, u64, Picojoules)> {
        ENERGY_ROWS
            .iter()
            .zip(Self::NAMES)
            .map(|(&(label, event), name)| {
                let n = self.get(name).expect("NAMES resolve");
                (label, n, model.cost(event) * (n as f64))
            })
            .collect()
    }
}

ftnoc_metrics::census! {
    /// Error-handling census (Figure 13a's "number of corrected errors" plus
    /// the bookkeeping behind the reliability claims).
    pub struct ErrorStats {
        /// Link errors corrected in place by SEC (single-bit).
        link_corrected_inline,
        /// Link errors recovered by HBH replay (uncorrectable upsets).
        link_recovered_by_replay,
        /// Flits dropped by receivers (corrupted + drop-window).
        flits_dropped,
        /// RT logic errors neutralized (re-route or detected misdirection).
        rt_corrected,
        /// VA winners removed because the Allocation Comparator returned
        /// *any* finding that cycle: the winners whose ground-truth
        /// corrupted bit is set, not the rows the AC named (ROADMAP
        /// item 2).
        va_corrected,
        /// SA grants removed: every suppressed grant, and with the AC on
        /// also every wrong-output or multicast upset, counted without an
        /// AC call (ROADMAP item 2).
        sa_corrected,
        /// Crossbar upsets corrected by downstream ECC.
        crossbar_corrected,
        /// Handshake upsets masked by TMR.
        handshake_masked,
        /// E2E/FEC end-to-end packet retransmissions.
        e2e_retransmissions,
        /// Packets that arrived at the wrong node (misrouted by corruption).
        misdelivered,
        /// Stranded flits discarded (no wormhole; only without protection).
        stranded_flits,
        /// Deadlock probes launched.
        probes_sent,
        /// Deadlocks confirmed by returning probes.
        deadlocks_confirmed,
        /// Probes that died en route (false suspicions filtered out).
        probes_discarded,
    }
}

impl ErrorStats {
    /// Total corrected/recovered errors for the LINK-HBH series of
    /// Figure 13a.
    pub fn link_total_corrected(&self) -> u64 {
        self.link_corrected_inline + self.link_recovered_by_replay
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
