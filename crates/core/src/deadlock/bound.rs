//! The buffer-sizing theorem, Eq. (1) of §3.2.1.
//!
//! In deadlock-recovery mode the total buffering of the cycle — the
//! transmission buffers `Tᵢ` plus the retransmission buffers `Rᵢ` — must
//! exceed `M × Σᵢ Nᵢ`, where `M` is the packet length in flits and
//! `Nᵢ = ⌈Tᵢ / M⌉` is the maximum number of distinct packets a
//! transmission buffer can hold. Then every message in the deadlock can
//! be absorbed with at least one slot to spare, and the cycle drains.

/// Description of one deadlocked cycle for the Eq. (1) check.
///
/// # Examples
///
/// The paper's two worked examples:
///
/// ```
/// use ftnoc_core::deadlock::DeadlockCycleSpec;
///
/// // Figure 10: n=3, T=4, R=3, M=4 → B = 21 > 12.
/// let fig10 = DeadlockCycleSpec::uniform(3, 4, 3, 4);
/// assert_eq!(fig10.total_buffer_size(), 21);
/// assert_eq!(fig10.required_size(), 12);
/// assert!(fig10.recovery_is_guaranteed());
///
/// // Figure 11: n=4, T=6, R=3, M=4 → B = 36 > 32.
/// let fig11 = DeadlockCycleSpec::uniform(4, 6, 3, 4);
/// assert_eq!(fig11.total_buffer_size(), 36);
/// assert_eq!(fig11.required_size(), 32);
/// assert!(fig11.recovery_is_guaranteed());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockCycleSpec {
    /// Per-node transmission buffer sizes `Tᵢ` (flits).
    transmission: Vec<usize>,
    /// Per-node retransmission buffer sizes `Rᵢ` (flits).
    retransmission: Vec<usize>,
    /// Packet (message) length `M` in flits.
    flits_per_packet: usize,
}

impl DeadlockCycleSpec {
    /// A cycle of `nodes` identical routers.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `flits_per_packet == 0`.
    pub fn uniform(
        nodes: usize,
        transmission_depth: usize,
        retrans_depth: usize,
        flits_per_packet: usize,
    ) -> Self {
        assert!(nodes > 0, "a deadlock cycle needs at least one node");
        assert!(flits_per_packet > 0, "packets need at least one flit");
        DeadlockCycleSpec {
            transmission: vec![transmission_depth; nodes],
            retransmission: vec![retrans_depth; nodes],
            flits_per_packet,
        }
    }

    /// A heterogeneous cycle with per-node buffer sizes.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, differ in length, or
    /// `flits_per_packet == 0`.
    pub fn heterogeneous(
        transmission: &[usize],
        retransmission: &[usize],
        flits_per_packet: usize,
    ) -> Self {
        assert!(!transmission.is_empty(), "a cycle needs at least one node");
        assert_eq!(
            transmission.len(),
            retransmission.len(),
            "per-node size lists must align"
        );
        assert!(flits_per_packet > 0, "packets need at least one flit");
        DeadlockCycleSpec {
            transmission: transmission.to_vec(),
            retransmission: retransmission.to_vec(),
            flits_per_packet,
        }
    }

    /// Number of nodes `n` in the cycle.
    pub fn nodes(&self) -> usize {
        self.transmission.len()
    }

    /// Total buffering in recovery mode: `B₂ = Σᵢ (Tᵢ + Rᵢ)`.
    pub fn total_buffer_size(&self) -> usize {
        self.transmission.iter().sum::<usize>() + self.retransmission.iter().sum::<usize>()
    }

    /// `Σᵢ Nᵢ` with `Nᵢ = ⌈Tᵢ / M⌉`: the worst-case number of distinct
    /// packets wedged in the cycle.
    pub fn max_packets(&self) -> usize {
        self.transmission
            .iter()
            .map(|t| t.div_ceil(self.flits_per_packet))
            .sum()
    }

    /// The Eq. (1) threshold `M × Σᵢ Nᵢ`.
    pub fn required_size(&self) -> usize {
        self.flits_per_packet * self.max_packets()
    }

    /// The theorem's conclusion: recovery is guaranteed iff
    /// `B₂ > M × Σᵢ Nᵢ` (strictly — at least one slot must stay free).
    pub fn recovery_is_guaranteed(&self) -> bool {
        self.total_buffer_size() > self.required_size()
    }

    /// `Σᵢ Nᵢ` under the *unaligned* worst case: a partially transferred
    /// packet occupies the front of a buffer (Figure 11), so a `Tᵢ`-deep
    /// buffer can straddle `1 + ⌈(Tᵢ − M + 1) / M⌉` distinct packets
    /// when `Tᵢ ≥ M` (and `⌈Tᵢ/M⌉ = 1` otherwise, since even one packet
    /// does not fit whole).
    pub fn max_packets_unaligned(&self) -> usize {
        let m = self.flits_per_packet;
        self.transmission
            .iter()
            .map(|&t| {
                if t >= m {
                    1 + (t - m + 1).div_ceil(m)
                } else {
                    1
                }
            })
            .sum()
    }

    /// Eq. (1) evaluated against the unaligned worst case — the bound a
    /// live wormhole network actually needs, since nothing aligns packet
    /// boundaries to buffer boundaries.
    pub fn recovery_guaranteed_unaligned(&self) -> bool {
        self.total_buffer_size() > self.flits_per_packet * self.max_packets_unaligned()
    }

    /// The minimum uniform retransmission depth that satisfies Eq. (1)
    /// for a cycle of identical nodes, or `None` if no depth is needed
    /// (the transmission buffers alone already exceed the bound, which
    /// cannot happen: `Tᵢ ≤ M·Nᵢ` by definition of `Nᵢ`).
    pub fn min_uniform_retrans_depth(
        nodes: usize,
        transmission_depth: usize,
        flits_per_packet: usize,
    ) -> usize {
        let mut r = 0;
        loop {
            let spec = DeadlockCycleSpec::uniform(nodes, transmission_depth, r, flits_per_packet);
            if spec.recovery_is_guaranteed() {
                return r;
            }
            r += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_example() {
        let spec = DeadlockCycleSpec::uniform(3, 4, 3, 4);
        assert_eq!(spec.nodes(), 3);
        assert_eq!(spec.total_buffer_size(), 21);
        assert_eq!(spec.max_packets(), 3);
        assert_eq!(spec.required_size(), 12);
        assert!(spec.recovery_is_guaranteed());
    }

    #[test]
    fn figure11_worst_case_example() {
        let spec = DeadlockCycleSpec::uniform(4, 6, 3, 4);
        assert_eq!(spec.total_buffer_size(), 36);
        assert_eq!(spec.max_packets(), 8);
        assert_eq!(spec.required_size(), 32);
        assert!(spec.recovery_is_guaranteed());
    }

    #[test]
    fn equality_is_not_enough() {
        // T=5, R=3, M=4: B₂ = n(5+3) = 8n; bound = 4·n·⌈5/4⌉ = 8n. The
        // theorem demands strict inequality, so this is NOT guaranteed.
        let spec = DeadlockCycleSpec::uniform(4, 5, 3, 4);
        assert_eq!(spec.total_buffer_size(), spec.required_size());
        assert!(!spec.recovery_is_guaranteed());
    }

    #[test]
    fn deeper_retransmission_buffers_restore_the_guarantee() {
        let spec = DeadlockCycleSpec::uniform(4, 5, 4, 4);
        assert!(spec.recovery_is_guaranteed());
    }

    #[test]
    fn min_uniform_depth_for_paper_config() {
        // T=4, M=4: any positive retransmission depth works (B = n(4+r) >
        // 4n ⇔ r ≥ 1).
        assert_eq!(DeadlockCycleSpec::min_uniform_retrans_depth(3, 4, 4), 1);
        // T=5, M=4: need n(5+r) > 8n ⇔ r ≥ 4.
        assert_eq!(DeadlockCycleSpec::min_uniform_retrans_depth(4, 5, 4), 4);
        // T=6, M=4 (Figure 11): need n(6+r) > 8n ⇔ r ≥ 3.
        assert_eq!(DeadlockCycleSpec::min_uniform_retrans_depth(4, 6, 4), 3);
    }

    #[test]
    fn heterogeneous_cycle_sums_per_node() {
        let spec = DeadlockCycleSpec::heterogeneous(&[4, 6, 4], &[3, 3, 3], 4);
        assert_eq!(spec.total_buffer_size(), 23);
        // N = ⌈4/4⌉ + ⌈6/4⌉ + ⌈4/4⌉ = 1 + 2 + 1 = 4 → required 16.
        assert_eq!(spec.required_size(), 16);
        assert!(spec.recovery_is_guaranteed());
    }

    #[test]
    fn single_flit_packets_always_recoverable_with_any_retrans() {
        let spec = DeadlockCycleSpec::uniform(5, 4, 1, 1);
        // N_i = 4, required = 20, total = 25.
        assert!(spec.recovery_is_guaranteed());
    }

    #[test]
    fn unaligned_worst_case_needs_more_buffering() {
        // T=4, M=4: aligned N=1, but an unaligned buffer straddles two
        // packets, so the live bound wants 4+R > 8, i.e. R >= 5.
        for r in [1usize, 3, 4] {
            let spec = DeadlockCycleSpec::uniform(4, 4, r, 4);
            assert!(spec.recovery_is_guaranteed(), "aligned bound, R={r}");
            assert!(
                !spec.recovery_guaranteed_unaligned(),
                "unaligned bound must fail at R={r}"
            );
        }
        let spec = DeadlockCycleSpec::uniform(4, 4, 5, 4);
        assert!(spec.recovery_guaranteed_unaligned());
    }

    #[test]
    fn unaligned_count_matches_figure11() {
        // T=6, M=4: a partial packet plus one whole packet — N=2, the
        // same figure the paper uses.
        let spec = DeadlockCycleSpec::uniform(4, 6, 3, 4);
        assert_eq!(spec.max_packets_unaligned(), 8); // 2 per node
    }

    #[test]
    fn tiny_buffers_hold_at_most_one_packet() {
        let spec = DeadlockCycleSpec::uniform(2, 3, 3, 4);
        assert_eq!(spec.max_packets_unaligned(), 2); // 1 per node
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = DeadlockCycleSpec::uniform(0, 4, 3, 4);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lists_panic() {
        let _ = DeadlockCycleSpec::heterogeneous(&[4, 4], &[3], 4);
    }
}
