//! The seeded fault injector and its census counters.

use ftnoc_rng::CounterRng;
use ftnoc_types::flit::{FlitPayload, FLIT_TOTAL_BITS};

use crate::rates::FaultRates;

/// What a link error event did to the traversing flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkErrorKind {
    /// Exactly one bit flipped — correctable by SEC/DED.
    SingleBit,
    /// Two bits flipped — detectable but uncorrectable.
    MultiBit,
}

ftnoc_metrics::census! {
    /// Census of injected faults, per site.
    pub struct FaultCounts {
        /// Link error events (single- plus multi-bit).
        link,
        /// of which multi-bit.
        link_multi_bit,
        /// Routing-logic upsets.
        rt,
        /// VC-allocator upsets.
        va,
        /// Switch-allocator upsets.
        sa,
        /// Crossbar upsets.
        crossbar,
        /// Handshake-wire upsets.
        handshake,
    }
}

impl FaultCounts {
    /// Total injected faults across all sites (`link_multi_bit` is a
    /// subset of `link`, so it is not added again).
    pub fn total(&self) -> u64 {
        self.link + self.rt + self.va + self.sa + self.crossbar + self.handshake
    }
}

/// Seeded source of fault events.
///
/// One injector per router; determinism follows from the seed, so any
/// run can be replayed bit-for-bit. Draws are **counter-based**
/// ([`CounterRng`]): every sample is a pure hash of
/// `(seed, cycle, draw-index)`, so a router whose cycle is skipped by
/// the activity-gated engine consumes nothing — the fault sequence of a
/// computed cycle is identical whether or not earlier cycles ran.
/// Callers must position the injector with
/// [`FaultInjector::begin_cycle`] before the first draw of each cycle.
#[derive(Debug)]
pub struct FaultInjector {
    rates: FaultRates,
    rng: CounterRng,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Creates an injector from validated rates and a seed.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultRates::validate`] fails; a built `SimConfig`
    /// cannot fail it.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        rates
            .validate()
            .expect("fault rates are validated at config build");
        FaultInjector {
            rates,
            rng: CounterRng::new(seed),
            counts: FaultCounts::default(),
        }
    }

    /// Positions the fault stream at `cycle` and resets the per-cycle
    /// draw index. Idempotent; skipped cycles need no call at all.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.rng.set_cycle(cycle);
    }

    /// The configured rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// The injected-fault census so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    #[inline]
    fn fires(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen_bool(rate)
    }

    /// Samples a link error for one flit traversal.
    #[inline]
    pub(crate) fn link_error(&mut self) -> Option<LinkErrorKind> {
        if !self.fires(self.rates.link) {
            return None;
        }
        self.counts.link += 1;
        if self.rng.gen_bool(self.rates.mix.single_bit()) {
            Some(LinkErrorKind::SingleBit)
        } else {
            self.counts.link_multi_bit += 1;
            Some(LinkErrorKind::MultiBit)
        }
    }

    /// Applies a sampled link error to a physical word: flips one random
    /// bit, or two distinct random bits for [`LinkErrorKind::MultiBit`].
    pub(crate) fn corrupt_payload(&mut self, payload: &mut FlitPayload, kind: LinkErrorKind) {
        let first = self.rng.bounded(u64::from(FLIT_TOTAL_BITS)) as u32;
        payload.flip_bit(first);
        if kind == LinkErrorKind::MultiBit {
            let mut second = self.rng.bounded(u64::from(FLIT_TOTAL_BITS - 1)) as u32;
            if second >= first {
                second += 1;
            }
            payload.flip_bit(second);
        }
    }

    /// Samples and applies a link error in one step.
    #[inline]
    pub fn corrupt_on_link(&mut self, payload: &mut FlitPayload) {
        if let Some(kind) = self.link_error() {
            self.corrupt_payload(payload, kind);
        }
    }

    /// Samples a routing-logic upset for one route computation. When it
    /// fires, the routing unit's output direction is replaced by
    /// `corrupt_choice` over the port count.
    #[inline]
    pub fn rt_upset(&mut self) -> bool {
        let fired = self.fires(self.rates.rt);
        if fired {
            self.counts.rt += 1;
        }
        fired
    }

    /// Samples a VC-allocator upset for one allocation.
    #[inline]
    pub fn va_upset(&mut self) -> bool {
        let fired = self.fires(self.rates.va);
        if fired {
            self.counts.va += 1;
        }
        fired
    }

    /// Samples a switch-allocator upset for one grant.
    #[inline]
    pub fn sa_upset(&mut self) -> bool {
        let fired = self.fires(self.rates.sa);
        if fired {
            self.counts.sa += 1;
        }
        fired
    }

    /// Samples a crossbar upset for one flit traversal.
    #[inline]
    pub fn crossbar_upset(&mut self) -> bool {
        let fired = self.fires(self.rates.crossbar);
        if fired {
            self.counts.crossbar += 1;
        }
        fired
    }

    /// Samples a handshake-wire upset for one transfer.
    #[inline]
    pub fn handshake_upset(&mut self) -> bool {
        let fired = self.fires(self.rates.handshake);
        if fired {
            self.counts.handshake += 1;
        }
        fired
    }

    /// Uniformly corrupts a discrete choice: returns a value in
    /// `0..range` different from `correct` (used to corrupt port/VC ids).
    ///
    /// # Panics
    ///
    /// Panics if `range < 2`.
    pub fn corrupt_choice(&mut self, correct: usize, range: usize) -> usize {
        assert!(range >= 2, "cannot corrupt a choice over {range} values");
        let mut v = self.rng.bounded((range - 1) as u64) as usize;
        if v >= correct.min(range - 1) {
            v += 1;
        }
        v
    }

    /// Draws a random bit index over the 72-bit flit word.
    pub fn random_bit(&mut self) -> u32 {
        self.rng.bounded(u64::from(FLIT_TOTAL_BITS)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::ErrorMix;

    #[test]
    fn zero_rates_never_fire() {
        let mut inj = FaultInjector::new(FaultRates::none(), 7);
        for _ in 0..10_000 {
            assert!(inj.link_error().is_none());
            assert!(!inj.rt_upset());
            assert!(!inj.va_upset());
            assert!(!inj.sa_upset());
            assert!(!inj.crossbar_upset());
            assert!(!inj.handshake_upset());
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn rate_one_always_fires() {
        let mut inj = FaultInjector::new(FaultRates::link_only(1.0), 7);
        for _ in 0..100 {
            assert!(inj.link_error().is_some());
        }
        assert_eq!(inj.counts().link, 100);
    }

    #[test]
    fn census_counts_each_site() {
        let rates = FaultRates {
            link: 1.0,
            rt: 1.0,
            va: 1.0,
            sa: 1.0,
            crossbar: 1.0,
            handshake: 1.0,
            mix: ErrorMix::default(),
        };
        let mut inj = FaultInjector::new(rates, 3);
        inj.link_error();
        inj.rt_upset();
        inj.va_upset();
        inj.sa_upset();
        inj.crossbar_upset();
        inj.handshake_upset();
        let c = inj.counts();
        assert_eq!(
            (c.link, c.rt, c.va, c.sa, c.crossbar, c.handshake),
            (1, 1, 1, 1, 1, 1)
        );
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn error_mix_ratio_holds() {
        let rates = FaultRates {
            link: 1.0,
            mix: ErrorMix::new(0.9),
            ..FaultRates::default()
        };
        let mut inj = FaultInjector::new(rates, 11);
        let n = 20_000;
        let multi = (0..n)
            .filter(|_| inj.link_error() == Some(LinkErrorKind::MultiBit))
            .count();
        let frac = multi as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "multi-bit fraction {frac}");
        assert_eq!(inj.counts().link_multi_bit, multi as u64);
    }

    #[test]
    fn corruption_flips_expected_bit_count() {
        let mut inj = FaultInjector::new(FaultRates::link_only(1.0), 5);
        for _ in 0..200 {
            let clean = FlitPayload::new(0xAAAA_5555_0F0F_F0F0, 0x3C);
            let mut word = clean;
            inj.corrupt_payload(&mut word, LinkErrorKind::SingleBit);
            assert_eq!(clean.hamming_distance(word), 1);
            let mut word = clean;
            inj.corrupt_payload(&mut word, LinkErrorKind::MultiBit);
            assert_eq!(clean.hamming_distance(word), 2);
        }
    }

    #[test]
    fn corrupt_choice_never_returns_correct() {
        let mut inj = FaultInjector::new(FaultRates::none(), 9);
        for correct in 0..5 {
            for _ in 0..100 {
                let v = inj.corrupt_choice(correct, 5);
                assert_ne!(v, correct);
                assert!(v < 5);
            }
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut a = FaultInjector::new(FaultRates::link_only(0.3), 77);
        let mut b = FaultInjector::new(FaultRates::link_only(0.3), 77);
        for cycle in 0..1000 {
            a.begin_cycle(cycle);
            b.begin_cycle(cycle);
            assert_eq!(a.link_error(), b.link_error());
        }
    }

    #[test]
    fn skipped_cycles_consume_no_draws() {
        // The activity-gating contract: an injector that only computes
        // cycle 500 sees the same fault sequence there as one that
        // computed every cycle up to it.
        let rates = FaultRates {
            link: 0.5,
            sa: 0.5,
            ..FaultRates::default()
        };
        let mut dense = FaultInjector::new(rates, 0xF70C);
        for cycle in 0..=500 {
            dense.begin_cycle(cycle);
            let _ = dense.link_error();
            let _ = dense.sa_upset();
        }
        let mut sparse = FaultInjector::new(rates, 0xF70C);
        sparse.begin_cycle(500);
        // Replay cycle 500 on the dense injector for comparison.
        dense.begin_cycle(500);
        assert_eq!(dense.link_error(), sparse.link_error());
        assert_eq!(dense.sa_upset(), sparse.sa_upset());
    }

    #[test]
    #[should_panic(expected = "cannot corrupt")]
    fn corrupt_choice_needs_two_values() {
        let mut inj = FaultInjector::new(FaultRates::none(), 1);
        inj.corrupt_choice(0, 1);
    }
}
