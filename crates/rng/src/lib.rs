//! Deterministic pseudo-random numbers without external dependencies.
//!
//! The simulator's reproducibility story ("the same configuration always
//! produces bit-identical results") needs a PRNG whose byte stream is
//! owned by this repository, not by a third-party crate whose algorithm
//! or API may drift between versions — and whose absence must never
//! break an offline build. [`Rng`] is **xoshiro256\*\*** (Blackman &
//! Vigna), seeded by expanding a single `u64` through **SplitMix64**,
//! the exact construction the reference implementation recommends.
//!
//! The API mirrors the subset of `rand` the workspace used, so call
//! sites read the same: [`Rng::seed_from_u64`], [`Rng::gen_bool`],
//! [`Rng::gen_range`] over integer and float ranges.
//!
//! # Examples
//!
//! ```
//! use ftnoc_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let die = rng.gen_range(1..7u32);
//! assert!((1..7).contains(&die));
//! let p = rng.gen_range(0.0..1.0f64);
//! assert!((0.0..1.0).contains(&p));
//!
//! // Same seed, same stream — always.
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

use std::ops::Range;

/// One step of the SplitMix64 sequence: returns the next output and
/// advances the state. Used to expand seeds and derive substreams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* generator.
///
/// 256 bits of state, period `2^256 - 1`, passes BigCrush; not
/// cryptographic (none of the simulator's uses need that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds a generator by expanding `seed` through SplitMix64, as the
    /// xoshiro reference code prescribes (avoids the all-zero state and
    /// decorrelates nearby seeds).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent substream: the pair `(seed, stream)` is
    /// hashed into a fresh seed, so per-component generators (traffic,
    /// faults, …) never share a sequence even when built from one master
    /// seed.
    pub fn seed_from_u64_stream(seed: u64, stream: u64) -> Self {
        let mut sm = seed;
        let a = splitmix64(&mut sm);
        let mut sm2 = stream ^ a.rotate_left(17);
        Rng::seed_from_u64(splitmix64(&mut sm2))
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1` (NaN rejected).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
        // Exact for p == 1.0: next_f64() < 1.0 always holds.
        if p == 1.0 {
            let _ = self.next_u64();
            return true;
        }
        self.next_f64() < p
    }

    /// A uniform draw from a half-open range, for any supported scalar
    /// (`u8`–`u64`, `usize`, and `f64`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// Uniform integer in `[0, bound)` without modulo bias, via Lemire's
    /// widening-multiply method (the bias is at most `2^-64` per draw —
    /// far below anything a simulation statistic can resolve, and the
    /// rejection-free form keeps the stream length deterministic, which
    /// replayable traces require).
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A stateless counter-based generator: every output is a pure hash of
/// `(key, cycle, sequence-number)`, so a consumer that never reaches a
/// given `(cycle, seq)` coordinate consumes nothing from any stream.
///
/// This is what makes activity gating sound for fault injection: a
/// router skipped on cycle *t* draws nothing at *t*, and a router
/// computed on cycle *t* draws exactly the values it would have drawn
/// had every earlier cycle been computed too. Contrast with [`Rng`],
/// whose draw *positions* depend on how many draws preceded them.
///
/// The hash is three rounds of the SplitMix64 finalizer over the key
/// and both counters — the same mixer [`Rng::seed_from_u64`] trusts for
/// seed expansion — and the draw helpers reproduce [`Rng`]'s exact
/// per-draw math (53-bit `f64` mantissa, Lemire bounded multiply), so
/// statistical behaviour is unchanged.
///
/// # Examples
///
/// ```
/// use ftnoc_rng::CounterRng;
///
/// let mut a = CounterRng::new(7);
/// let mut b = CounterRng::new(7);
/// a.set_cycle(100);
/// b.set_cycle(100);
/// assert_eq!(a.next_u64(), b.next_u64()); // same coordinate, same value
///
/// // Skipping cycles 0..100 changes nothing: draws are addressed, not
/// // consumed from a sequence.
/// let mut c = CounterRng::new(7);
/// for cycle in 0..=100 {
///     c.set_cycle(cycle);
/// }
/// assert_eq!(CounterRng::new(7).at(100).next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
    cycle: u64,
    seq: u64,
}

impl CounterRng {
    /// Creates a generator keyed on `key` (e.g. a per-router seed
    /// already mixed from the master seed), positioned at cycle 0.
    pub fn new(key: u64) -> Self {
        CounterRng {
            key,
            cycle: 0,
            seq: 0,
        }
    }

    /// Repositions the generator at `cycle` and resets the per-cycle
    /// draw counter. Call once at the top of each computed cycle.
    #[inline]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.seq = 0;
    }

    /// Builder form of [`CounterRng::set_cycle`] for tests and docs.
    pub fn at(mut self, cycle: u64) -> Self {
        self.set_cycle(cycle);
        self
    }

    /// The next 64 uniformly distributed bits at this `(cycle, seq)`
    /// coordinate; advances only the per-cycle draw counter.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        // Three finalizer rounds, folding one coordinate in per round.
        // Each round's *output* (not its Weyl state) seeds the next, so
        // nearby keys/cycles are fully mixed before the next coordinate
        // is XORed in — adjacent coordinates land in decorrelated
        // states exactly as distant SplitMix64 stream positions do.
        let mut s = self.key;
        let h = splitmix64(&mut s);
        s = h ^ self.cycle;
        let h = splitmix64(&mut s);
        s = h ^ seq;
        splitmix64(&mut s)
    }

    /// A uniform `f64` in `[0, 1)` — bit-compatible with
    /// [`Rng::next_f64`]'s mantissa construction.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`. Consumes one
    /// counter coordinate, like [`Rng::gen_bool`] consumes one stream
    /// position.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1` (NaN rejected).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
        if p == 1.0 {
            let _ = self.next_u64();
            return true;
        }
        self.next_f64() < p
    }

    /// Uniform integer in `[0, bound)` via the same rejection-free
    /// Lemire multiply as [`Rng`].
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range 0..0");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Scalars that [`Rng::gen_range`] can draw uniformly.
pub trait UniformRange: Copy {
    /// Draws a uniform value in `[lo, hi)`.
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range {lo}..{hi}");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(rng.bounded_u64(span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

impl UniformRange for f64 {
    #[inline]
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let v = lo + rng.next_f64() * (hi - lo);
        // Rounding may land exactly on `hi`; fold back inside.
        if v >= hi {
            lo
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_matches_xoshiro256starstar() {
        // State {1, 2, 3, 4} must reproduce the published sequence of
        // the reference C implementation.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expect: [u64; 6] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
        ];
        for (i, e) in expect.into_iter().enumerate() {
            assert_eq!(rng.next_u64(), e, "output {i}");
        }
    }

    #[test]
    fn splitmix_seed_expansion_is_stable() {
        // Pin the seeding so traces stay reproducible across refactors.
        let mut rng = Rng::seed_from_u64(0);
        let first = rng.next_u64();
        let mut again = Rng::seed_from_u64(0);
        assert_eq!(first, again.next_u64());
        assert_ne!(
            Rng::seed_from_u64(1).next_u64(),
            Rng::seed_from_u64(2).next_u64()
        );
    }

    #[test]
    fn streams_are_decorrelated() {
        let mut a = Rng::seed_from_u64_stream(99, 0);
        let mut b = Rng::seed_from_u64_stream(99, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_int_covers_bounds() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.gen_range(0..6usize);
            assert!(v < 6);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        for _ in 0..1000 {
            let v = rng.gen_range(10..12u32);
            assert!((10..12).contains(&v));
        }
    }

    #[test]
    fn gen_range_int_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(17);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..11_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn gen_range_f64_stays_inside() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.gen_range(2.5..7.5f64);
            assert!((2.5..7.5).contains(&v), "{v}");
        }
    }

    #[test]
    fn gen_bool_frequencies_track_p() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
    }

    #[test]
    fn counter_rng_is_coordinate_addressed() {
        // Reaching a coordinate directly or after touring every earlier
        // cycle yields the same value: nothing is "consumed".
        let direct = CounterRng::new(0xF70C).at(5_000).next_u64();
        let mut toured = CounterRng::new(0xF70C);
        for cycle in 0..=5_000 {
            toured.set_cycle(cycle);
            if cycle % 3 == 0 {
                let _ = toured.next_u64(); // stray draws on other cycles
            }
            toured.set_cycle(cycle);
        }
        assert_eq!(direct, toured.next_u64());
    }

    #[test]
    fn counter_rng_decorrelates_neighbours() {
        // Adjacent cycles, sequence numbers and keys must not collide or
        // correlate visibly.
        let mut seen = std::collections::HashSet::new();
        for key in 0..4u64 {
            for cycle in 0..64u64 {
                let mut r = CounterRng::new(key).at(cycle);
                for _ in 0..4 {
                    assert!(seen.insert(r.next_u64()), "collision at {key}/{cycle}");
                }
            }
        }
    }

    #[test]
    fn counter_rng_frequencies_track_p() {
        let mut r = CounterRng::new(11);
        let mut hits = 0;
        for cycle in 0..100_000u64 {
            r.set_cycle(cycle);
            if r.gen_bool(0.3) {
                hits += 1;
            }
        }
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn counter_rng_bounded_is_roughly_uniform() {
        let mut r = CounterRng::new(17);
        let mut counts = [0u32; 8];
        for cycle in 0..80_000u64 {
            r.set_cycle(cycle);
            counts[r.bounded(8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..11_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn counter_rng_zero_bound_panics() {
        let _ = CounterRng::new(1).bounded(0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = rng.gen_bool(1.5);
    }
}
