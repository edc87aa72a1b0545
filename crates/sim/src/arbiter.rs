//! Round-robin arbitration, the grant fabric of the VA and SA units,
//! and `ones`, the one walk over a bit mask.

/// The set bits of `mask`, lowest first: how every stage walks a mask
/// of VCs, ports or routers that have work.
pub(crate) fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// A rotating-priority arbiter over `n` requesters.
///
/// Requests arrive as a bit mask over `u64` words: requester `i` is bit
/// `i % 64` of `words[i / 64]`. After a grant, priority rotates to the
/// requester after the winner, so every persistent requester is served
/// within `n` grants (strong fairness).
///
/// # Examples
///
/// ```
/// use ftnoc_sim::arbiter::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(3);
/// assert_eq!(arb.grant(&[0b111]), Some(0));
/// assert_eq!(arb.grant(&[0b111]), Some(1));
/// assert_eq!(arb.grant(&[0b111]), Some(2));
/// assert_eq!(arb.grant(&[0b111]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    n: usize,
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobinArbiter { n, next: 0 }
    }

    /// Grants the first asserted requester at or after the priority
    /// pointer, wrapping, and rotates priority past it.
    ///
    /// Returns `None` when no bit is set. Bits at or beyond `n` must be
    /// clear.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not `n.div_ceil(64)`.
    pub fn grant(&mut self, words: &[u64]) -> Option<usize> {
        assert_eq!(words.len(), self.n.div_ceil(64), "request width mismatch");
        let (start, from_next) = (self.next / 64, u64::MAX << (self.next % 64));
        // The bits at or after `next`, then each following word, wrapping
        // round to the bits of `next`'s own word below it.
        let (mut w, mut bits) = (start, words[start] & from_next);
        for _ in 0..words.len() {
            if bits != 0 {
                break;
            }
            w = if w + 1 == words.len() { 0 } else { w + 1 };
            bits = words[w] & if w == start { !from_next } else { u64::MAX };
        }
        if bits == 0 {
            return None;
        }
        let winner = w * 64 + bits.trailing_zeros() as usize;
        debug_assert!(winner < self.n, "request bit beyond the arbiter width");
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_rng::Rng;

    /// The arbiter as it was before requests became words: a scan over
    /// one `bool` per requester. The property test below holds the word
    /// arbiter to it.
    struct BoolArbiter {
        n: usize,
        next: usize,
    }

    impl BoolArbiter {
        fn grant(&mut self, requests: &[bool]) -> Option<usize> {
            for offset in 0..self.n {
                let idx = (self.next + offset) % self.n;
                if requests[idx] {
                    self.next = (idx + 1) % self.n;
                    return Some(idx);
                }
            }
            None
        }
    }

    fn words(requests: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; requests.len().div_ceil(64)];
        for (i, _) in requests.iter().enumerate().filter(|(_, &r)| r) {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    #[test]
    fn serves_all_persistent_requesters_fairly() {
        let mut arb = RoundRobinArbiter::new(4);
        let mut counts = [0u32; 4];
        for _ in 0..400 {
            let winner = arb.grant(&[0b1111]).unwrap();
            counts[winner] += 1;
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }

    #[test]
    fn skips_idle_requesters() {
        let mut arb = RoundRobinArbiter::new(3);
        assert_eq!(arb.grant(&[0b010]), Some(1));
        assert_eq!(arb.grant(&[0b010]), Some(1));
        assert_eq!(arb.grant(&[0]), None);
    }

    #[test]
    fn rotation_starts_after_last_winner() {
        let mut arb = RoundRobinArbiter::new(3);
        assert_eq!(arb.grant(&[0b101]), Some(0));
        // Priority now at 1; 1 idle, so 2 wins.
        assert_eq!(arb.grant(&[0b101]), Some(2));
        // Priority wraps to 0.
        assert_eq!(arb.grant(&[0b101]), Some(0));
    }

    #[test]
    fn no_starvation_under_skewed_load() {
        // Requester 0 always asserts; requester 3 asserts every cycle too.
        let mut arb = RoundRobinArbiter::new(4);
        let mut wins3 = 0;
        for _ in 0..100 {
            if arb.grant(&[0b1001]) == Some(3) {
                wins3 += 1;
            }
        }
        assert_eq!(wins3, 50);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        let mut arb = RoundRobinArbiter::new(65);
        let _ = arb.grant(&[u64::MAX]);
    }

    /// The word arbiter grants exactly what the `bool` scan grants, over
    /// random widths (one word, several words, the 64-bit boundaries)
    /// and random request streams of varying density.
    #[test]
    fn matches_the_bool_scan() {
        let mut rng = Rng::seed_from_u64(0xA4B1);
        let mut widths: Vec<usize> = vec![1, 2, 63, 64, 65, 127, 128, 129, 767, 768];
        widths.extend((0..40).map(|_| rng.gen_range(1..769usize)));
        for n in widths {
            let mut arb = RoundRobinArbiter::new(n);
            let mut reference = BoolArbiter { n, next: 0 };
            for step in 0..200 {
                // Densities from "one line in n" to "every line".
                let p = [1.0 / n as f64, 0.05, 0.5, 1.0][step % 4];
                let requests: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
                assert_eq!(
                    arb.grant(&words(&requests)),
                    reference.grant(&requests),
                    "width {n}, step {step}"
                );
            }
        }
    }
}
