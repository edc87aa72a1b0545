//! Round-robin arbitration, the grant fabric of the VA and SA units,
//! and `ones`, the one walk over a bit mask.

/// The set bits of `mask`, lowest first: how every stage walks a mask
/// of VCs, ports or routers that have work, and how the oracle walks a
/// snapshot's live VCs.
pub fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
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
#[derive(Debug, Clone)]
pub(crate) struct RoundRobinArbiter {
    n: usize,
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobinArbiter { n, next: 0 }
    }

    /// Grants the first asserted requester at or after the priority
    /// pointer, wrapping, and rotates priority past it.
    ///
    /// Returns `None` when no bit is set, leaving the pointer where it
    /// was, so a caller may skip an all-zero request. Bits at or beyond
    /// `n` must be clear. A one-word request is one rotate and one
    /// `trailing_zeros`; wider ones scan word by word.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not `n.div_ceil(64)`.
    pub(crate) fn grant(&mut self, words: &[u64]) -> Option<usize> {
        assert_eq!(words.len(), self.n.div_ceil(64), "request width mismatch");
        if let [mask] = *words {
            // Rotating `next` down to bit 0 puts the requesters at or
            // after it first and the ones below it, wrapped, after them
            // (bits at or beyond `n` are clear), so the lowest set bit
            // is the winner.
            if mask == 0 {
                return None;
            }
            let offset = mask.rotate_right(self.next as u32).trailing_zeros() as usize;
            return Some(self.rotate_past((self.next + offset) % 64));
        }
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
        Some(self.rotate_past(w * 64 + bits.trailing_zeros() as usize))
    }

    /// Moves priority to the requester after `winner` and returns it.
    fn rotate_past(&mut self, winner: usize) -> usize {
        debug_assert!(winner < self.n, "request bit beyond the arbiter width");
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        winner
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
    fn grants_in_turn() {
        let mut arb = RoundRobinArbiter::new(3);
        assert_eq!(arb.grant(&[0b111]), Some(0));
        assert_eq!(arb.grant(&[0b111]), Some(1));
        assert_eq!(arb.grant(&[0b111]), Some(2));
        assert_eq!(arb.grant(&[0b111]), Some(0));
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

    /// An `n`-bit mask as the `bool` requests the reference reads.
    fn bools(mask: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| mask >> i & 1 == 1).collect()
    }

    /// Every width 1–8, every pointer position, every request mask (the
    /// empty one included): the one-word path grants what the `bool`
    /// scan grants and leaves the pointer where the scan leaves it.
    #[test]
    fn one_word_path_is_exhaustively_the_bool_scan() {
        for n in 1..=8usize {
            for next in 0..n {
                for mask in 0..1u64 << n {
                    let mut arb = RoundRobinArbiter { n, next };
                    let mut reference = BoolArbiter { n, next };
                    let won = arb.grant(&[mask]);
                    assert_eq!(
                        won,
                        reference.grant(&bools(mask, n)),
                        "n {n} next {next} mask {mask:#b}"
                    );
                    assert_eq!(arb.next, reference.next, "n {n} next {next} mask {mask:#b}");
                }
            }
        }
    }

    /// Widths 63 and 64 with the pointer driven to every position: the
    /// rotate's wrap edge, where the winner sits below the pointer or at
    /// bit 63.
    #[test]
    fn one_word_path_wraps_at_every_pointer() {
        let mut rng = Rng::seed_from_u64(0xA4B2);
        for n in [63usize, 64] {
            let top = u64::MAX >> (64 - n);
            let mut arb = RoundRobinArbiter::new(n);
            let mut reference = BoolArbiter { n, next: 0 };
            for next in 0..n {
                // A lone request at `next` drives the pointer there.
                let prev = (next + n - 1) % n;
                assert_eq!(
                    arb.grant(&[1 << prev]),
                    reference.grant(&bools(1 << prev, n))
                );
                assert_eq!(arb.next, next);
                // Every lone requester, then full, full-but-the-pointer
                // and random masks.
                let lone = (0..n).map(|b| 1u64 << b);
                let many = [top, top & !(1 << next), rng.next_u64() & top];
                for mask in lone.chain(many) {
                    let (mut a, mut r) = (arb.clone(), BoolArbiter { n, next });
                    assert_eq!(
                        a.grant(&[mask]),
                        r.grant(&bools(mask, n)),
                        "n {n} next {next} mask {mask:#x}"
                    );
                    assert_eq!(a.next, r.next, "n {n} next {next} mask {mask:#x}");
                }
            }
        }
    }

    /// An empty request grants nothing and leaves the pointer alone, so
    /// skipping the call is the same as making it.
    #[test]
    fn empty_request_leaves_the_pointer() {
        for n in [1usize, 5, 64, 65, 130] {
            let mut arb = RoundRobinArbiter::new(n);
            let (mut req, mid) = (vec![0u64; n.div_ceil(64)], n / 2);
            req[mid / 64] = 1 << (mid % 64);
            assert_eq!(arb.grant(&req), Some(mid));
            req.fill(0);
            assert_eq!(arb.grant(&req), None);
            assert_eq!(arb.next, (mid + 1) % n, "width {n}");
        }
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
